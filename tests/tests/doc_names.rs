//! The prose names code that exists: every backticked `<file>.rs::<name>`
//! (a bare file name is looked up under `crates/`), every backticked
//! `WikiSearch::<method>` and every backticked `<crate>::<module>[::<item>]`
//! whose first segment is a crate under `crates/` in README.md, DESIGN.md,
//! `docs/*.md`, the CI workflow and the verify skill must resolve to a
//! definition in the sources; and every `--test <name>`, every backticked
//! `tests/tests/<file>.rs` and every bare backticked `<name>_equivalence`
//! there must name a test suite — `tests/tests/<name>.rs` or
//! `crates/*/tests/<name>.rs`. A deletion or rename that leaves a doc
//! pointing at nothing fails here, the way the metric table's README
//! coverage test fails for a metric nobody documented.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The documents whose names are checked.
fn documents(root: &Path) -> Vec<PathBuf> {
    let mut docs = vec![root.join("README.md"), root.join("DESIGN.md")];
    let mut more: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "md"))
        .collect();
    more.sort();
    docs.extend(more);
    docs.push(root.join(".github/workflows/ci.yml"));
    docs.push(root.join(".claude/skills/verify/SKILL.md"));
    docs
}

/// Every `*.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// The contents of code spans, whitespace collapsed (a span may wrap).
fn code_spans(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `source` defines an item, method or module called `name`.
fn defines(source: &str, name: &str) -> bool {
    [
        "fn",
        "struct",
        "enum",
        "trait",
        "type",
        "const",
        "static",
        "mod",
        "macro_rules!",
    ]
    .iter()
    .any(|kw| {
        let needle = format!("{kw} {name}");
        source.match_indices(&needle).any(|(at, _)| {
            let before = source[..at].chars().next_back();
            let after = source[at + needle.len()..].chars().next();
            !before.is_some_and(is_ident_char) && !after.is_some_and(is_ident_char)
        })
    })
}

/// The leading identifier of `s`.
fn ident(s: &str) -> &str {
    &s[..s.find(|c: char| !is_ident_char(c)).unwrap_or(s.len())]
}

/// Why the `<file>.rs::<a>::<b>…` reference starting `text` does not
/// resolve, or `None` when every segment is defined in that file.
fn unresolved_file_ref(root: &Path, sources: &[PathBuf], text: &str) -> Option<String> {
    let (file, rest) = text.split_once(".rs::")?;
    let file = format!("{file}.rs");
    let candidates: Vec<&PathBuf> = if file.contains('/') {
        sources.iter().filter(|p| *p == &root.join(&file)).collect()
    } else {
        sources.iter().filter(|p| p.file_name().is_some_and(|n| *n == *file)).collect()
    };
    if candidates.is_empty() {
        return Some(format!("no source file {file}"));
    }
    let names: Vec<&str> = rest.split("::").map(ident).take_while(|n| !n.is_empty()).collect();
    let found = candidates.iter().any(|path| {
        let source = read(path);
        names.iter().all(|name| defines(&source, name))
    });
    (!found).then(|| format!("{names:?} not all defined in {file}"))
}

/// Why the `WikiSearch::<method>` reference starting `text` does not
/// resolve (`{a, b}`, `a/b` and `a()` forms included).
fn unresolved_facade_ref(facade: &str, text: &str) -> Option<String> {
    let rest = text.strip_prefix("WikiSearch::")?;
    let methods: Vec<&str> = match rest.strip_prefix('{') {
        Some(group) => {
            group.split('}').next().unwrap().split(',').map(|m| ident(m.trim())).collect()
        }
        None => rest
            .split(|c: char| c.is_whitespace() || c == '(')
            .next()
            .unwrap()
            .split('/')
            .map(ident)
            .collect(),
    };
    let missing: Vec<&&str> = methods.iter().filter(|m| !defines(facade, m)).collect();
    (!missing.is_empty()).then(|| format!("WikiSearch has no {missing:?}"))
}

/// Why the `<crate>::<a>::<b>…` reference starting `text` (a trailing
/// `{x, y}` group included) does not resolve. Each leading segment that
/// names a module file — `<a>.rs` or `<a>/mod.rs` — descends into it; the
/// segments after the last module must all be defined in that module's
/// files.
fn unresolved_crate_ref(src: &Path, text: &str) -> Option<String> {
    let (mut path, mut group) = (Vec::new(), Vec::new());
    for segment in text.split("::").skip(1) {
        if let Some(members) = segment.strip_prefix('{') {
            let members = members.split('}').next().unwrap();
            group.extend(members.split(',').map(|m| ident(m.trim())));
            break;
        }
        let name = ident(segment);
        if name.is_empty() {
            break;
        }
        path.push(name);
        if name.len() < segment.len() {
            break;
        }
    }
    let (mut module, mut dir, mut depth) = (src.join("lib.rs"), src.to_path_buf(), 0);
    for name in &path {
        let file = [dir.join(format!("{name}.rs")), dir.join(name).join("mod.rs")]
            .into_iter()
            .find(|f| f.is_file());
        let Some(file) = file else { break };
        (module, dir, depth) = (file, dir.join(name), depth + 1);
    }
    let mut files = vec![module];
    if dir.is_dir() {
        rust_files(&dir, &mut files);
    }
    let sources: Vec<String> = files.iter().map(|f| read(f)).collect();
    let items = path[depth..].iter().chain(&group);
    let missing: Vec<&&str> = items.filter(|n| !sources.iter().any(|s| defines(s, n))).collect();
    (!missing.is_empty()).then(|| format!("{missing:?} not defined in {}", dir.display()))
}

/// What the references are resolved against.
struct Code {
    root: PathBuf,
    /// Every source file under `crates/`.
    sources: Vec<PathBuf>,
    /// The facade crate's `lib.rs`.
    facade: String,
    /// Each crate under `crates/` as paths name it (`wikisearch-engine`
    /// is `wikisearch_engine`), with its `src/` directory.
    crates: Vec<(String, PathBuf)>,
    /// Every test suite: the `<name>` of each `tests/tests/<name>.rs` and
    /// `crates/*/tests/<name>.rs`.
    suites: Vec<String>,
}

/// The `<name>` of each `<dir>/<name>.rs`.
fn suites_in(dir: &Path) -> impl Iterator<Item = String> {
    std::fs::read_dir(dir).into_iter().flatten().filter_map(|entry| {
        let path = entry.unwrap().path();
        let name = path.file_name()?.to_str()?.strip_suffix(".rs")?;
        Some(name.to_owned())
    })
}

impl Code {
    fn load() -> Code {
        let root = repo_root();
        let mut sources = Vec::new();
        rust_files(&root.join("crates"), &mut sources);
        let facade = read(&root.join("crates/engine/src/lib.rs"));
        let mut crates = Vec::new();
        let mut suites: Vec<String> = suites_in(&root.join("tests/tests")).collect();
        for entry in std::fs::read_dir(root.join("crates")).unwrap() {
            let dir = entry.unwrap().path();
            let manifest = read(&dir.join("Cargo.toml"));
            let name = manifest.lines().find_map(|l| l.strip_prefix("name = ")).unwrap();
            crates.push((name.trim_matches('"').replace('-', "_"), dir.join("src")));
            suites.extend(suites_in(&dir.join("tests")));
        }
        Code { root, sources, facade, crates, suites }
    }

    /// Why the suite `name` does not exist, or `None` when it does.
    fn unresolved_suite(&self, name: &str) -> Option<String> {
        let why = format!("no suite tests/tests/{name}.rs or crates/*/tests/{name}.rs");
        (!self.suites.iter().any(|suite| suite == name)).then_some(why)
    }

    /// Every `--test <name>` in `text`, with why `<name>` names no suite
    /// (`None` when it does).
    fn suite_flags(&self, text: &str) -> Vec<(String, Option<String>)> {
        let flags = text.match_indices("--test").map(|(at, flag)| &text[at + flag.len()..]);
        let names = flags.filter(|rest| rest.starts_with(char::is_whitespace));
        names
            .map(|rest| ident(rest.trim_start()))
            .map(|name| (format!("--test {name}"), self.unresolved_suite(name)))
            .collect()
    }

    /// Every `<file>.rs::…`, `WikiSearch::…`, `<crate>::…` and
    /// `tests/tests/<file>.rs` reference in one code span, and the span
    /// itself when it is a bare `<name>_equivalence`, each with why it does
    /// not resolve (`None` when it does).
    fn references(&self, span: &str) -> Vec<(String, Option<String>)> {
        let path_char = |c: char| is_ident_char(c) || c == '/' || c == '.' || c == '-';
        let mut out = Vec::new();
        for (at, dir) in span.match_indices("tests/tests/") {
            let name = ident(&span[at + dir.len()..]);
            if span[at + dir.len() + name.len()..].starts_with(".rs") {
                out.push((format!("{dir}{name}.rs"), self.unresolved_suite(name)));
            }
        }
        if span.ends_with("_equivalence") && span.chars().all(is_ident_char) {
            out.push((span.to_owned(), self.unresolved_suite(span)));
        }
        for (at, _) in span.match_indices(".rs::") {
            let text = &span[span[..at].trim_end_matches(path_char).len()..];
            out.push((text.to_owned(), unresolved_file_ref(&self.root, &self.sources, text)));
        }
        for (at, _) in span.match_indices("WikiSearch::") {
            let text = &span[at..];
            out.push((text.to_owned(), unresolved_facade_ref(&self.facade, text)));
        }
        for (name, src) in &self.crates {
            for (at, _) in span.match_indices(&format!("{name}::")) {
                let before = span[..at].chars().next_back();
                if before.is_some_and(|c| is_ident_char(c) || c == ':') {
                    continue;
                }
                let text = &span[at..];
                out.push((text.to_owned(), unresolved_crate_ref(src, text)));
            }
        }
        out
    }
}

#[test]
fn docs_name_only_code_that_exists() {
    let code = Code::load();
    let (mut checked, mut broken) = (0, Vec::new());
    for doc in documents(&code.root) {
        let text = read(&doc);
        let spans = code_spans(&text);
        let references = spans.iter().flat_map(|span| code.references(span));
        for (name, why) in references.chain(code.suite_flags(&text)) {
            checked += 1;
            if let Some(why) = why {
                broken.push(format!("{}: `{name}`: {why}", doc.display()));
            }
        }
    }
    assert!(
        checked >= 5,
        "the scan found only {checked} references; is it reading the docs?"
    );
    assert!(broken.is_empty(), "docs name code that does not exist:\n{}", broken.join("\n"));
}

/// The checker itself: a deleted name is caught, a live one passes.
#[test]
fn the_name_check_tells_deleted_names_from_live_ones() {
    let code = Code::load();
    let broken = |span: &str| -> Vec<bool> {
        let references = code.references(span).into_iter().chain(code.suite_flags(span));
        references.map(|(_, why)| why.is_some()).collect()
    };
    assert_eq!(broken("crates/central/src/bottom_up.rs::run"), [true]);
    assert_eq!(broken("crates/central/src/bottom_up.rs::drive"), [false]);
    assert_eq!(broken("see top_down.rs::hitting_path_preds"), [false]);
    assert_eq!(broken("coordinator.rs::ShardCoordinator::in_process"), [false]);
    assert_eq!(broken("nowhere.rs::drive"), [true]);
    assert_eq!(
        broken("WikiSearch::{execute, search} and WikiSearch::set_shards"),
        [false, true]
    );
    assert_eq!(broken("WikiSearch::search/search_with_params"), [false]);
    assert_eq!(broken("WikiSearch::metrics_snapshot()"), [false]);
    assert_eq!(broken("central::matrix"), [true]);
    assert_eq!(broken("eval::judge"), [true]);
    assert_eq!(broken("central::remote::ShardCoordinator::in_process"), [false]);
    assert_eq!(broken("central::engine::{seq, par_cpu} and central::state"), [false, false]);
    let deleted = "batch_equivalence";
    assert_eq!(broken(deleted), [true]);
    assert_eq!(broken(&format!("cargo test --test {deleted}")), [true]);
    assert_eq!(broken(&format!("tests/tests/{deleted}.rs")), [true]);
    for live in ["lattice", "shard_equivalence", "remote_equivalence", "cache_equivalence"] {
        assert_eq!(broken(&format!("cargo test -q --test\n{live};")), [false], "{live}");
        assert_eq!(broken(&format!("tests/tests/{live}.rs")), [false], "{live}");
    }
    assert_eq!(broken("shard_equivalence"), [false]);
    assert_eq!(broken("*_equivalence"), []);
    assert_eq!(broken("--test serve_remote"), [false], "a crate's suite");
}
