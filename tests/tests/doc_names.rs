//! The prose names code that exists: every backticked `<file>.rs::<name>`
//! (a bare file name is looked up under `crates/`), every backticked
//! `WikiSearch::<method>` and every backticked `<crate>::<module>[::<item>]`
//! whose first segment is a crate under `crates/` in README.md, DESIGN.md,
//! EXPERIMENTS.md, `docs/*.md`, the CI workflow and the verify skill must
//! resolve to a definition in the sources; and every `--test <name>`,
//! every backticked `tests/tests/<file>.rs` and every bare backticked
//! `<name>_equivalence` there must name a test suite —
//! `tests/tests/<name>.rs` or `crates/*/tests/<name>.rs`. A deletion or
//! rename that leaves a doc pointing at nothing fails here, the way the
//! metric table's README coverage test fails for a metric nobody
//! documented.
//!
//! Three more checks keep the prose about the system as it is today:
//! DESIGN.md stays within [`DESIGN_MAX_LINES`]; no pull-request number
//! appears outside the history files (CHANGES.md, ROADMAP.md, the issue
//! and `benchmark/`, which changes only with the benchmark); and every
//! `ROADMAP [item] <n>[x]` names an item or sub-item still listed under
//! ROADMAP.md's "Open items".

use std::path::{Path, PathBuf};

/// The most lines DESIGN.md may have.
const DESIGN_MAX_LINES: usize = 800;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The documents whose names are checked.
fn documents(root: &Path) -> Vec<PathBuf> {
    let mut docs = ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(|f| root.join(f)).to_vec();
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

/// Every file under `dir`, recursively (none when `dir` does not exist).
fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// Every `*.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut all = Vec::new();
    files(dir, &mut all);
    out.extend(all.into_iter().filter(|p| p.extension().is_some_and(|ext| ext == "rs")));
}

/// Every text file whose prose must describe the system as it is: the
/// top-level docs and everything under the code, doc, CI and skill
/// directories, with its contents.
fn current_files(root: &Path) -> Vec<(PathBuf, String)> {
    let mut paths = ["README.md", "DESIGN.md", "EXPERIMENTS.md"].map(|f| root.join(f)).to_vec();
    for dir in ["docs", "crates", "tests", "examples", "scripts", ".github", ".claude"] {
        files(&root.join(dir), &mut paths);
    }
    paths
        .into_iter()
        .filter_map(|p| std::fs::read_to_string(&p).ok().map(|text| (p, text)))
        .collect()
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

/// Why `design` is too long, or `None` when it fits the budget.
fn over_budget(design: &str) -> Option<String> {
    let lines = design.lines().count();
    (lines > DESIGN_MAX_LINES).then(|| format!("{lines} lines, budget {DESIGN_MAX_LINES}"))
}

#[test]
fn design_fits_its_line_budget() {
    let design = read(&repo_root().join("DESIGN.md"));
    assert_eq!(over_budget(&design), None, "DESIGN.md describes the system as it is, briefly");
}

#[test]
fn the_line_budget_check_catches_an_overlong_design() {
    assert_eq!(over_budget(&"line\n".repeat(DESIGN_MAX_LINES)), None);
    assert!(over_budget(&"line\n".repeat(DESIGN_MAX_LINES + 1)).is_some());
}

/// The byte offsets at which `word` starts as a whole word in `text`.
fn word_starts<'a>(text: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let starts = text.match_indices(word).map(|(at, _)| at);
    starts.filter(move |&at| !text[..at].chars().next_back().is_some_and(is_ident_char))
}

/// The 1-based line of byte offset `at` in `text`.
fn line_of(text: &str, at: usize) -> usize {
    text[..at].matches('\n').count() + 1
}

/// `rest` with leading whitespace removed, or `None` when it has none.
fn after_space(rest: &str) -> Option<&str> {
    let trimmed = rest.trim_start();
    (trimmed.len() < rest.len()).then_some(trimmed)
}

/// Every pull-request number in `text` (`<marker> <n>` or
/// `<marker>s <n>`, the marker being the two capitals, possibly
/// wrapped), as its line and the mention. The marker is assembled here
/// so that this file does not match itself.
fn history_mentions(text: &str) -> Vec<(usize, String)> {
    let marker = ['P', 'R'].iter().collect::<String>();
    let mentions = word_starts(text, &marker).filter_map(|at| {
        let rest = &text[at + marker.len()..];
        let number = after_space(rest.strip_prefix('s').unwrap_or(rest))?;
        let digits = number.find(|c: char| !c.is_ascii_digit()).unwrap_or(number.len());
        let end = text.len() - number.len() + digits;
        (digits > 0).then(|| (line_of(text, at), text[at..end].to_owned()))
    });
    mentions.collect()
}

/// Every `ROADMAP [item] <n>[x]` in `text` (the letter may also be
/// written `(x)`), as its line, the mention and the item it names: `"2"`,
/// or `"2d"` for sub-item (d). The marker is assembled here so that this
/// file does not match itself.
fn roadmap_mentions(text: &str) -> Vec<(usize, String, String)> {
    let marker = ["ROAD", "MAP"].concat();
    let mentions = word_starts(text, &marker).filter_map(|at| {
        let mut rest = after_space(&text[at + marker.len()..])?;
        for word in ["items", "item"] {
            if let Some(tail) = rest.strip_prefix(word).and_then(after_space) {
                rest = tail;
                break;
            }
        }
        let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
        if digits == 0 {
            return None;
        }
        let (number, tail) = rest.split_at(digits);
        let letter = |s: &str| s.chars().next().filter(char::is_ascii_lowercase);
        let (sub, sub_len) = match tail.strip_prefix('(') {
            Some(group) => (letter(group).filter(|_| group[1..].starts_with(')')), 3),
            None => (letter(tail).filter(|_| !tail[1..].starts_with(is_ident_char)), 1),
        };
        let item = format!("{number}{}", sub.map(String::from).unwrap_or_default());
        let end = text.len() - tail.len() + sub.map_or(0, |_| sub_len);
        let mention = text[at..end].split_whitespace().collect::<Vec<_>>().join(" ");
        Some((line_of(text, at), mention, item))
    });
    mentions.collect()
}

/// The items listed under ROADMAP.md's "Open items" — `"2"` for item 2 —
/// and their `(x)` sub-items — `"2d"` for its sub-item (d).
fn open_items(roadmap: &str) -> Vec<String> {
    let section = roadmap.split("## Open items").nth(1).expect("ROADMAP.md has no Open items");
    let section = section.split("\n## ").next().unwrap();
    let (mut items, mut current) = (Vec::new(), None);
    for line in section.lines() {
        if !line.is_empty() && !line.starts_with(char::is_whitespace) {
            let number = line.split_once(". ").map(|(n, _)| n);
            current = number.filter(|n| n.parse::<u32>().is_ok()).map(str::to_owned);
            items.extend(current.clone());
        } else if let Some(number) = &current {
            let bullet = line.trim_start().strip_prefix("- ").map(|b| b.trim_start_matches('*'));
            let group = bullet.and_then(|b| b.strip_prefix('('));
            let sub = group.filter(|g| g.get(1..2) == Some(")")).and_then(|g| g.chars().next());
            items.extend(sub.filter(char::is_ascii_lowercase).map(|x| format!("{number}{x}")));
        }
    }
    items
}

#[test]
fn no_current_file_cites_a_pull_request() {
    let root = repo_root();
    let (mut checked, mut broken) = (0, Vec::new());
    for (path, text) in current_files(&root) {
        checked += 1;
        for (line, mention) in history_mentions(&text) {
            broken.push(format!("{}:{line}: `{mention}`", path.display()));
        }
    }
    assert!(checked >= 100, "the scan read only {checked} files");
    assert!(
        broken.is_empty(),
        "history belongs in CHANGES.md; say what is true today instead:\n{}",
        broken.join("\n")
    );
}

#[test]
fn the_history_check_catches_a_planted_pull_request_number() {
    let marker = ['P', 'R'].iter().collect::<String>();
    let found = |text: &str| -> Vec<String> {
        history_mentions(text).into_iter().map(|(_, mention)| mention).collect()
    };
    assert_eq!(found(&format!("deleted in {marker} 19.")), [format!("{marker} 19")]);
    assert_eq!(found(&format!("since\n{marker}\n21;")), [format!("{marker}\n21")]);
    assert_eq!(found(&format!("{marker}s 8–16 carried it")), [format!("{marker}s 8")]);
    assert_eq!(found(&format!("x\n{marker} 3")).len(), 1);
    assert_eq!(history_mentions(&format!("a\nb {marker} 3"))[0].0, 2, "the line is reported");
    for fine in ["the PR template", "APR 2026", "PRs are reviewed", "PR#3", "PR-19"] {
        assert_eq!(found(fine), Vec::<String>::new(), "{fine}");
    }
}

#[test]
fn roadmap_references_name_open_items() {
    let root = repo_root();
    let open = open_items(&read(&root.join("ROADMAP.md")));
    let (mut checked, mut broken) = (0, Vec::new());
    for (path, text) in current_files(&root) {
        for (line, mention, item) in roadmap_mentions(&text) {
            checked += 1;
            if !open.contains(&item) {
                broken.push(format!("{}:{line}: `{mention}`", path.display()));
            }
        }
    }
    assert!(checked >= 1, "the scan found no roadmap reference; is it reading the files?");
    assert!(
        broken.is_empty(),
        "these name no item under ROADMAP.md's Open items {open:?}:\n{}",
        broken.join("\n")
    );
}

#[test]
fn the_roadmap_check_catches_a_closed_item() {
    let roadmap = "## Open items\n\nRules:\n- **The next change is item 1.**\n\n\
                   1. **Timer.**\n   - **Where:** here.\n\
                   2. **Ledger.**\n   - (a) **Re-record.**\n\n     More.\n   - (d) Guard.\n\
                   5. **Stage 2.**\n   - **(b) Stop walking.**\n\n\
                   **Parked**:\n- (c) replication\n\n## Closed\n7. **Done.**\n   - (a) x\n";
    let open = open_items(roadmap);
    assert_eq!(open, ["1", "2", "2a", "2d", "5", "5b"]);
    let marker = ["ROAD", "MAP"].concat();
    let named = |text: &str| -> Vec<(String, bool)> {
        let mentions = roadmap_mentions(text).into_iter();
        mentions.map(|(_, _, item)| (item.clone(), open.contains(&item))).collect()
    };
    let item = |name: &str, is_open: bool| vec![(name.to_owned(), is_open)];
    assert_eq!(named(&format!("is {marker} item 2d.)")), item("2d", true));
    assert_eq!(named(&format!("probe ({marker} item\n5b) retires")), item("5b", true));
    assert_eq!(named(&format!("{marker} 2(a) asks")), item("2a", true));
    assert_eq!(named(&format!("{marker} items 1 and 2")), item("1", true));
    assert_eq!(named(&format!("({marker} 2b's alternative")), item("2b", false));
    assert_eq!(named(&format!("{marker} 1a (`wire_gap_ms`)")), item("1a", false));
    assert_eq!(named(&format!("see {marker} item 7")), item("7", false));
    assert_eq!(named(&format!("# {marker}: \"net line count\"; {marker}.md")), vec![]);
    let mention = &roadmap_mentions(&format!("x\n({marker} item\n  2d)"))[0];
    assert_eq!((mention.0, mention.1.as_str()), (2, format!("{marker} item 2d").as_str()));
}
