//! Nothing under `crates/central/src/remote/` waits on the wall clock but
//! the clock itself: every `thread::sleep` there sits in `SystemClock`'s
//! `Clock` impl in `breaker.rs` — the one wait of the supervision policy,
//! the retry backoff — or on `worker.rs`'s `fault-inject` stall arm, a
//! worker stalling on purpose. So a new wait in the coordinator has to go
//! through its clock, and the supervision tests, which run on a manual
//! clock, can never sleep out a real backoff or cooldown. A sleep named in
//! a comment or a string is not a call; a method call `clock.sleep(…)` is
//! the clock's, and allowed.

use std::path::{Path, PathBuf};

/// The directory whose files are checked, from the repository root.
const REMOTE: &str = "crates/central/src/remote";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf()
}

/// `line` with its string literals emptied and its `//` comment cut.
fn code_of(line: &str) -> String {
    let (mut code, mut chars, mut quoted) = (String::new(), line.chars().peekable(), false);
    while let Some(c) = chars.next() {
        match c {
            '\\' if quoted => {
                chars.next();
            }
            '"' => {
                quoted = !quoted;
                code.push(c);
            }
            '/' if !quoted && chars.peek() == Some(&'/') => break,
            _ if quoted => {}
            _ => code.push(c),
        }
    }
    code
}

/// Whether `code` calls or names a sleep: any `thread::sleep` path, or a
/// bare `sleep(` call — not a method call (`.sleep(`) and not a
/// definition (`fn sleep(`).
fn sleeps(code: &str) -> bool {
    let bare = code.match_indices("sleep").any(|(at, word)| {
        let before = code[..at].trim_end();
        let after = code[at + word.len()..].trim_start();
        let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
        let whole = !before.ends_with(ident) && !code[at + word.len()..].starts_with(ident);
        whole && after.starts_with('(') && !before.ends_with('.') && !before.ends_with("fn")
    });
    bare || code.contains("thread::sleep")
}

/// Every sleep in `file` (named `name`) outside its allowed place, as
/// `name:line: text`.
fn stray_sleeps(name: &str, file: &str) -> Vec<String> {
    let mut in_system_clock = false;
    let mut stray = Vec::new();
    for (i, line) in file.lines().enumerate() {
        if name == "breaker.rs" && line.starts_with("impl Clock for SystemClock") {
            in_system_clock = true;
        }
        let code = code_of(line);
        let stall_arm = name == "worker.rs" && code.contains("NetworkFault::Stall");
        if sleeps(&code) && !in_system_clock && !stall_arm {
            stray.push(format!("{name}:{}: {}", i + 1, line.trim()));
        }
        if line == "}" {
            in_system_clock = false;
        }
    }
    stray
}

/// Every `*.rs` file under the remote directory, as (file name, text).
fn remote_sources() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(repo_root().join(REMOTE))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "rs"))
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn nothing_under_remote_sleeps_but_the_system_clock_and_the_stall_arm() {
    let files = remote_sources();
    let names: Vec<&str> = files.iter().map(|(name, _)| name.as_str()).collect();
    for expected in ["breaker.rs", "coordinator.rs", "worker.rs"] {
        assert!(names.contains(&expected), "{expected} is not under {REMOTE}: {names:?}");
    }
    let stray: Vec<String> =
        files.iter().flat_map(|(name, file)| stray_sleeps(name, file)).collect();
    assert!(stray.is_empty(), "sleeps outside the clock:\n{}", stray.join("\n"));
    // The two allowed sleeps exist, so the exemptions are not vacuous.
    let all_sleeps = |name: &str| {
        let file = &files.iter().find(|(n, _)| n == name).unwrap().1;
        file.lines().filter(|line| sleeps(&code_of(line))).count()
    };
    assert_eq!((all_sleeps("breaker.rs"), all_sleeps("worker.rs")), (1, 1));
}

/// The guard itself: a sleep planted in the coordinator, a bare imported
/// one, one in another `Clock` impl and a stall arm outside the worker
/// are all caught; comments, strings, the clock's own method and its
/// definition are not.
#[test]
fn the_sleep_guard_catches_a_planted_sleep() {
    let files = remote_sources();
    let source = |name: &str| files.iter().find(|(n, _)| n == name).unwrap().1.clone();
    let coordinator = source("coordinator.rs");
    let anchor = "self.clock.sleep(wait);";
    assert!(coordinator.contains(anchor), "the retry waits on the clock");
    let planted = coordinator.replacen(anchor, "std::thread::sleep(wait);", 1);
    let found = stray_sleeps("coordinator.rs", &planted);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].ends_with("std::thread::sleep(wait);"), "{found:?}");

    let imported = "use std::thread::sleep;\nfn f(d: Duration) {\n    sleep(d);\n}\n";
    assert_eq!(stray_sleeps("coordinator.rs", imported).len(), 2, "the import and the call");

    let other_clock = format!(
        "{}\nimpl Clock for Slow {{\n    fn sleep(&self, w: Duration) {{\n        \
         std::thread::sleep(w);\n    }}\n}}\n",
        source("breaker.rs")
    );
    assert_eq!(stray_sleeps("breaker.rs", &other_clock).len(), 1);
    let stall = "Some(NetworkFault::Stall(d)) => std::thread::sleep(d),";
    assert_eq!(stray_sleeps("coordinator.rs", stall).len(), 1, "a stall arm outside the worker");
    assert_eq!(stray_sleeps("worker.rs", stall).len(), 0);

    for fine in [
        "// std::thread::sleep(wait) would stall the fleet",
        "let why = \"no thread::sleep here\";",
        "self.clock.sleep(wait);",
        "fn sleep(&self, wait: Duration) {",
        "let asleep = sleeping(3);",
    ] {
        assert_eq!(stray_sleeps("coordinator.rs", fine), Vec::<String>::new(), "{fine}");
    }
}
