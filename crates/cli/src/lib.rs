//! # wikisearch-cli — command-line interface to the WikiSearch engine
//!
//! The one synopsis of every command, its flags and the graph formats it
//! reads is [`commands::HELP`], printed by `wikisearch help`.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod serve;
pub mod supervisor;
pub mod worker;

use args::parse;

/// Entry point shared by the binary and the tests: run the CLI against
/// `argv` (without program name), writing to `out`. Returns the process
/// exit code.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    let parsed = match parse(argv) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            return 2;
        }
    };
    let result = match parsed.command.as_str() {
        "generate" => commands::generate(&parsed, out),
        "stats" => commands::stats(&parsed, out),
        "search" => commands::search(&parsed, out),
        "convert" => commands::convert(&parsed, out),
        "build-snapshot" => commands::build_snapshot(&parsed, out),
        "serve" => serve::serve(&parsed, out),
        "shard-worker" => worker::shard_worker(&parsed, out),
        "help" | "--help" | "-h" => {
            let _ = writeln!(out, "{}", commands::HELP);
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `wikisearch help`")),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            1
        }
    }
}
