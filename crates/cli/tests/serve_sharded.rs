//! `serve`'s start-up refusal of the solo-only backends. `gpu` and `dyn`
//! are the paper's comparison engines, not servers: `serve` refuses them
//! in every shape — the in-process single shard (`--shards 1`, the
//! default) and either worker link — before any listener is bound or any
//! worker is forked, while `search` still runs them.

mod common;

use common::{free_port, graph_file, run_cli};
use std::net::TcpListener;

/// Run the CLI in process with a fresh `--port`; returns its exit code and
/// output once it is back, having checked that no listener was left bound.
fn run_refused(argv_line: &str) -> (i32, String) {
    let port = free_port();
    let refused = run_cli(&format!("{argv_line} --port {port}"));
    TcpListener::bind(("127.0.0.1", port)).expect("the refused server bound no listener");
    refused
}

const SOLO_ONLY: &str = "error: serving and sharding run --backend seq or cpu";

/// `serve --backend {backend}` is refused on each of `links`, with the
/// reason; `search --backend {backend}` still answers.
fn assert_serve_refuses(backend: &str, links: &[&str]) {
    let kb = graph_file(&format!("refuse-{backend}"));
    for link in links {
        let (code, out) = run_refused(&format!("serve --graph {kb} --backend {backend} {link}"));
        assert_eq!(code, 1, "{backend} {link}: {out}");
        assert!(out.starts_with(SOLO_ONLY), "{backend} {link}: {out}");
    }
    let (code, out) = run_cli(&format!("search --graph {kb} --query xml --backend {backend}"));
    assert_eq!(code, 0, "search --backend {backend}: {out}");
}

/// `gpu` is a solo engine: the in-process shard refuses it — by default
/// and with an explicit `--shards 1` — and so does a worker fleet.
#[test]
fn in_process_shards_refuse_the_gpu_backend() {
    assert_serve_refuses(
        "gpu",
        &["", "--shards 1", "--shard-workers 2", "--shard-addr 127.0.0.1:1,127.0.0.1:2"],
    );
}

/// `dyn` is a solo engine: a worker fleet with it is refused at start-up,
/// before any worker is forked, and so is the in-process shard.
#[test]
fn remote_shards_refuse_the_dyn_backend() {
    assert_serve_refuses(
        "dyn",
        &["--shard-workers 2", "--shard-addr 127.0.0.1:1,127.0.0.1:2", "", "--shards 1"],
    );
}
