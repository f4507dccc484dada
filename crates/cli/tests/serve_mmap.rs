//! Cold-start smoke test for `serve --mmap`: a server pointed at a
//! compiled `.wsnap` snapshot answers its first query without rebuilding
//! the index or re-reading the dataset — the snapshot is compiled once
//! by `build-snapshot`, then served straight from the mapping — and its
//! answers match a heap-backed server over the same graph byte for byte.

mod common;

use common::{connect, normalized, run_cli, Server};

fn tmp(name: &str) -> String {
    std::env::temp_dir()
        .join(format!("ws-serve-mmap-{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn mmap_server_cold_starts_and_matches_the_heap_server() {
    // Compile the dataset once.
    let tsv = tmp("kb.tsv");
    let snap = tmp("kb.wsnap");
    let (code, out) =
        run_cli(&format!("generate --dataset tiny --entities 250 --seed 11 --out {tsv}"));
    assert_eq!(code, 0, "{out}");
    let (code, out) = run_cli(&format!("build-snapshot --in {tsv} --out {snap}"));
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("compiled"), "{out}");

    // Cold start: the mmap server's very first request is a query, and
    // it must be answered (no warm-up, no rebuild step in between).
    let serve = "serve --backend seq --workers 2 --max-requests";
    let mmap = Server::in_process(&format!("{serve} 3 --mmap {snap}"));
    let first = connect(mmap.port).request("QUERY learning");
    let first_doc: serde_json::Value = serde_json::from_str(&first).unwrap();
    assert!(first_doc["answers"].is_array(), "first answer straight from the map: {first}");

    // STATS reports the backing.
    let stats_doc = connect(mmap.port).json("STATS");
    assert_eq!(stats_doc["memory_mapped"], serde_json::json!(true), "{stats_doc}");

    // A heap server over the same dataset answers identically.
    let heap = Server::in_process(&format!("{serve} 2 --graph {tsv}"));
    let heap_doc = connect(heap.port).json("STATS");
    assert_eq!(heap_doc["memory_mapped"], serde_json::json!(false), "{heap_doc}");
    for query in ["QUERY learning", "QUERY network language"] {
        // Wall-clock and per-server query ids legitimately differ; every
        // answer byte must not.
        let a = normalized(&connect(mmap.port).request(query));
        let b = normalized(&connect(heap.port).request(query));
        assert_eq!(a, b, "{query} diverged between backings");
    }

    let _ = std::fs::remove_file(tsv);
    let _ = std::fs::remove_file(snap);
}

#[test]
fn mmap_and_graph_flags_are_mutually_exclusive() {
    let (code, out) = run_cli("search --graph a.tsv --mmap b.wsnap --query x");
    assert_eq!(code, 1, "{out}");
    assert!(out.contains("mutually exclusive"), "{out}");
}

#[test]
fn build_snapshot_requires_the_wsnap_extension() {
    let (code, out) = run_cli("build-snapshot --in a.tsv --out b.bin");
    assert_eq!(code, 1, "{out}");
    assert!(out.contains(".wsnap"), "{out}");
}

#[test]
fn search_answers_identically_from_the_snapshot() {
    let tsv = tmp("kb2.tsv");
    let snap = tmp("kb2.wsnap");
    run_cli(&format!("generate --dataset tiny --entities 200 --seed 3 --out {tsv}"));
    let (code, out) = run_cli(&format!("build-snapshot --in {tsv} --out {snap}"));
    assert_eq!(code, 0, "{out}");
    let (code, heap_out) =
        run_cli(&format!("search --graph {tsv} --query learning --backend seq --json true"));
    assert_eq!(code, 0, "{heap_out}");
    let (code, mmap_out) =
        run_cli(&format!("search --mmap {snap} --query learning --backend seq --json true"));
    assert_eq!(code, 0, "{mmap_out}");
    let mut heap_doc: serde_json::Value = serde_json::from_str(&heap_out).unwrap();
    let mut mmap_doc: serde_json::Value = serde_json::from_str(&mmap_out).unwrap();
    // Timings legitimately differ; everything else must not.
    let strip_timing = |doc: &mut serde_json::Value| {
        if let serde_json::Value::Object(entries) = doc {
            entries.retain(|(k, _)| k != "total_ms");
        }
    };
    strip_timing(&mut heap_doc);
    strip_timing(&mut mmap_doc);
    assert_eq!(heap_doc, mmap_doc);
    let _ = std::fs::remove_file(tsv);
    let _ = std::fs::remove_file(snap);
}
