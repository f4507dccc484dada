//! Slow-query log end to end: a server armed with `--slow-query-ms`
//! logs exactly one well-formed JSON line for a query stalled past the
//! threshold (via the `fault0sleepNNN` injection token), logs nothing
//! for fast queries, and the logged wall time agrees with what the
//! client observed.
//!
//! Requires the `fault-inject` feature:
//!
//! ```text
//! cargo test -p wikisearch-cli --features fault-inject --test slow_query_log
//! ```

#![cfg(feature = "fault-inject")]

mod common;

use common::{connect, graph_file, Server};
use std::time::Instant;

#[test]
fn slow_queries_are_logged_once_with_their_phases_and_accurate_timing() {
    let kb = graph_file("e2e");
    let log_path = std::env::temp_dir()
        .join(format!("ws-slowlog-{}-e2e.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&log_path);
    let server = Server::in_process(&format!(
        "serve --graph {kb} --backend seq --workers 2 --max-requests 4 \
         --slow-query-ms 100 --slow-query-log {log_path}"
    ));
    let mut client = connect(server.port);

    // Two fast queries: answered normally, nothing logged.
    for _ in 0..2 {
        let line = client.request("QUERY xml sql");
        assert!(line.contains("answers"), "{line}");
    }

    // One stalled query, well past the 100 ms threshold. The token
    // matches no keyword, so the query itself succeeds with no answers.
    client.send("QUERY fault0sleep300");
    let client_clock = Instant::now();
    let line = client.line();
    let client_ms = client_clock.elapsed().as_secs_f64() * 1e3;
    let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
    assert!(doc["answers"].is_array(), "{line}");

    // STATS sees exactly one slow query.
    let stats = client.json("STATS");
    assert_eq!(stats["slow_queries"], 1u64, "{stats}");

    // One more fast query reaches --max-requests and drains the server.
    let line = client.request("QUERY xml sql");
    assert!(line.contains("answers"), "{line}");
    let (code, log) = server.drain();
    assert_eq!(code, 0, "{log}");
    assert!(log.contains("served 4 queries"), "{log}");

    // Exactly one well-formed log line, for the stalled query only.
    let text = std::fs::read_to_string(&log_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1, "expected exactly one slow-query line:\n{text}");
    let entry: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(entry["query"], "fault0sleep300", "{text}");
    assert_eq!(entry["threshold_ms"], 100u64, "{text}");
    assert!(entry["error"].is_null(), "the stalled query still succeeded: {text}");
    assert!(entry["ts_ms"].as_u64().unwrap() > 0, "{text}");
    // The stalled query's fleet-wide id and phase profile are logged:
    // queries 1 and 2 were the fast warm-ups, so the stall is qid 3. The
    // line carries no trace; `EXPLAIN` is the way to one.
    assert_eq!(entry["qid"], 3u64, "{text}");
    assert!(entry["phase_ms"]["expansion_ms"].is_number(), "{text}");
    assert!(entry.get("trace").is_none(), "{text}");

    // The logged server-side wall time brackets the injected 300 ms
    // stall and agrees with the client-visible latency within a generous
    // scheduling tolerance.
    let logged_ms = entry["ms"].as_f64().unwrap();
    assert!(logged_ms >= 300.0, "stall not reflected in logged ms: {logged_ms}");
    assert!(
        logged_ms <= client_ms + 1.0,
        "server measured more than the client saw: {logged_ms} vs {client_ms}"
    );
    assert!(
        client_ms - logged_ms < 250.0,
        "logged ms too far below client latency: {logged_ms} vs {client_ms}"
    );

    let _ = std::fs::remove_file(&log_path);
}

#[test]
fn fast_queries_leave_the_log_empty() {
    let kb = graph_file("quiet");
    let log_path = std::env::temp_dir()
        .join(format!("ws-slowlog-{}-quiet.jsonl", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let _ = std::fs::remove_file(&log_path);
    let server = Server::in_process(&format!(
        "serve --graph {kb} --backend seq --max-requests 2 \
         --slow-query-ms 10000 --slow-query-log {log_path}"
    ));
    let mut client = connect(server.port);
    for _ in 0..2 {
        let line = client.request("QUERY xml sql");
        assert!(line.contains("answers"), "{line}");
    }
    client.send("QUIT");
    let (code, log) = server.drain();
    assert_eq!(code, 0, "{log}");

    let text = std::fs::read_to_string(&log_path).unwrap_or_default();
    assert!(text.is_empty(), "no query crossed 10 s, log must be empty:\n{text}");

    let _ = std::fs::remove_file(&log_path);
}
