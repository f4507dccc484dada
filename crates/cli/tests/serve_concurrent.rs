//! Concurrent-serving integration test: `serve --workers 4` hammered by
//! interleaved clients must answer every query with exactly the bytes a
//! sequential `WikiSearch::search` over the same graph produces (modulo
//! the per-response `"ms"` timing field, which is stripped before
//! comparison). This is the service-level form of the `lattice` oracle's
//! property: pooled sessions + connection workers must not change a
//! single answer.

mod common;

use common::{connect, graph_file, normalized, Server};
use wikisearch_engine::{Backend, WikiSearch};

/// The exact response document `serve` produces for one query (minus
/// timing), computed through the public engine API.
fn expected_response(ws: &WikiSearch, q: &str) -> String {
    let result = ws.search(q);
    let answers: Vec<serde_json::Value> = result
        .answers
        .iter()
        .map(|a| {
            serde_json::json!({
                "central": ws.graph().node_text(a.central),
                "depth": a.depth,
                "score": a.score,
                "nodes": a.nodes.len(),
                "edges": a.edges.len(),
            })
        })
        .collect();
    let doc = serde_json::json!({
        "query": q,
        "answers": answers,
        "unmatched": result.query.unmatched,
        "degraded": result.degraded,
    });
    normalized(&doc.to_string())
}

#[test]
fn concurrent_clients_get_sequential_answers() {
    // A synthetic KB large enough that queries differ in depth/answers.
    let cfg = {
        let mut c = datagen::synthetic::SyntheticConfig::tiny(42);
        c.num_entities = 400;
        c
    };
    let graph = cfg.generate().graph;
    let path = std::env::temp_dir()
        .join(format!("ws-serve-conc-{}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    std::fs::write(&path, kgraph::io::to_tsv(&graph)).unwrap();

    // Interleaved workload: per-client query lists drawn from the same
    // vocabulary the generator labels nodes with, plus edge cases that
    // must still be answered deterministically.
    let mut workload = datagen::QueryWorkload::new(7);
    let mut queries: Vec<String> = workload.batch(3, 12);
    queries.push("learning".into());
    queries.push("zzz unmatched zzz".into());
    queries.push("machine learning inference".into());
    queries.push("database systems".into());
    let total = queries.len();

    // Reference: a sequential engine over the same graph file.
    let reference = WikiSearch::build_with(graph, Backend::Sequential);
    let expected: Vec<String> = queries.iter().map(|q| expected_response(&reference, q)).collect();

    // Spawn the server in-process, draining after exactly `total` queries.
    let server = Server::in_process(&format!(
        "serve --graph {path} --backend seq --workers 4 --max-requests {total}"
    ));

    // 4 clients, queries dealt round-robin, all connections interleaved.
    let got: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client| {
                let queries = &queries;
                let port = server.port;
                scope.spawn(move || {
                    let mut conn = connect(port);
                    let mut responses = Vec::new();
                    for (qi, q) in queries.iter().enumerate() {
                        if qi % 4 != client {
                            continue;
                        }
                        responses.push((qi, conn.request(format!("QUERY {q}"))));
                        std::thread::yield_now();
                    }
                    conn.send("QUIT");
                    responses
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    let (code, log) = server.drain();
    assert_eq!(code, 0, "{log}");
    assert!(log.contains(&format!("served {total} queries")), "{log}");

    assert_eq!(got.len(), total, "every query answered exactly once");
    for (qi, line) in &got {
        let doc: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("query {qi}: bad JSON {e}: {line}"));
        assert!(doc.get("error").is_none(), "query {qi} errored: {line}");
        assert_eq!(
            normalized(line),
            expected[*qi],
            "query {qi} ({:?}) diverged from the sequential reference",
            queries[*qi]
        );
    }

    let _ = std::fs::remove_file(path);
}

/// Protocol edge cases on one connection: unknown commands and empty
/// queries come back as one-line JSON errors, `STATS` reports live pool
/// and cache counters without counting toward `--max-requests`, and a
/// reworded repeat of an earlier query is answered from the cache with
/// the same answers while still echoing its own raw query string.
#[test]
fn error_paths_and_stats_are_one_line_json() {
    let kb = graph_file("stats");
    let server = Server::in_process(&format!(
        "serve --graph {kb} --backend seq --max-requests 4 --cache-capacity 64k"
    ));
    let mut client = connect(server.port);
    let mut send = |req: &str| -> serde_json::Value {
        let line = client.request(req);
        assert_eq!(line.lines().count(), 1, "{req}: single line");
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("{req}: bad JSON {e}: {line}"))
    };

    // Unknown command and empty query: JSON errors, never dropped.
    let doc = send("FROB 1");
    assert_eq!(doc["error"], "expected QUERY/EXPLAIN/PING/STATS/METRICS/QUIT");
    let doc = send("QUERY");
    assert_eq!(doc["error"], "empty query");

    // Request 1: all stopwords — the engine's empty-query path, which
    // must bypass the cache entirely (lookups stays 0 below).
    let doc = send("QUERY the of");
    assert_eq!(doc["answers"].as_array().map(<[serde_json::Value]>::len), Some(0), "{doc}");

    // Request 2: a real query, necessarily a cache miss.
    let first = send("QUERY xml sql");
    assert_eq!(first["answers"][0]["central"], "query language");

    let stats = send("STATS");
    assert_eq!(stats["served"], 2u64, "errors and STATS are not served requests");
    // Only the real query armed a session; the stopword-only one
    // short-circuits inside the engine.
    assert_eq!(stats["pool"]["queries_run"], 1u64);
    assert_eq!(stats["cache"]["lookups"], 1u64, "stopword query bypassed");
    assert_eq!(stats["cache"]["misses"], 1u64);
    assert_eq!(stats["cache"]["hits"], 0u64);
    assert_eq!(stats["cache"]["entries"], 1u64);

    // Request 3: a case-flipped reordering of request 2 — a cache hit.
    // Answers are identical; the echoed query string is its own.
    let repeat = send("QUERY SQL xml");
    assert_eq!(repeat["query"].as_str(), Some("SQL xml"));
    assert_eq!(repeat["answers"], first["answers"]);
    assert_eq!(repeat["unmatched"], first["unmatched"]);
    let stats = send("STATS");
    assert_eq!(stats["served"], 3u64);
    assert_eq!(stats["pool"]["queries_run"], 1u64, "hits never touch the pool");
    assert_eq!(stats["cache"]["hits"], 1u64);

    // Request 4: a stopword-padded variant — also a hit; reaching
    // --max-requests drains the server right after this response.
    let repeat = send("QUERY the xml of sql");
    assert_eq!(repeat["query"].as_str(), Some("the xml of sql"));
    assert_eq!(repeat["answers"], first["answers"]);

    let (code, log) = server.drain();
    assert_eq!(code, 0, "{log}");
    assert!(log.contains("served 4 queries"), "{log}");
}
