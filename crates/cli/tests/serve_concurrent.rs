//! Concurrent-serving integration test: `serve --workers 4` hammered by
//! interleaved clients must answer every query with exactly the bytes a
//! sequential `WikiSearch::search` over the same graph produces (modulo
//! the per-response `"ms"` timing field, which is stripped before
//! comparison). This is the service-level form of the `lattice` oracle's
//! property: pooled sessions + connection workers must not change a
//! single answer.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use wikisearch_engine::{Backend, WikiSearch};

/// Serialize a response document with its volatile fields removed (the
/// `ms` timing and the arrival-ordered `qid`), so two docs can be
/// compared byte-for-byte.
fn without_ms(doc: &serde_json::Value) -> String {
    match doc {
        serde_json::Value::Object(entries) => {
            let kept: Vec<(String, serde_json::Value)> =
                entries.iter().filter(|(k, _)| k != "ms" && k != "qid").cloned().collect();
            serde_json::Value::Object(kept).to_string()
        }
        other => other.to_string(),
    }
}

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
    without_ms(&serde_json::json!({
        "query": q,
        "answers": answers,
        "unmatched": result.query.unmatched,
        "degraded": result.degraded,
    }))
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
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let argv: Vec<String> = format!(
        "serve --graph {path} --port {port} --backend seq --workers 4 --max-requests {total}"
    )
    .split_whitespace()
    .map(String::from)
    .collect();
    let server = std::thread::spawn(move || {
        let mut out = Vec::new();
        let code = wikisearch_cli::run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    });

    // 4 clients, queries dealt round-robin, all connections interleaved.
    let got: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client| {
                let queries = &queries;
                scope.spawn(move || {
                    let mut stream = None;
                    for _ in 0..100 {
                        if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                            stream = Some(s);
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    let mut stream = stream.expect("server reachable");
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut responses = Vec::new();
                    for (qi, q) in queries.iter().enumerate() {
                        if qi % 4 != client {
                            continue;
                        }
                        writeln!(stream, "QUERY {q}").unwrap();
                        let mut line = String::new();
                        reader.read_line(&mut line).unwrap();
                        responses.push((qi, line));
                        std::thread::yield_now();
                    }
                    let _ = writeln!(stream, "QUIT");
                    responses
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });

    let (code, log) = server.join().unwrap();
    assert_eq!(code, 0, "{log}");
    assert!(log.contains(&format!("served {total} queries")), "{log}");

    assert_eq!(got.len(), total, "every query answered exactly once");
    for (qi, line) in &got {
        let doc: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("query {qi}: bad JSON {e}: {line}"));
        assert!(doc.get("error").is_none(), "query {qi} errored: {line}");
        assert_eq!(
            without_ms(&doc),
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
    let path = std::env::temp_dir()
        .join(format!("ws-serve-stats-{}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();

    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let argv: Vec<String> = format!(
        "serve --graph {path} --port {port} --backend seq --max-requests 4 --cache-capacity 64k"
    )
    .split_whitespace()
    .map(String::from)
    .collect();
    let server = std::thread::spawn(move || {
        let mut out = Vec::new();
        let code = wikisearch_cli::run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    });

    let mut stream = None;
    for _ in 0..100 {
        if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
            stream = Some(s);
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let mut stream = stream.expect("server reachable");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |req: &str| -> serde_json::Value {
        writeln!(stream, "{req}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "{req}: response is one full line");
        assert_eq!(line.trim_end().lines().count(), 1, "{req}: single line");
        serde_json::from_str(line.trim_end())
            .unwrap_or_else(|e| panic!("{req}: bad JSON {e}: {line}"))
    };

    // Unknown command and empty query: JSON errors, never dropped.
    let doc = send("FROB 1");
    assert_eq!(doc["error"], "expected QUERY/EXPLAIN/PING/STATS/STATS WINDOW/TOP/METRICS/QUIT");
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

    let (code, log) = server.join().unwrap();
    assert_eq!(code, 0, "{log}");
    assert!(log.contains("served 4 queries"), "{log}");
    let _ = std::fs::remove_file(path);
}
