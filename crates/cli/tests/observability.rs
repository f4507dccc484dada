//! End-to-end observability over a live server: the wire schema of every
//! response document against one committed golden (every documented
//! field present, nothing undocumented sneaks in, no key reordered), the
//! `EXPLAIN` verb's per-level trace, and the `METRICS` verb's Prometheus
//! text exposition checked against a hand-rolled line grammar.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

/// One shared server for the whole suite; the thread is leaked and dies
/// with the test process.
fn server_port() -> u16 {
    static PORT: OnceLock<u16> = OnceLock::new();
    *PORT.get_or_init(|| {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);

        let path = std::env::temp_dir()
            .join(format!("ws-observability-{}.tsv", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let q = b.add_node("q", "query language");
        let s = b.add_node("s", "sql");
        let r = b.add_node("r", "rdf");
        b.add_edge(x, q, "rel");
        b.add_edge(s, q, "rel");
        b.add_edge(r, q, "rel");
        std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();

        std::thread::spawn(move || {
            let argv: Vec<String> =
                format!("serve --graph {path} --port {port} --backend seq --workers 2")
                    .split_whitespace()
                    .map(String::from)
                    .collect();
            let args = wikisearch_cli::args::parse(&argv).unwrap();
            let mut out = Vec::new();
            let _ = wikisearch_cli::serve::serve(&args, &mut out);
        });
        for _ in 0..150 {
            if TcpStream::connect(("127.0.0.1", port)).is_ok() {
                return port;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("observability server never came up on port {port}");
    })
}

fn connect() -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(("127.0.0.1", server_port())).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

fn request_line(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    response
}

/// Boot a dedicated server over the suite's four-node graph with
/// `flags(&graph)` appended to the common command line, and connect.
fn boot(
    tag: &str,
    flags: impl FnOnce(&kgraph::KnowledgeGraph) -> String,
) -> (TcpStream, BufReader<TcpStream>) {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let path = std::env::temp_dir()
        .join(format!("ws-observability-{tag}-{}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    let graph = b.build();
    std::fs::write(&path, kgraph::io::to_tsv(&graph)).unwrap();
    let flags = flags(&graph);
    std::thread::spawn(move || {
        let argv: Vec<String> =
            format!("serve --graph {path} --port {port} --backend seq --workers 2 {flags}")
                .split_whitespace()
                .map(String::from)
                .collect();
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        let _ = wikisearch_cli::serve::serve(&args, &mut out);
    });
    for _ in 0..150 {
        if let Ok(stream) = TcpStream::connect(("127.0.0.1", port)) {
            stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            let reader = BufReader::new(stream.try_clone().unwrap());
            return (stream, reader);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("{tag} observability server never came up on port {port}");
}

/// One line per leaf of `v`, in document order: `<verb> <dotted path>
/// <type>`. Integers and floats are told apart (the wire prints `3` and
/// `3.0` differently); arrays report their element type and descend
/// into a first object element as `path[]`.
fn schema_paths(verb: &str, path: &str, v: &serde_json::Value, out: &mut String) {
    use serde_json::Value;
    let scalar = |v: &Value| match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::I64(_) | Value::U64(_) => "int",
        Value::F64(_) => "float",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    };
    match v {
        Value::Object(entries) => {
            for (key, child) in entries {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                schema_paths(verb, &child_path, child, out);
            }
        }
        Value::Array(items) => {
            let of = items.first().map_or("empty", scalar);
            out.push_str(&format!("{verb} {path} array<{of}>\n"));
            if let Some(first @ Value::Object(_)) = items.first() {
                schema_paths(verb, &format!("{path}[]"), first, out);
            }
        }
        leaf => out.push_str(&format!("{verb} {path} {}\n", scalar(leaf))),
    }
}

/// The wire schema of one live server: every key path (in order, with
/// its JSON type) of the `QUERY`, `EXPLAIN` (the trace is one opaque
/// leaf — its schema belongs to `trace_equivalence`), `STATS`,
/// `STATS WINDOW` and `TOP` documents, the constant error lines
/// verbatim, and every `# HELP` / `# TYPE` line of `METRICS`.
fn capture_schema(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> String {
    /// Ask `line`, append the response document's paths under `verb`.
    fn doc(
        conn: (&mut TcpStream, &mut BufReader<TcpStream>),
        verb: &str,
        line: &str,
        out: &mut String,
    ) {
        let response = request_line(conn.0, conn.1, line);
        let mut v: serde_json::Value = serde_json::from_str(&response).unwrap();
        if let serde_json::Value::Object(entries) = &mut v {
            for (key, child) in entries.iter_mut() {
                if key == "trace" {
                    *child = serde_json::Value::String(String::new());
                }
            }
        }
        schema_paths(verb, "", &v, out);
    }
    let mut out = String::new();
    doc((stream, reader), "QUERY", "QUERY xml sql rdf", &mut out);
    doc((stream, reader), "EXPLAIN", "EXPLAIN xml sql", &mut out);
    for constant in ["BOGUS", "QUERY", "EXPLAIN", "STATS WINDOW", "STATS WINDOW 0"] {
        let response = request_line(stream, reader, constant);
        out.push_str(&format!("{constant:?} -> {}\n", response.trim_end()));
    }
    // The windowed views need two sampler ticks (one interval apart).
    let mut waited = 0;
    while request_line(stream, reader, "STATS WINDOW 5").contains("window unavailable") {
        waited += 1;
        assert!(waited < 100, "the sampler never produced a window");
        std::thread::sleep(Duration::from_millis(100));
    }
    doc((stream, reader), "STATS", "STATS", &mut out);
    doc((stream, reader), "STATS-WINDOW", "STATS WINDOW 5", &mut out);
    doc((stream, reader), "TOP", "TOP", &mut out);
    writeln!(stream, "METRICS").unwrap();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "# EOF" {
            break;
        }
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            out.push_str(&line);
        }
    }
    writeln!(stream, "QUIT").unwrap();
    out
}

#[test]
fn wire_schema_matches_the_committed_golden() {
    // The three serving shapes this suite boots — plain, in-process
    // shards, remote workers — each contribute one section. The golden
    // was captured from the hand-built documents the metric table
    // replaced; it is the contract that a renderer change moved no key,
    // no nesting, no number type and no help text.
    let w = |graph: &kgraph::KnowledgeGraph, index| {
        central::ShardWorker::spawn_local(graph, 2, index, central::shard::DEFAULT_PARTITION_SEED)
    };
    let mut servers = [
        ("plain", boot("golden-plain", |_| String::new())),
        ("shards", boot("golden-shards", |_| "--shards 3".into())),
        (
            "remote",
            boot("golden-remote", |g| {
                format!("--shard-addr {},{} --heartbeat-ms 0", w(g, 0), w(g, 1))
            }),
        ),
    ];
    let mut actual = String::new();
    for (name, (stream, reader)) in &mut servers {
        actual.push_str(&format!("== {name}\n{}", capture_schema(stream, reader)));
    }
    let golden = include_str!("golden/wire_schema.txt");
    if actual != golden {
        let dump = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_schema.actual.txt");
        std::fs::write(&dump, &actual).unwrap();
        let line = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
        panic!(
            "wire schema drifted from tests/golden/wire_schema.txt (first differing line: \
             {line:?}); the live capture is in {}",
            dump.display()
        );
    }
}

#[test]
fn stats_document_reports_the_layers_and_the_observed_query() {
    let (mut stream, mut reader) = connect();
    // At least one query first, so the histograms are non-degenerate.
    let answer = request_line(&mut stream, &mut reader, "QUERY xml sql");
    assert!(answer.contains("answers"), "{answer}");

    let response = request_line(&mut stream, &mut reader, "STATS");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    // This server runs unsharded: the key is present but null, like a
    // disabled cache, and so is the remote-worker block. There is no
    // micro-batcher, hence no `batch` key at all.
    assert!(doc["shards"].is_null(), "{response}");
    assert!(doc.get("batch").is_none(), "{response}");
    assert!(doc["remote"].is_null(), "{response}");

    // This server runs the default sampler cadence, and the query above
    // was tagged with a fleet-wide qid and entered the recent-query ring.
    assert_eq!(doc["telemetry"]["interval_ms"], 1000u64, "{response}");
    assert!(doc["telemetry"]["qids_issued"].as_u64().unwrap() >= 1, "{response}");
    assert_eq!(doc["telemetry"]["in_flight"], 0u64, "{response}");
    assert!(doc["telemetry"]["slowest_recent"]["qid"].as_u64().unwrap() >= 1, "{response}");

    // Sanity on the values: the query above was observed.
    assert!(doc["engine"]["queries"].as_u64().unwrap() >= 1, "{response}");
    assert!(doc["latency"]["count"].as_u64().unwrap() >= 1, "{response}");
    let p50 = doc["latency"]["p50_ms"].as_f64().unwrap();
    let p99 = doc["latency"]["p99_ms"].as_f64().unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "{response}");
    writeln!(stream, "QUIT").unwrap();
}

#[test]
fn explain_returns_the_per_level_trace_over_the_wire() {
    let (mut stream, mut reader) = connect();
    let response = request_line(&mut stream, &mut reader, "EXPLAIN xml sql rdf");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert_eq!(doc["answers"][0]["central"], "query language", "{response}");
    assert_eq!(doc["trace"]["engine"], "Seq", "{response}");
    assert_eq!(doc["trace"]["keywords"], 3u64, "{response}");
    let levels = doc["trace"]["levels"].as_array().unwrap();
    assert!(!levels.is_empty(), "{response}");
    for (i, level) in levels.iter().enumerate() {
        assert_eq!(level["level"].as_u64().unwrap(), i as u64, "{response}");
        assert!(level["frontier"].as_u64().is_some(), "{response}");
        assert!(level["new_hits"].as_u64().is_some(), "{response}");
    }
    // EXPLAIN with no keywords is an error, like QUERY.
    let response = request_line(&mut stream, &mut reader, "EXPLAIN");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert_eq!(doc["error"], "empty query", "{response}");
    writeln!(stream, "QUIT").unwrap();
}

#[test]
fn metrics_verb_emits_valid_prometheus_exposition() {
    let (mut stream, mut reader) = connect();
    // Give the histograms something to chew on.
    for _ in 0..3 {
        let answer = request_line(&mut stream, &mut reader, "QUERY xml sql");
        assert!(answer.contains("answers"), "{answer}");
    }
    writeln!(stream, "METRICS").unwrap();
    let mut lines: Vec<String> = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_string();
        if line == "# EOF" {
            break;
        }
        lines.push(line);
    }
    assert_prometheus_grammar(&lines);

    // The required series families are all present.
    let text = lines.join("\n");
    for series in [
        "ws_queries_total",
        "ws_cache_hits_total",
        "ws_cache_misses_total",
        "ws_deadline_exceeded_total",
        "ws_budget_exhausted_total",
        "ws_latency_seconds_bucket",
        "ws_latency_seconds_sum",
        "ws_latency_seconds_count",
        "ws_expansions_bucket",
        "ws_pool_queries_total",
        "ws_pool_idle_sessions",
        "ws_cache_entries",
        "ws_shard_unavailable_total",
        "ws_server_served_total",
        "ws_server_slow_queries_total",
        "ws_server_shard_unavailable_total",
        "ws_build_info",
        "ws_uptime_seconds",
        "ws_telemetry_interval_ms",
        "ws_telemetry_samples_total",
        "ws_telemetry_ring_capacity",
        "ws_telemetry_in_flight",
        "ws_telemetry_query_ids_total",
    ] {
        assert!(text.contains(series), "missing series {series}:\n{text}");
    }
    // No remote workers on this server, so their series are absent
    // entirely (mirrors the null STATS block).
    assert!(!text.contains("ws_remote_"), "unexpected remote series:\n{text}");
    // The connection still serves requests after the multi-line response.
    let response = request_line(&mut stream, &mut reader, "PING");
    assert_eq!(response.trim(), "PONG");
    writeln!(stream, "QUIT").unwrap();
}

#[test]
fn query_and_explain_responses_carry_monotonic_query_ids() {
    let (mut stream, mut reader) = connect();
    let answer = request_line(&mut stream, &mut reader, "QUERY xml sql");
    let doc: serde_json::Value = serde_json::from_str(&answer).unwrap();
    let qid = doc["qid"].as_u64().unwrap_or_else(|| panic!("no qid in {answer}"));
    assert!(qid >= 1, "{answer}");
    // EXPLAIN draws from the same fleet-wide generator, and its trace is
    // tagged with the same id the response document carries.
    let explained = request_line(&mut stream, &mut reader, "EXPLAIN xml sql");
    let doc: serde_json::Value = serde_json::from_str(&explained).unwrap();
    let explain_qid = doc["qid"].as_u64().unwrap_or_else(|| panic!("no qid in {explained}"));
    assert!(explain_qid > qid, "ids must be monotonic: {qid} then {explained}");
    assert_eq!(doc["trace"]["qid"], explain_qid, "{explained}");
    writeln!(stream, "QUIT").unwrap();
}

#[test]
fn top_verb_summarizes_the_live_server_on_one_line() {
    let (mut stream, mut reader) = connect();
    let answer = request_line(&mut stream, &mut reader, "QUERY xml sql rdf");
    assert!(answer.contains("answers"), "{answer}");

    let response = request_line(&mut stream, &mut reader, "TOP");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert_eq!(doc["in_flight"], 0u64, "{response}");
    assert!(doc["served"].as_u64().unwrap() >= 1, "{response}");
    assert!(doc["qids_issued"].as_u64().unwrap() >= 1, "{response}");
    // The query above entered the recent ring, so the slowest-recent
    // pointer names a real qid with a real wall time.
    assert!(doc["slowest_recent"]["qid"].as_u64().unwrap() >= 1, "{response}");
    assert!(doc["slowest_recent"]["wall_ms"].as_f64().unwrap() >= 0.0, "{response}");
    // This server is not remote, so there are no breakers to report.
    assert!(doc["breakers"].is_null(), "{response}");
    // TOP is case-insensitive like the other bare verbs.
    let response = request_line(&mut stream, &mut reader, "top");
    assert!(response.contains("qids_issued"), "{response}");
    writeln!(stream, "QUIT").unwrap();
}

#[test]
fn stats_window_grammar_is_enforced_over_the_wire() {
    let (mut stream, mut reader) = connect();
    for bad in ["STATS WINDOW", "STATS WINDOW 0", "STATS WINDOW five", "STATS WINDOWS 5"] {
        let response = request_line(&mut stream, &mut reader, bad);
        let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
        assert!(doc["error"].as_str().is_some(), "{bad:?} must be rejected: {response}");
    }
    // A well-formed window request answers either the windowed document
    // or the structured "window unavailable" refusal — never a grammar
    // error — depending on whether the sampler has two samples yet.
    let response = request_line(&mut stream, &mut reader, "STATS WINDOW 5");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    if doc.get("error").is_some() {
        assert_eq!(doc["error"], "window unavailable", "{response}");
    } else {
        assert_eq!(doc["window_s"], 5u64, "{response}");
    }
    writeln!(stream, "QUIT").unwrap();
}

#[test]
fn stats_window_reports_recent_rates_not_lifetime_totals() {
    // A dedicated server with a fast sampler: load in the distant past
    // (more than one window ago) must age out of `STATS WINDOW 1` while
    // cumulative STATS keeps counting it forever.
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let path = std::env::temp_dir()
        .join(format!("ws-observability-window-{}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();
    let graph_arg = path.clone();
    std::thread::spawn(move || {
        let argv: Vec<String> = format!(
            "serve --graph {graph_arg} --port {port} --backend seq --workers 2 \
             --telemetry-interval-ms 50 --cache-capacity 0"
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        let _ = wikisearch_cli::serve::serve(&args, &mut out);
    });
    let mut stream = {
        let mut connected = None;
        for _ in 0..150 {
            if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                connected = Some(s);
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        connected.expect("windowed observability server never came up")
    };
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // A burst of old load, then let it age past the 1-second window.
    for _ in 0..6 {
        let answer = request_line(&mut stream, &mut reader, "QUERY xml sql rdf");
        assert!(answer.contains("answers"), "{answer}");
    }
    std::thread::sleep(Duration::from_millis(1400));

    // Fresh load inside the window, plus one sampler tick to capture it.
    for _ in 0..2 {
        let answer = request_line(&mut stream, &mut reader, "QUERY xml sql");
        assert!(answer.contains("answers"), "{answer}");
    }
    std::thread::sleep(Duration::from_millis(150));

    let windowed: serde_json::Value =
        serde_json::from_str(&request_line(&mut stream, &mut reader, "STATS WINDOW 1")).unwrap();
    let cumulative: serde_json::Value =
        serde_json::from_str(&request_line(&mut stream, &mut reader, "STATS")).unwrap();

    let window_queries = windowed["queries"].as_u64().unwrap_or_else(|| panic!("{windowed}"));
    let total_queries = cumulative["engine"]["queries"].as_u64().unwrap();
    assert!(total_queries >= 8, "{cumulative}");
    assert!(window_queries >= 2, "fresh load missing from the window: {windowed}");
    assert!(
        window_queries < total_queries,
        "a 1-second window must shed the old burst: window {windowed} vs cumulative {cumulative}"
    );
    // The windowed latency histogram covers the windowed queries only.
    assert_eq!(windowed["latency"]["count"], windowed["queries"], "{windowed}");
    assert!(windowed["qps"].as_f64().unwrap() > 0.0, "{windowed}");
    writeln!(stream, "QUIT").unwrap();
    let _ = std::fs::remove_file(path);
}

#[test]
fn sharded_server_exposes_per_shard_counters() {
    // A dedicated --shards 3 server: the STATS `shards` block counts the
    // query and METRICS gains the ws_shard_* series, still under the
    // same exposition grammar.
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let path = std::env::temp_dir()
        .join(format!("ws-observability-sharded-{}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();
    std::thread::spawn(move || {
        let argv: Vec<String> =
            format!("serve --graph {path} --port {port} --backend seq --workers 2 --shards 3")
                .split_whitespace()
                .map(String::from)
                .collect();
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        let _ = wikisearch_cli::serve::serve(&args, &mut out);
    });
    let mut stream = {
        let mut connected = None;
        for _ in 0..150 {
            if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                connected = Some(s);
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        connected.expect("sharded observability server never came up")
    };
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let answer = request_line(&mut stream, &mut reader, "QUERY xml sql rdf");
    assert!(answer.contains("answers"), "{answer}");

    let response = request_line(&mut stream, &mut reader, "STATS");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    let shards = &doc["shards"];
    assert_eq!(shards["shards"], 3u64, "{response}");
    assert!(shards["rounds"].as_u64().unwrap() >= 1, "{response}");
    assert!(shards["notifications"].is_number() && shards["pools"].is_null(), "{response}");
    // The facade pool is bypassed on the sharded path.
    assert_eq!(doc["pool"]["queries_run"], 0u64, "{response}");

    writeln!(stream, "METRICS").unwrap();
    let mut lines: Vec<String> = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_string();
        if line == "# EOF" {
            break;
        }
        lines.push(line);
    }
    assert_prometheus_grammar(&lines);
    let text = lines.join("\n");
    for series in [
        "ws_shard_count",
        "ws_shard_rounds_total",
        "ws_shard_notifications_total",
        "ws_shard_notifications_suppressed_total",
    ] {
        assert!(text.contains(series), "missing series {series}:\n{text}");
    }
    writeln!(stream, "QUIT").unwrap();
}

#[test]
fn remote_server_exposes_per_shard_breaker_and_rpc_counters() {
    // A dedicated remote server attached (--shard-addr) to two
    // in-process shard workers over the same dataset: the STATS `remote`
    // block counts the RPCs and METRICS gains the
    // ws_remote_* series — including the labeled per-shard breaker
    // gauge — still under the same exposition grammar.
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    let path = std::env::temp_dir()
        .join(format!("ws-observability-remote-{}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    let graph = b.build();
    std::fs::write(&path, kgraph::io::to_tsv(&graph)).unwrap();

    // Two in-process workers over the same dataset (the worker threads
    // are leaked, like the server thread; they die with the process).
    let w0 =
        central::ShardWorker::spawn_local(&graph, 2, 0, central::shard::DEFAULT_PARTITION_SEED);
    let w1 =
        central::ShardWorker::spawn_local(&graph, 2, 1, central::shard::DEFAULT_PARTITION_SEED);

    std::thread::spawn(move || {
        let argv: Vec<String> = format!(
            "serve --graph {path} --port {port} --backend seq --workers 2 \
             --shard-addr {w0},{w1} --heartbeat-ms 0"
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        let _ = wikisearch_cli::serve::serve(&args, &mut out);
    });
    let mut stream = {
        let mut connected = None;
        for _ in 0..150 {
            if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                connected = Some(s);
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        connected.expect("remote observability server never came up")
    };
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    let answer = request_line(&mut stream, &mut reader, "QUERY xml sql rdf");
    assert!(answer.contains("answers"), "{answer}");
    // Remote answers over a healthy fleet are full-fidelity.
    let doc: serde_json::Value = serde_json::from_str(&answer).unwrap();
    assert_eq!(doc["degraded"], false, "{answer}");

    let response = request_line(&mut stream, &mut reader, "STATS");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    let remote = &doc["remote"];
    assert_eq!(remote["shards"], 2u64, "{response}");
    assert!(remote["rpcs"].as_u64().unwrap() >= 2, "{response}");
    assert_eq!(remote["degraded_queries"], 0u64, "{response}");
    assert_eq!(remote["breaker"], serde_json::json!(["closed", "closed"]), "{response}");
    // Attached (unsupervised) workers: no fleet block.
    assert!(remote["workers"].is_null(), "{response}");
    // Remote serving replaces the in-process shard set and session pool.
    assert!(doc["shards"].is_null(), "{response}");
    assert_eq!(doc["pool"]["queries_run"], 0u64, "{response}");

    writeln!(stream, "METRICS").unwrap();
    let mut lines: Vec<String> = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end().to_string();
        if line == "# EOF" {
            break;
        }
        lines.push(line);
    }
    assert_prometheus_grammar(&lines);
    let text = lines.join("\n");
    for series in [
        "ws_remote_shards",
        "ws_remote_rpcs_total",
        "ws_remote_dials_total",
        "ws_remote_retries_total",
        "ws_remote_probes_total",
        "ws_remote_probe_failures_total",
        "ws_remote_breaker_opens_total",
        "ws_remote_degraded_queries_total",
        "ws_remote_rounds_total",
        "ws_remote_rpc_seconds_bucket",
        "ws_remote_rpc_seconds_sum",
        "ws_remote_rpc_seconds_count",
        "ws_remote_breaker_state{shard=\"0\"}",
        "ws_remote_breaker_state{shard=\"1\"}",
    ] {
        assert!(text.contains(series), "missing series {series}:\n{text}");
    }
    writeln!(stream, "QUIT").unwrap();
}

/// A hand-rolled check of the Prometheus text exposition line grammar
/// (no external parser in the vendored workspace):
///
/// * every line is `# HELP <name> <text>`, `# TYPE <name> counter|gauge|histogram`,
///   or `<name>[{<label>="<value>"}] <number>`;
/// * every sample's metric family was declared by a preceding `# TYPE`;
/// * histogram `_bucket` cumulative counts are non-decreasing and end at
///   the `le="+Inf"` bucket, which equals `_count`.
fn assert_prometheus_grammar(lines: &[String]) {
    let name_ok = |name: &str| {
        !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit())
    };
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut bucket_state: Option<(String, u64, Option<u64>)> = None; // (family, last cumulative, +Inf)
    let mut counts: Vec<(String, u64)> = Vec::new();

    for line in lines {
        assert!(!line.is_empty(), "blank line inside exposition");
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            assert!(name_ok(name), "bad HELP name in {line:?}");
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().unwrap_or("");
            let kind = parts.next().unwrap_or("");
            assert!(name_ok(name), "bad TYPE name in {line:?}");
            assert!(["counter", "gauge", "histogram"].contains(&kind), "bad TYPE kind in {line:?}");
            typed.push((name.to_string(), kind.to_string()));
            continue;
        }
        assert!(!line.starts_with('#'), "unknown comment form {line:?}");

        // A sample line: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without value: {line:?}"));
        assert!(value.parse::<f64>().is_ok(), "non-numeric sample value in {line:?}");
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => {
                let l = l
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unterminated label set in {line:?}"));
                (n, Some(l))
            }
            None => (series, None),
        };
        assert!(name_ok(name), "bad sample name in {line:?}");
        if let Some(labels) = labels {
            for pair in labels.split(',') {
                let (k, v) =
                    pair.split_once('=').unwrap_or_else(|| panic!("label without '=' in {line:?}"));
                assert!(name_ok(k), "bad label name in {line:?}");
                assert!(
                    v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
                    "unquoted label value in {line:?}"
                );
            }
        }

        // Family resolution: strip histogram suffixes.
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.iter().any(|(n, k)| n == *f && k == "histogram"))
            .unwrap_or(name);
        assert!(
            typed.iter().any(|(n, _)| n == family),
            "sample {name} has no preceding # TYPE: {line:?}"
        );

        if name.ends_with("_bucket") {
            let cumulative: u64 = value.parse().expect("bucket counts are integers");
            let le = labels
                .and_then(|l| l.split(',').find(|p| p.starts_with("le=")))
                .expect("bucket without le label")
                .trim_start_matches("le=")
                .trim_matches('"')
                .to_string();
            match &mut bucket_state {
                Some((f, last, inf)) if f == family => {
                    assert!(cumulative >= *last, "bucket counts decreased: {line:?}");
                    *last = cumulative;
                    if le == "+Inf" {
                        *inf = Some(cumulative);
                    }
                }
                _ => {
                    bucket_state = Some((
                        family.to_string(),
                        cumulative,
                        (le == "+Inf").then_some(cumulative),
                    ));
                }
            }
        } else if name.ends_with("_count") && family != name {
            counts.push((family.to_string(), value.parse().expect("count is an integer")));
        }
    }
    // Each histogram's +Inf bucket equals its _count.
    for (family, count) in counts {
        let inf = bucket_state
            .as_ref()
            .filter(|(f, _, _)| *f == family)
            .and_then(|(_, _, inf)| *inf);
        // bucket_state only remembers the most recent family; check when
        // it is the one this _count closes.
        if let Some(inf) = inf {
            assert_eq!(inf, count, "{family}: le=\"+Inf\" != _count");
        }
    }
}
