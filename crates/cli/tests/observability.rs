//! End-to-end observability over a live server: the wire schema of every
//! response document against one committed golden (every documented
//! field present, nothing undocumented sneaks in, no key reordered), the
//! `EXPLAIN` verb's per-level trace, and the `METRICS` verb's Prometheus
//! text exposition checked against a hand-rolled line grammar.

mod common;

use common::{connect, graph_file, shared_server, Client, Server};

/// The reply to a request that names no verb the server accepts.
const UNKNOWN_VERB: &str = r#"{"error":"expected QUERY/EXPLAIN/PING/STATS/METRICS/QUIT"}"#;

/// Start a dedicated server over the fixture with `flags(&graph)`
/// appended to the shared server's command line.
fn dedicated(tag: &str, flags: impl FnOnce(&kgraph::KnowledgeGraph) -> String) -> Client {
    let kb = graph_file(tag);
    let flags = flags(&kb.graph);
    let server =
        Server::in_process(&format!("serve --graph {kb} --backend seq --workers 2 {flags}"));
    connect(server.port)
}

/// `--shard-addr` naming two in-process workers over `graph` (their
/// threads are leaked, like the server's, and die with the process).
fn attached_pair(graph: &kgraph::KnowledgeGraph) -> String {
    let w = |index| {
        central::ShardWorker::spawn_local(graph, 2, index, central::shard::DEFAULT_PARTITION_SEED)
    };
    format!("--shard-addr {},{}", w(0), w(1))
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
/// its JSON type) of the `QUERY`, `EXPLAIN` (its `trace` included, down
/// to the first level record and, on a remote server, the first shard
/// timeline and span) and `STATS` documents, the constant error lines
/// verbatim, and every `# HELP` / `# TYPE` line of `METRICS`.
fn capture_schema(client: &mut Client) -> String {
    let mut out = String::new();
    schema_paths("QUERY", "", &client.json("QUERY xml sql rdf"), &mut out);
    schema_paths("EXPLAIN", "", &client.json("EXPLAIN xml sql"), &mut out);
    for constant in ["BOGUS", "QUERY", "EXPLAIN", "STATS WINDOW", "STATS WINDOW 0"] {
        out.push_str(&format!("{constant:?} -> {}\n", client.request(constant)));
    }
    schema_paths("STATS", "", &client.json("STATS"), &mut out);
    for line in client.metrics() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            out.push_str(&format!("{line}\n"));
        }
    }
    client.send("QUIT");
    out
}

#[test]
fn wire_schema_matches_the_committed_golden() {
    // The two serving shapes this suite boots — plain and remote
    // workers — each contribute one section. The golden
    // was captured from the hand-built documents the metric table
    // replaced; it is the contract that a renderer change moved no key,
    // no nesting, no number type and no help text.
    let mut servers = [
        ("plain", dedicated("golden-plain", |_| String::new())),
        ("remote", dedicated("golden-remote", attached_pair)),
    ];
    let mut actual = String::new();
    for (name, client) in &mut servers {
        actual.push_str(&format!("== {name}\n{}", capture_schema(client)));
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
    let mut client = connect(shared_server());
    // At least one query first, so the histograms are non-degenerate.
    let answer = client.request("QUERY xml sql");
    assert!(answer.contains("answers"), "{answer}");

    let doc = client.json("STATS");
    // This server runs without remote workers: `remote` is present but
    // null, like a disabled cache. There is no in-process shard set and
    // no micro-batcher, hence no `shards` or `batch` key at all.
    assert!(doc.get("shards").is_none(), "{doc}");
    assert!(doc.get("batch").is_none(), "{doc}");
    assert!(doc["remote"].is_null(), "{doc}");

    // The query above was tagged with a fleet-wide qid and has left the
    // in-flight gauge; the `telemetry` object holds those two and no more.
    let telemetry: Vec<&str> =
        doc["telemetry"].as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(telemetry, ["in_flight", "qids_issued"], "{doc}");
    assert!(doc["telemetry"]["qids_issued"].as_u64().unwrap() >= 1, "{doc}");
    assert_eq!(doc["telemetry"]["in_flight"], 0u64, "{doc}");

    // Sanity on the values: the query above was observed.
    assert!(doc["engine"]["queries"].as_u64().unwrap() >= 1, "{doc}");
    assert!(doc["latency"]["count"].as_u64().unwrap() >= 1, "{doc}");
    let p50 = doc["latency"]["p50_ms"].as_f64().unwrap();
    let p99 = doc["latency"]["p99_ms"].as_f64().unwrap();
    assert!(p50 > 0.0 && p99 >= p50, "{doc}");
    client.send("QUIT");
}

#[test]
fn explain_returns_the_per_level_trace_over_the_wire() {
    let mut client = connect(shared_server());
    let doc = client.json("EXPLAIN xml sql rdf");
    assert_eq!(doc["answers"][0]["central"], "query language", "{doc}");
    assert_eq!(doc["trace"]["engine"], "Seq", "{doc}");
    assert_eq!(doc["trace"]["keywords"], 3u64, "{doc}");
    let levels = doc["trace"]["levels"].as_array().unwrap();
    assert!(!levels.is_empty(), "{doc}");
    for (i, level) in levels.iter().enumerate() {
        assert_eq!(level["level"].as_u64().unwrap(), i as u64, "{doc}");
        assert!(level["frontier"].as_u64().is_some(), "{doc}");
        assert!(level["new_hits"].as_u64().is_some(), "{doc}");
    }
    // EXPLAIN with no keywords is an error, like QUERY.
    let doc = client.json("EXPLAIN");
    assert_eq!(doc["error"], "empty query", "{doc}");
    client.send("QUIT");
}

#[test]
fn metrics_verb_emits_valid_prometheus_exposition() {
    let mut client = connect(shared_server());
    // Give the histograms something to chew on.
    for _ in 0..3 {
        let answer = client.request("QUERY xml sql");
        assert!(answer.contains("answers"), "{answer}");
    }
    let lines = client.metrics();
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
        "ws_telemetry_in_flight",
        "ws_telemetry_query_ids_total",
    ] {
        assert!(text.contains(series), "missing series {series}:\n{text}");
    }
    // No remote workers on this server, so their series are absent
    // entirely (mirrors the null STATS block).
    assert!(!text.contains("ws_remote_"), "unexpected remote series:\n{text}");
    // The connection still serves requests after the multi-line response.
    assert_eq!(client.request("PING"), "PONG");
    client.send("QUIT");
}

#[test]
fn query_and_explain_responses_carry_monotonic_query_ids() {
    let mut client = connect(shared_server());
    let answer = client.request("QUERY xml sql");
    let doc: serde_json::Value = serde_json::from_str(&answer).unwrap();
    let qid = doc["qid"].as_u64().unwrap_or_else(|| panic!("no qid in {answer}"));
    assert!(qid >= 1, "{answer}");
    // EXPLAIN draws from the same fleet-wide generator, and its trace is
    // tagged with the same id the response document carries.
    let explained = client.request("EXPLAIN xml sql");
    let doc: serde_json::Value = serde_json::from_str(&explained).unwrap();
    let explain_qid = doc["qid"].as_u64().unwrap_or_else(|| panic!("no qid in {explained}"));
    assert!(explain_qid > qid, "ids must be monotonic: {qid} then {explained}");
    assert_eq!(doc["trace"]["qid"], explain_qid, "{explained}");
    client.send("QUIT");
}

#[test]
fn top_verb_summarizes_the_live_server_on_one_line() {
    // `TOP` is gone: in any case it gets the unknown-verb reply. STATS
    // and METRICS are the live server's summary.
    let mut client = connect(shared_server());
    for verb in ["TOP", "top"] {
        assert_eq!(client.request(verb), UNKNOWN_VERB, "{verb}");
    }
    client.send("QUIT");
}

#[test]
fn stats_window_grammar_is_enforced_over_the_wire() {
    // `STATS` takes no argument: every `STATS WINDOW` form, well-formed
    // or not, gets the unknown-verb reply.
    let mut client = connect(shared_server());
    for line in [
        "STATS WINDOW 5",
        "STATS WINDOW",
        "STATS WINDOW 0",
        "STATS WINDOW five",
        "STATS WINDOWS 5",
    ] {
        assert_eq!(client.request(line), UNKNOWN_VERB, "{line:?}");
    }
    client.send("QUIT");
}

#[test]
fn stats_window_reports_recent_rates_not_lifetime_totals() {
    // The server keeps no windows: a recent rate is the difference of two
    // METRICS scrapes, and `stats window 1` is an unknown request that
    // leaves the connection serving.
    let mut client = connect(shared_server());
    assert_eq!(client.request("stats window 1"), UNKNOWN_VERB);
    assert_eq!(client.request("PING"), "PONG");
    client.send("QUIT");
}

#[test]
fn remote_server_exposes_per_shard_breaker_and_rpc_counters() {
    // A dedicated remote server attached (--shard-addr) to two
    // in-process shard workers over the same dataset: the STATS `remote`
    // block counts the RPCs and METRICS gains the
    // ws_remote_* series — including the labeled per-shard breaker
    // gauge — still under the same exposition grammar.
    let mut client = dedicated("remote", attached_pair);

    let answer = client.request("QUERY xml sql rdf");
    assert!(answer.contains("answers"), "{answer}");
    // Remote answers over a healthy fleet are full-fidelity.
    let doc: serde_json::Value = serde_json::from_str(&answer).unwrap();
    assert_eq!(doc["degraded"], false, "{answer}");

    let doc = client.json("STATS");
    let remote = &doc["remote"];
    assert_eq!(remote["shards"], 2u64, "{doc}");
    assert!(remote["rpcs"].as_u64().unwrap() >= 2, "{doc}");
    assert_eq!(remote["degraded_queries"], 0u64, "{doc}");
    assert_eq!(remote["breaker"], serde_json::json!(["closed", "closed"]), "{doc}");
    // Attached (unsupervised) workers: no fleet block.
    assert!(remote["workers"].is_null(), "{doc}");
    // Remote serving bypasses the session pool.
    assert_eq!(doc["pool"]["queries_run"], 0u64, "{doc}");

    let lines = client.metrics();
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
    client.send("QUIT");
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
