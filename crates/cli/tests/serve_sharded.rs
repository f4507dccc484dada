//! Wire-level shard invariance: a `--shards 4` server answers the full
//! line protocol — QUERY (cache miss and hit), EXPLAIN, budget errors —
//! byte-identically to a `--shards 1` server, and the concurrent soak
//! (8 good clients mixed with a fault-injecting one) keeps that
//! identity under load while the quarantine/shed counters account
//! exactly and graceful drain still works.
//!
//! The soak test requires the `fault-inject` feature:
//!
//! ```text
//! cargo test -p wikisearch-cli --features fault-inject --test serve_sharded
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn free_port() -> u16 {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    port
}

fn graph_file(tag: &str) -> String {
    let path = std::env::temp_dir()
        .join(format!("ws-shardserve-{}-{tag}.tsv", std::process::id()))
        .to_string_lossy()
        .into_owned();
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    let j = b.add_node("j", "json format");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    b.add_edge(j, x, "rel");
    std::fs::write(&path, kgraph::io::to_tsv(&b.build())).unwrap();
    path
}

/// Start `wikisearch serve` on a background thread; returns the join
/// handle yielding the server log.
fn spawn_server(argv_line: String) -> std::thread::JoinHandle<String> {
    std::thread::spawn(move || {
        let argv: Vec<String> = argv_line.split_whitespace().map(String::from).collect();
        let args = wikisearch_cli::args::parse(&argv).unwrap();
        let mut out = Vec::new();
        wikisearch_cli::serve::serve(&args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    })
}

fn connect(port: u16) -> TcpStream {
    for _ in 0..150 {
        if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            return s;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server not reachable on port {port}");
}

/// One request, one response line.
fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> String {
    writeln!(stream, "{request}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "truncated response to {request:?}: {line:?}");
    line.trim_end().to_string()
}

/// A response with its volatile fields removed, re-serialized
/// deterministically so the `--shards 1` and `--shards 4` runs can be
/// compared byte for byte. Strips the wall-clock `ms`, and inside an
/// EXPLAIN trace the engine label (which names the shard count by
/// design), the session identity (monolithic-only) and the phase
/// timings — everything else, including per-level frontier/hit counts
/// and total expansions, must match exactly.
fn normalized(response: &str) -> String {
    let mut doc: serde_json::Value =
        serde_json::from_str(response).unwrap_or_else(|e| panic!("bad JSON {response:?}: {e}"));
    let serde_json::Value::Object(entries) = &mut doc else {
        panic!("non-object response {response:?}");
    };
    entries.retain(|(key, _)| key != "ms" && key != "qid");
    if let Some((_, serde_json::Value::Object(trace))) =
        entries.iter_mut().find(|(key, _)| key == "trace")
    {
        trace.retain(|(key, _)| {
            !matches!(
                key.as_str(),
                "engine"
                    | "session_id"
                    | "session_queries"
                    | "phase_ms"
                    | "qid"
                    | "cache_source_qid"
            )
        });
    }
    serde_json::to_string(&doc).unwrap()
}

/// The protocol exchange both servers run: cache misses, a reordered
/// cache hit, a single keyword, an unmatched term, and two EXPLAINs
/// (5 QUERY successes, so `--max-requests 5` drains the server).
const EXCHANGE: [&str; 7] = [
    "QUERY xml sql",
    "QUERY sql   XML",
    "QUERY rdf query",
    "QUERY json xml warpdrive",
    "EXPLAIN xml sql rdf",
    "EXPLAIN json",
    "QUERY xml sql rdf",
];

/// Run the exchange against a fresh server with the given shard count;
/// returns (normalized responses, server log).
fn run_exchange(path: &str, shards: usize) -> (Vec<String>, String) {
    let port = free_port();
    let server = spawn_server(format!(
        "serve --graph {path} --port {port} --backend cpu --threads 2 --workers 2 \
         --shards {shards} --max-requests 5"
    ));
    let mut stream = connect(port);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let responses: Vec<String> = EXCHANGE
        .iter()
        .map(|req| normalized(&roundtrip(&mut stream, &mut reader, req)))
        .collect();
    writeln!(stream, "QUIT").unwrap();
    (responses, server.join().unwrap())
}

/// The wire-level acceptance check: the full exchange through
/// `--shards 4` is byte-identical to `--shards 1` after stripping the
/// volatile fields, and the sharded trace names the sharded engine.
#[test]
fn sharded_server_is_byte_identical_to_unsharded() {
    let path = graph_file("identity");
    let (unsharded, log1) = run_exchange(&path, 1);
    let (sharded, log4) = run_exchange(&path, 4);
    assert_eq!(sharded, unsharded, "sharded wire responses diverged");
    assert!(!log1.contains("shards"), "{log1}");
    assert!(log4.contains("4 shards"), "{log4}");
    assert!(log1.contains("served 5 queries"), "{log1}");
    assert!(log4.contains("served 5 queries"), "{log4}");

    // The raw (un-normalized) EXPLAIN on a sharded server names the
    // sharded engine in its trace — the one intentional difference.
    let port = free_port();
    let server = spawn_server(format!(
        "serve --graph {path} --port {port} --backend cpu --threads 2 --shards 4 \
         --max-requests 1"
    ));
    let mut stream = connect(port);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let response = roundtrip(&mut stream, &mut reader, "EXPLAIN xml sql");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert_eq!(doc["trace"]["engine"], "CPU-Par[shards=4]", "{response}");
    assert!(doc["trace"]["cache"].is_string(), "explain still reports bypass: {response}");
    let answer = roundtrip(&mut stream, &mut reader, "QUERY xml sql");
    assert!(answer.contains("answers"), "{answer}");
    writeln!(stream, "QUIT").unwrap();
    server.join().unwrap();
    let _ = std::fs::remove_file(path);
}

/// Run the CLI in process with a fresh `--port`; returns its exit code and
/// output once it is back, having checked that no listener was left bound.
fn run_refused(argv_line: &str) -> (i32, String) {
    let port = free_port();
    let argv: Vec<String> = format!("{argv_line} --port {port}")
        .split_whitespace()
        .map(String::from)
        .collect();
    let mut out = Vec::new();
    let code = wikisearch_cli::run(&argv, &mut out);
    TcpListener::bind(("127.0.0.1", port)).expect("the refused server bound no listener");
    (code, String::from_utf8(out).unwrap())
}

const SOLO_ONLY: &str = "error: sharded and remote serving run --backend seq or cpu";

/// `gpu` is a solo engine: `--shards 2` with it is refused at start-up, by
/// `serve` and by `search`, with the reason; `--shards 1` is not sharding.
#[test]
fn in_process_shards_refuse_the_gpu_backend() {
    let path = graph_file("refuse-gpu");
    let (code, out) = run_refused(&format!("serve --graph {path} --backend gpu --shards 2"));
    assert_eq!(code, 1, "{out}");
    assert!(out.starts_with(SOLO_ONLY), "{out}");
    let search = format!("search --graph {path} --query xml --backend gpu");
    let argv = |line: String| line.split_whitespace().map(String::from).collect::<Vec<_>>();
    let mut out = Vec::new();
    assert_eq!(wikisearch_cli::run(&argv(format!("{search} --shards 2")), &mut out), 1);
    assert!(String::from_utf8(out).unwrap().starts_with(SOLO_ONLY));
    assert_eq!(wikisearch_cli::run(&argv(format!("{search} --shards 1")), &mut Vec::new()), 0);
    let _ = std::fs::remove_file(path);
}

/// `dyn` is a solo engine: a worker fleet with it is refused at start-up,
/// before any worker is forked.
#[test]
fn remote_shards_refuse_the_dyn_backend() {
    let path = graph_file("refuse-dyn");
    for remote in ["--shard-workers 2", "--shard-addr 127.0.0.1:1,127.0.0.1:2"] {
        let (code, out) = run_refused(&format!("serve --graph {path} --backend dyn {remote}"));
        assert_eq!(code, 1, "{remote}: {out}");
        assert!(out.starts_with(SOLO_ONLY), "{remote}: {out}");
    }
    let _ = std::fs::remove_file(path);
}

/// Budget enforcement is engine-independent: a starved expansion cap
/// trips the same structured error on a sharded server as on an
/// unsharded one, and STATS accounts it.
#[test]
fn sharded_budget_errors_match_unsharded() {
    let path = graph_file("budget");
    let error_kind = |shards: usize| {
        let port = free_port();
        // No --max-requests: the failing query never drains the server,
        // so the thread is leaked and dies with the test process.
        let _server = spawn_server(format!(
            "serve --graph {path} --port {port} --backend seq --shards {shards} \
             --max-expansions 1"
        ));
        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let response = roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf");
        let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
        let stats: serde_json::Value =
            serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
        assert_eq!(stats["budget_exhausted"], 1u64, "{stats}");
        assert_eq!(stats["served"], 0u64, "failed queries are not served: {stats}");
        writeln!(stream, "QUIT").unwrap();
        doc["error"].as_str().unwrap().to_string()
    };
    assert_eq!(error_kind(4), error_kind(1));
    assert_eq!(error_kind(1), "budget_exhausted");
    let _ = std::fs::remove_file(path);
}

#[cfg(feature = "fault-inject")]
mod soak {
    use super::*;

    const GOOD_QUERIES: [&str; 5] = ["xml sql", "rdf query", "sql rdf", "xml", "xml sql"];
    const GOOD_CLIENTS: usize = 8;

    /// Run the good query sequence alone on an unsharded, unperturbed
    /// server — the reference every soak client must match byte for byte.
    fn baseline_responses(path: &str) -> Vec<String> {
        let port = free_port();
        let server = spawn_server(format!(
            "serve --graph {path} --port {port} --backend seq --workers 4 \
             --timeout-ms 500 --shards 1 --max-requests {}",
            GOOD_QUERIES.len()
        ));
        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let responses: Vec<String> = GOOD_QUERIES
            .iter()
            .map(|q| normalized(&roundtrip(&mut stream, &mut reader, &format!("QUERY {q}"))))
            .collect();
        server.join().unwrap();
        responses
    }

    /// The sharded soak: 8 good client threads against a `--shards 4`
    /// server, mixed with one fault-injecting client (panics and
    /// deadline blows). Every good client's answers must be
    /// byte-identical to the unsharded unperturbed baseline, the fault
    /// counters must account exactly (a `fault0panic` query panics before
    /// the coordinator holds a lane, so nothing is quarantined and the
    /// facade pool is untouched), and the server must still drain
    /// gracefully.
    #[test]
    fn sharded_soak_under_fault_load() {
        let path = graph_file("soak");
        let expected = baseline_responses(&path);

        let total_good = GOOD_CLIENTS * GOOD_QUERIES.len();
        let port = free_port();
        let server = spawn_server(format!(
            "serve --graph {path} --port {port} --backend seq --workers 4 \
             --timeout-ms 500 --shards 4 --max-requests {}",
            total_good + 1
        ));

        // Fault client: three panicking queries and three that blow the
        // deadline, interleaved, concurrent with the good clients.
        let bad = std::thread::spawn(move || {
            let mut stream = connect(port);
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut errors = Vec::new();
            for _ in 0..3 {
                errors.push(roundtrip(&mut stream, &mut reader, "QUERY fault0panic xml sql"));
                errors.push(roundtrip(&mut stream, &mut reader, "QUERY fault0sleep5000 xml sql"));
            }
            writeln!(stream, "QUIT").unwrap();
            errors
        });
        let good: Vec<std::thread::JoinHandle<Vec<String>>> = (0..GOOD_CLIENTS)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut stream = connect(port);
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let got: Vec<String> = GOOD_QUERIES
                        .iter()
                        .map(|q| {
                            normalized(&roundtrip(&mut stream, &mut reader, &format!("QUERY {q}")))
                        })
                        .collect();
                    writeln!(stream, "QUIT").unwrap();
                    got
                })
            })
            .collect();

        for (i, line) in bad.join().unwrap().iter().enumerate() {
            let doc: serde_json::Value = serde_json::from_str(line).unwrap();
            let expected_error = if i % 2 == 0 {
                "internal"
            } else {
                "deadline_exceeded"
            };
            assert_eq!(doc["error"], expected_error, "bad response #{i}: {line}");
        }
        for (c, client) in good.into_iter().enumerate() {
            assert_eq!(
                client.join().unwrap(),
                expected,
                "good client #{c}'s answers changed under sharded fault load"
            );
        }

        // Exact accounting, checked pre-drain on a fresh connection:
        // three panics, the facade pool never touched on the sharded
        // path, three timeouts, nothing shed, every good query served.
        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let stats: serde_json::Value =
            serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
        assert_eq!(stats["panics"], 3u64, "{stats}");
        assert_eq!(stats["timeouts"], 3u64, "{stats}");
        assert_eq!(stats["shed"], 0u64, "{stats}");
        assert_eq!(stats["served"], total_good as u64, "{stats}");
        assert_eq!(stats["shards"]["shards"], 4u64, "{stats}");
        assert!(stats["shards"]["pools"].is_null(), "{stats}");
        assert_eq!(stats["pool"]["quarantined"], 0u64, "{stats}");
        assert_eq!(stats["pool"]["queries_run"], 0u64, "{stats}");

        // One more good query reaches --max-requests and drains the
        // server gracefully.
        let answer = roundtrip(&mut stream, &mut reader, "QUERY xml sql");
        assert!(answer.contains("answers"), "{answer}");
        let log = server.join().unwrap();
        assert!(log.contains(&format!("served {} queries", total_good + 1)), "{log}");
        assert!(log.contains("4 shards"), "{log}");
        let _ = std::fs::remove_file(path);
    }
}
