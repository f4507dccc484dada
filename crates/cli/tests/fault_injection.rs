//! Fault-isolation suite: proves one misbehaving client cannot perturb
//! another client's answers or take the server down.
//!
//! Requires the `fault-inject` feature, which teaches the engine to
//! recognize magic query tokens (`fault0panic`, `fault0sleepNNN`,
//! `fault0alloc`) that misbehave on purpose. Run with:
//!
//! ```text
//! cargo test -p wikisearch-cli --features fault-inject --test fault_injection
//! ```

#![cfg(feature = "fault-inject")]

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
        .join(format!("ws-fault-{}-{tag}.tsv", std::process::id()))
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

/// A query response with its volatile fields removed — the wall-clock
/// `ms` and the fleet-wide `qid`, which depends on how many queries any
/// other client slipped in first — re-serialized deterministically
/// (objects keep insertion order, and both runs build the response
/// through the same code), so two runs of the same query can be
/// compared byte for byte.
fn normalized(response: &str) -> String {
    let mut doc: serde_json::Value =
        serde_json::from_str(response).unwrap_or_else(|e| panic!("bad JSON {response:?}: {e}"));
    let serde_json::Value::Object(entries) = &mut doc else {
        panic!("non-object response {response:?}");
    };
    entries.retain(|(key, _)| key != "ms" && key != "qid");
    serde_json::to_string(&doc).unwrap()
}

const GOOD_QUERIES: [&str; 5] = ["xml sql", "rdf query", "sql rdf", "xml", "xml sql"];

/// Run the good client's query sequence alone and collect its normalized
/// responses — the reference the perturbed run must match byte for byte.
fn baseline_responses(path: &str) -> Vec<String> {
    let port = free_port();
    let server = spawn_server(format!(
        "serve --graph {path} --port {port} --backend seq --workers 4 \
         --timeout-ms 200 --max-requests {}",
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

/// The acceptance scenario: a bad client (panicking and
/// deadline-exceeding queries) runs concurrently with a good client on a
/// 4-worker server. The good client's answers must be byte-identical to
/// an unperturbed run, the bad queries must come back as structured JSON
/// errors, STATS must account for every fault, and the server must still
/// drain gracefully via --max-requests.
#[test]
fn bad_client_never_perturbs_a_good_client() {
    let path = graph_file("isolation");
    let expected = baseline_responses(&path);

    let port = free_port();
    let server = spawn_server(format!(
        "serve --graph {path} --port {port} --backend seq --workers 4 \
         --timeout-ms 200 --max-requests {}",
        GOOD_QUERIES.len()
    ));

    // Bad client: three panicking queries and three that blow the 200 ms
    // deadline, interleaved, on its own connection.
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

    // Good client: the same query sequence as the baseline run,
    // concurrent with the bad client. The last query is sent only after
    // the bad client finishes, so STATS can be checked pre-drain.
    let mut stream = connect(port);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut got = Vec::new();
    for q in &GOOD_QUERIES[..GOOD_QUERIES.len() - 1] {
        got.push(normalized(&roundtrip(&mut stream, &mut reader, &format!("QUERY {q}"))));
    }

    let bad_responses = bad.join().unwrap();
    for (i, line) in bad_responses.iter().enumerate() {
        let doc: serde_json::Value = serde_json::from_str(line).unwrap();
        let expected_error = if i % 2 == 0 {
            "internal"
        } else {
            "deadline_exceeded"
        };
        assert_eq!(doc["error"], expected_error, "bad response #{i}: {line}");
    }

    // Every fault is accounted for: three quarantined sessions (the pool
    // never recycles a panicked session), three timeouts, nothing shed.
    let stats: serde_json::Value =
        serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
    assert_eq!(stats["panics"], 3u64, "{stats}");
    assert_eq!(stats["timeouts"], 3u64, "{stats}");
    assert_eq!(stats["shed"], 0u64, "{stats}");
    assert_eq!(stats["pool"]["quarantined"], 3u64, "{stats}");
    assert_eq!(stats["served"], (GOOD_QUERIES.len() - 1) as u64, "{stats}");

    let last = GOOD_QUERIES[GOOD_QUERIES.len() - 1];
    got.push(normalized(&roundtrip(&mut stream, &mut reader, &format!("QUERY {last}"))));

    assert_eq!(got, expected, "good client's answers changed under fault load");

    let log = server.join().unwrap();
    assert!(log.contains(&format!("served {} queries", GOOD_QUERIES.len())), "{log}");
    let _ = std::fs::remove_file(path);
}

/// Load shedding: with one worker and a one-slot queue, a third
/// concurrent connection is refused immediately with `overloaded`
/// instead of queueing without bound — and the refusal shows up in STATS.
#[test]
fn full_queue_sheds_new_connections() {
    let path = graph_file("shed");
    let port = free_port();
    let server = spawn_server(format!(
        "serve --graph {path} --port {port} --backend seq --workers 1 \
         --max-queue 1 --max-requests 2"
    ));

    // Connection A occupies the only worker with a deliberately slow
    // query (fault0sleep with no deadline configured: stalls, then
    // completes normally).
    let mut slow = connect(port);
    let mut slow_reader = BufReader::new(slow.try_clone().unwrap());
    writeln!(slow, "QUERY fault0sleep1500 xml sql").unwrap();
    std::thread::sleep(Duration::from_millis(300)); // worker has surely dequeued A

    // Connection B parks in the queue's single slot.
    let parked = connect(port);
    std::thread::sleep(Duration::from_millis(100));

    // Connection C finds the queue full: one `overloaded` line, then EOF.
    let shed = connect(port);
    let mut shed_reader = BufReader::new(shed);
    let mut line = String::new();
    shed_reader.read_line(&mut line).unwrap();
    let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
    assert_eq!(doc["error"], "overloaded", "{line}");
    line.clear();
    assert_eq!(shed_reader.read_line(&mut line).unwrap(), 0, "shed connection not closed");

    // A's slow query still completes (success #1), and its connection
    // can see the shed in STATS.
    let slow_response = {
        let mut line = String::new();
        slow_reader.read_line(&mut line).unwrap();
        line
    };
    assert!(slow_response.contains("answers"), "{slow_response}");
    writeln!(slow, "STATS").unwrap();
    let mut stats_line = String::new();
    slow_reader.read_line(&mut stats_line).unwrap();
    let stats: serde_json::Value = serde_json::from_str(&stats_line).unwrap();
    assert_eq!(stats["shed"], 1u64, "{stats}");
    writeln!(slow, "QUIT").unwrap();
    drop(slow);

    // B finally reaches the freed worker and is served (success #2),
    // which drains the server.
    let mut parked = parked;
    let mut parked_reader = BufReader::new(parked.try_clone().unwrap());
    let response = roundtrip(&mut parked, &mut parked_reader, "QUERY xml sql");
    assert!(response.contains("answers"), "{response}");

    let log = server.join().unwrap();
    assert!(log.contains("served 2 queries"), "{log}");
    let _ = std::fs::remove_file(path);
}
