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

mod common;

use common::{connect, graph_file, normalized, Server};
use std::time::Duration;

const GOOD_QUERIES: [&str; 5] = ["xml sql", "rdf query", "sql rdf", "xml", "xml sql"];

/// Start the 4-worker server both runs use, over `kb`.
fn server(kb: &common::GraphFile) -> Server {
    Server::in_process(&format!(
        "serve --graph {kb} --backend seq --workers 4 --timeout-ms 200 --max-requests {}",
        GOOD_QUERIES.len()
    ))
}

/// Run the good client's query sequence alone and collect its normalized
/// responses — the reference the perturbed run must match byte for byte.
fn baseline_responses(kb: &common::GraphFile) -> Vec<String> {
    let server = server(kb);
    let mut client = connect(server.port);
    let responses: Vec<String> = GOOD_QUERIES
        .iter()
        .map(|q| normalized(&client.request(format!("QUERY {q}"))))
        .collect();
    let (code, log) = server.drain();
    assert_eq!(code, 0, "{log}");
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
    let kb = graph_file("isolation");
    let expected = baseline_responses(&kb);

    let server = server(&kb);
    let port = server.port;

    // Bad client: three panicking queries and three that blow the 200 ms
    // deadline, interleaved, on its own connection.
    let bad = std::thread::spawn(move || {
        let mut client = connect(port);
        let mut errors = Vec::new();
        for _ in 0..3 {
            errors.push(client.request("QUERY fault0panic xml sql"));
            errors.push(client.request("QUERY fault0sleep5000 xml sql"));
        }
        client.send("QUIT");
        errors
    });

    // Good client: the same query sequence as the baseline run,
    // concurrent with the bad client. The last query is sent only after
    // the bad client finishes, so STATS can be checked pre-drain.
    let mut client = connect(port);
    let mut got = Vec::new();
    for q in &GOOD_QUERIES[..GOOD_QUERIES.len() - 1] {
        got.push(normalized(&client.request(format!("QUERY {q}"))));
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
    let stats = client.json("STATS");
    assert_eq!(stats["panics"], 3u64, "{stats}");
    assert_eq!(stats["timeouts"], 3u64, "{stats}");
    assert_eq!(stats["shed"], 0u64, "{stats}");
    assert_eq!(stats["pool"]["quarantined"], 3u64, "{stats}");
    assert_eq!(stats["served"], (GOOD_QUERIES.len() - 1) as u64, "{stats}");

    let last = GOOD_QUERIES[GOOD_QUERIES.len() - 1];
    got.push(normalized(&client.request(format!("QUERY {last}"))));

    assert_eq!(got, expected, "good client's answers changed under fault load");

    let (code, log) = server.drain();
    assert_eq!(code, 0, "{log}");
    assert!(log.contains(&format!("served {} queries", GOOD_QUERIES.len())), "{log}");
}

/// Load shedding: with one worker and a one-slot queue, a third
/// concurrent connection is refused immediately with `overloaded`
/// instead of queueing without bound — and the refusal shows up in STATS.
#[test]
fn full_queue_sheds_new_connections() {
    let kb = graph_file("shed");
    let server = Server::in_process(&format!(
        "serve --graph {kb} --backend seq --workers 1 --max-queue 1 --max-requests 2"
    ));

    // Connection A occupies the only worker with a deliberately slow
    // query (fault0sleep with no deadline configured: stalls, then
    // completes normally).
    let mut slow = connect(server.port);
    slow.send("QUERY fault0sleep1500 xml sql");
    std::thread::sleep(Duration::from_millis(300)); // worker has surely dequeued A

    // Connection B parks in the queue's single slot.
    let mut parked = connect(server.port);
    std::thread::sleep(Duration::from_millis(100));

    // Connection C finds the queue full: one `overloaded` line, then EOF.
    let mut shed = connect(server.port);
    let line = shed.line();
    let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
    assert_eq!(doc["error"], "overloaded", "{line}");
    assert_eq!(shed.line(), "", "shed connection not closed");

    // A's slow query still completes (success #1), and its connection
    // can see the shed in STATS.
    let slow_response = slow.line();
    assert!(slow_response.contains("answers"), "{slow_response}");
    let stats = slow.json("STATS");
    assert_eq!(stats["shed"], 1u64, "{stats}");
    slow.send("QUIT");
    drop(slow);

    // B finally reaches the freed worker and is served (success #2),
    // which drains the server.
    let response = parked.request("QUERY xml sql");
    assert!(response.contains("answers"), "{response}");

    let (code, log) = server.drain();
    assert_eq!(code, 0, "{log}");
    assert!(log.contains("served 2 queries"), "{log}");
}
