//! Remote-serving chaos suite: the supervised multi-process fleet
//! behind `serve --shard-workers N` survives worker murder (respawn +
//! recovery, byte-identical answers), never leaks worker processes past
//! a graceful drain, and an unreachable shard surfaces as the
//! documented policy — a structured `shard_unavailable` refusal by
//! default, an explicitly marked `degraded` best-effort answer under
//! `--degraded-answers true`.
//!
//! The supervision test drives the real `wikisearch` binary as a
//! subprocess (workers are grandchildren, exactly as deployed); the
//! policy tests attach an in-process server to in-process workers via
//! `--shard-addr`, which keeps them deterministic and dependency-free.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn free_port() -> u16 {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = probe.local_addr().unwrap().port();
    drop(probe);
    port
}

/// An address that is guaranteed dead: bound once, then released.
fn dead_addr() -> SocketAddr {
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    addr
}

fn graph_file(tag: &str) -> String {
    let path = std::env::temp_dir()
        .join(format!("ws-remote-{}-{tag}.tsv", std::process::id()))
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

fn connect(port: u16) -> (TcpStream, BufReader<TcpStream>) {
    for _ in 0..300 {
        if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
            s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let reader = BufReader::new(s.try_clone().unwrap());
            return (s, reader);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("server not reachable on port {port}");
}

fn roundtrip(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) -> String {
    writeln!(stream, "{request}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.ends_with('\n'), "truncated response to {request:?}: {line:?}");
    line.trim_end().to_string()
}

/// A query response with its volatile fields removed — wall time and
/// the per-query fleet-wide id — so two runs of the same query can be
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

/// Whether a PID is alive (`kill -0`), as seen by the test process.
fn pid_alive(pid: u64) -> bool {
    Command::new("kill")
        .args(["-0", &pid.to_string()])
        .stderr(Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

/// The worker PIDs the server currently reports on STATS.
fn fleet_pids(doc: &serde_json::Value) -> Vec<u64> {
    doc["remote"]["workers"]["pids"]
        .as_array()
        .unwrap_or_else(|| panic!("no fleet PIDs in {doc}"))
        .iter()
        .map(|p| p.as_u64().unwrap())
        .collect()
}

/// Kill the subprocess if the test panicked before its graceful drain,
/// so a failing assertion never strands a server (and its workers).
struct KillOnDrop(Child);
impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The acceptance scenario for supervision: a real `wikisearch serve
/// --shard-workers 2` subprocess answers a query, one worker is killed
/// outright (SIGKILL — no chance to clean up), the supervisor respawns
/// it, the same query answers byte-identically over the healed fleet,
/// and the graceful drain leaves no worker process behind.
#[test]
fn killed_worker_is_respawned_and_no_process_outlives_the_drain() {
    let path = graph_file("respawn");
    let port = free_port();
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_wikisearch"))
            .args([
                "serve",
                "--graph",
                &path,
                "--port",
                &port.to_string(),
                "--backend",
                "seq",
                "--workers",
                "2",
                "--shard-workers",
                "2",
                "--heartbeat-ms",
                "50",
                "--cache-capacity",
                "0",
                "--max-requests",
                "2",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning the serve subprocess"),
    );

    let (mut stream, mut reader) = connect(port);
    let baseline = roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf");
    assert!(baseline.contains("answers"), "{baseline}");
    let doc: serde_json::Value = serde_json::from_str(&baseline).unwrap();
    assert_eq!(doc["degraded"], false, "{baseline}");

    // The fleet on STATS: two live workers, zero respawns so far.
    let stats: serde_json::Value =
        serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
    let before = fleet_pids(&stats);
    assert_eq!(before.len(), 2, "{stats}");
    assert_eq!(stats["remote"]["workers"]["respawns"], 0u64, "{stats}");
    let mut all_pids = before.clone();

    // Murder one worker. SIGKILL: no drop handlers, no stdin watchdog —
    // only the supervisor can notice.
    let victim = before[0];
    assert!(Command::new("kill")
        .args(["-9", &victim.to_string()])
        .status()
        .unwrap()
        .success());

    // The supervisor notices, respawns, and the breaker re-closes (the
    // 50 ms heartbeat drives open → half-open → closed without queries).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "fleet never healed after the kill");
        let stats: serde_json::Value =
            serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
        let pids = fleet_pids(&stats);
        for p in &pids {
            if !all_pids.contains(p) {
                all_pids.push(*p);
            }
        }
        let respawned = stats["remote"]["workers"]["respawns"].as_u64().unwrap() >= 1;
        let full = pids.len() == 2 && !pids.contains(&victim);
        let closed = stats["remote"]["breaker"].as_array().unwrap().iter().all(|s| s == "closed");
        if respawned && full && closed {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // Recovery is complete: the healed fleet answers the same bytes.
    let healed = roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf");
    assert_eq!(normalized(&healed), normalized(&baseline), "answers changed after respawn");

    // That was the second success: the server drains gracefully.
    let status = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = server.0.try_wait().unwrap() {
                break status;
            }
            assert!(Instant::now() < deadline, "server did not drain after --max-requests");
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    assert!(status.success(), "server exited with {status:?}");

    // No orphans: every worker PID ever reported — the murdered one, its
    // replacement, and the untouched peer — is gone.
    for pid in &all_pids {
        for _ in 0..100 {
            if !pid_alive(*pid) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!pid_alive(*pid), "worker {pid} outlived the drain");
    }
    let _ = std::fs::remove_file(path);
}

/// The acceptance scenario for cross-process span stitching: a real
/// `serve --shard-workers 2` subprocess answers EXPLAIN with a
/// per-shard timeline stitched from worker-reported spans — one
/// timeline per shard, the worker-echoed qid matching the response's,
/// wire time the exact remainder of the coordinator's RPC envelope,
/// and the per-level spans reconciling with the trace's level records.
#[test]
fn remote_explain_stitches_per_shard_timelines_across_processes() {
    let path = graph_file("stitch");
    let port = free_port();
    let mut server = KillOnDrop(
        Command::new(env!("CARGO_BIN_EXE_wikisearch"))
            .args([
                "serve",
                "--graph",
                &path,
                "--port",
                &port.to_string(),
                "--backend",
                "seq",
                "--workers",
                "2",
                "--shard-workers",
                "2",
                "--heartbeat-ms",
                "0",
                "--cache-capacity",
                "0",
                "--max-requests",
                "1",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning the serve subprocess"),
    );
    let (mut stream, mut reader) = connect(port);

    let response = roundtrip(&mut stream, &mut reader, "EXPLAIN xml sql rdf");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert_eq!(doc["answers"][0]["central"], "query language", "{response}");
    let qid = doc["qid"].as_u64().unwrap_or_else(|| panic!("no qid in {response}"));
    assert_eq!(doc["trace"]["qid"], qid, "{response}");

    let levels: Vec<u64> = doc["trace"]["levels"]
        .as_array()
        .unwrap()
        .iter()
        .map(|l| l["level"].as_u64().unwrap())
        .collect();
    assert!(!levels.is_empty(), "{response}");

    // The EXPLAIN is this server's only query so far: every exchange
    // round STATS counts is one of its own.
    let stats: serde_json::Value =
        serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
    let rounds = stats["remote"]["rounds"].as_u64().unwrap() as usize;

    let timelines = doc["trace"]["shard_timelines"]
        .as_array()
        .unwrap_or_else(|| panic!("remote EXPLAIN must stitch timelines: {response}"));
    assert_eq!(timelines.len(), 2, "one timeline per shard: {response}");
    for (shard, tl) in timelines.iter().enumerate() {
        assert_eq!(tl["shard"].as_u64().unwrap(), shard as u64, "{response}");
        // The worker process echoed the coordinator's fleet-wide qid.
        assert_eq!(tl["qid"].as_u64().unwrap(), qid, "{response}");
        assert!(tl["rpcs"].as_u64().unwrap() >= 2, "{response}");
        let rpc_us = tl["rpc_us"].as_u64().unwrap();
        let worker_us = tl["worker_us"].as_u64().unwrap();
        let wire_us = tl["wire_us"].as_u64().unwrap();
        // Durations only, never cross-host clocks. The wire share is a
        // saturating subtraction rather than an exact one: on a loaded
        // host a worker's measured sections can overlap the other
        // shard's RPC window, leaving worker_us slightly above rpc_us.
        assert!(rpc_us > 0 && worker_us > 0, "{response}");
        assert_eq!(wire_us, rpc_us.saturating_sub(worker_us), "{response}");
        let spans = tl["spans"].as_array().unwrap();
        let span_sum: u64 = spans
            .iter()
            .map(|s| {
                ["wait_us", "decode_us", "exec_us", "encode_us"]
                    .iter()
                    .map(|f| s[*f].as_u64().unwrap())
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(worker_us, span_sum, "worker total is the sum of its spans: {response}");
        // Reconciliation with the coordinator's level records: exactly
        // one start and one collect, one step per level plus the closing
        // one that found the frontier dry, each tagged with its level, one
        // expand per exchange round, each tagged with a driven level, and
        // no other op.
        let ops = |op: &str| spans.iter().filter(|s| s["op"] == op).count();
        assert_eq!(ops("start"), 1, "{response}");
        assert_eq!(ops("collect"), 1, "{response}");
        let steps: Vec<u64> = spans
            .iter()
            .filter(|s| s["op"] == "step")
            .map(|s| s["level"].as_u64().expect("step spans are level-tagged"))
            .collect();
        let closing = levels.len() as u64;
        assert_eq!(steps, [&levels[..], &[closing]].concat(), "{response}");
        assert_eq!(ops("expand"), rounds, "{response}");
        for span in spans.iter().filter(|s| s["op"] == "expand") {
            let level = span["level"].as_u64().expect("expand spans are level-tagged");
            assert!(levels.contains(&level), "span level {level} not in {levels:?}: {response}");
        }
        assert_eq!(spans.len(), 2 + steps.len() + rounds, "no other op: {response}");
    }

    // One served query reaches --max-requests: collect the fleet PIDs,
    // drain, and verify the workers went with the server.
    let pids = fleet_pids(&stats);
    let answer = roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf");
    assert!(answer.contains("answers"), "{answer}");
    let status = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(status) = server.0.try_wait().unwrap() {
                break status;
            }
            assert!(Instant::now() < deadline, "server did not drain after --max-requests");
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    assert!(status.success(), "server exited with {status:?}");
    for pid in &pids {
        for _ in 0..100 {
            if !pid_alive(*pid) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!pid_alive(*pid), "worker {pid} outlived the drain");
    }
    let _ = std::fs::remove_file(path);
}

/// Start an in-process server thread (leaked; dies with the test
/// process) and return its port.
fn spawn_inprocess(argv_line: String) {
    std::thread::spawn(move || {
        let argv: Vec<String> = argv_line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        let code = wikisearch_cli::run(&argv, &mut out);
        assert_eq!(code, 0, "{}", String::from_utf8_lossy(&out));
    });
}

/// Build the shared 4-node graph, write it to disk, and spawn one live
/// in-process worker for shard `live_index` of a 2-shard plan.
fn graph_and_live_worker(tag: &str, live_index: usize) -> (String, SocketAddr) {
    let path = graph_file(tag);
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    let graph = b.build();
    let addr = central::ShardWorker::spawn_local(
        &graph,
        2,
        live_index,
        central::shard::DEFAULT_PARTITION_SEED,
    );
    (path, addr)
}

/// Default policy: a fleet with an unreachable shard refuses queries
/// with a structured `shard_unavailable` error — never a silent partial
/// answer — and the refusal is accounted on STATS at every layer.
#[test]
fn unreachable_shard_sheds_queries_with_a_structured_error() {
    let (path, live) = graph_and_live_worker("shed", 0);
    let dead = dead_addr();
    let port = free_port();
    spawn_inprocess(format!(
        "serve --graph {path} --port {port} --backend seq --workers 2 \
         --shard-addr {live},{dead} --rpc-timeout-ms 300 --rpc-retries 1 \
         --heartbeat-ms 0 --cache-capacity 0"
    ));
    let (mut stream, mut reader) = connect(port);

    let response = roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert_eq!(doc["error"], "shard_unavailable", "{response}");
    assert!(doc["detail"].as_str().unwrap().contains("shard"), "{response}");

    let stats: serde_json::Value =
        serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
    assert!(stats["shard_unavailable"].as_u64().unwrap() >= 1, "{stats}");
    assert!(stats["engine"]["shard_unavailable"].as_u64().unwrap() >= 1, "{stats}");
    assert_eq!(stats["remote"]["degraded_queries"], 0u64, "{stats}");
    assert_eq!(stats["served"], 0u64, "a refused query must not count as served: {stats}");
    // Attached fleet (no supervisor): the workers block is null.
    assert!(stats["remote"]["workers"].is_null(), "{stats}");
    writeln!(stream, "QUIT").unwrap();
    let _ = std::fs::remove_file(path);
}

/// Opt-in degradation: with `--degraded-answers true` the reachable
/// shards answer best-effort, the response is explicitly marked
/// `degraded`, and STATS counts the degraded query — degraded is never
/// silent.
#[test]
fn degraded_answers_are_served_and_marked_when_opted_in() {
    let (path, live) = graph_and_live_worker("degraded", 0);
    let dead = dead_addr();
    let port = free_port();
    spawn_inprocess(format!(
        "serve --graph {path} --port {port} --backend seq --workers 2 \
         --shard-addr {live},{dead} --degraded-answers true --rpc-timeout-ms 300 \
         --rpc-retries 1 --heartbeat-ms 0 --cache-capacity 0"
    ));
    let (mut stream, mut reader) = connect(port);

    let response = roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert!(doc.get("error").is_none(), "degraded mode must answer: {response}");
    assert_eq!(doc["degraded"], true, "{response}");

    let stats: serde_json::Value =
        serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
    assert!(stats["remote"]["degraded_queries"].as_u64().unwrap() >= 1, "{stats}");
    assert_eq!(stats["shard_unavailable"], 0u64, "{stats}");
    assert_eq!(stats["served"], 1u64, "a degraded answer is still an answer: {stats}");
    writeln!(stream, "QUIT").unwrap();
    let _ = std::fs::remove_file(path);
}

/// Remote flag validation: the combinations the docs rule out are
/// rejected up front with actionable errors, not at first query.
#[test]
fn remote_flag_misuse_is_rejected_up_front() {
    let path = graph_file("flags");
    for (argv, needle) in [
        (
            format!("serve --graph {path} --shard-workers 2 --shard-addr 127.0.0.1:1"),
            "mutually exclusive",
        ),
        (
            format!("serve --graph {path} --shard-workers 2 --shards 2"),
            "replaces --shards",
        ),
        (format!("serve --graph {path} --degraded-answers true"), "requires remote"),
        (format!("serve --graph {path} --rpc-retries 2"), "requires remote"),
        (format!("serve --graph {path} --shard-addr not-an-addr"), "--shard-addr"),
    ] {
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        let code = wikisearch_cli::run(&argv, &mut out);
        let log = String::from_utf8(out).unwrap();
        assert_eq!(code, 1, "accepted {argv:?}: {log}");
        assert!(log.contains(needle), "error for {argv:?} missing {needle:?}: {log}");
    }
    let _ = std::fs::remove_file(path);
}

/// Network-shaped chaos (feature `fault-inject`): a client whose queries
/// make a worker drop connections, stall past the RPC deadline, or
/// answer garbage frames gets structured errors — and a well-behaved
/// client interleaved with it keeps getting byte-identical answers,
/// with the fleet fully recovered (breakers closed) afterwards.
#[cfg(feature = "fault-inject")]
#[test]
fn misbehaving_worker_queries_cannot_perturb_well_behaved_ones() {
    let path = graph_file("chaos");
    let mut b = kgraph::GraphBuilder::new();
    let x = b.add_node("x", "xml");
    let q = b.add_node("q", "query language");
    let s = b.add_node("s", "sql");
    let r = b.add_node("r", "rdf");
    b.add_edge(x, q, "rel");
    b.add_edge(s, q, "rel");
    b.add_edge(r, q, "rel");
    let graph = b.build();
    let w0 =
        central::ShardWorker::spawn_local(&graph, 2, 0, central::shard::DEFAULT_PARTITION_SEED);
    let w1 =
        central::ShardWorker::spawn_local(&graph, 2, 1, central::shard::DEFAULT_PARTITION_SEED);
    let port = free_port();
    spawn_inprocess(format!(
        "serve --graph {path} --port {port} --backend seq --workers 4 \
         --shard-addr {w0},{w1} --rpc-timeout-ms 400 --rpc-retries 2 \
         --heartbeat-ms 50 --cache-capacity 0"
    ));
    let (mut stream, mut reader) = connect(port);
    let baseline = normalized(&roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf"));

    // Each chaos token makes every worker misbehave *for that query
    // only*: the connection is poisoned, retried, and finally given up
    // on — a structured refusal, never a hang and never a wrong answer.
    for chaos in ["fault0drop xml", "fault0stall-conn xml", "fault0garbage-frame xml"] {
        let response = roundtrip(&mut stream, &mut reader, &format!("QUERY {chaos}"));
        let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
        assert_eq!(doc["error"], "shard_unavailable", "chaos {chaos:?}: {response}");

        // The very next well-behaved query answers the baseline bytes.
        let good = normalized(&roundtrip(&mut stream, &mut reader, "QUERY xml sql rdf"));
        assert_eq!(good, baseline, "good query perturbed after {chaos:?}");
    }

    // Full recovery: breakers all closed again (the heartbeat probes the
    // workers back to health), retries were actually exercised, and
    // every refusal was accounted.
    let deadline = Instant::now() + Duration::from_secs(20);
    let stats = loop {
        let stats: serde_json::Value =
            serde_json::from_str(&roundtrip(&mut stream, &mut reader, "STATS")).unwrap();
        let closed = stats["remote"]["breaker"].as_array().unwrap().iter().all(|s| s == "closed");
        if closed {
            break stats;
        }
        assert!(Instant::now() < deadline, "breakers never re-closed: {stats}");
        std::thread::sleep(Duration::from_millis(100));
    };
    assert!(stats["remote"]["retries"].as_u64().unwrap() >= 1, "{stats}");
    assert!(stats["shard_unavailable"].as_u64().unwrap() >= 3, "{stats}");
    let _ = std::fs::remove_file(path);
}
