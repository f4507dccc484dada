//! Remote-serving chaos suite: the supervised multi-process fleet
//! behind `serve --shard-workers N` survives worker murder (respawn +
//! recovery, byte-identical answers), never leaks worker processes past
//! a graceful drain, and an unreachable shard surfaces as the
//! documented policy — a structured `shard_unavailable` refusal by
//! default, an explicitly marked `degraded` best-effort answer under
//! `--degraded-answers true`. It also pins the one sharded serving shape
//! to a solo server on the wire — the full protocol exchange and budget
//! errors byte-identical. `serve`'s refusal of the solo-only backends
//! is pinned by `serve_sharded`.
//!
//! The supervision, stitching and identity tests drive the real
//! `wikisearch` binary as a subprocess (workers are grandchildren,
//! exactly as deployed); the policy tests attach an in-process server to
//! in-process workers via `--shard-addr`, which keeps them deterministic
//! and dependency-free.

mod common;

use common::{connect, dead_addr, graph_file, normalized, run_cli, GraphFile, Server};
use std::net::SocketAddr;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

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

/// The protocol exchange both servers run: cache misses, a reordered
/// cache hit, a single keyword, an unmatched term, and two EXPLAINs
/// (5 QUERY successes, so `--max-requests 5` drains the server).
const EXCHANGE: [&str; 7] = [
    "QUERY xml sql",
    "QUERY sql   XML",
    "QUERY rdf query",
    "QUERY rdf xml warpdrive",
    "EXPLAIN xml sql rdf",
    "EXPLAIN rdf",
    "QUERY xml sql rdf",
];

/// Run the exchange against a fresh `wikisearch serve {source}` subprocess
/// with `flags`; returns the raw responses and, once the server has
/// drained, its log.
fn run_exchange(source: &str, flags: &str) -> (Vec<String>, String) {
    let server = Server::subprocess(&format!(
        "serve {source} --workers 2 --backend cpu --threads 2 --max-requests 5 {flags}"
    ));
    let mut client = connect(server.port);
    let responses = EXCHANGE.iter().map(|req| client.request(req)).collect();
    let (code, log) = server.drain();
    assert_eq!(code, 0, "{log}");
    (responses, log)
}

/// The wire-level identity of the one sharded shape: the full exchange
/// through a supervised 2-worker fleet — forked from the TSV, or from a
/// snapshot compiled from it (`--mmap`) — is byte-identical to a solo
/// server's after stripping the volatile fields, and the fleet's trace
/// names the sharded engine.
#[test]
fn remote_server_is_byte_identical_to_solo() {
    let kb = graph_file("identity");
    let snap = format!("{}.wsnap", kb.path);
    let (code, out) = run_cli(&format!("build-snapshot --in {kb} --out {snap}"));
    assert_eq!(code, 0, "{out}");
    let (solo, solo_log) = run_exchange(&format!("--graph {kb}"), "");
    let (remote, remote_log) = run_exchange(&format!("--graph {kb}"), "--shard-workers 2");
    let (mapped, mapped_log) = run_exchange(&format!("--mmap {snap}"), "--shard-workers 2");
    let _ = std::fs::remove_file(&snap);
    let normalize = |raw: &[String]| raw.iter().map(|r| normalized(r)).collect::<Vec<_>>();
    assert_eq!(normalize(&remote), normalize(&solo), "remote wire responses diverged");
    assert_eq!(normalize(&mapped), normalize(&solo), "the mmap-backed fleet diverged");
    assert!(!solo_log.contains("shards"), "{solo_log}");
    for log in [&remote_log, &mapped_log] {
        assert!(log.contains("2 remote shards (supervised)"), "{log}");
    }
    for log in [&solo_log, &remote_log, &mapped_log] {
        assert!(log.contains("served 5 queries"), "{log}");
    }
    let explain: serde_json::Value = serde_json::from_str(&remote[4]).unwrap();
    assert_eq!(explain["trace"]["engine"], "CPU-Par[shards=2]", "{}", remote[4]);
    let levels = explain["trace"]["levels"].as_array().map_or(0, |l| l.len());
    assert!(levels > 0, "EXPLAIN traces the live search: {}", remote[4]);
}

/// Budget enforcement is link-independent: a starved expansion cap trips
/// the same structured error on a worker fleet as on a solo server, and
/// STATS accounts it.
#[test]
fn remote_budget_errors_match_solo() {
    let kb = graph_file("budget");
    let error_kind = |flags: &str| {
        // No --max-requests: the failing query never drains the server;
        // dropping it kills it.
        let server = Server::subprocess(&format!(
            "serve --graph {kb} --workers 2 --backend seq --max-expansions 1 {flags}"
        ));
        let mut client = connect(server.port);
        let doc = client.json("QUERY xml sql rdf");
        let stats = client.json("STATS");
        assert_eq!(stats["budget_exhausted"], 1u64, "{stats}");
        assert_eq!(stats["served"], 0u64, "failed queries are not served: {stats}");
        client.send("QUIT");
        doc["error"].as_str().unwrap().to_string()
    };
    assert_eq!(error_kind("--shard-workers 2"), error_kind(""));
    assert_eq!(error_kind(""), "budget_exhausted");
}

/// A supervised `--shard-workers 2` subprocess over `kb` that drains after
/// `max_requests` queries.
fn supervised(kb: &GraphFile, max_requests: usize) -> Server {
    Server::subprocess(&format!(
        "serve --graph {kb} --workers 2 --backend seq --shard-workers 2 --cache-capacity 0 \
         --max-requests {max_requests}"
    ))
}

/// Drain `server` and check that no worker it ever reported outlived it.
fn assert_drained_without_orphans(server: Server, pids: &[u64]) {
    let (code, log) = server.drain();
    assert_eq!(code, 0, "server exited with {code}: {log}");
    for pid in pids {
        for _ in 0..100 {
            if !pid_alive(*pid) {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(!pid_alive(*pid), "worker {pid} outlived the drain");
    }
}

/// The acceptance scenario for supervision: a real `wikisearch serve
/// --shard-workers 2` subprocess answers a query, one worker is killed
/// outright (SIGKILL — no chance to clean up), the supervisor respawns
/// it, the same query answers byte-identically over the healed fleet,
/// and the graceful drain leaves no worker process behind.
#[test]
fn killed_worker_is_respawned_and_no_process_outlives_the_drain() {
    let kb = graph_file("respawn");
    let server = supervised(&kb, 2);
    let mut client = connect(server.port);
    let baseline = client.request("QUERY xml sql rdf");
    assert!(baseline.contains("answers"), "{baseline}");
    let doc: serde_json::Value = serde_json::from_str(&baseline).unwrap();
    assert_eq!(doc["degraded"], false, "{baseline}");

    // The fleet on STATS: two live workers, zero respawns so far.
    let stats = client.json("STATS");
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

    // The supervisor notices and respawns without waiting for a query.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        assert!(Instant::now() < deadline, "fleet never healed after the kill");
        let stats = client.json("STATS");
        let pids = fleet_pids(&stats);
        for p in &pids {
            if !all_pids.contains(p) {
                all_pids.push(*p);
            }
        }
        let respawned = stats["remote"]["workers"]["respawns"].as_u64().unwrap() >= 1;
        if respawned && pids.len() == 2 && !pids.contains(&victim) {
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    // The healed fleet answers the same bytes: the respawn moved the
    // address generation, so the query dials the new worker rather than
    // the dead one's pooled connection.
    let healed = client.request("QUERY xml sql rdf");
    assert_eq!(normalized(&healed), normalized(&baseline), "answers changed after respawn");

    // That was the second success: the server drains gracefully, and
    // every worker PID ever reported — the murdered one, its replacement,
    // and the untouched peer — is gone.
    assert_drained_without_orphans(server, &all_pids);
}

/// The acceptance scenario for cross-process span stitching: a real
/// `serve --shard-workers 2` subprocess answers EXPLAIN with a
/// per-shard timeline stitched from worker-reported spans — one
/// timeline per shard, the worker-echoed qid matching the response's,
/// wire time the exact remainder of the coordinator's RPC envelope,
/// and the per-level spans reconciling with the trace's level records.
#[test]
fn remote_explain_stitches_per_shard_timelines_across_processes() {
    let kb = graph_file("stitch");
    let server = supervised(&kb, 1);
    let mut client = connect(server.port);

    let response = client.request("EXPLAIN xml sql rdf");
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
    let stats = client.json("STATS");
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
    let answer = client.request("QUERY xml sql rdf");
    assert!(answer.contains("answers"), "{answer}");
    assert_drained_without_orphans(server, &pids);
}

/// Write the shared 4-node graph to disk and spawn one live in-process
/// worker for shard `live_index` of a 2-shard plan.
fn graph_and_live_worker(tag: &str, live_index: usize) -> (GraphFile, SocketAddr) {
    let kb = graph_file(tag);
    let addr = central::ShardWorker::spawn_local(
        &kb.graph,
        2,
        live_index,
        central::shard::DEFAULT_PARTITION_SEED,
    );
    (kb, addr)
}

/// Default policy: a fleet with an unreachable shard refuses queries
/// with a structured `shard_unavailable` error — never a silent partial
/// answer — and the refusal is accounted on STATS at every layer.
#[test]
fn unreachable_shard_sheds_queries_with_a_structured_error() {
    let (kb, live) = graph_and_live_worker("shed", 0);
    let dead = dead_addr();
    let server = Server::in_process(&format!(
        "serve --graph {kb} --backend seq --workers 2 \
         --shard-addr {live},{dead} --rpc-timeout-ms 300 --rpc-retries 1 \
         --cache-capacity 0"
    ));
    let mut client = connect(server.port);

    let response = client.request("QUERY xml sql rdf");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert_eq!(doc["error"], "shard_unavailable", "{response}");
    assert!(doc["detail"].as_str().unwrap().contains("shard"), "{response}");

    let stats = client.json("STATS");
    assert!(stats["shard_unavailable"].as_u64().unwrap() >= 1, "{stats}");
    assert!(stats["engine"]["shard_unavailable"].as_u64().unwrap() >= 1, "{stats}");
    assert_eq!(stats["remote"]["degraded_queries"], 0u64, "{stats}");
    assert_eq!(stats["served"], 0u64, "a refused query must not count as served: {stats}");
    // Attached fleet (no supervisor): the workers block is null.
    assert!(stats["remote"]["workers"].is_null(), "{stats}");
    client.send("QUIT");
}

/// Opt-in degradation: with `--degraded-answers true` the reachable
/// shards answer best-effort, the response is explicitly marked
/// `degraded`, and STATS counts the degraded query — degraded is never
/// silent.
#[test]
fn degraded_answers_are_served_and_marked_when_opted_in() {
    let (kb, live) = graph_and_live_worker("degraded", 0);
    let dead = dead_addr();
    let server = Server::in_process(&format!(
        "serve --graph {kb} --backend seq --workers 2 \
         --shard-addr {live},{dead} --degraded-answers true --rpc-timeout-ms 300 \
         --rpc-retries 1 --cache-capacity 0"
    ));
    let mut client = connect(server.port);

    let response = client.request("QUERY xml sql rdf");
    let doc: serde_json::Value = serde_json::from_str(&response).unwrap();
    assert!(doc.get("error").is_none(), "degraded mode must answer: {response}");
    assert_eq!(doc["degraded"], true, "{response}");

    let stats = client.json("STATS");
    assert!(stats["remote"]["degraded_queries"].as_u64().unwrap() >= 1, "{stats}");
    assert_eq!(stats["shard_unavailable"], 0u64, "{stats}");
    assert_eq!(stats["served"], 1u64, "a degraded answer is still an answer: {stats}");
    client.send("QUIT");
}

/// Remote flag validation: the combinations the docs rule out are
/// rejected up front with actionable errors, not at first query.
#[test]
fn remote_flag_misuse_is_rejected_up_front() {
    let kb = graph_file("flags");
    for (argv, needle) in [
        (
            format!("serve --graph {kb} --shard-workers 2 --shard-addr 127.0.0.1:1"),
            "mutually exclusive",
        ),
        (
            format!("serve --graph {kb} --shard-workers 2 --shards 2"),
            "--shards accepts only 1",
        ),
        (format!("serve --graph {kb} --degraded-answers true"), "requires remote"),
        (format!("serve --graph {kb} --rpc-retries 2"), "requires remote"),
        (format!("serve --graph {kb} --shard-addr not-an-addr"), "--shard-addr"),
    ] {
        let (code, log) = run_cli(&argv);
        assert_eq!(code, 1, "accepted {argv:?}: {log}");
        assert!(log.contains(needle), "error for {argv:?} missing {needle:?}: {log}");
    }
}

/// Network-shaped chaos (feature `fault-inject`): a client whose queries
/// make a worker drop connections, stall past the RPC deadline, or
/// answer garbage frames gets structured errors — and a well-behaved
/// client interleaved with it keeps getting byte-identical answers,
/// with the fleet fully recovered (breakers closed) afterwards.
#[cfg(feature = "fault-inject")]
#[test]
fn misbehaving_worker_queries_cannot_perturb_well_behaved_ones() {
    let kb = graph_file("chaos");
    let w0 =
        central::ShardWorker::spawn_local(&kb.graph, 2, 0, central::shard::DEFAULT_PARTITION_SEED);
    let w1 =
        central::ShardWorker::spawn_local(&kb.graph, 2, 1, central::shard::DEFAULT_PARTITION_SEED);
    let server = Server::in_process(&format!(
        "serve --graph {kb} --backend seq --workers 4 \
         --shard-addr {w0},{w1} --rpc-timeout-ms 400 --rpc-retries 2 \
         --cache-capacity 0"
    ));
    let mut client = connect(server.port);
    let baseline = normalized(&client.request("QUERY xml sql rdf"));

    // Each chaos token makes every worker misbehave *for that query
    // only*: the connection is poisoned, retried, and finally given up
    // on — a structured refusal, never a hang and never a wrong answer.
    for chaos in ["fault0drop xml", "fault0stall-conn xml", "fault0garbage-frame xml"] {
        let doc = client.json(&format!("QUERY {chaos}"));
        assert_eq!(doc["error"], "shard_unavailable", "chaos {chaos:?}: {doc}");

        // The very next well-behaved query answers the baseline bytes.
        let good = normalized(&client.request("QUERY xml sql rdf"));
        assert_eq!(good, baseline, "good query perturbed after {chaos:?}");
    }

    // No breaker ever opened: every failed RPC's probe found its worker
    // alive and blamed the query. Retries were actually exercised, and
    // every refusal was accounted.
    let stats = client.json("STATS");
    let closed = stats["remote"]["breaker"].as_array().unwrap().iter().all(|s| s == "closed");
    assert!(closed, "{stats}");
    assert_eq!(stats["remote"]["breaker_opens"], 0u64, "{stats}");
    assert!(stats["remote"]["retries"].as_u64().unwrap() >= 1, "{stats}");
    assert!(stats["shard_unavailable"].as_u64().unwrap() >= 3, "{stats}");
}
