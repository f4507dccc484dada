//! `wikisearch serve` — a line-protocol TCP query service, the offline
//! analogue of the paper's hosted WikiSearch endpoint.
//!
//! This module is start-up (flags, engine wiring, the background
//! sampler) and the one connection front end: an acceptor and a worker
//! pool around [`serve_one_request`]. The wire grammar, the line reader and
//! the socket writer are in [`protocol`]; `QUERY`/`EXPLAIN` answering,
//! query IDs and the slow-query log in [`query`]; the metric table behind
//! `STATS`, `STATS WINDOW`, `TOP` and `METRICS` in [`stats`].
//!
//! ## Fault isolation
//!
//! The serving path is built so that one misbehaving client cannot take
//! the service down or corrupt another client's answers:
//!
//! * **Deadlines and budgets** — `--timeout-ms` / `--max-expansions`
//!   bound every query via a [`QueryBudget`]; a query that trips its
//!   budget gets a structured JSON error (`deadline_exceeded` /
//!   `budget_exhausted`) and its warm session is reused as usual.
//! * **Panic quarantine** — query execution runs under `catch_unwind`;
//!   a panicking query answers `{"error":"internal"}`, its session is
//!   quarantined by the pool (never recycled), and the worker thread
//!   lives on to serve the next connection.
//! * **Load shedding** — the acceptor hands connections to workers over
//!   a *bounded* queue (`--max-queue`, default 64). When every worker is
//!   busy and the queue is full, a new connection is answered
//!   immediately with `{"error":"overloaded"}` and closed, instead of
//!   queueing without bound.
//! * **Bounded request lines** — see [`protocol`].
//!
//! Connections are handled by a bounded worker pool (`--workers N`,
//! default 4). A worker owns a connection until its peer quits or hangs
//! up, so `N` is the number of kept connections served at the same time:
//! a further connection waits in the `--max-queue` backlog until a worker
//! frees up, and one past the backlog is shed with `overloaded`. All
//! workers share one `Arc<WikiSearch>`, so inter-query concurrency
//! composes with the intra-query parallelism of the engine backends —
//! each in-flight query checks a warm session out of the engine's
//! session pool instead of contending on a process-wide lock.
//! `--max-requests N` makes the server drain gracefully after `N`
//! *successful* queries (in-flight connections finish, then the listener
//! closes), which is how the tests and demo scripts drive it.
//!
//! A sharded result cache (see `central::cache`) sits in front of the
//! session pool; `--cache-capacity BYTES` sizes it (suffixes `k`/`m`/`g`
//! accepted, default 64m, `0` disables). Repeated queries — including
//! reorderings, case changes, and stopword variations of one another —
//! are answered from the cache without touching a session. Failed
//! queries never populate it.
//!
//! ## Sharded serving
//!
//! `--shards N` (default 1) partitions the graph into `N` edge-cut
//! shards and answers every query through the scatter-gather
//! coordinator (`central::remote::ShardCoordinator` over in-process
//! lanes) instead of a single monolithic session. Answers, traces and
//! error semantics are byte-identical to `--shards 1`
//! (differential-tested); the result cache, budgets,
//! panic quarantine and slow-query log all sit in front of the
//! coordinator unchanged. `STATS` gains a `shards` object and
//! `METRICS` gains `ws_shard_*` series when sharded. Sharded and remote
//! serving run `--backend seq` or `cpu`; `gpu` and `dyn` are solo engines
//! and are refused with either at start-up.
//!
//! ## Remote shard workers
//!
//! `--shard-workers N` forks `N` supervised `wikisearch shard-worker`
//! processes over the same dataset and answers every query through the
//! fault-tolerant remote coordinator (`central::remote`):
//! per-RPC deadlines from the query budget, bounded retry with
//! exponential backoff, heartbeat probes driving a per-shard circuit
//! breaker, and automatic respawn of dead workers. `--shard-addr
//! a,b,…` instead attaches to externally managed workers (no
//! supervision). When a shard stays unreachable past its retry budget a
//! query is refused with `{"error":"shard_unavailable"}` — unless
//! `--degraded-answers true`, in which case the reachable shards answer
//! best-effort and the response is marked `"degraded": true` (degraded
//! answers never populate the cache). `--rpc-timeout-ms`,
//! `--rpc-retries` and `--heartbeat-ms` tune the supervision knobs.
//! `STATS` gains a `remote` object and `METRICS` gains `ws_remote_*`
//! series while remote serving is on.

mod protocol;
mod query;
mod stats;

use crate::args::ParsedArgs;
use central::{QueryBudget, RemoteOptions, StaticAddrs, TelemetrySample, TraceLevel};
use parking_lot::Mutex;
use protocol::{parse_request, read_request_line, respond, LineRead, Reply, Request, Served};
use query::{answer_query, SlowLog};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wikisearch_engine::{Backend, QueryRequest, WikiSearch, DEFAULT_TELEMETRY_SAMPLES};

/// How often a blocked worker wakes up to check for drain.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// The server's own counters, surfaced on `STATS` / `METRICS`. Budget
/// trips and shard refusals are not among them: the engine registry
/// counts every refusal it returns.
#[derive(Default)]
struct ServeCounters {
    /// Successful query responses (what `--max-requests` counts).
    served: AtomicUsize,
    /// Connections refused with `overloaded` because the worker queue was
    /// full.
    shed: AtomicU64,
    /// Queries that panicked (their sessions were quarantined).
    panics: AtomicU64,
    /// Request lines rejected for exceeding [`protocol::MAX_LINE`].
    oversized: AtomicU64,
    /// Queries at or over the `--slow-query-ms` threshold (logged).
    slow_queries: AtomicU64,
}

/// Everything a worker needs to serve connections, shared by reference
/// across the pool.
struct Shared<'a> {
    ws: &'a WikiSearch,
    counters: &'a ServeCounters,
    budget: QueryBudget,
    max_requests: usize,
    draining: &'a AtomicBool,
    addr: SocketAddr,
    /// `Some` when `--slow-query-ms` armed the slow-query log.
    slow: Option<SlowLog>,
    /// `Some` when `--shard-workers` forked a supervised worker fleet;
    /// surfaces live PIDs and the respawn count on `STATS`.
    supervisor: Option<&'a crate::supervisor::Supervisor>,
    /// Label body of the `ws_build_info` identity gauge.
    build_info: String,
    /// When the server started, for `ws_uptime_seconds`.
    started: Instant,
}

/// Every flag `serve` accepts; README.md documents each one (unit-tested).
const SERVE_FLAGS: &[&str] = &[
    "graph",
    "mmap",
    "port",
    "backend",
    "threads",
    "top-k",
    "max-requests",
    "workers",
    "cache-capacity",
    "timeout-ms",
    "max-expansions",
    "max-queue",
    "slow-query-ms",
    "slow-query-log",
    "slow-query-trace",
    "telemetry-interval-ms",
    "shards",
    "shard-workers",
    "shard-addr",
    "degraded-answers",
    "rpc-timeout-ms",
    "rpc-retries",
    "heartbeat-ms",
];

/// Run the server until `max_requests` queries have been answered (or
/// forever when it is 0).
pub fn serve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(SERVE_FLAGS)?;
    let port: u16 = args.get_or("port", 7878)?;
    let threads: usize = args.get_or("threads", 4)?;
    let shards: usize = args.get_or("shards", 1)?;
    let max_requests: usize = args.get_or("max-requests", 0)?;
    let workers: usize = args.get_or("workers", 4)?;
    let cache_capacity = args.get_bytes("cache-capacity", 64 << 20)?;
    let max_queue: usize = args.get_or("max-queue", 64)?;
    let slow_query_ms: u64 = args.get_or("slow-query-ms", 0)?;
    let telemetry_interval_ms: u64 = args.get_or("telemetry-interval-ms", 1000)?;
    let slow_query_trace = match args.optional("slow-query-trace").unwrap_or("off") {
        "off" => false,
        "on" => true,
        other => return Err(format!("--slow-query-trace must be `off` or `on`, got {other:?}")),
    };
    let shard_workers: usize = args.get_or("shard-workers", 0)?;
    let shard_addr = args.optional("shard-addr");
    let degraded_answers: bool = args.get_or("degraded-answers", false)?;
    let rpc_timeout_ms: u64 = args.get_or("rpc-timeout-ms", 5000)?;
    let rpc_retries: u32 = args.get_or("rpc-retries", 3)?;
    let heartbeat_ms: u64 = args.get_or("heartbeat-ms", 1000)?;
    for (flag, value) in [("workers", workers), ("shards", shards), ("max-queue", max_queue)] {
        if value == 0 {
            return Err(format!("--{flag} must be >= 1"));
        }
    }
    if slow_query_ms == 0 && args.optional("slow-query-log").is_some() {
        return Err("--slow-query-log requires --slow-query-ms N (N >= 1)".into());
    }
    if slow_query_ms == 0 && args.optional("slow-query-trace").is_some() {
        return Err("--slow-query-trace requires --slow-query-ms N (N >= 1)".into());
    }
    let remote = shard_workers > 0 || shard_addr.is_some();
    if shard_workers > 0 && shard_addr.is_some() {
        return Err("--shard-workers and --shard-addr are mutually exclusive".into());
    }
    if remote && shards > 1 {
        return Err(
            "remote shard serving replaces --shards; drop --shards or the remote flags".into()
        );
    }
    if !remote {
        for flag in ["degraded-answers", "rpc-timeout-ms", "rpc-retries", "heartbeat-ms"] {
            if args.optional(flag).is_some() {
                return Err(format!(
                    "--{flag} requires remote shard serving (--shard-workers or --shard-addr)"
                ));
            }
        }
    }
    if remote && rpc_timeout_ms == 0 {
        return Err("--rpc-timeout-ms must be >= 1".into());
    }
    if remote && rpc_retries == 0 {
        return Err("--rpc-retries must be >= 1".into());
    }
    let slow = if slow_query_ms > 0 {
        let path = args.optional("slow-query-log").unwrap_or("slow_queries.jsonl");
        Some(SlowLog::open(path, slow_query_ms, slow_query_trace)?)
    } else {
        None
    };
    let budget = crate::commands::budget_from_args(args)?;
    let backend_name = args.optional("backend").unwrap_or("cpu");
    let backend = Backend::parse(backend_name, threads)?;
    if remote || shards > 1 {
        backend.sharded()?;
    }
    let mut ws = crate::commands::open_engine(args, backend, shards)?;
    let mut params = ws.params().clone();
    params.top_k = args.get_or("top-k", params.top_k)?;
    ws.set_params(params);
    ws.set_cache_capacity(cache_capacity);
    ws.set_telemetry(telemetry_interval_ms, DEFAULT_TELEMETRY_SAMPLES);
    let remote_opts = RemoteOptions {
        rpc_timeout: Duration::from_millis(rpc_timeout_ms),
        attempts: rpc_retries,
        heartbeat: if heartbeat_ms > 0 {
            Some(Duration::from_millis(heartbeat_ms))
        } else {
            None
        },
        degraded_answers,
        ..RemoteOptions::default()
    };
    let supervisor = if shard_workers > 0 {
        let source = if let Some(path) = args.optional("mmap") {
            ("--mmap".to_string(), path.to_string())
        } else {
            ("--graph".to_string(), args.required("graph")?.to_string())
        };
        let sup = crate::supervisor::Supervisor::launch(source, shard_workers)?;
        ws.set_remote_shards(shard_workers, sup.addrs(), remote_opts);
        Some(sup)
    } else if let Some(list) = shard_addr {
        let addrs: Vec<SocketAddr> = list
            .split(',')
            .map(|a| a.trim().parse::<SocketAddr>().map_err(|e| format!("--shard-addr {a:?}: {e}")))
            .collect::<Result<_, _>>()?;
        let n = addrs.len();
        ws.set_remote_shards(n, Arc::new(StaticAddrs(addrs)), remote_opts);
        None
    } else {
        None
    };
    let listener = TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let sharding = if let Some(n) = ws.num_remote_shards() {
        let how = if supervisor.is_some() {
            "supervised"
        } else {
            "attached"
        };
        let policy = if degraded_answers {
            ", degraded-answers"
        } else {
            ""
        };
        format!(", {n} remote shards ({how}){policy}")
    } else {
        match ws.num_shards() {
            Some(n) => format!(", {n} shards"),
            None => String::new(),
        }
    };
    let backing = if ws.is_memory_mapped() {
        ", mmap-backed"
    } else {
        ""
    };
    writeln!(
        out,
        "wikisearch serving on 127.0.0.1:{} ({} nodes indexed, {workers} \
         workers{sharding}{backing})",
        addr.port(),
        ws.graph().num_nodes()
    )
    .map_err(|e| e.to_string())?;

    let counters = ServeCounters::default();
    let draining = AtomicBool::new(false);
    let shared = Shared {
        ws: &ws,
        counters: &counters,
        budget,
        max_requests,
        draining: &draining,
        addr,
        slow,
        supervisor: supervisor.as_ref(),
        build_info: format!(
            "version=\"{}\",backend=\"{backend_name}\",shards=\"{}\",mmap=\"{}\"",
            env!("CARGO_PKG_VERSION"),
            ws.num_remote_shards().or(ws.num_shards()).unwrap_or(1),
            ws.is_memory_mapped()
        ),
        started: Instant::now(),
    };
    // The background sampler: one metrics snapshot per interval into the
    // telemetry ring, entirely off the query path. It stops (promptly —
    // it sleeps in DRAIN_POLL ticks) once serving ends.
    let sampler_stop = AtomicBool::new(false);
    let accept_error = std::thread::scope(|scope| {
        if telemetry_interval_ms > 0 {
            scope.spawn(|| run_sampler(&ws, &counters, &sampler_stop));
        }
        let accept_error = serve_connections(&listener, &shared, workers, max_queue);
        sampler_stop.store(true, Ordering::SeqCst);
        accept_error
    });
    if let Some(e) = accept_error {
        return Err(e);
    }
    writeln!(out, "served {} queries, shutting down", counters.served.load(Ordering::SeqCst))
        .map_err(|e| e.to_string())
}

/// The background sampler loop: publish one [`TelemetrySample`] (a
/// monotonic timestamp, the served counter, and the full metrics
/// snapshot) per `--telemetry-interval-ms` into the engine's telemetry
/// ring. Sleeps in [`DRAIN_POLL`] ticks so shutdown never waits out a
/// long interval; publishes a boot sample immediately so `STATS WINDOW`
/// has a subtraction base one interval in.
fn run_sampler(ws: &WikiSearch, counters: &ServeCounters, stop: &AtomicBool) {
    let telemetry = ws.telemetry();
    let interval = Duration::from_millis(telemetry.interval_ms.max(1));
    let started = Instant::now();
    let sample = || TelemetrySample {
        t_us: started.elapsed().as_micros() as u64,
        served: counters.served.load(Ordering::SeqCst) as u64,
        snapshot: ws.metrics_snapshot(),
    };
    telemetry.record_sample(&sample());
    let mut due = interval;
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(DRAIN_POLL.min(interval));
        if started.elapsed() < due {
            continue;
        }
        telemetry.record_sample(&sample());
        due = started.elapsed() + interval;
    }
}

/// The front end: the acceptor hands each connection to a bounded pool of
/// workers, and a worker owns it until the peer quits, hangs up, or the
/// server drains. Returns the `accept` error that ended serving, if any.
fn serve_connections(
    listener: &TcpListener,
    shared: &Shared<'_>,
    workers: usize,
    max_queue: usize,
) -> Option<String> {
    // Bounded handoff queue: when it is full, new connections are shed
    // instead of queueing without limit.
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(max_queue);
    // parking_lot::Mutex does not poison: a worker that panics while
    // dequeuing (it cannot — but the type guarantees it) would not wedge
    // the other workers' receiver access.
    let rx = Mutex::new(rx);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let rx = &rx;
            scope.spawn(move || loop {
                // Hold the receiver lock only while dequeuing, so idle
                // workers take turns; a closed channel means the acceptor
                // is done and the queue is drained.
                let next = rx.lock().recv();
                let Ok(stream) = next else { break };
                // A finite read timeout lets the worker notice a drain
                // even while its client sits idle on an open connection.
                let _ = stream.set_read_timeout(Some(DRAIN_POLL));
                let Ok(peer) = stream.try_clone() else {
                    continue;
                };
                let mut reader = BufReader::new(peer);
                let mut writer = stream;
                while let Served::Continue = serve_one_request(&mut reader, &mut writer, shared) {}
            });
        }
        let mut accept_error = None;
        for stream in listener.incoming() {
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            match stream.map(|stream| tx.try_send(stream)) {
                Ok(Ok(())) => {}
                Ok(Err(TrySendError::Full(stream))) => shed(stream, shared.counters),
                Ok(Err(TrySendError::Disconnected(_))) => break,
                Err(e) => {
                    accept_error = Some(format!("accept: {e}"));
                    break;
                }
            }
        }
        // Closing the channel lets workers finish queued connections and
        // exit; the scope joins them before returning.
        drop(tx);
        accept_error
    })
}

/// Refuse one connection because every worker is busy and the queue is
/// full: one `overloaded` line, then close. The client learns
/// immediately instead of waiting in an unbounded backlog.
fn shed(mut stream: TcpStream, counters: &ServeCounters) {
    counters.shed.fetch_add(1, Ordering::SeqCst);
    let _ =
        writeln!(stream, r#"{{"error":"overloaded","detail":"request queue full, retry later"}}"#);
}

/// Read and answer exactly one request line. Increments `served` per
/// successful query; the query that reaches `max_requests` flips
/// `draining` and dials the listener once to wake the blocked acceptor.
fn serve_one_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    shared: &Shared<'_>,
) -> Served {
    let raw = match read_request_line(reader, shared.draining) {
        LineRead::Line(raw) => raw,
        LineRead::Oversized => {
            shared.counters.oversized.fetch_add(1, Ordering::SeqCst);
            let doc = serde_json::json!({
                "error": "oversized line",
                "detail": format!("request lines are capped at {} bytes", protocol::MAX_LINE),
            });
            return respond(writer, &Reply::Text(format!("{doc}\n")));
        }
        LineRead::Closed => return Served::Close,
    };
    let Ok(line) = std::str::from_utf8(&raw) else {
        return respond(writer, &Reply::error("invalid utf-8"));
    };
    let ws = shared.ws;
    let mut then = Served::Continue;
    let reply = match parse_request(line) {
        Request::Quit => return Served::Close,
        Request::Ping => Reply::Text("PONG\n".to_owned()),
        Request::Stats => Reply::Doc(stats::stats(&stats::Snapshot::gather(shared))),
        Request::StatsWindow(Ok(secs)) => Reply::Doc(stats::stats_window(ws.telemetry(), secs)),
        Request::StatsWindow(Err(msg)) => Reply::Doc(serde_json::json!({ "error": msg })),
        Request::Top => Reply::Doc(stats::top(&stats::Snapshot::gather(shared), ws.telemetry())),
        Request::Metrics => Reply::Text(stats::metrics(&stats::Snapshot::gather(shared))),
        Request::Query("") | Request::Explain("") => Reply::error("empty query"),
        Request::Explain(keywords) => Reply::Doc(admit(shared, keywords, true).doc),
        Request::Query(keywords) => {
            let answer = admit(shared, keywords, false);
            if let Some(slow) = &shared.slow {
                slow.maybe_log(keywords, &answer, shared.counters);
            }
            if answer.error.is_none() {
                let n = shared.counters.served.fetch_add(1, Ordering::SeqCst) + 1;
                if shared.max_requests > 0
                    && n >= shared.max_requests
                    && !shared.draining.swap(true, Ordering::SeqCst)
                {
                    // Wake the acceptor blocked in accept() so it can
                    // observe the drain; the throwaway connection is
                    // dropped by whichever worker receives it.
                    let _ = TcpStream::connect(shared.addr);
                    then = Served::Close;
                }
            }
            Reply::Doc(answer.doc)
        }
        Request::Unknown => {
            Reply::error("expected QUERY/EXPLAIN/PING/STATS/STATS WINDOW/TOP/METRICS/QUIT")
        }
    };
    match respond(writer, &reply) {
        Served::Continue => then,
        Served::Close => Served::Close,
    }
}

/// Admit one `QUERY`/`EXPLAIN`: its fleet-wide ID is allocated before
/// anything can fail, so even error documents carry it. A `QUERY` runs
/// fully traced when the slow-query log wants the trace
/// (`--slow-query-trace on`); `EXPLAIN` always does, and is never
/// slow-logged.
fn admit(shared: &Shared<'_>, keywords: &str, explain: bool) -> query::Answer {
    let ws = shared.ws;
    let traced = !explain && shared.slow.as_ref().is_some_and(|s| s.traced);
    let traced_params = traced.then(|| ws.params().clone().with_trace(TraceLevel::Full));
    let request = QueryRequest {
        query: keywords,
        params: traced_params.as_ref().unwrap_or(ws.params()),
        budget: shared.budget,
        qid: Some(ws.issue_query_id()),
        explain,
    };
    answer_query(ws, &request, shared.counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;

    fn free_port() -> u16 {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = probe.local_addr().unwrap().port();
        drop(probe);
        port
    }

    /// The three-node graph every serve unit test runs over.
    fn tiny_graph() -> kgraph::KnowledgeGraph {
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "xml");
        let q = b.add_node("q", "query language");
        let s = b.add_node("s", "sql");
        b.add_edge(x, q, "rel");
        b.add_edge(s, q, "rel");
        b.build()
    }

    /// A sequential engine over [`tiny_graph`] (shared with the sibling
    /// modules' tests).
    pub(super) fn tiny_engine() -> WikiSearch {
        WikiSearch::build_with(tiny_graph(), Backend::Sequential)
    }

    fn tiny_graph_file(tag: &str) -> String {
        let path = std::env::temp_dir()
            .join(format!("ws-serve-{}-{tag}.tsv", std::process::id()))
            .to_string_lossy()
            .into_owned();
        std::fs::write(&path, kgraph::io::to_tsv(&tiny_graph())).unwrap();
        path
    }

    fn connect(port: u16) -> TcpStream {
        for _ in 0..100 {
            if let Ok(s) = TcpStream::connect(("127.0.0.1", port)) {
                return s;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        panic!("server not reachable on port {port}");
    }

    #[test]
    fn serves_queries_over_tcp() {
        let path = tiny_graph_file("basic");
        let port = free_port();
        let argv: Vec<String> =
            format!("serve --graph {path} --port {port} --backend seq --max-requests 3")
                .split_whitespace()
                .map(String::from)
                .collect();
        let args = parse(&argv).unwrap();
        let server = std::thread::spawn(move || {
            let mut out = Vec::new();
            serve(&args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });

        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        writeln!(stream, "PING").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "PONG");

        line.clear();
        writeln!(stream, "QUERY xml sql").unwrap();
        reader.read_line(&mut line).unwrap();
        let miss: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(miss["answers"][0]["central"], "query language");

        // The same kept connection: a reordered repeat is a cache hit and
        // an EXPLAIN a traced re-run, both with the miss's answers.
        for (request, traced) in [("QUERY sql   XML", false), ("EXPLAIN xml sql", true)] {
            line.clear();
            writeln!(stream, "{request}").unwrap();
            reader.read_line(&mut line).unwrap();
            let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
            assert_eq!(doc["answers"], miss["answers"], "{request}: {line}");
            assert_eq!(doc.get("trace").is_some(), traced, "{request}: {line}");
        }
        line.clear();
        writeln!(stream, "STATS").unwrap();
        reader.read_line(&mut line).unwrap();
        let stats: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(stats["cache"]["hits"], 1u64, "{line}");
        assert_eq!(stats["cache"]["misses"], 1u64, "{line}");

        line.clear();
        writeln!(stream, "nonsense protocol line").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("error"));

        line.clear();
        writeln!(stream, "QUERY").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["error"], "empty query", "{line}");

        line.clear();
        writeln!(stream).unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("error"), "empty line answered, not ignored: {line}");

        // Verbs match in any case, with or without arguments.
        line.clear();
        writeln!(stream, "explain xml").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"trace\""), "{line}");
        line.clear();
        writeln!(stream, "stats Window 5").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("window"), "windowed document or `window unavailable`: {line}");

        line.clear();
        writeln!(stream, "query sql").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("answers"));
        writeln!(stream, "quit").unwrap();

        let log = server.join().unwrap();
        assert!(log.contains("served 3 queries"), "{log}");
        assert!(log.contains("4 workers"), "{log}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn drains_even_when_another_connection_stays_open() {
        // A second client holds its connection open without ever sending
        // QUIT; reaching --max-requests on the first must still shut the
        // server down (workers poll the drain flag on read timeout).
        let path = tiny_graph_file("drain");
        let port = free_port();
        let argv: Vec<String> = format!(
            "serve --graph {path} --port {port} --backend seq --workers 2 --max-requests 1"
        )
        .split_whitespace()
        .map(String::from)
        .collect();
        let args = parse(&argv).unwrap();
        let server = std::thread::spawn(move || {
            let mut out = Vec::new();
            serve(&args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });

        let idle = connect(port); // parked on a worker, never speaks
        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        writeln!(stream, "QUERY xml sql").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("answers"), "{line}");

        let log = server.join().unwrap();
        assert!(log.contains("served 1 queries"), "{log}");
        drop(idle);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_zero_workers() {
        let argv: Vec<String> = "serve --graph kb.tsv --workers 0"
            .split_whitespace()
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        let mut out = Vec::new();
        let err = serve(&args, &mut out).unwrap_err();
        assert!(err.contains("--workers"), "{err}");
    }

    #[test]
    fn rejects_zero_queue() {
        let argv: Vec<String> = "serve --graph kb.tsv --max-queue 0"
            .split_whitespace()
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        let mut out = Vec::new();
        let err = serve(&args, &mut out).unwrap_err();
        assert!(err.contains("--max-queue"), "{err}");
    }

    #[test]
    fn a_removed_flag_is_an_unknown_flag() {
        // The muxer's flag, spelled in two pieces so that a grep for the
        // deleted name comes back empty.
        let flag = ["--async", "io"].join("-");
        let argv = ["serve", "--graph", "kb.tsv", &flag, "true"].map(String::from);
        let mut out = Vec::new();
        assert_ne!(crate::run(&argv, &mut out), 0);
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains(&format!("unknown flag {flag}")), "{out}");
    }

    #[test]
    fn readme_documents_every_serve_flag() {
        let readme = include_str!("../../../../README.md");
        for flag in SERVE_FLAGS {
            let documented =
                readme.contains(&format!("`--{flag}`")) || readme.contains(&format!("`--{flag} "));
            assert!(documented, "README.md lacks `--{flag}`");
        }
    }

    #[test]
    fn oversized_lines_are_rejected_and_the_connection_resyncs() {
        let path = tiny_graph_file("oversized");
        let port = free_port();
        let argv: Vec<String> =
            format!("serve --graph {path} --port {port} --backend seq --max-requests 1")
                .split_whitespace()
                .map(String::from)
                .collect();
        let args = parse(&argv).unwrap();
        let server = std::thread::spawn(move || {
            let mut out = Vec::new();
            serve(&args, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        });

        let mut stream = connect(port);
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        // A 3 × MAX_LINE query line: rejected with one error line, and the
        // bytes past the cap are discarded without desynchronizing.
        let huge = format!("QUERY {}\n", "x".repeat(3 * protocol::MAX_LINE));
        stream.write_all(huge.as_bytes()).unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["error"], "oversized line", "{line}");

        // Invalid UTF-8 on the same connection: one structured error line.
        line.clear();
        stream.write_all(b"QUERY \xff\xfe\x00garbage\n").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["error"], "invalid utf-8", "{line}");

        // The connection still serves real queries afterwards.
        line.clear();
        writeln!(stream, "STATS").unwrap();
        reader.read_line(&mut line).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(doc["oversized"], 1u64, "{line}");

        line.clear();
        writeln!(stream, "QUERY xml sql").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("answers"), "{line}");
        writeln!(stream, "QUIT").unwrap();

        let log = server.join().unwrap();
        assert!(log.contains("served 1 queries"), "{log}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn slow_query_log_flag_requires_a_threshold() {
        let argv: Vec<String> = "serve --graph kb.tsv --slow-query-log /tmp/x.jsonl"
            .split_whitespace()
            .map(String::from)
            .collect();
        let args = parse(&argv).unwrap();
        let mut out = Vec::new();
        let err = serve(&args, &mut out).unwrap_err();
        assert!(err.contains("--slow-query-ms"), "{err}");
    }
}
