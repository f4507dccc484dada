//! `wikisearch serve` — a line-protocol TCP query service, the offline
//! analogue of the paper's hosted WikiSearch endpoint.
//!
//! This module is start-up (flags, engine wiring) and the one connection
//! front end: an acceptor and a worker pool around `serve_one_request`.
//! The wire grammar, the line reader and the socket writer are in
//! `protocol`; `QUERY`/`EXPLAIN` answering, query IDs and the slow-query
//! log in `query`; the metric table behind `STATS` and `METRICS` in
//! `stats`.
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
//! * **Bounded request lines** — see `protocol`.
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
//! queries never populate it. `EXPLAIN`, the one traced verb, runs with
//! `params.trace` set, and the engine never answers a traced request
//! from the cache, so every trace on the wire describes a live search.
//!
//! `serve` runs `--backend seq` or `cpu`: `gpu` and `dyn` are the
//! paper's comparison engines, never faster than `cpu` on the perf
//! ledger's probe (DESIGN.md, *The backend × shape lattice*), and are
//! refused at start-up.
//!
//! ## Sharded serving: remote shard workers
//!
//! One process serves one graph. Sharding exists for a graph that does
//! not fit one machine, so it is across processes only: `--shards`
//! accepts nothing but its default `1`.
//!
//! `--shard-workers N` forks `N` supervised `wikisearch shard-worker`
//! processes over the same dataset and answers every query through the
//! fault-tolerant remote coordinator (`central::remote`):
//! per-RPC deadlines from the query budget, bounded retry with
//! exponential backoff, a per-shard circuit breaker that queries open and
//! re-close, and automatic respawn of dead workers. `--shard-addr
//! a,b,…` instead attaches to externally managed workers (no
//! supervision). When a shard stays unreachable past its retry budget a
//! query is refused with `{"error":"shard_unavailable"}` — unless
//! `--degraded-answers true`, in which case the reachable shards answer
//! best-effort and the response is marked `"degraded": true` (degraded
//! answers never populate the cache). `--rpc-timeout-ms` and
//! `--rpc-retries` tune the supervision knobs.
//! `STATS` gains a `remote` object and `METRICS` gains `ws_remote_*`
//! series while remote serving is on.

mod protocol;
mod query;
mod stats;

use crate::args::ParsedArgs;
use central::{QueryBudget, RemoteOptions, SearchParams, StaticAddrs};
use parking_lot::Mutex;
use protocol::{parse_request, read_request_line, respond, LineRead, Reply, Request, Served};
use query::{answer_query, SlowLog};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wikisearch_engine::{Backend, QueryRequest, WikiSearch};

/// How often a blocked worker wakes up to check for drain.
const DRAIN_POLL: Duration = Duration::from_millis(50);

/// The largest `--max-queue`. The hand-off channel allocates every slot
/// when it is built, 16 bytes each, so the cap holds it to 1 MiB.
const MAX_QUEUE: usize = 65_536;

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
    // Accepts only `1`: kept because the perf ledger's reference server
    // passes `--shards 1`.
    "shards",
    "shard-workers",
    "shard-addr",
    "degraded-answers",
    "rpc-timeout-ms",
    "rpc-retries",
];

/// Run the server until `max_requests` queries have been answered (or
/// forever when it is 0).
pub fn serve(args: &ParsedArgs, out: &mut dyn Write) -> Result<(), String> {
    args.allow_only(SERVE_FLAGS)?;
    let port: u16 = args.get_or("port", 7878)?;
    let threads: usize = args.get_or("threads", 4)?;
    if args.get_or("shards", 1usize)? != 1 {
        return Err("--shards accepts only 1: one process serves one graph; \
                    shard it across processes with --shard-workers N"
            .into());
    }
    let max_requests: usize = args.get_or("max-requests", 0)?;
    let workers: usize = args.get_or("workers", 4)?;
    let cache_capacity = args.get_bytes("cache-capacity", 64 << 20)?;
    let max_queue: usize = args.get_or("max-queue", 64)?;
    let slow_query_ms: u64 = args.get_or("slow-query-ms", 0)?;
    let shard_workers: usize = args.get_or("shard-workers", 0)?;
    let shard_addr = args.optional("shard-addr");
    let degraded_answers: bool = args.get_or("degraded-answers", false)?;
    let rpc_timeout_ms: u64 = args.get_or("rpc-timeout-ms", 5000)?;
    let rpc_retries: u32 = args.get_or("rpc-retries", 3)?;
    // Every worker thread is started, and every queue slot allocated,
    // before the first connection is accepted.
    let caps = [
        ("workers", workers, central::remote::MAX_THREADS),
        ("max-queue", max_queue, MAX_QUEUE),
    ];
    for (flag, value, max) in caps {
        if value == 0 {
            return Err(format!("--{flag} must be >= 1"));
        }
        if value > max {
            return Err(format!("--{flag} must be <= {max}"));
        }
    }
    if slow_query_ms == 0 && args.optional("slow-query-log").is_some() {
        return Err("--slow-query-log requires --slow-query-ms N (N >= 1)".into());
    }
    let remote = shard_workers > 0 || shard_addr.is_some();
    if shard_workers > 0 && shard_addr.is_some() {
        return Err("--shard-workers and --shard-addr are mutually exclusive".into());
    }
    if !remote {
        for flag in ["degraded-answers", "rpc-timeout-ms", "rpc-retries"] {
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
        Some(SlowLog::open(path, slow_query_ms)?)
    } else {
        None
    };
    let budget = crate::commands::budget_from_args(args)?;
    let backend_name = args.optional("backend").unwrap_or("cpu");
    let backend = Backend::parse(backend_name, threads)?;
    backend.sharded()?;
    let mut ws = crate::commands::open_engine(args, backend)?;
    let mut params = ws.params().clone();
    params.top_k = args.get_or("top-k", params.top_k)?;
    params.validate()?;
    ws.set_params(params);
    ws.set_cache_capacity(cache_capacity);
    let remote_opts = RemoteOptions {
        rpc_timeout: Duration::from_millis(rpc_timeout_ms),
        attempts: rpc_retries,
        degraded_answers,
    };
    let supervisor = if shard_workers > 0 {
        let (path, mmap) = crate::commands::graph_source(args)?;
        let flag = if mmap { "--mmap" } else { "--graph" };
        let source = (flag.to_string(), path.to_string());
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
        String::new()
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
            ws.num_remote_shards().unwrap_or(1),
            ws.is_memory_mapped()
        ),
        started: Instant::now(),
    };
    if let Some(e) = serve_connections(&listener, &shared, workers, max_queue) {
        return Err(e);
    }
    writeln!(out, "served {} queries, shutting down", counters.served.load(Ordering::SeqCst))
        .map_err(|e| e.to_string())
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
        Request::Metrics => Reply::Text(stats::metrics(&stats::Snapshot::gather(shared))),
        Request::Query("") | Request::Explain("") => Reply::error("empty query"),
        Request::Explain(keywords) => {
            let traced = ws.params().clone().with_trace(true);
            Reply::Doc(admit(shared, keywords, &traced).doc)
        }
        Request::Query(keywords) => {
            let answer = admit(shared, keywords, ws.params());
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
        Request::Unknown => Reply::error(protocol::UNKNOWN_VERB),
    };
    match respond(writer, &reply) {
        Served::Continue => then,
        Served::Close => Served::Close,
    }
}

/// Admit one `QUERY`/`EXPLAIN` under `params`: its fleet-wide ID is
/// allocated before anything can fail, so even error documents carry it.
/// Only `EXPLAIN` runs traced, and it is never slow-logged.
fn admit(shared: &Shared<'_>, keywords: &str, params: &SearchParams) -> query::Answer {
    let ws = shared.ws;
    let request = QueryRequest {
        query: keywords,
        params,
        budget: shared.budget,
        qid: Some(ws.issue_query_id()),
    };
    answer_query(ws, &request, shared.counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc::RecvTimeoutError;

    /// How long a test server may take to print its banner, or to drain.
    const PATIENCE: Duration = Duration::from_secs(30);

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

    /// Run the CLI in process on one command line.
    fn run_line(line: &str) -> (i32, String) {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        let code = crate::run(&argv, &mut out);
        (code, String::from_utf8(out).unwrap())
    }

    /// What an in-process `crate::run` prints, forwarded line by line.
    struct Lines(mpsc::Sender<String>, Vec<u8>);

    impl Write for Lines {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.1.extend_from_slice(buf);
            while let Some(end) = self.1.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.1.drain(..=end).collect();
                let _ = self.0.send(String::from_utf8(line).unwrap());
            }
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A server running on a thread of the test, on the port its banner
    /// names.
    struct Booted {
        port: u16,
        /// The banner, and once drained every line printed after it.
        log: String,
        lines: mpsc::Receiver<String>,
        thread: std::thread::JoinHandle<i32>,
    }

    impl Booted {
        /// Run `wikisearch <line> --port 0` and wait for its banner; any
        /// other first line (an `error:`, or none) fails the test.
        fn start(line: &str) -> Booted {
            let argv: Vec<String> =
                format!("{line} --port 0").split_whitespace().map(String::from).collect();
            let (tx, lines) = mpsc::channel();
            let thread = std::thread::spawn(move || crate::run(&argv, &mut Lines(tx, Vec::new())));
            let log = lines.recv_timeout(PATIENCE).unwrap_or_default();
            let port = log
                .strip_prefix("wikisearch serving on 127.0.0.1:")
                .and_then(|rest| rest.split(' ').next()?.parse().ok())
                .unwrap_or_else(|| panic!("the server did not start: {log:?}"));
            Booted { port, log, lines, thread }
        }

        fn connect(&self) -> Client {
            let stream = TcpStream::connect(("127.0.0.1", self.port)).unwrap();
            Client { reader: BufReader::new(stream.try_clone().unwrap()), stream }
        }

        /// Wait for the server to drain (`--max-requests`): its exit code
        /// and its log.
        fn drain(mut self) -> (i32, String) {
            let deadline = Instant::now() + PATIENCE;
            loop {
                match self.lines.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(line) => self.log.push_str(&line),
                    Err(RecvTimeoutError::Timeout) => panic!("no drain: {}", self.log),
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            (self.thread.join().unwrap(), self.log)
        }
    }

    struct Client {
        stream: TcpStream,
        reader: BufReader<TcpStream>,
    }

    impl Client {
        /// Send one request line as one segment: a line and its newline
        /// written apart wait out the peer's delayed ACK.
        fn send(&mut self, line: impl AsRef<[u8]>) {
            let mut bytes = line.as_ref().to_vec();
            bytes.push(b'\n');
            self.stream.write_all(&bytes).unwrap();
        }

        /// Send one request and read its one reply line.
        fn request(&mut self, line: impl AsRef<[u8]>) -> String {
            self.send(line);
            let mut reply = String::new();
            self.reader.read_line(&mut reply).unwrap();
            reply
        }

        fn json(&mut self, line: impl AsRef<[u8]>) -> serde_json::Value {
            let reply = self.request(line);
            serde_json::from_str(&reply).unwrap_or_else(|e| panic!("{e}: {reply:?}"))
        }
    }

    #[test]
    fn serves_queries_over_tcp() {
        let path = tiny_graph_file("basic");
        let server = Booted::start(&format!("serve --graph {path} --backend seq --max-requests 3"));
        let mut c = server.connect();
        assert_eq!(c.request("PING").trim(), "PONG");
        let miss = c.json("QUERY xml sql");
        assert_eq!(miss["answers"][0]["central"], "query language");

        // The same kept connection: a reordered repeat is a cache hit and
        // an EXPLAIN a live traced re-run, both with the miss's answers.
        for (request, traced) in [("QUERY sql   XML", false), ("EXPLAIN xml sql", true)] {
            let doc = c.json(request);
            assert_eq!(doc["answers"], miss["answers"], "{request}: {doc}");
            let levels = doc.get("trace").map(|t| t["levels"].as_array().unwrap().len());
            assert_eq!(levels.is_some_and(|n| n > 0), traced, "{request}: {doc}");
        }
        let stats = c.json("STATS");
        assert_eq!(stats["cache"]["hits"], 1u64, "{stats}");
        assert_eq!(stats["cache"]["misses"], 1u64, "{stats}");

        assert!(c.request("nonsense protocol line").contains("error"));
        assert_eq!(c.json("QUERY")["error"], "empty query");
        let line = c.request("");
        assert!(line.contains("error"), "empty line answered, not ignored: {line}");

        // Verbs match in any case; `STATS` takes no argument.
        let line = c.request("explain xml");
        assert!(line.contains("\"trace\""), "{line}");
        assert_eq!(c.json("stats Window 5")["error"], protocol::UNKNOWN_VERB);
        assert!(c.request("query sql").contains("answers"));
        c.send("quit");

        let (code, log) = server.drain();
        assert_eq!(code, 0, "{log}");
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
        let server = Booted::start(&format!(
            "serve --graph {path} --backend seq --workers 2 --max-requests 1"
        ));
        let idle = server.connect(); // parked on a worker, never speaks
        let line = server.connect().request("QUERY xml sql");
        assert!(line.contains("answers"), "{line}");

        let (code, log) = server.drain();
        assert_eq!(code, 0, "{log}");
        assert!(log.contains("served 1 queries"), "{log}");
        drop(idle);
        let _ = std::fs::remove_file(path);
    }

    /// `--workers` is refused at 0 and above the thread cap `--threads`
    /// has: every worker thread starts before the first accept.
    #[test]
    fn rejects_zero_workers() {
        for workers in [0, central::remote::MAX_THREADS + 1] {
            let (code, out) = run_line(&format!("serve --graph kb.tsv --workers {workers}"));
            assert_eq!(code, 1, "{out}");
            assert!(out.contains("error: --workers must be"), "{out}");
        }
    }

    /// `--max-queue` is refused at 0 and above [`MAX_QUEUE`]: the
    /// hand-off channel allocates every slot when it is built.
    #[test]
    fn rejects_zero_queue() {
        for queue in [0, MAX_QUEUE + 1] {
            let (code, out) = run_line(&format!("serve --graph kb.tsv --max-queue {queue}"));
            assert_eq!(code, 1, "{out}");
            assert!(out.contains("error: --max-queue must be"), "{out}");
        }
    }

    #[test]
    fn a_removed_flag_is_an_unknown_flag() {
        // The muxer's flag, the background prober's, the slow log's
        // tracing switch and the windowed sampler's cadence, each spelled
        // in pieces so that a grep for the deleted name comes back empty.
        let flags = [
            (["--async", "io"].join("-"), "true"),
            (["--heart", "beat-ms"].concat(), "50"),
            (["--slow-query", "trace"].join("-"), "on"),
            (["--telemetry", "interval-ms"].join("-"), "1000"),
        ];
        for (flag, value) in flags {
            let (code, out) = run_line(&format!("serve --graph kb.tsv {flag} {value}"));
            assert_eq!(code, 1, "{out}");
            assert!(out.contains(&format!("unknown flag {flag}")), "{out}");
        }
    }

    /// The `--shards` contract: `serve` refuses any count but 1, naming
    /// the worker link; `search` has no such flag; and the perf ledger's
    /// reference server — `--backend seq --shards 1 --cache-capacity 0
    /// --workers 2`, the one command line that still passes the flag —
    /// boots and answers.
    #[test]
    fn shards_accepts_only_one() {
        let path = tiny_graph_file("shards");
        for n in [0, 2] {
            let (code, out) = run_line(&format!("serve --graph {path} --port 0 --shards {n}"));
            assert_eq!(code, 1, "{out}");
            assert!(out.contains("--shard-workers N"), "{out}");
        }
        let (code, out) = run_line(&format!("search --graph {path} --query xml --shards 2"));
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("unknown flag --shards"), "{out}");

        let server = Booted::start(&format!(
            "serve --graph {path} --backend seq --shards 1 --cache-capacity 0 --workers 2 \
             --max-requests 1"
        ));
        let doc = server.connect().json("QUERY xml sql");
        assert_eq!(doc["answers"][0]["central"], "query language", "{doc}");
        let (code, log) = server.drain();
        assert_eq!(code, 0, "{log}");
        assert!(log.contains("served 1 queries"), "{log}");
        let _ = std::fs::remove_file(path);
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

    /// README's protocol sentence and HELP's `verbs:` list name exactly
    /// the verbs of the unknown-verb reply, in its order, and
    /// [`parse_request`] accepts each of them — so a deleted verb cannot
    /// linger in the docs.
    #[test]
    fn docs_name_exactly_the_verbs_the_server_accepts() {
        // The all-capital words between `from` and `to`, parentheses
        // skipped.
        fn verbs_in(text: &str, from: &str, to: &str) -> Vec<String> {
            let start = text.find(from).unwrap_or_else(|| panic!("no {from:?}")) + from.len();
            let end = start + text[start..].find(to).unwrap_or_else(|| panic!("no {to:?}"));
            let mut depth = 0;
            let outside: String = text[start..end]
                .chars()
                .filter(|&c| {
                    depth += i32::from(c == '(') - i32::from(c == ')');
                    depth == 0 && c != ')'
                })
                .collect();
            outside
                .split(|c: char| !c.is_ascii_alphabetic())
                .filter(|w| w.len() > 1 && w.chars().all(|c| c.is_ascii_uppercase()))
                .map(String::from)
                .collect()
        }
        let accepted: Vec<&str> =
            protocol::UNKNOWN_VERB.strip_prefix("expected ").unwrap().split('/').collect();
        for verb in &accepted {
            assert_ne!(parse_request(verb), Request::Unknown, "{verb}");
        }
        let readme = include_str!("../../../../README.md");
        let documents = [
            (
                "README.md",
                verbs_in(readme, "one line in, one line out", "and the verbs match"),
            ),
            ("HELP", verbs_in(crate::commands::HELP, "verbs:", "; every")),
        ];
        for (doc, verbs) in documents {
            assert_eq!(verbs, accepted, "{doc} names other verbs than the server accepts");
        }
    }

    #[test]
    fn oversized_lines_are_rejected_and_the_connection_resyncs() {
        let path = tiny_graph_file("oversized");
        let server = Booted::start(&format!("serve --graph {path} --backend seq --max-requests 1"));
        let mut c = server.connect();

        // A 3 × MAX_LINE query line: rejected with one error line, and the
        // bytes past the cap are discarded without desynchronizing.
        let doc = c.json(format!("QUERY {}", "x".repeat(3 * protocol::MAX_LINE)));
        assert_eq!(doc["error"], "oversized line", "{doc}");

        // Invalid UTF-8 on the same connection: one structured error line.
        let doc = c.json(b"QUERY \xff\xfe\x00garbage");
        assert_eq!(doc["error"], "invalid utf-8", "{doc}");

        // The connection still serves real queries afterwards.
        let doc = c.json("STATS");
        assert_eq!(doc["oversized"], 1u64, "{doc}");
        let line = c.request("QUERY xml sql");
        assert!(line.contains("answers"), "{line}");
        c.send("QUIT");

        let (code, log) = server.drain();
        assert_eq!(code, 0, "{log}");
        assert!(log.contains("served 1 queries"), "{log}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn slow_query_log_flag_requires_a_threshold() {
        let (code, out) = run_line("serve --graph kb.tsv --slow-query-log /tmp/x.jsonl");
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("--slow-query-ms"), "{out}");
    }

    /// Invalid search parameters are a start-up error, as in `search`: a
    /// server that booted with `--top-k 0` would panic on every keyword
    /// query. The wait is bounded so that a server which boots anyway
    /// fails the test instead of hanging it.
    #[test]
    fn rejects_invalid_search_params_before_binding() {
        let path = tiny_graph_file("top-k");
        let line = format!("serve --graph {path} --port 0 --top-k 0");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(run_line(&line)));
        let verdict = rx.recv_timeout(PATIENCE);
        let _ = std::fs::remove_file(path);
        let (code, out) = verdict.expect("serve --top-k 0 booted instead of exiting");
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("error: top_k must be >= 1"), "{out}");
    }
}
