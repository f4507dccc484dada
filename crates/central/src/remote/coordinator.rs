//! The shard coordinator: [`ShardCoordinator`] drives `N` shard lanes
//! through the level-synchronous round protocol of [`crate::shard`] — a
//! [`crate::bottom_up::LevelOps`] shape under the one
//! [`crate::bottom_up::drive`] loop, two sweeps of shard RPCs per level
//! (`Step`, `Expand`) between a `Start` and a `Collect` — behind one
//! `try_search` seam, so the result cache, budgets, tracing and the
//! top-down extractor all run unchanged above it. A channel's link to its
//! lane has two members: an owned in-process lane over a part of a
//! [`ShardPlan`] cut here ([`ShardCoordinator::in_process`]), stepped with
//! typed messages and no socket, or a TCP stream to a shard-worker process
//! ([`ShardCoordinator::remote`]). Everything above the link is the same
//! code, which is what lets the differential suites pin both
//! byte-identical to the solo engines.
//!
//! ## Supervision
//!
//! Every worker interaction goes through three defensive layers (an
//! in-process lane cannot fail them, and passes through them all the
//! same):
//!
//! * **per-RPC deadlines** — each socket read/write is capped at
//!   [`RemoteOptions::rpc_timeout`], further clamped by the query's own
//!   wall-clock budget, so a stalled worker costs bounded time;
//! * **bounded whole-query retry** — a query whose shard RPC fails is
//!   retried from the top (the protocol is idempotent: `Start` re-arms
//!   every worker's state) with exponential backoff + deterministic
//!   jitter, up to [`RemoteOptions::attempts`] failures per shard, all
//!   charged against the *same* budget tracker: the budget bounds total
//!   work including recovery;
//! * **a per-shard circuit breaker** ([`super::breaker`]) fed only by
//!   *confirmed* worker failures: when a query RPC fails, the worker is
//!   probed out-of-band first, and a surviving probe attributes the
//!   failure to the query itself — a fault-injecting query can therefore
//!   never open the breaker and shed its well-behaved neighbours.
//!
//! ## Degradation
//!
//! When a shard stays unreachable past its retry budget the policy knob
//! [`RemoteOptions::degraded_answers`] decides: shed the query with a
//! structured [`SearchError::ShardUnavailable`] (default), or serve a
//! best-effort answer from the live shards with the explicit `degraded`
//! marker set ([`ShardedOutcome::degraded`]) — never silently wrong. A
//! degraded search skips the dead shards in every phase and lets the live
//! shards' halo replicas stand in for the dead owners' rows during
//! collection (replicas are exact by the round-boundary sync invariant;
//! only expansions that had to run *inside* the dead shard are lost).

use super::breaker::{BreakerState, CircuitBreaker};
use super::frame::write_frame;
use super::wire::{self, Request, Response};
use super::worker::{expect_frame, Arrival, Conn, ShardWorker};
use crate::bottom_up::{self, LevelOps, LevelRun, PreFlight};
use crate::budget::{BudgetTracker, QueryBudget};
use crate::engine::SearchOutcome;
use crate::error::SearchError;
use crate::metrics::{HistogramSnapshot, LogHistogram};
use crate::pool::SessionPool;
use crate::session::SearchSession;
use crate::shard::{
    ExchangeCounters, ShardBackend, ShardPlan, ShardedStats, DEFAULT_PARTITION_SEED,
};
use crate::state::HitBlock;
use crate::top_down;
use crate::trace::{ShardSpan, ShardTimeline};
use crate::SearchParams;
use kgraph::KnowledgeGraph;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Address directory of the worker fleet. The coordinator re-reads it on
/// every dial, so a supervisor can move a respawned worker to a new port;
/// bumping [`ShardAddrs::generation`] invalidates pooled connections to
/// the old incarnation.
pub trait ShardAddrs: Send + Sync {
    /// Current address of `shard`'s worker, or `None` while it is down.
    fn addr(&self, shard: usize) -> Option<SocketAddr>;
    /// Incarnation counter of `shard`'s worker. Connections remember the
    /// generation they were dialed under and are discarded when it moves.
    fn generation(&self, _shard: usize) -> u64 {
        0
    }
}

/// A fixed address per shard — external workers that never move.
pub struct StaticAddrs(pub Vec<SocketAddr>);

impl ShardAddrs for StaticAddrs {
    fn addr(&self, shard: usize) -> Option<SocketAddr> {
        self.0.get(shard).copied()
    }
}

/// Supervision and degradation knobs of a [`ShardCoordinator`] over
/// remote workers.
#[derive(Clone, Copy, Debug)]
pub struct RemoteOptions {
    /// Cap on each RPC's socket read/write (further clamped by the
    /// query's wall-clock budget).
    pub rpc_timeout: Duration,
    /// Cap on establishing a worker connection.
    pub connect_timeout: Duration,
    /// Confirmed failures per shard before a query gives up on it.
    pub attempts: u32,
    /// First retry backoff; doubles per failure.
    pub backoff_base: Duration,
    /// Upper bound on the backoff.
    pub backoff_cap: Duration,
    /// Consecutive confirmed failures that open the breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker sheds before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Interval of the background health-probe thread; `None` disables
    /// it (deterministic tests drive probes through queries instead).
    pub heartbeat: Option<Duration>,
    /// `true`: serve best-effort answers from live shards (marked
    /// `degraded`); `false`: shed with `shard_unavailable`.
    pub degraded_answers: bool,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions {
            rpc_timeout: Duration::from_secs(5),
            connect_timeout: Duration::from_secs(1),
            attempts: 3,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            heartbeat: Some(Duration::from_secs(1)),
            degraded_answers: false,
        }
    }
}

/// A successful sharded search: the outcome plus the explicit degradation
/// marker the wire protocol surfaces.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The search outcome, byte-identical to the solo engines' when no
    /// shard was lost.
    pub outcome: SearchOutcome,
    /// `true` iff at least one shard was skipped — the answer is
    /// best-effort and explicitly marked so, never silently wrong.
    pub degraded: bool,
}

/// Monitoring snapshot of a [`ShardCoordinator`] over remote workers
/// (STATS `remote` block).
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct RemoteStats {
    /// Shard count and the boundary-exchange counters — all there is to
    /// monitor of an in-process fleet (`STATS` `shards` block).
    pub exchange: ShardedStats,
    /// RPCs issued (all kinds, including handshakes and probes).
    pub rpcs: u64,
    /// Worker dials (fresh connections, including respawn re-dials).
    pub dials: u64,
    /// Whole-query retries after a shard RPC failure.
    pub retries: u64,
    /// Out-of-band health probes sent (failure attribution + heartbeat).
    pub probes: u64,
    /// Probes that failed (confirmed worker failures).
    pub probe_failures: u64,
    /// Times a breaker transitioned to open.
    pub breaker_opens: u64,
    /// Queries answered degraded (at least one shard skipped).
    pub degraded_queries: u64,
    /// Current breaker state per shard (`closed` / `open` / `half_open`).
    pub breaker: Vec<String>,
    /// RPC latency distribution, microseconds.
    pub rpc_latency_us: HistogramSnapshot,
}

#[derive(Default)]
struct RemoteCounters {
    rpcs: AtomicU64,
    dials: AtomicU64,
    retries: AtomicU64,
    probes: AtomicU64,
    probe_failures: AtomicU64,
    breaker_opens: AtomicU64,
    degraded_queries: AtomicU64,
    exchange: ExchangeCounters,
    /// Nonce of the deterministic backoff jitter.
    jitter_nonce: AtomicU64,
}

/// Where the fleet's lanes live.
#[derive(Clone)]
enum Fleet {
    /// In this process: one worker per part of the plan cut at
    /// construction, stepped through owned lanes.
    InProcess(Vec<Arc<ShardWorker>>),
    /// In worker processes, reached over TCP at these addresses.
    Remote(Arc<dyn ShardAddrs>),
}

/// State shared with the heartbeat thread.
struct Core {
    shards: usize,
    seed: u64,
    num_nodes: u64,
    fleet: Fleet,
    opts: RemoteOptions,
    breakers: Vec<CircuitBreaker>,
    counters: RemoteCounters,
    latency: LogHistogram,
    /// The fault schedule of the supervision tests.
    #[cfg(test)]
    script: tests::Script,
}

/// How a channel reaches its lane.
enum Link {
    /// A connection to a shard-worker process: requests and replies are
    /// framed JSON, reads and writes carry the RPC deadline.
    Tcp(TcpStream),
    /// A lane owned by the channel: the handler is called with the typed
    /// request — no JSON, no socket, nothing to time out.
    InProcess(Box<Conn>),
}

/// One pooled lane of a shard, tagged with the address generation it was
/// dialed under.
struct Channel {
    link: Link,
    generation: u64,
}

/// One request on its way to a fleet's lanes: typed for in-process links,
/// and for TCP links also encoded, once, by whoever sends it.
struct Outgoing<'a> {
    request: &'a Request,
    frame: Option<(u8, Vec<u8>)>,
}

/// What came back from a lane: an in-process lane's typed reply, or a TCP
/// reply's frame — decoded by whoever asked rather than by the thread that
/// waited for it, so that a sweep's pool threads allocate nothing but the
/// frame (a second and third malloc arena full of JSON trees was a quarter
/// of a small server's resident set).
enum Reply {
    Typed(Response),
    Frame(u8, Vec<u8>),
}

impl Reply {
    /// The typed reply; a worker's error, an unknown opcode and a
    /// mismatched payload are all `InvalidData`.
    fn decode(self) -> io::Result<Response> {
        match self {
            Reply::Typed(response) => Ok(response),
            Reply::Frame(opcode, payload) => {
                Response::decode(opcode, &payload).map_err(invalid_data)
            }
        }
    }
}

fn invalid_data(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

impl Core {
    /// `request`, ready to go out on this fleet's links.
    fn outgoing<'a>(&self, request: &'a Request) -> Outgoing<'a> {
        let remote = matches!(self.fleet, Fleet::Remote(_));
        Outgoing { request, frame: remote.then(|| request.encode()) }
    }

    /// One RPC on an established channel: hand the lane the request (over
    /// TCP: write its frame, read the reply's) and return what came back.
    fn exchange(
        &self,
        chan: &mut Channel,
        out: &Outgoing<'_>,
        timeout: Duration,
    ) -> io::Result<Reply> {
        let t = Instant::now();
        let reply =
            match (&mut chan.link, &out.frame) {
                (Link::Tcp(stream), Some((opcode, payload))) => {
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    write_frame(stream, *opcode, payload)?;
                    let (opcode, payload) = expect_frame(stream)?;
                    Reply::Frame(opcode, payload)
                }
                (Link::InProcess(conn), _) => {
                    #[cfg(test)]
                    self.script.next_rpc(conn.shard())?;
                    let handled = conn.handle(out.request, Arrival::default());
                    Reply::Typed(handled.map_err(|e| {
                        invalid_data(format!("worker error {}: {}", e.code, e.message))
                    })?)
                }
                (Link::Tcp(_), None) => unreachable!("a remote fleet's requests go out encoded"),
            };
        self.counters.rpcs.fetch_add(1, Ordering::Relaxed);
        self.latency.record(t.elapsed().as_micros() as u64);
        Ok(reply)
    }

    /// [`Core::exchange`] one request and decode the reply.
    fn call(&self, chan: &mut Channel, request: &Request) -> io::Result<Response> {
        self.exchange(chan, &self.outgoing(request), self.opts.rpc_timeout)?.decode()
    }

    /// Incarnation of `shard`'s lanes; an in-process fleet has only one.
    fn generation(&self, shard: usize) -> u64 {
        match &self.fleet {
            Fleet::InProcess(_) => 0,
            Fleet::Remote(addrs) => addrs.generation(shard),
        }
    }

    /// A fresh channel to `shard`: a new lane of its in-process worker, or
    /// a dialed and handshaken connection to its worker process.
    fn dial(&self, shard: usize) -> io::Result<Channel> {
        let generation = self.generation(shard);
        let addrs = match &self.fleet {
            Fleet::InProcess(workers) => {
                let conn = Conn::new(Arc::clone(&workers[shard]), true);
                return Ok(Channel { link: Link::InProcess(Box::new(conn)), generation });
            }
            Fleet::Remote(addrs) => addrs,
        };
        let addr = addrs.addr(shard).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no address for shard {shard}"))
        })?;
        let stream = TcpStream::connect_timeout(&addr, self.opts.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        let mut chan = Channel { link: Link::Tcp(stream), generation };
        // The handshake this fleet must agree to.
        let hello = Request::Hello(wire::Hello {
            version: wire::PROTOCOL_VERSION,
            shards: self.shards as u32,
            shard_index: shard as u32,
            num_nodes: self.num_nodes,
            seed: self.seed,
        });
        match self.call(&mut chan, &hello)? {
            Response::HelloOk(ok)
                if (ok.shard_index, ok.version) == (shard as u32, wire::PROTOCOL_VERSION) =>
            {
                Ok(chan)
            }
            other => Err(invalid_data(format!(
                "dialed shard {shard} at protocol {}, worker answered {other:?}",
                wire::PROTOCOL_VERSION
            ))),
        }
    }

    /// Out-of-band health probe: fresh dial + ping. Returns the probed
    /// channel on success so it can be pooled.
    fn probe(&self, shard: usize) -> Option<Channel> {
        self.counters.probes.fetch_add(1, Ordering::Relaxed);
        let attempt = || -> io::Result<Channel> {
            let mut chan = self.dial(shard)?;
            match self.call(&mut chan, &Request::Ping)? {
                Response::Pong => Ok(chan),
                other => Err(invalid_data(format!("pinged, worker answered {other:?}"))),
            }
        };
        match attempt() {
            Ok(chan) => Some(chan),
            Err(_) => {
                self.counters.probe_failures.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record a confirmed worker failure on the breaker, counting
    /// open transitions.
    fn confirmed_failure(&self, shard: usize) {
        let was_open = self.breakers[shard].state() == BreakerState::Open;
        self.breakers[shard].record_failure(self.opts.breaker_threshold);
        if !was_open && self.breakers[shard].state() == BreakerState::Open {
            self.counters.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Deterministic backoff jitter in `[0, base)` — splitmix64 over a
    /// process-local nonce, no RNG dependency.
    fn jitter(&self, base: Duration) -> Duration {
        let nonce = self.counters.jitter_nonce.fetch_add(1, Ordering::Relaxed);
        let x = crate::shard::splitmix64(nonce);
        base.mul_f64((x % 1000) as f64 / 2000.0) // 0 – 50 % of base
    }
}

/// Scatter-gather coordinator over the `N` shards of the deterministic
/// edge-cut partition: scatters a query to all shards, drives the round
/// protocol, and merges the shards' rows into the monolithic top-(k,d)
/// answer set. See [`crate::shard`] for the protocol and its identity
/// argument, and the module docs for the two links.
pub struct ShardCoordinator {
    core: Arc<Core>,
    backend: ShardBackend,
    name: String,
    /// Per-shard channel freelist.
    channels: Vec<Mutex<Vec<Channel>>>,
    /// Steps the live lanes of a sweep concurrently (an in-process lane
    /// expands on the thread that steps it) and runs the top-down stage:
    /// `max(backend threads, shards)` workers.
    compute: rayon::ThreadPool,
    /// The sessions whose activation table and top-down scratch serve the
    /// stage, which runs here, over the global graph and the collected
    /// rows; their matrix state is never armed.
    pub(crate) stage: SessionPool,
    heartbeat_stop: Arc<AtomicBool>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

/// One worker per part of `graph`'s `shards`-way plan under the default
/// seed.
fn in_process_fleet(graph: &KnowledgeGraph, shards: usize) -> Fleet {
    let plan = ShardPlan::build(graph, shards, DEFAULT_PARTITION_SEED);
    let workers = plan.parts.into_iter().enumerate().map(|(index, part)| {
        Arc::new(ShardWorker::over(part, graph.num_nodes(), shards, index, plan.seed))
    });
    Fleet::InProcess(workers.collect())
}

/// Why one query attempt stopped.
enum AttemptError {
    /// The query's own budget tripped: surfaces directly.
    Budget(SearchError),
    /// A shard RPC failed: retry / degrade / shed.
    ShardIo { shard: usize },
    /// A shard's breaker refused admission: degrade / shed, no probe.
    ShardShed { shard: usize },
}

impl From<SearchError> for AttemptError {
    fn from(e: SearchError) -> Self {
        AttemptError::Budget(e)
    }
}

impl ShardCoordinator {
    /// Partition `graph` into `shards` parts (default seed) and coordinate
    /// them in this process: every channel owns a lane over its shard's
    /// part. Nothing here can be unreachable, so there is no heartbeat.
    pub fn in_process(
        graph: &KnowledgeGraph,
        backend: ShardBackend,
        shards: usize,
    ) -> ShardCoordinator {
        let opts = RemoteOptions { heartbeat: None, ..RemoteOptions::default() };
        let fleet = in_process_fleet(graph, shards);
        ShardCoordinator::over(graph.num_nodes(), backend, shards, fleet, opts)
    }

    /// Coordinate an `N = shards` fleet of worker processes addressed by
    /// `addrs`, partitioned from `graph` under the default seed (the
    /// workers must be built from the same graph, shard count and seed;
    /// the handshake enforces it).
    pub fn remote(
        graph: &KnowledgeGraph,
        backend: ShardBackend,
        shards: usize,
        addrs: Arc<dyn ShardAddrs>,
        opts: RemoteOptions,
    ) -> ShardCoordinator {
        ShardCoordinator::over(graph.num_nodes(), backend, shards, Fleet::Remote(addrs), opts)
    }

    /// A coordinator of the same fleet — these in-process parts, or those
    /// worker addresses under these options — running `backend`'s kernels.
    pub fn with_backend(&self, backend: ShardBackend) -> ShardCoordinator {
        let core = &self.core;
        let fleet = core.fleet.clone();
        ShardCoordinator::over(core.num_nodes as usize, backend, core.shards, fleet, core.opts)
    }

    fn over(
        num_nodes: usize,
        backend: ShardBackend,
        shards: usize,
        fleet: Fleet,
        opts: RemoteOptions,
    ) -> ShardCoordinator {
        assert!(shards >= 1, "sharded search needs at least one shard");
        let core = Arc::new(Core {
            shards,
            seed: DEFAULT_PARTITION_SEED,
            num_nodes: num_nodes as u64,
            fleet,
            opts,
            breakers: (0..shards).map(|_| CircuitBreaker::new()).collect(),
            counters: RemoteCounters::default(),
            latency: LogHistogram::new(),
            #[cfg(test)]
            script: tests::Script::default(),
        });
        let heartbeat_stop = Arc::new(AtomicBool::new(false));
        let heartbeat = opts.heartbeat.map(|interval| {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&heartbeat_stop);
            std::thread::Builder::new()
                .name("remote-shard-heartbeat".into())
                .spawn(move || heartbeat_loop(&core, &stop, interval))
                .expect("spawning the heartbeat thread")
        });
        ShardCoordinator {
            core,
            backend,
            name: format!("{}[shards={shards}]", backend.base_name()),
            channels: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            compute: crate::engine::build_pool(backend.threads().max(shards)),
            stage: SessionPool::new(),
            heartbeat_stop,
            heartbeat,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.core.shards
    }

    /// Whether the shards are worker processes ([`ShardCoordinator::remote`])
    /// rather than lanes in this one.
    pub fn is_remote(&self) -> bool {
        matches!(self.core.fleet, Fleet::Remote(_))
    }

    /// Engine display name carried on traces (`"CPU-Par[shards=4]"`,
    /// whichever the link, as the byte-identity contract requires).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monitoring snapshot: the exchange counters plus the supervision
    /// ones.
    pub fn stats(&self) -> RemoteStats {
        let c = &self.core.counters;
        RemoteStats {
            exchange: ShardedStats {
                shards: self.core.shards,
                rounds: c.exchange.rounds.load(Ordering::Relaxed),
                notifications: c.exchange.notifications.load(Ordering::Relaxed),
                notifications_suppressed: c.exchange.suppressed.load(Ordering::Relaxed),
            },
            rpcs: c.rpcs.load(Ordering::Relaxed),
            dials: c.dials.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            probes: c.probes.load(Ordering::Relaxed),
            probe_failures: c.probe_failures.load(Ordering::Relaxed),
            breaker_opens: c.breaker_opens.load(Ordering::Relaxed),
            degraded_queries: c.degraded_queries.load(Ordering::Relaxed),
            breaker: self.core.breakers.iter().map(|b| b.state().name().to_string()).collect(),
            rpc_latency_us: self.core.latency.snapshot(),
        }
    }

    /// Current breaker state per shard.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.core.breakers.iter().map(|b| b.state()).collect()
    }

    /// Run one budgeted sharded search. Same contract as
    /// [`crate::engine::KeywordSearchEngine::try_search_session`] — a
    /// tripped budget returns `Err` and never a partial answer set — plus
    /// the explicit [`ShardedOutcome::degraded`] marker. A `qid` rides
    /// every `Start`, is echoed back on `CollectOk`, and is stamped on the
    /// trace and its stitched shard timelines so worker-side observations
    /// join with the coordinator's.
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    pub fn try_search(
        &self,
        graph: &KnowledgeGraph,
        query: &textindex::ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
        qid: Option<u64>,
    ) -> Result<ShardedOutcome, SearchError> {
        let tracker =
            match bottom_up::pre_flight(query, params, budget, &self.name, graph.num_nodes()) {
                PreFlight::Run(tracker) => tracker,
                PreFlight::Done(verdict) => {
                    return verdict.map(|mut outcome| {
                        if let Some(trace) = outcome.trace.as_mut() {
                            trace.qid = qid;
                        }
                        ShardedOutcome { outcome, degraded: false }
                    })
                }
            };

        let opts = &self.core.opts;
        let deadline = budget.timeout.map(|t| Instant::now() + t);
        let mut dead = vec![false; self.core.shards];
        let mut failures = vec![0u32; self.core.shards];
        // Bounded supervision loop: every iteration either returns,
        // burns one of a shard's finite attempts, or marks a shard dead.
        let max_rounds = (self.core.shards as u32 * (opts.attempts + 1) + 1) as usize;
        for _ in 0..max_rounds {
            match self.attempt(graph, query, params, &tracker, deadline, &dead, qid) {
                Ok(outcome) => {
                    let degraded = dead.iter().any(|&d| d);
                    if degraded {
                        self.core.counters.degraded_queries.fetch_add(1, Ordering::Relaxed);
                    }
                    for (s, b) in self.core.breakers.iter().enumerate() {
                        if !dead[s] {
                            b.record_success();
                        }
                    }
                    return Ok(ShardedOutcome { outcome, degraded });
                }
                Err(AttemptError::Budget(e)) => return Err(e),
                Err(AttemptError::ShardShed { shard }) => {
                    // The breaker is shedding this shard: confirmed-dead
                    // already, no probe needed.
                    if !opts.degraded_answers {
                        return Err(SearchError::ShardUnavailable { shard });
                    }
                    dead[shard] = true;
                }
                Err(AttemptError::ShardIo { shard }) => {
                    // The query's own budget may be the real cause (an
                    // RPC clamped by the wall-clock deadline): first
                    // cause wins.
                    tracker.poll_deadline();
                    if let Some(e) = tracker.error() {
                        return Err(e);
                    }
                    failures[shard] += 1;
                    // Failure attribution: probe the worker out-of-band.
                    // A surviving probe blames the query (e.g. a fault
                    // token), leaving the breaker untouched.
                    match self.core.probe(shard) {
                        Some(chan) => self.checkin(shard, chan),
                        None => self.core.confirmed_failure(shard),
                    }
                    let gone = failures[shard] >= opts.attempts
                        || self.core.breakers[shard].state() == BreakerState::Open;
                    if gone {
                        if !opts.degraded_answers {
                            return Err(SearchError::ShardUnavailable { shard });
                        }
                        dead[shard] = true;
                        continue;
                    }
                    self.core.counters.retries.fetch_add(1, Ordering::Relaxed);
                    let exp = opts
                        .backoff_base
                        .saturating_mul(1u32 << (failures[shard] - 1).min(16))
                        .min(opts.backoff_cap);
                    std::thread::sleep(exp + self.core.jitter(exp));
                }
            }
        }
        // Unreachable with finite attempts; report the first live shard.
        Err(SearchError::ShardUnavailable { shard: dead.iter().position(|&d| !d).unwrap_or(0) })
    }

    /// Pooled-channel checkout: reuse a same-generation channel or dial a
    /// fresh one.
    fn checkout(&self, shard: usize) -> io::Result<Channel> {
        let current = self.core.generation(shard);
        while let Some(chan) = self.channels[shard].lock().unwrap().pop() {
            if chan.generation == current {
                return Ok(chan);
            }
            // Stale incarnation: drop and keep looking.
        }
        self.core.dial(shard)
    }

    fn checkin(&self, shard: usize, chan: Channel) {
        if chan.generation == self.core.generation(shard) {
            self.channels[shard].lock().unwrap().push(chan);
        }
    }

    /// Per-RPC socket timeout: the configured cap, clamped by what is
    /// left of the query's wall-clock budget.
    fn rpc_timeout(&self, deadline: Option<Instant>) -> Duration {
        let cap = self.core.opts.rpc_timeout;
        match deadline {
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                cap.min(left).max(Duration::from_millis(1))
            }
            None => cap,
        }
    }

    /// One full pass of the round protocol over the live shards.
    #[allow(clippy::too_many_arguments)]
    fn attempt(
        &self,
        graph: &KnowledgeGraph,
        query: &textindex::ParsedQuery,
        params: &SearchParams,
        tracker: &BudgetTracker,
        deadline: Option<Instant>,
        dead: &[bool],
        qid: Option<u64>,
    ) -> Result<SearchOutcome, AttemptError> {
        let core = &self.core;
        let live: Vec<usize> = (0..core.shards).filter(|&s| !dead[s]).collect();
        // Admission: an open breaker sheds the shard before any dialing.
        for &s in &live {
            if !core.breakers[s].allow(core.opts.breaker_cooldown) {
                return Err(AttemptError::ShardShed { shard: s });
            }
        }
        // Timelines reconcile a worker's clock with wire time; lanes in
        // this process have neither.
        let spans = params.trace.enabled() && self.is_remote();
        let mut ops = RemoteOps {
            search: self,
            live,
            lanes: (0..core.shards).map(|_| Default::default()).collect(),
            deadline,
            tracker,
            level: 0,
            traced: params.trace.enabled(),
            pairs: Vec::new(),
            stepped: Vec::new(),
        };
        // Checkout one exclusive channel per live shard.
        for &s in &ops.live {
            let chan = self.checkout(s).map_err(|_| AttemptError::ShardIo { shard: s })?;
            ops.lanes[s].get_mut().chan = Some(chan);
        }
        let mut run = LevelRun::new(params, tracker);

        // Scatter: Start re-arms every live lane's state for this query
        // (idempotent across retries).
        let t = Instant::now();
        let start = Request::Start(wire::Start {
            query: wire::WireQuery::from_query(query),
            params: params.clone(),
            activation: params.explicit_activation.as_deref().cloned(),
            backend: self.backend.base_name().to_string(),
            threads: self.backend.threads() as u32,
            qid,
            spans,
        });
        let started = ops.sweep(&start, |reply| match reply {
            Response::StartOk(ok) => Some(ok),
            _ => None,
        })?;
        debug_assert!(started.iter().all(|ok| ok.keywords as usize == query.num_keywords()));
        run.profile.init = t.elapsed();

        bottom_up::drive(&mut ops, &mut run)?;

        // Collect: ship every informative row into the stage's block (the
        // channels go back to the pool as `ops` drops) and run the
        // unchanged top-down stage over the global graph.
        let mut stage = self.stage.checkout();
        let SearchSession { activation, top_down: stage2, .. } = &mut *stage;
        let timelines =
            run.timed_fill(|| ops.collect(spans, &mut stage2.hits, query.num_keywords()))?;
        drop(ops);
        let global_act = activation.for_params(graph, params);
        let compute = Some(&self.compute);
        let mut outcome = run.finish(&self.name, graph, compute, stage2, |hits, j, sink| {
            top_down::hitting_path_preds(graph, &global_act, hits, j, sink)
        })?;
        if let Some(trace) = outcome.trace.as_mut() {
            trace.qid = qid;
            trace.shard_timelines = timelines;
        }
        Ok(outcome)
    }
}

/// Fill `block` (`n` nodes × `q` keywords, `q ≥ 1`) from what each live
/// shard collected, given as `(shard, reply)`: halo replicas first —
/// shipped only when degraded, they fill the gaps a dead owner left — then
/// the owners' rows over them. The wire does not distinguish the two, so
/// the ownership hash `owner_of` is replayed per row. A reply naming a
/// node outside the graph or carrying other than `q` levels per node is
/// malformed: `Err(shard)`, before anything is indexed with it.
fn scatter_rows(
    block: &mut HitBlock,
    (n, q): (usize, usize),
    owner_of: impl Fn(u32) -> usize,
    collected: &[(usize, wire::CollectOk)],
) -> Result<(), usize> {
    let malformed = |ok: &wire::CollectOk| {
        ok.hits.len() != ok.nodes.len() * q || ok.nodes.iter().any(|&v| v as usize >= n)
    };
    if let Some(&(shard, _)) = collected.iter().find(|(_, ok)| malformed(ok)) {
        return Err(shard);
    }
    block.unhit(n, q);
    for owned in [false, true] {
        for (shard, ok) in collected {
            let rows = ok.nodes.iter().zip(ok.hits.chunks_exact(q));
            for (&v, row) in rows.filter(|(&v, _)| (owner_of(v) == *shard) == owned) {
                block.row_mut(v).copy_from_slice(row);
            }
        }
    }
    Ok(())
}

/// One shard's lane of an attempt: its exclusively held channel (`None`
/// for a dead shard, and once the shard failed) plus the successful RPCs
/// and their coordinator-observed wall time — the outer envelope the
/// stitched timelines reconcile worker spans against (worker intervals
/// nest inside it, so `rpc_us >= worker_us` and the difference is wire
/// time).
#[derive(Default)]
struct Lane {
    chan: Option<Channel>,
    rpcs: u64,
    rpc_us: u64,
}

/// One attempt's exclusive hold on the fleet — a lane per shard — and the
/// sharded [`LevelOps`]: two requests per level, each a sweep over the
/// live shards stepped concurrently on the coordinator's pool (the global
/// level barrier), each lane behind a mutex only the one thread stepping it
/// takes. `enqueue` sends the level's `Step` — the lanes apply the last
/// round's notifications, enqueue and identify — and keeps the replies;
/// `identify` merges them with no I/O; `expand` sends the `Expand` and
/// dedups the outboxes into the notification set the next `Step` carries.
/// So for a sharded query `phase_ms.enqueue_ms` is the whole `Step` round
/// trip (apply, enqueue and identify on the lanes) and `identify_ms` only
/// the coordinator's merge. A failed RPC or malformed reply drops the
/// erroring channel and fails the attempt; dropping the attempt returns
/// the healthy channels to the pool.
struct RemoteOps<'a> {
    search: &'a ShardCoordinator,
    live: Vec<usize>,
    lanes: Vec<parking_lot::Mutex<Lane>>,
    deadline: Option<Instant>,
    tracker: &'a BudgetTracker,
    /// The level the next `Step` identifies at: 0, then one past the last
    /// `Expand`'s.
    level: u8,
    traced: bool,
    /// The last round's deduplicated notification set, which the next
    /// `Step` carries (capacity kept across rounds).
    pairs: Vec<(u32, u32)>,
    /// The replies of the level's `Step`, in live-shard order.
    stepped: Vec<wire::StepOk>,
}

impl Drop for RemoteOps<'_> {
    /// Check every held channel back in — unless a panic is unwinding
    /// through the query: it may have left a lane mid-phase, so the whole
    /// cohort is dropped with it (as `PooledSession::drop` quarantines a
    /// session).
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        for (s, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(chan) = lane.get_mut().chan.take() {
                self.search.checkin(s, chan);
            }
        }
    }
}

impl RemoteOps<'_> {
    /// Shard `s` failed this attempt: drop its channel (it may hold
    /// undrained reply bytes).
    fn fail(&self, s: usize) -> AttemptError {
        self.lanes[s].lock().chan = None;
        AttemptError::ShardIo { shard: s }
    }

    /// The same RPC to every live shard at once, the lanes stepped
    /// concurrently on the coordinator's pool; `reply_of` picks the expected
    /// variant out of each response, in shard order. A failed RPC and an
    /// unexpected reply are both the shard's failure.
    fn sweep<T>(
        &self,
        request: &Request,
        reply_of: fn(Response) -> Option<T>,
    ) -> Result<Vec<T>, AttemptError> {
        use rayon::prelude::*;
        let core = &self.search.core;
        let out = core.outgoing(request);
        let timeout = self.search.rpc_timeout(self.deadline);
        let exchange = |&s: &usize| {
            let mut lane = self.lanes[s].lock();
            let t = Instant::now();
            let chan = lane.chan.as_mut().expect("live shard has a channel");
            let reply = core.exchange(chan, &out, timeout);
            lane.rpc_us += t.elapsed().as_micros() as u64;
            reply
        };
        let replies: Vec<io::Result<Reply>> =
            self.search.compute.install(|| self.live.par_iter().map(exchange).collect());
        // Every failed lane drops its channel; the first, in shard order,
        // is the attempt's error.
        let mut typed = Vec::with_capacity(replies.len());
        let mut failed = None;
        for (&s, reply) in self.live.iter().zip(replies) {
            match reply.and_then(Reply::decode).ok().and_then(reply_of) {
                Some(reply) => {
                    self.lanes[s].lock().rpcs += 1;
                    typed.push(reply);
                }
                None => drop(failed.get_or_insert(self.fail(s))),
            }
        }
        failed.map_or(Ok(typed), Err)
    }

    /// Collect every live shard's informative rows into `hits` (`q`
    /// keywords wide), and (asked for `spans`) stitch the worker-reported
    /// spans into per-shard timelines. All quantities are monotonic
    /// durations measured on one host each — the coordinator's clock for
    /// `rpc_us`, the worker's for the span phases — never cross-host
    /// timestamp comparisons.
    fn collect(
        &mut self,
        spans: bool,
        hits: &mut HitBlock,
        q: usize,
    ) -> Result<Option<Vec<ShardTimeline>>, AttemptError> {
        let core = &self.search.core;
        let include_halos = self.live.len() < core.shards;
        let collect = Request::Collect(wire::Collect { include_halos });
        let replies = self.sweep(&collect, |reply| match reply {
            Response::CollectOk(ok) => Some(ok),
            _ => None,
        })?;
        let mut collected: Vec<(usize, wire::CollectOk)> =
            self.live.iter().copied().zip(replies).collect();
        let timelines = spans.then(|| {
            let stitch = |(s, ok): &mut (usize, wire::CollectOk)| {
                // A worker that was asked for spans ships them; should
                // one not, the RPC envelope is still coordinator-side
                // truth and only the worker-side breakdown is missing.
                let spans = ok.spans.take().unwrap_or_default();
                let worker_us: u64 = spans.iter().map(ShardSpan::worker_us).sum();
                let Lane { rpcs, rpc_us, .. } = *self.lanes[*s].get_mut();
                ShardTimeline {
                    shard: *s,
                    qid: ok.qid,
                    rpcs,
                    rpc_us,
                    worker_us,
                    wire_us: rpc_us.saturating_sub(worker_us),
                    spans,
                }
            };
            collected.iter_mut().map(stitch).collect()
        });
        let owner_of = |v: u32| -> usize {
            (crate::shard::splitmix64(core.seed ^ u64::from(v)) % core.shards as u64) as usize
        };
        scatter_rows(hits, (core.num_nodes as usize, q), owner_of, &collected)
            .map_err(|s| self.fail(s))?;
        Ok(timelines)
    }
}

impl LevelOps for RemoteOps<'_> {
    type Error = AttemptError;

    /// The level's `Step` sweep, its replies kept for [`RemoteOps::identify`].
    fn enqueue(&mut self) -> Result<usize, AttemptError> {
        let pairs = std::mem::take(&mut self.pairs);
        let step = Request::Step(wire::Step { level: self.level, traced: self.traced, pairs });
        let stepped = self.sweep(&step, |reply| match reply {
            Response::StepOk(ok) => Some(ok),
            _ => None,
        });
        if let Request::Step(step) = step {
            self.pairs = step.pairs;
        }
        self.stepped = stepped?;
        // A Central Node outside the graph is a malformed reply.
        let n = self.search.core.num_nodes;
        let outside = |ok: &wire::StepOk| ok.newly.iter().any(|&v| u64::from(v) >= n);
        if let Some(i) = self.stepped.iter().position(outside) {
            return Err(self.fail(self.live[i]));
        }
        Ok(self.stepped.iter().map(|ok| ok.frontier as usize).sum())
    }

    /// Per-shard cohorts arrive as global ids and merge in ascending order
    /// — the within-level order of the monolithic frontier scan.
    fn identify(
        &mut self,
        level: u8,
        traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<(usize, usize), AttemptError> {
        debug_assert_eq!((level, traced), (self.level, self.traced), "the Step identified");
        let (mut new_hits, mut deferred) = (0usize, 0usize);
        for ok in &self.stepped {
            newly.extend_from_slice(&ok.newly);
            new_hits += ok.new_hits as usize;
            deferred += ok.deferred as usize;
        }
        newly.sort_unstable();
        Ok((new_hits, deferred))
    }

    /// Expand every lane, then dedup the union of the outboxes into the
    /// notification set the next `Step` carries to every lane.
    fn expand(&mut self, level: u8) -> Result<(), AttemptError> {
        let expand = Request::Expand(wire::Expand { level });
        let replies = self.sweep(&expand, |reply| match reply {
            Response::ExpandOk(ok) => Some(ok),
            _ => None,
        })?;
        self.pairs.clear();
        let mut charged = 0u64;
        for ok in replies {
            self.pairs.extend(ok.outbox);
            charged += ok.charged;
        }
        // The lanes metered this level's kernels; charge the sum here, at
        // the level's sequence point, which is where the budget is judged.
        self.tracker.charge(charged);
        self.search.core.counters.exchange.exchange(&mut self.pairs);
        self.level = level + 1;
        Ok(())
    }
}

impl Drop for ShardCoordinator {
    fn drop(&mut self) {
        self.heartbeat_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }
}

/// Background health probing: keeps breaker states honest between
/// queries and closes the loop after a worker respawn (the cooldown-
/// elapsed probe is what re-closes an open breaker).
fn heartbeat_loop(core: &Core, stop: &AtomicBool, interval: Duration) {
    let tick = Duration::from_millis(20).min(interval);
    let mut last: Option<Instant> = None; // first probe fires immediately
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if last.is_none_or(|t| t.elapsed() >= interval) {
            last = Some(Instant::now());
            for s in 0..core.shards {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                if !core.breakers[s].allow(core.opts.breaker_cooldown) {
                    continue; // open and cooling down: shed
                }
                match core.probe(s) {
                    Some(_chan) => core.breakers[s].record_success(),
                    None => core.confirmed_failure(s),
                }
            }
        }
        std::thread::sleep(tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{digest, KeywordSearchEngine, SeqEngine};
    use crate::remote::frame::read_frame;
    use crate::remote::BreakerState;
    use kgraph::GraphBuilder;
    use std::net::TcpListener;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use textindex::{InvertedIndex, ParsedQuery};

    /// What a scripted RPC does instead of reaching its lane.
    #[derive(Clone, Copy, Debug)]
    enum Fault {
        /// The connection is gone: `UnexpectedEof`.
        Drop,
        /// The reply does not decode: `InvalidData`.
        Garbage,
        /// The reply outlives the RPC deadline: `TimedOut`, without the wait.
        Stall,
        /// The handler panics.
        Panic,
    }

    /// The fault schedule of an in-process fleet: which of a shard's RPCs —
    /// numbered from 0 over the coordinator's life, phases and pings alike,
    /// whichever of the shard's lanes they reach — fail, and how. Empty
    /// outside the supervision tests.
    #[derive(Default)]
    pub(super) struct Script {
        faults: Mutex<Vec<(usize, std::ops::Range<u64>, Fault)>>,
        seen: Mutex<Vec<u64>>,
    }

    impl Script {
        /// Count one RPC to `shard` and fail it if the schedule says so.
        pub(super) fn next_rpc(&self, shard: usize) -> io::Result<()> {
            let n = {
                let mut seen = self.seen.lock().unwrap();
                let shards = seen.len().max(shard + 1);
                seen.resize(shards, 0);
                seen[shard] += 1;
                seen[shard] - 1
            };
            let scheduled = |(s, rpcs, _): &&(usize, std::ops::Range<u64>, Fault)| {
                *s == shard && rpcs.contains(&n)
            };
            let fault = self.faults.lock().unwrap().iter().find(scheduled).map(|f| f.2);
            match fault {
                None => Ok(()),
                Some(Fault::Drop) => Err(io::ErrorKind::UnexpectedEof.into()),
                Some(Fault::Garbage) => Err(invalid_data("garbage frame".into())),
                Some(Fault::Stall) => Err(io::ErrorKind::TimedOut.into()),
                Some(Fault::Panic) => panic!("scripted handler panic"),
            }
        }

        /// Fail `shard`'s RPCs number `rpcs`, counted from the next one.
        fn fail(&self, shard: usize, rpcs: std::ops::Range<u64>, fault: Fault) {
            let seen = self.seen.lock().unwrap().get(shard).copied().unwrap_or(0);
            let rpcs = seen + rpcs.start..seen.saturating_add(rpcs.end);
            self.faults.lock().unwrap().push((shard, rpcs, fault));
        }
    }

    /// Two keyword clusters bridged by a hub plus six isolated keyword
    /// nodes (which no shard but their owner holds), and the two-keyword
    /// query over them.
    fn bridged_query() -> (KnowledgeGraph, ParsedQuery) {
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", "junction");
        for i in 0..5 {
            let a = b.add_node(&format!("a{i}"), "alpha");
            b.add_edge(a, hub, "p");
            let z = b.add_node(&format!("z{i}"), "omega");
            b.add_edge(hub, z, "q");
        }
        for i in 0..6 {
            b.add_node(&format!("lone{i}"), "alpha");
        }
        let g = b.build();
        let query = ParsedQuery::parse(&InvertedIndex::build(&g), "alpha omega");
        (g, query)
    }

    /// An in-process fleet under `opts` (no heartbeat, 1 ms backoff base —
    /// the longest sleep a retry here takes is 3 ms).
    fn scripted(g: &KnowledgeGraph, shards: usize, opts: RemoteOptions) -> ShardCoordinator {
        let opts =
            RemoteOptions { heartbeat: None, backoff_base: Duration::from_millis(1), ..opts };
        let fleet = in_process_fleet(g, shards);
        ShardCoordinator::over(g.num_nodes(), ShardBackend::Seq, shards, fleet, opts)
    }

    fn search(
        fleet: &ShardCoordinator,
        g: &KnowledgeGraph,
        query: &ParsedQuery,
    ) -> Result<ShardedOutcome, SearchError> {
        let params = SearchParams::default().with_average_distance(1.0);
        fleet.try_search(g, query, &params, &QueryBudget::unlimited(), None)
    }

    fn solo(g: &KnowledgeGraph, query: &ParsedQuery) -> String {
        digest(&SeqEngine::new().search(
            g,
            query,
            &SearchParams::default().with_average_distance(1.0),
        ))
    }

    /// One failed RPC — dropped, garbled or stalled past its deadline —
    /// whose out-of-band probe survives is the query's fault, not the
    /// worker's: the query is retried once from the top and answers in
    /// full, and the breaker never hears of it.
    #[test]
    fn one_failed_rpc_with_a_surviving_probe_is_retried_once() {
        let (g, query) = bridged_query();
        for fault in [Fault::Drop, Fault::Garbage, Fault::Stall] {
            let fleet = scripted(&g, 2, RemoteOptions::default());
            // RPC 2 of shard 1: its level-0 `Expand`.
            fleet.core.script.fail(1, 2..3, fault);
            let out = search(&fleet, &g, &query).expect("the retry answers");
            assert!(!out.degraded, "{fault:?}");
            assert_eq!(digest(&out.outcome), solo(&g, &query), "{fault:?}");
            let stats = fleet.stats();
            assert_eq!((stats.retries, stats.probes, stats.probe_failures), (1, 1, 0), "{fault:?}");
            assert_eq!(stats.breaker_opens, 0, "{fault:?}");
            assert_eq!(fleet.breaker_states(), [BreakerState::Closed; 2], "{fault:?}");
        }
    }

    /// A worker that stays dead — every RPC and every probe fails — is a
    /// confirmed failure each time: `breaker_threshold` of them open its
    /// breaker, once, the query is shed as `shard_unavailable`, and the
    /// next query is shed at admission without an RPC.
    #[test]
    fn confirmed_failures_open_the_breaker_and_shed() {
        let (g, query) = bridged_query();
        let opts = RemoteOptions { attempts: 3, breaker_threshold: 2, ..RemoteOptions::default() };
        let fleet = scripted(&g, 2, opts);
        // From RPC 1 of shard 1 on: its level-0 `Step` (the identify) first.
        fleet.core.script.fail(1, 1..u64::MAX, Fault::Drop);
        let err = search(&fleet, &g, &query).unwrap_err();
        assert_eq!(err, SearchError::ShardUnavailable { shard: 1 });
        let stats = fleet.stats();
        assert_eq!((stats.retries, stats.probes, stats.probe_failures), (1, 2, 2));
        assert_eq!(stats.breaker_opens, 1);
        assert_eq!(fleet.breaker_states(), [BreakerState::Closed, BreakerState::Open]);

        let err = search(&fleet, &g, &query).unwrap_err();
        assert_eq!(err, SearchError::ShardUnavailable { shard: 1 });
        assert_eq!(fleet.stats().rpcs, stats.rpcs, "shed at admission");
    }

    /// The same dead worker under `degraded_answers`: the query answers
    /// from the live shard, marked degraded, and the live shard's halo
    /// replicas fill the rows of the dead owner's nodes in the stage's
    /// block — the rest of its rows read never-hit.
    #[test]
    fn a_dead_shard_degrades_and_halo_rows_fill_its_owners() {
        let (g, query) = bridged_query();
        let opts = RemoteOptions {
            attempts: 3,
            breaker_threshold: 2,
            degraded_answers: true,
            ..RemoteOptions::default()
        };
        let fleet = scripted(&g, 2, opts);
        fleet.core.script.fail(1, 0..u64::MAX, Fault::Drop);
        let out = search(&fleet, &g, &query).expect("degrades");
        assert!(out.degraded, "a lost shard must be explicitly marked");
        let stats = fleet.stats();
        assert_eq!((stats.degraded_queries, stats.breaker_opens), (1, 1));

        let plan = ShardPlan::build(&g, 2, DEFAULT_PARTITION_SEED);
        let stage = fleet.stage.checkout();
        let (mut filled, mut lost) = (0, 0);
        for v in g.nodes().filter(|v| plan.owner[v.index()] == 1) {
            let hit = stage.top_down.hits.row(v.0).iter().any(|&h| h != crate::INFINITE_LEVEL);
            match plan.parts[0].local(v.0) {
                Some(_) if g.node_text(v) != "junction" => {
                    assert!(hit, "a keyword node's halo replica was seeded: {}", g.node_key(v));
                    filled += 1;
                }
                Some(_) => {}
                None => {
                    assert!(!hit, "nobody holds a row of {}", g.node_key(v));
                    lost += 1;
                }
            }
        }
        assert!(filled > 0 && lost > 0, "{filled} filled, {lost} lost");
    }

    /// A panic inside a lane's handler unwinds through the query and takes
    /// every channel the query held with it — none returns to a freelist,
    /// whatever state its lane was left in — and the next query on the
    /// same coordinator answers like a fresh one's.
    #[test]
    fn a_panicking_handler_quarantines_the_querys_channels() {
        let (g, query) = bridged_query();
        let fleet = scripted(&g, 3, RemoteOptions::default());
        let idle = |fleet: &ShardCoordinator| -> Vec<usize> {
            fleet.channels.iter().map(|c| c.lock().unwrap().len()).collect()
        };
        let want = solo(&g, &query);
        assert_eq!(digest(&search(&fleet, &g, &query).unwrap().outcome), want);
        assert_eq!(idle(&fleet), [1, 1, 1], "a warm channel per shard");

        // RPC 3 of shard 1: the level-1 `Step`, which carries the level-0
        // notifications.
        fleet.core.script.fail(1, 3..4, Fault::Panic);
        catch_unwind(AssertUnwindSafe(|| search(&fleet, &g, &query)))
            .expect_err("the handler's panic reaches the caller");
        assert_eq!(idle(&fleet), [0, 0, 0], "the whole cohort is dropped");
        assert_eq!(fleet.breaker_states(), [BreakerState::Closed; 3], "a panic is not a failure");

        assert_eq!(digest(&search(&fleet, &g, &query).unwrap().outcome), want);
        assert_eq!(idle(&fleet), [1, 1, 1]);
    }

    /// Sequential queries reuse one lane per shard: each checks back in,
    /// in-process lanes are never dialed, and nothing is supervised.
    #[test]
    fn lanes_check_back_in_after_each_query() {
        let (g, query) = bridged_query();
        let fleet = ShardCoordinator::in_process(&g, ShardBackend::Seq, 4);
        for _ in 0..3 {
            search(&fleet, &g, &query).unwrap();
        }
        let idle: Vec<usize> = fleet.channels.iter().map(|c| c.lock().unwrap().len()).collect();
        assert_eq!(idle, [1; 4], "one warm lane per shard");
        let stats = fleet.stats();
        assert!(stats.exchange.rounds > 0 && stats.rpcs > 0);
        assert_eq!((stats.dials, stats.probes, stats.retries), (0, 0, 0));
        assert!(fleet.heartbeat.is_none() && !fleet.is_remote());
    }

    /// Two requests per shard per level, on either link: a query costs
    /// each shard one `Start`, one `Step` per level the trace records (plus
    /// the closing one that found the frontier dry), one `Expand` per
    /// exchange round and one `Collect` — whether the stage ends on `k`
    /// central nodes (`top_k` 1) or on a dry frontier (`top_k` 20).
    #[test]
    fn a_query_costs_each_shard_a_step_per_level_and_an_expand_per_round() {
        let (g, query) = bridged_query();
        for shards in [2, 3] {
            let addrs = (0..shards)
                .map(|s| ShardWorker::spawn_local(&g, shards, s, DEFAULT_PARTITION_SEED))
                .collect();
            let opts = RemoteOptions { heartbeat: None, ..RemoteOptions::default() };
            let addrs = Arc::new(StaticAddrs(addrs));
            let loopback = ShardCoordinator::remote(&g, ShardBackend::Seq, shards, addrs, opts);
            let in_process = ShardCoordinator::in_process(&g, ShardBackend::Seq, shards);
            let fleets = [in_process, loopback];
            for (fleet, top_k) in fleets.iter().flat_map(|fleet| [(fleet, 1), (fleet, 20)]) {
                let params = SearchParams::default()
                    .with_average_distance(1.0)
                    .with_top_k(top_k)
                    .with_trace(crate::trace::TraceLevel::Full);
                let budget = QueryBudget::unlimited();
                let run = || fleet.try_search(&g, &query, &params, &budget, None).unwrap();
                run(); // warm: a loopback fleet's handshakes are RPCs too
                let before = fleet.stats();
                let out = run().outcome;
                let after = fleet.stats();
                let trace = out.trace.expect("traced");
                let dry = !trace.terminated && out.stats.central_candidates < top_k;
                assert_eq!(dry, top_k == 20, "both endings are covered");
                let steps = trace.levels.len() as u64 + u64::from(dry);
                let rounds = after.exchange.rounds - before.exchange.rounds;
                let remote = fleet.is_remote();
                assert_eq!(after.dials, before.dials, "remote {remote}: no handshake counted");
                assert_eq!(
                    after.rpcs - before.rpcs,
                    shards as u64 * (2 + steps + rounds),
                    "remote {remote}, {shards} shards, top_k {top_k}: {steps} steps, {rounds} rounds"
                );
            }
        }
    }

    /// A collect reply of `(node, row)`s.
    fn rows(rows: &[(u32, &[u8])]) -> wire::CollectOk {
        wire::CollectOk {
            nodes: rows.iter().map(|r| r.0).collect(),
            hits: rows.iter().flat_map(|r| r.1.iter().copied()).collect(),
            qid: None,
            spans: None,
        }
    }

    /// Two shards, node `v` owned by shard `v % 2`: owners win over halo
    /// replicas whatever the reply order, unshipped rows read never-hit,
    /// and a row that would index outside the block — `node = n`, or a
    /// level short of `q` — fails its shard before anything is written.
    #[test]
    fn scatter_rows_lets_owners_win_and_refuses_malformed_rows() {
        let (n, q) = (4, 2);
        let owner_of = |v: u32| (v % 2) as usize;
        let mut block = HitBlock::default();
        // Node 0: shard 1's halo replica arrives after the owner's row.
        // Node 3: only a halo replica (its owner shard 1 shipped none).
        let collected = vec![
            (0, rows(&[(0, &[0, 2]), (3, &[4, 4])])),
            (1, rows(&[(1, &[1, 1]), (0, &[9, 9])])),
        ];
        scatter_rows(&mut block, (n, q), owner_of, &collected).expect("well-formed rows");
        assert_eq!(block.row(0), [0, 2], "the owner's row wins");
        assert_eq!(block.row(1), [1, 1]);
        assert_eq!(block.row(2), [crate::INFINITE_LEVEL; 2], "unshipped: never hit");
        assert_eq!(block.row(3), [4, 4], "a halo fills the gap a dead owner left");
        assert!(block.is_keyword_node(0) && !block.is_keyword_node(1));

        let before = block.clone();
        let bad: [(usize, u32, &[u8]); 3] = [(1, n as u32, &[0, 0]), (0, 2, &[0]), (1, 1, &[0; 3])];
        for (shard, node, levels) in bad {
            let mut collected = collected.clone();
            collected[shard].1.nodes.push(node);
            collected[shard].1.hits.extend_from_slice(levels);
            assert_eq!(scatter_rows(&mut block, (n, q), owner_of, &collected), Err(shard));
            assert_eq!(block, before, "a refused collection writes nothing");
        }
    }

    /// A one-shard "worker" that greets (at protocol `version`) and pongs
    /// like a real one and answers each phase RPC with `reply(opcode)`.
    fn scripted_worker(version: u32, reply: fn(u8) -> (u8, Vec<u8>)) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                std::thread::spawn(move || {
                    while let Ok(Some((op, _))) = read_frame(&mut stream) {
                        let hello_ok = wire::HelloOk { shard_index: 0, version };
                        let (op, body) = match op {
                            wire::OP_HELLO => (wire::OP_HELLO_OK, wire::encode(&hello_ok)),
                            wire::OP_PING => (wire::OP_PONG, Vec::new()),
                            wire::OP_START => {
                                (wire::OP_START_OK, wire::encode(&wire::StartOk { keywords: 2 }))
                            }
                            op => reply(op),
                        };
                        write_frame(&mut stream, op, &body).unwrap();
                    }
                });
            }
        });
        addr
    }

    /// A worker whose replies decode but name a node outside the graph —
    /// as newly central, or as a collected row — fails its shard the way
    /// an undecodable reply does (probe, retry budget, `shard_unavailable`)
    /// and indexes nothing; the probe answers, so the breaker stays shut.
    #[test]
    fn out_of_range_ids_from_a_worker_fail_the_shard() {
        let (g, query) = three_node_query();

        fn step(frontier: u64, newly: Vec<u32>) -> (u8, Vec<u8>) {
            let ok = wire::StepOk { frontier, newly, new_hits: 0, deferred: 0 };
            (wire::OP_STEP_OK, wire::encode(&ok))
        }
        let central_outside_the_graph: fn(u8) -> (u8, Vec<u8>) = |op| match op {
            wire::OP_STEP => step(1, vec![3]),
            op => panic!("RPC {op} after a malformed step"),
        };
        let row_outside_the_graph: fn(u8) -> (u8, Vec<u8>) = |op| match op {
            wire::OP_STEP => step(0, vec![]),
            _ => (wire::OP_COLLECT_OK, wire::encode(&rows(&[(3, &[0, 1])]))),
        };
        for script in [central_outside_the_graph, row_outside_the_graph] {
            let fleet = fleet_of(&g, scripted_worker(wire::PROTOCOL_VERSION, script));
            let err = fleet
                .try_search(&g, &query, &SearchParams::default(), &QueryBudget::unlimited(), None)
                .unwrap_err();
            assert_eq!(err, SearchError::ShardUnavailable { shard: 0 });
            let stats = fleet.stats();
            assert_eq!((stats.retries, stats.probes, stats.probe_failures), (1, 2, 0));
            assert_eq!(fleet.breaker_states(), [BreakerState::Closed]);
        }
    }

    /// The handshake is checked on this side too: a worker whose
    /// `HelloOk` echoes another protocol revision is never sent a query —
    /// every dial fails, the probes with it, and no RPC but `Hello` is
    /// counted.
    #[test]
    fn a_hello_ok_of_another_revision_fails_the_dial() {
        let (g, query) = three_node_query();
        for version in [wire::PROTOCOL_VERSION - 1, wire::PROTOCOL_VERSION + 1] {
            let worker = scripted_worker(version, |op| panic!("phase RPC {op} reached the worker"));
            let fleet = fleet_of(&g, worker);
            let err = fleet
                .try_search(&g, &query, &SearchParams::default(), &QueryBudget::unlimited(), None)
                .unwrap_err();
            assert_eq!(err, SearchError::ShardUnavailable { shard: 0 });
            let stats = fleet.stats();
            assert_eq!(stats.rpcs, stats.dials, "nothing but handshakes went out");
            assert_eq!(stats.probes, stats.probe_failures);
            assert!(stats.probes > 0);
        }
    }

    /// `alpha` — mid — `omega`, and the two-keyword query over it.
    fn three_node_query() -> (KnowledgeGraph, ParsedQuery) {
        let mut b = GraphBuilder::new();
        let (x, y) = (b.add_node("x", "alpha"), b.add_node("y", "omega"));
        let m = b.add_node("m", "mid");
        b.add_edge(x, m, "e");
        b.add_edge(y, m, "e");
        let g = b.build();
        let query = ParsedQuery::parse(&InvertedIndex::build(&g), "alpha omega");
        (g, query)
    }

    /// A one-shard fleet over `worker`: two attempts, no heartbeat.
    fn fleet_of(g: &KnowledgeGraph, worker: SocketAddr) -> ShardCoordinator {
        let opts = RemoteOptions {
            heartbeat: None,
            attempts: 2,
            backoff_base: Duration::from_millis(1),
            ..RemoteOptions::default()
        };
        ShardCoordinator::remote(g, ShardBackend::Seq, 1, Arc::new(StaticAddrs(vec![worker])), opts)
    }
}
