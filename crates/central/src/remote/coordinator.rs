//! The shard coordinator: [`ShardCoordinator`] drives `N` shard lanes
//! through the level-synchronous round protocol of [`crate::shard`] — a
//! [`crate::bottom_up::LevelOps`] shape under the one
//! [`crate::bottom_up::drive`] loop, two sweeps of shard RPCs per level
//! (`Step`, `Expand`) between a `Start` and a `Collect` — behind one
//! `try_search` seam, so the result cache, budgets, tracing and the
//! top-down extractor all run unchanged above it. How a channel reaches
//! its lane is one private seam, a link that opens lanes and exchanges one
//! request for one reply on each, with two members: owned in-process lanes
//! over the parts of a [`ShardPlan`] cut here
//! ([`ShardCoordinator::in_process`]), stepped with typed messages and no
//! socket, or TCP streams to shard-worker processes
//! ([`ShardCoordinator::remote`]). Everything above the link is the same
//! code, which is what lets the differential suites pin both
//! byte-identical to the solo engines, and what lets the supervision tests
//! wrap the in-process lanes in a scripted link that fails dials and RPCs
//! on cue.
//!
//! ## Supervision
//!
//! Every worker interaction goes through three defensive layers (an
//! in-process lane cannot fail them, and passes through them all the
//! same):
//!
//! * **per-RPC deadlines** — each socket read/write is capped at
//!   [`RemoteOptions::rpc_timeout`], further clamped by what is left of
//!   the budget tracker's own deadline, so a stalled worker costs bounded
//!   time;
//! * **bounded whole-query retry** — a query whose shard RPC fails is
//!   retried from the top (the protocol is idempotent: `Start` re-arms
//!   every worker's state) with exponential backoff (50 ms doubling, at
//!   most 2 s) + deterministic jitter, up to [`RemoteOptions::attempts`]
//!   failures per shard, all charged against the *same* budget tracker:
//!   the budget bounds total work including recovery;
//! * **a per-shard circuit breaker** fed only by *confirmed* worker
//!   failures: when a query RPC fails, the worker is probed first — dialed
//!   afresh, and a worker that answers the `Hello` handshake is alive — so
//!   a surviving probe attributes the failure to the query itself, and a
//!   fault-injecting query can never open the breaker and shed its
//!   well-behaved neighbours.
//!
//! The policy — admission, blame, backoff, breakers, degrade or shed — is
//! [`super::breaker`]'s pure core: handed `now`, it answers each failure
//! with the query's next step as a value, and the coordinator reads `now`
//! from and waits on its clock (the wall clock for every public
//! constructor; a manual one in the supervision tests, which therefore
//! never sleep). Nothing probes the fleet in the background: a breaker
//! changes state only when a query reaches its shard. Three confirmed
//! failures open it; once its 1 s cooldown has passed, the next query's
//! admission makes it half-open, and that query's outcome closes it or
//! opens it again. A worker that dies while the fleet is idle is therefore
//! found by the first query to reach it, which pays its retry budget
//! before it is shed or degraded. (Under `serve --shard-workers` the
//! supervisor respawns a dead worker without waiting for a query.)
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

use super::breaker::{BreakerState, Clock, Course, Next, Supervisor, SystemClock};
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
use std::sync::atomic::{AtomicU64, Ordering};
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
/// remote workers: the three that `serve` sets from its flags. The rest
/// of the policy is fixed by the constants of [`super::breaker`].
#[derive(Clone, Copy, Debug)]
pub struct RemoteOptions {
    /// Cap on each RPC's socket read/write (further clamped by the
    /// query's wall-clock budget).
    pub rpc_timeout: Duration,
    /// Confirmed failures per shard before a query gives up on it.
    pub attempts: u32,
    /// `true`: serve best-effort answers from live shards (marked
    /// `degraded`); `false`: shed with `shard_unavailable`.
    pub degraded_answers: bool,
}

impl Default for RemoteOptions {
    fn default() -> Self {
        RemoteOptions { rpc_timeout: Duration::from_secs(5), attempts: 3, degraded_answers: false }
    }
}

/// Cap on establishing a worker connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RemoteStats {
    /// Shard count and the boundary-exchange counters — all there is to
    /// monitor of an in-process fleet.
    pub exchange: ShardedStats,
    /// RPCs issued (all kinds, handshakes included).
    pub rpcs: u64,
    /// Worker dials (fresh connections, including probes and respawn
    /// re-dials).
    pub dials: u64,
    /// Whole-query retries after a shard RPC failure.
    pub retries: u64,
    /// Health probes — a fresh dial of the shard, handshake included —
    /// one per query attempt a shard failed (failure attribution).
    pub probes: u64,
    /// Probes that failed (confirmed worker failures).
    pub probe_failures: u64,
    /// Times a breaker transitioned to open.
    pub breaker_opens: u64,
    /// Queries answered degraded (at least one shard skipped).
    pub degraded_queries: u64,
    /// Breaker state per shard, as the last query to reach it left it.
    pub breaker: Vec<BreakerState>,
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
    degraded_queries: AtomicU64,
    exchange: ExchangeCounters,
}

/// How a coordinator reaches its shards' lanes: the one seam between the
/// round protocol and its transport. Two links implement it — lanes in
/// this process ([`InProcess`]) and connections to shard-worker processes
/// ([`Tcp`]) — and only [`ShardCoordinator::over`] accepts one, which is
/// how the supervision tests put a scripted link around in-process lanes.
trait Link: Send + Sync {
    /// A fresh lane of `shard`; over a [`Link::framed`] link, a connection
    /// that still has to be greeted.
    fn open(&self, shard: usize) -> io::Result<Box<dyn Endpoint>>;
    /// Incarnation of `shard`'s lanes; a channel opened under another one
    /// is stale.
    fn generation(&self, _shard: usize) -> u64 {
        0
    }
    /// Whether requests travel as frames to worker processes — whose
    /// lanes are dialed, greeted and timed on the wire.
    fn framed(&self) -> bool {
        false
    }
}

/// A channel's far end: one request in, one reply out.
trait Endpoint: Send {
    fn exchange(&mut self, out: &Outgoing<'_>, timeout: Duration) -> io::Result<Reply>;
}

/// Lanes in this process: one worker per part of the plan cut at
/// construction.
struct InProcess(Vec<Arc<ShardWorker>>);

impl Link for InProcess {
    fn open(&self, shard: usize) -> io::Result<Box<dyn Endpoint>> {
        Ok(Box::new(Conn::new(Arc::clone(&self.0[shard]), true)))
    }
}

/// A lane owned by the channel is called with the typed request — no
/// JSON, no socket, nothing to time out.
impl Endpoint for Conn {
    fn exchange(&mut self, out: &Outgoing<'_>, _timeout: Duration) -> io::Result<Reply> {
        let handled = self.handle(out.request, Arrival::default());
        handled
            .map(Reply::Typed)
            .map_err(|e| invalid_data(format!("worker error {}: {}", e.code, e.message)))
    }
}

/// Shard-worker processes, reached over TCP at these addresses.
struct Tcp(Arc<dyn ShardAddrs>);

impl Link for Tcp {
    fn open(&self, shard: usize) -> io::Result<Box<dyn Endpoint>> {
        let addr = self.0.addr(shard).ok_or(io::ErrorKind::NotFound)?;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        let _ = stream.set_nodelay(true);
        Ok(Box::new(stream))
    }

    fn generation(&self, shard: usize) -> u64 {
        self.0.generation(shard)
    }

    fn framed(&self) -> bool {
        true
    }
}

/// A connection's requests and replies are frames; its reads and writes
/// carry the RPC deadline.
impl Endpoint for TcpStream {
    fn exchange(&mut self, out: &Outgoing<'_>, timeout: Duration) -> io::Result<Reply> {
        let (opcode, payload) =
            out.frame.as_ref().expect("a framed link's requests go out encoded");
        self.set_read_timeout(Some(timeout))?;
        self.set_write_timeout(Some(timeout))?;
        write_frame(self, *opcode, payload)?;
        let (opcode, payload) = expect_frame(self)?;
        Ok(Reply::Frame(opcode, payload))
    }
}

/// Scatter-gather coordinator over the `N` shards of the deterministic
/// edge-cut partition: scatters a query to all shards, drives the round
/// protocol, and merges the shards' rows into the monolithic top-(k,d)
/// answer set. See [`crate::shard`] for the protocol and its identity
/// argument, and the module docs for the two links.
pub struct ShardCoordinator {
    shards: usize,
    seed: u64,
    num_nodes: u64,
    link: Arc<dyn Link>,
    /// The supervision policy's time source: `now` for its transitions,
    /// and the backoff's wait.
    clock: Arc<dyn Clock>,
    opts: RemoteOptions,
    supervisor: Supervisor,
    counters: RemoteCounters,
    latency: LogHistogram,
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
}

/// One pooled lane of a shard, tagged with the generation it was opened
/// under.
struct Channel {
    end: Box<dyn Endpoint>,
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

impl ShardCoordinator {
    /// `request`, ready to go out on this fleet's links.
    fn outgoing<'a>(&self, request: &'a Request) -> Outgoing<'a> {
        Outgoing { request, frame: self.link.framed().then(|| request.encode()) }
    }

    /// One RPC on an established channel: hand the lane the request and
    /// return what came back.
    fn exchange(
        &self,
        chan: &mut Channel,
        out: &Outgoing<'_>,
        timeout: Duration,
    ) -> io::Result<Reply> {
        let t = Instant::now();
        let reply = chan.end.exchange(out, timeout)?;
        self.counters.rpcs.fetch_add(1, Ordering::Relaxed);
        self.latency.record(t.elapsed().as_micros() as u64);
        Ok(reply)
    }

    /// A fresh channel to `shard`: a new in-process lane, or a dialed
    /// connection to its worker process that has answered the handshake.
    fn dial(&self, shard: usize) -> io::Result<Channel> {
        let generation = self.link.generation(shard);
        let mut chan = Channel { end: self.link.open(shard)?, generation };
        if !self.link.framed() {
            return Ok(chan);
        }
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        // The handshake this fleet must agree to.
        let hello = Request::Hello(wire::Hello {
            version: wire::PROTOCOL_VERSION,
            shards: self.shards as u32,
            shard_index: shard as u32,
            num_nodes: self.num_nodes,
            seed: self.seed,
        });
        let out = self.outgoing(&hello);
        match self.exchange(&mut chan, &out, self.opts.rpc_timeout)?.decode()? {
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

    /// Failure attribution: dial `shard` afresh. A worker that answers the
    /// handshake is alive — the failed RPC was the query's fault — and the
    /// probe's channel joins the pool.
    fn probe(&self, shard: usize) -> bool {
        self.counters.probes.fetch_add(1, Ordering::Relaxed);
        let Ok(chan) = self.dial(shard) else {
            self.counters.probe_failures.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        self.checkin(shard, chan);
        true
    }
}

/// One worker per part of `graph`'s `shards`-way plan under the default
/// seed.
fn in_process_lanes(graph: &KnowledgeGraph, shards: usize) -> InProcess {
    let plan = ShardPlan::build(graph, shards, DEFAULT_PARTITION_SEED);
    let workers = plan.parts.into_iter().enumerate().map(|(index, part)| {
        Arc::new(ShardWorker::over(part, graph.num_nodes(), shards, index, plan.seed))
    });
    InProcess(workers.collect())
}

/// Why one query attempt stopped.
enum AttemptError {
    /// The query's own budget tripped: surfaces directly.
    Budget(SearchError),
    /// A shard RPC failed: probe, then retry / degrade / shed.
    ShardIo { shard: usize },
    /// Admission refused a shard whose breaker is open: the step that
    /// loses it (degrade or shed), no probe.
    Refused(Next),
}

impl From<SearchError> for AttemptError {
    fn from(e: SearchError) -> Self {
        AttemptError::Budget(e)
    }
}

impl ShardCoordinator {
    /// Partition `graph` into `shards` parts (default seed) and coordinate
    /// them in this process: every channel owns a lane over its shard's
    /// part, and nothing here can be unreachable.
    ///
    /// This is the coordinator's socket-free host, not a serving mode
    /// (one process serves one graph; `serve` shards only across
    /// processes): the shard-equivalence suite, the RPC-count test and
    /// the scripted fault schedule run the one round protocol on it, and
    /// the perf ledger's probe times it through
    /// `WikiSearch::open_sharded`.
    pub fn in_process(
        graph: &KnowledgeGraph,
        backend: ShardBackend,
        shards: usize,
    ) -> ShardCoordinator {
        let (link, opts) = (Arc::new(in_process_lanes(graph, shards)), RemoteOptions::default());
        let clock = Arc::new(SystemClock);
        ShardCoordinator::over(graph.num_nodes() as u64, backend, shards, link, opts, clock)
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
        let (link, clock) = (Arc::new(Tcp(addrs)), Arc::new(SystemClock));
        ShardCoordinator::over(graph.num_nodes() as u64, backend, shards, link, opts, clock)
    }

    /// A coordinator of the same fleet — these in-process parts, or those
    /// worker addresses under these options — running `backend`'s kernels.
    pub fn with_backend(&self, backend: ShardBackend) -> ShardCoordinator {
        let (link, clock) = (Arc::clone(&self.link), Arc::clone(&self.clock));
        ShardCoordinator::over(self.num_nodes, backend, self.shards, link, self.opts, clock)
    }

    fn over(
        num_nodes: u64,
        backend: ShardBackend,
        shards: usize,
        link: Arc<dyn Link>,
        opts: RemoteOptions,
        clock: Arc<dyn Clock>,
    ) -> ShardCoordinator {
        assert!(shards >= 1, "sharded search needs at least one shard");
        ShardCoordinator {
            shards,
            seed: DEFAULT_PARTITION_SEED,
            num_nodes,
            link,
            clock,
            opts,
            supervisor: Supervisor::new(shards, opts.attempts, opts.degraded_answers),
            counters: RemoteCounters::default(),
            latency: LogHistogram::new(),
            backend,
            name: format!("{}[shards={shards}]", backend.base_name()),
            channels: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            compute: crate::engine::build_pool(backend.threads().max(shards)),
            stage: SessionPool::new(),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards
    }

    /// Whether the shards are worker processes ([`ShardCoordinator::remote`])
    /// rather than lanes in this one.
    pub fn is_remote(&self) -> bool {
        self.link.framed()
    }

    /// Engine display name carried on traces (`"CPU-Par[shards=4]"`,
    /// whichever the link, as the byte-identity contract requires).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monitoring snapshot: the exchange counters plus the supervision
    /// ones.
    pub fn stats(&self) -> RemoteStats {
        let c = &self.counters;
        let (breaker, breaker_opens) = self.supervisor.states();
        RemoteStats {
            exchange: ShardedStats {
                shards: self.shards,
                rounds: c.exchange.rounds.load(Ordering::Relaxed),
                notifications: c.exchange.notifications.load(Ordering::Relaxed),
                notifications_suppressed: c.exchange.suppressed.load(Ordering::Relaxed),
            },
            rpcs: c.rpcs.load(Ordering::Relaxed),
            dials: c.dials.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            probes: c.probes.load(Ordering::Relaxed),
            probe_failures: c.probe_failures.load(Ordering::Relaxed),
            breaker_opens,
            degraded_queries: c.degraded_queries.load(Ordering::Relaxed),
            breaker,
            rpc_latency_us: self.latency.snapshot(),
        }
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

        // Every pass either answers, spends one of a shard's finite
        // attempts, or loses a shard for good: the loop ends.
        let mut course = self.supervisor.course();
        loop {
            let next = match self.attempt(graph, query, params, &tracker, &mut course, qid) {
                Ok(outcome) => {
                    let degraded = course.degraded();
                    if degraded {
                        self.counters.degraded_queries.fetch_add(1, Ordering::Relaxed);
                    }
                    self.supervisor.answered(&course);
                    return Ok(ShardedOutcome { outcome, degraded });
                }
                Err(AttemptError::Budget(e)) => return Err(e),
                Err(AttemptError::Refused(next)) => next,
                Err(AttemptError::ShardIo { shard }) => {
                    // The query's own budget may be the real cause (an
                    // RPC clamped by the wall-clock deadline): first
                    // cause wins.
                    tracker.checkpoint()?;
                    let up = self.probe(shard);
                    self.supervisor.failed(&mut course, shard, up, self.clock.now())
                }
            };
            match next {
                Next::Retry(wait) => {
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    self.clock.sleep(wait);
                }
                Next::Skip(_) => {}
                Next::Shed(shard) => return Err(SearchError::ShardUnavailable { shard }),
            }
        }
    }

    /// Pooled-channel checkout: reuse a same-generation channel or dial a
    /// fresh one.
    fn checkout(&self, shard: usize) -> io::Result<Channel> {
        let current = self.link.generation(shard);
        while let Some(chan) = self.channels[shard].lock().unwrap().pop() {
            if chan.generation == current {
                return Ok(chan);
            }
            // Stale incarnation: drop and keep looking.
        }
        self.dial(shard)
    }

    fn checkin(&self, shard: usize, chan: Channel) {
        if chan.generation == self.link.generation(shard) {
            self.channels[shard].lock().unwrap().push(chan);
        }
    }

    /// Per-RPC socket timeout: the configured cap, clamped by what is
    /// left of the query's own deadline.
    fn rpc_timeout(&self, tracker: &BudgetTracker) -> Duration {
        let cap = self.opts.rpc_timeout;
        tracker.deadline().map_or(cap, |deadline| {
            let left = deadline.saturating_duration_since(self.clock.now());
            cap.min(left).max(Duration::from_millis(1))
        })
    }

    /// One full pass of the round protocol over the course's live shards.
    fn attempt(
        &self,
        graph: &KnowledgeGraph,
        query: &textindex::ParsedQuery,
        params: &SearchParams,
        tracker: &BudgetTracker,
        course: &mut Course,
        qid: Option<u64>,
    ) -> Result<SearchOutcome, AttemptError> {
        // Admission: an open breaker sheds the shard before any dialing;
        // past its cooldown it turns half-open and this query is the
        // trial.
        if let Some(next) = self.supervisor.admit(course, self.clock.now()) {
            return Err(AttemptError::Refused(next));
        }
        let live: Vec<usize> = (0..self.shards).filter(|&s| course.live(s)).collect();
        // Timelines reconcile a worker's clock with wire time; lanes in
        // this process have neither, so their spans are dropped unread.
        let timelines = params.trace && self.is_remote();
        let mut ops = RemoteOps {
            search: self,
            live,
            lanes: (0..self.shards).map(|_| Default::default()).collect(),
            tracker,
            keywords: query.num_keywords(),
            level: 0,
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
            run.timed_fill(|| ops.collect(timelines, &mut stage2.hits, query.num_keywords()))?;
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
    tracker: &'a BudgetTracker,
    /// The query's keyword count: the bound of every keyword instance.
    keywords: usize,
    /// The level the next `Step` identifies at: 0, then one past the last
    /// `Expand`'s.
    level: u8,
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
        let out = self.search.outgoing(request);
        let timeout = self.search.rpc_timeout(self.tracker);
        let exchange = |&s: &usize| {
            let mut lane = self.lanes[s].lock();
            let t = Instant::now();
            let chan = lane.chan.as_mut().expect("live shard has a channel");
            let reply = self.search.exchange(chan, &out, timeout);
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
    /// keywords wide), and (asked for `timelines`) stitch the
    /// worker-reported spans into per-shard timelines. All quantities are
    /// monotonic durations measured on one host each — the coordinator's
    /// clock for `rpc_us`, the worker's for the span phases — never
    /// cross-host timestamp comparisons.
    fn collect(
        &mut self,
        timelines: bool,
        hits: &mut HitBlock,
        q: usize,
    ) -> Result<Option<Vec<ShardTimeline>>, AttemptError> {
        let search = self.search;
        let include_halos = self.live.len() < search.shards;
        let collect = Request::Collect(wire::Collect { include_halos });
        let replies = self.sweep(&collect, |reply| match reply {
            Response::CollectOk(ok) => Some(ok),
            _ => None,
        })?;
        let mut collected: Vec<(usize, wire::CollectOk)> =
            self.live.iter().copied().zip(replies).collect();
        let timelines = timelines.then(|| {
            let stitch = |(s, ok): &mut (usize, wire::CollectOk)| {
                // A worker of a traced query ships its spans; should
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
            (crate::shard::splitmix64(search.seed ^ u64::from(v)) % search.shards as u64) as usize
        };
        scatter_rows(hits, (search.num_nodes as usize, q), owner_of, &collected)
            .map_err(|s| self.fail(s))?;
        Ok(timelines)
    }
}

impl LevelOps for RemoteOps<'_> {
    type Error = AttemptError;

    /// The level's `Step` sweep, its replies kept for [`RemoteOps::identify`].
    fn enqueue(&mut self) -> Result<usize, AttemptError> {
        let pairs = std::mem::take(&mut self.pairs);
        let step = Request::Step(wire::Step { level: self.level, pairs });
        let stepped = self.sweep(&step, |reply| match reply {
            Response::StepOk(ok) => Some(ok),
            _ => None,
        });
        if let Request::Step(step) = step {
            self.pairs = step.pairs;
        }
        self.stepped = stepped?;
        // A Central Node outside the graph is a malformed reply.
        let n = self.search.num_nodes;
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
        _level: u8,
        _traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<(usize, usize), AttemptError> {
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
        // A notification outside the graph or the query is a malformed reply.
        let (n, q) = (self.search.num_nodes, self.keywords);
        let outside = |ok: &wire::ExpandOk| {
            ok.outbox.iter().any(|&(v, i)| u64::from(v) >= n || i as usize >= q)
        };
        if let Some(i) = replies.iter().position(outside) {
            return Err(self.fail(self.live[i]));
        }
        self.pairs.clear();
        let mut charged = 0u64;
        for ok in replies {
            self.pairs.extend(ok.outbox);
            charged += ok.charged;
        }
        // The lanes metered this level's kernels; charge the sum here, at
        // the level's sequence point, which is where the budget is judged.
        self.tracker.charge(charged);
        self.search.counters.exchange.exchange(&mut self.pairs);
        self.level = level + 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{digest, KeywordSearchEngine, SeqEngine};
    use crate::remote::breaker::{BREAKER_COOLDOWN, BREAKER_THRESHOLD};
    use crate::remote::frame::read_frame;
    use kgraph::GraphBuilder;
    use std::net::TcpListener;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use textindex::{InvertedIndex, ParsedQuery};

    /// What a scripted dial or RPC does instead of reaching its lane.
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

    /// The fault schedule of a scripted fleet: which of a shard's link
    /// events — its dials and RPCs, numbered from 0 over the coordinator's
    /// life, whichever of the shard's lanes they reach — fail, and how.
    #[derive(Default)]
    struct Script {
        faults: Mutex<Vec<(usize, std::ops::Range<u64>, Fault)>>,
        seen: Mutex<Vec<u64>>,
    }

    impl Script {
        /// Count one event of `shard` and fail it if the schedule says so.
        fn next(&self, shard: usize) -> io::Result<()> {
            let n = {
                let mut seen = self.seen.lock().unwrap();
                let shards = seen.len().max(shard + 1);
                seen.resize(shards, 0);
                seen[shard] += 1;
                seen[shard] - 1
            };
            let scheduled = |(s, events, _): &&(usize, std::ops::Range<u64>, Fault)| {
                *s == shard && events.contains(&n)
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

        /// Fail `shard`'s events number `events`, counted from the next one.
        fn fail(&self, shard: usize, events: std::ops::Range<u64>, fault: Fault) {
            let seen = self.seen.lock().unwrap().get(shard).copied().unwrap_or(0);
            let events = seen + events.start..seen.saturating_add(events.end);
            self.faults.lock().unwrap().push((shard, events, fault));
        }

        /// End the schedule: every later event reaches its lane.
        fn end(&self) {
            self.faults.lock().unwrap().clear();
        }
    }

    /// In-process lanes behind a fault schedule: each dial and each RPC is
    /// an event of its shard that the script may fail instead.
    struct Scripted(InProcess, Arc<Script>);

    impl Link for Scripted {
        fn open(&self, shard: usize) -> io::Result<Box<dyn Endpoint>> {
            self.1.next(shard)?;
            Ok(Box::new(ScriptedEnd(self.0.open(shard)?, shard, Arc::clone(&self.1))))
        }
    }

    /// One scripted lane: shard `.1`'s lane `.0` behind the script.
    struct ScriptedEnd(Box<dyn Endpoint>, usize, Arc<Script>);

    impl Endpoint for ScriptedEnd {
        fn exchange(&mut self, out: &Outgoing<'_>, timeout: Duration) -> io::Result<Reply> {
            self.2.next(self.1)?;
            self.0.exchange(out, timeout)
        }
    }

    /// A clock that stands still: `sleep` moves `now` and returns at once.
    struct ManualClock {
        start: Instant,
        slept: Mutex<Duration>,
    }

    impl ManualClock {
        fn new() -> Arc<ManualClock> {
            Arc::new(ManualClock { start: Instant::now(), slept: Mutex::new(Duration::ZERO) })
        }
    }

    impl Clock for ManualClock {
        fn now(&self) -> Instant {
            self.start + *self.slept.lock().unwrap()
        }

        fn sleep(&self, wait: Duration) {
            *self.slept.lock().unwrap() += wait;
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

    /// An in-process fleet under `opts` behind a fault script, supervised
    /// on a manual clock: a retry's backoff moves the clock, and nothing
    /// waits.
    fn scripted(
        g: &KnowledgeGraph,
        shards: usize,
        opts: RemoteOptions,
    ) -> (ShardCoordinator, Arc<Script>, Arc<ManualClock>) {
        let script = Arc::new(Script::default());
        let link = Arc::new(Scripted(in_process_lanes(g, shards), Arc::clone(&script)));
        let clock = ManualClock::new();
        let fleet = ShardCoordinator::over(
            g.num_nodes() as u64,
            ShardBackend::Seq,
            shards,
            link,
            opts,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        (fleet, script, clock)
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
    /// whose probe (a fresh dial) survives is the query's fault, not the
    /// worker's: the query is retried once from the top and answers in
    /// full, and the breaker never hears of it.
    #[test]
    fn one_failed_rpc_with_a_surviving_probe_is_retried_once() {
        let (g, query) = bridged_query();
        for fault in [Fault::Drop, Fault::Garbage, Fault::Stall] {
            let (fleet, script, _) = scripted(&g, 2, RemoteOptions::default());
            // Event 3 of shard 1: after its dial, `Start` and level-0
            // `Step`, its level-0 `Expand`.
            script.fail(1, 3..4, fault);
            let out = search(&fleet, &g, &query).expect("the retry answers");
            assert!(!out.degraded, "{fault:?}");
            assert_eq!(digest(&out.outcome), solo(&g, &query), "{fault:?}");
            let stats = fleet.stats();
            assert_eq!((stats.retries, stats.probes, stats.probe_failures), (1, 1, 0), "{fault:?}");
            assert_eq!(stats.breaker_opens, 0, "{fault:?}");
            assert_eq!(stats.breaker, [BreakerState::Closed; 2], "{fault:?}");
        }
    }

    /// A worker that stays dead — every RPC and every probe fails — is a
    /// confirmed failure each time: `BREAKER_THRESHOLD` of them (here all
    /// three attempts) open its breaker, once, the query is shed as
    /// `shard_unavailable`, and the next query is shed at admission
    /// without an RPC.
    #[test]
    fn confirmed_failures_open_the_breaker_and_shed() {
        let (g, query) = bridged_query();
        let opts = RemoteOptions { attempts: BREAKER_THRESHOLD, ..RemoteOptions::default() };
        let (fleet, script, _) = scripted(&g, 2, opts);
        // From event 2 of shard 1 on: its level-0 `Step` (the identify)
        // first, then every dial.
        script.fail(1, 2..u64::MAX, Fault::Drop);
        let err = search(&fleet, &g, &query).unwrap_err();
        assert_eq!(err, SearchError::ShardUnavailable { shard: 1 });
        let stats = fleet.stats();
        assert_eq!((stats.retries, stats.probes, stats.probe_failures), (2, 3, 3));
        assert_eq!(stats.breaker_opens, 1);
        assert_eq!(stats.breaker, [BreakerState::Closed, BreakerState::Open]);

        let err = search(&fleet, &g, &query).unwrap_err();
        assert_eq!(err, SearchError::ShardUnavailable { shard: 1 });
        assert_eq!(fleet.stats().rpcs, stats.rpcs, "shed at admission");
    }

    /// Nothing probes an idle fleet: an open breaker stays open through
    /// its cooldown without a single probe, and the first query after it
    /// is the half-open trial — a worker that is back answers it in full,
    /// and the breaker closes.
    #[test]
    fn an_open_breaker_recloses_on_the_first_query_after_the_cooldown() {
        let (g, query) = bridged_query();
        let (fleet, script, clock) = scripted(&g, 2, RemoteOptions::default());
        script.fail(1, 0..u64::MAX, Fault::Drop);
        search(&fleet, &g, &query).unwrap_err();
        assert_eq!(fleet.stats().breaker, [BreakerState::Closed, BreakerState::Open]);
        script.end();

        let probes = fleet.stats().probes;
        clock.sleep(BREAKER_COOLDOWN + Duration::from_millis(100));
        let idle = fleet.stats();
        assert_eq!(idle.probes, probes, "no probe while idle");
        assert_eq!(idle.breaker[1], BreakerState::Open, "the state the last query saw");

        let out = search(&fleet, &g, &query).expect("the trial query answers");
        assert!(!out.degraded);
        assert_eq!(digest(&out.outcome), solo(&g, &query));
        assert_eq!(fleet.stats().breaker, [BreakerState::Closed; 2]);
    }

    /// The same dead worker under `degraded_answers`: the query answers
    /// from the live shard, marked degraded, and the live shard's halo
    /// replicas fill the rows of the dead owner's nodes in the stage's
    /// block — the rest of its rows read never-hit.
    #[test]
    fn a_dead_shard_degrades_and_halo_rows_fill_its_owners() {
        let (g, query) = bridged_query();
        let opts = RemoteOptions { degraded_answers: true, ..RemoteOptions::default() };
        let (fleet, script, _) = scripted(&g, 2, opts);
        script.fail(1, 0..u64::MAX, Fault::Drop);
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
        let (fleet, script, _) = scripted(&g, 3, RemoteOptions::default());
        let idle = |fleet: &ShardCoordinator| -> Vec<usize> {
            fleet.channels.iter().map(|c| c.lock().unwrap().len()).collect()
        };
        let want = solo(&g, &query);
        assert_eq!(digest(&search(&fleet, &g, &query).unwrap().outcome), want);
        assert_eq!(idle(&fleet), [1, 1, 1], "a warm channel per shard");

        // Event 3 of shard 1, on its warm lane: the level-1 `Step`, which
        // carries the level-0 notifications.
        script.fail(1, 3..4, Fault::Panic);
        catch_unwind(AssertUnwindSafe(|| search(&fleet, &g, &query)))
            .expect_err("the handler's panic reaches the caller");
        assert_eq!(idle(&fleet), [0, 0, 0], "the whole cohort is dropped");
        assert_eq!(fleet.stats().breaker, [BreakerState::Closed; 3], "a panic is not a failure");

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
        assert!(!fleet.is_remote());
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
            let opts = RemoteOptions::default();
            let addrs = Arc::new(StaticAddrs(addrs));
            let loopback = ShardCoordinator::remote(&g, ShardBackend::Seq, shards, addrs, opts);
            let in_process = ShardCoordinator::in_process(&g, ShardBackend::Seq, shards);
            let fleets = [in_process, loopback];
            for (fleet, top_k) in fleets.iter().flat_map(|fleet| [(fleet, 1), (fleet, 20)]) {
                let params = SearchParams::default()
                    .with_average_distance(1.0)
                    .with_top_k(top_k)
                    .with_trace(true);
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

    /// A one-shard "worker" that greets (at protocol `version`) like a real
    /// one and answers each phase RPC with `reply(opcode)`, each reply
    /// sent at once (`TCP_NODELAY`, as a real worker's).
    fn scripted_worker(version: u32, reply: fn(u8) -> (u8, Vec<u8>)) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let mut stream = stream.unwrap();
                stream.set_nodelay(true).unwrap();
                std::thread::spawn(move || {
                    while let Ok(Some((op, _))) = read_frame(&mut stream) {
                        let hello_ok = wire::HelloOk { shard_index: 0, version };
                        let (op, body) = match op {
                            wire::OP_HELLO => (wire::OP_HELLO_OK, wire::encode(&hello_ok)),
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
    /// as newly central, or as a collected row — or a keyword instance
    /// outside the query — in its outbox — fails its shard the way an
    /// undecodable reply does (probe, retry budget, `shard_unavailable`)
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
        // Instance 7 of the 2-keyword query: were it forwarded, the lanes
        // would write it into a neighbour's row and the query would answer.
        let instance_outside_the_query: fn(u8) -> (u8, Vec<u8>) = |op| match op {
            wire::OP_STEP => step(1, vec![]),
            wire::OP_EXPAND => {
                let ok = wire::ExpandOk { outbox: vec![(0, 7)], charged: 0 };
                (wire::OP_EXPAND_OK, wire::encode(&ok))
            }
            _ => (wire::OP_COLLECT_OK, wire::encode(&rows(&[]))),
        };
        let scripts =
            [central_outside_the_graph, row_outside_the_graph, instance_outside_the_query];
        for script in scripts {
            let fleet = fleet_of(&g, scripted_worker(wire::PROTOCOL_VERSION, script));
            let err = fleet
                .try_search(&g, &query, &SearchParams::default(), &QueryBudget::unlimited(), None)
                .unwrap_err();
            assert_eq!(err, SearchError::ShardUnavailable { shard: 0 });
            let stats = fleet.stats();
            assert_eq!((stats.retries, stats.probes, stats.probe_failures), (1, 2, 0));
            assert_eq!(stats.breaker, [BreakerState::Closed]);
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

    /// A one-shard fleet over `worker`: two attempts, on a manual clock.
    fn fleet_of(g: &KnowledgeGraph, worker: SocketAddr) -> ShardCoordinator {
        let opts = RemoteOptions { attempts: 2, ..RemoteOptions::default() };
        let link = Arc::new(Tcp(Arc::new(StaticAddrs(vec![worker]))));
        ShardCoordinator::over(
            g.num_nodes() as u64,
            ShardBackend::Seq,
            1,
            link,
            opts,
            ManualClock::new(),
        )
    }
}
