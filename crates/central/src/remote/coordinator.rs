//! The coordinator side of the remote protocol: [`RemoteShardedSearch`]
//! drives `N` shard-worker processes through the same level-synchronous
//! round protocol the in-process [`crate::shard::ShardedSearch`] runs
//! over rayon lanes — both are [`crate::bottom_up::LevelOps`] shapes under
//! the one [`crate::bottom_up::drive`] loop, here with every phase a sweep
//! of shard RPCs — behind the same `try_search` seam, so the result
//! cache, budgets, tracing and the top-down extractor all run unchanged
//! above it, and the remote-equivalence differential suite can pin the
//! two byte-identical.
//!
//! ## Supervision
//!
//! Every worker interaction goes through three defensive layers:
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
//! marker set ([`RemoteOutcome::degraded`]) — never silently wrong. A
//! degraded search skips the dead shards in every phase and lets the live
//! shards' halo replicas stand in for the dead owners' rows during
//! collection (replicas are exact by the round-boundary sync invariant;
//! only expansions that had to run *inside* the dead shard are lost).

use super::breaker::{BreakerState, CircuitBreaker};
use super::frame::write_frame;
use super::wire;
use super::worker::expect_frame;
use crate::bottom_up::{self, LevelOps, LevelRun, PreFlight};
use crate::budget::{BudgetTracker, QueryBudget};
use crate::engine::SearchOutcome;
use crate::error::SearchError;
use crate::metrics::{HistogramSnapshot, LogHistogram};
use crate::pool::SessionPool;
use crate::session::SearchSession;
use crate::shard::{ExchangeCounters, ShardBackend, DEFAULT_PARTITION_SEED};
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

/// Supervision and degradation knobs of a [`RemoteShardedSearch`].
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

/// A successful remote search: the outcome plus the explicit degradation
/// marker the wire protocol surfaces.
#[derive(Debug)]
pub struct RemoteOutcome {
    /// The search outcome, byte-identical to the in-process sharded path
    /// when no shard was lost.
    pub outcome: SearchOutcome,
    /// `true` iff at least one shard was skipped — the answer is
    /// best-effort and explicitly marked so, never silently wrong.
    pub degraded: bool,
}

/// Monitoring snapshot of a [`RemoteShardedSearch`] (STATS `remote`
/// block).
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct RemoteStats {
    /// Number of shards.
    pub shards: usize,
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
    /// Expansion/exchange rounds executed across all queries.
    pub rounds: u64,
    /// Unique boundary notifications broadcast across all queries.
    pub notifications: u64,
    /// Boundary notifications suppressed by the monotone-bound dedup.
    pub notifications_suppressed: u64,
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

/// State shared with the heartbeat thread.
struct Core {
    shards: usize,
    seed: u64,
    num_nodes: u64,
    addrs: Arc<dyn ShardAddrs>,
    opts: RemoteOptions,
    breakers: Vec<CircuitBreaker>,
    counters: RemoteCounters,
    latency: LogHistogram,
}

/// One pooled worker connection, tagged with the address generation it
/// was dialed under.
struct Channel {
    stream: TcpStream,
    generation: u64,
}

impl Core {
    /// The handshake this fleet must agree to.
    fn hello(&self, shard: usize) -> wire::Hello {
        wire::Hello {
            version: wire::PROTOCOL_VERSION,
            shards: self.shards as u32,
            shard_index: shard as u32,
            num_nodes: self.num_nodes,
            seed: self.seed,
        }
    }

    /// One RPC on an established channel: write the request frame, read
    /// the reply, map worker error frames and wrong opcodes to
    /// `InvalidData`.
    fn call(
        &self,
        chan: &mut Channel,
        op: u8,
        payload: &[u8],
        expect: u8,
        timeout: Duration,
    ) -> io::Result<Vec<u8>> {
        chan.stream.set_read_timeout(Some(timeout))?;
        chan.stream.set_write_timeout(Some(timeout))?;
        let t = Instant::now();
        write_frame(&mut chan.stream, op, payload)?;
        let (got, body) = expect_frame(&mut chan.stream)?;
        self.counters.rpcs.fetch_add(1, Ordering::Relaxed);
        self.latency.record(t.elapsed().as_micros() as u64);
        if got == wire::OP_ERROR {
            let e: wire::WireError = wire::decode(&body)
                .unwrap_or(wire::WireError { code: "undecodable".into(), message: String::new() });
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("worker error {}: {}", e.code, e.message),
            ));
        }
        if got != expect {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected opcode {expect}, worker sent {got}"),
            ));
        }
        Ok(body)
    }

    /// Dial + handshake a fresh channel to `shard`.
    fn dial(&self, shard: usize) -> io::Result<Channel> {
        let addr = self.addrs.addr(shard).ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, format!("no address for shard {shard}"))
        })?;
        let generation = self.addrs.generation(shard);
        let stream = TcpStream::connect_timeout(&addr, self.opts.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        let mut chan = Channel { stream, generation };
        let body = self.call(
            &mut chan,
            wire::OP_HELLO,
            &wire::encode(&self.hello(shard)),
            wire::OP_HELLO_OK,
            self.opts.rpc_timeout,
        )?;
        let ok: wire::HelloOk =
            wire::decode(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if (ok.shard_index, ok.version) != (shard as u32, wire::PROTOCOL_VERSION) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "dialed shard {shard} at protocol {}, worker claims shard {} at protocol {}",
                    wire::PROTOCOL_VERSION,
                    ok.shard_index,
                    ok.version
                ),
            ));
        }
        Ok(chan)
    }

    /// Out-of-band health probe: fresh dial + ping. Returns the probed
    /// channel on success so it can be pooled.
    fn probe(&self, shard: usize) -> Option<Channel> {
        self.counters.probes.fetch_add(1, Ordering::Relaxed);
        let attempt = || -> io::Result<Channel> {
            let mut chan = self.dial(shard)?;
            self.call(&mut chan, wire::OP_PING, &[], wire::OP_PONG, self.opts.rpc_timeout)?;
            Ok(chan)
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

/// Coordinator for a fleet of remote shard workers; the remote
/// counterpart of [`crate::shard::ShardedSearch`], exposing the same
/// `try_search` contract plus the degradation marker.
pub struct RemoteShardedSearch {
    core: Arc<Core>,
    backend: ShardBackend,
    name: String,
    /// Per-shard connection freelist.
    channels: Vec<Mutex<Vec<Channel>>>,
    /// The sessions whose activation table and top-down scratch serve the
    /// stage, which runs here, over the global graph and the collected
    /// rows; their matrix state is never armed.
    pub(crate) stage: SessionPool,
    heartbeat_stop: Arc<AtomicBool>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
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

impl RemoteShardedSearch {
    /// Build a coordinator for an `N = shards` fleet addressed by
    /// `addrs`, partitioned from `graph` under the default seed (the
    /// workers must be built from the same graph, shard count and seed;
    /// the handshake enforces it).
    pub fn new(
        graph: &KnowledgeGraph,
        backend: ShardBackend,
        shards: usize,
        addrs: Arc<dyn ShardAddrs>,
        opts: RemoteOptions,
    ) -> RemoteShardedSearch {
        assert!(shards >= 1, "remote sharded search needs at least one shard");
        let core = Arc::new(Core {
            shards,
            seed: DEFAULT_PARTITION_SEED,
            num_nodes: graph.num_nodes() as u64,
            addrs,
            opts,
            breakers: (0..shards).map(|_| CircuitBreaker::new()).collect(),
            counters: RemoteCounters::default(),
            latency: LogHistogram::new(),
        });
        let name = format!("{}[shards={shards}]", backend.base_name());
        let heartbeat_stop = Arc::new(AtomicBool::new(false));
        let heartbeat = opts.heartbeat.map(|interval| {
            let core = Arc::clone(&core);
            let stop = Arc::clone(&heartbeat_stop);
            std::thread::Builder::new()
                .name("remote-shard-heartbeat".into())
                .spawn(move || heartbeat_loop(&core, &stop, interval))
                .expect("spawning the heartbeat thread")
        });
        RemoteShardedSearch {
            core,
            backend,
            name,
            channels: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            stage: SessionPool::new(),
            heartbeat_stop,
            heartbeat,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.core.shards
    }

    /// Engine display name carried on traces (`"CPU-Par[shards=4]"` —
    /// identical to the in-process sharded name, as the byte-identity
    /// contract requires).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monitoring snapshot.
    pub fn stats(&self) -> RemoteStats {
        let c = &self.core.counters;
        RemoteStats {
            shards: self.core.shards,
            rpcs: c.rpcs.load(Ordering::Relaxed),
            dials: c.dials.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            probes: c.probes.load(Ordering::Relaxed),
            probe_failures: c.probe_failures.load(Ordering::Relaxed),
            breaker_opens: c.breaker_opens.load(Ordering::Relaxed),
            degraded_queries: c.degraded_queries.load(Ordering::Relaxed),
            rounds: c.exchange.rounds.load(Ordering::Relaxed),
            notifications: c.exchange.notifications.load(Ordering::Relaxed),
            notifications_suppressed: c.exchange.suppressed.load(Ordering::Relaxed),
            breaker: self.core.breakers.iter().map(|b| b.state().name().to_string()).collect(),
            rpc_latency_us: self.core.latency.snapshot(),
        }
    }

    /// Current breaker state per shard.
    pub fn breaker_states(&self) -> Vec<BreakerState> {
        self.core.breakers.iter().map(|b| b.state()).collect()
    }

    /// Run one budgeted remote search. Same contract as
    /// [`crate::shard::ShardedSearch::try_search`], plus the explicit
    /// [`RemoteOutcome::degraded`] marker.
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    pub fn try_search(
        &self,
        graph: &KnowledgeGraph,
        query: &textindex::ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
    ) -> Result<RemoteOutcome, SearchError> {
        self.try_search_tagged(graph, query, params, budget, None)
    }

    /// [`Self::try_search`] tagged with a fleet-wide query ID: the qid
    /// rides every `Start` frame, is echoed back on `CollectOk`, and is
    /// stamped on the trace and its stitched shard timelines so
    /// worker-side observations join with the coordinator's.
    pub fn try_search_tagged(
        &self,
        graph: &KnowledgeGraph,
        query: &textindex::ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
        qid: Option<u64>,
    ) -> Result<RemoteOutcome, SearchError> {
        let tracker =
            match bottom_up::pre_flight(query, params, budget, &self.name, graph.num_nodes()) {
                PreFlight::Run(tracker) => tracker,
                PreFlight::Done(verdict) => {
                    return verdict.map(|mut outcome| {
                        if let Some(trace) = outcome.trace.as_mut() {
                            trace.qid = qid;
                        }
                        RemoteOutcome { outcome, degraded: false }
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
                    return Ok(RemoteOutcome { outcome, degraded });
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
                    // cause wins, exactly like the in-process path.
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

    /// Pooled-connection checkout: reuse a same-generation channel or
    /// dial a fresh one.
    fn checkout(&self, shard: usize) -> io::Result<Channel> {
        let current = self.core.addrs.generation(shard);
        while let Some(chan) = self.channels[shard].lock().unwrap().pop() {
            if chan.generation == current {
                return Ok(chan);
            }
            // Stale incarnation: drop and keep looking.
        }
        self.core.dial(shard)
    }

    fn checkin(&self, shard: usize, chan: Channel) {
        if chan.generation == self.core.addrs.generation(shard) {
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
        let traced = params.trace.enabled();
        let mut ops = RemoteOps {
            search: self,
            live,
            chans: (0..core.shards).map(|_| None).collect(),
            deadline,
            tracker,
            shard_rpcs: vec![0; core.shards],
            shard_rpc_us: vec![0; core.shards],
        };
        // Checkout one exclusive channel per live shard.
        for i in 0..ops.live.len() {
            let s = ops.live[i];
            ops.chans[s] = Some(self.checkout(s).map_err(|_| AttemptError::ShardIo { shard: s })?);
        }
        let mut run = LevelRun::new(params, tracker);

        // Scatter: Start re-arms every live worker's state for this
        // query (idempotent across retries).
        let t = Instant::now();
        let start = wire::encode(&wire::Start {
            query: wire::WireQuery::from_query(query),
            params: params.clone(),
            activation: params.explicit_activation.as_deref().cloned(),
            backend: self.backend.base_name().to_string(),
            threads: self.backend.threads() as u32,
            qid,
            spans: traced,
        });
        let started: Vec<wire::StartOk> = ops.sweep(wire::OP_START, &start, wire::OP_START_OK)?;
        debug_assert!(started.iter().all(|ok| ok.keywords as usize == query.num_keywords()));
        run.profile.init = t.elapsed();

        bottom_up::drive(&mut ops, &mut run)?;

        // Collect: ship every informative row into the stage's block (the
        // channels go back to the pool as `ops` drops) and run the
        // unchanged top-down stage over the global graph.
        let mut stage = self.stage.checkout();
        let SearchSession { activation, top_down: stage2, .. } = &mut *stage;
        let timelines = ops.collect(traced, &mut stage2.hits, query.num_keywords())?;
        drop(ops);
        let global_act = activation.for_params(graph, params);
        let mut outcome = run.finish(&self.name, graph, None, stage2, |hits, j, sink| {
            top_down::hitting_path_preds(graph, &global_act, hits, j, sink)
        })?;
        if let Some(trace) = outcome.trace.as_mut() {
            trace.qid = qid;
            trace.shard_timelines = timelines;
        }
        Ok(outcome)
    }
}

/// Fill `block` (`n` nodes × `q` keywords) from the rows each live shard
/// collected, given as `(shard, rows)`: halo replicas first — shipped only
/// when degraded, they fill the gaps a dead owner left — then the owners'
/// rows over them. The wire does not distinguish the two, so the ownership
/// hash `owner_of` is replayed per row. A row naming a node outside the
/// graph or carrying other than `q` levels is a malformed reply:
/// `Err(shard)`, before anything is indexed with it.
fn scatter_rows(
    block: &mut HitBlock,
    (n, q): (usize, usize),
    owner_of: impl Fn(u32) -> usize,
    collected: &[(usize, Vec<wire::WireRow>)],
) -> Result<(), usize> {
    let malformed = |row: &wire::WireRow| row.node as usize >= n || row.hits.len() != q;
    if let Some(&(shard, _)) = collected.iter().find(|(_, rows)| rows.iter().any(malformed)) {
        return Err(shard);
    }
    block.unhit(n, q);
    for owned in [false, true] {
        for (shard, rows) in collected {
            for row in rows.iter().filter(|row| (owner_of(row.node) == *shard) == owned) {
                block.row_mut(row.node).copy_from_slice(&row.hits);
            }
        }
    }
    Ok(())
}

/// One attempt's exclusive hold on the fleet — a channel per live shard
/// plus the per-shard RPC accounting — and the remote [`LevelOps`]: the
/// in-process fork-join phases, each fork replaced by a sweep of shard
/// RPCs. A failed RPC or malformed reply drops the erroring channel and
/// fails the attempt; dropping the attempt returns the healthy channels
/// to the pool.
struct RemoteOps<'a> {
    search: &'a RemoteShardedSearch,
    live: Vec<usize>,
    chans: Vec<Option<Channel>>,
    deadline: Option<Instant>,
    tracker: &'a BudgetTracker,
    /// Successful RPCs per shard and their coordinator-observed wall
    /// time: the outer envelope the stitched timelines reconcile worker
    /// spans against (worker intervals nest inside it, so
    /// `rpc_us >= worker_us` and the difference is wire time).
    shard_rpcs: Vec<u64>,
    shard_rpc_us: Vec<u64>,
}

impl Drop for RemoteOps<'_> {
    fn drop(&mut self) {
        for (s, chan) in self.chans.iter_mut().enumerate() {
            if let Some(chan) = chan.take() {
                self.search.checkin(s, chan);
            }
        }
    }
}

impl RemoteOps<'_> {
    /// Shard `s` failed this attempt: drop its channel (it may hold
    /// undrained reply bytes).
    fn fail(&mut self, s: usize) -> AttemptError {
        self.chans[s] = None;
        AttemptError::ShardIo { shard: s }
    }

    /// One RPC to shard `s`; returns the raw reply payload.
    fn rpc(
        &mut self,
        s: usize,
        op: u8,
        payload: &[u8],
        expect: u8,
    ) -> Result<Vec<u8>, AttemptError> {
        let chan = self.chans[s].as_mut().expect("live shard has a channel");
        let timeout = self.search.rpc_timeout(self.deadline);
        let t = Instant::now();
        match self.search.core.call(chan, op, payload, expect, timeout) {
            Ok(body) => {
                self.shard_rpcs[s] += 1;
                self.shard_rpc_us[s] += t.elapsed().as_micros() as u64;
                Ok(body)
            }
            Err(_) => Err(self.fail(s)),
        }
    }

    /// The same RPC to every live shard, in shard order, decoding each
    /// reply; a malformed reply is a shard failure.
    fn sweep<T: serde::Deserialize>(
        &mut self,
        op: u8,
        payload: &[u8],
        expect: u8,
    ) -> Result<Vec<T>, AttemptError> {
        let mut replies = Vec::with_capacity(self.live.len());
        for i in 0..self.live.len() {
            let s = self.live[i];
            let body = self.rpc(s, op, payload, expect)?;
            replies.push(wire::decode(&body).map_err(|_| self.fail(s))?);
        }
        Ok(replies)
    }

    /// Collect every live shard's informative rows into `hits` (`q`
    /// keywords wide), and (traced) stitch the worker-reported spans into
    /// per-shard timelines. All quantities are monotonic durations
    /// measured on one host each — the coordinator's clock for `rpc_us`,
    /// the worker's for the span phases — never cross-host timestamp
    /// comparisons.
    fn collect(
        &mut self,
        traced: bool,
        hits: &mut HitBlock,
        q: usize,
    ) -> Result<Option<Vec<ShardTimeline>>, AttemptError> {
        let core = &self.search.core;
        let include_halos = self.live.len() < core.shards;
        let collect = wire::encode(&wire::Collect { include_halos });
        let replies: Vec<wire::CollectOk> =
            self.sweep(wire::OP_COLLECT, &collect, wire::OP_COLLECT_OK)?;
        let mut collected = Vec::with_capacity(replies.len());
        let mut timelines: Option<Vec<ShardTimeline>> = traced.then(Vec::new);
        for (&s, ok) in self.live.iter().zip(replies) {
            if let Some(tls) = timelines.as_mut() {
                // A worker that was asked for spans ships them; should
                // one not, the RPC envelope is still coordinator-side
                // truth and only the worker-side breakdown is missing.
                let spans = ok.spans.unwrap_or_default();
                let worker_us: u64 = spans.iter().map(ShardSpan::worker_us).sum();
                let rpc_us = self.shard_rpc_us[s];
                tls.push(ShardTimeline {
                    shard: s,
                    qid: ok.qid,
                    rpcs: self.shard_rpcs[s],
                    rpc_us,
                    worker_us,
                    wire_us: rpc_us.saturating_sub(worker_us),
                    spans,
                });
            }
            collected.push((s, ok.rows));
        }
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

    fn enqueue(&mut self) -> Result<usize, AttemptError> {
        let replies: Vec<wire::EnqueueOk> =
            self.sweep(wire::OP_ENQUEUE, &[], wire::OP_ENQUEUE_OK)?;
        Ok(replies.iter().map(|ok| ok.frontier as usize).sum())
    }

    fn identify(
        &mut self,
        level: u8,
        traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<(usize, usize), AttemptError> {
        let identify = wire::encode(&wire::Identify { level, traced });
        let replies: Vec<wire::IdentifyOk> =
            self.sweep(wire::OP_IDENTIFY, &identify, wire::OP_IDENTIFY_OK)?;
        let (mut new_hits, mut deferred) = (0usize, 0usize);
        for (i, ok) in replies.iter().enumerate() {
            // A Central Node outside the graph is a malformed reply.
            if ok.newly.iter().any(|&v| u64::from(v) >= self.search.core.num_nodes) {
                return Err(self.fail(self.live[i]));
            }
            newly.extend_from_slice(&ok.newly);
            new_hits += ok.new_hits as usize;
            deferred += ok.deferred as usize;
        }
        newly.sort_unstable();
        Ok((new_hits, deferred))
    }

    fn expand(&mut self, level: u8) -> Result<(), AttemptError> {
        let expand = wire::encode(&wire::Expand { level });
        let replies: Vec<wire::ExpandOk> =
            self.sweep(wire::OP_EXPAND, &expand, wire::OP_EXPAND_OK)?;
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        let mut charged = 0u64;
        for ok in replies {
            pairs.extend(ok.outbox);
            charged += ok.charged;
        }
        // The workers metered this level's kernels; charge the sum here —
        // the same cumulative totals, at the same sequence point, as the
        // in-process driver.
        self.tracker.charge(charged);
        self.search.core.counters.exchange.exchange(&mut pairs);
        let apply = wire::encode(&wire::Apply { level, pairs });
        for i in 0..self.live.len() {
            self.rpc(self.live[i], wire::OP_APPLY, &apply, wire::OP_APPLY_OK)?;
        }
        Ok(())
    }
}

impl Drop for RemoteShardedSearch {
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
    use crate::remote::frame::read_frame;
    use crate::remote::BreakerState;
    use kgraph::GraphBuilder;
    use std::net::TcpListener;
    use textindex::{InvertedIndex, ParsedQuery};

    fn row(node: u32, hits: &[u8]) -> wire::WireRow {
        wire::WireRow { node, hits: hits.to_vec() }
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
            (0, vec![row(0, &[0, 2]), row(3, &[4, 4])]),
            (1, vec![row(1, &[1, 1]), row(0, &[9, 9])]),
        ];
        scatter_rows(&mut block, (n, q), owner_of, &collected).expect("well-formed rows");
        assert_eq!(block.row(0), [0, 2], "the owner's row wins");
        assert_eq!(block.row(1), [1, 1]);
        assert_eq!(block.row(2), [crate::INFINITE_LEVEL; 2], "unshipped: never hit");
        assert_eq!(block.row(3), [4, 4], "a halo fills the gap a dead owner left");
        assert!(block.is_keyword_node(0) && !block.is_keyword_node(1));

        let before = block.clone();
        for (shard, bad) in [(1, row(n as u32, &[0, 0])), (0, row(2, &[0])), (1, row(1, &[0; 3]))] {
            let mut collected = collected.clone();
            collected[shard].1.push(bad);
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
                        let hello_ok = wire::HelloOk { shard_index: 0, num_owned: 3, version };
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

        let central_outside_the_graph: fn(u8) -> (u8, Vec<u8>) = |op| match op {
            wire::OP_ENQUEUE => {
                (wire::OP_ENQUEUE_OK, wire::encode(&wire::EnqueueOk { frontier: 1 }))
            }
            _ => {
                let ok = wire::IdentifyOk { newly: vec![3], new_hits: 0, deferred: 0 };
                (wire::OP_IDENTIFY_OK, wire::encode(&ok))
            }
        };
        let row_outside_the_graph: fn(u8) -> (u8, Vec<u8>) = |op| match op {
            wire::OP_ENQUEUE => {
                (wire::OP_ENQUEUE_OK, wire::encode(&wire::EnqueueOk { frontier: 0 }))
            }
            _ => {
                let rows = vec![row(3, &[0, 1])];
                (
                    wire::OP_COLLECT_OK,
                    wire::encode(&wire::CollectOk { rows, qid: None, spans: None }),
                )
            }
        };
        for script in [central_outside_the_graph, row_outside_the_graph] {
            let fleet = fleet_of(&g, scripted_worker(wire::PROTOCOL_VERSION, script));
            let err = fleet
                .try_search(&g, &query, &SearchParams::default(), &QueryBudget::unlimited())
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
                .try_search(&g, &query, &SearchParams::default(), &QueryBudget::unlimited())
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
    fn fleet_of(g: &KnowledgeGraph, worker: SocketAddr) -> RemoteShardedSearch {
        let opts = RemoteOptions {
            heartbeat: None,
            attempts: 2,
            backoff_base: Duration::from_millis(1),
            ..RemoteOptions::default()
        };
        RemoteShardedSearch::new(g, ShardBackend::Seq, 1, Arc::new(StaticAddrs(vec![worker])), opts)
    }
}
