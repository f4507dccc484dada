//! Micro-batched multi-query execution: fuse queries that arrive within a
//! short window into **one** level-synchronous sweep over a query-major
//! extension of the hitting-level matrix `M`.
//!
//! Under Zipf-miss traffic many concurrent queries expand overlapping
//! regions of the graph alone: each pays the full per-node cache-line
//! traffic for its own `n × q` matrix. The paper's follow-up work runs the
//! same matrix substrate batched across work items, and its monotone
//! per-query bounds compose when queries share a traversal — so this module
//! lays the matrices of up to [`MAX_BATCH_LANES`] queries side by side
//! (one *lane* per query) and advances all of them in one fused sweep:
//! one pass over the node space per level serves every query in the batch,
//! while each lane keeps its own hitting levels, frontier/central flags,
//! budget tracker and trace.
//!
//! ## Byte-identity
//!
//! The whole point of the design is that batching is *invisible* in the
//! results: answers, stats, per-level traces and budget errors of a lane
//! are byte-for-byte what the solo engine produces for the same
//! `(graph, query, params, budget)`. That holds because
//!
//! * each lane's frontier queue is produced by the same ascending
//!   node-id scan as the solo sequential enqueue (and the solo parallel
//!   compaction, which preserves that order);
//! * identification per lane is the sequential scan — the solo parallel
//!   engines sort their identification output, so all engines agree on
//!   ascending order;
//! * the expansion kernel is [`crate::bottom_up`]'s own — generic over
//!   the cell layout, instantiated for a lane's [`LaneView`] — each lane's
//!   bookkeeping is the driver's [`crate::bottom_up::LevelRun`], and
//!   Theorem V.2 makes the kernel's scheduling irrelevant within a level;
//! * budget trackers are per-lane, so each lane charges exactly the units
//!   the solo run charges, in the same per-frontier order.
//!
//! The `batch_equivalence` differential suite pins this down across all
//! four backends.
//!
//! ## Failure isolation
//!
//! Each lane's pre-flight (parameter validation, budget arming, fault
//! injection, empty-query short-circuit) runs under its own
//! `catch_unwind`, so a panicking query is demoted to
//! [`LaneOutcome::Panicked`] and co-batched lanes proceed untouched; the
//! submitter re-raises the panic on its own thread, where the serving
//! layer's existing quarantine accounting sees it. A budget that trips
//! mid-sweep fails only its own lane at that lane's next checkpoint.

use crate::activation::{ActivationConfig, ActivationMap};
use crate::bottom_up::{self, ExpandCtx, LevelRun, PreFlight};
use crate::budget::{BudgetTracker, QueryBudget};
use crate::engine::SearchOutcome;
use crate::error::SearchError;
use crate::metrics::{Counter, HistogramSnapshot, LogHistogram};
use crate::model::INFINITE_LEVEL;
use crate::shard::{ShardBackend, ShardedSearch};
use crate::state::{Cells, HitLevels};
use crate::top_down::{self, ScratchPool};
use crate::SearchParams;
use kgraph::{KnowledgeGraph, NodeId};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use textindex::ParsedQuery;

/// Hard cap on queries fused into one sweep: lane membership of a frontier
/// node is tracked in a `u64` bitmask during the fused expansion.
pub const MAX_BATCH_LANES: usize = 64;

/// Static configuration of a [`Batcher`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchConfig {
    /// How long the first query of a batch waits for co-travellers.
    pub window: Duration,
    /// Maximum queries per batch (clamped to [`MAX_BATCH_LANES`]).
    pub max_batch: usize,
}

impl BatchConfig {
    /// A config with `max_batch` clamped into `1..=MAX_BATCH_LANES`.
    pub fn new(window: Duration, max_batch: usize) -> Self {
        BatchConfig { window, max_batch: max_batch.clamp(1, MAX_BATCH_LANES) }
    }
}

/// One query's worth of work submitted to the batching layer. Owns its
/// parsed query so requests can cross threads into the leader's batch.
pub struct BatchRequest {
    /// The parsed query (owned — moves into the leader's batch).
    pub query: ParsedQuery,
    /// Per-query search parameters (trace level included).
    pub params: SearchParams,
    /// Per-query budget; armed into a private tracker inside the sweep.
    pub budget: QueryBudget,
}

/// What came back for one lane of a batch.
pub enum LaneOutcome {
    /// The search ran to a verdict: answers or a budget error.
    Done(Result<SearchOutcome, SearchError>),
    /// The lane panicked (fault injection, invalid parameters). The
    /// payload is re-raised on the submitter's thread so the serving
    /// layer's panic accounting is identical to the unbatched path.
    Panicked(Box<dyn Any + Send>),
}

/// Why a collecting batch closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// `max_batch` queries are pending.
    BatchFull,
    /// The batcher is draining (server shutdown / flush).
    QueueDrained,
    /// The collection window elapsed.
    WindowElapsed,
}

/// Pure close-condition oracle of the collection loop: given `pending`
/// queries (the leader included), time `waited` since the leader arrived,
/// and the drain flag, should the batch close now — and why? Kept free of
/// clocks and locks so the model proptests can drive it exhaustively.
pub fn close_reason(
    pending: usize,
    waited: Duration,
    draining: bool,
    cfg: &BatchConfig,
) -> Option<CloseReason> {
    if pending >= cfg.max_batch {
        Some(CloseReason::BatchFull)
    } else if draining {
        Some(CloseReason::QueueDrained)
    } else if waited >= cfg.window {
        Some(CloseReason::WindowElapsed)
    } else {
        None
    }
}

/// Monitoring snapshot of a [`Batcher`] (the `batch` block of `STATS`).
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct BatchStats {
    /// Configured collection window in microseconds.
    pub window_us: u64,
    /// Configured maximum batch size.
    pub max_batch: usize,
    /// Batches executed (a solo fallback run counts as a batch of one).
    pub batches: u64,
    /// Queries that ran inside those batches.
    pub queries: u64,
    /// Queries submitted to the batcher.
    pub enqueued: u64,
    /// Outcomes handed back to submitters (== `enqueued` once idle).
    pub delivered: u64,
    /// Batch-size distribution.
    pub size: HistogramSnapshot,
    /// Window fill time per batch, in microseconds (how long the leader
    /// actually waited before closing).
    pub fill_us: HistogramSnapshot,
}

// ---------------------------------------------------------------------------
// BatchState: the query-major multi-lane extension of `M`
// ---------------------------------------------------------------------------

/// Multi-query search state: the lock-free
/// [`crate::state::SearchState`] widened to `lanes` queries. The matrix
/// is `Σ q_j` lane-major `n × q_j` blocks of byte-sized hitting levels;
/// the shared per-node frontier word carries every lane's `FIdentifier`
/// bit, so one cache-line touch per node during the per-level enqueue
/// scan serves every query in the batch.
///
/// Unlike the solo state there is no epoch stamping: bytes are dense
/// enough that [`BatchState::begin_batch`] simply memsets the used
/// prefix of every array (a few bytes per node per lane — less than one
/// level's expansion traffic), so a pooled state still re-arms
/// allocation-free on the warm path.
pub struct BatchState {
    /// Number of graph nodes.
    n: usize,
    /// Lanes (queries) in the current batch.
    lanes: usize,
    /// Total keyword columns `Σ q_j` across all lanes.
    total_q: usize,
    /// Per-lane column offsets (`lanes + 1` entries; lane `j` owns
    /// columns `offsets[j]..offsets[j+1]`).
    offsets: Vec<usize>,
    /// `M`: lane-major hitting levels — lane `j` owns the contiguous
    /// block `n·offsets[j] .. n·offsets[j+1]`, laid out `n × q_j`
    /// row-major exactly like a solo run's matrix, one byte per cell
    /// (255 = ∞). Keeping each lane's block contiguous and byte-dense is
    /// what keeps per-lane expansion at (better than) solo cache
    /// locality no matter how wide the batch is: a 60k-node, 4-keyword
    /// lane costs 240 KiB here versus ~1 MiB of epoch-stamped words in
    /// the solo state.
    matrix: Vec<AtomicU8>,
    /// `FIdentifier` lane bitmask, one word per node: bit `j` set ⇔ the
    /// node is on lane `j`'s next frontier. Packing all lanes into one
    /// word makes the per-level enqueue a single `O(n)` scan — one
    /// cache-line touch per node serves the whole batch — instead of
    /// `O(n × lanes)` flag probes.
    frontier: Vec<AtomicU64>,
    /// `CIdentifier` per `(node, lane)`, lane-major: 0 ⇔ not central,
    /// else depth + 1.
    central: Vec<AtomicU8>,
    /// Lane-major keyword-node bitmaps, `kw_words` words per lane: bit
    /// `v` of lane `j`'s slice ⇔ `v` holds one of lane `j`'s keywords.
    /// Written only in [`BatchState::begin_batch`], read-only during the
    /// sweep.
    is_keyword: Vec<u64>,
    /// Words per lane in `is_keyword` (`n` rounded up to 64).
    kw_words: usize,
}

impl Default for BatchState {
    fn default() -> Self {
        BatchState::empty()
    }
}

impl BatchState {
    /// An empty state holding no allocation; arm it with
    /// [`BatchState::begin_batch`].
    pub fn empty() -> Self {
        BatchState {
            n: 0,
            lanes: 0,
            total_q: 0,
            offsets: Vec::new(),
            matrix: Vec::new(),
            frontier: Vec::new(),
            central: Vec::new(),
            is_keyword: Vec::new(),
            kw_words: 0,
        }
    }

    /// Re-arm the state for a batch of `queries` over `n` nodes: grow the
    /// buffers if this batch needs more room than any before it, wipe the
    /// used prefix of each, and seed every lane's sources. Warm path:
    /// zero allocations, three memsets.
    ///
    /// # Panics
    /// Panics if `queries` exceeds [`MAX_BATCH_LANES`].
    pub fn begin_batch(&mut self, n: usize, queries: &[&ParsedQuery]) {
        assert!(
            queries.len() <= MAX_BATCH_LANES,
            "batch of {} queries exceeds MAX_BATCH_LANES ({MAX_BATCH_LANES})",
            queries.len()
        );
        self.n = n;
        self.lanes = queries.len();
        self.kw_words = n.div_ceil(64);
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0usize;
        for q in queries {
            total += q.num_keywords();
            self.offsets.push(total);
        }
        self.total_q = total;
        let cells = n * total;
        if self.matrix.len() < cells {
            self.matrix.resize_with(cells, || AtomicU8::new(0));
        }
        let flags = n * self.lanes;
        if self.central.len() < flags {
            self.central.resize_with(flags, || AtomicU8::new(0));
        }
        let kw = self.kw_words * self.lanes;
        if self.is_keyword.len() < kw {
            self.is_keyword.resize(kw, 0);
        }
        if self.frontier.len() < n {
            self.frontier.resize_with(n, || AtomicU64::new(0));
        }
        // One-byte cells make a plain wipe cheaper than epoch stamping:
        // these three memsets move ~5 bytes per node per lane, less than
        // one level's expansion traffic, and compile to straight-line
        // stores (the atomics are uncontended here — `&mut self`).
        for cell in &mut self.matrix[..cells] {
            *cell.get_mut() = INFINITE_LEVEL;
        }
        for cell in &mut self.central[..flags] {
            *cell.get_mut() = 0;
        }
        self.is_keyword[..kw].fill(0);
        for cell in &mut self.frontier[..n] {
            *cell.get_mut() = 0;
        }
        for (lane, query) in queries.iter().enumerate() {
            for (i, group) in query.groups.iter().enumerate() {
                for &v in &group.nodes {
                    let cell = self.cell(v.0, lane, i);
                    *self.matrix[cell].get_mut() = 0;
                    *self.frontier[v.index()].get_mut() |= 1 << lane;
                    self.is_keyword[lane * self.kw_words + v.index() / 64] |= 1 << (v.index() % 64);
                }
            }
        }
    }

    /// Keyword count `q_j` of lane `lane`.
    #[inline]
    pub fn lane_keywords(&self, lane: usize) -> usize {
        self.offsets[lane + 1] - self.offsets[lane]
    }

    /// Matrix cell index of `(v, lane, i)`: lane `lane`'s block starts at
    /// `n·offsets[lane]` and is `n × q_lane` row-major.
    #[inline]
    fn cell(&self, v: u32, lane: usize, i: usize) -> usize {
        let off = self.offsets[lane];
        self.n * off + v as usize * (self.offsets[lane + 1] - off) + i
    }

    /// Flag index of `(v, lane)` — lane-major for the same locality
    /// reason as the matrix.
    #[inline]
    fn flag(&self, v: u32, lane: usize) -> usize {
        lane * self.n + v as usize
    }

    /// Read and clear the whole lane mask on `v`. The load-then-swap
    /// shape keeps the common empty-node case a plain read; the enqueue
    /// scan is the only taker and runs between expansions, so nothing
    /// marks concurrently with the take.
    #[inline]
    pub fn take_frontier_mask(&self, v: u32) -> u64 {
        let cell = &self.frontier[v as usize];
        if cell.load(Ordering::Relaxed) == 0 {
            0
        } else {
            cell.swap(0, Ordering::Relaxed)
        }
    }

    /// Lane `lane` of this state through the single-query lens.
    pub fn lane(&self, lane: usize) -> LaneView<'_> {
        LaneView { state: self, lane }
    }
}

/// One lane of a [`BatchState`] as a single query's cells: what the
/// shared kernel writes ([`Cells`]) and the unchanged top-down extractor
/// reads ([`HitLevels`]).
#[derive(Clone, Copy)]
pub struct LaneView<'a> {
    state: &'a BatchState,
    lane: usize,
}

impl HitLevels for LaneView<'_> {
    #[inline]
    fn num_keywords(&self) -> usize {
        self.state.lane_keywords(self.lane)
    }
    #[inline]
    fn hit(&self, v: u32, i: usize) -> u8 {
        self.state.matrix[self.state.cell(v, self.lane, i)].load(Ordering::Relaxed)
    }
    #[inline]
    fn is_keyword_node(&self, v: u32) -> bool {
        let s = self.state;
        s.is_keyword[self.lane * s.kw_words + v as usize / 64] >> (v % 64) & 1 != 0
    }
    #[inline]
    fn central_depth(&self, v: u32) -> Option<u8> {
        match self.state.central[self.state.flag(v, self.lane)].load(Ordering::Relaxed) {
            0 => None,
            d => Some(d - 1),
        }
    }
}

impl Cells for LaneView<'_> {
    #[inline]
    fn set_hit(&self, v: u32, i: usize, level: u8) {
        self.state.matrix[self.state.cell(v, self.lane, i)].store(level, Ordering::Relaxed);
    }
    #[inline]
    fn row_complete(&self, v: u32) -> bool {
        let base = self.state.cell(v, self.lane, 0);
        self.state.matrix[base..base + self.num_keywords()]
            .iter()
            .all(|m| m.load(Ordering::Relaxed) != INFINITE_LEVEL)
    }
    /// Concurrent markers land on the same word, so this is an atomic OR:
    /// bits from racing lanes merge losslessly, and re-marking is
    /// idempotent (Theorem V.2's argument — the final word is
    /// order-independent).
    #[inline]
    fn mark_frontier(&self, v: u32) {
        self.state.frontier[v as usize].fetch_or(1 << self.lane, Ordering::Relaxed);
    }
    #[inline]
    fn mark_central(&self, v: u32, depth: u8) {
        debug_assert!(depth < u8::MAX);
        self.state.central[self.state.flag(v, self.lane)].store(depth + 1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// The fused multi-query sweep
// ---------------------------------------------------------------------------

/// One lane of a fused sweep: the query's [`LevelRun`] plus what the
/// lane's kernel reads.
struct LaneRun<'a> {
    /// Index into the submitted request slice (demux address).
    slot: usize,
    /// Lane index inside the [`BatchState`].
    lane: usize,
    act: ActivationMap<'a>,
    tracker: &'a BudgetTracker,
    run: LevelRun<'a>,
    frontiers: Vec<u32>,
    /// A budget trip at a level checkpoint: the lane's verdict.
    failed: Option<SearchError>,
}

impl LaneRun<'_> {
    /// Still expanding: neither failed nor terminated.
    fn running(&self) -> bool {
        self.failed.is_none() && self.run.terminated().is_none()
    }
}

/// Executes batches of queries as fused multi-query sweeps on a leased
/// [`BatchState`], demultiplexing per-lane answers through the unchanged
/// top-down extractor. One executor serves one `(graph, backend)` pair;
/// states are pooled in a freelist and re-armed epoch-style per batch.
pub struct BatchExecutor {
    backend: ShardBackend,
    compute: rayon::ThreadPool,
    states: Mutex<Vec<BatchState>>,
    /// Top-down working memory, shared by the lanes of a batch in turn.
    scratch: ScratchPool,
    states_created: Counter,
    states_quarantined: Counter,
    batch_seq: AtomicU64,
}

/// RAII lease of a pooled [`BatchState`]: returns the state to the
/// freelist on drop, unless the thread is unwinding — a state abandoned
/// mid-panic is quarantined (dropped and counted) rather than refreelisted.
struct StateLease<'e> {
    exec: &'e BatchExecutor,
    state: Option<BatchState>,
}

impl Drop for StateLease<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            if std::thread::panicking() {
                self.exec.states_quarantined.inc();
            } else {
                lock(&self.exec.states).push(state);
            }
        }
    }
}

/// Lock a mutex, transparently recovering from poisoning (the guarded
/// data is either a state freelist or the batcher queue, both of which
/// are only mutated by push/pop/take — never left half-updated).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl BatchExecutor {
    /// An executor running fused sweeps with `backend`'s kernel mapping
    /// and thread count.
    pub fn new(backend: ShardBackend) -> Self {
        BatchExecutor {
            backend,
            compute: crate::engine::build_pool(backend.threads()),
            states: Mutex::new(Vec::new()),
            scratch: ScratchPool::default(),
            states_created: Counter::new(),
            states_quarantined: Counter::new(),
            batch_seq: AtomicU64::new(0),
        }
    }

    /// The backend this executor fuses for.
    pub fn backend(&self) -> ShardBackend {
        self.backend
    }

    /// States abandoned by a panicking batch (monitoring).
    pub fn states_quarantined(&self) -> u64 {
        self.states_quarantined.get()
    }

    fn lease_state(&self) -> StateLease<'_> {
        let state = lock(&self.states).pop().unwrap_or_else(|| {
            self.states_created.inc();
            BatchState::empty()
        });
        StateLease { exec: self, state: Some(state) }
    }

    /// Run one batch of requests as a single fused sweep, returning one
    /// [`LaneOutcome`] per request, in request order. Answers, stats,
    /// traces and errors per lane are byte-identical to running each
    /// request alone on the corresponding solo engine; traces additionally
    /// carry the batch id and co-batched count.
    pub fn run_batch(&self, graph: &KnowledgeGraph, requests: &[BatchRequest]) -> Vec<LaneOutcome> {
        let batch_id = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let co = requests.len();
        let mut results: Vec<Option<LaneOutcome>> = (0..co).map(|_| None).collect();

        // Per-lane pre-flight under per-lane catch_unwind: validation
        // panics and fault-injected panics are demoted to this lane's
        // outcome, never the batch's.
        let mut joiners: Vec<(usize, BudgetTracker)> = Vec::with_capacity(co);
        for (slot, req) in requests.iter().enumerate() {
            let name = self.backend.base_name();
            match catch_unwind(AssertUnwindSafe(|| lane_pre_flight(graph, req, name))) {
                Err(payload) => results[slot] = Some(LaneOutcome::Panicked(payload)),
                Ok(PreFlight::Done(verdict)) => {
                    let verdict = verdict.map(|out| annotate(out, batch_id, co));
                    results[slot] = Some(LaneOutcome::Done(verdict));
                }
                Ok(PreFlight::Run(tracker)) => joiners.push((slot, tracker)),
            }
        }

        if !joiners.is_empty() {
            let mut lease = self.lease_state();
            let state = lease.state.as_mut().expect("lease holds a state until drop");
            let queries: Vec<&ParsedQuery> =
                joiners.iter().map(|&(slot, _)| &requests[slot].query).collect();
            let t = Instant::now();
            state.begin_batch(graph.num_nodes(), &queries);

            // Shared activation tables: fused lanes with the same
            // (alpha, average_distance) and no user-supplied table share
            // one precomputed per-node level map, so the per-neighbor
            // Eq. 3–5 math runs once per batch instead of once per lane.
            // A solo (single-joiner) batch keeps computing on the fly —
            // the table costs more to build than it saves there. The
            // table holds exactly the values `ActivationMap::Computed`
            // would return, so hit levels stay byte-identical.
            let mut act_tables: Vec<((u32, u64), Vec<u8>)> = Vec::new();
            if joiners.len() >= 2 {
                for &(slot, _) in &joiners {
                    let p = &requests[slot].params;
                    if p.explicit_activation.is_some() {
                        continue;
                    }
                    let key = (p.alpha.to_bits(), p.average_distance.to_bits());
                    if !act_tables.iter().any(|(k, _)| *k == key) {
                        let config = ActivationConfig::for_params(p);
                        let table = (0..graph.num_nodes() as u32)
                            .map(|v| config.level_for_weight(graph.weight(NodeId(v))))
                            .collect();
                        act_tables.push((key, table));
                    }
                }
            }
            let init = t.elapsed();

            let mut lanes: Vec<LaneRun<'_>> = joiners
                .iter()
                .enumerate()
                .map(|(lane, (slot, tracker))| {
                    let params = &requests[*slot].params;
                    let key = (params.alpha.to_bits(), params.average_distance.to_bits());
                    let act = match act_tables.iter().find(|(k, _)| *k == key) {
                        Some((_, table)) if params.explicit_activation.is_none() => {
                            ActivationMap::Explicit(table)
                        }
                        _ => ActivationMap::for_params(graph, params),
                    };
                    let mut run = LevelRun::new(params, tracker);
                    run.profile.init = init;
                    LaneRun {
                        slot: *slot,
                        lane,
                        act,
                        tracker,
                        run,
                        frontiers: Vec::new(),
                        failed: None,
                    }
                })
                .collect();

            self.fused_sweep(graph, state, &mut lanes);

            // Top-down per lane through the unchanged single-query stage
            // reading this lane's [`LaneView`].
            let pool = self.backend.parallel().then_some(&self.compute);
            for lane in lanes {
                let view = state.lane(lane.lane);
                let verdict = match lane.failed {
                    Some(e) => Err(e),
                    None => self.scratch.with(|scratch| {
                        let name = self.backend.base_name();
                        lane.run.finish(name, graph, &view, pool, scratch, |j, sink| {
                            top_down::hitting_path_preds(graph, &lane.act, &view, j, sink)
                        })
                    }),
                };
                results[lane.slot] =
                    Some(LaneOutcome::Done(verdict.map(|out| annotate(out, batch_id, co))));
            }
        }

        results
            .into_iter()
            .map(|r| r.expect("every request slot received an outcome"))
            .collect()
    }

    /// The fused level-synchronous loop: one node-space scan per level
    /// drains every lane's frontier bits at once, then each lane runs its
    /// identification and its own expansion back to back — the lane's
    /// matrix and flag block stays cache-hot between the two touches, and
    /// per-lane work never grows with the batch width. The shared scan is
    /// why this sweep steps its lanes' [`LevelRun`]s itself instead of
    /// handing each to [`crate::bottom_up::drive`]; the steps, their order
    /// and everything they decide are the driver's.
    fn fused_sweep(&self, graph: &KnowledgeGraph, state: &BatchState, lanes: &mut [LaneRun<'_>]) {
        let n = graph.num_nodes();
        loop {
            // Per-lane level checkpoint: a tripped budget fails only its
            // own lane.
            for lane in lanes.iter_mut().filter(|l| l.running()) {
                lane.failed = lane.run.checkpoint().err();
            }
            let mut running: Vec<&mut LaneRun<'_>> =
                lanes.iter_mut().filter(|l| l.running()).collect();
            if running.is_empty() {
                break;
            }

            // Fused enqueue: one ascending scan of the node space drains
            // every lane's frontier bits at once — a single mask word read
            // per node, whatever the batch width — preserving each lane's
            // solo (ascending node id) frontier order. Stale bits left by
            // lanes that already terminated are dropped by the
            // running-lane mask.
            let t = Instant::now();
            let mut running_mask = 0u64;
            for lane in running.iter_mut() {
                lane.frontiers.clear();
                running_mask |= 1 << lane.lane;
            }
            for v in 0..n as u32 {
                let mask = state.take_frontier_mask(v) & running_mask;
                if mask == 0 {
                    continue;
                }
                for lane in running.iter_mut() {
                    if mask & (1 << lane.lane) != 0 {
                        lane.frontiers.push(v);
                    }
                }
            }
            let enqueue = t.elapsed();

            // Lane-blocked identify + expand, each lane in the driver's
            // phase order. Lanes are data-independent (disjoint matrix/flag
            // blocks, disjoint frontier bits), so running lane B's whole
            // level after lane A's is one of the schedules Theorem V.2
            // already covers; each lane's tracker sees exactly the solo
            // charge sequence.
            for lane in running {
                if !lane.run.enqueued(lane.frontiers.len(), enqueue) {
                    continue;
                }
                let level = lane.run.level();
                let view = state.lane(lane.lane);
                let t = Instant::now();
                bottom_up::identify_sequential(&view, &lane.frontiers, level, &mut lane.run.newly);
                let (new_hits, deferred) = if lane.run.traced() {
                    bottom_up::observe_level(&view, &lane.act, &lane.frontiers, level)
                } else {
                    (0, 0)
                };
                if !lane.run.identified(new_hits, deferred, t.elapsed()) {
                    continue;
                }
                let ctx = ExpandCtx { graph, act: &lane.act, state: &view, budget: lane.tracker };
                let t = Instant::now();
                bottom_up::expand_level(
                    self.backend,
                    Some(&self.compute),
                    &ctx,
                    &lane.frontiers,
                    level,
                );
                lane.run.expanded(t.elapsed());
            }
        }
    }

    /// Run a batch against a sharded coordinator: each lane flows through
    /// the unchanged scatter-gather path (which already batches its local
    /// rounds across shards), sequentially, with uniform batch
    /// annotations. Fusing lanes *across* shard boundaries is out of
    /// scope (see DESIGN.md).
    pub fn run_sharded_batch(
        &self,
        sharded: &ShardedSearch,
        graph: &KnowledgeGraph,
        requests: &[BatchRequest],
    ) -> Vec<LaneOutcome> {
        let batch_id = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        let co = requests.len();
        requests
            .iter()
            .map(|req| {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    sharded.try_search(graph, &req.query, &req.params, &req.budget)
                }));
                match run {
                    Ok(verdict) => {
                        LaneOutcome::Done(verdict.map(|out| annotate(out, batch_id, co)))
                    }
                    Err(payload) => LaneOutcome::Panicked(payload),
                }
            })
            .collect()
    }
}

/// Stamp a finished outcome's trace with its batch id and co-batched
/// count (the only fields where batched execution is visible).
fn annotate(mut out: SearchOutcome, batch_id: u64, co: usize) -> SearchOutcome {
    if let Some(trace) = out.trace.as_mut() {
        trace.batch_id = Some(batch_id);
        trace.co_batched = Some(co);
    }
    out
}

/// [`bottom_up::pre_flight`] for one lane, plus a fail-fast check the
/// shared sweep needs: the solo path would panic on the first
/// out-of-range access to a short explicit activation table
/// mid-expansion; failing here keeps that panic on this lane instead of
/// unwinding the whole sweep.
fn lane_pre_flight(graph: &KnowledgeGraph, req: &BatchRequest, name: &str) -> PreFlight {
    let verdict = bottom_up::pre_flight(&req.query, &req.params, &req.budget, name);
    if let (PreFlight::Run(_), Some(levels)) = (&verdict, &req.params.explicit_activation) {
        assert!(
            levels.len() >= graph.num_nodes(),
            "explicit activation table holds {} levels for {} nodes",
            levels.len(),
            graph.num_nodes()
        );
    }
    verdict
}

// ---------------------------------------------------------------------------
// The Batcher: window-bounded leader/follower collection
// ---------------------------------------------------------------------------

/// Shared collection queue: the leader claims (a prefix of) it when the
/// batch closes. Tickets identify entries so a still-queued follower can
/// tell "claimed by a leader" from "waiting for one".
struct Collector {
    queue: Vec<(u64, BatchRequest, mpsc::Sender<LaneOutcome>)>,
    next_ticket: u64,
    leader_active: bool,
}

/// Clears `leader_active` and wakes every waiter when the leader is done
/// — including by panic, so queued followers always get a chance to
/// promote themselves instead of waiting forever.
struct LeaderGuard<'b> {
    batcher: &'b Batcher,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        lock(&self.batcher.inner).leader_active = false;
        self.batcher.cv.notify_all();
    }
}

/// Collects concurrently submitted queries into batches: the first
/// submitter of a batch becomes its *leader*, waits up to
/// [`BatchConfig::window`] for co-travellers (or until
/// [`BatchConfig::max_batch`] are pending, or the batcher drains), then
/// runs the whole batch on its own thread and demultiplexes the outcomes
/// back to each submitter exactly once.
pub struct Batcher {
    cfg: BatchConfig,
    inner: Mutex<Collector>,
    cv: Condvar,
    draining: AtomicBool,
    batches: Counter,
    queries: Counter,
    enqueued: Counter,
    delivered: Counter,
    size_hist: LogHistogram,
    fill_hist: LogHistogram,
}

impl Batcher {
    /// A batcher with the given window and size bound.
    pub fn new(cfg: BatchConfig) -> Self {
        Batcher {
            cfg,
            inner: Mutex::new(Collector {
                queue: Vec::new(),
                next_ticket: 0,
                leader_active: false,
            }),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
            batches: Counter::new(),
            queries: Counter::new(),
            enqueued: Counter::new(),
            delivered: Counter::new(),
            size_hist: LogHistogram::new(),
            fill_hist: LogHistogram::new(),
        }
    }

    /// The configuration this batcher runs with.
    pub fn config(&self) -> BatchConfig {
        self.cfg
    }

    /// Submit one request and block until its outcome is ready. `run`
    /// executes a whole batch (this request plus any co-batched ones) and
    /// is called by whichever submitter ends up leading; it must return
    /// exactly one outcome per request, in request order.
    ///
    /// # Panics
    /// Re-raises a panic of the batch runner on the leader's thread;
    /// followers of a panicked batch receive [`LaneOutcome::Panicked`].
    pub fn submit<F>(&self, req: BatchRequest, run: F) -> LaneOutcome
    where
        F: FnOnce(Vec<BatchRequest>) -> Vec<LaneOutcome>,
    {
        self.enqueued.inc();
        if self.cfg.max_batch <= 1 || self.cfg.window.is_zero() {
            // Degenerate config: no batch can form, run alone. (The
            // engine facade bypasses the batcher entirely at window 0;
            // this path keeps the accounting exact if one is built
            // anyway.)
            let out = self.run_closed_batch(vec![req], Vec::new(), Duration::ZERO, run);
            self.delivered.inc();
            return out;
        }

        let mut inner = lock(&self.inner);
        let req = if inner.leader_active {
            // Follower: enqueue, then wait to be claimed by a closing
            // leader — or, if the leader finishes (or dies) without
            // claiming this entry, promote to leader of the next batch.
            // The current leader keeps `leader_active` through its whole
            // execution, so arrivals during a running batch pool up here
            // and fuse into one wide follow-up batch instead of racing
            // off as concurrent singletons.
            let (tx, rx) = mpsc::channel();
            let ticket = inner.next_ticket;
            inner.next_ticket += 1;
            inner.queue.push((ticket, req, tx));
            if inner.queue.len() + 1 >= self.cfg.max_batch {
                self.cv.notify_all();
            }
            loop {
                match inner.queue.iter().position(|(t, _, _)| *t == ticket) {
                    None => {
                        // Claimed: the leader owns this entry and will
                        // send exactly one outcome (or drop the sender
                        // if it panics).
                        drop(inner);
                        let out = rx.recv().unwrap_or_else(|_| {
                            LaneOutcome::Panicked(Box::new("co-batched batch leader panicked"))
                        });
                        self.delivered.inc();
                        return out;
                    }
                    Some(pos) if !inner.leader_active => {
                        // No leader left and this entry is still queued:
                        // take the lead ourselves.
                        let (_, req, _tx) = inner.queue.remove(pos);
                        break req;
                    }
                    Some(_) => {
                        inner =
                            self.cv.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                }
            }
        } else {
            req
        };

        // Leader (first arrival, or a promoted follower): hold the
        // collection window open, then claim at most `max_batch - 1`
        // queued co-travellers — oldest first; any overflow stays queued
        // for the next leader.
        inner.leader_active = true;
        let guard = LeaderGuard { batcher: self };
        let opened = Instant::now();
        loop {
            let pending = inner.queue.len() + 1;
            let draining = self.draining.load(Ordering::Relaxed);
            if close_reason(pending, opened.elapsed(), draining, &self.cfg).is_some() {
                break;
            }
            let remaining = self.cfg.window.saturating_sub(opened.elapsed());
            inner = self
                .cv
                .wait_timeout(inner, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
        let claim = inner.queue.len().min(self.cfg.max_batch - 1);
        let followers: Vec<_> = inner.queue.drain(..claim).collect();
        drop(inner);
        // Wake claimed followers so they settle onto their channels (and
        // unclaimed ones re-check, see a live leader, and keep waiting).
        self.cv.notify_all();

        let mut reqs = Vec::with_capacity(1 + followers.len());
        reqs.push(req);
        let mut txs = Vec::with_capacity(followers.len());
        for (_, r, tx) in followers {
            reqs.push(r);
            txs.push(tx);
        }
        // `leader_active` stays set while the batch runs; the guard
        // clears it (and notifies) afterwards — panic included.
        let out = self.run_closed_batch(reqs, txs, opened.elapsed(), run);
        drop(guard);
        self.delivered.inc();
        out
    }

    /// Run a closed batch, record its metrics, and demux the outcomes:
    /// slot 0 (the leader's own request) is returned, slots 1.. are sent
    /// to the followers' channels.
    fn run_closed_batch<F>(
        &self,
        reqs: Vec<BatchRequest>,
        txs: Vec<mpsc::Sender<LaneOutcome>>,
        fill: Duration,
        run: F,
    ) -> LaneOutcome
    where
        F: FnOnce(Vec<BatchRequest>) -> Vec<LaneOutcome>,
    {
        let co = reqs.len();
        self.batches.inc();
        self.queries.add(co as u64);
        self.size_hist.record(co as u64);
        self.fill_hist.record(u64::try_from(fill.as_micros()).unwrap_or(u64::MAX));
        match catch_unwind(AssertUnwindSafe(|| run(reqs))) {
            Ok(mut outs) => {
                debug_assert_eq!(outs.len(), co, "batch runner must answer every request");
                let mut rest = outs.split_off(1.min(outs.len()));
                let mine = outs.pop().unwrap_or_else(|| {
                    LaneOutcome::Panicked(Box::new("batch runner returned no outcomes"))
                });
                for tx in txs {
                    let out = if rest.is_empty() {
                        LaneOutcome::Panicked(Box::new("batch runner under-delivered"))
                    } else {
                        rest.remove(0)
                    };
                    let _ = tx.send(out);
                }
                mine
            }
            Err(payload) => {
                // Dropping the senders fails every follower's `recv`,
                // which they surface as a panicked lane; the leader
                // re-raises the original payload.
                drop(txs);
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Start draining: pending and future collection windows close
    /// immediately ([`CloseReason::QueueDrained`]), so no submitter waits
    /// out a window during shutdown.
    pub fn flush(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Monitoring snapshot.
    pub fn stats(&self) -> BatchStats {
        BatchStats {
            window_us: u64::try_from(self.cfg.window.as_micros()).unwrap_or(u64::MAX),
            max_batch: self.cfg.max_batch,
            batches: self.batches.get(),
            queries: self.queries.get(),
            enqueued: self.enqueued.get(),
            delivered: self.delivered.get(),
            size: self.size_hist.snapshot(),
            fill_us: self.fill_hist.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, SeqEngine,
    };
    use crate::trace::TraceLevel;
    use kgraph::GraphBuilder;
    use proptest::prelude::*;
    use std::sync::Arc;
    use textindex::InvertedIndex;

    fn fixture() -> (KnowledgeGraph, InvertedIndex) {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "xml standard");
        let r = b.add_node("r", "rdf model");
        let s = b.add_node("s", "sql database");
        let q = b.add_node("q", "query language");
        let h = b.add_node("h", "hub");
        b.add_edge(x, q, "e");
        b.add_edge(r, q, "e");
        b.add_edge(s, q, "e");
        b.add_edge(x, h, "e");
        b.add_edge(r, h, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        (g, idx)
    }

    fn request(idx: &InvertedIndex, raw: &str) -> BatchRequest {
        BatchRequest {
            query: ParsedQuery::parse(idx, raw),
            params: SearchParams::default().with_average_distance(1.0),
            budget: QueryBudget::unlimited(),
        }
    }

    fn solo_engine(backend: ShardBackend) -> Box<dyn KeywordSearchEngine> {
        match backend {
            ShardBackend::Seq => Box::new(SeqEngine::new()),
            ShardBackend::ParCpu(t) => Box::new(ParCpuEngine::new(t)),
            ShardBackend::GpuStyle(t) => Box::new(GpuStyleEngine::new(t)),
            ShardBackend::DynPar(t) => Box::new(DynParEngine::new(t)),
        }
    }

    fn assert_same_outcome(batched: &SearchOutcome, solo: &SearchOutcome, tag: &str) {
        assert_eq!(batched.answers.len(), solo.answers.len(), "{tag}: answer count");
        for (a, b) in batched.answers.iter().zip(&solo.answers) {
            assert_eq!(a.central, b.central, "{tag}");
            assert_eq!(a.depth, b.depth, "{tag}");
            assert_eq!(a.nodes, b.nodes, "{tag}");
            assert_eq!(a.edges, b.edges, "{tag}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{tag}: score bits");
        }
        assert_eq!(batched.stats.last_level, solo.stats.last_level, "{tag}");
        assert_eq!(batched.stats.central_candidates, solo.stats.central_candidates, "{tag}");
        assert_eq!(batched.stats.peak_frontier, solo.stats.peak_frontier, "{tag}");
        assert_eq!(batched.stats.trace, solo.stats.trace, "{tag}");
    }

    #[test]
    fn batched_answers_match_solo_on_all_backends() {
        let (g, idx) = fixture();
        let raws = ["xml rdf", "sql xml", "rdf query", "xml rdf sql"];
        for backend in [
            ShardBackend::Seq,
            ShardBackend::ParCpu(3),
            ShardBackend::GpuStyle(3),
            ShardBackend::DynPar(3),
        ] {
            let exec = BatchExecutor::new(backend);
            let reqs: Vec<BatchRequest> = raws.iter().map(|r| request(&idx, r)).collect();
            let outs = exec.run_batch(&g, &reqs);
            let engine = solo_engine(backend);
            for (raw, out) in raws.iter().zip(outs) {
                let LaneOutcome::Done(Ok(batched)) = out else {
                    panic!("{backend:?} {raw}: batched lane failed");
                };
                let solo = engine.search(&g, &ParsedQuery::parse(&idx, raw), &reqs[0].params);
                assert_same_outcome(&batched, &solo, &format!("{backend:?} {raw}"));
            }
        }
    }

    #[test]
    fn traced_batches_match_solo_traces_modulo_annotations() {
        let (g, idx) = fixture();
        let exec = BatchExecutor::new(ShardBackend::Seq);
        let mut reqs: Vec<BatchRequest> = ["xml rdf", "sql query", "xml sql rdf"]
            .iter()
            .map(|r| request(&idx, r))
            .collect();
        for r in &mut reqs {
            r.params.trace = TraceLevel::Full;
        }
        let outs = exec.run_batch(&g, &reqs);
        let engine = SeqEngine::new();
        for (req, out) in reqs.iter().zip(outs) {
            let LaneOutcome::Done(Ok(batched)) = out else {
                panic!("lane failed")
            };
            let solo = engine.search(&g, &req.query, &req.params);
            let mut bt = *batched.trace.expect("traced");
            let st = *solo.trace.expect("traced");
            assert_eq!(bt.batch_id, Some(0), "first batch of this executor");
            assert_eq!(bt.co_batched, Some(3));
            // The annotations and wall-clock phases are the only deltas.
            bt.batch_id = None;
            bt.co_batched = None;
            bt.phase_ms = st.phase_ms;
            assert_eq!(bt, st);
        }
    }

    #[test]
    fn budget_isolation_one_exhausted_lane_never_perturbs_the_rest() {
        let (g, idx) = fixture();
        let exec = BatchExecutor::new(ShardBackend::Seq);
        let mut reqs: Vec<BatchRequest> =
            ["xml rdf", "sql xml", "rdf query"].iter().map(|r| request(&idx, r)).collect();
        // Lane 1 gets a 1-unit expansion cap: it must fail, alone.
        reqs[1].budget = QueryBudget::unlimited().with_max_expansions(1);
        let outs = exec.run_batch(&g, &reqs);
        let engine = SeqEngine::new();
        for (slot, (req, out)) in reqs.iter().zip(outs).enumerate() {
            let LaneOutcome::Done(verdict) = out else {
                panic!("no panic expected")
            };
            if slot == 1 {
                assert_eq!(verdict.unwrap_err(), SearchError::BudgetExhausted { limit: 1 });
            } else {
                let batched = verdict.expect("healthy lane");
                let solo = engine.search(&g, &req.query, &req.params);
                assert_same_outcome(&batched, &solo, &format!("lane {slot}"));
            }
        }
    }

    #[test]
    fn empty_and_matching_queries_share_a_batch() {
        let (g, idx) = fixture();
        let exec = BatchExecutor::new(ShardBackend::Seq);
        let reqs =
            vec![request(&idx, "zzz unknown"), request(&idx, "xml rdf"), request(&idx, "qqq")];
        let outs = exec.run_batch(&g, &reqs);
        assert_eq!(outs.len(), 3);
        let LaneOutcome::Done(Ok(empty)) = &outs[0] else {
            panic!()
        };
        assert!(empty.answers.is_empty());
        let LaneOutcome::Done(Ok(real)) = &outs[1] else {
            panic!()
        };
        assert!(!real.answers.is_empty());
    }

    #[test]
    fn state_freelist_reuses_and_quarantines() {
        let (g, idx) = fixture();
        let exec = BatchExecutor::new(ShardBackend::Seq);
        let reqs = vec![request(&idx, "xml rdf")];
        exec.run_batch(&g, &reqs);
        assert_eq!(lock(&exec.states).len(), 1, "state returned to the freelist");
        exec.run_batch(&g, &reqs);
        assert_eq!(lock(&exec.states).len(), 1, "state reused, not duplicated");
        assert_eq!(exec.states_created.get(), 1);
        assert_eq!(exec.states_quarantined(), 0);
    }

    #[test]
    fn invalid_params_panic_stays_on_its_lane() {
        let (g, idx) = fixture();
        let exec = BatchExecutor::new(ShardBackend::Seq);
        let mut bad = request(&idx, "xml rdf");
        bad.params.alpha = 2.0; // fails validate() → solo path panics
        let reqs = vec![request(&idx, "sql query"), bad, request(&idx, "xml sql")];
        let outs = exec.run_batch(&g, &reqs);
        assert!(matches!(outs[0], LaneOutcome::Done(Ok(_))));
        assert!(matches!(outs[1], LaneOutcome::Panicked(_)));
        assert!(matches!(outs[2], LaneOutcome::Done(Ok(_))));
    }

    #[test]
    fn batch_state_rearm_isolates_batches() {
        let (g, idx) = fixture();
        let q1 = ParsedQuery::parse(&idx, "xml rdf");
        let q2 = ParsedQuery::parse(&idx, "sql query");
        let mut s = BatchState::empty();
        s.begin_batch(g.num_nodes(), &[&q1, &q2]);
        s.lane(0).set_hit(4, 0, 3);
        s.lane(1).mark_central(4, 2);
        assert_eq!(s.lane(0).hit(4, 0), 3);
        assert_eq!(s.lane(1).central_depth(4), Some(2));
        s.begin_batch(g.num_nodes(), &[&q2]);
        assert_eq!(s.lane(0).central_depth(4), None, "previous batch's marks must not leak");
        assert_eq!(s.lane(0).hit(0, 0), INFINITE_LEVEL, "x is not a source of sql");
        assert_eq!(s.lane(0).hit(2, 0), 0, "s is the sql source");
    }

    #[test]
    fn batch_state_rearm_survives_width_changes() {
        let (g, idx) = fixture();
        let q = ParsedQuery::parse(&idx, "xml rdf");
        let wide: Vec<&ParsedQuery> = (0..8).map(|_| &q).collect();
        let mut s = BatchState::empty();
        s.begin_batch(g.num_nodes(), &wide);
        for lane in 0..8 {
            s.lane(lane).set_hit(4, 1, 9);
            s.lane(lane).mark_central(4, 3);
        }
        // Narrowing reuses the same (larger) buffers; nothing from the
        // wide batch may leak through, whatever the lane now maps to.
        s.begin_batch(g.num_nodes(), &[&q]);
        assert_eq!(s.lane(0).hit(4, 1), INFINITE_LEVEL, "wide-batch write must not survive");
        assert_eq!(s.lane(0).central_depth(4), None);
        assert_eq!(s.lane(0).hit(0, 0), 0, "sources re-seeded after the re-arm");
        assert!(s.lane(0).is_keyword_node(0));
        assert!(!s.lane(0).is_keyword_node(2), "s holds no keyword of \"xml rdf\"");
    }

    // --- Batcher unit + model tests ---------------------------------------

    fn echo_run(reqs: Vec<BatchRequest>) -> Vec<LaneOutcome> {
        reqs.iter().map(|_| LaneOutcome::Done(Ok(SearchOutcome::default()))).collect()
    }

    #[test]
    fn close_reason_priorities() {
        let cfg = BatchConfig::new(Duration::from_millis(5), 4);
        assert_eq!(close_reason(1, Duration::ZERO, false, &cfg), None);
        assert_eq!(close_reason(4, Duration::ZERO, false, &cfg), Some(CloseReason::BatchFull));
        assert_eq!(close_reason(1, Duration::ZERO, true, &cfg), Some(CloseReason::QueueDrained));
        assert_eq!(
            close_reason(1, Duration::from_millis(5), false, &cfg),
            Some(CloseReason::WindowElapsed)
        );
        // Full wins over draining wins over the window.
        assert_eq!(
            close_reason(4, Duration::from_secs(1), true, &cfg),
            Some(CloseReason::BatchFull)
        );
        assert_eq!(
            close_reason(2, Duration::from_secs(1), true, &cfg),
            Some(CloseReason::QueueDrained)
        );
    }

    #[test]
    fn solo_submit_runs_as_a_batch_of_one() {
        let b = Batcher::new(BatchConfig::new(Duration::ZERO, 16));
        let (g, idx) = fixture();
        let exec = BatchExecutor::new(ShardBackend::Seq);
        let out = b.submit(request(&idx, "xml rdf"), |reqs| exec.run_batch(&g, &reqs));
        assert!(matches!(out, LaneOutcome::Done(Ok(_))));
        let stats = b.stats();
        assert_eq!((stats.batches, stats.queries), (1, 1));
        assert_eq!((stats.enqueued, stats.delivered), (1, 1));
        assert_eq!(stats.size.percentile(1.0), 1);
    }

    #[test]
    fn concurrent_submits_fuse_into_one_batch() {
        let b = Arc::new(Batcher::new(BatchConfig::new(Duration::from_millis(300), 8)));
        let (g, idx) = fixture();
        let exec = Arc::new(BatchExecutor::new(ShardBackend::Seq));
        let g = Arc::new(g);
        let mut handles = Vec::new();
        for raw in ["xml rdf", "sql xml", "rdf query", "xml sql rdf"] {
            let (b, exec, g, req) =
                (Arc::clone(&b), Arc::clone(&exec), Arc::clone(&g), request(&idx, raw));
            handles
                .push(std::thread::spawn(move || b.submit(req, |reqs| exec.run_batch(&g, &reqs))));
        }
        for h in handles {
            assert!(matches!(h.join().unwrap(), LaneOutcome::Done(Ok(_))));
        }
        let stats = b.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.enqueued, 4);
        assert_eq!(stats.delivered, 4, "demux is exactly-once");
        assert!(
            stats.batches < 4,
            "a 300ms window must fuse at least two of the four ({} batches)",
            stats.batches
        );
    }

    #[test]
    fn max_batch_closes_the_window_early() {
        let b = Arc::new(Batcher::new(BatchConfig::new(Duration::from_secs(30), 2)));
        let (g, idx) = fixture();
        let exec = Arc::new(BatchExecutor::new(ShardBackend::Seq));
        let g = Arc::new(g);
        let started = Instant::now();
        let mut handles = Vec::new();
        for raw in ["xml rdf", "sql xml"] {
            let (b, exec, g, req) =
                (Arc::clone(&b), Arc::clone(&exec), Arc::clone(&g), request(&idx, raw));
            handles
                .push(std::thread::spawn(move || b.submit(req, |reqs| exec.run_batch(&g, &reqs))));
        }
        for h in handles {
            assert!(matches!(h.join().unwrap(), LaneOutcome::Done(Ok(_))));
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "a full batch must not wait out a 30s window"
        );
        assert_eq!(b.stats().batches, 1);
    }

    #[test]
    fn flush_closes_a_waiting_leader_immediately() {
        let b = Arc::new(Batcher::new(BatchConfig::new(Duration::from_secs(30), 8)));
        let (g, idx) = fixture();
        let exec = Arc::new(BatchExecutor::new(ShardBackend::Seq));
        let g = Arc::new(g);
        let leader = {
            let (b, exec, g, req) =
                (Arc::clone(&b), Arc::clone(&exec), Arc::clone(&g), request(&idx, "xml rdf"));
            std::thread::spawn(move || b.submit(req, |reqs| exec.run_batch(&g, &reqs)))
        };
        // Wait for the leader to open its window, then drain.
        while b.stats().enqueued == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(20));
        let started = Instant::now();
        b.flush();
        assert!(matches!(leader.join().unwrap(), LaneOutcome::Done(Ok(_))));
        assert!(started.elapsed() < Duration::from_secs(10), "flush must close the window");
        let stats = b.stats();
        assert_eq!((stats.enqueued, stats.delivered), (1, 1));
    }

    #[test]
    fn panicking_runner_fails_leader_and_followers() {
        let b = Batcher::new(BatchConfig::new(Duration::ZERO, 1));
        let (_, idx) = fixture();
        let result = catch_unwind(AssertUnwindSafe(|| {
            b.submit(request(&idx, "xml"), |_| panic!("runner exploded"))
        }));
        assert!(result.is_err(), "the leader re-raises the runner's panic");
        let stats = b.stats();
        assert_eq!(stats.enqueued, 1);
        assert_eq!(stats.delivered, 0, "a panicked lane is not a delivery");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Model check: the close oracle fires exactly when one of its
        /// three conditions holds, and names the highest-priority one.
        #[test]
        fn close_reason_model(
            pending in 0usize..130,
            waited_us in 0u64..2_000,
            window_us in 0u64..2_000,
            max_batch in 1usize..100,
            draining in true, // the shim: any bool literal is a coin flip
        ) {
            let cfg = BatchConfig::new(Duration::from_micros(window_us), max_batch);
            let waited = Duration::from_micros(waited_us);
            let got = close_reason(pending, waited, draining, &cfg);
            let full = pending >= cfg.max_batch;
            let timed = waited >= cfg.window;
            let expected = if full {
                Some(CloseReason::BatchFull)
            } else if draining {
                Some(CloseReason::QueueDrained)
            } else if timed {
                Some(CloseReason::WindowElapsed)
            } else {
                None
            };
            prop_assert_eq!(got, expected);
        }

        /// Model check: demux accounting is exactly-once over arbitrary
        /// interleavings of submitter threads and batch sizes.
        #[test]
        fn demux_exactly_once(
            submitters in 1usize..10,
            max_batch in 1usize..6,
            window_ms in 0u64..20,
        ) {
            let b = Arc::new(Batcher::new(BatchConfig::new(
                Duration::from_millis(window_ms),
                max_batch,
            )));
            let handles: Vec<_> = (0..submitters)
                .map(|_| {
                    let b = Arc::clone(&b);
                    std::thread::spawn(move || {
                        let req = BatchRequest {
                            query: ParsedQuery::default(),
                            params: SearchParams::default(),
                            budget: QueryBudget::unlimited(),
                        };
                        b.submit(req, echo_run)
                    })
                })
                .collect();
            for h in handles {
                prop_assert!(matches!(h.join().unwrap(), LaneOutcome::Done(Ok(_))));
            }
            let stats = b.stats();
            prop_assert_eq!(stats.enqueued, submitters as u64);
            prop_assert_eq!(stats.delivered, submitters as u64);
            prop_assert_eq!(stats.queries, submitters as u64);
            prop_assert_eq!(stats.size.count, stats.batches);
            prop_assert!(stats.batches >= submitters.div_ceil(MAX_BATCH_LANES) as u64);
        }
    }
}
