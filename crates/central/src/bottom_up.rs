//! Stage 1: bottom-up search (paper Algorithm 1 lines 1–7 and
//! Algorithm 2), solving the top-(k,d) Central Graph problem — and the
//! **one** place in this crate that knows the level-synchronous algorithm.
//!
//! Per level the search (1) drains `FIdentifier` into the joint frontier
//! queue, (2) identifies Central Nodes among the frontiers (Lemma V.1),
//! (3) stops if `k` central nodes exist (Def. 4 — the current level is then
//! the minimal depth `d`), and otherwise (4) runs the expansion procedure.
//! That is stated once, as four shared pieces every execution shape (solo
//! matrix engines, CPU-Par-d, the shard coordinator) is a thin adapter
//! over:
//!
//! * [`pre_flight`] — validate, arm the budget tracker, first checkpoint,
//!   fault hook, empty-query short-circuit;
//! * [`LevelOps`] + [`LevelRun`] + [`drive`] — the three-method seam a
//!   shape implements (`enqueue` / `identify` / `expand`, the last
//!   including any boundary exchange), the per-query bookkeeping (level
//!   counter, cohort, per-level traces, termination, phase timing), and
//!   the only loop that steps one over the other;
//! * the kernel — [`expand_frontier`] / [`expand_work_item`] /
//!   [`identify_sequential`] / [`observe_level`] over the one
//!   [`SearchState`] layout, under [`expand_level`]'s or
//!   [`expand_work_items`]' scheduling;
//! * [`LevelRun::finish`] — the top-down stage (Algorithm 3,
//!   [`crate::top_down`]) over the one [`crate::state::HitBlock`] every
//!   shape fills, with the shape's predecessor oracle as a closure, and
//!   outcome assembly.
//!
//! The *semantics* are identical across shapes and schedulings (Theorem
//! V.2), which the differential suites verify byte for byte.

use crate::activation::ActivationMap;
use crate::budget::{BudgetTracker, QueryBudget};
use crate::engine::{claim_runs, SearchOutcome, SearchStats, FRONTIER_CLAIM};
use crate::error::SearchError;
use crate::model::INFINITE_LEVEL;
use crate::profile::PhaseProfile;
use crate::state::{HitBlock, SearchState};
use crate::top_down::{self, PredSink, Stage, TopDownScratch};
use crate::trace::{PhaseMillis, QueryTrace, TraceLevelRecord};
use crate::SearchParams;
use kgraph::{KnowledgeGraph, NodeId};
use rayon::prelude::*;
use std::time::{Duration, Instant};
use textindex::ParsedQuery;

/// Everything an expansion step needs (read-only except for `state`'s
/// atomics).
pub struct ExpandCtx<'a> {
    /// The data graph.
    pub graph: &'a KnowledgeGraph,
    /// Activation oracle (`a_v` from `w_v` and `α`, or explicit).
    pub act: &'a ActivationMap<'a>,
    /// Shared lock-free search state.
    pub state: &'a SearchState,
    /// Budget accounting: every expansion unit is charged here, and a
    /// tripped budget makes further expansion a no-op (the driver then
    /// surfaces the error at its next level checkpoint).
    pub budget: &'a BudgetTracker,
}

/// Expand one frontier node across **all** BFS instances — the body of
/// Algorithm 2's outer loop. This is the unit of work of the coarse-grained
/// CPU strategy (one OpenMP/rayon task per frontier, dynamically
/// scheduled).
#[inline]
pub fn expand_frontier(ctx: &ExpandCtx<'_>, f: u32, level: u8) {
    let state = ctx.state;
    if ctx.budget.cancelled() {
        return;
    }
    ctx.budget.charge(state.num_keywords() as u64);
    // Central Nodes are unavailable for expansion (Alg. 2 lines 2–3).
    if state.is_central(f) {
        return;
    }
    let vf = NodeId(f);
    // A node expands only once the level reaches its activation (lines 4–7);
    // until then it stays a frontier.
    if ctx.act.level(vf) > level {
        state.mark_frontier(f);
        return;
    }
    for i in 0..state.num_keywords() {
        expand_instance(ctx, f, vf, i, level);
    }
}

/// Expand one `(frontier, BFS instance)` pair — the body of Algorithm 2's
/// middle loop, and the warp-level work item of the GPU strategy.
#[inline]
pub fn expand_work_item(ctx: &ExpandCtx<'_>, f: u32, i: usize, level: u8) {
    let state = ctx.state;
    if ctx.budget.cancelled() {
        return;
    }
    ctx.budget.charge(1);
    if state.is_central(f) {
        return;
    }
    let vf = NodeId(f);
    if ctx.act.level(vf) > level {
        state.mark_frontier(f);
        return;
    }
    expand_instance(ctx, f, vf, i, level);
}

/// Inner loop shared by both granularities: push instance `i` of frontier
/// `f` one step (Alg. 2 lines 8–22).
#[inline]
fn expand_instance(ctx: &ExpandCtx<'_>, f: u32, vf: NodeId, i: usize, level: u8) {
    let state = ctx.state;
    // The frontier must already be hit in this instance (line 9–11).
    let hf = state.hit(f, i);
    if hf > level {
        return; // includes the ∞ sentinel
    }
    for adj in ctx.graph.neighbors(vf) {
        let n = adj.target().0;
        // Visited in B_i already (lines 13–15): both ∞→l+1 races and
        // stale reads are benign — any finite value means "skip".
        if state.hit(n, i) != INFINITE_LEVEL {
            continue;
        }
        // Non-keyword nodes cannot be hit before their activation allows
        // (lines 16–20); the frontier stays alive to retry next level.
        if !state.is_keyword_node(n) && ctx.act.level(adj.target()) > level + 1 {
            state.mark_frontier(f);
            continue;
        }
        state.set_hit(n, i, level + 1); // line 21
        state.mark_frontier(n); // line 22
    }
}

/// Run one level's expansion procedure over `frontiers`, a frontier at a
/// time in queue order: claimed in short runs by `pool`'s threads (CPU-Par's
/// coarse grain, "dynamically scheduled") or, without a pool, all by the
/// caller — the sequential engine, and an in-process shard lane, which
/// already sits inside its coordinator's sweep.
pub fn expand_level(
    pool: Option<&rayon::ThreadPool>,
    ctx: &ExpandCtx<'_>,
    frontiers: &[u32],
    level: u8,
) {
    claim_runs(pool, frontiers.len(), FRONTIER_CLAIM, |_worker, run| {
        frontiers[run].iter().for_each(|&f| expand_frontier(ctx, f, level));
        true
    });
}

/// One level's expansion as GPU-Par schedules it: one task of `pool` per
/// `(frontier, instance)` work item (the warp grid).
pub fn expand_work_items(
    pool: &rayon::ThreadPool,
    ctx: &ExpandCtx<'_>,
    frontiers: &[u32],
    level: u8,
) {
    let q = ctx.state.num_keywords();
    pool.install(|| {
        (0..frontiers.len() * q)
            .into_par_iter()
            .for_each(|w| expand_work_item(ctx, frontiers[w / q], w % q, level));
    });
}

/// Sequential frontier enqueue: scan `FIdentifier`, clearing flags and
/// appending set nodes. The paper found sequential enqueue fastest on CPU
/// (locked parallel writes are slower than one linear scan).
pub fn enqueue_sequential(state: &SearchState, out: &mut Vec<u32>) {
    out.clear();
    for v in 0..state.num_nodes() as u32 {
        if state.take_frontier_flag(v) {
            out.push(v);
        }
    }
}

/// Parallel frontier enqueue by block compaction — the GPU-style variant
/// (the paper parallelizes enqueue only on the GPU; on CPU it found the
/// sequential scan faster, which the `enqueue` Criterion bench confirms).
/// Each block drains its slice of `FIdentifier` into a local buffer;
/// blocks concatenate in order, so the result equals the sequential scan.
pub fn enqueue_parallel_compaction(
    pool: &rayon::ThreadPool,
    state: &SearchState,
    out: &mut Vec<u32>,
    block: usize,
) {
    out.clear();
    let n = state.num_nodes();
    let blocks: Vec<Vec<u32>> = pool.install(|| {
        (0..n.div_ceil(block))
            .into_par_iter()
            .map(|blk| {
                let lo = blk * block;
                let hi = (lo + block).min(n);
                let mut local = Vec::new();
                for v in lo as u32..hi as u32 {
                    if state.take_frontier_flag(v) {
                        local.push(v);
                    }
                }
                local
            })
            .collect()
    });
    for b in blocks {
        out.extend(b);
    }
}

/// A frontier whose `M` row is complete is newly central, with depth =
/// current level (Lemma V.1): mark it and report `true`.
#[inline]
fn identify_one(state: &SearchState, f: u32, level: u8) -> bool {
    let newly = !state.is_central(f) && state.row_complete(f);
    if newly {
        state.mark_central(f, level);
    }
    newly
}

/// Sequential Central Node identification over the current frontiers.
/// Fills `newly` with the newly identified nodes (sorted, since frontiers
/// are produced in id order).
pub fn identify_sequential(
    state: &SearchState,
    frontiers: &[u32],
    level: u8,
    newly: &mut Vec<u32>,
) {
    newly.clear();
    newly.extend(frontiers.iter().copied().filter(|&f| identify_one(state, f, level)));
}

/// Identification parallel over frontiers (each frontier is touched by
/// exactly one task, so the central flag needs no lock), sorted back into
/// the deterministic identification order.
pub fn identify_parallel(
    pool: &rayon::ThreadPool,
    state: &SearchState,
    frontiers: &[u32],
    level: u8,
    newly: &mut Vec<u32>,
) {
    newly.clear();
    let mut found: Vec<u32> = pool.install(|| {
        frontiers
            .par_iter()
            .copied()
            .filter(|&f| identify_one(state, f, level))
            .collect()
    });
    found.sort_unstable();
    newly.extend(found);
}

/// The traced-query observation of one level: how many keyword-hit cells
/// were first covered here (`new_hits`) and how many frontier nodes are
/// still gated by their activation level (`deferred`). O(frontier · q)
/// scans of the shape's hitting levels (`hit(f, i)`, over `q` keywords),
/// paid only on `traced` queries: zeros otherwise.
pub fn observe_level(
    traced: bool,
    hit: impl Fn(u32, usize) -> u8,
    q: usize,
    act: &ActivationMap<'_>,
    frontiers: &[u32],
    level: u8,
) -> (usize, usize) {
    if !traced {
        return (0, 0);
    }
    let mut new_hits = 0usize;
    let mut deferred = 0usize;
    for &f in frontiers {
        new_hits += (0..q).filter(|&i| hit(f, i) == level).count();
        if act.level(NodeId(f)) > level {
            deferred += 1;
        }
    }
    (new_hits, deferred)
}

/// Why the bottom-up stage stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationReason {
    /// At least `top_k` Central Nodes exist — depth `d` is minimal (Def. 4).
    EnoughCentralNodes,
    /// The joint frontier queue drained before `k` answers appeared.
    FrontierExhausted,
    /// The `lmax` level cap was reached.
    LevelCap,
}

/// Per-level trace entry: how the level-synchronous search progressed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelTrace {
    /// BFS expansion level.
    pub level: u8,
    /// Joint frontier size at this level.
    pub frontier: usize,
    /// Central Nodes newly identified at this level.
    pub identified: usize,
}

/// Reusable per-level buffers of one search lane. A
/// [`crate::session::SearchSession`] keeps one across queries so the warm
/// path re-enters the driver with capacity already grown to the working
/// set.
#[derive(Default)]
pub struct BottomUpScratch {
    /// Joint frontier queue, refilled per level by the enqueue step.
    pub frontiers: Vec<u32>,
    /// Shard lanes: Central Nodes newly identified at the current level,
    /// as local ids (the coordinator maps and merges them).
    pub newly: Vec<u32>,
    /// Shard lanes: `(global node, instance)` boundary cells that became
    /// `level + 1` this round.
    pub outbox: Vec<(u32, u32)>,
}

/// The verdict of a search: the outcome, or the budget error that cut it
/// short.
pub type Verdict = Result<SearchOutcome, SearchError>;

/// What [`pre_flight`] decided.
pub enum PreFlight {
    /// The search must run, under this armed tracker.
    Run(BudgetTracker),
    /// Short-circuited before any search ran; the verdict is final.
    Done(Verdict),
}

/// The pre-search sequence every execution shape shares: validate the
/// parameters against the `num_nodes`-node graph, arm the budget tracker,
/// fail an already-expired deadline deterministically before any work, run
/// the fault-injection hook, and short-circuit a query that matched no
/// keyword. Every shape calls it before arming any state or issuing any
/// RPC, so a bad query fails on its caller's thread and nowhere else.
///
/// # Panics
/// Panics if `params` fail [`SearchParams::validate`], or carry an explicit
/// activation table shorter than the graph (it would index out of range
/// mid-expansion).
pub fn pre_flight(
    query: &ParsedQuery,
    params: &SearchParams,
    budget: &QueryBudget,
    engine: &str,
    num_nodes: usize,
) -> PreFlight {
    if let Err(e) = params.validate() {
        panic!("invalid search parameters: {e}");
    }
    if let Some(levels) = &params.explicit_activation {
        assert!(
            levels.len() >= num_nodes,
            "explicit activation table holds {} levels for {num_nodes} nodes",
            levels.len()
        );
    }
    // Tracing arms the tracker in counting mode so per-level expansion
    // deltas are observable even without a cap; the untraced unlimited
    // path keeps its zero-atomic charge fast path.
    let tracker = if params.trace.enabled() {
        budget.start_counting()
    } else {
        budget.start()
    };
    if let Err(e) = tracker.checkpoint() {
        return PreFlight::Done(Err(e));
    }
    #[cfg(feature = "fault-inject")]
    if let Err(e) = crate::fault::inject(query, &tracker) {
        return PreFlight::Done(Err(e));
    }
    if query.is_empty() {
        let mut out = SearchOutcome::default();
        if params.trace.enabled() {
            // A trace with no levels: nothing matched, no search ran.
            out.trace =
                Some(Box::new(QueryTrace { engine: engine.to_string(), ..QueryTrace::default() }));
        }
        return PreFlight::Done(Ok(out));
    }
    PreFlight::Run(tracker)
}

/// The seam an execution shape implements: how one level's three phases
/// run against its state layout and across its exchange. [`drive`] owns
/// everything else. The associated error lets a shape with failure modes
/// of its own (a remote shard RPC) surface them through the same `?`.
pub trait LevelOps {
    /// The shape's failure type; budget trips convert into it.
    type Error: From<SearchError>;
    /// Drain `FIdentifier` into the shape's frontier queue(s); returns the
    /// joint frontier size.
    fn enqueue(&mut self) -> Result<usize, Self::Error>;
    /// Identify new Central Nodes among the frontiers at `level` (their
    /// depth, per Lemma V.1), appending them to the empty `newly` as
    /// ascending global ids. Returns the [`observe_level`] pair when
    /// `traced` (zeros otherwise).
    fn identify(
        &mut self,
        level: u8,
        traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<(usize, usize), Self::Error>;
    /// Run the expansion procedure for `level`, boundary exchange
    /// included, charging the search's tracker.
    fn expand(&mut self, level: u8) -> Result<(), Self::Error>;
}

/// The per-query bookkeeping of one level-synchronous search: level
/// counter, candidate cohort, per-level traces, the termination decision
/// and the phase profile. Stepped once per phase by [`drive`], consumed by
/// [`LevelRun::finish`].
pub struct LevelRun<'a> {
    params: &'a SearchParams,
    tracker: &'a BudgetTracker,
    /// Wall-clock per phase. The adapter sets `init`; [`drive`]
    /// accumulates the level phases, `finish` sets `top_down`.
    pub profile: PhaseProfile,
    /// Identification buffer of the current level: filled (ascending
    /// global ids) between `enqueued` and `identified`, which drains it
    /// into the cohort.
    newly: Vec<u32>,
    level: u8,
    frontier: usize,
    /// Identified Central Nodes with their depths, in identification
    /// order (ascending depth, then node id).
    cohort: Vec<(NodeId, u8)>,
    peak_frontier: usize,
    trace: Vec<LevelTrace>,
    /// Rich per-level records, collected only when the query asked for
    /// tracing.
    records: Option<Vec<TraceLevelRecord>>,
    /// Tracker reading before the current level's expansion (traced runs).
    charged_before: u64,
    terminated: Option<TerminationReason>,
}

impl<'a> LevelRun<'a> {
    /// Bookkeeping for one search under `params`, polling and reading
    /// `tracker` (the one [`pre_flight`] armed).
    pub fn new(params: &'a SearchParams, tracker: &'a BudgetTracker) -> Self {
        LevelRun {
            params,
            tracker,
            profile: PhaseProfile::default(),
            newly: Vec::new(),
            level: 0,
            frontier: 0,
            cohort: Vec::new(),
            peak_frontier: 0,
            trace: Vec::new(),
            records: params.trace.enabled().then(Vec::new),
            charged_before: 0,
            terminated: None,
        }
    }

    /// The candidate cohort identified so far (stage-2 tests drive
    /// [`top_down::top_down`] on it directly).
    #[cfg(test)]
    pub(crate) fn cohort(&self) -> &[(NodeId, u8)] {
        &self.cohort
    }

    /// Record this level's enqueue (`frontier` nodes drained in `took`).
    /// `false`: the joint frontier is exhausted and the stage is over.
    fn enqueued(&mut self, frontier: usize, took: Duration) -> bool {
        self.profile.enqueue += took;
        self.frontier = frontier;
        self.peak_frontier = self.peak_frontier.max(frontier);
        if frontier == 0 {
            self.terminated = Some(TerminationReason::FrontierExhausted);
        }
        frontier != 0
    }

    /// Record this level's identification — `newly` holds its cohort,
    /// `new_hits`/`deferred` its [`observe_level`] pair — and decide
    /// termination. `false`: the stage is over (`k` central nodes, which
    /// wins, or the level cap); `true`: expand this level.
    fn identified(&mut self, new_hits: usize, deferred: usize, took: Duration) -> bool {
        self.profile.identify += took;
        let (level, identified) = (self.level, self.newly.len());
        self.trace.push(LevelTrace { level, frontier: self.frontier, identified });
        if let Some(records) = self.records.as_mut() {
            records.push(TraceLevelRecord {
                level: u32::from(level),
                frontier: self.frontier,
                identified,
                new_hits,
                activation_deferred: deferred,
                expansions: 0, // filled in after this level's expansion runs
                budget_remaining: self.tracker.remaining(),
            });
            self.charged_before = self.tracker.expansions();
        }
        self.cohort.extend(self.newly.drain(..).map(|v| (NodeId(v), level)));
        self.terminated = if self.cohort.len() >= self.params.top_k {
            Some(TerminationReason::EnoughCentralNodes)
        } else if level >= self.params.max_level.min(254) {
            Some(TerminationReason::LevelCap)
        } else {
            None
        };
        self.terminated.is_none()
    }

    /// Record this level's expansion: back-fill the level's trace record
    /// with what the expansion charged, and advance to the next level.
    fn expanded(&mut self, took: Duration) {
        self.profile.expansion += took;
        if let Some(last) = self.records.as_mut().and_then(|r| r.last_mut()) {
            last.expansions = self.tracker.expansions() - self.charged_before;
            last.budget_remaining = self.tracker.remaining();
        }
        self.level += 1;
    }

    /// Run a shape's fill of the stage's block on the top-down clock: the
    /// fill is stage 2's first step, whoever performs it.
    pub fn timed_fill<R>(&mut self, fill: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let filled = fill();
        self.profile.top_down += t.elapsed();
        filled
    }

    /// Stage 2 and outcome assembly: [`top_down::top_down`] over the
    /// candidate cohort and `scratch.hits`, whose rows the shape has
    /// filled and whose central marks are the cohort's, set here —
    /// `preds(hits, j, sink)` being the shape's predecessor oracle (Theorem
    /// V.4 over `hits`, or CPU-Par-d's recorded paths) — on the caller's
    /// thread or dynamically scheduled over `pool`, with `scratch` as its
    /// reusable working memory. The cohort is ordered shallowest-first, so
    /// the `max_candidates` cap keeps the best-depth prefix. A budget trip
    /// mid-stage fails the whole search rather than returning a silently
    /// truncated answer set.
    pub fn finish<P>(
        self,
        engine: &str,
        graph: &KnowledgeGraph,
        pool: Option<&rayon::ThreadPool>,
        scratch: &mut TopDownScratch,
        preds: P,
    ) -> Verdict
    where
        P: Fn(&HitBlock, u32, &mut PredSink) + Sync,
    {
        let LevelRun { params, tracker, mut profile, mut cohort, .. } = self;
        let t = Instant::now();
        // Every identified node froze at its depth, capped away or not.
        for &(central, depth) in &cohort {
            scratch.hits.mark_central(central.0, depth);
        }
        cohort.truncate(params.max_candidates);
        let stage = Stage { graph, params, tracker, preds };
        let Some(answers) = top_down::top_down(&stage, &cohort, pool, scratch) else {
            return Err(tracker
                .error()
                .expect("a stopped top-down stage implies a tripped budget"));
        };
        profile.top_down += t.elapsed();

        let trace = self.records.map(|levels| {
            Box::new(QueryTrace {
                engine: engine.to_string(),
                keywords: scratch.hits.num_keywords(),
                total_expansions: tracker.expansions(),
                terminated: self.terminated == Some(TerminationReason::LevelCap),
                levels,
                phase_ms: PhaseMillis::from(&profile),
                ..QueryTrace::default()
            })
        });
        Ok(SearchOutcome {
            answers,
            profile,
            stats: SearchStats {
                last_level: self.level,
                central_candidates: cohort.len(),
                peak_frontier: self.peak_frontier,
                trace: self.trace,
            },
            trace,
        })
    }
}

/// The level-synchronous loop, stated once: per level, checkpoint the
/// budget (poll the deadline, surface a tripped budget), then `enqueue` →
/// `identify` → (unless terminated) `expand`. Returns once `run` has
/// settled its [`TerminationReason`]; an error from any phase surfaces
/// unchanged with `run` left at that level.
pub fn drive<O: LevelOps>(ops: &mut O, run: &mut LevelRun<'_>) -> Result<(), O::Error> {
    loop {
        run.tracker.checkpoint()?;
        let t = Instant::now();
        let frontier = ops.enqueue()?;
        if !run.enqueued(frontier, t.elapsed()) {
            return Ok(());
        }
        let t = Instant::now();
        let (new_hits, deferred) =
            ops.identify(run.level, run.records.is_some(), &mut run.newly)?;
        if !run.identified(new_hits, deferred, t.elapsed()) {
            return Ok(());
        }
        let t = Instant::now();
        ops.expand(run.level)?;
        run.expanded(t.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MatrixOps;
    use crate::trace::TraceLevel;
    use kgraph::GraphBuilder;
    use std::time::Duration;
    use textindex::{InvertedIndex, ParsedQuery};

    /// What the graph-backed driver tests inspect of a finished run.
    struct Out {
        central_nodes: Vec<(NodeId, u8)>,
        last_level: u8,
        terminated: TerminationReason,
    }

    /// Drive the sequential matrix ops over an armed `state`.
    fn drive_seq(
        g: &KnowledgeGraph,
        state: &SearchState,
        act: &ActivationMap<'_>,
        params: &SearchParams,
        budget: QueryBudget,
    ) -> Result<Out, SearchError> {
        let tracker = budget.start();
        let mut frontiers = Vec::new();
        let mut ops = MatrixOps {
            pool: None,
            work_items: false,
            ctx: ExpandCtx { graph: g, act, state, budget: &tracker },
            frontiers: &mut frontiers,
        };
        let mut run = LevelRun::new(params, &tracker);
        drive(&mut ops, &mut run)?;
        Ok(Out {
            central_nodes: run.cohort,
            last_level: run.level,
            terminated: run.terminated.expect("a finished drive has settled its termination"),
        })
    }

    fn run_on(
        g: &KnowledgeGraph,
        raw_query: &str,
        activation: Vec<u8>,
        top_k: usize,
    ) -> (Out, SearchState) {
        let idx = InvertedIndex::build(g);
        let q = ParsedQuery::parse(&idx, raw_query);
        let state = SearchState::new(g.num_nodes(), &q);
        let act = ActivationMap(&activation);
        let params = SearchParams::default().with_top_k(top_k);
        let out = drive_seq(g, &state, &act, &params, QueryBudget::unlimited())
            .expect("unlimited budget");
        (out, state)
    }

    /// The paper's Fig. 2: B0 from v0, B1 from {v1, v2}; v3 central at
    /// depth 1, v4 central at depth 2.
    fn fig2_graph() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let v0 = b.add_node("v0", "alpha");
        let v1 = b.add_node("v1", "beta");
        let v2 = b.add_node("v2", "beta");
        let v3 = b.add_node("v3", "mid");
        let v4 = b.add_node("v4", "far");
        b.add_edge(v0, v3, "e");
        b.add_edge(v1, v3, "e");
        b.add_edge(v3, v4, "e");
        b.add_edge(v1, v4, "e");
        b.add_edge(v2, v4, "e");
        b.build()
    }

    #[test]
    fn fig2_hitting_levels_and_central_nodes() {
        let g = fig2_graph();
        let (out, state) = run_on(&g, "alpha beta", vec![0; 5], 10);
        // Hitting levels per Example 1: h(v3, B0) = h(v3, B1) = 1 and
        // h(v4, B1) = 1 (v1→v4 directly).
        assert_eq!(state.hit(3, 0), 1);
        assert_eq!(state.hit(3, 1), 1);
        assert_eq!(state.hit(4, 1), 1);
        // v3 is central at depth 1. Definition 3 alone would also make v4
        // central at depth 2 (Example 3), but the algorithm's repetition
        // rule — "once a node is identified as a Central Node, it becomes
        // unavailable for future expansion" — stops B0 at v3, so B0 never
        // reaches v4 and the answer at v4 (a strict extension of v3's) is
        // deliberately not produced.
        assert_eq!(state.hit(4, 0), INFINITE_LEVEL);
        assert_eq!(out.central_nodes, vec![(NodeId(3), 1)]);
        assert_eq!(out.terminated, TerminationReason::FrontierExhausted);
    }

    #[test]
    fn top_k_terminates_at_minimal_depth() {
        let g = fig2_graph();
        let (out, _) = run_on(&g, "alpha beta", vec![0; 5], 1);
        // k = 1 ⇒ stop at depth 1 with only v3.
        assert_eq!(out.central_nodes, vec![(NodeId(3), 1)]);
        assert_eq!(out.terminated, TerminationReason::EnoughCentralNodes);
        assert_eq!(out.last_level, 1);
    }

    #[test]
    fn activation_delays_hits() {
        let g = fig2_graph();
        // v3 requires level 2 to accept expansion: the B0/B1 hits on v3 are
        // postponed (a_3 = 2 > l+1 until l = 1), and v4 is then reached
        // through v1/v2 directly for B1 and through v3 late for B0.
        let (out, state) = run_on(&g, "alpha beta", vec![0, 0, 0, 2, 0], 10);
        assert_eq!(state.hit(3, 0), 2, "v3 hit by B0 postponed to level 2");
        assert_eq!(state.hit(3, 1), 2);
        assert_eq!(state.hit(4, 1), 1, "v4 unaffected: direct from v1/v2");
        // With the delay, v3 completes its row at level 2 instead of 1.
        assert_eq!(out.central_nodes, vec![(NodeId(3), 2)]);
    }

    #[test]
    fn keyword_nodes_are_hit_regardless_of_activation() {
        // Sec. IV-B compromise: keyword nodes may be HIT at any level but
        // only EXPAND once active.
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "alpha");
        let k = b.add_node("k", "beta hub"); // keyword node with huge activation
        let c = b.add_node("c", "alpha");
        b.add_edge(a, k, "e");
        b.add_edge(k, c, "e");
        let g = b.build();
        let (out, state) = run_on(&g, "alpha beta", vec![0, 5, 0], 10);
        // k is hit by B0 at level 1 despite a_k = 5…
        assert_eq!(state.hit(1, 0), 1);
        assert_eq!(out.central_nodes[0], (NodeId(1), 1));
        // …and, being identified as central right away, never expands, so
        // c is never hit by B1 (it would also have been gated by a_k = 5).
        assert_eq!(state.hit(2, 1), INFINITE_LEVEL);
    }

    #[test]
    fn sources_covering_all_keywords_are_depth_zero_central() {
        let mut b = GraphBuilder::new();
        b.add_node("x", "apple banana");
        b.add_node("y", "apple");
        let g = b.build();
        let (out, _) = run_on(&g, "apple banana", vec![0; 2], 10);
        assert_eq!(out.central_nodes[0], (NodeId(0), 0));
    }

    #[test]
    fn disconnected_keywords_exhaust_frontier() {
        let mut b = GraphBuilder::new();
        b.add_node("x", "apple");
        b.add_node("y", "banana");
        let g = b.build();
        let (out, _) = run_on(&g, "apple banana", vec![0; 2], 10);
        assert!(out.central_nodes.is_empty());
        assert_eq!(out.terminated, TerminationReason::FrontierExhausted);
    }

    #[test]
    fn level_cap_stops_runaway_search() {
        // A long path between the two keywords; cap the level below the
        // distance.
        let mut b = GraphBuilder::new();
        let first = b.add_node("n0", "apple");
        let mut prev = first;
        for i in 1..40 {
            let v = b.add_node(&format!("n{i}"), "mid");
            b.add_edge(prev, v, "e");
            prev = v;
        }
        let last = b.add_node("z", "banana");
        b.add_edge(prev, last, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "apple banana");
        let state = SearchState::new(g.num_nodes(), &q);
        let activation = vec![0u8; g.num_nodes()];
        let act = ActivationMap(&activation);
        let params = SearchParams { max_level: 6, ..SearchParams::default().with_top_k(5) };
        let out = drive_seq(&g, &state, &act, &params, QueryBudget::unlimited())
            .expect("unlimited budget");
        assert_eq!(out.terminated, TerminationReason::LevelCap);
        assert!(out.central_nodes.is_empty());
        assert_eq!(out.last_level, 6);
    }

    /// Run the driver on the Fig. 2 graph under `budget` and return the
    /// result.
    fn run_budgeted(budget: QueryBudget) -> Result<Out, SearchError> {
        let g = fig2_graph();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha beta");
        let state = SearchState::new(g.num_nodes(), &q);
        let activation = vec![0u8; g.num_nodes()];
        let act = ActivationMap(&activation);
        drive_seq(&g, &state, &act, &SearchParams::default().with_top_k(10), budget)
    }

    #[test]
    fn expired_deadline_aborts_before_any_level() {
        let err = run_budgeted(QueryBudget::unlimited().with_timeout(Duration::ZERO))
            .err()
            .expect("an expired deadline must abort");
        assert_eq!(err, SearchError::DeadlineExceeded { limit: Duration::ZERO });
    }

    #[test]
    fn tiny_expansion_cap_aborts_the_search() {
        // Every frontier expansion charges q = 2 units; a 1-unit budget
        // trips during level 0 and surfaces at the level-1 checkpoint.
        let err = run_budgeted(QueryBudget::unlimited().with_max_expansions(1))
            .err()
            .expect("a 1-unit cap must abort");
        assert_eq!(err, SearchError::BudgetExhausted { limit: 1 });
    }

    #[test]
    fn generous_budget_changes_nothing() {
        let out = run_budgeted(
            QueryBudget::unlimited()
                .with_timeout(Duration::from_secs(60))
                .with_max_expansions(1_000_000),
        )
        .expect("generous budget must not trip");
        assert_eq!(out.central_nodes, vec![(NodeId(3), 1)]);
    }

    /// Paper Fig. 4 running example: keywords XML (T = {v9}),
    /// RDF (T = {v4, v5}), SQL (T = {v1}); activations as drawn; v2 is
    /// identified as the Central Node with depth 4.
    #[test]
    fn fig4_running_example() {
        let mut b = GraphBuilder::new();
        // Fig. 1 topology (edges as drawn, direction irrelevant to BFS).
        let texts: [(&str, &str); 10] = [
            ("v0", "Facebook Query Language"),
            ("v1", "SQL"),
            ("v2", "Query language"),
            ("v3", "XPath"),
            ("v4", "SPARQL query language for RDF"),
            ("v5", "RDF query language"),
            ("v6", "XPath 2"),
            ("v7", "XPath 3"),
            ("v8", "XQuery"),
            ("v9", "XML"),
        ];
        let ids: Vec<_> = texts.iter().map(|(k, t)| b.add_node(k, t)).collect();
        // v2 is the hub the keyword paths converge on; v9 (XML) reaches it
        // through the XPath family and XQuery, v4/v5 (RDF) both directly
        // and through XPath, v1 (SQL) directly — multi-paths per keyword,
        // as in Fig. 1.
        for (s, d) in [
            (0, 2),
            (1, 2),
            (3, 2),
            (8, 2),
            (4, 2),
            (5, 2),
            (4, 3),
            (5, 3),
            (6, 3),
            (7, 3),
            (9, 6),
            (9, 7),
            (9, 8),
        ] {
            b.add_edge(ids[s], ids[d], "e");
        }
        let g = b.build();
        // Activations from Fig. 4: v0:2, v1:1, v2:4, v3:2, v4:0, v5:1,
        // v6:0, v7:1, v8:0, v9:1. (Query terms: XML, RDF, SQL.)
        let activation = vec![2, 1, 4, 2, 0, 1, 0, 1, 0, 1];
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "XML RDF SQL");
        assert_eq!(q.num_keywords(), 3);
        let state = SearchState::new(g.num_nodes(), &q);
        let act = ActivationMap(&activation);
        let params = SearchParams::default().with_top_k(1);
        let out = drive_seq(&g, &state, &act, &params, QueryBudget::unlimited())
            .expect("unlimited budget");
        assert_eq!(out.central_nodes.len(), 1);
        let (central, depth) = out.central_nodes[0];
        assert_eq!(central, ids[2], "v2 is the Central Node");
        assert_eq!(depth, 4, "identified in the iteration after level 3");
        // Example 4's intermediate hitting levels: h6^0 = h7^0 = h8^0 = 2
        // via v9's expansion at level 1 — v9's BFS is instance 0 (XML).
        assert_eq!(state.hit(6, 0), 2);
        assert_eq!(state.hit(7, 0), 2);
        assert_eq!(state.hit(8, 0), 2);
        // h3^1 = 2: v3 accepts RDF expansion at level 1 (a3 = 2 ≤ l+1).
        assert_eq!(state.hit(3, 1), 2);
    }

    // --- The driver alone, against a scripted `LevelOps` fake -------------

    /// A non-`SearchError` failure type, as the remote adapter has.
    #[derive(Debug, PartialEq)]
    enum FakeError {
        Budget(SearchError),
        Scripted(&'static str, u8),
    }

    impl From<SearchError> for FakeError {
        fn from(e: SearchError) -> Self {
            FakeError::Budget(e)
        }
    }

    /// Scripted execution shape: per level a frontier size and the ids
    /// identified there (an absent level enqueues an empty frontier); an
    /// optional failure at one `(phase, level)`; `charge` units billed per
    /// expansion. Every call is logged as `<phase><level>`.
    struct Fake<'a> {
        script: Vec<(usize, Vec<u32>)>,
        fail_at: Option<(&'static str, u8)>,
        charge: u64,
        tracker: &'a BudgetTracker,
        enqueues: u8,
        log: Vec<String>,
    }

    impl<'a> Fake<'a> {
        fn new(script: Vec<(usize, Vec<u32>)>, tracker: &'a BudgetTracker) -> Self {
            Fake { script, fail_at: None, charge: 0, tracker, enqueues: 0, log: Vec::new() }
        }

        fn call(&mut self, phase: &'static str, level: u8) -> Result<(), FakeError> {
            self.log.push(format!("{phase}{level}"));
            if self.fail_at == Some((phase, level)) {
                return Err(FakeError::Scripted(phase, level));
            }
            Ok(())
        }
    }

    impl LevelOps for Fake<'_> {
        type Error = FakeError;

        fn enqueue(&mut self) -> Result<usize, FakeError> {
            let level = self.enqueues;
            self.enqueues += 1;
            self.call("enqueue", level)?;
            Ok(self.script.get(level as usize).map_or(0, |(frontier, _)| *frontier))
        }

        fn identify(
            &mut self,
            level: u8,
            traced: bool,
            newly: &mut Vec<u32>,
        ) -> Result<(usize, usize), FakeError> {
            self.call("identify", level)?;
            assert!(newly.is_empty(), "the driver hands identify an empty buffer");
            newly.extend_from_slice(&self.script[level as usize].1);
            Ok(if traced {
                (10 + level as usize, 20 + level as usize)
            } else {
                (0, 0)
            })
        }

        fn expand(&mut self, level: u8) -> Result<(), FakeError> {
            self.call("expand", level)?;
            self.tracker.charge(self.charge);
            Ok(())
        }
    }

    #[test]
    fn each_level_is_checkpoint_enqueue_identify_expand() {
        let params = SearchParams::default();
        let tracker = QueryBudget::unlimited().start();
        let mut fake = Fake::new(vec![(3, vec![]), (2, vec![5])], &tracker);
        let mut run = LevelRun::new(&params, &tracker);
        drive(&mut fake, &mut run).expect("nothing fails");
        assert_eq!(
            fake.log,
            [
                "enqueue0",
                "identify0",
                "expand0",
                "enqueue1",
                "identify1",
                "expand1",
                "enqueue2"
            ]
        );
        assert_eq!(run.terminated, Some(TerminationReason::FrontierExhausted));
        assert_eq!((run.level, run.peak_frontier), (2, 3));
        assert_eq!(run.cohort, [(NodeId(5), 1)]);

        // The checkpoint sits at the level head: a budget tripped by
        // level 0's expansion surfaces before level 1 enqueues anything…
        let tracker = QueryBudget::unlimited().with_max_expansions(1).start();
        let mut fake = Fake::new(vec![(3, vec![]), (2, vec![])], &tracker);
        fake.charge = 5;
        let mut run = LevelRun::new(&params, &tracker);
        let err = drive(&mut fake, &mut run).unwrap_err();
        assert_eq!(err, FakeError::Budget(SearchError::BudgetExhausted { limit: 1 }));
        assert_eq!(fake.log, ["enqueue0", "identify0", "expand0"]);
        assert_eq!(run.level, 1, "the failed checkpoint belongs to level 1");

        // …and an already-expired deadline fails before any phase runs.
        let tracker = QueryBudget::unlimited().with_timeout(Duration::ZERO).start();
        let mut fake = Fake::new(vec![(3, vec![])], &tracker);
        let mut run = LevelRun::new(&params, &tracker);
        let err = drive(&mut fake, &mut run).unwrap_err();
        assert_eq!(err, FakeError::Budget(SearchError::DeadlineExceeded { limit: Duration::ZERO }));
        assert!(fake.log.is_empty());
    }

    #[test]
    fn enough_central_nodes_wins_over_the_level_cap() {
        let params = SearchParams { max_level: 0, ..SearchParams::default().with_top_k(1) };
        let tracker = QueryBudget::unlimited().start();
        for (identified, expected) in [
            (vec![7], TerminationReason::EnoughCentralNodes),
            (vec![], TerminationReason::LevelCap),
        ] {
            let mut fake = Fake::new(vec![(4, identified)], &tracker);
            let mut run = LevelRun::new(&params, &tracker);
            drive(&mut fake, &mut run).expect("nothing fails");
            assert_eq!(run.terminated, Some(expected));
            assert_eq!(fake.log, ["enqueue0", "identify0"], "a terminated level never expands");
            assert_eq!(run.level, 0);
        }
    }

    #[test]
    fn an_empty_first_frontier_exhausts_at_level_zero() {
        let params = SearchParams::default().with_trace(TraceLevel::Full);
        let tracker = QueryBudget::unlimited().start_counting();
        let mut fake = Fake::new(vec![], &tracker);
        let mut run = LevelRun::new(&params, &tracker);
        drive(&mut fake, &mut run).expect("nothing fails");
        assert_eq!(fake.log, ["enqueue0"]);
        assert_eq!(run.terminated, Some(TerminationReason::FrontierExhausted));
        assert_eq!((run.level, run.peak_frontier), (0, 0));
        assert!(run.trace.is_empty(), "no level ran, so no LevelTrace");
        assert_eq!(run.records.as_deref(), Some(&[][..]));
    }

    #[test]
    fn a_phase_error_surfaces_unchanged_and_leaves_the_run_at_that_level() {
        let params = SearchParams::default();
        let tracker = QueryBudget::unlimited().start();
        for phase in ["enqueue", "identify", "expand"] {
            for n in [0u8, 2] {
                let mut fake = Fake::new((0..4).map(|l| (2, vec![l])).collect(), &tracker);
                fake.fail_at = Some((phase, n));
                let mut run = LevelRun::new(&params, &tracker);
                let err = drive(&mut fake, &mut run).unwrap_err();
                assert_eq!(err, FakeError::Scripted(phase, n), "the shape's own error type");
                assert_eq!(run.level, n, "{phase}{n}: the level counter must not advance");
                assert_eq!(run.terminated, None, "{phase}{n}: an error is not a termination");
                assert_eq!(fake.log.last().unwrap(), &format!("{phase}{n}"), "no call after it");
                // Levels before n completed; level n got as far as the
                // failing phase.
                let recorded = usize::from(n) + usize::from(phase == "expand");
                assert_eq!(run.trace.len(), recorded, "{phase}{n}");
                assert_eq!(run.cohort.len(), recorded, "{phase}{n}");
            }
        }
    }

    #[test]
    fn traced_runs_back_fill_exactly_the_last_record() {
        let params = SearchParams::default().with_top_k(2).with_trace(TraceLevel::Full);
        let tracker = QueryBudget::unlimited().with_max_expansions(100).start_counting();
        let mut fake = Fake::new(vec![(4, vec![]), (6, vec![9]), (3, vec![11])], &tracker);
        fake.charge = 5;
        let mut run = LevelRun::new(&params, &tracker);
        // Step level 0 by hand to watch the back-fill land.
        assert!(run.enqueued(fake.enqueue().unwrap(), Duration::ZERO));
        let (new_hits, deferred) = fake.identify(0, true, &mut run.newly).unwrap();
        assert!(run.identified(new_hits, deferred, Duration::ZERO));
        let before = run.records.as_ref().unwrap()[0].clone();
        assert_eq!((before.expansions, before.budget_remaining), (0, Some(100)));
        fake.expand(0).unwrap();
        run.expanded(Duration::ZERO);
        drive(&mut fake, &mut run).expect("nothing fails");

        assert_eq!(run.terminated, Some(TerminationReason::EnoughCentralNodes));
        let record = |level: u32, frontier, identified, expansions, remaining| TraceLevelRecord {
            level,
            frontier,
            identified,
            new_hits: 10 + level as usize,
            activation_deferred: 20 + level as usize,
            expansions,
            budget_remaining: Some(remaining),
        };
        assert_eq!(
            run.records.as_deref().unwrap(),
            [
                record(0, 4, 0, 5, 95),
                record(1, 6, 1, 5, 90),
                // The terminating level never expands: nothing to fill in.
                record(2, 3, 1, 0, 90),
            ]
        );
        assert_eq!(
            run.trace,
            [
                LevelTrace { level: 0, frontier: 4, identified: 0 },
                LevelTrace { level: 1, frontier: 6, identified: 1 },
                LevelTrace { level: 2, frontier: 3, identified: 1 },
            ]
        );
    }
}
