//! The four search engines of the paper's evaluation
//! (GPU-Par-structure, CPU-Par, CPU-Par-d, and the sequential reference),
//! behind one [`KeywordSearchEngine`] trait.
//!
//! None of them owns a level loop: each is a
//! [`crate::bottom_up::LevelOps`] adapter driven by
//! [`crate::bottom_up::drive`] and finished by
//! [`crate::bottom_up::LevelRun::finish`]. The three matrix engines share
//! one adapter (`MatrixOps`) and differ only in the pool and task grain
//! they hand it; CPU-Par-d brings its own locked state and expansion
//! (`par_dyn`).

mod gpu_style;
mod par_cpu;
pub(crate) mod par_dyn;
mod seq;

pub use gpu_style::GpuStyleEngine;
pub use par_cpu::ParCpuEngine;
pub use par_dyn::DynParEngine;
pub use seq::SeqEngine;

use crate::bottom_up::{self, ExpandCtx, LevelOps, LevelRun, PreFlight};
use crate::budget::{BudgetTracker, QueryBudget};
use crate::error::SearchError;
use crate::model::CentralGraph;
use crate::profile::PhaseProfile;
use crate::session::SearchSession;
use crate::top_down;
use crate::trace::QueryTrace;
use crate::SearchParams;
use kgraph::KnowledgeGraph;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use textindex::ParsedQuery;

/// Statistics of one search, beyond the answers themselves.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Last BFS level processed (`d` when enough answers were found).
    pub last_level: u8,
    /// Central nodes identified by the bottom-up stage (the top-(k,d) set
    /// size — a superset of the final top-k).
    pub central_candidates: usize,
    /// Peak joint-frontier-queue size.
    pub peak_frontier: usize,
    /// Per-level progression (frontier size, identifications per level).
    pub trace: Vec<crate::bottom_up::LevelTrace>,
}

/// Result of a keyword search: ranked answers plus per-phase timings.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// Final top-k Central Graphs, best (lowest Eq. 6 score) first.
    pub answers: Vec<CentralGraph>,
    /// Wall-clock per algorithm phase (Figs. 6–10).
    pub profile: PhaseProfile,
    /// Search statistics.
    pub stats: SearchStats,
    /// Rich per-query execution trace, present only when the query asked
    /// for it (`params.trace`). Boxed so the untraced path carries one
    /// null pointer.
    pub trace: Option<Box<QueryTrace>>,
}

/// A top-k Central Graph keyword-search engine.
///
/// All engines are semantically equivalent — same answers for the same
/// `(graph, query, params)` — and differ only in scheduling; that
/// equivalence is what makes the paper's efficiency comparison meaningful,
/// and it is enforced by this workspace's property tests.
pub trait KeywordSearchEngine {
    /// Engine display name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Run a budgeted top-k search through a reusable [`SearchSession`] —
    /// the warm path, and the one method engines implement. The session's
    /// epoch-stamped state and scratch buffers are re-armed in place, so a
    /// query on an already-used session allocates nothing proportional to
    /// `n · q`.
    ///
    /// A tripped budget returns `Err` and never a partial answer set; the
    /// session stays reusable (the next `begin_query` re-arms its state
    /// regardless of where this search stopped).
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    fn try_search_session(
        &self,
        session: &mut SearchSession,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, SearchError>;

    /// Run an unbudgeted top-k search through a reusable
    /// [`SearchSession`] — [`Self::try_search_session`] with
    /// [`QueryBudget::unlimited`], which cannot fail.
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    fn search_session(
        &self,
        session: &mut SearchSession,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
    ) -> SearchOutcome {
        self.try_search_session(session, graph, query, params, &QueryBudget::unlimited())
            .expect("an unlimited budget cannot be exceeded")
    }

    /// Run a one-shot budgeted top-k search (cold path): opens a
    /// throwaway [`SearchSession`] and runs [`Self::try_search_session`]
    /// through it.
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    fn try_search(
        &self,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, SearchError> {
        let mut session = SearchSession::new();
        self.try_search_session(&mut session, graph, query, params, budget)
    }

    /// Run a one-shot unbudgeted top-k search (cold path).
    ///
    /// # Panics
    /// Panics if `params` fail [`SearchParams::validate`].
    fn search(
        &self,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
    ) -> SearchOutcome {
        let mut session = SearchSession::new();
        self.search_session(&mut session, graph, query, params)
    }
}

/// Block size of the parallel frontier compaction (a CUDA thread-block
/// analogue; the value only affects scheduling granularity).
const COMPACTION_BLOCK: usize = 4096;

/// The matrix engines' [`LevelOps`]: one [`crate::state::SearchState`], no
/// exchange.
/// `pool` and `work_items` pick the paper's scheduling per phase — Seq
/// (no pool) runs all three sequentially; CPU-Par keeps the *sequential*
/// enqueue (the paper found locked parallel writes slower than one linear
/// scan) but identifies and expands in parallel, one task per frontier;
/// GPU-Par (`work_items`) additionally enqueues by parallel block
/// compaction and expands one task per `(frontier, instance)` work item.
pub(crate) struct MatrixOps<'a> {
    /// The engine's pool; `None` for the sequential engine.
    pub(crate) pool: Option<&'a rayon::ThreadPool>,
    /// GPU-Par's task grain; needs a pool.
    pub(crate) work_items: bool,
    pub(crate) ctx: ExpandCtx<'a>,
    pub(crate) frontiers: &'a mut Vec<u32>,
}

impl LevelOps for MatrixOps<'_> {
    type Error = SearchError;

    fn enqueue(&mut self) -> Result<usize, SearchError> {
        match self.pool {
            Some(pool) if self.work_items => bottom_up::enqueue_parallel_compaction(
                pool,
                self.ctx.state,
                self.frontiers,
                COMPACTION_BLOCK,
            ),
            _ => bottom_up::enqueue_sequential(self.ctx.state, self.frontiers),
        }
        Ok(self.frontiers.len())
    }

    fn identify(
        &mut self,
        level: u8,
        traced: bool,
        newly: &mut Vec<u32>,
    ) -> Result<(usize, usize), SearchError> {
        let state = self.ctx.state;
        match self.pool {
            Some(pool) => bottom_up::identify_parallel(pool, state, self.frontiers, level, newly),
            None => bottom_up::identify_sequential(state, self.frontiers, level, newly),
        }
        let (hit, q) = (|f, i| state.hit(f, i), state.num_keywords());
        Ok(bottom_up::observe_level(traced, hit, q, self.ctx.act, self.frontiers, level))
    }

    fn expand(&mut self, level: u8) -> Result<(), SearchError> {
        match self.pool {
            Some(pool) if self.work_items => {
                bottom_up::expand_work_items(pool, &self.ctx, self.frontiers, level)
            }
            pool => bottom_up::expand_level(pool, &self.ctx, self.frontiers, level),
        }
        Ok(())
    }
}

/// The three matrix-based engines (sequential, CPU-Par, GPU-style) as one
/// adapter over [`bottom_up::drive`]: [`bottom_up::pre_flight`], then
/// [`matrix_search`] under the tracker it armed.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_matrix_search(
    name: &'static str,
    pool: Option<&rayon::ThreadPool>,
    work_items: bool,
    session: &mut SearchSession,
    graph: &KnowledgeGraph,
    query: &ParsedQuery,
    params: &SearchParams,
    budget: &QueryBudget,
) -> Result<SearchOutcome, SearchError> {
    match bottom_up::pre_flight(query, params, budget, name, graph.num_nodes()) {
        PreFlight::Run(tracker) => {
            matrix_search(name, pool, work_items, session, graph, query, params, &tracker)
        }
        PreFlight::Done(verdict) => verdict,
    }
}

/// A matrix engine's search past its pre-flight, under `tracker`: re-arm
/// the session's state → bottom-up under the scheduling `pool` and
/// `work_items` select (see `MatrixOps`) → top-down over the Theorem V.4
/// predecessor oracle (dynamically scheduled over central nodes when the
/// engine has a `pool`). [`crate::costmodel::count_work`] runs the
/// sequential engine's through here too, to read its counting tracker.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matrix_search(
    name: &'static str,
    pool: Option<&rayon::ThreadPool>,
    work_items: bool,
    session: &mut SearchSession,
    graph: &KnowledgeGraph,
    query: &ParsedQuery,
    params: &SearchParams,
    tracker: &BudgetTracker,
) -> Result<SearchOutcome, SearchError> {
    let mut run = LevelRun::new(params, tracker);

    // Initialization phase: arm M / FIdentifier / CIdentifier for this
    // query (epoch bump + source seeding; allocation only on first use or
    // growth) — the paper's per-query allocate-and-seed, amortized — and
    // look the activation table's key up.
    let t = Instant::now();
    session.state.begin_query(graph.num_nodes(), query);
    session.queries_run += 1;
    let SearchSession { state, scratch, activation, top_down: stage2, .. } = session;
    let act = activation.for_params(graph, params);
    run.profile.init = t.elapsed();

    let ctx = ExpandCtx { graph, act: &act, state, budget: tracker };
    let mut ops = MatrixOps { pool, work_items, ctx, frontiers: &mut scratch.frontiers };
    bottom_up::drive(&mut ops, &mut run)?;
    run.timed_fill(|| state.fill(&mut stage2.hits));
    run.finish(name, graph, pool, stage2, |hits, j, sink| {
        top_down::hitting_path_preds(graph, &act, hits, j, sink)
    })
}

/// Candidates a top-down worker claims at a time: small, so a run of
/// expensive candidates spreads over the pool, yet large enough to keep
/// the cursor cold.
pub(crate) const CANDIDATE_CLAIM: usize = 4;

/// Nodes a top-down worker asks the predecessor oracle about at a time
/// while the query's memo is built: one is an adjacency scan.
pub(crate) const ASK_CLAIM: usize = 8;

/// Frontiers a CPU-Par expansion worker claims at a time: a frontier costs
/// `q` adjacency scans, a hub's thousands of times a leaf's, so the run is
/// short enough that no worker ends a level holding the last hubs.
pub(crate) const FRONTIER_CLAIM: usize = 16;

/// Sec. V-C's dynamic schedule (OpenMP `schedule(dynamic, claim)`): the
/// threads of `pool` — or the caller alone, without one — claim runs of
/// `claim` consecutive indices of `0..len` from one atomic cursor and hand
/// each to `work(worker, run)`, until the cursor runs dry or `work` says
/// `false` (that worker stops). The rayon shim's `par_iter` would cut
/// `0..len` into one static block per thread, and a skewed level or cohort
/// would leave all but one idle.
pub(crate) fn claim_runs(
    pool: Option<&rayon::ThreadPool>,
    len: usize,
    claim: usize,
    work: impl Fn(usize, std::ops::Range<usize>) -> bool + Sync,
) {
    // The cursor hands out indices into shared, immutable input and
    // publishes nothing else, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let drain = |worker: usize| loop {
        let from = cursor.fetch_add(claim, Ordering::Relaxed);
        if from >= len || !work(worker, from..(from + claim).min(len)) {
            return;
        }
    };
    let workers = pool.map_or(1, |p| p.current_num_threads()).min(len.div_ceil(claim));
    match pool {
        Some(pool) if workers > 1 => {
            pool.install(|| (0..workers).into_par_iter().for_each(drain));
        }
        _ => drain(0),
    }
}

/// Build a rayon pool with exactly `threads` workers.
pub(crate) fn build_pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads.max(1))
        .build()
        .expect("failed to build rayon thread pool")
}

/// Digest used by the in-crate equivalence checks (sharded and remote
/// against the monolithic engine): everything the workspace-level
/// differential suites compare, minus the engine name.
#[cfg(test)]
pub(crate) fn digest(out: &SearchOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "stats:{}/{}/{}/{:?} ",
        out.stats.last_level,
        out.stats.central_candidates,
        out.stats.peak_frontier,
        out.stats.trace
    );
    for a in &out.answers {
        let _ = write!(s, "{}", digest_answer(a));
    }
    s
}

/// The per-answer part of [`digest`]: every field, the score as raw bits.
#[cfg(test)]
pub(crate) fn digest_answer(a: &CentralGraph) -> String {
    format!(
        "[c:{} d:{} n:{:?} e:{:?} kn:{:?} ke:{:?} s:{}]",
        a.central.0,
        a.depth,
        a.nodes,
        a.edges,
        a.keyword_nodes,
        a.keyword_edges,
        a.score.to_bits()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    fn fixture() -> (KnowledgeGraph, InvertedIndex) {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "xml standard");
        let r = b.add_node("r", "rdf model");
        let q = b.add_node("q", "query language");
        b.add_edge(x, q, "e");
        b.add_edge(r, q, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn all_engines_agree_on_a_small_graph() {
        let (g, idx) = fixture();
        let query = ParsedQuery::parse(&idx, "xml rdf");
        let params = SearchParams::default().with_average_distance(1.0);
        let engines: Vec<Box<dyn KeywordSearchEngine>> = vec![
            Box::new(SeqEngine::new()),
            Box::new(ParCpuEngine::new(2)),
            Box::new(GpuStyleEngine::new(2)),
            Box::new(DynParEngine::new(2)),
        ];
        let reference = engines[0].search(&g, &query, &params);
        assert!(!reference.answers.is_empty());
        for e in &engines[1..] {
            let out = e.search(&g, &query, &params);
            assert_eq!(out.answers.len(), reference.answers.len(), "{}", e.name());
            for (a, b) in out.answers.iter().zip(&reference.answers) {
                assert_eq!(a.central, b.central, "{}", e.name());
                assert_eq!(a.nodes, b.nodes, "{}", e.name());
                assert_eq!(a.edges, b.edges, "{}", e.name());
                assert!((a.score - b.score).abs() < 1e-9, "{}", e.name());
            }
        }
    }

    #[test]
    fn empty_query_returns_empty_outcome() {
        let (g, idx) = fixture();
        let query = ParsedQuery::parse(&idx, "zzz qqq");
        let out = SeqEngine::new().search(&g, &query, &SearchParams::default());
        assert!(out.answers.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid search parameters")]
    fn invalid_params_panic() {
        let (g, idx) = fixture();
        let query = ParsedQuery::parse(&idx, "xml");
        let params = SearchParams::default().with_alpha(2.0);
        SeqEngine::new().search(&g, &query, &params);
    }
}
