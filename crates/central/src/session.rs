//! Reusable per-engine search sessions.
//!
//! Every search needs an `n × q` hitting-level matrix, frontier/central
//! flag arrays, and the driver's queue buffers. Allocating (and zeroing)
//! those per query dominates the paper's *Initialization* phase on warm
//! services — WikiSearch answers a stream of queries over one graph, so
//! the state should be paid for once. A [`SearchSession`] owns the
//! epoch-stamped [`SearchState`] plus all scratch buffers; "resetting" for
//! the next query is a single epoch increment
//! ([`SearchState::begin_query`]), making the warm path allocation-free.
//!
//! Sessions are engine-agnostic: the same session can be handed to any of
//! the four engines ([`crate::engine::KeywordSearchEngine::search_session`]).
//! The matrix engines (Seq, CPU-Par, GPU-Par) share the epoch-stamped
//! state; CPU-Par-d lazily materializes its lock-based `DynState` inside
//! the same session and reuses it the same way (per-node epoch stamps,
//! freshened under the node lock).
//!
//! A session is deliberately `!Sync`-shaped at the API level: searches
//! take `&mut self`, so one session serves one query at a time. To serve
//! concurrent request handlers, check sessions out of a
//! [`crate::pool::SessionPool`] (as `wikisearch-engine` does) or keep one
//! session per worker.

use crate::activation::ActivationTable;
use crate::bottom_up::BottomUpScratch;
use crate::engine::par_dyn::DynState;
use crate::state::SearchState;
use crate::top_down::TopDownScratch;

/// Reusable search state + scratch buffers for a stream of queries.
///
/// ```
/// use kgraph::GraphBuilder;
/// use textindex::{InvertedIndex, ParsedQuery};
/// use central::{engine::{KeywordSearchEngine, SeqEngine}, SearchParams, SearchSession};
///
/// let mut b = GraphBuilder::new();
/// let x = b.add_node("x", "XML");
/// let q = b.add_node("q", "query language");
/// let s = b.add_node("s", "SQL");
/// b.add_edge(x, q, "related");
/// b.add_edge(s, q, "instance of");
/// let g = b.build();
/// let idx = InvertedIndex::build(&g);
///
/// let engine = SeqEngine::new();
/// let mut session = SearchSession::new();
/// for raw in ["XML SQL", "SQL language", "XML SQL"] {
///     let query = ParsedQuery::parse(&idx, raw);
///     let out = engine.search_session(&mut session, &g, &query, &SearchParams::default());
///     assert!(!out.answers.is_empty());
/// }
/// assert_eq!(session.queries_run(), 3);
/// ```
#[derive(Default)]
pub struct SearchSession {
    /// Epoch-stamped matrix state shared by the three matrix engines.
    pub(crate) state: SearchState,
    /// Driver queue buffers (frontier queue, per-level identifications).
    pub(crate) scratch: BottomUpScratch,
    /// The activation levels of the graph this session last searched,
    /// rebuilt only when the graph's weights, `α` or `A` change.
    pub(crate) activation: ActivationTable,
    /// Top-down working memory: the finished `M` as the bytes the stage
    /// reads, the per-query predecessor memo and the marks of every thread
    /// that ever ran the stage for this session; empty until the first
    /// search reaches it.
    pub(crate) top_down: TopDownScratch,
    /// CPU-Par-d's lock-based state, materialized on first use.
    pub(crate) dyn_state: Option<DynState>,
    /// Number of queries answered through this session.
    pub(crate) queries_run: u64,
}

impl SearchSession {
    /// A fresh session holding no allocations; buffers grow to the working
    /// set over the first query and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queries answered through this session so far.
    pub fn queries_run(&self) -> u64 {
        self.queries_run
    }

    /// The matrix state (current as of the last matrix-engine query).
    /// Exposed for diagnostics and the test suite.
    pub fn state(&self) -> &SearchState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{KeywordSearchEngine, SeqEngine};
    use crate::SearchParams;
    use kgraph::GraphBuilder;
    use textindex::{InvertedIndex, ParsedQuery};

    #[test]
    fn session_counts_queries_and_reuses_state() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "alpha");
        let y = b.add_node("y", "beta");
        let m = b.add_node("m", "middle");
        b.add_edge(x, m, "e");
        b.add_edge(y, m, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha beta");

        let engine = SeqEngine::new();
        let mut session = SearchSession::new();
        assert_eq!(session.queries_run(), 0);
        let first = engine.search_session(&mut session, &g, &q, &SearchParams::default());
        let epoch_after_first = session.state().epoch();
        let second = engine.search_session(&mut session, &g, &q, &SearchParams::default());
        assert_eq!(session.queries_run(), 2);
        assert_eq!(session.state().epoch(), epoch_after_first + 1);
        assert_eq!(first.answers.len(), second.answers.len());
        assert_eq!(first.answers[0].central, second.answers[0].central);
        assert_eq!(first.answers[0].nodes, second.answers[0].nodes);
    }

    /// Scratch and table reuse: A, B, A through one session (each engine)
    /// and one 2-shard coordinator answer exactly like fresh ones — B's
    /// memo and marks must not leak into the second A, nor A's into B —
    /// and so does a walk through two `(α, A)` settings, an explicit
    /// table and a second graph of equal node count but other weights: a
    /// session never serves a stale activation table, and never rebuilds
    /// one whose key did not change.
    #[test]
    fn top_down_scratch_reuse_matches_fresh_state() {
        use crate::engine::{digest, DynParEngine, GpuStyleEngine, ParCpuEngine};
        use crate::{QueryBudget, ShardBackend, ShardCoordinator};

        let mut cfg = datagen::synthetic::SyntheticConfig::tiny(77);
        cfg.num_entities = 500;
        let g = cfg.generate().graph;
        let idx = InvertedIndex::build(&g);
        let mut workload = datagen::QueryWorkload::new(5);
        let (a, b) = (workload.query(4), workload.query(6));
        let queries: Vec<ParsedQuery> =
            [&a, &b, &a].iter().map(|raw| ParsedQuery::parse(&idx, raw)).collect();
        let params = SearchParams::default().with_average_distance(2.5).with_top_k(6);

        // The same nodes and edges under mirrored weights.
        let mut mirrored = g.clone();
        mirrored.override_weights(g.weights().iter().map(|w| 1.0 - w).collect());
        let other = params.clone().with_alpha(0.4).with_average_distance(3.5);
        let explicit = params
            .clone()
            .with_explicit_activation((0..g.num_nodes()).map(|v| (v % 4) as u8).collect());
        // (graph, params, table builds once this step has run).
        let steps = [
            (&g, &params, 1),
            (&g, &other, 2),
            (&g, &explicit, 2),
            (&mirrored, &params, 3),
            (&g, &params, 4),
            (&g, &params, 4),
        ];

        let engines: Vec<Box<dyn KeywordSearchEngine>> = vec![
            Box::new(SeqEngine::new()),
            Box::new(ParCpuEngine::new(2)),
            Box::new(GpuStyleEngine::new(2)),
            Box::new(DynParEngine::new(2)),
        ];
        let fresh: Vec<String> =
            queries.iter().map(|q| digest(&engines[0].search(&g, q, &params))).collect();
        assert!(fresh.iter().all(|d| d.contains("[c:")), "both queries must have answers");
        let fresh_steps: Vec<String> = steps
            .iter()
            .map(|&(graph, params, _)| digest(&engines[0].search(graph, &queries[0], params)))
            .collect();
        assert_ne!(fresh_steps[0], fresh_steps[1], "the settings must matter");
        assert_ne!(fresh_steps[0], fresh_steps[3], "the weights must matter");
        for engine in &engines {
            let mut session = SearchSession::new();
            for (q, want) in queries.iter().zip(&fresh) {
                let out = engine.search_session(&mut session, &g, q, &params);
                assert_eq!(&digest(&out), want, "{}", engine.name());
            }
            let built = session.activation.builds();
            for (&(graph, params, builds), want) in steps.iter().zip(&fresh_steps) {
                let out = engine.search_session(&mut session, graph, &queries[0], params);
                assert_eq!(&digest(&out), want, "{}", engine.name());
                assert_eq!(session.activation.builds(), built - 1 + builds, "{}", engine.name());
            }
        }

        let sharded = ShardCoordinator::in_process(&g, ShardBackend::Seq, 2);
        let budget = QueryBudget::unlimited();
        for (q, want) in queries.iter().zip(&fresh) {
            let out = sharded.try_search(&g, q, &params, &budget, None).expect("unlimited budget");
            assert_eq!(&digest(&out.outcome), want, "2 shards");
        }
        // Pooled shard lanes and the coordinator's own table.
        for (&(graph, params, _), want) in steps.iter().zip(&fresh_steps) {
            if std::ptr::eq(graph, &g) {
                let out = sharded.try_search(&g, &queries[0], params, &budget, None);
                assert_eq!(&digest(&out.expect("unlimited budget").outcome), want, "2 shards");
            }
        }
    }

    #[test]
    fn empty_query_does_not_disturb_the_session() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "alpha");
        let y = b.add_node("y", "beta");
        b.add_edge(x, y, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let engine = SeqEngine::new();
        let mut session = SearchSession::new();
        let miss = ParsedQuery::parse(&idx, "zzz");
        let out = engine.search_session(&mut session, &g, &miss, &SearchParams::default());
        assert!(out.answers.is_empty());
        let hit = ParsedQuery::parse(&idx, "alpha beta");
        let out = engine.search_session(&mut session, &g, &hit, &SearchParams::default());
        assert!(!out.answers.is_empty());
    }
}
