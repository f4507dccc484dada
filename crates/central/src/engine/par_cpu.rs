//! CPU-Par: the paper's multi-core CPU engine (Sec. V-B).
//!
//! Scheduling choices mirror the paper's OpenMP implementation:
//!
//! * **Expansion** uses *coarse-grained* parallelism — one task per
//!   frontier, dynamically scheduled (OpenMP `schedule(dynamic)`): "we
//!   simply let threads on CPU handle different frontiers with a dynamic
//!   scheduling". The pool threads claim short runs of frontiers from one
//!   atomic cursor ([`crate::engine::claim_runs`]).
//! * **Frontier enqueue** is *sequential*: the paper found that on CPU
//!   "locked writing is so expensive and the fastest way is to enqueue
//!   frontiers in a sequential manner".
//! * **Identification** is parallel over frontiers (each frontier is
//!   touched by exactly one task, so the central flag needs no lock).
//! * **Top-down** is parallel over central nodes, one task per Central
//!   Graph, dynamically scheduled (Sec. V-C) through the same helper
//!   ([`crate::top_down::top_down`]), each thread scoring into its own
//!   records over the query's one predecessor memo — the rayon shim's
//!   static one-block-per-thread split would put a skewed cohort's
//!   expensive candidates, or a level's hubs, on one thread.

use crate::budget::QueryBudget;
use crate::engine::{build_pool, run_matrix_search, KeywordSearchEngine, SearchOutcome};
use crate::error::SearchError;
use crate::session::SearchSession;
use crate::SearchParams;
use kgraph::KnowledgeGraph;
use textindex::ParsedQuery;

/// Lock-free multi-core engine (the paper's **CPU-Par**).
pub struct ParCpuEngine {
    pool: rayon::ThreadPool,
    threads: usize,
}

impl ParCpuEngine {
    /// Engine with `threads` workers (`Tnum` in the paper's Exp-4).
    pub fn new(threads: usize) -> Self {
        ParCpuEngine { pool: build_pool(threads), threads: threads.max(1) }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl KeywordSearchEngine for ParCpuEngine {
    fn name(&self) -> &'static str {
        "CPU-Par"
    }

    fn try_search_session(
        &self,
        session: &mut SearchSession,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, SearchError> {
        run_matrix_search(
            self.name(),
            Some(&self.pool),
            false,
            session,
            graph,
            query,
            params,
            budget,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    #[test]
    fn matches_sequential_on_a_grid() {
        // 6×6 grid with keywords at opposite corners plus a middle strip.
        let mut b = GraphBuilder::new();
        let mut ids = vec![];
        for r in 0..6 {
            for c in 0..6 {
                let text = match (r, c) {
                    (0, 0) => "alpha start",
                    (5, 5) => "omega end",
                    (2, _) => "middle strip",
                    _ => "plain",
                };
                ids.push(b.add_node(&format!("n{r}_{c}"), text));
            }
        }
        for r in 0..6 {
            for c in 0..6 {
                if c + 1 < 6 {
                    b.add_edge(ids[r * 6 + c], ids[r * 6 + c + 1], "h");
                }
                if r + 1 < 6 {
                    b.add_edge(ids[r * 6 + c], ids[(r + 1) * 6 + c], "v");
                }
            }
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha omega middle");
        let params = SearchParams::default().with_average_distance(4.0);
        let seq = crate::engine::SeqEngine::new().search(&g, &q, &params);
        let par = ParCpuEngine::new(4).search(&g, &q, &params);
        assert_eq!(seq.answers.len(), par.answers.len());
        for (a, b) in seq.answers.iter().zip(&par.answers) {
            assert_eq!(a.central, b.central);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.edges, b.edges);
        }
        assert_eq!(seq.stats.central_candidates, par.stats.central_candidates);
        assert_eq!(seq.stats.last_level, par.stats.last_level);
    }

    #[test]
    fn thread_count_is_respected() {
        let e = ParCpuEngine::new(3);
        assert_eq!(e.threads(), 3);
        assert_eq!(ParCpuEngine::new(0).threads(), 1);
    }
}
