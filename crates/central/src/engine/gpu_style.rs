//! GPU-Par (structural substitute): the paper's GPU kernel decomposition
//! executed on CPU threads.
//!
//! The paper's CUDA engine assigns **one warp per (frontier, BFS instance)
//! pair** and one warp lane per neighbor, and — unlike the CPU engine —
//! parallelizes the frontier enqueue, exploiting GDDR5X bandwidth. Without
//! the hardware we reproduce the *algorithmic structure* faithfully:
//!
//! * expansion fans out over flattened `(frontier, instance)` work items
//!   (the warp grid), with the per-neighbor inner loop kept sequential per
//!   item (a warp's lanes execute in lock step — on a CPU, a tight scalar
//!   loop is the honest analogue);
//! * frontier enqueue is a **parallel compaction**: per-block scan of
//!   `FIdentifier`, local buffers, then an ordered concatenation — the
//!   prefix-sum pattern of GPU BFS queue generation;
//! * identification is parallel over frontiers, as on the GPU.
//!
//! What this cannot reproduce is GDDR5X bandwidth and 10k-thread
//! occupancy; absolute GPU speedups are out of scope (see DESIGN.md §3).
//! What it does demonstrate — and what the test suite checks — is that the
//! fine-grained decomposition is race-free and returns the same answers.

use crate::budget::QueryBudget;
use crate::engine::{build_pool, run_matrix_search, KeywordSearchEngine, SearchOutcome};
use crate::error::SearchError;
use crate::session::SearchSession;
use crate::SearchParams;
use kgraph::KnowledgeGraph;
use textindex::ParsedQuery;

/// Fine-grained, GPU-kernel-shaped engine (the paper's **GPU-Par**,
/// structural reproduction).
pub struct GpuStyleEngine {
    pool: rayon::ThreadPool,
    threads: usize,
}

impl GpuStyleEngine {
    /// Engine with `threads` workers standing in for the GPU's SMs.
    pub fn new(threads: usize) -> Self {
        GpuStyleEngine { pool: build_pool(threads), threads: threads.max(1) }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl KeywordSearchEngine for GpuStyleEngine {
    fn name(&self) -> &'static str {
        "GPU-Par"
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
            true,
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
    use crate::engine::SeqEngine;
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    #[test]
    fn fine_grained_items_match_sequential() {
        // Star of hubs with three keyword clusters: stresses the
        // per-(frontier, instance) decomposition with shared frontiers.
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", "junction");
        for i in 0..5 {
            let a = b.add_node(&format!("a{i}"), "alpha term");
            let x = b.add_node(&format!("x{i}"), "bridge");
            b.add_edge(a, x, "e");
            b.add_edge(x, hub, "e");
        }
        for i in 0..5 {
            let z = b.add_node(&format!("z{i}"), "omega term");
            b.add_edge(z, hub, "e");
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha omega");
        let params = SearchParams::default().with_average_distance(2.0);
        let seq = SeqEngine::new().search(&g, &q, &params);
        let gpu = GpuStyleEngine::new(4).search(&g, &q, &params);
        assert_eq!(seq.answers.len(), gpu.answers.len());
        for (a, b) in seq.answers.iter().zip(&gpu.answers) {
            assert_eq!(a.central, b.central);
            assert_eq!(a.nodes, b.nodes);
            assert_eq!(a.edges, b.edges);
        }
    }

    #[test]
    fn compaction_enqueue_preserves_order() {
        // Frontier order must be ascending node id, independent of block
        // boundaries — the ordered concatenation guarantees it.
        let mut b = GraphBuilder::new();
        let mut prev = b.add_node("n0", "alpha");
        for i in 1..50 {
            let v = b.add_node(&format!("n{i}"), if i == 49 { "omega" } else { "mid" });
            b.add_edge(prev, v, "e");
            prev = v;
        }
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha omega");
        let params = SearchParams { max_level: 60, ..SearchParams::default() };
        let gpu = GpuStyleEngine::new(3).search(&g, &q, &params);
        let seq = SeqEngine::new().search(&g, &q, &params);
        assert_eq!(gpu.answers.len(), seq.answers.len());
        assert_eq!(gpu.stats.last_level, seq.stats.last_level);
    }
}
