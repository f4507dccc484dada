//! Sequential reference engine (the `Tnum = 1` datapoint of Exp-4).
//!
//! Executes the exact same level-synchronous algorithm as the parallel
//! engines, one step at a time. Because the parallel engines are lock-free
//! with benign races (Theorem V.2), this engine's output is the ground
//! truth they are property-tested against.

use crate::budget::QueryBudget;
use crate::engine::{run_matrix_search, KeywordSearchEngine, SearchOutcome};
use crate::error::SearchError;
use crate::session::SearchSession;
use crate::SearchParams;
use kgraph::KnowledgeGraph;
use textindex::ParsedQuery;

/// Single-threaded Central Graph search engine.
#[derive(Default)]
pub struct SeqEngine;

impl SeqEngine {
    /// Create the sequential engine.
    pub fn new() -> Self {
        SeqEngine
    }
}

impl KeywordSearchEngine for SeqEngine {
    fn name(&self) -> &'static str {
        "Seq"
    }

    fn try_search_session(
        &self,
        session: &mut SearchSession,
        graph: &KnowledgeGraph,
        query: &ParsedQuery,
        params: &SearchParams,
        budget: &QueryBudget,
    ) -> Result<SearchOutcome, SearchError> {
        run_matrix_search(self.name(), None, false, session, graph, query, params, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgraph::GraphBuilder;
    use textindex::InvertedIndex;

    #[test]
    fn finds_bridge_answer() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "alpha");
        let y = b.add_node("y", "beta");
        let m = b.add_node("m", "middle");
        b.add_edge(x, m, "e");
        b.add_edge(y, m, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha beta");
        let out = SeqEngine::new().search(&g, &q, &SearchParams::default());
        assert_eq!(out.answers.len(), 1);
        assert_eq!(out.answers[0].central, m);
        assert_eq!(out.stats.central_candidates, 1);
        out.answers[0].check_invariants().unwrap();
    }

    #[test]
    fn profile_phases_are_populated() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "alpha");
        let y = b.add_node("y", "beta");
        b.add_edge(x, y, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        let q = ParsedQuery::parse(&idx, "alpha beta");
        let out = SeqEngine::new().search(&g, &q, &SearchParams::default());
        // all phases ran; total is the sum
        assert_eq!(
            out.profile.total(),
            out.profile.init
                + out.profile.enqueue
                + out.profile.identify
                + out.profile.expansion
                + out.profile.top_down
        );
    }
}
