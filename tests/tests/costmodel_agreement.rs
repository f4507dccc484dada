//! The instrumented work counter (`central::costmodel`) replays the
//! bottom-up search with its own loop; it must stay in lockstep with the
//! real engines on arbitrary graphs — same central-node count, and work
//! tallies consistent with the graph's size.

mod common;

use central::costmodel::count_work;
use central::engine::{KeywordSearchEngine, SeqEngine};
use central::SearchParams;
use common::{build_graph, case_strategy, raw_query};
use proptest::prelude::*;
use textindex::{InvertedIndex, ParsedQuery};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn counter_matches_engine_candidates(case in case_strategy(20, 40)) {
        let g = build_graph(&case);
        let idx = InvertedIndex::build(&g);
        let query = ParsedQuery::parse(&idx, &raw_query(&case.query));
        let params = SearchParams {
            top_k: case.top_k,
            max_level: 10,
            ..SearchParams::default()
        }
        .with_explicit_activation(case.activation);

        let work = count_work(&g, &query, &params);
        let out = SeqEngine::new().search(&g, &query, &params);
        prop_assert_eq!(work.central_nodes as usize, out.stats.central_candidates);
        // Tallies are bounded by graph size × levels.
        let max_scans = (g.num_adjacency_entries() as u64)
            * (work.levels.max(1) as u64)
            * query.num_keywords().max(1) as u64;
        prop_assert!(work.adjacency_scans <= max_scans);
        prop_assert!(work.matrix_writes as usize <= g.num_nodes() * query.num_keywords());
    }
}
