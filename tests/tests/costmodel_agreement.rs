//! The work counter (`central::costmodel`) runs the sequential engine's
//! own search under a counting tracker. On arbitrary graphs its tallies
//! must read exactly what `SeqEngine` reports of the same search — levels,
//! frontier entries, flag scans and central nodes — and stay within the
//! graph's size.

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
        let stats = SeqEngine::new().search(&g, &query, &params).stats;
        prop_assert_eq!(work.central_nodes as usize, stats.central_candidates);
        if query.is_empty() {
            prop_assert_eq!(work, Default::default());
        } else {
            let levels = u64::from(stats.last_level);
            prop_assert_eq!(u64::from(work.levels), levels);
            let frontier: usize = stats.trace.iter().map(|l| l.frontier).sum();
            prop_assert_eq!(work.frontier_entries as usize, frontier);
            prop_assert_eq!(work.flag_scans, g.num_nodes() as u64 * (levels + 1));
        }
        // Tallies are bounded by graph size × levels.
        let max_scans = (g.num_adjacency_entries() as u64)
            * (work.levels.max(1) as u64)
            * query.num_keywords().max(1) as u64;
        prop_assert!(work.adjacency_scans <= max_scans);
        prop_assert!(work.matrix_writes as usize <= g.num_nodes() * query.num_keywords());
    }
}
