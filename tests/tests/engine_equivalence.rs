//! The four engines below the facade — sequential, lock-free
//! coarse-grained (CPU-Par), lock-free fine-grained (GPU-Par structure)
//! and lock-based dynamic (CPU-Par-d) — called through
//! `KeywordSearchEngine` on arbitrary graphs and queries, return what a
//! fresh `SeqEngine` returns, through `common::digest`: answers, score
//! bits, statistics and the per-level trace. The lattice (`lattice.rs`)
//! checks the same engines through the facade.
//!
//! This is the test form of the paper's Theorems V.2 (lock-free writes are
//! benign), V.3 (bottom-up solves top-(k,d)) and V.4 (extraction from `M`
//! recovers exactly the hitting paths that CPU-Par-d records during
//! search).

mod common;

use central::engine::{KeywordSearchEngine, SeqEngine};
use central::SearchSession;
use common::{build_graph, case_params, case_strategy, digest, engines, rotated_queries};
use proptest::prelude::*;
use textindex::InvertedIndex;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every engine answers the case's query like a fresh `SeqEngine`, and
    /// every reference answer satisfies the model invariants.
    #[test]
    fn all_engines_agree(case in case_strategy(28, 60)) {
        let graph = build_graph(&case);
        let query = &rotated_queries(&case, &InvertedIndex::build(&graph), 1)[0];
        let params = case_params(&case);
        let reference = SeqEngine::new().search(&graph, query, &params);
        for a in &reference.answers {
            prop_assert_eq!(a.check_invariants(), Ok(()));
        }
        let reference = digest(&reference.answers, &reference.stats);
        for engine in &engines(3) {
            let out = engine.search(&graph, query, &params);
            prop_assert_eq!(&digest(&out.answers, &out.stats), &reference, "{}", engine.name());
        }
    }

    /// A stream of three consecutive *distinct* queries through one reused
    /// [`SearchSession`] is bit-identical to fresh searches, for every
    /// engine. A stale-epoch leak (a cell from query `i` read as current by
    /// query `i+1`) would surface as a diverging hitting level, candidate
    /// cohort or answer set.
    #[test]
    fn session_reuse_is_bit_identical_to_fresh(case in case_strategy(28, 60)) {
        let graph = build_graph(&case);
        let queries = rotated_queries(&case, &InvertedIndex::build(&graph), 3);
        let params = case_params(&case);
        for engine in &engines(3) {
            let mut session = SearchSession::new();
            for (qi, query) in queries.iter().enumerate() {
                let fresh = engine.search(&graph, query, &params);
                let warm = engine.search_session(&mut session, &graph, query, &params);
                prop_assert_eq!(
                    digest(&warm.answers, &warm.stats),
                    digest(&fresh.answers, &fresh.stats),
                    "query {} via {}",
                    qi,
                    engine.name()
                );
            }
            // Queries that match no keyword short-circuit before touching
            // the session, so only non-empty parses count as runs.
            let runs = queries.iter().filter(|q| q.num_keywords() > 0).count() as u64;
            prop_assert_eq!(session.queries_run(), runs, "{}", engine.name());
        }
    }

    /// Each parallel engine, run twice on one query, answers like the
    /// sequential engine both times.
    #[test]
    fn parallel_engines_are_deterministic_across_runs(case in case_strategy(28, 60)) {
        let graph = build_graph(&case);
        let query = &rotated_queries(&case, &InvertedIndex::build(&graph), 1)[0];
        let params = case_params(&case);
        let reference = SeqEngine::new().search(&graph, query, &params);
        let reference = digest(&reference.answers, &reference.stats);
        for engine in &engines(4)[1..] {
            for round in 0..2 {
                let out = engine.search(&graph, query, &params);
                let got = digest(&out.answers, &out.stats);
                prop_assert_eq!(&got, &reference, "round {} via {}", round, engine.name());
            }
        }
    }
}
