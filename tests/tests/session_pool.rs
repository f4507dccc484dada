//! `SessionPool` under real contention: many threads checking sessions
//! out of one pool, running genuine searches, and checking them back in.
//! Two properties are on trial:
//!
//! 1. **Exclusivity** — the pool never hands one session to two live
//!    guards (asserted via a shared live-id set);
//! 2. **Transparency** — answers produced through pooled (recycled,
//!    arbitrarily interleaved) sessions are bit-identical to fresh
//!    single-use sessions.
//!
//! A model-based proptest drives random checkout/run/checkin schedules
//! against a reference model of the freelist to pin down the accounting
//! (`queries_run`, `sessions_created`, `in_flight`).

mod common;

use central::engine::{KeywordSearchEngine, SeqEngine};
use central::{SearchParams, SessionPool};
use common::{build_graph, case_params, case_strategy, digest, engines, rotated_queries};
use datagen::synthetic::SyntheticConfig;
use datagen::QueryWorkload;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Mutex;
use textindex::{InvertedIndex, ParsedQuery};

fn dataset() -> (kgraph::KnowledgeGraph, InvertedIndex) {
    let mut cfg = SyntheticConfig::tiny(555);
    cfg.num_entities = 600;
    let ds = cfg.generate();
    let index = InvertedIndex::build(&ds.graph);
    (ds.graph, index)
}

#[test]
fn contended_checkouts_stay_exclusive_and_bit_identical() {
    let (graph, index) = dataset();
    let params = SearchParams::default().with_average_distance(2.5).with_top_k(6);
    let mut workload = QueryWorkload::new(404);
    let queries: Vec<ParsedQuery> =
        workload.batch(3, 6).iter().map(|q| ParsedQuery::parse(&index, q)).collect();
    let seq = SeqEngine::new();
    let references: Vec<String> = queries
        .iter()
        .map(|q| seq.search(&graph, q, &params))
        .map(|out| digest(&out.answers, &out.stats))
        .collect();

    let pool = SessionPool::new();
    let live: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
    let threads = 6;
    let rounds = 12;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let pool = &pool;
            let live = &live;
            let graph = &graph;
            let queries = &queries;
            let references = &references;
            let params = &params;
            scope.spawn(move || {
                // Each thread alternates engines so recycled sessions
                // cross engine boundaries mid-stream, like a server
                // whose backend differs per deployment.
                let engines = engines(2);
                for r in 0..rounds {
                    let mut guard = pool.checkout();
                    assert!(
                        live.lock().unwrap().insert(guard.session_id()),
                        "session {} live in two guards",
                        guard.session_id()
                    );
                    let qi = (t + r) % queries.len();
                    let engine = &engines[r % engines.len()];
                    let out = engine.search_session(&mut guard, graph, &queries[qi], params);
                    assert_eq!(
                        digest(&out.answers, &out.stats),
                        references[qi],
                        "{}",
                        engine.name()
                    );
                    assert!(live.lock().unwrap().remove(&guard.session_id()));
                    drop(guard);
                }
            });
        }
    });

    assert_eq!(pool.in_flight(), 0);
    assert!(
        pool.sessions_created() <= threads,
        "pool grew past the concurrency peak: {} sessions for {} threads",
        pool.sessions_created(),
        threads
    );
    assert_eq!(pool.idle_sessions(), pool.sessions_created());
    // Every (thread, round) pair ran exactly one query; empty parses
    // short-circuit before touching the session and don't count.
    let mut expected = 0u64;
    for t in 0..threads {
        for r in 0..rounds {
            if queries[(t + r) % queries.len()].num_keywords() > 0 {
                expected += 1;
            }
        }
    }
    assert_eq!(pool.queries_run(), expected);
}

/// One schedule step for the model-based pool test.
#[derive(Debug, Clone, Copy)]
enum Op {
    Checkout,
    RunQuery,
    Checkin,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..3).prop_map(|i| match i {
        0 => Op::Checkout,
        1 => Op::RunQuery,
        _ => Op::Checkin,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random checkout/run/checkin schedules: the pool's observable
    /// accounting must match a simple reference model, live guards must
    /// never alias, and the freelist must never grow past the schedule's
    /// peak number of simultaneously live guards.
    #[test]
    fn pool_accounting_matches_a_freelist_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut b = kgraph::GraphBuilder::new();
        let x = b.add_node("x", "alpha");
        let y = b.add_node("y", "beta");
        let m = b.add_node("m", "middle");
        b.add_edge(x, m, "e");
        b.add_edge(y, m, "e");
        let graph = b.build();
        let index = InvertedIndex::build(&graph);
        let query = ParsedQuery::parse(&index, "alpha beta");
        let params = SearchParams::default();
        let engine = SeqEngine::new();

        let pool = SessionPool::new();
        let mut guards = Vec::new();
        let mut model_completed = 0u64; // queries by checked-in guards
        let mut model_pending: Vec<u64> = Vec::new(); // per live guard
        let mut model_peak = 0usize;

        for op in ops {
            match op {
                Op::Checkout => {
                    let guard = pool.checkout();
                    let mut ids: HashSet<u64> =
                        guards.iter().map(|g: &central::PooledSession<'_>| g.session_id()).collect();
                    prop_assert!(ids.insert(guard.session_id()), "live alias");
                    guards.push(guard);
                    model_pending.push(0);
                    model_peak = model_peak.max(guards.len());
                }
                Op::RunQuery => {
                    if let Some(guard) = guards.last_mut() {
                        let out = engine.search_session(guard, &graph, &query, &params);
                        prop_assert!(!out.answers.is_empty());
                        *model_pending.last_mut().unwrap() += 1;
                    }
                }
                Op::Checkin => {
                    if let Some(guard) = guards.pop() {
                        drop(guard);
                        model_completed += model_pending.pop().unwrap();
                    }
                }
            }
            prop_assert_eq!(pool.in_flight(), guards.len());
            prop_assert_eq!(pool.queries_run(), model_completed);
            prop_assert_eq!(pool.sessions_created(), model_peak);
            prop_assert_eq!(
                pool.idle_sessions(),
                pool.sessions_created() - guards.len()
            );
        }
        let pending: u64 = model_pending.iter().sum();
        drop(guards);
        prop_assert_eq!(pool.queries_run(), model_completed + pending);
        prop_assert_eq!(pool.in_flight(), 0);
        prop_assert_eq!(pool.idle_sessions(), pool.sessions_created());
        prop_assert_eq!(pool.sessions_created(), model_peak);
    }

    /// Queries alternating across two *live* pool guards (the shape of two
    /// concurrent server workers) stay bit-identical to fresh-session
    /// searches, for all four engines, and the pool accounts every query.
    /// Guards hold distinct sessions, so interleaving them cannot leak
    /// state between in-flight queries.
    #[test]
    fn pooled_sessions_are_bit_identical_to_fresh(case in case_strategy(28, 60)) {
        let graph = build_graph(&case);
        let queries = rotated_queries(&case, &InvertedIndex::build(&graph), 4);
        let params = case_params(&case);

        let engines = engines(3);
        let pool = SessionPool::new();
        for engine in &engines {
            let mut left = pool.checkout();
            let mut right = pool.checkout();
            prop_assert_ne!(left.session_id(), right.session_id());
            for (qi, query) in queries.iter().enumerate() {
                let guard = if qi % 2 == 0 { &mut left } else { &mut right };
                let fresh = engine.search(&graph, query, &params);
                let warm = engine.search_session(guard, &graph, query, &params);
                prop_assert_eq!(
                    digest(&warm.answers, &warm.stats),
                    digest(&fresh.answers, &fresh.stats),
                    "query {} via {}",
                    qi,
                    engine.name()
                );
            }
        }
        // Both sessions return to the freelist; the pool saw every
        // non-empty query and never grew past the two live guards.
        prop_assert_eq!(pool.sessions_created(), 2);
        prop_assert_eq!(pool.idle_sessions(), 2);
        prop_assert_eq!(pool.in_flight(), 0);
        let expected_runs = queries.iter().filter(|q| q.num_keywords() > 0).count() as u64
            * engines.len() as u64;
        prop_assert_eq!(pool.queries_run(), expected_runs);
    }
}
