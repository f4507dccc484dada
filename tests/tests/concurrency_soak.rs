//! Lock-free soak test: on a synthetic KB three orders of magnitude
//! larger than the proptest graphs, the parallel engines must agree with
//! the sequential reference answer-for-answer, across repeated runs and
//! thread counts. This is Theorem V.2 under real contention: thousands of
//! frontier tasks racing on the shared matrix.

mod common;

use central::engine::{KeywordSearchEngine, SeqEngine};
use central::{SearchParams, SearchSession};
use common::{digest, engines, result_digest};
use datagen::synthetic::SyntheticConfig;
use datagen::QueryWorkload;
use textindex::{InvertedIndex, ParsedQuery};
use wikisearch_engine::{Backend, WikiSearch};

#[test]
fn parallel_engines_agree_on_a_large_graph_under_contention() {
    let mut cfg = SyntheticConfig::tiny(1234);
    cfg.num_entities = 2500;
    let ds = cfg.generate();
    let index = InvertedIndex::build(&ds.graph);
    let params = SearchParams::default().with_average_distance(2.5).with_top_k(10);

    let mut workload = QueryWorkload::new(9);
    let queries: Vec<ParsedQuery> =
        workload.batch(5, 3).iter().map(|q| ParsedQuery::parse(&index, q)).collect();

    let engines = engines(8);
    let (seq, parallel) = engines.split_first().unwrap();
    for (qi, query) in queries.iter().enumerate() {
        let reference = seq.search(&ds.graph, query, &params);
        for answer in &reference.answers {
            answer.check_invariants().unwrap();
        }
        let reference = digest(&reference.answers, &reference.stats);
        for engine in parallel {
            // Two runs each: agreement and determinism under contention.
            for round in 0..2 {
                let out = engine.search(&ds.graph, query, &params);
                let got = digest(&out.answers, &out.stats);
                assert_eq!(got, reference, "query {qi} round {round}: {}", engine.name());
            }
        }
    }
}

/// Session soak: ONE `SearchSession` is hammered with a stream of
/// sequential queries while the executing engine and its thread count
/// keep changing underneath it. Every warm answer must match a fresh
/// sequential search of the same query — any stale-epoch leakage (a
/// matrix cell, frontier flag, central flag, or CPU-Par-d node record
/// surviving from an earlier query) would corrupt hitting levels and
/// diverge from the cold reference.
#[test]
fn one_session_survives_a_query_stream_across_thread_counts() {
    let mut cfg = SyntheticConfig::tiny(77);
    cfg.num_entities = 1200;
    let ds = cfg.generate();
    let index = InvertedIndex::build(&ds.graph);
    let params = SearchParams::default().with_average_distance(2.5).with_top_k(8);

    let mut workload = QueryWorkload::new(31);
    let queries: Vec<ParsedQuery> =
        workload.batch(4, 3).iter().map(|q| ParsedQuery::parse(&index, q)).collect();
    let seq = SeqEngine::new();
    let references: Vec<String> = queries
        .iter()
        .map(|q| seq.search(&ds.graph, q, &params))
        .map(|out| digest(&out.answers, &out.stats))
        .collect();

    let mut session = SearchSession::new();
    let mut runs = 0u64;
    for threads in [1usize, 2, 4, 8] {
        for engine in &engines(threads) {
            for (qi, query) in queries.iter().enumerate() {
                let out = engine.search_session(&mut session, &ds.graph, query, &params);
                if query.num_keywords() > 0 {
                    runs += 1;
                }
                let got = digest(&out.answers, &out.stats);
                assert_eq!(got, references[qi], "threads {threads} query {qi}: {}", engine.name());
            }
        }
    }
    // Every non-empty query in the stream went through the one session.
    assert_eq!(session.queries_run(), runs);
    assert!(session.queries_run() > 0);
}

/// Cache soak: 8 threads hammer one `Arc<WikiSearch>` whose result cache
/// is deliberately too small for the working set, so entries are
/// inserted, evicted and re-inserted continuously while hits race
/// misses on every shard. The test asserts the three things that must
/// survive that churn: no panics or deadlocks, exact counter accounting
/// (`hits + misses == lookups`, byte usage within budget), and — query
/// for query — answers identical to a sequential uncached oracle.
#[test]
fn concurrent_cached_searches_match_a_sequential_oracle() {
    let mut cfg = SyntheticConfig::tiny(4242);
    cfg.num_entities = 900;
    let ds = cfg.generate();

    let mut workload = QueryWorkload::new(17);
    let queries: Vec<String> = workload.batch(3, 16);

    // Oracle: sequential, uncached.
    let oracle = WikiSearch::build_with(ds.graph.clone(), Backend::Sequential);
    let expected: Vec<String> = queries.iter().map(|q| result_digest(&oracle.search(q))).collect();

    // Device under test: a parallel backend behind a cache too small for
    // the working set. Measure each entry with a roomy cache first: the
    // budget then gives each of the default 8 shards room for the largest
    // entry, so none bypasses the cache, while the entries together
    // outweigh the 8 shards and so must evict.
    let mut probe = WikiSearch::build_with(ds.graph.clone(), Backend::Sequential);
    probe.set_cache_capacity(64 << 20);
    let mut entries = Vec::new();
    for q in &queries {
        let before = probe.cache_stats().unwrap().bytes;
        probe.search(q);
        entries.push(probe.cache_stats().unwrap().bytes - before);
    }
    let capacity = 8 * entries.iter().max().unwrap();
    assert!(
        entries.iter().sum::<usize>() > capacity,
        "entries {entries:?} fit in {capacity} B"
    );

    let mut ws = WikiSearch::build_with(ds.graph.clone(), Backend::ParCpu(4));
    ws.set_cache_capacity(capacity);
    let ws = std::sync::Arc::new(ws);

    let threads = 8;
    let rounds = 6;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let ws = std::sync::Arc::clone(&ws);
            let queries = &queries;
            let expected = &expected;
            scope.spawn(move || {
                // Deterministic per-thread schedule: every thread walks
                // the whole query list, each starting at a different
                // offset, so the same key is concurrently looked up,
                // inserted and evicted across threads.
                for r in 0..rounds {
                    for i in 0..queries.len() {
                        let qi = (i + t * 3 + r) % queries.len();
                        let got = result_digest(&ws.search(&queries[qi]));
                        assert_eq!(got, expected[qi], "thread {t} round {r} query {qi}");
                    }
                }
            });
        }
    });

    let stats = ws.cache_stats().unwrap();
    assert_eq!(stats.hits + stats.misses, stats.lookups, "{stats:?}");
    assert!(stats.bytes <= stats.capacity_bytes, "{stats:?}");
    assert!(stats.lookups > 0, "{stats:?}");
    assert_eq!(stats.bypasses, 0, "{stats:?}");
    assert!(stats.evictions > 0, "capacity must be tight enough to churn: {stats:?}");
}
