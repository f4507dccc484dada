//! The zero-copy storage property: a `WikiSearch` opened from a
//! memory-mapped `.wsnap` snapshot is **byte-identical** to one built on
//! the heap from the same graph — answers, score bits, statistics and
//! keyword analysis — for every backend, for shard counts {1, 4}, for
//! cache hits as well as misses, and for budget-error responses.
//!
//! This is the differential suite the storage refactor is pinned by: the
//! engines never learn which backing they run on, so the only way this
//! can hold is if the mapped columns carry exactly the heap columns'
//! bytes (floats included) and the embedded index and stored average
//! distance reproduce the heap build's to the bit.

mod common;

use central::QueryBudget;
use common::{build_graph, case_strategy, queries_strategy, raw_query};
use kgraph::GraphBuilder;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use wikisearch_engine::{compile_snapshot, Backend, QueryRequest, WikiSearch, WikiSearchResult};

/// Every backend pair the property runs under (thread counts deliberately
/// small — determinism must not depend on them).
fn backends() -> Vec<Backend> {
    vec![
        Backend::Sequential,
        Backend::ParCpu(3),
        Backend::GpuStyle(2),
        Backend::DynPar(3),
    ]
}

const SHARD_COUNTS: &[usize] = &[1, 4];

fn tmp() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "ws-mmap-eq-{}-{}.wsnap",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Everything observable about a result, floats as exact bits: the
/// keyword analysis, then the suites' one digest of answers and stats.
fn digest(r: &WikiSearchResult) -> String {
    format!(
        "groups:{:?} unmatched:{:?} kwf:{} {}",
        r.query.groups,
        r.query.unmatched,
        r.kwf.to_bits(),
        common::digest(&r.answers, &r.stats)
    )
}

/// Run the same query stream against both engines and compare digests.
/// Each query runs twice so the second hit is answered from the result
/// cache on both sides — cached responses must match too.
fn assert_equivalent(
    heap: &WikiSearch,
    mapped: &WikiSearch,
    queries: &[Vec<usize>],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        heap.params().average_distance.to_bits(),
        mapped.params().average_distance.to_bits(),
        "stored A diverged from the sampled one ({})",
        label
    );
    for q in queries {
        let raw = raw_query(q);
        for pass in 0..2 {
            let a = heap.search(&raw);
            let b = mapped.search(&raw);
            prop_assert_eq!(
                digest(&a),
                digest(&b),
                "digest diverged ({}, query {:?}, pass {})",
                label,
                &raw,
                pass
            );
        }
        // A starved expansion budget must fail identically on both
        // backings (same structured error kind and text).
        let starved = QueryBudget::unlimited().with_max_expansions(1);
        let ea = heap
            .execute(&QueryRequest { budget: starved, ..QueryRequest::new(&raw, heap.params()) });
        let eb = mapped
            .execute(&QueryRequest { budget: starved, ..QueryRequest::new(&raw, mapped.params()) });
        match (ea, eb) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(digest(&a), digest(&b), "({})", label);
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.kind(), b.kind(), "({})", label);
                prop_assert_eq!(a.to_string(), b.to_string(), "({})", label);
            }
            (a, b) => {
                return Err(TestCaseError::Fail(format!(
                    "budget outcome diverged ({label}): heap {:?} vs mapped {:?}",
                    a.map(|r| r.answers.len()),
                    b.map(|r| r.answers.len()),
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn mmap_equivalence(case in case_strategy(20, 40), extra in queries_strategy(1..4, 0..3)) {
        let g = build_graph(&case);
        let queries: Vec<Vec<usize>> = std::iter::once(case.query.clone()).chain(extra).collect();
        let path = tmp();
        compile_snapshot(&g, &path).unwrap();

        for backend in backends() {
            for &shards in SHARD_COUNTS {
                // gpu and dyn are solo engines.
                if shards > 1 && backend.sharded().is_err() {
                    continue;
                }
                let mut heap = WikiSearch::open_sharded(g.clone(), backend, shards);
                let mut mapped =
                    WikiSearch::open_snapshot_sharded(&path, backend, shards).unwrap();
                prop_assert!(mapped.is_memory_mapped());
                prop_assert!(!heap.is_memory_mapped());
                let mut params = heap.params().clone();
                params.top_k = case.top_k;
                heap.set_params(params.clone());
                mapped.set_params(params);
                // Identical small caches on both sides: the second pass
                // of every query is a cache hit.
                heap.set_cache_capacity(1 << 20);
                mapped.set_cache_capacity(1 << 20);
                let label = format!("{backend:?}/shards={shards}");
                assert_equivalent(&heap, &mapped, &queries, &label)?;
            }
        }
        let _ = std::fs::remove_file(path);
    }
}

/// The index embedded in a compiled snapshot *is* the index the heap
/// build constructs: same terms, same posting lists, straight from the
/// mapping (not rebuilt).
#[test]
fn snapshot_index_matches_heap_index() {
    let mut b = GraphBuilder::new();
    let x = b.add_node("Q1", "alpha beta");
    let y = b.add_node("Q2", "beta gamma");
    let z = b.add_node("Q3", "gamma alpha");
    b.add_edge(x, y, "p");
    b.add_edge(y, z, "q");
    let g = b.build();
    let path = tmp();
    compile_snapshot(&g, &path).unwrap();
    let mapped = WikiSearch::open_snapshot(&path, Backend::Sequential).unwrap();
    assert!(mapped.index().is_memory_mapped(), "index must come from the mapping");
    let heap = WikiSearch::build_with(g, Backend::Sequential);
    assert_eq!(heap.index().num_terms(), mapped.index().num_terms());
    for (term, freq) in heap.index().term_frequencies() {
        assert_eq!(mapped.index().frequency(term), freq, "{term}");
        assert_eq!(heap.index().lookup_analyzed(term), mapped.index().lookup_analyzed(term));
    }
    let _ = std::fs::remove_file(path);
}
