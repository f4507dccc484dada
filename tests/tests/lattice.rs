//! The four configurations the wire ledger serves, against one oracle.
//!
//! `benchmark/run.sh` starts `serve` at four points of the configuration
//! lattice — `hot_cache` {`cpu:4`, mmap, 64 MiB cache}, `deep_miss`
//! {`cpu:2`, heap, cache off}, `zipf_mix` {`seq`, heap, 256 KiB cache},
//! `remote_shards` {`seq`, mmap, two shard workers, cache off} — each
//! with the telemetry sampler running. The pairwise `*_equivalence`
//! suites each vary one axis; this one opens those four points through
//! the facade and compares every answer, and every starved-budget error
//! class, with a fresh solo `SeqEngine` through the suites' one digest.

mod common;

use central::engine::{KeywordSearchEngine, SeqEngine};
use central::shard::DEFAULT_PARTITION_SEED;
use central::{QueryBudget, RemoteOptions, ShardWorker, StaticAddrs, TelemetrySample};
use common::{build_graph, case_strategy, digest, WORDS};
use kgraph::KnowledgeGraph;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use textindex::ParsedQuery;
use wikisearch_engine::{compile_snapshot, Backend, QueryRequest, WikiSearch};

/// One serving point of the ledger: a `serve` command line, as data.
struct Point {
    workload: &'static str,
    backend: Backend,
    mmap: bool,
    cache_bytes: usize,
    shard_workers: usize,
}

#[rustfmt::skip]
const POINTS: [Point; 4] = [
    Point { workload: "hot_cache", backend: Backend::ParCpu(4), mmap: true, cache_bytes: 64 << 20, shard_workers: 0 },
    Point { workload: "deep_miss", backend: Backend::ParCpu(2), mmap: false, cache_bytes: 0, shard_workers: 0 },
    Point { workload: "zipf_mix", backend: Backend::Sequential, mmap: false, cache_bytes: 256 << 10, shard_workers: 0 },
    Point { workload: "remote_shards", backend: Backend::Sequential, mmap: true, cache_bytes: 0, shard_workers: 2 },
];

/// Open `point` over `graph` (its compiled snapshot is at `snapshot`).
fn open(point: &Point, graph: &KnowledgeGraph, snapshot: &Path) -> WikiSearch {
    let mut ws = if point.mmap {
        WikiSearch::open_snapshot(snapshot, point.backend).unwrap()
    } else {
        WikiSearch::build_with(graph.clone(), point.backend)
    };
    assert_eq!(ws.is_memory_mapped(), point.mmap);
    if point.shard_workers > 0 {
        let n = point.shard_workers;
        let addrs =
            (0..n).map(|i| ShardWorker::spawn_local(ws.graph(), n, i, DEFAULT_PARTITION_SEED));
        // No retries: a healthy loopback fleet needs none.
        let opts = RemoteOptions { attempts: 1, ..RemoteOptions::default() };
        ws.set_remote_shards(n, Arc::new(StaticAddrs(addrs.collect())), opts);
    }
    ws.set_cache_capacity(point.cache_bytes);
    ws.set_telemetry(1, 64);
    ws
}

fn snapshot_path() -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("ws-lattice-{}-{n}.wsnap", std::process::id()))
}

/// The query stream of a case: its query, extra queries, and after each
/// a reordering (reversed, upper-cased) that shares its cache key.
fn stream(case: &common::Case, extra: &[Vec<usize>]) -> Vec<String> {
    let mut raws = Vec::new();
    for q in std::iter::once(&case.query).chain(extra) {
        let words: Vec<&str> = q.iter().map(|&w| WORDS[w]).collect();
        raws.push(words.join(" "));
        let reversed: Vec<String> = words.iter().rev().map(|w| w.to_uppercase()).collect();
        raws.push(reversed.join(" "));
    }
    raws
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_ledger_point_answers_like_a_fresh_solo_seq_engine(
        case in case_strategy(20, 40),
        extra in proptest::collection::vec(proptest::collection::vec(0usize..WORDS.len(), 2..4), 1..3),
    ) {
        let graph = build_graph(&case);
        let path = snapshot_path();
        compile_snapshot(&graph, &path).unwrap();
        let starved = QueryBudget::unlimited().with_max_expansions(1);

        // The oracle: index and (α, A) of a plain heap build, and per
        // step a fresh solo `SeqEngine` under each budget. Every other
        // query (with its reordering) runs under the case's explicit
        // activation map, the rest under the (α, A) table the ledger's
        // traffic uses.
        let heap = WikiSearch::build_with(graph.clone(), Backend::Sequential);
        let mut base = heap.params().clone();
        base.top_k = case.top_k;
        let mapped = base.clone().with_explicit_activation(case.activation.clone());
        let steps: Vec<_> = stream(&case, &extra)
            .into_iter()
            .enumerate()
            .map(|(step, raw)| {
                let params = if step / 2 % 2 == 1 { &mapped } else { &base };
                let query = ParsedQuery::parse(heap.index(), &raw);
                let solo = |budget: &QueryBudget| {
                    SeqEngine::new()
                        .try_search(&graph, &query, params, budget)
                        .map(|out| digest(&out.answers, &out.stats))
                };
                let full = solo(&QueryBudget::unlimited()).expect("an unlimited budget cannot trip");
                (raw, params, full, solo(&starved))
            })
            .collect();

        for point in &POINTS {
            let ws = open(point, &graph, &path);
            let name = point.workload;
            prop_assert_eq!(
                ws.params().average_distance.to_bits(),
                base.average_distance.to_bits(),
                "A diverged: {}", name
            );
            for (step, (raw, params, full, want_starved)) in steps.iter().enumerate() {
                let label = format!("{name} step {step} {raw:?}");
                // What the sampler thread does once a second.
                ws.telemetry().record_sample(&TelemetrySample {
                    t_us: step as u64 * 1_000_000,
                    served: 2 * step as u64,
                    snapshot: ws.metrics_snapshot(),
                });

                // Starved first: a failed search caches nothing, so the
                // full request below still computes (or hits a reordering).
                let hits_before = ws.cache_stats().map(|c| c.hits);
                let got = ws
                    .execute(&QueryRequest { budget: starved, ..QueryRequest::new(raw, params) })
                    .map(|r| digest(&r.answers, &r.stats));
                match (got, want_starved) {
                    (Ok(got), Ok(want)) => prop_assert_eq!(&got, want, "starved: {}", label),
                    (Err(got), Err(want)) => {
                        prop_assert_eq!(got.kind(), want.kind(), "error class: {}", label)
                    }
                    // A hit is served before the budget is armed: the
                    // full answer, from memory, where a search would trip.
                    (Ok(got), Err(_)) => {
                        let hits = ws.cache_stats().map(|c| c.hits);
                        prop_assert_eq!(hits, hits_before.map(|h| h + 1), "not a hit: {}", label);
                        prop_assert_eq!(&got, full, "starved hit: {}", label);
                    }
                    (Err(got), Ok(_)) => panic!("{label}: tripped ({got:?}) where solo answered"),
                }

                let got = ws.execute(&QueryRequest::new(raw, params)).expect("unlimited budget");
                prop_assert!(!got.degraded, "healthy fleet degraded: {}", label);
                prop_assert_eq!(&digest(&got.answers, &got.stats), full, "{}", label);
            }

            // The sampler's view through the facade: every sample kept,
            // and the widest window spans first to last — two requests
            // per step between them.
            let telemetry = ws.telemetry();
            let between = 2 * (steps.len() as u64 - 1);
            prop_assert_eq!(telemetry.samples(), steps.len() as u64, "{}", name);
            prop_assert_eq!(telemetry.in_flight().current(), 0, "{}", name);
            prop_assert!(telemetry.slowest_recent().is_some(), "{}", name);
            let window = telemetry.window(u64::MAX).expect("at least two samples");
            prop_assert_eq!((window.delta.queries, window.served), (between, between), "{}", name);
        }
        let _ = std::fs::remove_file(path);
    }
}
