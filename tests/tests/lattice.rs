//! The one differential oracle: every point of the configuration lattice,
//! opened through the `WikiSearch` facade, answers every step of a query
//! stream exactly like a fresh solo `SeqEngine` (`common::solo`), compared
//! through `common::result_digest` — keyword analysis, answers, score bits,
//! statistics — and trips every starved budget with the same error. The
//! runner, the stream and the per-point checks are `common::lattice`.
//!
//! The axes: backend (`seq`, `cpu:2`, `gpu:2`, `dyn:2`); remote workers
//! (none, or a loopback fleet of 1, 2 or 4, under `seq` and `cpu` only);
//! storage (heap, or a memory-mapped snapshot); the result cache (off, or
//! 1 MiB); trace (off, or on: every odd step traced and every step given a
//! caller-assigned qid). A case runs the four points the
//! wire ledger serves (`benchmark/run.sh`) plus seven drawn ones, so every
//! value of every axis occurs in every case, and every point runs the
//! case's whole stream — on one pooled session when it answers in process.

mod common;

use common::lattice::{
    check_case, open, run_point, snapshot_path, spawn_fleets, Point, Step, BACKENDS, FLEETS,
};
use common::{case_strategy, queries_strategy};
use kgraph::GraphBuilder;
use proptest::prelude::*;
use wikisearch_engine::{compile_snapshot, Backend, WikiSearch};

#[rustfmt::skip]
const POINTS: [Point; 4] = [
    Point { name: "hot_cache", backend: Backend::ParCpu(4), workers: 0, mmap: true, cache_bytes: 64 << 20, trace: true },
    Point { name: "deep_miss", backend: Backend::ParCpu(2), workers: 0, mmap: false, cache_bytes: 0, trace: true },
    Point { name: "zipf_mix", backend: Backend::Sequential, workers: 0, mmap: false, cache_bytes: 256 << 10, trace: true },
    Point { name: "remote_shards", backend: Backend::Sequential, workers: 2, mmap: true, cache_bytes: 0, trace: true },
];

/// The ledger's points plus seven drawn ones: each backend in process, then
/// each fleet size under `cpu:2` where `cpu` says so, else `seq`. Down the
/// seven, each two-valued axis alternates, starting from its bit of
/// `phases`.
fn points(phases: u8, cpu: &[bool]) -> Vec<Point> {
    let solo = BACKENDS.map(|backend| (backend, 0));
    let fleets = FLEETS
        .iter()
        .zip(cpu)
        .map(|(&workers, &cpu)| (BACKENDS[usize::from(cpu)], workers));
    let drawn = solo.into_iter().chain(fleets).enumerate().map(|(j, (backend, workers))| {
        Point::new("drawn", backend, workers, |bit| (j + usize::from(phases >> bit & 1)) % 2 == 1)
    });
    POINTS.into_iter().chain(drawn).collect()
}

/// Every point of the lattice: each backend in process and `seq` and
/// `cpu:2` on each fleet, times every setting of the two-valued axes.
fn every_point() -> Vec<Point> {
    let solo = BACKENDS.map(|backend| (backend, 0));
    let fleets = FLEETS
        .iter()
        .flat_map(|&workers| BACKENDS[..2].iter().map(move |&b| (b, workers)));
    let shapes = solo.into_iter().chain(fleets);
    let settings = |(backend, workers): (Backend, usize)| {
        (0..8u8).map(move |bits| Point::new("every", backend, workers, |bit| bits >> bit & 1 == 1))
    };
    shapes.flat_map(settings).collect()
}

/// Whether every value of every axis occurs among `points`.
fn covers_every_axis(points: &[Point]) -> bool {
    let has = |p: &dyn Fn(&Point) -> bool| points.iter().any(p);
    BACKENDS.iter().all(|&b| has(&|p| p.backend == b))
        && [0].iter().chain(&FLEETS).all(|&w| has(&|p| p.workers == w))
        && [false, true].iter().all(|&on| {
            has(&|p| p.mmap == on) && has(&|p| (p.cache_bytes > 0) == on) && has(&|p| p.trace == on)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn every_ledger_point_answers_like_a_fresh_solo_seq_engine(
        case in case_strategy(20, 40),
        extra in queries_strategy(2..4, 2..4),
        (phases, cpu) in (0u8..8, proptest::collection::vec(false, FLEETS.len())),
    ) {
        let points = points(phases, &cpu);
        prop_assert!(covers_every_axis(&points));
        check_case(&case, &extra, &points)?;
    }
}

/// Deterministic corner: a single-node graph under a query naming both its
/// words, one, none, and the empty string, through every point of the
/// lattice — shrunken proptest cases rarely land exactly here.
#[test]
fn degenerate_queries_are_unperturbed_in_every_shape() {
    let mut b = GraphBuilder::new();
    b.add_node("solo", "alpha beta");
    let graph = b.build();
    let path = snapshot_path();
    compile_snapshot(&graph, &path).unwrap();
    let heap = WikiSearch::build_with(graph.clone(), Backend::Sequential);
    let steps: Vec<Step> = ["alpha beta", "alpha", "zzz nothing", ""]
        .map(|raw| Step::new(&graph, heap.index(), raw.to_string(), "(α, A)", heap.params()))
        .into();
    let points = every_point();
    let fleets = spawn_fleets(&graph, &points);
    for point in points {
        let ws = open(&point, &graph, &path, &fleets);
        run_point(&point, &ws, &steps).unwrap();
    }
    let _ = std::fs::remove_file(path);
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
    let path = snapshot_path();
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
