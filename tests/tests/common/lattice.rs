//! The one differential oracle's runner: a point of the configuration
//! lattice, opened through the `WikiSearch` facade, answers every step of
//! a query stream exactly like a fresh solo `SeqEngine` (`super::solo`),
//! compared through `super::result_digest` — keyword analysis, answers,
//! score bits, statistics — and trips every starved budget with the same
//! error. `lattice.rs` runs it over the whole lattice; the cache, mmap and
//! telemetry suites run it over the slice of their one axis (the telemetry
//! suite's axis is tracing).
//!
//! The stream spells each of at least three distinct base queries the five
//! ways that share a cache key, alternates the (α, A) params with the
//! case's activation map, flips every third step to `top_k 1, λ 0` (which
//! must never share an entry with the unflipped params), and runs every
//! step starved (one expansion) before it runs unlimited. At trace-on
//! points every step carries a caller-assigned qid and every odd step is
//! traced, and must pass the cache by.
//!
//! The proptest shim does not shrink: every failure names the point's axes,
//! the step, its raw query and the params it ran under.

use super::{build_graph, result_digest, solo, Case, WORDS};
use central::shard::DEFAULT_PARTITION_SEED;
use central::{QueryBudget, RemoteOptions, SearchError, SearchParams, ShardWorker, StaticAddrs};
use kgraph::KnowledgeGraph;
use proptest::prelude::*;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use textindex::InvertedIndex;
use wikisearch_engine::{compile_snapshot, Backend, QueryRequest, WikiSearch, WikiSearchResult};

/// One point of the lattice: a `serve` command line, as data.
#[derive(Clone, Copy)]
pub struct Point {
    /// The ledger workload served at this point, or how it was chosen.
    pub name: &'static str,
    pub backend: Backend,
    /// Loopback shard workers; 0 answers in process.
    pub workers: usize,
    pub mmap: bool,
    pub cache_bytes: usize,
    pub trace: bool,
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let storage = if self.mmap { "mmap" } else { "heap" };
        let trace = if self.trace { "on" } else { "off" };
        write!(
            f,
            "[{}: {:?}, {} workers, {storage}, cache {} B, trace {trace}]",
            self.name, self.backend, self.workers, self.cache_bytes
        )
    }
}

pub const BACKENDS: [Backend; 4] = [
    Backend::Sequential,
    Backend::ParCpu(2),
    Backend::GpuStyle(2),
    Backend::DynPar(2),
];
pub const FLEETS: [usize; 3] = [1, 2, 4];
pub const CACHE_BYTES: usize = 1 << 20;

/// The axis masks [`Point::each_backend`] takes: bit 0, 1 and 2, as
/// [`Point::new`] numbers them.
pub const MMAP: u8 = 1 << 0;
pub const CACHE: u8 = 1 << 1;
pub const TRACE: u8 = 1 << 2;

impl Point {
    /// `backend` on `workers` workers, with mmap, the cache and tracing
    /// on where `on` says so for bit 0, 1 and 2.
    pub fn new(
        name: &'static str,
        backend: Backend,
        workers: usize,
        on: impl Fn(u8) -> bool,
    ) -> Point {
        let cache_bytes = if on(1) { CACHE_BYTES } else { 0 };
        Point { name, backend, workers, mmap: on(0), cache_bytes, trace: on(2) }
    }

    /// Each backend in process, with the axes in `axes` on and the rest
    /// off.
    pub fn each_backend(name: &'static str, axes: u8) -> Vec<Point> {
        BACKENDS
            .map(|backend| Point::new(name, backend, 0, |bit| axes >> bit & 1 == 1))
            .into()
    }
}

/// One loopback fleet of each size some point of `points` runs on, shared
/// by every point of a case: a worker never exits, so a fleet per point
/// would pile up threads.
pub fn spawn_fleets(graph: &KnowledgeGraph, points: &[Point]) -> Vec<Vec<SocketAddr>> {
    let spawn = |n| {
        (0..n)
            .map(|i| ShardWorker::spawn_local(graph, n, i, DEFAULT_PARTITION_SEED))
            .collect()
    };
    let used = FLEETS.iter().filter(|&&n| points.iter().any(|p| p.workers == n));
    used.map(|&n| spawn(n)).collect()
}

/// Open `point` over `graph` (its compiled snapshot is at `snapshot`), on
/// the fleet of its size.
pub fn open(
    point: &Point,
    graph: &KnowledgeGraph,
    snapshot: &Path,
    fleets: &[Vec<SocketAddr>],
) -> WikiSearch {
    let mut ws = if point.mmap {
        WikiSearch::open_snapshot(snapshot, point.backend).unwrap()
    } else {
        WikiSearch::build_with(graph.clone(), point.backend)
    };
    assert_eq!(ws.is_memory_mapped(), point.mmap);
    if let Some(addrs) = fleets.iter().find(|addrs| addrs.len() == point.workers) {
        // No retries: a healthy loopback fleet needs none.
        let opts = RemoteOptions { attempts: 1, ..RemoteOptions::default() };
        ws.set_remote_shards(point.workers, Arc::new(StaticAddrs(addrs.clone())), opts);
    }
    ws.set_cache_capacity(point.cache_bytes);
    ws
}

pub fn snapshot_path() -> PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("ws-lattice-{}-{n}.wsnap", std::process::id()))
}

fn starved() -> QueryBudget {
    QueryBudget::unlimited().with_max_expansions(1)
}

/// One step of a stream and the oracle's verdicts on it.
pub struct Step {
    raw: String,
    /// Which params the step runs under, for failure messages.
    name: &'static str,
    params: SearchParams,
    full: String,
    starved: Result<String, SearchError>,
}

impl Step {
    pub fn new(
        graph: &KnowledgeGraph,
        index: &InvertedIndex,
        raw: String,
        name: &'static str,
        params: &SearchParams,
    ) -> Step {
        let full = solo(graph, index, &raw, params, &QueryBudget::unlimited())
            .expect("an unlimited budget cannot trip");
        let starved = solo(graph, index, &raw, params, &starved());
        Step { raw, name, params: params.clone(), full, starved }
    }
}

/// The sorted, deduplicated words of a query.
fn word_set(query: &[usize]) -> Vec<usize> {
    let mut words = query.to_vec();
    words.sort_unstable();
    words.dedup();
    words
}

/// The `spelling`th of five spellings of `words`, all one cache key: as
/// given, an exact repeat, reversed and upper-cased (a hit must reorient
/// the per-keyword parts), stopworded, and every word doubled.
fn spell(words: &[&str], spelling: usize) -> String {
    match spelling {
        0 | 1 => words.join(" "),
        2 => words.iter().rev().map(|w| w.to_uppercase()).collect::<Vec<_>>().join(" "),
        3 => format!("the {} of", words.join(" and the ")),
        _ => words.iter().flat_map(|w| [*w, *w]).collect::<Vec<_>>().join(" "),
    }
}

/// The case's stream over `graph`: its query, then each extra one (its
/// words shifted through the pool until its word set is new), each in all
/// five spellings. Steps alternate the heap build's (α, A) params, at the
/// case's top-k, with the case's activation map, and every third is
/// flipped to `top_k 1, λ 0`.
fn stream(
    case: &Case,
    extra: &[Vec<usize>],
    graph: &KnowledgeGraph,
    heap: &WikiSearch,
) -> Vec<Step> {
    let mut base = heap.params().clone();
    base.top_k = case.top_k;
    let mapped = base.clone().with_explicit_activation(case.activation.clone());
    let flip = |p: &SearchParams| p.clone().with_top_k(1).with_lambda(0.0);
    let table = [
        ("(α, A)", base.clone()),
        ("the activation map", mapped.clone()),
        ("(α, A) flipped to top_k 1, λ 0", flip(&base)),
        ("the activation map flipped to top_k 1, λ 0", flip(&mapped)),
    ];
    let (mut seen, mut steps) = (Vec::new(), Vec::new());
    for query in std::iter::once(&case.query).chain(extra) {
        let mut query = query.clone();
        while seen.contains(&word_set(&query)) {
            query.iter_mut().for_each(|w| *w = (*w + 1) % WORDS.len());
        }
        seen.push(word_set(&query));
        let words: Vec<&str> = query.iter().map(|&w| WORDS[w]).collect();
        for spelling in 0..5 {
            let n = steps.len();
            let (name, params) = &table[n % 2 + if n % 3 == 2 { 2 } else { 0 }];
            steps.push(Step::new(graph, heap.index(), spell(&words, spelling), name, params));
        }
    }
    steps
}

/// A traced request, and only a traced one, returns a trace; on a
/// trace-on point the result, and its trace if any, carry the
/// assigned qid.
fn check_tags(
    got: &WikiSearchResult,
    params: &SearchParams,
    qid: Option<u64>,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.trace.is_some(), params.trace, "trace: {}", label);
    if let Some(qid) = qid {
        let trace_qid = got.trace.as_ref().map(|trace| trace.qid);
        let want = (qid, params.trace.then_some(Some(qid)));
        prop_assert_eq!((got.qid, trace_qid), want, "qid: {}", label);
    }
    Ok(())
}

/// Run `steps` through `ws`, opened at `point`, each starved then
/// unlimited, against the oracle's verdicts; then check what the point
/// itself accounts.
pub fn run_point(point: &Point, ws: &WikiSearch, steps: &[Step]) -> Result<(), TestCaseError> {
    let a = steps[0].params.average_distance;
    prop_assert_eq!(ws.params().average_distance.to_bits(), a.to_bits(), "A diverged: {}", point);
    for (n, step) in steps.iter().enumerate() {
        let label = format!("{point} step {n} {:?} under {}", step.raw, step.name);
        let traced;
        let (params, qids) = if point.trace {
            // Odd steps run traced, so live: even steps keep the cache in
            // play at cache-on points.
            traced = step.params.clone().with_trace(n % 2 == 1);
            (&traced, [Some(1_000 + 2 * n as u64), Some(1_001 + 2 * n as u64)])
        } else {
            (&step.params, [None, None])
        };

        // Starved first: a failed search caches nothing, so the unlimited
        // request below still computes (or hits an earlier spelling).
        let before = ws.cache_stats();
        let request = QueryRequest {
            budget: starved(),
            qid: qids[0],
            ..QueryRequest::new(&step.raw, params)
        };
        match (ws.execute(&request), &step.starved) {
            (Ok(got), Ok(want)) => {
                check_tags(&got, params, qids[0], &label)?;
                prop_assert_eq!(&result_digest(&got), want, "starved: {}", label);
            }
            (Err(got), Err(want)) => {
                let (got, want) = ((got.kind(), got.to_string()), (want.kind(), want.to_string()));
                prop_assert_eq!(got, want, "starved: {}", label);
            }
            // A hit is served before the budget is armed: the full answer,
            // from memory, where a search would trip.
            (Ok(got), Err(_)) => {
                let hit = before.is_some_and(|b| ws.cache_stats().unwrap().hits == b.hits + 1);
                prop_assert!(hit, "starved: answered without a cache hit: {}", label);
                check_tags(&got, params, qids[0], &label)?;
                prop_assert_eq!(&result_digest(&got), &step.full, "starved hit: {}", label);
            }
            (Err(got), Ok(_)) => {
                return Err(TestCaseError::Fail(format!(
                    "starved: tripped ({got}) where the oracle answered: {label}"
                )))
            }
        }

        let request = QueryRequest { qid: qids[1], ..QueryRequest::new(&step.raw, params) };
        let got = ws.execute(&request).map_err(|e| TestCaseError::Fail(format!("{e}: {label}")))?;
        check_tags(&got, params, qids[1], &label)?;
        prop_assert_eq!(&result_digest(&got), &step.full, "unlimited: {}", label);
        if params.trace {
            let lookups = ws.cache_stats().map(|c| c.lookups);
            let before = before.map(|c| c.lookups);
            prop_assert_eq!(lookups, before, "a traced request read the cache: {}", label);
        }
    }

    // One pooled session carried the stream in process; a fleet's lanes
    // are the coordinator's own.
    let sessions = ws.session_pool().sessions_created();
    prop_assert_eq!(sessions, usize::from(point.workers == 0), "sessions: {}", point);
    if let Some(cache) = ws.cache_stats() {
        prop_assert_eq!(cache.hits + cache.misses, cache.lookups, "{}", point);
        prop_assert!(cache.bytes <= cache.capacity_bytes, "{}", point);
    }
    prop_assert_eq!(ws.queries_in_flight(), 0, "{}", point);
    Ok(())
}

/// The case's stream (its query plus `extra`) through every one of
/// `points`, each opened fresh over the case's graph, against the oracle.
pub fn check_case(
    case: &Case,
    extra: &[Vec<usize>],
    points: &[Point],
) -> Result<(), TestCaseError> {
    let graph = build_graph(case);
    let path = snapshot_path();
    compile_snapshot(&graph, &path).unwrap();
    let heap = WikiSearch::build_with(graph.clone(), Backend::Sequential);
    let steps = stream(case, extra, &graph, &heap);
    let fleets = spawn_fleets(&graph, points);
    let checked = points.iter().try_for_each(|point| {
        let ws = open(point, &graph, &path, &fleets);
        run_point(point, &ws, &steps)?;
        // Steps 3 and 4 repeat the keys of steps 1 and 0 under the same
        // params, so unless the first query matches nothing (an empty
        // parse bypasses the cache) both hit.
        if let Some(cache) = ws.cache_stats() {
            if !heap.parse(&steps[0].raw).is_empty() {
                prop_assert!(cache.hits >= 2, "no hit for {:?}: {}", steps[0].raw, point);
            }
        }
        Ok(())
    });
    let _ = std::fs::remove_file(path);
    checked
}
