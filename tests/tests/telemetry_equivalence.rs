//! The telemetry form of the workspace's central correctness property:
//! observing a query must never change it. A [`WikiSearch`] with the
//! full telemetry surface armed — fleet-wide query IDs passed through
//! [`QueryRequest::qid`], full tracing (which on the remote path
//! also turns on cross-process span collection), a live sample ring fed
//! between queries — must be *byte-identical* to a default engine with
//! none of that: same answers, same per-keyword hitting paths, same
//! score bits, same statistics, and the same structured error classes
//! when a budget trips.
//!
//! The property runs across all four backends on the monolithic
//! in-process shape and `seq`/`cpu` on the other two (in-process sharded
//! scatter-gather, remote workers over real TCP — `gpu` and `dyn` are solo
//! engines), because each shape has its own telemetry
//! hooks: the facade's recent-query ring, the shard coordinator's qid
//! tagging, and — over TCP — its span piggybacking.

mod common;

use central::shard::DEFAULT_PARTITION_SEED;
use central::{QueryBudget, RemoteOptions, ShardWorker, StaticAddrs, TelemetrySample};
use common::{build_graph, case_strategy, queries_strategy, raw_query};
use kgraph::KnowledgeGraph;
use proptest::prelude::*;
use std::sync::Arc;
use wikisearch_engine::{Backend, QueryRequest, WikiSearch, WikiSearchResult};

/// The execution shapes the property covers.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Monolithic in-process engine behind the session pool.
    InProcess,
    /// In-process sharded scatter-gather over 2 shards.
    Sharded,
    /// Remote coordinator over 2 in-process TCP workers.
    Remote,
}

const MODES: [Mode; 3] = [Mode::InProcess, Mode::Sharded, Mode::Remote];

/// Supervision knobs for in-process fleets (mirrors
/// `remote_equivalence`): minimal retry budget.
fn test_opts() -> RemoteOptions {
    RemoteOptions { attempts: 1, ..RemoteOptions::default() }
}

/// Build one facade in the given shape. Remote mode spawns its own
/// worker fleet — two engines never share workers, so neither can
/// perturb the other through connection state.
fn build(graph: KnowledgeGraph, backend: Backend, mode: Mode) -> WikiSearch {
    match mode {
        Mode::InProcess => WikiSearch::build_with(graph, backend),
        Mode::Sharded => WikiSearch::open_sharded(graph, backend, 2),
        Mode::Remote => {
            let addrs: Vec<std::net::SocketAddr> = (0..2)
                .map(|i| ShardWorker::spawn_local(&graph, 2, i, DEFAULT_PARTITION_SEED))
                .collect();
            let mut ws = WikiSearch::build_with(graph, backend);
            ws.set_remote_shards(2, Arc::new(StaticAddrs(addrs)), test_opts());
            ws
        }
    }
}

/// Everything observable about one search result except timing and the
/// telemetry surface itself (qid, trace), as one comparable string:
/// keyword grouping, unmatched words, answers with their
/// order-sensitive per-keyword parts, score bits, the full statistics
/// block including the level trace, and the degraded flag.
fn digest(r: &WikiSearchResult) -> String {
    format!(
        "groups:{:?} unmatched:{:?} kwf:{} degraded:{} {}",
        r.query.groups,
        r.query.unmatched,
        r.kwf,
        r.degraded,
        common::digest(&r.answers, &r.stats)
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// For every backend × execution shape, a query stream answered with
    /// the full telemetry surface armed is byte-identical to the same
    /// stream on a default engine — and when a tight budget trips, both
    /// engines raise the same structured error class.
    #[test]
    fn telemetry_never_perturbs_answers(
        case in case_strategy(16, 40),
        extra in queries_strategy(2..4, 1..4),
    ) {
        let queries: Vec<Vec<usize>> = std::iter::once(case.query.clone()).chain(extra).collect();
        let backends =
            [Backend::Sequential, Backend::ParCpu(2), Backend::GpuStyle(2), Backend::DynPar(2)];
        for backend in backends {
            for mode in MODES {
                if mode != Mode::InProcess && backend.sharded().is_err() {
                    continue;
                }
                let plain = build(build_graph(&case), backend, mode);
                let mut observed = build(build_graph(&case), backend, mode);
                observed.set_telemetry(1, 64);

                let base = plain.params().clone();
                let traced = base.clone().with_trace(true);
                let unlimited = QueryBudget::unlimited();
                let tight = QueryBudget::unlimited().with_max_expansions(2);

                for (i, q) in queries.iter().enumerate() {
                    let raw = raw_query(q);
                    // Every other step runs under a budget tight enough
                    // to trip on most graphs: error classes must agree
                    // exactly, telemetry on or off.
                    let budget = if i % 2 == 1 { &tight } else { &unlimited };
                    let want = plain
                        .execute(&QueryRequest { budget: *budget, ..QueryRequest::new(&raw, &base) });
                    // The observed engine runs the heavyweight path: a
                    // caller-assigned fleet-wide qid, full tracing (span
                    // collection over remote workers), and a telemetry
                    // sample recorded mid-stream.
                    observed.telemetry().record_sample(&TelemetrySample {
                        t_us: (i as u64 + 1) * 1_000,
                        served: i as u64,
                        snapshot: observed.metrics_snapshot(),
                    });
                    let got = observed.execute(&QueryRequest {
                        budget: *budget,
                        qid: Some(1_000 + i as u64),
                        ..QueryRequest::new(&raw, &traced)
                    });
                    let label = format!("{backend:?} {mode:?} step {i} {raw:?}");
                    match (got, want) {
                        (Ok(got), Ok(want)) => {
                            prop_assert_eq!(digest(&got), digest(&want), "diverged: {}", label);
                            // The telemetry surface itself did its job
                            // without touching the answer bytes above.
                            prop_assert_eq!(got.qid, 1_000 + i as u64, "qid lost: {}", label);
                            let trace = got.trace.as_deref().expect("traced search carries a trace");
                            prop_assert_eq!(trace.qid, Some(1_000 + i as u64), "{}", label);
                        }
                        (Err(got), Err(want)) => {
                            prop_assert_eq!(
                                got.kind(),
                                want.kind(),
                                "error class diverged: {}",
                                label
                            );
                        }
                        (got, want) => panic!(
                            "one engine failed, the other answered: {label}: \
                             observed={got:?} plain={want:?}"
                        ),
                    }
                }

                // The observed engine really was observed: every search
                // (successful or not) entered the recent-query ring, and
                // the hand-fed sample ring holds the stream's samples.
                prop_assert!(observed.telemetry().slowest_recent().is_some());
                prop_assert_eq!(
                    observed.telemetry().samples(),
                    queries.len() as u64,
                    "{:?}",
                    mode
                );
            }
        }
    }
}

/// Deterministic corner: an empty parse (no keyword matches anything)
/// and a single-node graph answer identically with telemetry on or off,
/// in every shape — shrunken proptest cases rarely land exactly here.
#[test]
fn degenerate_queries_are_unperturbed_in_every_shape() {
    let graph = || {
        let mut b = kgraph::GraphBuilder::new();
        b.add_node("solo", "alpha beta");
        b.build()
    };
    for mode in MODES {
        let plain = build(graph(), Backend::Sequential, mode);
        let mut observed = build(graph(), Backend::Sequential, mode);
        observed.set_telemetry(1, 8);
        let traced = plain.params().clone().with_trace(true);
        let budget = QueryBudget::unlimited();
        for q in ["alpha beta", "alpha", "zzz nothing", ""] {
            let want = plain
                .execute(&QueryRequest { budget, ..QueryRequest::new(q, plain.params()) })
                .map(|r| digest(&r));
            let got = observed
                .execute(&QueryRequest { budget, qid: Some(7), ..QueryRequest::new(q, &traced) })
                .map(|r| digest(&r));
            match (got, want) {
                (Ok(got), Ok(want)) => assert_eq!(got, want, "{mode:?} {q:?}"),
                (Err(got), Err(want)) => {
                    assert_eq!(got.kind(), want.kind(), "{mode:?} {q:?}")
                }
                (got, want) => panic!("{mode:?} {q:?}: observed={got:?} plain={want:?}"),
            }
        }
    }
}
