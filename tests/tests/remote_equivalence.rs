//! The remote-invariance property: answering through the shard
//! coordinator (`central::remote`) over its TCP link — every shard behind
//! a real connection to a worker speaking the length-prefixed frame
//! protocol — is *byte-identical* to the monolithic engine: answers,
//! score bits, statistics, and the per-level trace, for both shard
//! backends (`seq`, `cpu`) and for fleet sizes {1, 2, 4}.
//!
//! This is `shard_equivalence` — the same coordinator over in-process
//! lanes — plus TCP: serialization, the per-round frontier exchange over
//! the wire, and the retry/supervision machinery must all be invisible in
//! the answer bytes. Error semantics
//! travel too — a budget that trips remotely must surface the same
//! structured error class the monolithic engine raises.

mod common;

use central::engine::{KeywordSearchEngine, ParCpuEngine, SeqEngine};
use central::shard::DEFAULT_PARTITION_SEED;
use central::{
    QueryBudget, RemoteOptions, SearchError, SearchParams, ShardBackend, ShardCoordinator,
    ShardWorker, StaticAddrs,
};
use common::{build_graph, case_strategy, digest, WORDS};
use kgraph::{GraphBuilder, KnowledgeGraph};
use proptest::prelude::*;
use std::sync::Arc;
use textindex::{InvertedIndex, ParsedQuery};

/// The fleet sizes every property runs under; 1 pins the degenerate
/// single-worker fleet, 4 usually exceeds the per-shard node count.
const FLEET_SIZES: &[usize] = &[1, 2, 4];

/// Supervision knobs for in-process fleets: a minimal retry budget — a
/// healthy loopback fleet never needs retries anyway.
fn test_opts() -> RemoteOptions {
    RemoteOptions { attempts: 1, ..RemoteOptions::default() }
}

/// Spawn an in-process worker fleet over `graph` and return a
/// coordinator attached to it.
fn remote_fleet(graph: &KnowledgeGraph, backend: ShardBackend, shards: usize) -> ShardCoordinator {
    let addrs: Vec<std::net::SocketAddr> = (0..shards)
        .map(|i| ShardWorker::spawn_local(graph, shards, i, DEFAULT_PARTITION_SEED))
        .collect();
    ShardCoordinator::remote(graph, backend, shards, Arc::new(StaticAddrs(addrs)), test_opts())
}

/// The remote backends paired with their monolithic references.
/// Thread counts are modest: every proptest case spawns fresh fleets.
fn backends() -> Vec<(ShardBackend, Box<dyn KeywordSearchEngine>)> {
    vec![
        (ShardBackend::Seq, Box::new(SeqEngine::new())),
        (ShardBackend::ParCpu(2), Box::new(ParCpuEngine::new(2))),
    ]
}

/// Byte-level comparison of a remote outcome against its monolithic
/// reference, through the suites' one digest.
fn assert_identical(
    remote: &central::SearchOutcome,
    reference: &central::SearchOutcome,
    label: &str,
) {
    assert_eq!(
        digest(&remote.answers, &remote.stats),
        digest(&reference.answers, &reference.stats),
        "{label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// The tentpole property: for arbitrary graphs, queries, explicit
    /// activation maps and top-k, every backend at every fleet size
    /// answers over real worker processes¹ exactly what its monolithic
    /// counterpart answers — and never degrades on a healthy fleet.
    ///
    /// ¹ in-process worker threads on real TCP sockets: the full frame
    ///   protocol without the process-spawn latency.
    #[test]
    fn remote_search_is_byte_identical_to_unsharded(case in case_strategy(20, 40)) {
        let graph = build_graph(&case);
        let idx = InvertedIndex::build(&graph);
        let raw: Vec<&str> = case.query.iter().map(|&w| WORDS[w]).collect();
        let query = ParsedQuery::parse(&idx, &raw.join(" "));
        let params = SearchParams {
            top_k: case.top_k,
            max_level: 12,
            ..SearchParams::default()
        }
        .with_explicit_activation(case.activation.clone());
        let budget = QueryBudget::unlimited();

        for (backend, reference_engine) in backends() {
            let reference = reference_engine.search(&graph, &query, &params);
            for &shards in FLEET_SIZES {
                let coordinator = remote_fleet(&graph, backend, shards);
                let out = coordinator
                    .try_search(&graph, &query, &params, &budget, None)
                    .expect("healthy fleet under an unlimited budget cannot fail");
                prop_assert!(!out.degraded, "healthy fleet degraded: {}", coordinator.name());
                let label = format!("{} x {shards} remote shards", reference_engine.name());
                assert_identical(&out.outcome, &reference, &label);
            }
        }
    }
}

/// Monolithic reference digests compared against every backend × fleet
/// size for one fixed graph and query set (cheap deterministic edge
/// cases that a shrunken proptest case may never reach).
fn assert_all_fleets_match(graph: &KnowledgeGraph, queries: &[&str]) {
    let idx = InvertedIndex::build(graph);
    let params = SearchParams { max_level: 12, ..SearchParams::default() };
    let budget = QueryBudget::unlimited();
    for (backend, reference_engine) in backends() {
        for q in queries {
            let query = ParsedQuery::parse(&idx, q);
            let reference = reference_engine.search(graph, &query, &params);
            for &shards in FLEET_SIZES {
                let coordinator = remote_fleet(graph, backend, shards);
                let out = coordinator
                    .try_search(graph, &query, &params, &budget, None)
                    .expect("healthy fleet under an unlimited budget cannot fail");
                assert!(!out.degraded, "healthy fleet degraded on {q:?}");
                let label =
                    format!("{} x {shards} remote shards on {q:?}", reference_engine.name());
                assert_identical(&out.outcome, &reference, &label);
            }
        }
    }
}

#[test]
fn single_node_graphs_survive_any_fleet_size() {
    let mut b = GraphBuilder::new();
    b.add_node("solo", "alpha beta");
    let graph = b.build();
    assert_all_fleets_match(&graph, &["alpha beta", "alpha", "gamma", ""]);
}

#[test]
fn disconnected_graphs_survive_any_fleet_size() {
    // Two components plus two isolated nodes: cross-component queries
    // must fail identically, intra-component ones must answer
    // identically, at every fleet size.
    let mut b = GraphBuilder::new();
    let a1 = b.add_node("a1", "alpha");
    let a2 = b.add_node("a2", "beta");
    let a3 = b.add_node("a3", "gamma hub");
    b.add_edge(a1, a3, "p");
    b.add_edge(a2, a3, "q");
    let b1 = b.add_node("b1", "delta");
    let b2 = b.add_node("b2", "omega");
    b.add_edge(b1, b2, "p");
    b.add_node("iso1", "sigma");
    b.add_node("iso2", "kappa");
    let graph = b.build();
    assert_all_fleets_match(
        &graph,
        &["alpha beta", "delta omega", "alpha delta", "sigma kappa", "sigma"],
    );
}

#[test]
fn more_workers_than_nodes_is_byte_identical() {
    // 3 nodes, a 4-worker fleet: most workers own nothing and must stay
    // inert without perturbing the merged answers.
    let mut b = GraphBuilder::new();
    let x = b.add_node("x", "alpha");
    let y = b.add_node("y", "beta bridge");
    let z = b.add_node("z", "gamma");
    b.add_edge(x, y, "p");
    b.add_edge(z, y, "q");
    let graph = b.build();
    assert_all_fleets_match(&graph, &["alpha gamma", "alpha beta gamma", "beta"]);
}

#[test]
fn budget_errors_surface_the_same_class_remotely() {
    // A chain long enough that a 1-expansion budget trips mid-search:
    // the remote coordinator must raise the same structured error class
    // the monolithic path raises — never a wire-level error, never a
    // silent partial answer.
    let mut b = GraphBuilder::new();
    let mut prev = b.add_node("n0", "alpha");
    for i in 1..12 {
        let next = b.add_node(&format!("n{i}"), if i == 11 { "omega" } else { "filler" });
        b.add_edge(prev, next, "p");
        prev = next;
    }
    let graph = b.build();
    let idx = InvertedIndex::build(&graph);
    let query = ParsedQuery::parse(&idx, "alpha omega");
    let params = SearchParams { max_level: 16, ..SearchParams::default() };
    let tight = QueryBudget::unlimited().with_max_expansions(1);

    let coordinator = remote_fleet(&graph, ShardBackend::Seq, 2);
    let remote_err = coordinator
        .try_search(&graph, &query, &params, &tight, None)
        .expect_err("a 1-expansion budget must trip on a 12-node chain");
    let local = ShardCoordinator::in_process(&graph, ShardBackend::Seq, 2);
    let local_err = local
        .try_search(&graph, &query, &params, &tight, None)
        .expect_err("the in-process link must trip identically");
    assert_eq!(remote_err.kind(), local_err.kind(), "error class diverged");
    assert!(
        matches!(remote_err, SearchError::BudgetExhausted { .. }),
        "expected budget_exhausted, got {remote_err:?}"
    );
}
