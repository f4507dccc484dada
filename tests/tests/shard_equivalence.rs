//! The shard-invariance property: partitioning the graph into N edge-cut
//! shards and answering through the shard coordinator over in-process
//! lanes (`ShardCoordinator::in_process` — `remote_equivalence` drives the
//! same coordinator over TCP) is *byte-identical* to the monolithic engine — answers,
//! score bits, statistics, and the per-level trace — for both shard
//! backends (`seq`, `cpu`; `engine_equivalence` pins the four solo engines
//! to each other) and for shard counts {1, 2, 3, 4, 8}, including counts exceeding the
//! node count and single-node/disconnected graphs.
//!
//! This is the sharded form of `engine_equivalence`: the coordinator's
//! frontier-exchange rounds must reproduce exactly the hitting-level
//! matrix a single engine computes, so every downstream artifact matches
//! bit for bit.

mod common;

use central::engine::{KeywordSearchEngine, ParCpuEngine, SeqEngine};
use central::{QueryBudget, SearchParams, ShardBackend, ShardCoordinator};
use common::{build_graph, case_strategy, digest, WORDS};
use kgraph::{GraphBuilder, KnowledgeGraph};
use proptest::prelude::*;
use textindex::{InvertedIndex, ParsedQuery};

/// The shard counts every property runs under; 1 pins the degenerate
/// plan, 8 usually exceeds the generated node count per shard.
const SHARD_COUNTS: &[usize] = &[1, 2, 3, 4, 8];

/// The sharded backends paired with their monolithic references.
fn backends() -> Vec<(ShardBackend, Box<dyn KeywordSearchEngine>)> {
    vec![
        (ShardBackend::Seq, Box::new(SeqEngine::new())),
        (ShardBackend::ParCpu(3), Box::new(ParCpuEngine::new(3))),
    ]
}

/// Byte-level comparison of a sharded outcome against its monolithic
/// reference, through the suites' one digest.
fn assert_identical(
    sharded: &central::SearchOutcome,
    reference: &central::SearchOutcome,
    label: &str,
) {
    assert_eq!(
        digest(&sharded.answers, &sharded.stats),
        digest(&reference.answers, &reference.stats),
        "{label}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The tentpole property: for arbitrary graphs, queries, explicit
    /// activation maps and top-k, every sharded backend at every shard
    /// count returns exactly what its monolithic counterpart returns.
    #[test]
    fn sharded_search_is_byte_identical_to_unsharded(case in case_strategy(24, 50)) {
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
            for &shards in SHARD_COUNTS {
                let coordinator = ShardCoordinator::in_process(&graph, backend, shards);
                let out = coordinator
                    .try_search(&graph, &query, &params, &budget, None)
                    .expect("unlimited budget cannot trip");
                prop_assert!(!out.degraded);
                let label = format!("{} x {shards} shards", reference_engine.name());
                assert_identical(&out.outcome, &reference, &label);
            }
        }
    }
}

/// Monolithic reference digests compared against every backend × shard
/// count for one fixed graph and query set (cheap deterministic edge
/// cases that a shrunken proptest case may never reach).
fn assert_all_shardings_match(graph: &KnowledgeGraph, queries: &[&str]) {
    let idx = InvertedIndex::build(graph);
    let params = SearchParams { max_level: 12, ..SearchParams::default() };
    let budget = QueryBudget::unlimited();
    for (backend, reference_engine) in backends() {
        for q in queries {
            let query = ParsedQuery::parse(&idx, q);
            let reference = reference_engine.search(graph, &query, &params);
            for &shards in SHARD_COUNTS {
                let coordinator = ShardCoordinator::in_process(graph, backend, shards);
                let out = coordinator
                    .try_search(graph, &query, &params, &budget, None)
                    .expect("unlimited budget cannot trip");
                let label = format!("{} x {shards} shards on {q:?}", reference_engine.name());
                assert_identical(&out.outcome, &reference, &label);
            }
        }
    }
}

#[test]
fn single_node_graphs_survive_any_shard_count() {
    let mut b = GraphBuilder::new();
    b.add_node("solo", "alpha beta");
    let graph = b.build();
    assert_all_shardings_match(&graph, &["alpha beta", "alpha", "gamma", ""]);
}

#[test]
fn disconnected_graphs_survive_any_shard_count() {
    // Two components plus two isolated nodes: cross-component queries
    // must fail identically, intra-component ones must answer
    // identically, at every shard count.
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
    assert_all_shardings_match(
        &graph,
        &["alpha beta", "delta omega", "alpha delta", "sigma kappa", "sigma"],
    );
}

#[test]
fn more_shards_than_nodes_is_byte_identical() {
    // 3 nodes, up to 8 shards: most shards own nothing and must stay
    // inert without perturbing the merged answers.
    let mut b = GraphBuilder::new();
    let x = b.add_node("x", "alpha");
    let y = b.add_node("y", "beta bridge");
    let z = b.add_node("z", "gamma");
    b.add_edge(x, y, "p");
    b.add_edge(z, y, "q");
    let graph = b.build();
    assert_all_shardings_match(&graph, &["alpha gamma", "alpha beta gamma", "beta"]);
}
