//! The shard-invariance property over in-process lanes: partitioning the
//! graph into N ∈ {1, 2, 3, 4, 8} edge-cut shards and answering through
//! the shard coordinator (`ShardCoordinator::in_process`) is
//! *byte-identical* to the solo sequential engine — answers, score bits,
//! statistics and the per-level trace — for both shard backends (`seq`,
//! `cpu`), traced and tagged with a qid or not, including counts exceeding
//! the node count and single-node/disconnected graphs; and on both links a
//! tripped budget raises the solo engine's error. `remote_equivalence`
//! runs the same harness (`common::links`) over TCP; the lattice
//! (`lattice.rs`) reaches the coordinator through the facade.
//!
//! The coordinator's frontier-exchange rounds must reproduce exactly the
//! hitting-level matrix a single engine computes, so every downstream
//! artifact matches bit for bit.

mod common;

use central::engine::{KeywordSearchEngine, SeqEngine};
use central::{QueryBudget, SearchError, SearchParams};
use common::case_strategy;
use common::links::{self, coordinators, Link};
use kgraph::GraphBuilder;
use proptest::prelude::*;
use textindex::{InvertedIndex, ParsedQuery};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// For arbitrary graphs, queries, explicit activation maps and top-k,
    /// every in-process coordinator returns exactly what the solo engine
    /// returns.
    #[test]
    fn sharded_search_is_byte_identical_to_unsharded(case in case_strategy(24, 50)) {
        links::check_case(&case, Link::InProcess)?;
    }
}

#[test]
fn single_node_graphs_survive_any_shard_count() {
    links::single_node_graph_survives(Link::InProcess);
}

#[test]
fn disconnected_graphs_survive_any_shard_count() {
    links::disconnected_graph_survives(Link::InProcess);
}

#[test]
fn more_shards_than_nodes_is_byte_identical() {
    links::more_shards_than_nodes_survive(Link::InProcess);
}

#[test]
fn budget_errors_surface_the_solo_class_on_both_links() {
    // A chain long enough that a 1-expansion budget trips mid-search: every
    // coordinator must raise the error the solo engine raises — never a
    // wire-level error, never a silent partial answer.
    let mut b = GraphBuilder::new();
    let mut prev = b.add_node("n0", "alpha");
    for i in 1..12 {
        let next = b.add_node(&format!("n{i}"), if i == 11 { "omega" } else { "filler" });
        b.add_edge(prev, next, "p");
        prev = next;
    }
    let graph = b.build();
    let query = ParsedQuery::parse(&InvertedIndex::build(&graph), "alpha omega");
    let params = SearchParams { max_level: 16, ..SearchParams::default() };
    let tight = QueryBudget::unlimited().with_max_expansions(1);
    let want = SeqEngine::new()
        .try_search(&graph, &query, &params, &tight)
        .expect_err("a 1-expansion budget must trip on a 12-node chain");
    assert!(matches!(want, SearchError::BudgetExhausted { .. }), "{want:?}");
    for link in [Link::InProcess, Link::Tcp] {
        for (label, coordinator) in coordinators(&graph, link) {
            let err =
                coordinator.try_search(&graph, &query, &params, &tight, None).expect_err(&label);
            assert_eq!((err.kind(), err.to_string()), (want.kind(), want.to_string()), "{label}");
        }
    }
}
