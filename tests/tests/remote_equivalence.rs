//! The shard-invariance property over TCP: answering through the shard
//! coordinator (`ShardCoordinator::remote`) with every shard behind a real
//! connection to a loopback worker speaking the length-prefixed frame
//! protocol is *byte-identical* to the solo sequential engine — answers,
//! score bits, statistics and the per-level trace — for both shard
//! backends (`seq`, `cpu`) at fleet sizes {1, 2, 4}, traced and tagged with
//! a qid or not. Serialization, the per-round exchange over the wire and
//! the supervision machinery must be invisible in the answer bytes, and a
//! healthy fleet never degrades. This is `shard_equivalence`'s harness
//! (`common::links`) on the other link.

mod common;

use common::case_strategy;
use common::links::{self, Link};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// For arbitrary graphs, queries, explicit activation maps and top-k,
    /// every fleet returns exactly what the solo engine returns.
    #[test]
    fn remote_search_is_byte_identical_to_unsharded(case in case_strategy(20, 40)) {
        links::check_case(&case, Link::Tcp)?;
    }
}

#[test]
fn single_node_graphs_survive_any_fleet_size() {
    links::single_node_graph_survives(Link::Tcp);
}

#[test]
fn disconnected_graphs_survive_any_fleet_size() {
    links::disconnected_graph_survives(Link::Tcp);
}

#[test]
fn more_workers_than_nodes_is_byte_identical() {
    links::more_shards_than_nodes_survive(Link::Tcp);
}
