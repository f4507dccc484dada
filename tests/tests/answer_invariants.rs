//! Property tests of the Central Graph answer model on random graphs:
//! coverage, connectivity, depth bounds, score ordering and the
//! level-cover soundness guarantee.

mod common;

use central::engine::{KeywordSearchEngine, SeqEngine};
use central::SearchParams;
use common::{build_graph, case_strategy, raw_query};
use kgraph::NodeId;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet, VecDeque};
use textindex::analyzer::analyze_unique;
use textindex::{InvertedIndex, ParsedQuery};

/// The answer graph must be connected: every node reaches the central
/// node through answer edges (hitting paths all end at the centre).
fn is_connected_to_central(central: NodeId, nodes: &[NodeId], edges: &[(NodeId, NodeId)]) -> bool {
    if nodes.len() <= 1 {
        return true;
    }
    let mut adj: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default().push(a);
    }
    let mut seen: HashSet<NodeId> = HashSet::new();
    seen.insert(central);
    let mut queue = VecDeque::from([central]);
    while let Some(v) = queue.pop_front() {
        for &n in adj.get(&v).into_iter().flatten() {
            if seen.insert(n) {
                queue.push_back(n);
            }
        }
    }
    nodes.iter().all(|n| seen.contains(n))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn answers_satisfy_model_invariants(case in case_strategy(25, 50)) {
        let graph = build_graph(&case);
        let idx = InvertedIndex::build(&graph);
        let query = ParsedQuery::parse(&idx, &raw_query(&case.query));
        let params = SearchParams {
            top_k: 6,
            max_level: 12,
            ..SearchParams::default()
        }
        .with_explicit_activation(case.activation);
        let out = SeqEngine::new().search(&graph, &query, &params);

        for answer in &out.answers {
            // Structural invariants (sortedness, coverage fields, score).
            prop_assert!(answer.check_invariants().is_ok(), "{:?}", answer.check_invariants());
            // Depth bound: no deeper than the level cap.
            prop_assert!(answer.depth <= 12);
            // Connectivity: hitting paths all reach the central node.
            prop_assert!(
                is_connected_to_central(answer.central, &answer.nodes, &answer.edges),
                "answer at {} is disconnected",
                answer.central
            );
            // Every answer edge is a data-graph edge.
            for &(a, b) in &answer.edges {
                let linked = graph.neighbors(a).iter().any(|adj| adj.target() == b);
                prop_assert!(linked, "answer edge ({a},{b}) missing from the data graph");
            }
            // Semantic coverage: for every matched query term, some answer
            // node's text contains it (the level-cover soundness rule).
            for (i, group) in query.groups.iter().enumerate() {
                let covered = answer.keyword_nodes[i]
                    .iter()
                    .any(|&v| analyze_unique(graph.node_text(v)).contains(&group.term));
                prop_assert!(covered, "keyword {:?} uncovered", group.term);
            }
        }

        // Ranking: answers come back in non-decreasing score order.
        for w in out.answers.windows(2) {
            prop_assert!(w[0].score <= w[1].score + 1e-12);
        }

        // top-k bound respected.
        prop_assert!(out.answers.len() <= 6);
    }

    #[test]
    fn containment_dedup_leaves_no_strict_containers(case in case_strategy(25, 50)) {
        let graph = build_graph(&case);
        let idx = InvertedIndex::build(&graph);
        let query = ParsedQuery::parse(&idx, &raw_query(&case.query));
        let params = SearchParams {
            top_k: 8,
            max_level: 12,
            dedup_contained: true,
            ..SearchParams::default()
        }
        .with_explicit_activation(case.activation);
        let out = SeqEngine::new().search(&graph, &query, &params);
        for a in &out.answers {
            for b in &out.answers {
                prop_assert!(
                    !a.strictly_contains(b),
                    "{} strictly contains {} after dedup",
                    a.central,
                    b.central
                );
            }
        }
    }
}
