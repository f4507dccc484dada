//! What the equivalence suites share: the word pool, the random-graph
//! case, its builder, and the one digest every comparison goes through.

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

use central::engine::SearchStats;
use central::CentralGraph;
use kgraph::{GraphBuilder, KnowledgeGraph};
use proptest::prelude::*;
use std::fmt::Write as _;

/// Small word pool; several words per node text creates overlapping
/// keyword groups and co-occurrence nodes.
pub const WORDS: &[&str] =
    &["alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "lambda"];

#[derive(Debug, Clone)]
pub struct Case {
    pub texts: Vec<Vec<usize>>,     // word indices per node
    pub edges: Vec<(usize, usize)>, // node index pairs
    pub activation: Vec<u8>,        // explicit per-node activation
    pub query: Vec<usize>,          // word indices
    pub top_k: usize,
}

/// Graphs of 2 to `max_nodes - 1` nodes with 1 to `max_edges - 1` edge
/// draws, a 2–3 word query and a top-k in 1..8.
pub fn case_strategy(max_nodes: usize, max_edges: usize) -> impl Strategy<Value = Case> {
    (2usize..max_nodes).prop_flat_map(move |nodes| {
        let texts =
            proptest::collection::vec(proptest::collection::vec(0usize..WORDS.len(), 1..3), nodes);
        let edges = proptest::collection::vec((0usize..nodes, 0usize..nodes), 1..max_edges);
        let activation = proptest::collection::vec(0u8..5, nodes);
        let query = proptest::collection::vec(0usize..WORDS.len(), 2..4);
        let top_k = 1usize..8;
        (texts, edges, activation, query, top_k).prop_map(
            |(texts, edges, activation, query, top_k)| Case {
                texts,
                edges,
                activation,
                query,
                top_k,
            },
        )
    })
}

/// A stream of `count` further queries of `words` word indices each, for
/// the suites that ask one engine several things.
pub fn queries_strategy(
    words: std::ops::Range<usize>,
    count: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(proptest::collection::vec(0usize..WORDS.len(), words), count)
}

/// The raw keyword string of a query given as word indices.
pub fn raw_query(query: &[usize]) -> String {
    let words: Vec<&str> = query.iter().map(|&w| WORDS[w]).collect();
    words.join(" ")
}

pub fn build_graph(case: &Case) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for (i, words) in case.texts.iter().enumerate() {
        let text: Vec<&str> = words.iter().map(|&w| WORDS[w]).collect();
        b.add_node(&format!("n{i}"), &text.join(" "));
    }
    for (idx, &(s, d)) in case.edges.iter().enumerate() {
        if s != d {
            let s = b.node(&format!("n{s}")).unwrap();
            let d = b.node(&format!("n{d}")).unwrap();
            b.add_edge(s, d, if idx % 3 == 0 { "p" } else { "q" });
        }
    }
    b.build()
}

/// Everything a search computes, as one comparable string: the ranked
/// answers (ids, per-keyword parts in keyword order, score *bits*) and
/// the statistics including the per-level trace.
pub fn digest(answers: &[CentralGraph], stats: &SearchStats) -> String {
    let mut s = format!(
        "stats:{}/{}/{}/{:?} ",
        stats.last_level, stats.central_candidates, stats.peak_frontier, stats.trace
    );
    for a in answers {
        write!(
            s,
            "[c:{:?} d:{} n:{:?} e:{:?} kn:{:?} ke:{:?} s:{}]",
            a.central,
            a.depth,
            a.nodes,
            a.edges,
            a.keyword_nodes,
            a.keyword_edges,
            a.score.to_bits()
        )
        .unwrap();
    }
    s
}
