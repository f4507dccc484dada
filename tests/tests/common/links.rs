//! The shard coordinator against the solo `SeqEngine`, over either of its
//! two links: in-process lanes (`ShardCoordinator::in_process`, N ∈ {1, 2,
//! 3, 4, 8}) or TCP to loopback workers speaking the frame protocol
//! (`ShardCoordinator::remote`, N ∈ {1, 2, 4}). `shard_equivalence` runs
//! this over the first, `remote_equivalence` over the second: one harness,
//! so the two links are checked by the same assertions.

use super::{build_graph, case_params, digest, rotated_queries, Case};
use central::engine::{KeywordSearchEngine, SeqEngine};
use central::shard::DEFAULT_PARTITION_SEED;
use central::{
    QueryBudget, RemoteOptions, SearchParams, ShardBackend, ShardCoordinator, ShardWorker,
    StaticAddrs,
};
use kgraph::{GraphBuilder, KnowledgeGraph};
use proptest::prelude::*;
use std::sync::Arc;
use textindex::{InvertedIndex, ParsedQuery};

#[derive(Clone, Copy, Debug)]
pub enum Link {
    /// Lanes in this process: 1 pins the degenerate plan, 8 usually
    /// exceeds the generated node count per shard.
    InProcess,
    /// Loopback workers over TCP: 1 pins the single-worker fleet, 4
    /// usually exceeds the per-shard node count.
    Tcp,
}

impl Link {
    pub fn counts(self) -> &'static [usize] {
        match self {
            Link::InProcess => &[1, 2, 3, 4, 8],
            Link::Tcp => &[1, 2, 4],
        }
    }
}

/// Every coordinator over `graph` on `link`, labelled: both shard backends
/// at every count. One loopback fleet per size serves both backends (a
/// worker takes its kernel from `Start`).
pub fn coordinators(graph: &KnowledgeGraph, link: Link) -> Vec<(String, ShardCoordinator)> {
    let fleets: Vec<Vec<std::net::SocketAddr>> = match link {
        Link::InProcess => Vec::new(),
        Link::Tcp => link
            .counts()
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|i| ShardWorker::spawn_local(graph, n, i, DEFAULT_PARTITION_SEED))
                    .collect()
            })
            .collect(),
    };
    // No retries: a healthy loopback fleet needs none.
    let opts = RemoteOptions { attempts: 1, ..RemoteOptions::default() };
    let mut out = Vec::new();
    for backend in [ShardBackend::Seq, ShardBackend::ParCpu(2)] {
        for (i, &n) in link.counts().iter().enumerate() {
            let coordinator = match link {
                Link::InProcess => ShardCoordinator::in_process(graph, backend, n),
                Link::Tcp => {
                    let addrs = Arc::new(StaticAddrs(fleets[i].clone()));
                    ShardCoordinator::remote(graph, backend, n, addrs, opts)
                }
            };
            out.push((format!("{backend:?} x {n} shards over {link:?}"), coordinator));
        }
    }
    out
}

/// Every one of `coordinators` over `graph` answers `query` under `params`
/// like the solo engine, untraced, then traced with a qid the trace
/// carries back; a healthy fleet never degrades.
pub fn assert_all_match(
    graph: &KnowledgeGraph,
    coordinators: &[(String, ShardCoordinator)],
    query: &ParsedQuery,
    params: &SearchParams,
) -> Result<(), TestCaseError> {
    let reference = SeqEngine::new().search(graph, query, params);
    let reference = digest(&reference.answers, &reference.stats);
    let traced = params.clone().with_trace(true);
    let budget = QueryBudget::unlimited();
    for (qid, (label, coordinator)) in coordinators.iter().enumerate() {
        let label = format!("{label} on {query:?}");
        for (params, qid) in [(params, None), (&traced, Some(qid as u64))] {
            let out = coordinator
                .try_search(graph, query, params, &budget, qid)
                .expect("a healthy fleet under an unlimited budget cannot fail");
            prop_assert!(!out.degraded, "healthy fleet degraded: {}", label);
            let got = digest(&out.outcome.answers, &out.outcome.stats);
            prop_assert_eq!(got, reference, "qid {:?}: {}", qid, label);
            let trace_qid = out.outcome.trace.map(|trace| trace.qid);
            prop_assert_eq!(trace_qid, qid.map(Some), "{}", label);
        }
    }
    Ok(())
}

/// The property: for an arbitrary graph, query, explicit activation map
/// and top-k, every coordinator on `link` returns exactly what the solo
/// engine returns.
pub fn check_case(case: &Case, link: Link) -> Result<(), TestCaseError> {
    let graph = build_graph(case);
    let query = &rotated_queries(case, &InvertedIndex::build(&graph), 1)[0];
    assert_all_match(&graph, &coordinators(&graph, link), query, &case_params(case))
}

/// Every coordinator on `link` against the solo engine for one fixed graph
/// and query set (cheap deterministic edge cases a random case may never
/// reach).
fn assert_all_shardings_match(graph: &KnowledgeGraph, queries: &[&str], link: Link) {
    let idx = InvertedIndex::build(graph);
    let params = SearchParams { max_level: 12, ..SearchParams::default() };
    let coordinators = coordinators(graph, link);
    for q in queries {
        assert_all_match(graph, &coordinators, &ParsedQuery::parse(&idx, q), &params).unwrap();
    }
}

/// A single-node graph under both its words, one, an unknown word and the
/// empty query.
pub fn single_node_graph_survives(link: Link) {
    let mut b = GraphBuilder::new();
    b.add_node("solo", "alpha beta");
    let graph = b.build();
    assert_all_shardings_match(&graph, &["alpha beta", "alpha", "gamma", ""], link);
}

/// Two components plus two isolated nodes: cross-component queries must
/// fail identically, intra-component ones must answer identically, at
/// every count.
pub fn disconnected_graph_survives(link: Link) {
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
        link,
    );
}

/// 3 nodes, up to 8 shards: most shards own nothing and must stay inert
/// without perturbing the merged answers.
pub fn more_shards_than_nodes_survive(link: Link) {
    let mut b = GraphBuilder::new();
    let x = b.add_node("x", "alpha");
    let y = b.add_node("y", "beta bridge");
    let z = b.add_node("z", "gamma");
    b.add_edge(x, y, "p");
    b.add_edge(z, y, "q");
    let graph = b.build();
    assert_all_shardings_match(&graph, &["alpha gamma", "alpha beta gamma", "beta"], link);
}
