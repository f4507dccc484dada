//! What the differential suites share: the word pool, the random-graph
//! case, its builder, the one digest every comparison goes through, and
//! the one reference every digest is compared with — a fresh solo
//! `SeqEngine`. The lattice runner is [`lattice`], the shard coordinator's
//! harness over either link is [`links`].

// Each suite is its own crate and uses its own subset.
#![allow(dead_code)]

pub mod lattice;
pub mod links;

use central::engine::{
    DynParEngine, GpuStyleEngine, KeywordSearchEngine, ParCpuEngine, SearchStats, SeqEngine,
};
use central::{CentralGraph, QueryBudget, SearchError, SearchParams};
use kgraph::{GraphBuilder, KnowledgeGraph};
use proptest::prelude::*;
use std::fmt::Write as _;
use textindex::{InvertedIndex, ParsedQuery};
use wikisearch_engine::WikiSearchResult;

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

/// `n` keyword sets: the case's query with its words shifted `k` places
/// through the pool for each `k` in `0..n`, parsed against `index`.
pub fn rotated_queries(case: &Case, index: &InvertedIndex, n: usize) -> Vec<ParsedQuery> {
    let rotate = |k| case.query.iter().map(|&w| (w + k) % WORDS.len()).collect::<Vec<_>>();
    (0..n).map(|k| ParsedQuery::parse(index, &raw_query(&rotate(k)))).collect()
}

/// The params a case runs under below the facade: its top-k and explicit
/// activation map, levels capped at 12.
pub fn case_params(case: &Case) -> SearchParams {
    SearchParams { top_k: case.top_k, max_level: 12, ..SearchParams::default() }
        .with_explicit_activation(case.activation.clone())
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

/// The four engines, sequential first, the parallel ones on `threads`
/// threads.
pub fn engines(threads: usize) -> Vec<Box<dyn KeywordSearchEngine>> {
    vec![
        Box::new(SeqEngine::new()),
        Box::new(ParCpuEngine::new(threads)),
        Box::new(GpuStyleEngine::new(threads)),
        Box::new(DynParEngine::new(threads)),
    ]
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

/// Everything a facade result shows but its timing and the telemetry
/// surface (qid, trace): the keyword analysis, `kwf` as exact bits, the
/// degraded flag, then [`digest`] of the answers and statistics.
pub fn result_digest(r: &WikiSearchResult) -> String {
    format!(
        "groups:{:?} unmatched:{:?} kwf:{} degraded:{} {}",
        r.query.groups,
        r.query.unmatched,
        r.kwf.to_bits(),
        r.degraded,
        digest(&r.answers, &r.stats)
    )
}

/// The oracle: what the facade must answer for `raw`, as
/// [`result_digest`] — the analysis against `index` and a fresh solo
/// `SeqEngine` under `params` and `budget`, every answer of which
/// satisfies the model invariants — or the error that engine raises.
pub fn solo(
    graph: &KnowledgeGraph,
    index: &InvertedIndex,
    raw: &str,
    params: &SearchParams,
    budget: &QueryBudget,
) -> Result<String, SearchError> {
    let query = ParsedQuery::parse(index, raw);
    let out = SeqEngine::new().try_search(graph, &query, params, budget)?;
    for a in &out.answers {
        assert_eq!(a.check_invariants(), Ok(()), "oracle answer to {raw:?}");
    }
    Ok(result_digest(&WikiSearchResult {
        qid: 0,
        kwf: query.avg_keyword_frequency(),
        query,
        answers: out.answers,
        profile: out.profile,
        stats: out.stats,
        trace: None,
        degraded: false,
    }))
}
