//! Property tests of the graph substrate: CSR construction invariants and
//! serialization round-trips over arbitrary graphs.

use kgraph::{binio, io, sampling, GraphBuilder, KnowledgeGraph};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RawGraph {
    texts: Vec<String>,
    edges: Vec<(usize, usize, u8)>,
}

fn raw_graph() -> impl Strategy<Value = RawGraph> {
    (1usize..30).prop_flat_map(|nodes| {
        let texts = proptest::collection::vec("[a-z]{1,8}( [a-z]{1,8}){0,2}", nodes);
        let edges = proptest::collection::vec((0usize..nodes, 0usize..nodes, 0u8..5), 0..80);
        (texts, edges).prop_map(|(texts, edges)| RawGraph { texts, edges })
    })
}

fn build(raw: &RawGraph) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for (i, t) in raw.texts.iter().enumerate() {
        b.add_node(&format!("n{i}"), t);
    }
    for &(s, d, l) in &raw.edges {
        let s = b.node(&format!("n{s}")).unwrap();
        let d = b.node(&format!("n{d}")).unwrap();
        b.add_edge(s, d, &format!("label{l}"));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn csr_invariants_hold(raw in raw_graph()) {
        let g = build(&raw);
        prop_assert!(g.check_invariants().is_ok(), "{:?}", g.check_invariants());
        // Bi-directed symmetry: every adjacency entry has a mirror at the
        // other endpoint with the same label and flipped direction.
        for v in g.nodes() {
            for a in g.neighbors(v) {
                let mirrored = g
                    .neighbors(a.target())
                    .iter()
                    .any(|m| m.target() == v && m.label() == a.label()
                        && m.is_outgoing() != a.is_outgoing());
                prop_assert!(mirrored, "missing mirror for {v} -> {}", a.target());
            }
        }
        // Degree sums are consistent with edge counts.
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        prop_assert_eq!(in_sum, g.num_directed_edges());
        prop_assert_eq!(out_sum, g.num_directed_edges());
    }

    #[test]
    fn build_is_idempotent_over_duplicate_insertion(raw in raw_graph()) {
        let g1 = build(&raw);
        // Re-adding every triple twice must not change the graph.
        let mut doubled = raw.clone();
        doubled.edges.extend(raw.edges.iter().copied());
        let g2 = build(&doubled);
        prop_assert_eq!(g1.num_directed_edges(), g2.num_directed_edges());
        prop_assert_eq!(g1.num_adjacency_entries(), g2.num_adjacency_entries());
    }

    #[test]
    fn tsv_round_trip(raw in raw_graph()) {
        let g = build(&raw);
        let restored = io::from_tsv(&io::to_tsv(&g)).unwrap();
        prop_assert_eq!(restored.num_nodes(), g.num_nodes());
        prop_assert_eq!(restored.num_directed_edges(), g.num_directed_edges());
        for v in g.nodes() {
            prop_assert_eq!(restored.node_text(v), g.node_text(v));
            prop_assert_eq!(restored.degree(v), g.degree(v));
        }
    }

    #[test]
    fn binary_round_trip(raw in raw_graph()) {
        let g = build(&raw);
        let restored = binio::from_bytes(&binio::to_bytes(&g)).unwrap();
        prop_assert_eq!(restored.num_nodes(), g.num_nodes());
        prop_assert_eq!(restored.num_directed_edges(), g.num_directed_edges());
        for v in g.nodes() {
            prop_assert_eq!(restored.node_key(v), g.node_key(v));
            prop_assert_eq!(restored.node_text(v), g.node_text(v));
            prop_assert!((restored.weight(v) - g.weight(v)).abs() < 1e-6);
        }
        prop_assert!(restored.check_invariants().is_ok());
    }

    #[test]
    fn weights_are_normalized_and_hub_heavy(raw in raw_graph()) {
        let g = build(&raw);
        for v in g.nodes() {
            let w = g.weight(v);
            prop_assert!((0.0..=1.0).contains(&w));
            if g.in_degree(v) == 0 {
                prop_assert_eq!(g.raw_weight(v), 0.0);
            }
        }
    }

    #[test]
    fn bfs_distance_is_symmetric_on_bidirected_graphs(raw in raw_graph()) {
        let g = build(&raw);
        if g.num_nodes() >= 2 {
            let a = kgraph::NodeId(0);
            let b = kgraph::NodeId((g.num_nodes() - 1) as u32);
            let d1 = kgraph::sampling::bfs_distance(&g, a, b, 64);
            let d2 = kgraph::sampling::bfs_distance(&g, b, a, 64);
            prop_assert_eq!(d1, d2);
        }
    }

    #[test]
    fn meet_in_the_middle_distance_matches_single_source_bfs(
        raw in raw_graph(),
        parts in 1usize..4,
        depth in 0u32..6,
    ) {
        // Dropping the edges between residue classes leaves at least
        // `parts` components; depth 5 stands for an uncapped 64.
        let mut raw = raw;
        raw.edges.retain(|&(s, d, _)| s % parts == d % parts);
        let g = build(&raw);
        let depth = if depth == 5 { 64 } else { depth };
        for s in g.nodes() {
            let dist = sampling::bfs_distances(&g, s, depth);
            for t in g.nodes() {
                let want = Some(dist[t.index()]).filter(|&d| d != u32::MAX);
                prop_assert_eq!(
                    sampling::bfs_distance(&g, s, t, depth),
                    want,
                    "{} -> {} at depth {}",
                    s,
                    t,
                    depth
                );
            }
        }
    }
}
