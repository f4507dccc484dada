//! Property tests of the graph substrate: CSR construction invariants, the
//! builder against a reference model, and serialization round-trips over
//! arbitrary graphs.

use kgraph::{binio, io, sampling, weights, GraphBuilder, KnowledgeGraph, LabelId, NodeId};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

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

/// One call in a random sequence of builder calls.
#[derive(Debug, Clone)]
enum Call {
    AddNode(String, String),
    /// Endpoints taken modulo the node count, label `label{2}`.
    AddEdge(usize, usize, u8),
    /// The last edge again, an exact duplicate.
    RepeatEdge,
}

fn calls() -> impl Strategy<Value = Vec<Call>> {
    // Few distinct keys (so re-adds are common), non-ASCII and empty ones
    // among them, and empty texts as often as not.
    let call = (0u8..5, "[aé✓]{0,2}", "[bλ ]{0,3}", 0usize..64, 0usize..64, 0u8..4).prop_map(
        |(kind, key, text, s, d, l)| match kind {
            0 | 1 => Call::AddNode(key, text),
            2 | 3 => Call::AddEdge(s, d, l),
            _ => Call::RepeatEdge,
        },
    );
    proptest::collection::vec(call, 0..120)
}

/// The builder's documented behaviour, with a `String` per key and text.
#[derive(Default)]
struct Model {
    index: HashMap<String, NodeId>,
    keys: Vec<String>,
    texts: Vec<String>,
    label_index: HashMap<String, LabelId>,
    labels: Vec<String>,
    triples: Vec<(u32, u32, u32)>,
}

impl Model {
    fn add_node(&mut self, key: &str, text: &str) -> NodeId {
        if let Some(&id) = self.index.get(key) {
            if !text.is_empty() {
                self.texts[id.index()] = text.to_string();
            }
            return id;
        }
        let id = NodeId::from_index(self.keys.len());
        self.index.insert(key.to_string(), id);
        self.keys.push(key.to_string());
        self.texts.push(text.to_string());
        id
    }

    fn add_edge(&mut self, s: NodeId, d: NodeId, name: &str) {
        let next = LabelId::from_index(self.labels.len());
        let l = *self.label_index.entry(name.to_string()).or_insert(next);
        if l == next {
            self.labels.push(name.to_string());
        }
        self.triples.push((s.0, l.0, d.0));
    }

    /// Each node's CSR entries `(target, label, outgoing)`: every distinct
    /// triple in `(src, label, dst)` order contributes its outgoing entry
    /// at the source, then its incoming one at the destination.
    fn adjacency(&self) -> Vec<Vec<(u32, u32, bool)>> {
        let mut triples = self.triples.clone();
        triples.sort_unstable();
        triples.dedup();
        let mut adj = vec![Vec::new(); self.keys.len()];
        for (s, l, d) in triples {
            adj[s as usize].push((d, l, true));
            adj[d as usize].push((s, l, false));
        }
        adj
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn arena_builder_matches_the_string_model(calls in calls()) {
        let mut b = GraphBuilder::new();
        let mut model = Model::default();
        let mut last = None;
        for call in &calls {
            let edge = match call {
                Call::AddNode(key, text) => {
                    prop_assert_eq!(b.add_node(key, text), model.add_node(key, text));
                    None
                }
                Call::AddEdge(s, d, l) if !model.keys.is_empty() => {
                    let n = model.keys.len();
                    Some((NodeId::from_index(s % n), NodeId::from_index(d % n), format!("label{l}")))
                }
                Call::AddEdge(..) => None,
                Call::RepeatEdge => last.clone(),
            };
            if let Some((s, d, name)) = edge {
                b.add_edge(s, d, &name);
                model.add_edge(s, d, &name);
                last = Some((s, d, name));
            }
            prop_assert_eq!(b.num_nodes(), model.keys.len());
        }
        for key in model.keys.iter().map(String::as_str).chain(["", "a", "é✓", "zz"]) {
            prop_assert_eq!(b.node(key), model.index.get(key).copied(), "key {:?}", key);
        }

        let g = b.build();
        prop_assert_eq!(g.node_keys_table().iter().collect::<Vec<_>>(), model.keys.clone());
        prop_assert_eq!(g.node_texts_table().iter().collect::<Vec<_>>(), model.texts.clone());
        prop_assert_eq!(g.label_names_table().iter().collect::<Vec<_>>(), model.labels.clone());
        let adj = model.adjacency();
        let mut offsets = vec![0u64];
        offsets.extend(adj.iter().scan(0u64, |at, entries| {
            *at += entries.len() as u64;
            Some(*at)
        }));
        prop_assert_eq!(g.csr_offsets(), &offsets[..]);
        let entries: Vec<_> = g
            .csr_adjacency()
            .iter()
            .map(|a| (a.target().0, a.label().0, a.is_outgoing()))
            .collect();
        prop_assert_eq!(entries, adj.concat());
        // Eq. 2 over each node's in-edge label histogram, ascending label.
        let raw: Vec<f32> = adj
            .iter()
            .map(|entries| {
                let mut histogram = BTreeMap::new();
                for &(_, l, outgoing) in entries {
                    if !outgoing {
                        *histogram.entry(l).or_insert(0u32) += 1;
                    }
                }
                weights::degree_of_summary(&histogram.into_values().collect::<Vec<_>>())
            })
            .collect();
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(g.weights()), bits(&weights::normalize(&raw)));
    }

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
                prop_assert_eq!(w, 0.0);
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
