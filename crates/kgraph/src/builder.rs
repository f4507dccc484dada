//! Mutable graph builder producing an immutable CSR [`KnowledgeGraph`].
//!
//! The builder interns node keys and label names, accumulates directed
//! triples, then `build()` performs one counting-sort pass into the
//! bi-directed CSR and computes degree-of-summary weights (Eq. 2).

use crate::column::StrTable;
use crate::graph::{Adjacency, KnowledgeGraph};
use crate::ids::{LabelId, NodeId};
use crate::weights;
use std::collections::HashMap;

/// Builder for [`KnowledgeGraph`]. See the crate-level example.
#[derive(Default)]
pub struct GraphBuilder {
    node_index: HashMap<String, NodeId>,
    node_keys: Vec<String>,
    node_texts: Vec<String>,
    label_index: HashMap<String, LabelId>,
    label_names: Vec<String>,
    /// Directed triples `(src, label, dst)`, possibly containing duplicates
    /// until `build()` dedups them.
    edges: Vec<(NodeId, LabelId, NodeId)>,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with capacity hints for large synthetic graphs.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            node_index: HashMap::with_capacity(nodes),
            node_keys: Vec::with_capacity(nodes),
            node_texts: Vec::with_capacity(nodes),
            label_index: HashMap::new(),
            label_names: Vec::new(),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_keys.len()
    }

    /// Number of (possibly duplicate) triples added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Intern a node by external `key`; `text` is the human-readable label
    /// that keyword matching tokenizes. Re-adding an existing key returns
    /// the existing id and, if `text` is non-empty, replaces its text.
    pub fn add_node(&mut self, key: &str, text: &str) -> NodeId {
        if let Some(&id) = self.node_index.get(key) {
            if !text.is_empty() {
                self.node_texts[id.index()] = text.to_string();
            }
            return id;
        }
        let id = NodeId::from_index(self.node_keys.len());
        self.node_index.insert(key.to_string(), id);
        self.node_keys.push(key.to_string());
        self.node_texts.push(text.to_string());
        id
    }

    /// Look up a previously added node by key.
    pub fn node(&self, key: &str) -> Option<NodeId> {
        self.node_index.get(key).copied()
    }

    /// Intern an edge label by name.
    pub fn label(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.label_index.get(name) {
            return id;
        }
        let id = LabelId::from_index(self.label_names.len());
        self.label_index.insert(name.to_string(), id);
        self.label_names.push(name.to_string());
        id
    }

    /// Add a directed labeled edge `src --name--> dst`.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, name: &str) {
        let label = self.label(name);
        self.add_edge_with_label(src, dst, label);
    }

    /// Add a directed edge with an already-interned label.
    pub fn add_edge_with_label(&mut self, src: NodeId, dst: NodeId, label: LabelId) {
        debug_assert!(src.index() < self.node_keys.len(), "src node not added");
        debug_assert!(dst.index() < self.node_keys.len(), "dst node not added");
        self.edges.push((src, label, dst));
    }

    /// Finalize into an immutable CSR graph.
    ///
    /// Exact duplicate triples are removed; parallel edges with distinct
    /// labels are kept (they are distinct relationships in a KB).
    ///
    /// Each input is freed as soon as its output exists — the interning
    /// maps first, the per-string allocations once their arenas are
    /// built, the triples once they are scattered — so the build holds
    /// at most one copy of the graph at a time.
    pub fn build(self) -> KnowledgeGraph {
        let GraphBuilder { node_index, node_keys, node_texts, label_index, label_names, mut edges } =
            self;
        drop(node_index);
        drop(label_index);
        let n = node_keys.len();
        let node_keys = StrTable::from_strings(node_keys);
        let node_texts = StrTable::from_strings(node_texts);
        let label_names = StrTable::from_strings(label_names);

        // Dedup exact triples.
        edges.sort_unstable_by_key(|&(s, l, d)| (s.0, l.0, d.0));
        edges.dedup();
        let m = edges.len();

        // Degree counts under original direction.
        let mut in_degree = vec![0u32; n];
        let mut out_degree = vec![0u32; n];
        for &(s, _, d) in &edges {
            out_degree[s.index()] += 1;
            in_degree[d.index()] += 1;
        }

        // The triples are sorted by source, so `out_degree` recovers each
        // one's source: keep `(label, dst)` only, collected in place.
        let mut edges: Vec<(LabelId, NodeId)> = edges.into_iter().map(|(_, l, d)| (l, d)).collect();
        edges.shrink_to_fit();

        // Bi-directed CSR: each triple contributes one outgoing entry at the
        // source and one incoming entry at the destination.
        let mut offsets = vec![0u64; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + (in_degree[v] + out_degree[v]) as u64;
        }
        let total = offsets[n] as usize;
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut adj = vec![Adjacency::new(NodeId(0), LabelId(0), false); total];
        let mut next = 0;
        for (s, &deg) in out_degree.iter().enumerate() {
            let src = NodeId::from_index(s);
            for &(l, d) in &edges[next..next + deg as usize] {
                let cs = &mut cursor[s];
                adj[*cs as usize] = Adjacency::new(d, l, true);
                *cs += 1;
                let cd = &mut cursor[d.index()];
                adj[*cd as usize] = Adjacency::new(src, l, false);
                *cd += 1;
            }
            next += deg as usize;
        }
        drop(cursor);
        drop(edges);

        // Degree-of-summary weights (Eq. 2) from each node's in-edge label
        // histogram: its incoming CSR entries' labels, sorted, counted by
        // run — ascending label order, as `degree_of_summary` sums them.
        let mut raw = vec![0.0f32; n];
        let mut labels: Vec<u32> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for (v, w) in raw.iter_mut().enumerate() {
            let entries = &adj[offsets[v] as usize..offsets[v + 1] as usize];
            labels.clear();
            labels.extend(entries.iter().filter(|a| !a.is_outgoing()).map(|a| a.label().0));
            if labels.is_empty() {
                continue;
            }
            labels.sort_unstable();
            counts.clear();
            let mut run = 0;
            for i in 0..labels.len() {
                run += 1;
                if i + 1 == labels.len() || labels[i + 1] != labels[i] {
                    counts.push(run);
                    run = 0;
                }
            }
            *w = weights::degree_of_summary(&counts);
        }
        let normalized = weights::normalize(&raw);

        KnowledgeGraph {
            offsets: offsets.into(),
            adj: adj.into(),
            num_directed_edges: m,
            node_keys,
            node_texts,
            label_names,
            in_degree: in_degree.into(),
            out_degree: out_degree.into(),
            weights_raw: raw.into(),
            weights: normalized.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut b = GraphBuilder::new();
        let a1 = b.add_node("a", "first");
        let a2 = b.add_node("a", "");
        assert_eq!(a1, a2);
        assert_eq!(b.num_nodes(), 1);
        let g = b.build();
        assert_eq!(g.node_text(a1), "first");
    }

    #[test]
    fn readding_with_text_updates_text() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "old");
        b.add_node("a", "new");
        let g = b.build();
        assert_eq!(g.node_text(a), "new");
    }

    #[test]
    fn duplicate_triples_are_removed() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "x");
        let y = b.add_node("y", "y");
        b.add_edge(x, y, "p");
        b.add_edge(x, y, "p");
        b.add_edge(x, y, "q"); // distinct label: kept
        let g = b.build();
        assert_eq!(g.num_directed_edges(), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn labels_are_interned() {
        let mut b = GraphBuilder::new();
        let l1 = b.label("instance of");
        let l2 = b.label("instance of");
        let l3 = b.label("subclass of");
        assert_eq!(l1, l2);
        assert_ne!(l1, l3);
    }

    #[test]
    fn summary_hub_gets_top_weight() {
        // A `human`-like hub: many in-edges with one label, vs a node with
        // diverse in-labels, vs leaf nodes.
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", "human");
        let varied = b.add_node("varied", "paper");
        let mut sources = Vec::new();
        for i in 0..50 {
            sources.push(b.add_node(&format!("s{i}"), "person"));
        }
        for &s in &sources {
            b.add_edge(s, hub, "instance of");
        }
        for (i, &s) in sources.iter().take(10).enumerate() {
            b.add_edge(s, varied, &format!("rel{i}"));
        }
        let g = b.build();
        assert_eq!(g.weight(hub), 1.0, "hub should be the normalization max");
        assert!(g.weight(varied) < g.weight(hub));
        assert_eq!(g.weight(sources[0]), 0.0, "no in-edges ⇒ min weight");
        g.check_invariants().unwrap();
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_directed_edges(), 0);
        g.check_invariants().unwrap();
    }

    #[test]
    fn node_without_edges_has_empty_neighbors() {
        let mut b = GraphBuilder::new();
        let lone = b.add_node("lone", "isolated");
        let g = b.build();
        assert!(g.neighbors(lone).is_empty());
    }
}
