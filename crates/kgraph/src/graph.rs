//! The immutable, CSR-backed knowledge graph.
//!
//! The paper (Sec. III) models Wikidata as a **bi-directed**, node-weighted
//! graph with labeled nodes and edges: every stored triple `(s, p, o)` can be
//! traversed from either endpoint. We therefore materialize, for every node,
//! a single adjacency slice containing both its out-edges and its in-edges;
//! each entry remembers the original direction so in-degree–based weighting
//! (Eq. 2) and BANKS-style directed traversal both remain possible.
//!
//! Layout follows the "flat arrays, no pointer chasing" idiom: one `u64`
//! offset array plus one 8-byte `Adjacency` array, exactly the CSR storage
//! the paper budgets in Table IV.

use crate::column::{Column, Pod, StrTable};
use crate::ids::{LabelId, NodeId};

/// Bit set in [`Adjacency::label_dir`] when the entry corresponds to the
/// edge's *original* direction (i.e. the edge leaves this node).
const OUTGOING_BIT: u32 = 1 << 31;

/// One adjacency entry: the neighbor, the edge label, and whether the edge
/// is outgoing from the owning node. Packed into 8 bytes.
///
/// `repr(C)` pins the layout so adjacency arrays can be written to — and
/// mapped back from — `.wsnap` snapshots without transformation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(C)]
pub struct Adjacency {
    target: NodeId,
    label_dir: u32,
}

// SAFETY: `repr(C)` over two `u32`-sized `Pod` fields (`NodeId` is a
// transparent `u32`) — 8 bytes, no padding, every bit pattern valid.
unsafe impl Pod for Adjacency {}

impl Adjacency {
    /// Create an adjacency entry.
    #[inline]
    pub fn new(target: NodeId, label: LabelId, outgoing: bool) -> Self {
        debug_assert!(label.0 < OUTGOING_BIT, "label id overflows packed field");
        Adjacency { target, label_dir: label.0 | if outgoing { OUTGOING_BIT } else { 0 } }
    }

    /// The neighboring node.
    #[inline]
    pub fn target(self) -> NodeId {
        self.target
    }

    /// The label of the edge connecting to the neighbor.
    #[inline]
    pub fn label(self) -> LabelId {
        LabelId(self.label_dir & !OUTGOING_BIT)
    }

    /// `true` if the edge's original direction leaves the owning node.
    #[inline]
    pub fn is_outgoing(self) -> bool {
        self.label_dir & OUTGOING_BIT != 0
    }
}

/// An immutable knowledge graph in CSR form.
///
/// Construct with [`crate::GraphBuilder`] (heap-owned columns) or map one
/// from a `.wsnap` snapshot via [`crate::snapshot::graph_from_snapshot`]
/// (zero-copy columns over a read-only mapping). Node and label ids are
/// dense, so all per-node search state elsewhere in the workspace is held
/// in flat arrays indexed by [`NodeId`]. Every accessor behaves
/// identically on either backing — the mmap points of the differential
/// `lattice` suite pin byte-identical search answers.
#[derive(Clone, Debug)]
pub struct KnowledgeGraph {
    pub(crate) offsets: Column<u64>,
    pub(crate) adj: Column<Adjacency>,
    pub(crate) node_keys: StrTable,
    pub(crate) node_texts: StrTable,
    pub(crate) label_names: StrTable,
    /// Min–max normalized degree of summary in `[0, 1]` (the `w_i` used by
    /// the activation mapping, Sec. IV-A).
    pub(crate) weights: Column<f32>,
}

impl KnowledgeGraph {
    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.node_keys.len()
    }

    /// Number of *directed* edges (original triples). The bi-directed
    /// adjacency holds twice this many entries: each triple owns one
    /// outgoing and one incoming entry, a self-loop too.
    #[inline]
    pub fn num_directed_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Total adjacency entries (`2 × num_directed_edges`, minus nothing —
    /// self-loops also contribute two entries).
    #[inline]
    pub fn num_adjacency_entries(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct edge labels.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.label_names.len()
    }

    /// The bi-directed adjacency slice of `v` (both in- and out-edges).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[Adjacency] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Bi-directed degree of `v` (in-degree + out-degree).
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// In-degree of `v` under the original edge directions, counted over
    /// its adjacency slice.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.neighbors(v).iter().filter(|a| !a.is_outgoing()).count()
    }

    /// Out-degree of `v` under the original edge directions, counted over
    /// its adjacency slice.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.neighbors(v).iter().filter(|a| a.is_outgoing()).count()
    }

    /// Normalized degree-of-summary weight `w_v ∈ [0, 1]` (Sec. IV-A).
    #[inline]
    pub fn weight(&self, v: NodeId) -> f32 {
        self.weights[v.index()]
    }

    /// The full normalized weight array (used by the activation mapping).
    #[inline]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// The CSR offset array (`n + 1` entries), for snapshot writing.
    #[inline]
    pub fn csr_offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat bi-directed adjacency array, for snapshot writing.
    #[inline]
    pub fn csr_adjacency(&self) -> &[Adjacency] {
        &self.adj
    }

    /// The node-key string table.
    #[inline]
    pub fn node_keys_table(&self) -> &StrTable {
        &self.node_keys
    }

    /// The node-text string table.
    #[inline]
    pub fn node_texts_table(&self) -> &StrTable {
        &self.node_texts
    }

    /// The label-name string table.
    #[inline]
    pub fn label_names_table(&self) -> &StrTable {
        &self.label_names
    }

    /// `true` when any column is served from a memory-mapped snapshot
    /// rather than the heap. (After a copy-on-write
    /// [`override_weights`][Self::override_weights] the weight column is
    /// owned, but the graph still reports mapped as long as its structural
    /// columns are.)
    pub fn is_memory_mapped(&self) -> bool {
        self.offsets.is_mapped() || self.adj.is_mapped() || self.node_keys.is_mapped()
    }

    /// Assemble a graph directly from pre-built columns — the `.wsnap`
    /// open path ([`crate::snapshot::graph_from_snapshot`]). Only the cheap
    /// structural checks of `check_shape` run; full invariants stay with
    /// [`check_invariants`][Self::check_invariants], which deep tooling
    /// and tests call explicitly, because eagerly scanning every column
    /// would defeat lazy mapped opens.
    pub(crate) fn from_parts(
        offsets: Column<u64>,
        adj: Column<Adjacency>,
        node_keys: StrTable,
        node_texts: StrTable,
        label_names: StrTable,
        weights: Column<f32>,
    ) -> Result<Self, String> {
        let g = KnowledgeGraph { offsets, adj, node_keys, node_texts, label_names, weights };
        g.check_shape()?;
        Ok(g)
    }

    /// Column lengths only, no payload read: every per-node column holds
    /// one entry per node, the final CSR offset covers the adjacency
    /// array, and that array holds an even number of entries (two per
    /// triple, so the derived edge count is exact).
    fn check_shape(&self) -> Result<(), String> {
        let Some(&last) = self.offsets.last() else {
            return Err("CSR offset column must hold at least one entry".into());
        };
        let n = self.offsets.len() - 1;
        for (what, len) in [
            ("node_keys", self.node_keys.len()),
            ("node_texts", self.node_texts.len()),
            ("weights", self.weights.len()),
        ] {
            if len != n {
                return Err(format!("{what} holds {len} entries for a {n}-node graph"));
            }
        }
        if last != self.adj.len() as u64 {
            return Err(format!(
                "final CSR offset {last} does not cover {} adjacency entries",
                self.adj.len()
            ));
        }
        if self.adj.len() % 2 != 0 {
            return Err(format!(
                "adjacency holds {} entries, an odd count (each triple owns two)",
                self.adj.len()
            ));
        }
        Ok(())
    }

    /// Replace the normalized weight array with externally computed values.
    ///
    /// `GraphBuilder::build` normalizes weights over the *local* maximum,
    /// which is the right thing for a self-contained graph but wrong for a
    /// sub-graph that must score nodes exactly like its parent: a shard of
    /// a partitioned graph needs every node to keep the weight it had in
    /// the whole graph, or activation levels (and Eq. 6 scores) drift. The
    /// array must have one entry per node, each in `[0, 1]` — the same
    /// invariants `check_invariants` enforces.
    ///
    /// On a memory-mapped graph this is copy-on-write: the snapshot file
    /// stays untouched and only the weight column moves to fresh
    /// heap-owned storage; every other column keeps pointing into the
    /// mapping. It never attempts to write through the read-only mapping.
    ///
    /// # Panics
    /// Panics if the array's length differs from the node count.
    pub fn override_weights(&mut self, normalized: Vec<f32>) {
        assert_eq!(normalized.len(), self.num_nodes(), "normalized weights: one entry per node");
        self.weights = normalized.into();
    }

    /// Stable external key of a node (e.g. a Wikidata `Q...` id).
    #[inline]
    pub fn node_key(&self, v: NodeId) -> &str {
        self.node_keys.get(v.index())
    }

    /// Human-readable text of a node — the string the text index tokenizes.
    #[inline]
    pub fn node_text(&self, v: NodeId) -> &str {
        self.node_texts.get(v.index())
    }

    /// Human-readable name of an edge label.
    #[inline]
    pub fn label_name(&self, l: LabelId) -> &str {
        self.label_names.get(l.index())
    }

    /// Linear scan lookup of a node by its external key. Intended for tests
    /// and examples; production callers keep their own key map.
    pub fn find_node_by_key(&self, key: &str) -> Option<NodeId> {
        self.node_keys.position(key).map(NodeId::from_index)
    }

    /// Linear scan lookup of a node by its exact text.
    pub fn find_node_by_text(&self, text: &str) -> Option<NodeId> {
        self.node_texts.position(text).map(NodeId::from_index)
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Iterator over the original directed edges as
    /// `(source, label, target)` triples, reconstructed from the CSR.
    pub fn directed_edges(&self) -> impl Iterator<Item = (NodeId, LabelId, NodeId)> + '_ {
        self.nodes().flat_map(move |v| {
            self.neighbors(v)
                .iter()
                .filter(|a| a.is_outgoing())
                .map(move |a| (v, a.label(), a.target()))
        })
    }

    /// Extract the subgraph induced by `nodes`: the returned graph keeps
    /// the selected nodes' keys and texts and every original directed edge
    /// whose endpoints are both selected. Ids are re-densified; use keys
    /// to correlate. Useful for exporting answers.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> KnowledgeGraph {
        let mut b = crate::builder::GraphBuilder::with_capacity(nodes.len(), nodes.len() * 4);
        let selected: std::collections::HashSet<NodeId> = nodes.iter().copied().collect();
        for &v in nodes {
            b.add_node(self.node_key(v), self.node_text(v));
        }
        for &v in nodes {
            for a in self.neighbors(v) {
                if a.is_outgoing() && selected.contains(&a.target()) {
                    let s = b.node(self.node_key(v)).expect("just added");
                    let d = b.node(self.node_key(a.target())).expect("selected");
                    b.add_edge(s, d, self.label_name(a.label()));
                }
            }
        }
        b.build()
    }

    /// Validate internal invariants. Used by tests and the property suite;
    /// cheap enough to call on any freshly built graph.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_shape()?;
        let n = self.num_nodes();
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("CSR offsets decrease".into());
        }
        let mut outgoing = 0usize;
        for a in self.adj.iter() {
            if a.target().index() >= n {
                return Err(format!("adjacency target {} out of bounds", a.target()));
            }
            outgoing += a.is_outgoing() as usize;
        }
        if 2 * outgoing != self.adj.len() {
            return Err(format!(
                "outgoing entries {outgoing} are not half of {} adjacency entries",
                self.adj.len()
            ));
        }
        for v in self.nodes() {
            let w = self.weight(v);
            if !(0.0..=1.0).contains(&w) {
                return Err(format!("normalized weight {w} outside [0,1] at {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn diamond() -> KnowledgeGraph {
        // v0 -> v1 -> v3, v0 -> v2 -> v3
        let mut b = GraphBuilder::new();
        let v0 = b.add_node("a", "alpha");
        let v1 = b.add_node("b", "beta");
        let v2 = b.add_node("c", "gamma");
        let v3 = b.add_node("d", "delta");
        b.add_edge(v0, v1, "p");
        b.add_edge(v0, v2, "p");
        b.add_edge(v1, v3, "q");
        b.add_edge(v2, v3, "q");
        b.build()
    }

    #[test]
    fn adjacency_packs_label_and_direction() {
        let a = Adjacency::new(NodeId(7), LabelId(42), true);
        assert_eq!(a.target(), NodeId(7));
        assert_eq!(a.label(), LabelId(42));
        assert!(a.is_outgoing());
        let b = Adjacency::new(NodeId(7), LabelId(42), false);
        assert!(!b.is_outgoing());
        assert_eq!(b.label(), LabelId(42));
        assert_eq!(std::mem::size_of::<Adjacency>(), 8);
    }

    #[test]
    fn diamond_degrees_and_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_directed_edges(), 4);
        assert_eq!(g.num_adjacency_entries(), 8);
        let v0 = g.find_node_by_key("a").unwrap();
        let v3 = g.find_node_by_key("d").unwrap();
        assert_eq!(g.out_degree(v0), 2);
        assert_eq!(g.in_degree(v0), 0);
        assert_eq!(g.in_degree(v3), 2);
        assert_eq!(g.degree(v3), 2);
        g.check_invariants().unwrap();
    }

    #[test]
    fn bidirected_traversal_sees_both_directions() {
        let g = diamond();
        let v3 = g.find_node_by_key("d").unwrap();
        let nbrs: Vec<_> = g.neighbors(v3).iter().map(|a| a.target()).collect();
        assert_eq!(nbrs.len(), 2);
        assert!(g.neighbors(v3).iter().all(|a| !a.is_outgoing()));
    }

    #[test]
    fn directed_edges_reconstruct_triples() {
        let g = diamond();
        let mut edges: Vec<_> = g
            .directed_edges()
            .map(|(s, l, t)| {
                (
                    g.node_key(s).to_string(),
                    g.label_name(l).to_string(),
                    g.node_key(t).to_string(),
                )
            })
            .collect();
        edges.sort();
        assert_eq!(edges.len(), 4);
        assert_eq!(edges[0], ("a".into(), "p".into(), "b".into()));
    }

    #[test]
    fn find_node_lookups() {
        let g = diamond();
        assert_eq!(g.find_node_by_text("gamma"), g.find_node_by_key("c"));
        assert_eq!(g.find_node_by_key("zzz"), None);
        assert_eq!(g.find_node_by_text("zzz"), None);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = diamond();
        let v0 = g.find_node_by_key("a").unwrap();
        let v1 = g.find_node_by_key("b").unwrap();
        let v3 = g.find_node_by_key("d").unwrap();
        let sub = g.induced_subgraph(&[v0, v1, v3]);
        assert_eq!(sub.num_nodes(), 3);
        // kept: a->b, b->d; dropped: edges through c
        assert_eq!(sub.num_directed_edges(), 2);
        let b_id = sub.find_node_by_key("b").unwrap();
        assert_eq!(sub.node_text(b_id), "beta");
        sub.check_invariants().unwrap();
    }

    #[test]
    fn self_loop_contributes_two_adjacency_entries() {
        let mut b = GraphBuilder::new();
        let v = b.add_node("s", "self");
        b.add_edge(v, v, "loop");
        let g = b.build();
        assert_eq!(g.num_directed_edges(), 1);
        assert_eq!(g.degree(v), 2);
        assert_eq!(g.in_degree(v), 1);
        assert_eq!(g.out_degree(v), 1);
        g.check_invariants().unwrap();
    }
}
