//! Mutable graph builder producing an immutable CSR [`KnowledgeGraph`].
//!
//! Node keys and label names are interned into byte arenas: each arena is
//! the `n + 1` offsets and the bytes a [`StrTable`] keeps, and an
//! open-addressing table of `u32` ids, hashed and compared over arena
//! slices, finds a string again. Node texts go into a third arena. A node
//! therefore costs no allocation of its own, and `build()` hands the
//! arenas to the graph as they are. `build()` sorts the accumulated
//! directed triples with one counting-sort pass by source (input already
//! in CSR order, as a `.bin` load is, costs one check instead), scatters
//! them into the bi-directed CSR and computes degree-of-summary weights
//! (Eq. 2).

use crate::column::StrTable;
use crate::graph::{Adjacency, KnowledgeGraph};
use crate::ids::{LabelId, NodeId};
use crate::weights;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Strings back to back: string `i` is `bytes[offsets[i]..offsets[i + 1]]`.
struct Arena {
    offsets: Vec<u64>,
    bytes: Vec<u8>,
}

impl Arena {
    fn with_capacity(strings: usize) -> Self {
        let mut offsets = Vec::with_capacity(strings + 1);
        offsets.push(0);
        Arena { offsets, bytes: Vec::new() }
    }

    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    fn push(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
        self.offsets.push(self.bytes.len() as u64);
    }
}

/// An [`Arena`] of distinct strings plus an open-addressing (linear
/// probing) table of their ids, at most half full. Keys come from graph
/// files, so they are hashed with the standard library's keyed hasher,
/// which crafted keys cannot make collide.
struct Interner {
    arena: Arena,
    /// Ids, or [`Interner::EMPTY`]; the length is 0 or a power of two.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Interner {
    const EMPTY: u32 = u32::MAX;

    fn with_capacity(strings: usize) -> Self {
        let slots = if strings == 0 {
            Vec::new()
        } else {
            vec![Self::EMPTY; table_size(strings)]
        };
        Interner { arena: Arena::with_capacity(strings), slots, hasher: RandomState::new() }
    }

    /// The slot holding `key`'s id, or the empty slot where it would go.
    /// The table must not be empty.
    fn probe(&self, key: &[u8]) -> usize {
        let mask = self.slots.len() - 1;
        // The hash's high bits pick the slot.
        let mut at =
            (self.hasher.hash_one(key) >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let id = self.slots[at];
            if id == Self::EMPTY || self.arena.get(id as usize) == key {
                return at;
            }
            at = (at + 1) & mask;
        }
    }

    fn find(&self, key: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        Some(self.slots[self.probe(key.as_bytes())]).filter(|&id| id != Self::EMPTY)
    }

    /// `key`'s id, and whether this call added it.
    fn intern(&mut self, key: &str) -> (u32, bool) {
        if (self.arena.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let at = self.probe(key.as_bytes());
        if self.slots[at] != Self::EMPTY {
            return (self.slots[at], false);
        }
        let id = self.arena.len();
        assert!(id < Self::EMPTY as usize, "more than u32::MAX - 1 strings");
        self.arena.push(key);
        self.slots[at] = id as u32;
        (id as u32, true)
    }

    /// The strings as a table, the id table freed.
    fn into_table(self) -> StrTable {
        let Arena { offsets, bytes } = self.arena;
        drop(self.slots);
        StrTable::from_arena(offsets, bytes)
    }

    fn grow(&mut self) {
        self.slots = vec![Self::EMPTY; table_size(self.arena.len() + 1).max(self.slots.len() * 2)];
        for id in 0..self.arena.len() {
            let at = self.probe(self.arena.get(id));
            self.slots[at] = id as u32;
        }
    }
}

/// Slots for `strings` entries at a load of at most one half.
fn table_size(strings: usize) -> usize {
    (strings * 2).next_power_of_two().max(16)
}

/// Builder for [`KnowledgeGraph`]. See the crate-level example.
pub struct GraphBuilder {
    keys: Interner,
    texts: Arena,
    /// Texts that replaced a node's first one, back to back, and for each
    /// replacement the node and its span in `retexts`, oldest first.
    retexts: Vec<u8>,
    replaced: Vec<(NodeId, u64, u64)>,
    labels: Interner,
    /// Directed triples `(src, label, dst)`, possibly containing duplicates
    /// until `build()` dedups them.
    edges: Vec<(NodeId, LabelId, NodeId)>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        GraphBuilder::with_capacity(0, 0)
    }
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder with capacity hints for large synthetic graphs.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            keys: Interner::with_capacity(nodes),
            texts: Arena::with_capacity(nodes),
            retexts: Vec::new(),
            replaced: Vec::new(),
            labels: Interner::with_capacity(0),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.keys.arena.len()
    }

    /// Number of (possibly duplicate) triples added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Intern a node by external `key`; `text` is the human-readable label
    /// that keyword matching tokenizes. Re-adding an existing key returns
    /// the existing id and, if `text` is non-empty, replaces its text.
    pub fn add_node(&mut self, key: &str, text: &str) -> NodeId {
        let (id, added) = self.keys.intern(key);
        let id = NodeId(id);
        if added {
            self.texts.push(text);
        } else if !text.is_empty() {
            let start = self.retexts.len() as u64;
            self.retexts.extend_from_slice(text.as_bytes());
            self.replaced.push((id, start, self.retexts.len() as u64));
        }
        id
    }

    /// Look up a previously added node by key.
    pub fn node(&self, key: &str) -> Option<NodeId> {
        self.keys.find(key).map(NodeId)
    }

    /// Intern an edge label by name.
    pub fn label(&mut self, name: &str) -> LabelId {
        LabelId(self.labels.intern(name).0)
    }

    /// Add a directed labeled edge `src --name--> dst`.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, name: &str) {
        let label = self.label(name);
        self.add_edge_with_label(src, dst, label);
    }

    /// Add a directed edge with an already-interned label.
    pub fn add_edge_with_label(&mut self, src: NodeId, dst: NodeId, label: LabelId) {
        debug_assert!(src.index() < self.num_nodes(), "src node not added");
        debug_assert!(dst.index() < self.num_nodes(), "dst node not added");
        self.edges.push((src, label, dst));
    }

    /// Finalize into an immutable CSR graph.
    ///
    /// Exact duplicate triples are removed; parallel edges with distinct
    /// labels are kept (they are distinct relationships in a KB).
    ///
    /// The arenas become the graph's string tables without a copy (the
    /// texts are rewritten once, only if some text was replaced), and each
    /// input is freed as soon as its output exists — the intern tables
    /// first, the triples once they are scattered — so the build holds at
    /// most one copy of the graph at a time.
    pub fn build(self) -> KnowledgeGraph {
        let GraphBuilder { keys, texts, retexts, replaced, labels, edges } = self;
        let n = keys.arena.len();
        let node_keys = keys.into_table();
        let node_texts = apply_replacements(texts, &retexts, replaced);
        drop(retexts);
        let label_names = labels.into_table();

        // Each source's `(label, dst)` pairs in ascending order, exact
        // duplicates removed: the triples sorted by `(src, label, dst)`.
        let (edges, out_degree) = sort_by_source(edges, n);

        // Bi-directed CSR: each triple contributes one outgoing entry at the
        // source and one incoming entry at the destination. `offsets[v + 1]`
        // counts `v`'s in-degree first, then the prefix sum adds the rest.
        let mut offsets = vec![0u64; n + 1];
        for &(_, d) in &edges {
            offsets[d.index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v] + out_degree[v] as u64;
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
        // histogram: its incoming CSR entries counted per label, read back
        // in ascending label order, as `degree_of_summary` sums them.
        let mut raw = vec![0.0f32; n];
        let mut per_label = vec![0u32; label_names.len()];
        let mut seen: Vec<u32> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        for (v, w) in raw.iter_mut().enumerate() {
            seen.clear();
            for a in &adj[offsets[v] as usize..offsets[v + 1] as usize] {
                if !a.is_outgoing() {
                    let count = &mut per_label[a.label().index()];
                    if *count == 0 {
                        seen.push(a.label().0);
                    }
                    *count += 1;
                }
            }
            if seen.is_empty() {
                continue;
            }
            seen.sort_unstable();
            counts.clear();
            counts.extend(seen.iter().map(|&l| std::mem::take(&mut per_label[l as usize])));
            *w = weights::degree_of_summary(&counts);
        }
        let normalized = weights::normalize(&raw);

        KnowledgeGraph {
            offsets: offsets.into(),
            adj: adj.into(),
            node_keys,
            node_texts,
            label_names,
            weights: normalized.into(),
        }
    }
}

/// The node texts with each replaced one swapped for its latest
/// replacement: the arena as it is when nothing was replaced, else
/// rewritten once.
fn apply_replacements(
    texts: Arena,
    retexts: &[u8],
    mut replaced: Vec<(NodeId, u64, u64)>,
) -> StrTable {
    let Arena { mut offsets, bytes } = texts;
    if replaced.is_empty() {
        return StrTable::from_arena(offsets, bytes);
    }
    // Stable: each node's replacements stay oldest first, so the last of
    // its run wins.
    replaced.sort_by_key(|&(v, _, _)| v.0);
    let mut runs = replaced.iter().peekable();
    let mut out = Vec::with_capacity(bytes.len());
    let mut lo = 0;
    for v in 0..offsets.len() - 1 {
        let hi = offsets[v + 1] as usize;
        let mut text = &bytes[lo..hi];
        while let Some(&(_, a, b)) = runs.next_if(|r| r.0.index() == v) {
            text = &retexts[a as usize..b as usize];
        }
        out.extend_from_slice(text);
        offsets[v + 1] = out.len() as u64;
        lo = hi;
    }
    StrTable::from_arena(offsets, out)
}

/// The triples sorted by `(src, label, dst)` with exact duplicates
/// removed, kept as `(label, dst)` pairs beside each source's pair count
/// (the out-degree), which recovers the source.
///
/// Triples already in that order (a `.bin` load's) take one pass, in
/// place. Others take one counting-sort pass by source, O(m + n), and
/// then a sort of each source's short run by `(label, dst)`.
fn sort_by_source(
    mut edges: Vec<(NodeId, LabelId, NodeId)>,
    n: usize,
) -> (Vec<(LabelId, NodeId)>, Vec<u32>) {
    let mut out_degree = vec![0u32; n];
    // Slide each triple that is new down over the duplicates before it,
    // until one is out of order.
    let (mut kept, mut last) = (0, None);
    let mut stop = edges.len();
    for i in 0..edges.len() {
        let (s, l, d) = edges[i];
        let key = Some((s.0, l.0, d.0));
        if key < last {
            stop = i;
            break;
        }
        if key > last {
            edges[kept] = edges[i];
            kept += 1;
            out_degree[s.index()] += 1;
            last = key;
        }
    }
    if stop == edges.len() {
        edges.truncate(kept);
        let mut pairs: Vec<(LabelId, NodeId)> = edges.into_iter().map(|(_, l, d)| (l, d)).collect();
        pairs.shrink_to_fit();
        return (pairs, out_degree);
    }
    // Out of order: the distinct prefix and the unread rest hold the
    // same triples, up to duplicates, which the runs drop below.
    edges.drain(kept..stop);
    out_degree.fill(0);
    for &(s, _, _) in &edges {
        out_degree[s.index()] += 1;
    }
    // `cursor[s]` starts at source `s`'s run and ends at the next one's.
    let mut cursor = Vec::with_capacity(n);
    let mut at = 0;
    for &count in &out_degree {
        cursor.push(at);
        at += count as usize;
    }
    let mut pairs = vec![(LabelId(0), NodeId(0)); edges.len()];
    for &(s, l, d) in &edges {
        let c = &mut cursor[s.index()];
        pairs[*c] = (l, d);
        *c += 1;
    }
    drop(cursor);
    drop(edges);

    // Sort each run and slide its distinct pairs down over the dropped
    // duplicates; the count becomes the out-degree.
    let (mut lo, mut kept) = (0, 0);
    for count in &mut out_degree {
        let hi = lo + *count as usize;
        pairs[lo..hi].sort_unstable_by_key(|&(l, d)| (l.0, d.0));
        let first = kept;
        for i in lo..hi {
            if kept == first || pairs[kept - 1] != pairs[i] {
                pairs[kept] = pairs[i];
                kept += 1;
            }
        }
        *count = (kept - first) as u32;
        lo = hi;
    }
    pairs.truncate(kept);
    pairs.shrink_to_fit();
    (pairs, out_degree)
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
