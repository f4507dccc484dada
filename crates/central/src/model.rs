//! The Central Graph answer model (paper Definitions 1–4).

use kgraph::NodeId;
use serde::{Deserialize, Serialize};

/// The ∞ sentinel in the node–keyword hitting-level matrix `M`. One byte
/// per entry is the paper's explicit storage choice (Sec. V-B: "one byte is
/// all we need to record a hitting level").
pub const INFINITE_LEVEL: u8 = u8::MAX;

/// A Central Graph answer: the union of all hitting paths from every
/// keyword's node set to one **central node** (Def. 3), after level-cover
/// pruning and scoring.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CentralGraph {
    /// The central node `v_c` the answer is centered at.
    pub central: NodeId,
    /// Depth `d(C)`: the maximum hitting level of the central node over all
    /// keywords (Eq. 1) — equal to the BFS level at which it was
    /// identified (Lemma V.1).
    pub depth: u8,
    /// All nodes of the (pruned) answer graph, sorted by id.
    pub nodes: Vec<NodeId>,
    /// Undirected answer edges as `(min, max)` node pairs, sorted, unique.
    /// These are hitting-path expansion steps, so each is also an edge of
    /// the data graph.
    pub edges: Vec<(NodeId, NodeId)>,
    /// For each query keyword (query order), the keyword nodes of this
    /// answer that contain it after pruning. Non-empty for every keyword —
    /// an answer covers the whole query.
    pub keyword_nodes: Vec<Vec<NodeId>>,
    /// For each query keyword, the hitting-path edges of its BFS instance
    /// that survive pruning — Def. 3's per-keyword path sets `P_i`, whose
    /// union is [`CentralGraph::edges`]. Sorted `(min, max)` pairs.
    pub keyword_edges: Vec<Vec<(NodeId, NodeId)>>,
    /// Ranking score `S(C) = d(C)^λ · Σ_{v ∈ C} w_v` (Eq. 6); smaller is
    /// better.
    pub score: f64,
}

impl CentralGraph {
    /// Number of nodes in the answer.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges in the answer.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` if this answer's node set strictly contains `other`'s —
    /// the repetition-removal condition of Sec. VI-B (the container is the
    /// one to drop). Both node lists are sorted, so this is a linear merge.
    pub fn strictly_contains(&self, other: &CentralGraph) -> bool {
        if self.nodes.len() <= other.nodes.len() {
            return false;
        }
        let mut i = 0;
        for &n in &other.nodes {
            while i < self.nodes.len() && self.nodes[i] < n {
                i += 1;
            }
            if i >= self.nodes.len() || self.nodes[i] != n {
                return false;
            }
            i += 1;
        }
        true
    }

    /// `true` if the answer contains `v`.
    pub fn contains_node(&self, v: NodeId) -> bool {
        self.nodes.binary_search(&v).is_ok()
    }

    /// Check the answer's structural invariants (used by tests):
    /// sorted unique nodes/edges, edges within the node set, every keyword
    /// covered, central node present.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.nodes.windows(2).all(|w| w[0] < w[1]) {
            return Err("nodes not sorted/unique".into());
        }
        if !self.edges.windows(2).all(|w| w[0] < w[1]) {
            return Err("edges not sorted/unique".into());
        }
        if !self.contains_node(self.central) {
            return Err("central node missing from node set".into());
        }
        for &(a, b) in &self.edges {
            if a > b {
                return Err(format!("edge ({a}, {b}) not normalized"));
            }
            if !self.contains_node(a) || !self.contains_node(b) {
                return Err(format!("edge ({a}, {b}) endpoint outside node set"));
            }
        }
        for (i, kws) in self.keyword_nodes.iter().enumerate() {
            if kws.is_empty() {
                return Err(format!("keyword {i} uncovered"));
            }
            for &v in kws {
                if !self.contains_node(v) {
                    return Err(format!("keyword node {v} outside node set"));
                }
            }
        }
        // Per-keyword edge sets union to the answer's edges.
        if !self.keyword_edges.is_empty() {
            let mut union: Vec<(NodeId, NodeId)> =
                self.keyword_edges.iter().flatten().copied().collect();
            union.sort_unstable();
            union.dedup();
            if union != self.edges {
                return Err("keyword edge union differs from answer edges".into());
            }
        }
        if !self.score.is_finite() || self.score < 0.0 {
            return Err(format!("score {} not a finite non-negative value", self.score));
        }
        Ok(())
    }
}

/// Ordering used for final ranking: ascending score, then shallower, then
/// smaller, then by central-node id for determinism.
pub fn answer_order(a: &CentralGraph, b: &CentralGraph) -> std::cmp::Ordering {
    rank_order(
        (a.score, a.depth, a.nodes.len(), a.central.0),
        (b.score, b.depth, b.nodes.len(), b.central.0),
    )
}

/// [`answer_order`] on bare `(score, depth, node count, central id)` keys —
/// what the top-down stage ranks before any answer is materialised.
pub(crate) fn rank_order(a: (f64, u8, usize, u32), b: (f64, u8, usize, u32)) -> std::cmp::Ordering {
    a.0.partial_cmp(&b.0)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| (a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(central: u32, nodes: &[u32], score: f64) -> CentralGraph {
        CentralGraph {
            central: NodeId(central),
            depth: 1,
            nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
            edges: vec![],
            keyword_nodes: vec![vec![NodeId(nodes[0])]],
            keyword_edges: vec![vec![]],
            score,
        }
    }

    #[test]
    fn strict_containment_is_proper_superset() {
        let big = answer(1, &[1, 2, 3, 4], 1.0);
        let small = answer(1, &[2, 3], 1.0);
        let other = answer(1, &[2, 5], 1.0);
        assert!(big.strictly_contains(&small));
        assert!(!small.strictly_contains(&big));
        assert!(!big.strictly_contains(&other));
        assert!(!big.strictly_contains(&big), "equal sets are not strict");
    }

    #[test]
    fn invariants_catch_malformed_answers() {
        let mut a = answer(1, &[1, 2, 3], 0.5);
        assert!(a.check_invariants().is_ok());
        a.central = NodeId(9);
        assert!(a.check_invariants().is_err());
        let mut b = answer(1, &[1, 2], 0.5);
        b.edges = vec![(NodeId(2), NodeId(1))];
        assert!(b.check_invariants().is_err(), "unnormalized edge");
        let mut c = answer(1, &[1, 2], 0.5);
        c.keyword_nodes = vec![vec![]];
        assert!(c.check_invariants().is_err(), "uncovered keyword");
        let mut d = answer(1, &[1, 2], f64::NAN);
        d.score = f64::NAN;
        assert!(d.check_invariants().is_err());
    }

    #[test]
    fn ordering_prefers_score_then_depth_then_size() {
        let a = answer(1, &[1], 0.5);
        let mut b = answer(2, &[2], 0.5);
        b.depth = 2;
        let c = answer(3, &[3], 0.1);
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort_by(answer_order);
        assert_eq!(v[0].central, c.central);
        assert_eq!(v[1].central, a.central, "same score: shallower first");
        assert_eq!(v[2].central, b.central);
    }
}
