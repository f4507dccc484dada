//! Average shortest-distance estimation by pair sampling (paper Table II).
//!
//! The Penalty-and-Reward activation mapping (Sec. IV-A) scales node weights
//! around the graph's **average shortest distance** `A`, which the paper
//! estimates by sampling ten thousand node pairs (reporting `A = 3.87` for
//! wiki2017 and `A = 3.68` for wiki2018, with the sample standard deviation
//! in Table II). This module reproduces that estimator with BFS over the
//! bi-directed adjacency, searched from both ends of each sampled pair.

use crate::graph::KnowledgeGraph;
use crate::ids::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Result of [`estimate_average_distance`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DistanceEstimate {
    /// Mean shortest distance over reachable sampled pairs (the paper's `A`).
    pub mean: f64,
    /// Sample standard deviation (the paper's `Deviation` column).
    pub deviation: f64,
    /// Pairs that were connected within `max_depth`.
    pub reachable_pairs: usize,
    /// Pairs sampled in total.
    pub sampled_pairs: usize,
}

impl DistanceEstimate {
    /// `A` rounded as the activation mapping consumes it.
    pub fn average(&self) -> f64 {
        self.mean
    }
}

/// BFS distance between two nodes over the bi-directed adjacency, or `None`
/// if `dst` is not reached within `max_depth` hops.
///
/// Searches from both ends at once, meeting in the middle; the result is
/// the plain BFS distance under the same cap.
pub fn bfs_distance(g: &KnowledgeGraph, src: NodeId, dst: NodeId, max_depth: u32) -> Option<u32> {
    MeetScratch::new(g.num_nodes()).distance(g, [src, dst], max_depth)
}

/// Meet-in-the-middle BFS state, reusable across pairs of one graph.
///
/// Each side keeps a distance array (`u32::MAX` = unseen) and the list of
/// nodes it has seen, in BFS order: the tail of that list is the side's
/// frontier, and the next search resets only the listed entries. Each
/// step expands the side whose frontier has the smaller adjacency volume
/// by one layer. On the first layer that touches the other side, the
/// answer is the least `ds + 1 + dt` over that layer; once the two depths
/// sum to `max_depth` without a meeting, the pair is out of range.
struct MeetScratch {
    dist: [Vec<u32>; 2],
    seen: [Vec<NodeId>; 2],
}

impl MeetScratch {
    fn new(n: usize) -> Self {
        MeetScratch { dist: [vec![u32::MAX; n], vec![u32::MAX; n]], seen: [Vec::new(), Vec::new()] }
    }

    fn distance(&mut self, g: &KnowledgeGraph, ends: [NodeId; 2], max_depth: u32) -> Option<u32> {
        for (dist, seen) in self.dist.iter_mut().zip(&mut self.seen) {
            for v in seen.drain(..) {
                dist[v.index()] = u32::MAX;
            }
        }
        if ends[0] == ends[1] {
            return Some(0);
        }
        let mut depth = [0u32; 2];
        let mut frontier_start = [0usize; 2];
        let mut volume = [0usize; 2];
        for side in 0..2 {
            self.dist[side][ends[side].index()] = 0;
            self.seen[side].push(ends[side]);
            volume[side] = g.neighbors(ends[side]).len();
        }
        while depth[0] + depth[1] < max_depth {
            let side = usize::from(volume[1] < volume[0]);
            let other = 1 - side;
            let (from, to) = (frontier_start[side], self.seen[side].len());
            if from == to {
                return None;
            }
            frontier_start[side] = to;
            let (mut best, mut next_volume) = (u32::MAX, 0);
            for i in from..to {
                let v = self.seen[side][i];
                let dv = self.dist[side][v.index()];
                for a in g.neighbors(v) {
                    let t = a.target();
                    if self.dist[side][t.index()] != u32::MAX {
                        continue;
                    }
                    let dt = self.dist[other][t.index()];
                    if dt != u32::MAX {
                        best = best.min(dv + 1 + dt);
                        continue;
                    }
                    self.dist[side][t.index()] = dv + 1;
                    self.seen[side].push(t);
                    next_volume += g.neighbors(t).len();
                }
            }
            if best != u32::MAX {
                return Some(best);
            }
            depth[side] += 1;
            volume[side] = next_volume;
        }
        None
    }
}

/// Estimate the average shortest distance `A` by sampling `pairs` random
/// node pairs (paper Sec. IV-A / Table II). Unreachable pairs (beyond
/// `max_depth`) are excluded from the mean, mirroring the paper's sampling
/// over the (largely connected) Wikidata graph.
///
/// Deterministic for a given `seed`.
pub fn estimate_average_distance(
    g: &KnowledgeGraph,
    pairs: usize,
    max_depth: u32,
    seed: u64,
) -> DistanceEstimate {
    let n = g.num_nodes();
    if n < 2 || pairs == 0 {
        return DistanceEstimate {
            mean: 0.0,
            deviation: 0.0,
            reachable_pairs: 0,
            sampled_pairs: 0,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = MeetScratch::new(n);
    let mut distances: Vec<u32> = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let s = NodeId::from_index(rng.random_range(0..n));
        let mut t = NodeId::from_index(rng.random_range(0..n));
        while t == s && n > 1 {
            t = NodeId::from_index(rng.random_range(0..n));
        }
        if let Some(d) = scratch.distance(g, [s, t], max_depth) {
            distances.push(d);
        }
    }
    if distances.is_empty() {
        return DistanceEstimate {
            mean: 0.0,
            deviation: 0.0,
            reachable_pairs: 0,
            sampled_pairs: pairs,
        };
    }
    let mean = distances.iter().map(|&d| d as f64).sum::<f64>() / distances.len() as f64;
    let var = distances
        .iter()
        .map(|&d| {
            let x = d as f64 - mean;
            x * x
        })
        .sum::<f64>()
        / distances.len() as f64;
    DistanceEstimate {
        mean,
        deviation: var.sqrt(),
        reachable_pairs: distances.len(),
        sampled_pairs: pairs,
    }
}

/// Full single-source BFS distances (`u32::MAX` = unreachable), capped at
/// `max_depth`.
pub fn bfs_distances(g: &KnowledgeGraph, src: NodeId, max_depth: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.num_nodes()];
    dist[src.index()] = 0;
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    queue.push_back(src);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()];
        if d >= max_depth {
            continue;
        }
        for a in g.neighbors(v) {
            let t = a.target();
            if dist[t.index()] == u32::MAX {
                dist[t.index()] = d + 1;
                queue.push_back(t);
            }
        }
    }
    dist
}

/// Average-distance estimation sharing BFS sweeps across pairs: `sources`
/// full BFS runs, each scored against `targets_per_source` random targets.
/// Equivalent to sampling `sources × targets_per_source` pairs (the
/// paper's 10,000) at a fraction of the cost on large graphs.
pub fn estimate_average_distance_sources(
    g: &KnowledgeGraph,
    sources: usize,
    targets_per_source: usize,
    max_depth: u32,
    seed: u64,
) -> DistanceEstimate {
    let n = g.num_nodes();
    if n < 2 || sources == 0 || targets_per_source == 0 {
        return DistanceEstimate {
            mean: 0.0,
            deviation: 0.0,
            reachable_pairs: 0,
            sampled_pairs: 0,
        };
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut distances: Vec<u32> = Vec::with_capacity(sources * targets_per_source);
    for _ in 0..sources {
        let s = NodeId::from_index(rng.random_range(0..n));
        let dist = bfs_distances(g, s, max_depth);
        for _ in 0..targets_per_source {
            let t = rng.random_range(0..n);
            if t != s.index() && dist[t] != u32::MAX {
                distances.push(dist[t]);
            }
        }
    }
    let sampled = sources * targets_per_source;
    if distances.is_empty() {
        return DistanceEstimate {
            mean: 0.0,
            deviation: 0.0,
            reachable_pairs: 0,
            sampled_pairs: sampled,
        };
    }
    let mean = distances.iter().map(|&d| d as f64).sum::<f64>() / distances.len() as f64;
    let var = distances
        .iter()
        .map(|&d| {
            let x = d as f64 - mean;
            x * x
        })
        .sum::<f64>()
        / distances.len() as f64;
    DistanceEstimate {
        mean,
        deviation: var.sqrt(),
        reachable_pairs: distances.len(),
        sampled_pairs: sampled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn path_graph(len: usize) -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> =
            (0..len).map(|i| b.add_node(&format!("n{i}"), &format!("node {i}"))).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], "next");
        }
        b.build()
    }

    #[test]
    fn bfs_distance_on_a_path() {
        let g = path_graph(6);
        let a = g.find_node_by_key("n0").unwrap();
        let e = g.find_node_by_key("n5").unwrap();
        assert_eq!(bfs_distance(&g, a, e, 16), Some(5));
        assert_eq!(bfs_distance(&g, a, a, 16), Some(0));
        // traversal is bi-directed even though edges point one way
        assert_eq!(bfs_distance(&g, e, a, 16), Some(5));
    }

    #[test]
    fn bfs_distance_respects_max_depth() {
        let g = path_graph(6);
        let a = g.find_node_by_key("n0").unwrap();
        let e = g.find_node_by_key("n5").unwrap();
        assert_eq!(bfs_distance(&g, a, e, 4), None);
        assert_eq!(bfs_distance(&g, a, e, 5), Some(5));
    }

    #[test]
    fn disconnected_pair_is_unreachable() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", "a");
        let z = b.add_node("z", "z");
        let g = b.build();
        assert_eq!(bfs_distance(&g, a, z, 10), None);
    }

    #[test]
    fn estimate_is_deterministic_per_seed() {
        let g = path_graph(32);
        let e1 = estimate_average_distance(&g, 100, 64, 7);
        let e2 = estimate_average_distance(&g, 100, 64, 7);
        assert_eq!(e1, e2);
        let e3 = estimate_average_distance(&g, 100, 64, 8);
        // Different seed samples different pairs; the estimate may differ.
        assert_eq!(e3.sampled_pairs, 100);
    }

    #[test]
    fn estimate_on_path_graph_is_positive_with_sane_deviation() {
        let g = path_graph(64);
        let e = estimate_average_distance(&g, 200, 128, 42);
        assert!(e.mean > 1.0);
        assert!(e.mean < 64.0);
        assert!(e.deviation >= 0.0);
        assert_eq!(e.reachable_pairs, 200, "a path graph is fully connected");
    }

    #[test]
    fn degenerate_inputs_produce_zero_estimate() {
        let g = GraphBuilder::new().build();
        let e = estimate_average_distance(&g, 100, 10, 1);
        assert_eq!(e.reachable_pairs, 0);
        assert_eq!(e.mean, 0.0);
    }

    #[test]
    fn bfs_distances_match_pairwise_bfs() {
        let g = path_graph(10);
        let src = g.find_node_by_key("n3").unwrap();
        let dist = bfs_distances(&g, src, 64);
        for v in g.nodes() {
            assert_eq!(
                bfs_distance(&g, src, v, 64),
                (dist[v.index()] != u32::MAX).then_some(dist[v.index()]),
                "distance to {v}"
            );
        }
    }

    #[test]
    fn multi_source_estimate_agrees_with_pairwise_on_a_path() {
        let g = path_graph(40);
        let pairwise = estimate_average_distance(&g, 300, 64, 11);
        let multi = estimate_average_distance_sources(&g, 20, 15, 64, 11);
        // Both estimate the same expectation (~len/3); allow sampling noise.
        assert!((pairwise.mean - multi.mean).abs() < pairwise.mean * 0.25);
        assert_eq!(multi.sampled_pairs, 300);
    }
}
