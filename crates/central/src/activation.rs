//! Minimum activation levels — the Penalty-and-Reward mapping of
//! Sec. IV of the paper (Eqs. 3–5).
//!
//! An unweighted Central Graph search would reduce to arbitrary concurrent
//! BFS. The paper instead gives every node a **minimum activation level**
//! `a_i` derived from its degree-of-summary weight `w_i ∈ [0, 1]`: the node
//! only participates in search once the global BFS level reaches `a_i`.
//! Informative (low-weight) nodes activate early; summary hubs activate
//! late and therefore rarely enter compact answers.
//!
//! The mapping centers on the dataset's average shortest distance `A`
//! (Table II) and a user-tunable preference `α ∈ (0, 1)`:
//!
//! ```text
//! Penalty(v) = A · (w − α) / (1 − α)   if w > α        (Eq. 3)
//! Reward(v)  = A · (α − w) / α         if w < α        (Eq. 4)
//! a_v = round(A − Reward)   if w < α
//!     = round(A)            if w = α                   (Eq. 5)
//!     = round(A + Penalty)  if w > α
//! ```
//!
//! so `a_v` ranges from `0` (maximal reward) to `round(2A)` (maximal
//! penalty). A larger `α` maps more nodes below the average — the user's
//! lever for admitting summary nodes (the paper's `data mining` example).
//!
//! The paper computes `a_f` from `w_f` and `α` inside the expansion kernel
//! (Alg. 2 line 4). Here [`ActivationConfig::level_for_weight`] is the one
//! place Eqs. 3–5 are written, and it runs once per node per
//! `(graph weights, α, A)`: an [`ActivationTable`] keeps the levels as one
//! byte per node for as long as that key holds, so Alg. 2 and the
//! Theorem V.4 test ([`ActivationMap::level`]) are byte loads.

use kgraph::{KnowledgeGraph, NodeId};
use serde::{Deserialize, Serialize};

/// Inputs of the Penalty-and-Reward mapping.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ActivationConfig {
    /// User preference `α ∈ (0, 1)`.
    pub alpha: f32,
    /// Dataset average shortest distance `A` (sampled, Table II).
    pub average_distance: f64,
}

impl ActivationConfig {
    /// The mapping inputs a query's `params` carry (`α` and `A`).
    pub fn for_params(params: &crate::SearchParams) -> Self {
        ActivationConfig { alpha: params.alpha, average_distance: params.average_distance }
    }

    /// Minimum activation level for a normalized weight `w ∈ [0, 1]`
    /// (Eqs. 3–5). The result is clamped to `[0, 254]` so that `255`
    /// remains the ∞ sentinel of the hitting-level matrix.
    pub fn level_for_weight(&self, w: f32) -> u8 {
        let a = self.average_distance;
        let alpha = self.alpha as f64;
        let w = w as f64;
        let value = if w > alpha {
            a + a * (w - alpha) / (1.0 - alpha) // penalty
        } else if w < alpha {
            a - a * (alpha - w) / alpha // reward
        } else {
            a
        };
        value.round().clamp(0.0, 254.0) as u8
    }
}

/// Per-query activation oracle: one level byte per node, so the
/// per-neighbour tests of Alg. 2 and Theorem V.4 are byte loads. Either a
/// session's [`ActivationTable`] (Eqs. 3–5 evaluated once per node) or an
/// explicit per-node table (tests, ablations, shard-localized tables).
#[derive(Clone, Copy)]
pub struct ActivationMap<'a>(pub &'a [u8]);

impl ActivationMap<'_> {
    /// Minimum activation level of `v`.
    #[inline]
    pub fn level(&self, v: NodeId) -> u8 {
        self.0[v.index()]
    }
}

/// The level table of one `(graph weights, α, A)`, held by whoever answers
/// a stream of queries (a [`crate::session::SearchSession`], a shard
/// coordinator) and rebuilt only when that key changes: Eqs. 3–5 cost a
/// divide and a `round` per node, once, instead of per neighbour per query.
///
/// The weights are keyed by length and a 64-bit fingerprint of their bit
/// patterns, recomputed per query (integer work, ≈ 0.4 ns per node) — a
/// pointer would go stale when a graph is dropped and another takes its
/// address.
#[derive(Default)]
pub struct ActivationTable {
    key: Option<(usize, u64, u32, u64)>,
    levels: Vec<u8>,
    builds: u64,
}

impl ActivationTable {
    /// The levels of `graph`'s nodes under `config`, rebuilt only if the
    /// previous call's weights or `config` differ.
    pub fn levels(&mut self, graph: &KnowledgeGraph, config: ActivationConfig) -> &[u8] {
        let weights = graph.weights();
        let key = (
            weights.len(),
            fingerprint(weights),
            config.alpha.to_bits(),
            config.average_distance.to_bits(),
        );
        if self.key != Some(key) {
            self.key = Some(key);
            self.levels.clear();
            self.levels.extend(weights.iter().map(|&w| config.level_for_weight(w)));
            self.builds += 1;
        }
        &self.levels
    }

    /// The oracle a query's `params` ask for over `graph`: the explicit
    /// table if one was supplied, else this table under `α` and `A`.
    pub fn for_params<'a>(
        &'a mut self,
        graph: &KnowledgeGraph,
        params: &'a crate::SearchParams,
    ) -> ActivationMap<'a> {
        ActivationMap(match &params.explicit_activation {
            Some(levels) => levels,
            None => self.levels(graph, ActivationConfig::for_params(params)),
        })
    }

    /// The levels the last [`ActivationTable::levels`] call left.
    pub fn current(&self) -> &[u8] {
        &self.levels
    }

    /// How many times the table was (re)built — the generation tests
    /// watch to see that equal keys do not rebuild.
    pub fn builds(&self) -> u64 {
        self.builds
    }
}

/// Order-sensitive 64-bit fingerprint of the weights' bit patterns: four
/// independent multiply–rotate lanes, two weights a step, so the multiply
/// latency overlaps.
fn fingerprint(weights: &[f32]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [K; 4];
    let mut chunks = weights.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, w) in lanes.iter_mut().zip(chunk.chunks_exact(2)) {
            let word = u64::from(w[0].to_bits()) << 32 | u64::from(w[1].to_bits());
            *lane = (lane.rotate_left(5) ^ word).wrapping_mul(K);
        }
    }
    for w in chunks.remainder() {
        lanes[0] = (lanes[0].rotate_left(5) ^ u64::from(w.to_bits())).wrapping_mul(K);
    }
    lanes.iter().fold(0, |h, &lane| (h.rotate_left(17) ^ lane).wrapping_mul(K))
}

/// Histogram of activation levels: counts for levels `0, 1, 2, 3` and a
/// final bucket for `≥ 4`, exactly the x-axis of the paper's Fig. 3.
pub fn level_distribution(levels: &[u8]) -> [usize; 5] {
    let mut hist = [0usize; 5];
    for &l in levels {
        hist[(l as usize).min(4)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: f64 = 3.68; // the paper's wiki2018 estimate

    fn cfg(alpha: f32) -> ActivationConfig {
        ActivationConfig { alpha, average_distance: A }
    }

    #[test]
    fn weight_equal_alpha_maps_to_average() {
        assert_eq!(cfg(0.1).level_for_weight(0.1), A.round() as u8);
    }

    #[test]
    fn extremes_map_to_zero_and_double_average() {
        // w = 0: full reward ⇒ level 0.
        assert_eq!(cfg(0.1).level_for_weight(0.0), 0);
        // w = 1: full penalty ⇒ round(2A).
        assert_eq!(cfg(0.1).level_for_weight(1.0), (2.0 * A).round() as u8);
    }

    #[test]
    fn mapping_is_monotone_in_weight() {
        let c = cfg(0.1);
        let mut prev = 0u8;
        for i in 0..=100 {
            let w = i as f32 / 100.0;
            let l = c.level_for_weight(w);
            assert!(l >= prev, "activation must not decrease with weight");
            prev = l;
        }
    }

    #[test]
    fn larger_alpha_never_raises_a_nodes_level() {
        // Sec. IV-C: larger α "decreases" effective weights — every node's
        // activation level under α = 0.4 is ≤ its level under α = 0.05.
        let lo = cfg(0.05);
        let hi = cfg(0.4);
        for i in 0..=100 {
            let w = i as f32 / 100.0;
            assert!(
                hi.level_for_weight(w) <= lo.level_for_weight(w),
                "w = {w}: α = 0.4 gave a higher level than α = 0.05"
            );
        }
    }

    #[test]
    fn clamping_protects_the_infinity_sentinel() {
        let c = ActivationConfig { alpha: 0.01, average_distance: 1000.0 };
        assert!(c.level_for_weight(1.0) <= 254);
        assert_eq!(c.level_for_weight(0.0), 0);
    }

    #[test]
    fn closed_form_of_eqs_3_to_5_on_exact_inputs() {
        // A = 4, α = 0.5 keeps every intermediate value exact in binary
        // floating point, so the three branches can be checked against
        // hand-evaluated Eq. 3 (penalty), Eq. 4 (reward) and Eq. 5.
        let c = ActivationConfig { alpha: 0.5, average_distance: 4.0 };
        // Reward branch (w < α): a = A − A(α − w)/α = 4 − 4·0.25/0.5 = 2.
        assert_eq!(c.level_for_weight(0.25), 2);
        // Eq. 5 middle case (w = α): a = A = 4.
        assert_eq!(c.level_for_weight(0.5), 4);
        // Penalty branch (w > α): a = A + A(w − α)/(1 − α) = 4 + 4·0.25/0.5 = 6.
        assert_eq!(c.level_for_weight(0.75), 6);
    }

    #[test]
    fn levels_round_to_the_nearest_integer() {
        // Eq. 5 rounds, it does not truncate: A = 3.68 sits between
        // levels 3 and 4 and must land on 4 at w = α.
        assert_eq!(cfg(0.5).level_for_weight(0.5), 4);
        // A = 3.4 rounds down…
        let low = ActivationConfig { alpha: 0.5, average_distance: 3.4 };
        assert_eq!(low.level_for_weight(0.5), 3);
        // …and the half-way point 3.5 rounds away from zero, to 4.
        let half = ActivationConfig { alpha: 0.5, average_distance: 3.5 };
        assert_eq!(half.level_for_weight(0.5), 4);
    }

    #[test]
    fn boundary_alpha_values_stay_in_range() {
        // α near its open-interval boundaries must keep every level inside
        // [0, round(2A)] — no overflow, no sentinel collision.
        for alpha in [0.001f32, 0.01, 0.99, 0.999] {
            let c = cfg(alpha);
            let ceiling = (2.0 * A).round() as u8;
            for i in 0..=100 {
                let w = i as f32 / 100.0;
                let l = c.level_for_weight(w);
                assert!(l <= ceiling, "α = {alpha}, w = {w}: level {l} above 2A");
            }
            assert_eq!(c.level_for_weight(0.0), 0, "full reward at α = {alpha}");
            assert_eq!(c.level_for_weight(1.0), ceiling, "full penalty at α = {alpha}");
        }
    }

    #[test]
    fn mapping_is_continuous_across_the_alpha_pivot() {
        // Approaching w = α from either side converges to round(A): the
        // penalty and reward branches agree at the pivot (no jump in Eq. 5).
        let c = cfg(0.3);
        let at_pivot = c.level_for_weight(0.3);
        let below = c.level_for_weight(0.3 - 1e-6);
        let above = c.level_for_weight(0.3 + 1e-6);
        assert_eq!(at_pivot, A.round() as u8);
        assert_eq!(below, at_pivot);
        assert_eq!(above, at_pivot);
    }

    #[test]
    fn distribution_buckets_match_fig3_axes() {
        let hist = level_distribution(&[0, 0, 1, 2, 3, 4, 9, 200]);
        assert_eq!(hist, [2, 1, 1, 1, 3]);
    }

    #[test]
    fn explicit_map_reads_table() {
        let levels = vec![5u8, 7, 0];
        let m = ActivationMap(&levels);
        assert_eq!(m.level(NodeId(1)), 7);
    }
}
