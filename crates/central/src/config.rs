//! Search parameters — the paper's Table III plus implementation knobs.

use serde::{Deserialize, Serialize};

/// Parameters of a Central Graph search.
///
/// Defaults mirror the paper's Table III: `Topk = 20`, `α = 0.1`,
/// `λ = 0.2` (Eq. 6). `Knum` is a property of the query, and `Tnum`
/// (thread count) is a property of the engine, so neither lives here.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SearchParams {
    /// Number of answers to return (`Topk`).
    pub top_k: usize,
    /// Degree-of-summary preference `α ∈ (0, 1)` (Sec. IV-A). Larger α
    /// lets more summary nodes activate early.
    pub alpha: f32,
    /// Depth-penalty exponent `λ ≥ 0` in the scoring function Eq. 6.
    pub lambda: f64,
    /// Maximum BFS expansion depth `lmax`; search stops here even if fewer
    /// than `top_k` central nodes were found.
    pub max_level: u8,
    /// Average shortest distance `A` of the dataset. The activation mapping
    /// (Eqs. 3–5) scales penalties/rewards by this; compute once per
    /// dataset with [`kgraph::estimate_average_distance`] (Table II).
    pub average_distance: f64,
    /// Remove answers whose node set strictly contains another answer's
    /// (the repetition-removal rule of the paper's Sec. VI-B).
    pub dedup_contained: bool,
    /// Apply the level-cover pruning strategy (Sec. V-C). Disabling it is
    /// an ablation: answers keep every hitting path, including redundant
    /// single-keyword satellites.
    pub level_cover: bool,
    /// Override the computed minimum activation levels with explicit
    /// per-node values. Used by tests reproducing the paper's worked
    /// examples (Fig. 4) and by ablations; `None` means compute from
    /// weights via the Penalty-and-Reward mapping.
    #[serde(skip)]
    pub explicit_activation: Option<std::sync::Arc<Vec<u8>>>,
    /// Collect the per-query execution trace (see [`crate::trace`]); off
    /// by default. The one tracing switch: a traced request is a live
    /// search, never answered from or stored into a result cache, so its
    /// trace describes the search that produced its answers. Tracing
    /// never changes answers, so this knob is deliberately *not* part of
    /// [`SearchParams::fingerprint`].
    pub trace: bool,
}

impl Default for SearchParams {
    fn default() -> Self {
        SearchParams {
            top_k: 20,
            alpha: 0.1,
            lambda: 0.2,
            max_level: 24,
            average_distance: 3.68, // the paper's wiki2018 estimate
            dedup_contained: true,
            level_cover: true,
            explicit_activation: None,
            trace: false,
        }
    }
}

impl SearchParams {
    /// Builder-style override of `top_k`.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Builder-style override of `alpha`.
    pub fn with_alpha(mut self, alpha: f32) -> Self {
        self.alpha = alpha;
        self
    }

    /// Builder-style override of the dataset's average distance `A`.
    pub fn with_average_distance(mut self, a: f64) -> Self {
        self.average_distance = a;
        self
    }

    /// Builder-style override of `lambda`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style explicit activation levels (tests/ablations).
    pub fn with_explicit_activation(mut self, levels: Vec<u8>) -> Self {
        self.explicit_activation = Some(std::sync::Arc::new(levels));
        self
    }

    /// Builder-style tracing switch.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The answer-relevant identity of these parameters, for use in cache
    /// keys (see [`crate::cache`]). Two `SearchParams` with equal
    /// fingerprints produce identical answers for the same graph and
    /// query; any knob that can change an answer — `top_k`, `α`, `λ`,
    /// `max_level`, `A`, the pruning toggles and an explicit activation
    /// override — is folded in bit-exactly, so a cached result can never
    /// alias across parameter settings.
    pub fn fingerprint(&self) -> ParamsFingerprint {
        ParamsFingerprint {
            top_k: self.top_k,
            alpha_bits: self.alpha.to_bits(),
            lambda_bits: self.lambda.to_bits(),
            max_level: self.max_level,
            average_distance_bits: self.average_distance.to_bits(),
            dedup_contained: self.dedup_contained,
            level_cover: self.level_cover,
            explicit_activation: self.explicit_activation.clone(),
        }
    }

    /// Validate parameter ranges, returning a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha > 0.0 && self.alpha < 1.0) {
            return Err(format!("alpha must be in (0,1), got {}", self.alpha));
        }
        if self.lambda < 0.0 {
            return Err(format!("lambda must be >= 0, got {}", self.lambda));
        }
        if self.average_distance < 0.0 {
            return Err(format!("average_distance must be >= 0, got {}", self.average_distance));
        }
        if self.top_k == 0 {
            return Err("top_k must be >= 1".into());
        }
        Ok(())
    }
}

/// Hashable, comparable identity of a [`SearchParams`] — every field that
/// can influence an answer, with floats captured bit-exactly. Built by
/// [`SearchParams::fingerprint`]; used as the parameter half of a result
/// cache key ([`crate::cache::QueryKey`]).
///
/// The explicit activation override participates by *contents* (the
/// `Arc<Vec<u8>>` hashes and compares through its pointee), so two params
/// that override the same levels collide and any differing override does
/// not.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ParamsFingerprint {
    top_k: usize,
    alpha_bits: u32,
    lambda_bits: u64,
    max_level: u8,
    average_distance_bits: u64,
    dedup_contained: bool,
    level_cover: bool,
    explicit_activation: Option<std::sync::Arc<Vec<u8>>>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let p = SearchParams::default();
        assert_eq!(p.top_k, 20);
        assert!((p.alpha - 0.1).abs() < 1e-6);
        assert!((p.lambda - 0.2).abs() < 1e-12);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let p = SearchParams::default()
            .with_top_k(50)
            .with_alpha(0.4)
            .with_average_distance(3.87)
            .with_lambda(0.0);
        assert_eq!(p.top_k, 50);
        assert!((p.alpha - 0.4).abs() < 1e-6);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        assert!(SearchParams::default().with_alpha(0.0).validate().is_err());
        assert!(SearchParams::default().with_alpha(1.0).validate().is_err());
        assert!(SearchParams::default().with_lambda(-0.1).validate().is_err());
        assert!(SearchParams::default().with_top_k(0).validate().is_err());
    }

    #[test]
    fn fingerprint_separates_every_answer_relevant_knob() {
        let base = SearchParams::default();
        assert_eq!(base.fingerprint(), base.clone().fingerprint(), "clone collides");
        assert_ne!(base.fingerprint(), base.clone().with_top_k(1).fingerprint());
        assert_ne!(base.fingerprint(), base.clone().with_alpha(0.4).fingerprint());
        assert_ne!(base.fingerprint(), base.clone().with_lambda(0.0).fingerprint());
        assert_ne!(base.fingerprint(), base.clone().with_average_distance(4.0).fingerprint());
        let mut toggles = base.clone();
        toggles.level_cover = false;
        assert_ne!(base.fingerprint(), toggles.fingerprint());
        toggles = base.clone();
        toggles.dedup_contained = false;
        assert_ne!(base.fingerprint(), toggles.fingerprint());
    }

    #[test]
    fn fingerprint_compares_explicit_activation_by_contents() {
        let base = SearchParams::default();
        let a = base.clone().with_explicit_activation(vec![0, 1, 2]);
        let b = base.clone().with_explicit_activation(vec![0, 1, 2]);
        let c = base.clone().with_explicit_activation(vec![0, 1, 3]);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same levels, distinct Arcs");
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(a.fingerprint(), base.fingerprint());
    }

    #[test]
    fn trace_level_does_not_change_the_fingerprint() {
        let base = SearchParams::default();
        let traced = base.clone().with_trace(true);
        assert_eq!(base.fingerprint(), traced.fingerprint());
    }
}
