//! Per-phase wall-clock profiling.
//!
//! The paper's Exp-1 and Exp-4 (Figs. 6, 7, 9, 10) break total query time
//! into the five phases of Algorithm 1: *Initialization*, *Enqueuing
//! frontiers*, *Identifying Central Nodes*, *Expansion* and *Top-down
//! processing*. Every engine fills one of these profiles per search.

use serde::{Serialize, Value};
use std::ops::AddAssign;
use std::time::Duration;

/// Wall-clock time per algorithm phase. Level-loop phases accumulate
/// across all BFS levels.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Setting up `M`, `FIdentifier`, `CIdentifier` and the sources.
    pub init: Duration,
    /// Scanning `FIdentifier` into the joint frontier queue, per level.
    pub enqueue: Duration,
    /// Scanning frontiers for complete `M` rows, per level.
    pub identify: Duration,
    /// The expansion procedure (Alg. 2), per level.
    pub expansion: Duration,
    /// Extraction + level-cover pruning + ranking (Alg. 3).
    pub top_down: Duration,
}

impl PhaseProfile {
    /// Total across all phases.
    pub fn total(&self) -> Duration {
        self.init + self.enqueue + self.identify + self.expansion + self.top_down
    }
}

/// The phases in paper order as `{init_ms, enqueue_ms, identify_ms,
/// expansion_ms, top_down_ms}`, each a float in milliseconds: the
/// `phase_ms` of an `EXPLAIN` trace and of a slow-query log line.
impl Serialize for PhaseProfile {
    fn to_value(&self) -> Value {
        let ms = |d: Duration| Value::F64(d.as_secs_f64() * 1e3);
        Value::Object(vec![
            ("init_ms".to_owned(), ms(self.init)),
            ("enqueue_ms".to_owned(), ms(self.enqueue)),
            ("identify_ms".to_owned(), ms(self.identify)),
            ("expansion_ms".to_owned(), ms(self.expansion)),
            ("top_down_ms".to_owned(), ms(self.top_down)),
        ])
    }
}

impl AddAssign for PhaseProfile {
    fn add_assign(&mut self, rhs: Self) {
        self.init += rhs.init;
        self.enqueue += rhs.enqueue;
        self.identify += rhs.identify;
        self.expansion += rhs.expansion;
        self.top_down += rhs.top_down;
    }
}

/// Averages a collection of profiles (the harness averages 50 queries per
/// datapoint, as the paper does).
pub fn mean_profile(profiles: &[PhaseProfile]) -> PhaseProfile {
    if profiles.is_empty() {
        return PhaseProfile::default();
    }
    let mut sum = PhaseProfile::default();
    for p in profiles {
        sum += *p;
    }
    let n = profiles.len() as u32;
    PhaseProfile {
        init: sum.init / n,
        enqueue: sum.enqueue / n,
        identify: sum.identify / n,
        expansion: sum.expansion / n,
        top_down: sum.top_down / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(ms: u64) -> PhaseProfile {
        PhaseProfile {
            init: Duration::from_millis(ms),
            enqueue: Duration::from_millis(ms),
            identify: Duration::from_millis(ms),
            expansion: Duration::from_millis(ms),
            top_down: Duration::from_millis(ms),
        }
    }

    #[test]
    fn total_sums_all_phases() {
        assert_eq!(p(2).total(), Duration::from_millis(10));
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = p(1);
        a += p(2);
        assert_eq!(a.total(), Duration::from_millis(15));
    }

    #[test]
    fn mean_is_elementwise() {
        let m = mean_profile(&[p(2), p(4)]);
        assert_eq!(m.init, Duration::from_millis(3));
        assert_eq!(m.total(), Duration::from_millis(15));
        assert_eq!(mean_profile(&[]), PhaseProfile::default());
    }

    #[test]
    fn phase_names_are_stable() {
        let serde::Value::Object(entries) = p(1).to_value() else {
            panic!("not an object")
        };
        let names: Vec<_> = entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["init_ms", "enqueue_ms", "identify_ms", "expansion_ms", "top_down_ms"]);
        assert!(entries.iter().all(|(_, ms)| *ms == serde::Value::F64(1.0)));
    }
}
