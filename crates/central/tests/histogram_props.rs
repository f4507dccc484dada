//! Property suite for `central::metrics::LogHistogram` — the data
//! structure every latency/expansion percentile in STATS, METRICS and
//! the bench harness is computed from.
//!
//! Checked properties:
//!
//! * every value lands in the bucket whose bounds contain it;
//! * percentiles are monotone in `p` and conservative (the reported
//!   value is at least the true rank-statistic, at most 2× above it);
//! * concurrent recording from 8 threads matches a sequential oracle
//!   exactly (the relaxed atomics lose nothing).

use central::metrics::{bucket_index, bucket_upper_bound, LogHistogram, BUCKETS};
use central::HistogramSnapshot;
use proptest::prelude::*;

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let h = LogHistogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn every_value_lands_inside_its_bucket(v in 0u64..=u64::MAX) {
        let i = bucket_index(v);
        prop_assert!(i < BUCKETS);
        prop_assert!(v <= bucket_upper_bound(i), "{v} above bucket {i}");
        if i > 0 && i < BUCKETS - 1 {
            prop_assert!(v > bucket_upper_bound(i - 1), "{v} below bucket {i}");
        }
    }

    #[test]
    fn percentile_is_monotone_in_p(
        values in proptest::collection::vec(0u64..=u64::MAX, 1..80),
        ps in proptest::collection::vec(0.0f64..1.0, 2..10),
    ) {
        let s = snapshot_of(&values);
        let mut sorted = ps.clone();
        sorted.sort_by(f64::total_cmp);
        let mut last = 0u64;
        for p in sorted {
            let v = s.percentile(p);
            prop_assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn percentile_is_a_conservative_rank_statistic(
        values in proptest::collection::vec(0u64..1_000_000, 1..80),
        p in 0.0f64..1.0,
    ) {
        let s = snapshot_of(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let rank = ((p * sorted.len() as f64).ceil() as usize).max(1).min(sorted.len());
        let exact = sorted[rank - 1];
        let reported = s.percentile(p);
        // Never under-reports, and stays within the bucket's 2× bound.
        prop_assert!(reported >= exact, "reported {reported} < exact {exact}");
        prop_assert!(
            reported <= exact.saturating_mul(2).max(1),
            "reported {reported} > 2x exact {exact}"
        );
    }

    #[test]
    fn count_sum_and_mean_are_exact(values in proptest::collection::vec(0u64..1_000_000, 0..80)) {
        let s = snapshot_of(&values);
        let sum: u64 = values.iter().sum();
        prop_assert_eq!(s.count, values.len() as u64);
        prop_assert_eq!(s.sum, sum);
        if !values.is_empty() {
            let mean = sum as f64 / values.len() as f64;
            prop_assert!((s.mean() - mean).abs() < 1e-6);
        }
    }
}

#[test]
fn concurrent_recording_from_eight_threads_matches_a_sequential_oracle() {
    // Deterministic per-thread value streams (no shared RNG): thread t
    // records a mix of tiny, mid-range and huge values.
    let per_thread = 5_000u64;
    let value = |t: u64, i: u64| match i % 3 {
        0 => t + i,
        1 => (t + 1) * (i + 1) * 1000,
        _ => 1u64 << ((t + i) % 64),
    };

    let concurrent = LogHistogram::new();
    std::thread::scope(|scope| {
        for t in 0..8u64 {
            let concurrent = &concurrent;
            scope.spawn(move || {
                for i in 0..per_thread {
                    concurrent.record(value(t, i));
                }
            });
        }
    });

    let oracle = LogHistogram::new();
    for t in 0..8u64 {
        for i in 0..per_thread {
            oracle.record(value(t, i));
        }
    }
    assert_eq!(concurrent.snapshot(), oracle.snapshot());
    assert_eq!(concurrent.count(), 8 * per_thread);
}
