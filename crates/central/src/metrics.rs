//! Lock-free serving metrics: relaxed-atomic counters and fixed-bucket
//! log-scale histograms, aggregated in a [`MetricsRegistry`].
//!
//! The paper's entire evaluation is built on per-phase breakdowns of
//! Algorithm 1; a *service* built on the same algorithm needs the
//! aggregate view — how many queries ran, how fast at the tail, how much
//! expansion work they did — without adding measurable cost to the hot
//! path. Everything here is therefore:
//!
//! * **lock-free** — recording is a handful of relaxed `fetch_add`s; no
//!   mutex, no allocation, safe to call from any worker thread;
//! * **fixed-footprint** — a [`LogHistogram`] is 64 power-of-two buckets
//!   (`bucket i` holds values in `[2^(i-1), 2^i)`, bucket 0 holds `0`),
//!   so one histogram is a flat 66-word array regardless of how many
//!   observations it absorbs;
//! * **snapshot-able** — [`HistogramSnapshot`] is plain
//!   serde-serializable data, the thing percentiles are computed from.
//!
//! Percentiles come out of the snapshot by cumulative scan; a reported
//! percentile is the *upper bound* of the bucket holding that rank, which
//! makes the estimate conservative (never under-reports a latency) and
//! monotone in `p`. With power-of-two buckets the relative error is at
//! most 2×, which is the right resolution for p50/p95/p99 dashboards.
//!
//! The registry is fed by the engine facade (`wikisearch-engine`): one
//! latency and one expansion observation per query, plus cache-hit/miss
//! and budget-trip counters. The serving layer renders the snapshot as
//! JSON (`STATS`) or Prometheus text exposition format (`METRICS`) via
//! [`prometheus_counter`] / [`prometheus_histogram`].
//!
//! The registry keeps no history. Counters and cumulative buckets only
//! grow, so a rate or a last-N-seconds percentile is the difference of
//! two `METRICS` scrapes, and the scraper computes it.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets. Bucket 0 holds the value `0`; bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i)`; the last bucket absorbs
/// everything beyond `2^(BUCKETS-2)`.
pub const BUCKETS: usize = 64;

/// The bucket index holding `v`: 0 for 0, otherwise `64 - v.leading_zeros()`
/// clamped to the last bucket.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`2^i - 1`); the last bucket is
/// unbounded and reports `u64::MAX`.
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A relaxed-atomic monotone counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A concurrent fixed-bucket log-scale histogram of `u64` observations.
///
/// Recording is three relaxed `fetch_add`s (bucket, count, sum) — callers
/// on the serving path never contend on a lock. Reads go through
/// [`LogHistogram::snapshot`], which is consistent *enough* for
/// monitoring (each word is read atomically; the set is not a
/// transaction).
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-data copy of the current counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data image of a [`LogHistogram`]: serde-serializable, and the
/// thing percentiles are computed from.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `p ∈ [0, 1]`, reported as the upper bound of
    /// the bucket containing that rank (a conservative estimate: the true
    /// value is at most the reported one, and at least half of it).
    /// Returns 0 for an empty histogram. Monotone in `p`.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Mean of the observed values (exact — the sum is tracked, not
    /// bucketed). 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// How the serving layer names one engine counter: its field name (also
/// its key in the `STATS` `engine` block), its Prometheus family and its
/// `# HELP` text.
pub struct CounterDesc {
    /// Field name in [`MetricsRegistry`] / [`MetricsSnapshot`].
    pub name: &'static str,
    /// Prometheus family name.
    pub family: &'static str,
    /// Prometheus help text.
    pub help: &'static str,
}

/// Declares the engine's counters once. The registry, its snapshot,
/// [`MetricsSnapshot::counters`] and [`ENGINE_COUNTERS`] — from which the
/// server renders `STATS` and `METRICS` — all derive from this one list,
/// so a new counter is one line here plus the `inc()` that feeds it.
macro_rules! engine_counters {
    ($($name:ident, $family:literal, $help:literal;)*) => {
        /// The service-wide metrics registry: every counter and histogram
        /// the serving path feeds, behind relaxed atomics. One registry
        /// lives inside each `WikiSearch` engine; the `STATS` and
        /// `METRICS` protocol verbs are rendered from its
        /// [`MetricsRegistry::snapshot`].
        #[derive(Default)]
        pub struct MetricsRegistry {
            $(#[doc = $help] pub $name: Counter,)*
            /// End-to-end query latency in microseconds (successful queries).
            pub latency_us: LogHistogram,
            /// Expansion units per computed search (Algorithm 2 work items).
            pub expansions: LogHistogram,
        }

        /// Serde-serializable image of a [`MetricsRegistry`].
        #[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
        pub struct MetricsSnapshot {
            $(#[doc = $help] pub $name: u64,)*
            /// End-to-end query latency in microseconds.
            pub latency_us: HistogramSnapshot,
            /// Expansion units per computed search.
            pub expansions: HistogramSnapshot,
        }

        /// The engine counters in declaration order — the order of
        /// [`MetricsSnapshot::counters`].
        pub const ENGINE_COUNTERS: &[CounterDesc] =
            &[$(CounterDesc { name: stringify!($name), family: $family, help: $help }),*];

        impl MetricsRegistry {
            /// A plain-data image of every counter and histogram.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($name: self.$name.get(),)*
                    latency_us: self.latency_us.snapshot(),
                    expansions: self.expansions.snapshot(),
                }
            }
        }

        impl MetricsSnapshot {
            /// The counter values, in [`ENGINE_COUNTERS`] order.
            pub fn counters(&self) -> [u64; ENGINE_COUNTERS.len()] {
                [$(self.$name),*]
            }
        }
    };
}

engine_counters! {
    queries, "ws_queries_total", "Queries answered by the engine.";
    cache_hits, "ws_cache_hits_total", "Queries answered from the result cache.";
    cache_misses, "ws_cache_misses_total", "Queries that missed the result cache and ran a search.";
    deadline_exceeded, "ws_deadline_exceeded_total", "Queries aborted by their wall-clock deadline.";
    budget_exhausted, "ws_budget_exhausted_total", "Queries aborted by their expansion cap.";
    shard_unavailable, "ws_shard_unavailable_total",
        "Queries refused because a remote shard was unreachable.";
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Append one Prometheus counter series (`# HELP` / `# TYPE` / sample).
/// Metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn prometheus_counter(out: &mut String, name: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    let _ = writeln!(out, "{name} {value}");
}

/// Append one Prometheus gauge series.
pub fn prometheus_gauge(out: &mut String, name: &str, help: &str, value: f64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    let _ = writeln!(out, "{name} {value}");
}

/// Append one Prometheus gauge family with one labelled sample per entry.
/// Each entry is a `(label-body, value)` pair; the label body goes inside
/// the braces verbatim (e.g. `shard="0"`), so callers are responsible for
/// escaping label values.
pub fn prometheus_labeled_gauge(
    out: &mut String,
    name: &str,
    help: &str,
    samples: &[(String, f64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for (labels, value) in samples {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// Append one Prometheus histogram series in text exposition format:
/// cumulative `_bucket{le="…"}` samples (only buckets that received
/// observations, plus the mandatory `le="+Inf"`), `_sum`, and `_count`.
/// Observed values are multiplied by `scale` (e.g. `1e-6` to expose
/// microsecond observations in seconds, the Prometheus base unit).
pub fn prometheus_histogram(
    out: &mut String,
    name: &str,
    help: &str,
    h: &HistogramSnapshot,
    scale: f64,
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 || i >= BUCKETS - 1 {
            continue; // the unbounded last bucket folds into +Inf
        }
        cumulative += c;
        let le = bucket_upper_bound(i) as f64 * scale;
        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{name}_sum {}", h.sum as f64 * scale);
    let _ = writeln!(out, "{name}_count {}", h.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 5, 100, 1023, 1024, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} above its bucket");
            if i > 0 && i < BUCKETS - 1 {
                assert!(v > bucket_upper_bound(i - 1), "{v} below its bucket");
            }
        }
    }

    #[test]
    fn percentiles_come_from_bucket_upper_bounds() {
        let h = LogHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        // p50 rank is 50 → bucket [32,64) → upper bound 63.
        assert_eq!(s.percentile(0.5), 63);
        // p99 rank is 99 → bucket [64,128) → upper bound 127.
        assert_eq!(s.percentile(0.99), 127);
        assert_eq!(s.percentile(0.0), 1, "rank clamps to the first observation");
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.percentile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let h = LogHistogram::new();
        for v in [0u64, 3, 17, 17, 400, 90_000, 90_000, 1 << 33] {
            h.record(v);
        }
        let s = h.snapshot();
        let mut last = 0;
        for p in 0..=100 {
            let v = s.percentile(p as f64 / 100.0);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn registry_snapshot_round_trips_through_serde() {
        let r = MetricsRegistry::new();
        r.queries.add(3);
        r.cache_hits.inc();
        r.latency_us.record(1500);
        r.expansions.record(64);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.queries, 3);
        assert_eq!(back.latency_us.count, 1);
    }

    #[test]
    fn counter_list_drives_fields_words_and_deltas() {
        let r = MetricsRegistry::new();
        r.queries.add(7);
        r.shard_unavailable.inc();
        let newer = r.snapshot();
        // The descriptors name the snapshot's fields, in field order.
        let doc = serde_json::to_value(&newer);
        let fields: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = ENGINE_COUNTERS.iter().map(|c| c.name).collect();
        assert_eq!(fields[..names.len()], names[..]);
        assert_eq!(newer.counters(), [7, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let h = LogHistogram::new();
        h.record(1500);
        h.record(3000);
        let mut out = String::new();
        prometheus_counter(&mut out, "ws_queries_total", "Queries served.", 2);
        prometheus_histogram(&mut out, "ws_latency_seconds", "Query latency.", &h.snapshot(), 1e-6);
        assert!(out.contains("# TYPE ws_queries_total counter"));
        assert!(out.contains("ws_queries_total 2"));
        assert!(out.contains("# TYPE ws_latency_seconds histogram"));
        assert!(out.contains("ws_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("ws_latency_seconds_count 2"));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "{line}");
            last = v;
        }
    }

    #[test]
    fn concurrent_records_match_a_sequential_oracle() {
        let h = LogHistogram::new();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let h = &h;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let oracle = LogHistogram::new();
        for t in 0..8u64 {
            for i in 0..1000 {
                oracle.record(t * 1000 + i);
            }
        }
        assert_eq!(h.snapshot(), oracle.snapshot());
    }
}
