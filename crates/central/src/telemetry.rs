//! Fleet-wide query identity and windowed time-series telemetry.
//!
//! Three building blocks, shared by the engine facade and the serving
//! layer:
//!
//! * [`QueryIdGen`] — the fleet-wide query-ID allocator. Every query gets
//!   a `u64` ID at accept; the ID rides the result, the trace, the slow
//!   log, every wire response (`"qid"`), and — Hello-gated — the remote
//!   frame protocol, so one slow query can be joined across the
//!   coordinator and its shard workers.
//! * [`Telemetry`] — two bounded, typed deques, each behind a mutex:
//!   the periodic [`TelemetrySample`]s the background sampler records
//!   (one writer, 1 Hz by default; read by `STATS WINDOW` / `TOP`) and
//!   the `(qid, wall_us)` of the last answered queries (one push per
//!   query; read by `STATS` / `TOP`). At those rates a lock is never
//!   contended, and a reader can neither tear nor miss a record.
//! * [`WindowDelta`] — the difference between two samples: windowed
//!   rates (qps, hit rate) and windowed latency/expansion percentiles
//!   computed by *bucket-wise histogram subtraction*, so `STATS WINDOW`
//!   reports the last-N-seconds tail, not the since-boot tail.
//!
//! Everything here is off the query hot path: recording a sample is the
//! sampler thread's job, recording a finished query is one push under an
//! uncontended lock, and when the sampler is disabled no sample is ever
//! recorded. A differential proptest pins that telemetry on vs off
//! leaves answers, score bits, stats and error classes byte-identical.

use crate::metrics::MetricsSnapshot;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocates fleet-wide query IDs. IDs start at 1 so `0` can mean
/// "no query" in logs and wire documents that predate the ID.
#[derive(Default)]
pub struct QueryIdGen(AtomicU64);

impl QueryIdGen {
    /// A generator whose first ID is 1.
    pub const fn new() -> Self {
        QueryIdGen(AtomicU64::new(0))
    }

    /// Allocate the next query ID (1, 2, 3, …).
    #[inline]
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The last ID handed out (0 before the first query).
    pub fn last(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A live gauge of queries currently executing, updated by RAII guard so
/// panicking queries can never leak an in-flight count.
#[derive(Default)]
pub struct InFlight(AtomicU64);

impl InFlight {
    /// A gauge at zero.
    pub const fn new() -> Self {
        InFlight(AtomicU64::new(0))
    }

    /// Enter: increments the gauge until the guard drops.
    pub fn enter(&self) -> FlightGuard<'_> {
        self.0.fetch_add(1, Ordering::Relaxed);
        FlightGuard(self)
    }

    /// Queries currently in flight.
    pub fn current(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Decrements its [`InFlight`] gauge on drop (including unwinds).
pub struct FlightGuard<'a>(&'a InFlight);

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.0 .0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One periodic metrics observation: a monotonic timestamp, the
/// server-side `served` counter, and the engine's full
/// [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySample {
    /// Monotonic microseconds since the sampler started (never a wall
    /// clock — samples are only ever compared on the host that took them).
    pub t_us: u64,
    /// Server-side successful responses at sample time.
    pub served: u64,
    /// The engine's counters and histograms at sample time.
    pub snapshot: MetricsSnapshot,
}

/// The change between two [`TelemetrySample`]s: windowed counters and
/// windowed histograms, from which `STATS WINDOW` derives rates and
/// last-N-seconds percentiles.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowDelta {
    /// Time between the two samples, in monotonic microseconds.
    pub span_us: u64,
    /// Live samples the window had available (diagnostic).
    pub samples: usize,
    /// Server-side successful responses inside the window.
    pub served: u64,
    /// Engine counters and histogram observations inside the window
    /// ([`MetricsSnapshot::delta`] of the two samples).
    pub delta: MetricsSnapshot,
}

impl WindowDelta {
    /// Queries per second over the window (0 for an empty window).
    pub fn qps(&self) -> f64 {
        if self.span_us == 0 {
            0.0
        } else {
            self.delta.queries as f64 / (self.span_us as f64 / 1e6)
        }
    }

    /// Cache hit rate over the window (0 when the window saw no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.delta.cache_hits + self.delta.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.delta.cache_hits as f64 / lookups as f64
        }
    }
}

/// Answered queries `TOP`'s "slowest recent" view remembers.
const RECENT_QUERIES: usize = 64;

/// The periodic samples still held, oldest first, and how many were
/// ever recorded.
#[derive(Default)]
struct Samples {
    live: VecDeque<TelemetrySample>,
    published: u64,
}

/// The serving layer's telemetry hub: the periodic samples fed by the
/// background sampler, the recent queries fed per answered query, and
/// the in-flight gauge.
pub struct Telemetry {
    /// Sampler period in milliseconds (0 = sampler disabled; `TOP` still
    /// reports recent queries and in-flight).
    pub interval_ms: u64,
    capacity: usize,
    samples: Mutex<Samples>,
    /// `(qid, wall_us)` of the last [`RECENT_QUERIES`] answered queries.
    recent: Mutex<VecDeque<(u64, u64)>>,
    in_flight: InFlight,
}

impl Telemetry {
    /// A telemetry hub that keeps the newest `capacity` periodic samples
    /// (at least two — a window is a difference).
    pub fn new(interval_ms: u64, capacity: usize) -> Self {
        Telemetry {
            interval_ms,
            capacity: capacity.max(2),
            samples: Mutex::default(),
            recent: Mutex::default(),
            in_flight: InFlight::new(),
        }
    }

    /// Periodic samples kept at most.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Periodic samples recorded so far (dropping old ones does not
    /// reset this).
    pub fn samples(&self) -> u64 {
        self.samples.lock().published
    }

    /// The in-flight gauge (enter per query, drop to leave).
    pub fn in_flight(&self) -> &InFlight {
        &self.in_flight
    }

    /// Record one periodic sample, dropping the oldest beyond capacity.
    pub fn record_sample(&self, sample: &TelemetrySample) {
        let mut samples = self.samples.lock();
        if samples.live.len() == self.capacity {
            samples.live.pop_front();
        }
        samples.live.push_back(sample.clone());
        samples.published += 1;
    }

    /// Note one answered query for `TOP`'s "slowest recent" view.
    pub fn note_query(&self, qid: u64, wall_us: u64) {
        let mut recent = self.recent.lock();
        if recent.len() == RECENT_QUERIES {
            recent.pop_front();
        }
        recent.push_back((qid, wall_us));
    }

    /// The slowest of the recently answered queries, as `(qid, wall_us)`
    /// (the oldest of them on a tie).
    pub fn slowest_recent(&self) -> Option<(u64, u64)> {
        self.recent.lock().iter().rev().copied().max_by_key(|&(_, wall)| wall)
    }

    /// The windowed delta covering (up to) the last `window_us`
    /// microseconds: newest sample minus the newest sample at least
    /// `window_us` older (the oldest one held when none reaches back
    /// that far). `None` until two samples exist.
    pub fn window(&self, window_us: u64) -> Option<WindowDelta> {
        let samples = self.samples.lock();
        let mut older = samples.live.iter().rev();
        let newest = older.next()?;
        let oldest = samples.live.front().filter(|_| samples.live.len() > 1)?;
        let cutoff = newest.t_us.saturating_sub(window_us);
        let base = older.find(|s| s.t_us <= cutoff).unwrap_or(oldest);
        Some(WindowDelta {
            span_us: newest.t_us.saturating_sub(base.t_us),
            samples: samples.live.len(),
            served: newest.served.saturating_sub(base.served),
            delta: newest.snapshot.delta(&base.snapshot),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t_us: u64, queries: u64, latencies: &[u64]) -> TelemetrySample {
        let reg = crate::metrics::MetricsRegistry::new();
        reg.queries.add(queries);
        for &v in latencies {
            reg.latency_us.record(v);
        }
        TelemetrySample { t_us, served: queries, snapshot: reg.snapshot() }
    }

    #[test]
    fn query_ids_are_dense_from_one() {
        let gen = QueryIdGen::new();
        assert_eq!(gen.last(), 0);
        assert_eq!(gen.next(), 1);
        assert_eq!(gen.next(), 2);
        assert_eq!(gen.last(), 2);
    }

    #[test]
    fn in_flight_guard_survives_unwind() {
        let g = InFlight::new();
        {
            let _a = g.enter();
            let _b = g.enter();
            assert_eq!(g.current(), 2);
        }
        assert_eq!(g.current(), 0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = g.enter();
            panic!("boom");
        }));
        assert!(caught.is_err());
        assert_eq!(g.current(), 0, "the guard decrements on unwind");
    }

    #[test]
    fn samples_past_capacity_keep_the_newest_in_order() {
        // The sampler outlives the window: a 4-sample hub absorbing 10
        // records holds exactly the last 4, oldest first, and the
        // published count keeps counting.
        let t = Telemetry::new(100, 4);
        for i in 0..10u64 {
            t.record_sample(&sample(i * 1_000_000, i, &[]));
        }
        assert_eq!((t.capacity(), t.samples()), (4, 10));
        let live: Vec<u64> = t.samples.lock().live.iter().map(|s| s.served).collect();
        assert_eq!(live, [6, 7, 8, 9]);
        // The window cannot reach past the oldest sample still held.
        let w = t.window(60_000_000).expect("four samples");
        assert_eq!((w.samples, w.span_us, w.served), (4, 3_000_000, 3));
    }

    #[test]
    fn concurrent_notes_never_tear_and_never_lose_the_last_write() {
        // No caller-side serialisation: every surviving pair is one that
        // was written, the deque holds exactly its bound, and a record
        // written after the join is there to be found.
        let wall = |qid: u64| qid.wrapping_mul(0x9E37_79B9).rotate_left(7) % 1_000_000;
        let t = Telemetry::new(0, 4);
        std::thread::scope(|scope| {
            for thread in 0..8u64 {
                let t = &t;
                scope.spawn(move || {
                    for i in 0..1_000 {
                        let qid = thread * 1_000 + i;
                        t.note_query(qid, wall(qid));
                    }
                });
            }
        });
        t.note_query(8_000, 2_000_000);
        let recent = t.recent.lock().clone();
        assert_eq!(recent.len(), RECENT_QUERIES);
        assert_eq!(recent.back(), Some(&(8_000, 2_000_000)));
        for &(qid, wall_us) in recent.iter().rev().skip(1) {
            assert_eq!(wall_us, wall(qid), "torn record for qid {qid}");
        }
        assert_eq!(t.slowest_recent(), Some((8_000, 2_000_000)));
    }

    #[test]
    fn window_delta_subtracts_histograms_bucketwise() {
        // One live registry sampled at three points in time: samples are
        // cumulative images, the window delta recovers the per-window
        // observations.
        let reg = crate::metrics::MetricsRegistry::new();
        let t = Telemetry::new(100, 8);
        let snap = |t_us: u64| TelemetrySample {
            t_us,
            served: reg.queries.get(),
            snapshot: reg.snapshot(),
        };
        t.record_sample(&snap(0));
        reg.queries.add(10);
        for _ in 0..10 {
            reg.latency_us.record(100);
        }
        t.record_sample(&snap(1_000_000));
        reg.queries.add(20);
        for _ in 0..20 {
            reg.latency_us.record(100_000);
        }
        t.record_sample(&snap(2_000_000));
        // A 1-second window reaches exactly one sample back: only the
        // twenty slow queries are inside it.
        let w = t.window(1_000_000).expect("two samples");
        assert_eq!(w.delta.queries, 20);
        assert_eq!(w.delta.latency_us.count, 20);
        assert!(w.delta.latency_us.percentile(0.5) >= 100_000);
        assert!((w.qps() - 20.0).abs() < 1e-9);
        // A 2-second window reaches the boot sample: all thirty queries,
        // and the ten fast ones reappear at the low quantiles.
        let w = t.window(2_000_000).expect("covers both");
        assert_eq!(w.delta.queries, 30);
        assert_eq!(w.delta.latency_us.count, 30);
        assert!(w.delta.latency_us.percentile(0.2) < 1_000);
    }

    #[test]
    fn window_needs_two_samples_and_clamps_to_the_oldest() {
        let t = Telemetry::new(100, 4);
        assert!(t.window(1_000_000).is_none(), "no sample yet");
        t.record_sample(&sample(0, 0, &[]));
        assert!(t.window(1_000_000).is_none(), "one sample is no window");
        t.record_sample(&sample(500_000, 5, &[10; 5]));
        let w = t.window(60_000_000).expect("clamps to the oldest sample");
        assert_eq!(w.delta.queries, 5);
        assert_eq!(w.span_us, 500_000);
    }

    #[test]
    fn slowest_recent_query_wins_by_wall_time() {
        let t = Telemetry::new(100, 4);
        assert_eq!(t.slowest_recent(), None);
        t.note_query(1, 500);
        t.note_query(2, 90_000);
        t.note_query(3, 1_200);
        assert_eq!(t.slowest_recent(), Some((2, 90_000)));
        // Once qid 2 falls off the far end it stops being reported.
        let last = 3 + RECENT_QUERIES as u64;
        for qid in 4..=last {
            t.note_query(qid, 10 + qid);
        }
        assert_eq!(t.slowest_recent(), Some((last, 10 + last)));
    }
}
