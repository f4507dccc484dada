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
//! * [`SampleRing`] — a lock-free single-writer/multi-reader ring of
//!   fixed-width `u64` records, built purely from `AtomicU64` seqlock
//!   slots (no `unsafe`, no locks). The background sampler publishes one
//!   [`TelemetrySample`] per tick; readers ([`Telemetry::window`]) never
//!   block the writer and detect torn slots by sequence check.
//! * [`WindowDelta`] — the difference between two samples: windowed
//!   rates (qps, hit rate) and windowed latency/expansion percentiles
//!   computed by *bucket-wise histogram subtraction*, so `STATS WINDOW`
//!   reports the last-N-seconds tail, not the since-boot tail.
//!
//! Everything here is off the query hot path: recording a sample is the
//! sampler thread's job, recording a finished query is two relaxed
//! seqlock writes, and when the sampler is disabled the rings are never
//! written at all. A differential proptest pins that telemetry on vs off
//! leaves answers, score bits, stats and error classes byte-identical.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, BUCKETS, ENGINE_COUNTERS};
use std::sync::atomic::{fence, AtomicU64, Ordering};

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

/// One seqlock slot: an even sequence number means the words are
/// consistent; an odd one means a write is in progress. Readers retry on
/// odd or changed sequences. All fields are atomics, so torn reads are a
/// *logical* hazard handled by the sequence check, never a data race.
struct Slot {
    seq: AtomicU64,
    words: Vec<AtomicU64>,
}

/// A lock-free ring of fixed-width `u64` records with one writer (the
/// sampler thread) and any number of readers. Capacity and width are
/// fixed at construction; publishing overwrites the oldest slot.
pub struct SampleRing {
    width: usize,
    slots: Vec<Slot>,
    /// Total records ever published (the next record's global index).
    head: AtomicU64,
}

impl SampleRing {
    /// A ring of `capacity` records of `width` words each.
    pub fn new(capacity: usize, width: usize) -> Self {
        let capacity = capacity.max(2);
        SampleRing {
            width,
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: (0..width).map(|_| AtomicU64::new(0)).collect(),
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Record capacity (slots).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever published (wraparound does not reset this).
    pub fn published(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Publish one record, overwriting the oldest slot. Single-writer:
    /// concurrent `publish` calls must be externally serialized (the
    /// sampler thread is the only writer in the serving layer).
    ///
    /// The slot's sequence number encodes which *lap* of the ring wrote
    /// it (`2·lap + 1` while the write is in progress, `2·lap + 2` once
    /// consistent), so a reader can verify not just that a record is
    /// untorn but that the slot holds exactly the record it asked for —
    /// even if it races the writer's `head` publication.
    pub fn publish(&self, words: &[u64]) {
        assert_eq!(words.len(), self.width, "record width mismatch");
        let head = self.head.load(Ordering::Relaxed);
        let n = self.slots.len() as u64;
        let slot = &self.slots[(head % n) as usize];
        let lap = head / n;
        slot.seq.store(2 * lap + 1, Ordering::Release); // odd: in progress
        for (w, &v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        slot.seq.store(2 * lap + 2, Ordering::Release); // even: consistent
        self.head.store(head + 1, Ordering::Release);
    }

    /// Read the record at global index `i`, or `None` if it was never
    /// published, has been overwritten, or the writer was mid-overwrite.
    pub fn read(&self, i: u64) -> Option<Vec<u64>> {
        let head = self.head.load(Ordering::Acquire);
        let n = self.slots.len() as u64;
        if i >= head {
            return None;
        }
        let slot = &self.slots[(i % n) as usize];
        let expect = 2 * (i / n) + 2; // this record's consistent sequence
        let s1 = slot.seq.load(Ordering::Acquire);
        if s1 != expect {
            return None; // overwritten (or being overwritten) by a later lap
        }
        let out: Vec<u64> = slot.words.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Acquire) != expect {
            return None; // the writer lapped us mid-read
        }
        Some(out)
    }

    /// The newest up-to-`k` records, newest first, skipping any slot the
    /// writer overwrote mid-read. Each entry is `(global index, words)`.
    pub fn recent(&self, k: usize) -> Vec<(u64, Vec<u64>)> {
        let head = self.head.load(Ordering::Acquire);
        let mut out = Vec::new();
        let lo = head.saturating_sub((k.min(self.slots.len())) as u64);
        for i in (lo..head).rev() {
            if let Some(words) = self.read(i) {
                out.push((i, words));
            }
        }
        out
    }
}

/// Words per [`TelemetrySample`] record: timestamp + served + the
/// engine counters + two (buckets, count, sum) histogram images.
pub const SAMPLE_WIDTH: usize = HISTOGRAMS_AT + 2 * HISTOGRAM_WIDTH;

/// Word offset of the first histogram image in a sample record.
const HISTOGRAMS_AT: usize = 2 + ENGINE_COUNTERS.len();

/// Words per histogram image in a sample record.
const HISTOGRAM_WIDTH: usize = BUCKETS + 2;

/// One periodic metrics observation: a monotonic timestamp, the
/// server-side `served` counter, and the engine's full
/// [`MetricsSnapshot`], flattened to [`SAMPLE_WIDTH`] words for the ring.
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

impl TelemetrySample {
    /// Flatten to the ring's fixed-width word layout.
    pub fn to_words(&self) -> Vec<u64> {
        let mut w = Vec::with_capacity(SAMPLE_WIDTH);
        w.push(self.t_us);
        w.push(self.served);
        let s = &self.snapshot;
        w.extend_from_slice(&s.counters());
        for h in [&s.latency_us, &s.expansions] {
            let mut buckets = h.buckets.clone();
            buckets.resize(BUCKETS, 0);
            w.extend_from_slice(&buckets);
            w.push(h.count);
            w.push(h.sum);
        }
        debug_assert_eq!(w.len(), SAMPLE_WIDTH);
        w
    }

    /// Rebuild from the ring's word layout (`None` on width mismatch).
    pub fn from_words(words: &[u64]) -> Option<Self> {
        if words.len() != SAMPLE_WIDTH {
            return None;
        }
        let histogram = |w: &[u64]| HistogramSnapshot {
            buckets: w[..BUCKETS].to_vec(),
            count: w[BUCKETS],
            sum: w[BUCKETS + 1],
        };
        let (head, histograms) = words.split_at(HISTOGRAMS_AT);
        let (latency_us, expansions) = histograms.split_at(HISTOGRAM_WIDTH);
        Some(TelemetrySample {
            t_us: head[0],
            served: head[1],
            snapshot: MetricsSnapshot::from_parts(
                &head[2..],
                histogram(latency_us),
                histogram(expansions),
            ),
        })
    }
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

/// Width of one recent-query record: `(qid, wall_us)`.
const RECENT_WIDTH: usize = 2;

/// The serving layer's telemetry hub: the sample ring fed by the
/// background sampler, the recent-query ring fed per answered query, the
/// in-flight gauge, and the query-ID allocator's shadow for `TOP`.
pub struct Telemetry {
    /// Sampler period in milliseconds (0 = sampler disabled; the rings
    /// still exist so `TOP` can report recent queries and in-flight).
    pub interval_ms: u64,
    ring: SampleRing,
    recent: SampleRing,
    in_flight: InFlight,
}

impl Telemetry {
    /// A telemetry hub whose sample ring holds `capacity` periodic
    /// samples and whose recent-query ring remembers the last
    /// `recent_capacity` answered queries.
    pub fn new(interval_ms: u64, capacity: usize, recent_capacity: usize) -> Self {
        Telemetry {
            interval_ms,
            ring: SampleRing::new(capacity, SAMPLE_WIDTH),
            recent: SampleRing::new(recent_capacity, RECENT_WIDTH),
            in_flight: InFlight::new(),
        }
    }

    /// The sample ring's capacity (slots).
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Periodic samples published so far.
    pub fn samples(&self) -> u64 {
        self.ring.published()
    }

    /// The in-flight gauge (enter per query, drop to leave).
    pub fn in_flight(&self) -> &InFlight {
        &self.in_flight
    }

    /// Publish one periodic sample (the sampler thread is the only
    /// caller — [`SampleRing::publish`] is single-writer).
    pub fn record_sample(&self, sample: &TelemetrySample) {
        self.ring.publish(&sample.to_words());
    }

    /// Note one answered query for `TOP`'s "slowest recent" view.
    /// Serialized by the caller's response path per connection; concurrent
    /// writers could interleave slots, so the serving layer funnels this
    /// through the single statistics path per query completion. Losing a
    /// record under a torn race costs a diagnostic, never an answer.
    pub fn note_query(&self, qid: u64, wall_us: u64) {
        self.recent.publish(&[qid, wall_us]);
    }

    /// The slowest of the recently answered queries, as `(qid, wall_us)`.
    pub fn slowest_recent(&self) -> Option<(u64, u64)> {
        self.recent
            .recent(self.recent.capacity())
            .into_iter()
            .map(|(_, w)| (w[0], w[1]))
            .max_by_key(|&(_, wall)| wall)
    }

    /// The windowed delta covering (up to) the last `window_us`
    /// microseconds: newest live sample minus the newest sample at least
    /// `window_us` older (clamped to the oldest live sample when the ring
    /// does not reach back that far). `None` until two samples exist.
    pub fn window(&self, window_us: u64) -> Option<WindowDelta> {
        let live = self.ring.recent(self.ring.capacity());
        let newest = live.first().and_then(|(_, w)| TelemetrySample::from_words(w))?;
        let cutoff = newest.t_us.saturating_sub(window_us);
        let mut base: Option<TelemetrySample> = None;
        // `live` is newest-first; walk back until a sample is old enough.
        for (_, words) in live.iter().skip(1) {
            let Some(s) = TelemetrySample::from_words(words) else {
                continue;
            };
            let old_enough = s.t_us <= cutoff;
            base = Some(s);
            if old_enough {
                break;
            }
        }
        let base = base?;
        Some(WindowDelta {
            span_us: newest.t_us.saturating_sub(base.t_us),
            samples: live.len(),
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
    fn sample_round_trips_through_the_word_layout() {
        let s = sample(1_000_000, 42, &[15, 1500, 90_000]);
        let words = s.to_words();
        assert_eq!(words.len(), SAMPLE_WIDTH);
        assert_eq!(TelemetrySample::from_words(&words), Some(s));
        assert_eq!(TelemetrySample::from_words(&words[1..]), None);
    }

    #[test]
    fn ring_wraparound_keeps_only_the_newest_records() {
        // The sampler outlives the window: a 4-slot ring absorbing 10
        // publishes serves exactly the last 4, and older indices read
        // back as gone, not as stale data.
        let ring = SampleRing::new(4, 3);
        for i in 0..10u64 {
            ring.publish(&[i, i * 10, i * 100]);
        }
        assert_eq!(ring.published(), 10);
        let live = ring.recent(10);
        assert_eq!(live.len(), 4);
        assert_eq!(live[0], (9, vec![9, 90, 900]), "newest first");
        assert_eq!(live[3], (6, vec![6, 60, 600]));
        assert_eq!(ring.read(5), None, "overwritten records are unreadable");
        assert_eq!(ring.read(11), None, "future records are unreadable");
    }

    #[test]
    fn ring_readers_never_observe_torn_records() {
        // One writer races many readers; every successful read must be
        // one of the published records, never a mix of two.
        let ring = std::sync::Arc::new(SampleRing::new(4, 2));
        let writer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                for i in 1..=50_000u64 {
                    ring.publish(&[i, !i]);
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for _ in 0..20_000 {
                        for (_, w) in ring.recent(4) {
                            assert_eq!(w[1], !w[0], "torn record escaped the seqlock");
                        }
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }

    #[test]
    fn window_delta_subtracts_histograms_bucketwise() {
        // One live registry sampled at three points in time: samples are
        // cumulative images, the window delta recovers the per-window
        // observations.
        let reg = crate::metrics::MetricsRegistry::new();
        let t = Telemetry::new(100, 8, 8);
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
        let t = Telemetry::new(100, 4, 4);
        assert!(t.window(1_000_000).is_none(), "empty ring");
        t.record_sample(&sample(0, 0, &[]));
        assert!(t.window(1_000_000).is_none(), "one sample is no window");
        t.record_sample(&sample(500_000, 5, &[10; 5]));
        let w = t.window(60_000_000).expect("clamps to the oldest sample");
        assert_eq!(w.delta.queries, 5);
        assert_eq!(w.span_us, 500_000);
    }

    #[test]
    fn slowest_recent_query_wins_by_wall_time() {
        let t = Telemetry::new(100, 4, 4);
        assert_eq!(t.slowest_recent(), None);
        t.note_query(1, 500);
        t.note_query(2, 90_000);
        t.note_query(3, 1_200);
        assert_eq!(t.slowest_recent(), Some((2, 90_000)));
        // Wraparound: once qid 2 is overwritten it stops being reported.
        for qid in 4..=7 {
            t.note_query(qid, 10 + qid);
        }
        assert_eq!(t.slowest_recent(), Some((7, 17)));
    }
}
