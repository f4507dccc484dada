//! Fleet-wide query identity and the in-flight gauge, shared by the
//! engine facade and the serving layer:
//!
//! * [`QueryIdGen`] — the fleet-wide query-ID allocator. Every query gets
//!   a `u64` ID at accept; the ID rides the result, the trace, the slow
//!   log, every wire response (`"qid"`), and — Hello-gated — the remote
//!   frame protocol, so one slow query can be joined across the
//!   coordinator and its shard workers.
//! * [`InFlight`] — the number of searches executing right now, held up
//!   by an RAII guard so a panicking search never leaks a count.
//!
//! Both are one relaxed atomic each. `STATS` and `METRICS` report them
//! beside the metric registry; how either moves over time is the
//! difference of two scrapes.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
