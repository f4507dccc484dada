//! Per-shard circuit breaker: the three-state (closed / open / half-open)
//! machine that keeps the coordinator from hammering a dead worker.
//!
//! ```text
//!          consecutive confirmed failures ≥ threshold
//!   CLOSED ────────────────────────────────────────────▶ OPEN
//!     ▲                                                    │
//!     │ trial query succeeds              cooldown elapses │
//!     │                                                    ▼
//!     └───────────────────────────────────────────── HALF-OPEN
//!                   trial query fails ──▶ back to OPEN (fresh cooldown)
//! ```
//!
//! Only *confirmed* worker failures move the machine: when a query RPC
//! fails, the coordinator first probes the worker out-of-band, and a
//! surviving probe attributes the failure to the query (e.g. an injected
//! fault token) rather than the shard — so a misbehaving query can never
//! open the breaker and shed its well-behaved neighbours. While OPEN, the
//! coordinator fast-fails (or degrades) without dialing; once the
//! cooldown elapses the next query's admission check flips to HALF-OPEN,
//! and that query is the trial: it re-closes the breaker by succeeding,
//! or re-opens it for another cooldown when its failed RPC's probe fails
//! too. Nothing moves the machine between queries.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observable breaker state, for STATS / Prometheus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, failures are counted.
    Closed,
    /// Shedding: the shard is presumed dead until the cooldown elapses.
    Open,
    /// Probation: the trial query decides re-close vs. re-open.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (STATS `remote.breaker` entries).
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric gauge encoding (0 closed, 1 half-open, 2 open).
    pub fn gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

enum Inner {
    Closed { fails: u32 },
    Open { since: Instant },
    HalfOpen,
}

/// One shard's breaker. All methods are cheap and lock one uncontended
/// mutex; the coordinator holds one breaker per shard for the lifetime of
/// the search handle.
pub struct CircuitBreaker {
    inner: Mutex<Inner>,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker { inner: Mutex::new(Inner::Closed { fails: 0 }) }
    }
}

impl CircuitBreaker {
    /// A fresh, closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admission check. `true` means the query may proceed; an OPEN
    /// breaker whose cooldown has elapsed flips to HALF-OPEN and admits
    /// the caller as its trial.
    pub fn allow(&self, cooldown: Duration) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match *inner {
            Inner::Closed { .. } | Inner::HalfOpen => true,
            Inner::Open { since } => {
                if since.elapsed() >= cooldown {
                    *inner = Inner::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful interaction with the worker: HALF-OPEN
    /// re-closes, CLOSED resets its failure streak.
    pub fn record_success(&self) {
        *self.inner.lock().unwrap() = Inner::Closed { fails: 0 };
    }

    /// Record a *confirmed* worker failure (a failed probe, not a failed
    /// query). CLOSED counts toward `threshold`; HALF-OPEN re-opens with
    /// a fresh cooldown.
    pub fn record_failure(&self, threshold: u32) {
        let mut inner = self.inner.lock().unwrap();
        *inner = match *inner {
            Inner::Closed { fails } if fails + 1 < threshold => Inner::Closed { fails: fails + 1 },
            _ => Inner::Open { since: Instant::now() },
        };
    }

    /// Current state, for monitoring.
    pub fn state(&self) -> BreakerState {
        match *self.inner.lock().unwrap() {
            Inner::Closed { .. } => BreakerState::Closed,
            Inner::Open { .. } => BreakerState::Open,
            Inner::HalfOpen => BreakerState::HalfOpen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_below_threshold_stay_closed() {
        let b = CircuitBreaker::new();
        b.record_failure(3);
        b.record_failure(3);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(Duration::from_secs(1)));
        b.record_failure(3);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(Duration::from_secs(60)), "open breaker sheds before cooldown");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new();
        b.record_failure(2);
        b.record_success();
        b.record_failure(2);
        assert_eq!(b.state(), BreakerState::Closed, "streak was reset");
    }

    #[test]
    fn cooldown_admits_one_probation_probe() {
        let b = CircuitBreaker::new();
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(Duration::ZERO), "elapsed cooldown flips to half-open");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe failure re-opens with a fresh cooldown …
        b.record_failure(1);
        assert_eq!(b.state(), BreakerState::Open);
        // … probe success after the next cooldown re-closes.
        assert!(b.allow(Duration::ZERO));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(BreakerState::Closed.name(), "closed");
        assert_eq!(BreakerState::Open.name(), "open");
        assert_eq!(BreakerState::HalfOpen.name(), "half_open");
        assert_eq!(BreakerState::Closed.gauge(), 0.0);
        assert_eq!(BreakerState::Open.gauge(), 2.0);
    }
}
