//! The coordinator's supervision core: per-shard circuit breakers, the
//! retry budget and its backoff, as pure transitions. The core is handed
//! `now` and answers with the query's next step as a value — retry after
//! a wait, go on without a shard, or shed — and never reads a clock or
//! sleeps itself: [`ShardCoordinator`](super::ShardCoordinator) reads
//! `now` from its `Clock` and waits on it, so a test drives the whole
//! policy on a manual clock whose `sleep` only moves `now`.
//!
//! ```text
//!          consecutive confirmed failures ≥ BREAKER_THRESHOLD
//!   CLOSED ────────────────────────────────────────────▶ OPEN
//!     ▲                                                    │
//!     │ trial query succeeds     BREAKER_COOLDOWN elapses, │
//!     │                          next query admitted       ▼
//!     └───────────────────────────────────────────── HALF-OPEN
//!                   trial query fails ──▶ back to OPEN (fresh cooldown)
//! ```
//!
//! Only *confirmed* worker failures move a breaker: when a query RPC
//! fails, the coordinator first dials the worker afresh (the probe), and
//! a worker that answers the handshake attributes the failure to the
//! query (e.g. an injected fault token) rather than the shard — so a
//! misbehaving query can never open the breaker and shed its well-behaved
//! neighbours. While OPEN, admission sheds the shard (or the query goes
//! on without it) before anything is dialed; once the cooldown elapses
//! the next query's admission flips it to HALF-OPEN, and that query is
//! the trial. Nothing moves a breaker between queries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Consecutive confirmed failures that open a breaker.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;
/// How long an open breaker sheds before admitting a trial query.
pub(crate) const BREAKER_COOLDOWN: Duration = Duration::from_secs(1);
/// First retry backoff; doubles per failure of the same shard.
const BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Upper bound on the backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// The supervision policy's only time source.
pub(crate) trait Clock: Send + Sync {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Wait `wait` before the next step.
    fn sleep(&self, wait: Duration);
}

/// The wall clock: what every public constructor supervises with.
pub(crate) struct SystemClock;

impl Clock for SystemClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, wait: Duration) {
        std::thread::sleep(wait);
    }
}

/// Observable breaker state, for STATS / Prometheus; the discriminant is
/// its gauge value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, failures are counted.
    Closed = 0,
    /// Shedding: the shard is presumed dead until the cooldown elapses.
    Open = 2,
    /// Probation: the trial query decides re-close vs. re-open.
    HalfOpen = 1,
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
        f64::from(*self as u8)
    }
}

/// One shard's breaker, a plain value moved by pure transitions.
#[derive(Clone, Copy, Debug)]
enum Breaker {
    Closed { fails: u32 },
    Open { since: Instant },
    HalfOpen,
}

impl Breaker {
    const CLOSED: Breaker = Breaker::Closed { fails: 0 };

    /// Admission at `now`: whether a query may reach the shard. An open
    /// breaker whose cooldown has elapsed turns half-open and admits the
    /// query as its trial.
    fn admit(&mut self, now: Instant) -> bool {
        match *self {
            Breaker::Closed { .. } | Breaker::HalfOpen => true,
            Breaker::Open { since } if now.saturating_duration_since(since) >= BREAKER_COOLDOWN => {
                *self = Breaker::HalfOpen;
                true
            }
            Breaker::Open { .. } => false,
        }
    }

    /// A confirmed worker failure at `now`: CLOSED counts toward
    /// [`BREAKER_THRESHOLD`], HALF-OPEN re-opens with a fresh cooldown.
    /// Returns whether the breaker opened.
    fn fail(&mut self, now: Instant) -> bool {
        let was_open = matches!(self, Breaker::Open { .. });
        *self = match *self {
            Breaker::Closed { fails } if fails + 1 < BREAKER_THRESHOLD => {
                Breaker::Closed { fails: fails + 1 }
            }
            _ => Breaker::Open { since: now },
        };
        !was_open && matches!(self, Breaker::Open { .. })
    }

    fn state(&self) -> BreakerState {
        match self {
            Breaker::Closed { .. } => BreakerState::Closed,
            Breaker::Open { .. } => BreakerState::Open,
            Breaker::HalfOpen => BreakerState::HalfOpen,
        }
    }
}

/// What a query does next, once supervision has weighed a failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Next {
    /// Run the query again from the top once `wait` has passed.
    Retry(Duration),
    /// Go on without this shard: the answer will be marked degraded.
    Skip(usize),
    /// Give the query up: the shard is unavailable.
    Shed(usize),
}

/// The fleet's breakers behind one lock, and the policy that moves them:
/// how many failures a query may spend on a shard, and whether a lost
/// shard degrades the answer or sheds the query.
pub(crate) struct Supervisor {
    attempts: u32,
    degrade: bool,
    /// The breakers, and how often one opened.
    fleet: Mutex<(Vec<Breaker>, u64)>,
    /// Seeds each query's backoff jitter.
    queries: AtomicU64,
}

/// One query's course through the supervisor: the shards it went on
/// without, the failures it spent on each, and its jitter state.
pub(crate) struct Course {
    skipped: Vec<bool>,
    failures: Vec<u32>,
    jitter: u64,
}

impl Course {
    /// Whether shard `s` is still in the query.
    pub(crate) fn live(&self, s: usize) -> bool {
        !self.skipped[s]
    }

    /// Whether the query went on without some shard.
    pub(crate) fn degraded(&self) -> bool {
        self.skipped.contains(&true)
    }
}

impl Supervisor {
    /// `shards` closed breakers; a query may spend `attempts` failures on
    /// a shard before it `degrade`s or sheds.
    pub(crate) fn new(shards: usize, attempts: u32, degrade: bool) -> Supervisor {
        let fleet = Mutex::new((vec![Breaker::CLOSED; shards], 0));
        Supervisor { attempts, degrade, fleet, queries: AtomicU64::new(0) }
    }

    /// A fresh course for one query: every shard live, nothing spent.
    pub(crate) fn course(&self) -> Course {
        let shards = self.fleet.lock().unwrap().0.len();
        Course {
            skipped: vec![false; shards],
            failures: vec![0; shards],
            jitter: self.queries.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Admission of the course's live shards at `now`: `None` lets the
    /// attempt run; an open breaker, before its cooldown, answers with the
    /// step for losing its shard — no dial, no probe.
    pub(crate) fn admit(&self, course: &mut Course, now: Instant) -> Option<Next> {
        let breakers = &mut self.fleet.lock().unwrap().0;
        let shed = (0..breakers.len()).find(|&s| course.live(s) && !breakers[s].admit(now))?;
        Some(self.lose(course, shed))
    }

    /// Shard `shard` failed an RPC of the course at `now`, and its probe
    /// found the worker `up` or not. A dead worker is a confirmed
    /// failure on its breaker. The query retries after a backoff until it
    /// has spent its attempts on the shard or the breaker is open.
    pub(crate) fn failed(&self, course: &mut Course, shard: usize, up: bool, now: Instant) -> Next {
        course.failures[shard] += 1;
        let open = {
            let (breakers, opens) = &mut *self.fleet.lock().unwrap();
            *opens += u64::from(!up && breakers[shard].fail(now));
            matches!(breakers[shard], Breaker::Open { .. })
        };
        let spent = course.failures[shard];
        if spent >= self.attempts || open {
            return self.lose(course, shard);
        }
        let exp = BACKOFF_BASE.saturating_mul(1 << (spent - 1).min(16)).min(BACKOFF_CAP);
        course.jitter = crate::shard::splitmix64(course.jitter);
        // Deterministic jitter: 0 – 50 % of the backoff.
        Next::Retry(exp + exp.mul_f64((course.jitter % 1000) as f64 / 2000.0))
    }

    /// The course answered: every shard it reached re-closes its breaker.
    pub(crate) fn answered(&self, course: &Course) {
        let breakers = &mut self.fleet.lock().unwrap().0;
        for (s, breaker) in breakers.iter_mut().enumerate() {
            if course.live(s) {
                *breaker = Breaker::CLOSED;
            }
        }
    }

    /// Breaker state per shard, and how often one opened.
    pub(crate) fn states(&self) -> (Vec<BreakerState>, u64) {
        let (breakers, opens) = &*self.fleet.lock().unwrap();
        (breakers.iter().map(Breaker::state).collect(), *opens)
    }

    fn lose(&self, course: &mut Course, shard: usize) -> Next {
        if self.degrade {
            course.skipped[shard] = true;
            Next::Skip(shard)
        } else {
            Next::Shed(shard)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_below_threshold_stay_closed() {
        let (mut b, t) = (Breaker::CLOSED, Instant::now());
        assert!(!b.fail(t) && !b.fail(t));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit(t));
        assert!(b.fail(t), "the threshold-th failure opens the breaker");
        assert_eq!(b.state(), BreakerState::Open);
        let before = t + BREAKER_COOLDOWN - Duration::from_millis(1);
        assert!(!b.admit(before), "open breaker sheds before cooldown");
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let (sup, t) = (Supervisor::new(1, u32::MAX, false), Instant::now());
        let mut course = sup.course();
        for _ in 1..BREAKER_THRESHOLD {
            sup.failed(&mut course, 0, false, t);
        }
        sup.answered(&course);
        sup.failed(&mut sup.course(), 0, false, t);
        assert_eq!(sup.states(), (vec![BreakerState::Closed], 0), "streak was reset");
    }

    #[test]
    fn cooldown_admits_one_probation_probe() {
        let (mut b, t) = (Breaker::CLOSED, Instant::now());
        for _ in 0..BREAKER_THRESHOLD {
            b.fail(t);
        }
        assert_eq!(b.state(), BreakerState::Open);
        let t = t + BREAKER_COOLDOWN;
        assert!(b.admit(t), "elapsed cooldown flips to half-open");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe failure re-opens with a fresh cooldown …
        assert!(b.fail(t));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.admit(t + BREAKER_COOLDOWN / 2));
        // … probe success after the next cooldown re-closes.
        assert!(b.admit(t + BREAKER_COOLDOWN));
        b = Breaker::CLOSED;
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

    /// A course retries a failed shard after a doubling, jittered backoff
    /// while the worker answers its probe, and loses the shard once the
    /// attempts are spent — shedding the query, or skipping the shard
    /// under degradation, which admission then leaves out.
    #[test]
    fn a_course_backs_off_then_sheds_or_skips() {
        let t = Instant::now();
        for degrade in [false, true] {
            let sup = Supervisor::new(2, 3, degrade);
            let mut course = sup.course();
            for exp in [BACKOFF_BASE, BACKOFF_BASE * 2] {
                let Next::Retry(wait) = sup.failed(&mut course, 1, true, t) else {
                    panic!("a shard within its attempts is retried");
                };
                assert!(exp <= wait && wait < exp + exp / 2, "{wait:?} for {exp:?}");
            }
            let lost = sup.failed(&mut course, 1, true, t);
            assert_eq!(
                lost,
                if degrade {
                    Next::Skip(1)
                } else {
                    Next::Shed(1)
                }
            );
            assert_eq!(course.degraded(), degrade);
            assert_eq!(sup.states(), (vec![BreakerState::Closed; 2], 0), "the probes answered");
            assert_eq!(sup.admit(&mut course, t), None);
        }
    }

    /// An open breaker sheds at admission until its cooldown passes; then
    /// the query is admitted as the trial, and answering re-closes it.
    #[test]
    fn admission_sheds_an_open_shard_until_its_cooldown() {
        let t = Instant::now();
        let sup = Supervisor::new(2, BREAKER_THRESHOLD, false);
        let mut course = sup.course();
        for _ in 0..BREAKER_THRESHOLD {
            sup.failed(&mut course, 0, false, t);
        }
        assert_eq!(sup.admit(&mut sup.course(), t), Some(Next::Shed(0)));
        let mut trial = sup.course();
        assert_eq!(sup.admit(&mut trial, t + BREAKER_COOLDOWN), None);
        assert_eq!(sup.states().0, [BreakerState::HalfOpen, BreakerState::Closed]);
        sup.answered(&trial);
        assert_eq!(sup.states(), (vec![BreakerState::Closed; 2], 1));
    }
}
