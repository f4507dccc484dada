//! Per-query execution budgets: wall-clock deadlines and expansion caps,
//! enforced **cooperatively** inside the two-stage search.
//!
//! The paper's algorithm explores whatever frontier the activation levels
//! admit; on dense hub nodes that frontier can be enormous, and a serving
//! deployment cannot let one adversarial query monopolize a worker. A
//! [`QueryBudget`] bounds a single search two ways:
//!
//! * a **deadline** — a wall-clock allowance, armed when the search
//!   starts;
//! * an **expansion cap** — a limit on the number of expansion units
//!   (one unit ≈ one `(frontier, BFS instance)` step of Algorithm 2, the
//!   same unit across all four engines).
//!
//! Enforcement is cooperative: the search charges a shared
//! [`BudgetTracker`] as it expands and polls a single cancellation flag
//! at loop heads. The clock is only read once per [`CHECK_STRIDE`]
//! charged units (plus once per level and once per extracted candidate),
//! so the overhead on the hot path is one relaxed `fetch_add` per
//! frontier — unmeasurable next to the neighbor loop it gates — and an
//! unlimited budget short-circuits to a no-op before touching any atomic.
//!
//! A tracker armed in counting mode ([`QueryBudget::start_counting`], as
//! every traced search is) also keeps the expansion kernel's [`Tally`]:
//! the work counters `crate::costmodel` projects onto hardware, charged
//! where the kernel runs — once per frontier or work item, never per
//! neighbor.
//!
//! A tripped budget surfaces as [`SearchError`] from the `try_*` search
//! entry points; the session that ran the query remains reusable (state
//! is epoch-stamped, so the next `begin_query` re-arms it regardless of
//! where the previous query stopped).

use crate::error::SearchError;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// How many expansion units may be charged between deadline polls. A
/// power of two; the division in [`BudgetTracker::charge`] compiles to a
/// shift.
pub const CHECK_STRIDE: u64 = 256;

/// Cancellation causes stored in the tracker flag.
const LIVE: u8 = 0;
const CAUSE_DEADLINE: u8 = 1;
const CAUSE_EXPANSIONS: u8 = 2;

/// The kernel work a counting tracker tallies beside its expansion units
/// ([`BudgetTracker::tally`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tally {
    /// `M` reads of the expansion gate `hit(f, i)`: one per instance of
    /// every active, non-central frontier.
    HitReads,
    /// `(frontier, instance)` work items that passed the gates.
    WorkItems,
    /// Adjacency entries those work items scanned: a degree each.
    AdjacencyScans,
    /// Nodes the top-down memo asked its predecessor oracle about: one
    /// adjacency row each for the Theorem V.4 oracle.
    MemoRows,
}

/// The resource allowance of one query. Plain configuration — cheap to
/// clone, `Copy`, and reusable across queries; [`QueryBudget::start`]
/// arms a fresh [`BudgetTracker`] per search.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Wall-clock allowance; `None` = no deadline.
    pub timeout: Option<Duration>,
    /// Expansion-unit allowance; `None` = uncapped.
    pub max_expansions: Option<u64>,
}

impl QueryBudget {
    /// No deadline, no cap — the behaviour of every pre-budget search.
    pub const fn unlimited() -> Self {
        QueryBudget { timeout: None, max_expansions: None }
    }

    /// Builder-style wall-clock allowance.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Builder-style expansion cap.
    pub fn with_max_expansions(mut self, units: u64) -> Self {
        self.max_expansions = Some(units);
        self
    }

    /// Arm a tracker for one search starting now.
    pub fn start(&self) -> BudgetTracker {
        self.start_with_counting(false)
    }

    /// Arm a tracker that always accounts charged units, even when the
    /// budget itself is unlimited. Used by the tracing path, where
    /// per-level expansion counts are part of the trace; the plain
    /// [`QueryBudget::start`] keeps the zero-atomic fast path for every
    /// untraced unlimited query.
    pub fn start_counting(&self) -> BudgetTracker {
        self.start_with_counting(true)
    }

    fn start_with_counting(&self, counting: bool) -> BudgetTracker {
        BudgetTracker {
            deadline: self.timeout.map(|t| Instant::now() + t),
            timeout: self.timeout.unwrap_or_default(),
            max_expansions: self.max_expansions.unwrap_or(u64::MAX),
            capped: self.max_expansions.is_some(),
            counting,
            charged: AtomicU64::new(0),
            tallied: Default::default(),
            cancelled: AtomicU8::new(LIVE),
        }
    }
}

/// The live accounting of one search against its [`QueryBudget`]. Shared
/// by reference across all worker threads of the search; all methods take
/// `&self`.
pub struct BudgetTracker {
    deadline: Option<Instant>,
    /// Original allowance, kept for error reporting.
    timeout: Duration,
    max_expansions: u64,
    /// Whether an expansion cap was configured (`max_expansions` holds
    /// `u64::MAX` otherwise).
    capped: bool,
    /// Keep the expansion account even without a cap or deadline
    /// (tracing mode); disables the zero-atomic fast path.
    counting: bool,
    charged: AtomicU64,
    /// The [`Tally`] counters, indexed by variant (counting mode only).
    tallied: [AtomicU64; 4],
    cancelled: AtomicU8,
}

impl BudgetTracker {
    /// Charge `units` expansion units. Trips the cap when spent, and
    /// polls the deadline every [`CHECK_STRIDE`] units. The unlimited
    /// fast path returns before touching any atomic.
    #[inline]
    pub fn charge(&self, units: u64) {
        if !self.capped && !self.counting && self.deadline.is_none() {
            return;
        }
        let total = self.charged.fetch_add(units, Ordering::Relaxed) + units;
        if total > self.max_expansions {
            self.cancel(CAUSE_EXPANSIONS);
        } else if self.deadline.is_some() && total / CHECK_STRIDE != (total - units) / CHECK_STRIDE
        {
            self.poll_deadline();
        }
    }

    /// Add `units` to the `work` counter. A tracker not in counting mode
    /// returns before touching any atomic.
    #[inline]
    pub fn tally(&self, work: Tally, units: u64) {
        if self.counting {
            self.tallied[work as usize].fetch_add(units, Ordering::Relaxed);
        }
    }

    /// The `work` counter so far; always zero outside counting mode.
    pub fn tallied(&self, work: Tally) -> u64 {
        self.tallied[work as usize].load(Ordering::Relaxed)
    }

    /// Has the budget tripped? One relaxed load — the check every
    /// expansion step performs before doing work.
    #[inline]
    pub fn cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed) != LIVE
    }

    /// Read the clock against the deadline, tripping the budget if it
    /// passed. Used at level boundaries and per extracted candidate,
    /// where one `Instant::now()` is negligible.
    pub fn poll_deadline(&self) {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.cancel(CAUSE_DEADLINE);
            }
        }
    }

    /// The instant the deadline trips, if the budget has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Level-boundary checkpoint: poll the deadline, then surface any
    /// cancellation as the error the search should return.
    pub fn checkpoint(&self) -> Result<(), SearchError> {
        self.poll_deadline();
        match self.error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Poll the deadline and report whether work should stop — the
    /// per-candidate check of the top-down stage.
    pub fn should_stop(&self) -> bool {
        self.poll_deadline();
        self.cancelled()
    }

    /// Expansion units charged so far. Always zero for an unlimited
    /// tracker armed with [`QueryBudget::start`] (its fast path skips
    /// accounting); use [`QueryBudget::start_counting`] when the count
    /// itself is the point.
    pub fn expansions(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }

    /// Budget units remaining under the expansion cap, or `None` when
    /// no cap was configured.
    pub fn remaining(&self) -> Option<u64> {
        if self.capped {
            Some(self.max_expansions.saturating_sub(self.expansions()))
        } else {
            None
        }
    }

    /// The error corresponding to the tripped budget, if any.
    pub fn error(&self) -> Option<SearchError> {
        match self.cancelled.load(Ordering::Relaxed) {
            CAUSE_DEADLINE => Some(SearchError::DeadlineExceeded { limit: self.timeout }),
            CAUSE_EXPANSIONS => Some(SearchError::BudgetExhausted { limit: self.max_expansions }),
            _ => None,
        }
    }

    /// Record a cancellation cause; the first cause wins.
    fn cancel(&self, cause: u8) {
        let _ = self
            .cancelled
            .compare_exchange(LIVE, cause, Ordering::Relaxed, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let tracker = QueryBudget::unlimited().start();
        tracker.charge(u64::MAX / 2);
        tracker.poll_deadline();
        assert!(!tracker.cancelled());
        assert!(tracker.checkpoint().is_ok());
        assert_eq!(tracker.error(), None);
        // The fast path skips accounting entirely.
        assert_eq!(tracker.expansions(), 0);
    }

    #[test]
    fn counting_mode_accounts_without_tripping() {
        let tracker = QueryBudget::unlimited().start_counting();
        tracker.charge(10_000);
        assert_eq!(tracker.expansions(), 10_000);
        assert!(!tracker.cancelled());
        assert_eq!(tracker.remaining(), None, "no cap, no remaining figure");
        let capped = QueryBudget::unlimited().with_max_expansions(100).start_counting();
        capped.charge(40);
        assert_eq!(capped.remaining(), Some(60));
    }

    #[test]
    fn only_a_counting_tracker_tallies() {
        let counting = QueryBudget::unlimited().start_counting();
        counting.tally(Tally::WorkItems, 3);
        counting.tally(Tally::WorkItems, 4);
        counting.tally(Tally::MemoRows, 1);
        assert_eq!(counting.tallied(Tally::WorkItems), 7);
        assert_eq!(counting.tallied(Tally::MemoRows), 1);
        assert_eq!(counting.tallied(Tally::AdjacencyScans), 0);
        let capped = QueryBudget::unlimited().with_max_expansions(10).start();
        capped.tally(Tally::WorkItems, 3);
        assert_eq!(capped.tallied(Tally::WorkItems), 0);
    }

    #[test]
    fn expansion_cap_trips_at_the_limit() {
        let tracker = QueryBudget::unlimited().with_max_expansions(100).start();
        tracker.charge(100);
        assert!(!tracker.cancelled(), "spending the exact allowance is fine");
        tracker.charge(1);
        assert!(tracker.cancelled());
        assert_eq!(tracker.error(), Some(SearchError::BudgetExhausted { limit: 100 }));
        assert_eq!(tracker.checkpoint().unwrap_err().kind(), "budget_exhausted");
    }

    #[test]
    fn expired_deadline_trips_at_the_checkpoint() {
        let tracker = QueryBudget::unlimited().with_timeout(Duration::ZERO).start();
        assert_eq!(
            tracker.checkpoint().unwrap_err(),
            SearchError::DeadlineExceeded { limit: Duration::ZERO }
        );
        assert!(tracker.cancelled());
    }

    #[test]
    fn deadline_is_polled_on_stride_boundaries() {
        let tracker = QueryBudget::unlimited().with_timeout(Duration::ZERO).start();
        tracker.charge(CHECK_STRIDE - 1);
        assert!(!tracker.cancelled(), "no poll before the stride boundary");
        tracker.charge(1);
        assert!(tracker.cancelled(), "crossing the stride polls the clock");
    }

    #[test]
    fn first_cause_wins() {
        let tracker = QueryBudget::unlimited()
            .with_timeout(Duration::ZERO)
            .with_max_expansions(10)
            .start();
        tracker.charge(100); // trips the cap before any deadline poll
        tracker.poll_deadline();
        assert_eq!(tracker.error(), Some(SearchError::BudgetExhausted { limit: 10 }));
    }

    #[test]
    fn charges_accumulate_across_threads() {
        let tracker = QueryBudget::unlimited().with_max_expansions(4 * 1000).start();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..250 {
                        tracker.charge(1);
                    }
                });
            }
        });
        assert_eq!(tracker.expansions(), 1000);
        assert!(!tracker.cancelled());
    }
}
