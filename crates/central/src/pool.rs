//! A freelist pool of [`SearchSession`]s for concurrent query serving.
//!
//! One [`SearchSession`] answers one query at a time (`search_session`
//! takes `&mut`), which is exactly right for a single caller but
//! serializes a multi-client service: wrapping the session in a mutex —
//! as `wikisearch-engine` did before this pool existed — funnels every
//! in-flight query through one lock and throws away the intra-query
//! parallelism of the engines underneath.
//!
//! [`SessionPool`] keeps inter-query concurrency and warm state at the
//! same time. It is a mutex-guarded freelist of idle sessions:
//! [`SessionPool::checkout`] pops a warm session (or creates a fresh one
//! when the freelist is empty — the pool grows to the peak number of
//! concurrent queries and no further), hands it out inside a
//! [`PooledSession`] RAII guard, and the guard's `Drop` returns the
//! session to the freelist. The mutex is held only for the `O(1)`
//! push/pop, **never** across a search, so N in-flight queries proceed
//! on N distinct sessions without contending on anything but a pointer
//! swap. Sessions are epoch-stamped ([`crate::state::SearchState`]), so
//! a recycled session re-arms for its next query with a single epoch
//! bump regardless of which query (or engine) used it last.
//!
//! Pool-wide accounting: every guard counts the queries its session
//! absorbed while checked out and folds them into the pool total at
//! checkin, so [`SessionPool::queries_run`] reports the service-level
//! figure the old single-session `queries_run` used to.
//!
//! **Panic quarantine.** If a search panics while a guard is checked out,
//! the guard's `Drop` runs during the unwind. Returning that session to
//! the freelist would hand later queries a session whose internal state
//! stopped at an arbitrary point mid-search — epoch stamping makes that
//! *probably* fine, but a panic means an invariant already failed, so the
//! pool does not gamble: the session is dropped on the spot (quarantined),
//! [`PoolStats::quarantined`] counts it, and the pool simply creates a
//! fresh session the next time the freelist runs dry. A *failed* search
//! (deadline, budget) is not a panic — those sessions check in normally
//! and are reused.

use crate::session::SearchSession;
use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A checkout/checkin freelist of warm [`SearchSession`]s.
///
/// ```
/// use central::SessionPool;
///
/// let pool = SessionPool::new();
/// {
///     let mut session = pool.checkout();   // fresh: the freelist is empty
///     let _ = &mut *session;               // &mut SearchSession
/// }                                        // checkin on drop
/// let again = pool.checkout();             // the same warm session
/// assert_eq!(again.session_id(), 0);
/// assert_eq!(pool.sessions_created(), 1);
/// ```
#[derive(Default)]
pub struct SessionPool {
    /// Idle sessions, tagged with their pool-assigned id. A `Vec` used as
    /// a stack: the most recently checked-in (cache-warmest) session is
    /// handed out first.
    free: Mutex<Vec<(u64, SearchSession)>>,
    /// Next session id (== number of sessions ever created).
    next_id: AtomicU64,
    /// Queries completed through checked-in guards (pool-wide total).
    completed: AtomicU64,
    /// Guards currently alive.
    in_flight: AtomicUsize,
    /// Sessions destroyed instead of checked in because their guard was
    /// dropped during a panic unwind.
    quarantined: AtomicU64,
}

impl SessionPool {
    /// An empty pool; sessions are created on demand by
    /// [`SessionPool::checkout`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Check a session out of the pool. Pops the warmest idle session, or
    /// creates a fresh one when all sessions are in flight. The returned
    /// guard derefs to `&mut SearchSession` and checks the session back
    /// in on drop.
    pub fn checkout(&self) -> PooledSession<'_> {
        let popped = self.free.lock().pop();
        let (id, session) = popped.unwrap_or_else(|| {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            (id, SearchSession::new())
        });
        self.in_flight.fetch_add(1, Ordering::Relaxed);
        let queries_at_checkout = session.queries_run();
        PooledSession { pool: self, id, session: Some(session), queries_at_checkout }
    }

    /// Total queries answered through sessions of this pool and already
    /// checked back in. (Queries run by a guard still in flight are folded
    /// in when that guard drops.)
    pub fn queries_run(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Number of idle sessions currently in the freelist.
    pub fn idle_sessions(&self) -> usize {
        self.free.lock().len()
    }

    /// Number of sessions ever created — the peak number of concurrent
    /// checkouts the pool has absorbed.
    pub fn sessions_created(&self) -> usize {
        self.next_id.load(Ordering::Relaxed) as usize
    }

    /// Number of guards currently checked out.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Number of sessions quarantined after a panic unwound through their
    /// guard. Quarantined sessions are gone for good; the pool recreates
    /// capacity on demand.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// One consistent-enough snapshot of the pool counters, for status
    /// endpoints (the CLI server's `STATS` line). Each field is read
    /// atomically; the set is not a transaction, which is fine for
    /// monitoring output.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            queries_run: self.queries_run(),
            sessions_created: self.sessions_created(),
            idle_sessions: self.idle_sessions(),
            in_flight: self.in_flight(),
            quarantined: self.quarantined(),
        }
    }

    /// Checkin path shared by `Drop` (and tests): fold the guard's query
    /// delta into the pool total and push the session back on the
    /// freelist.
    fn checkin(&self, id: u64, session: SearchSession, queries_at_checkout: u64) {
        let delta = session.queries_run() - queries_at_checkout;
        self.completed.fetch_add(delta, Ordering::Relaxed);
        self.free.lock().push((id, session));
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Quarantine path: destroy a session whose guard dropped during a
    /// panic unwind. The session never rejoins the freelist.
    fn quarantine(&self, session: SearchSession) {
        drop(session);
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A snapshot of a [`SessionPool`]'s counters (see [`SessionPool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize)]
pub struct PoolStats {
    /// Queries completed through checked-in sessions.
    pub queries_run: u64,
    /// Sessions ever created (the pool's concurrency peak).
    pub sessions_created: usize,
    /// Sessions idle in the freelist.
    pub idle_sessions: usize,
    /// Guards currently checked out.
    pub in_flight: usize,
    /// Sessions destroyed because a panic unwound through their guard.
    pub quarantined: u64,
}

/// RAII guard over one checked-out [`SearchSession`].
///
/// Derefs to the session; dropping the guard returns the session to its
/// [`SessionPool`] and folds the queries it ran into the pool total.
pub struct PooledSession<'a> {
    pool: &'a SessionPool,
    id: u64,
    /// Always `Some` until `Drop` takes it.
    session: Option<SearchSession>,
    queries_at_checkout: u64,
}

impl PooledSession<'_> {
    /// The pool-assigned id of the checked-out session. Two concurrently
    /// live guards of one pool never report the same id — that is the
    /// pool's exclusivity contract, and what the contention tests assert.
    pub fn session_id(&self) -> u64 {
        self.id
    }
}

impl Deref for PooledSession<'_> {
    type Target = SearchSession;
    fn deref(&self) -> &SearchSession {
        self.session.as_ref().expect("session present until drop")
    }
}

impl DerefMut for PooledSession<'_> {
    fn deref_mut(&mut self) -> &mut SearchSession {
        self.session.as_mut().expect("session present until drop")
    }
}

impl Drop for PooledSession<'_> {
    fn drop(&mut self) {
        if let Some(session) = self.session.take() {
            if std::thread::panicking() {
                // A panic is unwinding through this guard: the session's
                // state stopped mid-search at an arbitrary point, so it is
                // quarantined rather than recycled.
                self.pool.quarantine(session);
            } else {
                self.pool.checkin(self.id, session, self.queries_at_checkout);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{KeywordSearchEngine, SeqEngine};
    use crate::SearchParams;
    use kgraph::GraphBuilder;
    use std::collections::HashSet;
    use textindex::{InvertedIndex, ParsedQuery};

    fn fixture() -> (kgraph::KnowledgeGraph, InvertedIndex) {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", "alpha");
        let y = b.add_node("y", "beta");
        let m = b.add_node("m", "middle");
        b.add_edge(x, m, "e");
        b.add_edge(y, m, "e");
        let g = b.build();
        let idx = InvertedIndex::build(&g);
        (g, idx)
    }

    #[test]
    fn sequential_checkouts_reuse_one_session() {
        let (g, idx) = fixture();
        let q = ParsedQuery::parse(&idx, "alpha beta");
        let engine = SeqEngine::new();
        let pool = SessionPool::new();
        for _ in 0..5 {
            let mut session = pool.checkout();
            assert_eq!(session.session_id(), 0, "freelist must hand the warm session back");
            let out = engine.search_session(&mut session, &g, &q, &SearchParams::default());
            assert!(!out.answers.is_empty());
        }
        assert_eq!(pool.sessions_created(), 1);
        assert_eq!(pool.idle_sessions(), 1);
        assert_eq!(pool.queries_run(), 5);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn concurrent_checkouts_get_distinct_sessions() {
        let pool = SessionPool::new();
        let a = pool.checkout();
        let b = pool.checkout();
        let c = pool.checkout();
        assert_eq!(pool.in_flight(), 3);
        let ids: HashSet<u64> =
            [a.session_id(), b.session_id(), c.session_id()].into_iter().collect();
        assert_eq!(ids.len(), 3, "three live guards, three distinct sessions");
        drop(a);
        drop(b);
        drop(c);
        assert_eq!(pool.sessions_created(), 3);
        assert_eq!(pool.idle_sessions(), 3);
        // The pool does not grow past its in-flight peak.
        let d = pool.checkout();
        drop(d);
        assert_eq!(pool.sessions_created(), 3);
    }

    #[test]
    fn queries_fold_into_the_pool_total_at_checkin() {
        let (g, idx) = fixture();
        let q = ParsedQuery::parse(&idx, "alpha beta");
        let engine = SeqEngine::new();
        let pool = SessionPool::new();
        let mut guard = pool.checkout();
        engine.search_session(&mut guard, &g, &q, &SearchParams::default());
        engine.search_session(&mut guard, &g, &q, &SearchParams::default());
        assert_eq!(pool.queries_run(), 0, "in-flight queries fold in at checkin");
        drop(guard);
        assert_eq!(pool.queries_run(), 2);
        // A recycled session keeps its own counter; the pool only adds the
        // new guard's delta.
        let mut guard = pool.checkout();
        engine.search_session(&mut guard, &g, &q, &SearchParams::default());
        drop(guard);
        assert_eq!(pool.queries_run(), 3);
    }

    #[test]
    fn stats_snapshot_mirrors_the_individual_counters() {
        let pool = SessionPool::new();
        let guard = pool.checkout();
        let stats = pool.stats();
        assert_eq!(stats.sessions_created, 1);
        assert_eq!(stats.in_flight, 1);
        assert_eq!(stats.idle_sessions, 0);
        assert_eq!(stats.queries_run, 0);
        drop(guard);
        let stats = pool.stats();
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.idle_sessions, 1);
    }

    #[test]
    fn panicking_guard_quarantines_its_session() {
        let pool = SessionPool::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = pool.checkout();
            panic!("simulated worker crash");
        }));
        assert!(result.is_err());
        assert_eq!(pool.quarantined(), 1);
        assert_eq!(pool.in_flight(), 0);
        assert_eq!(pool.idle_sessions(), 0, "a quarantined session never rejoins the freelist");
        // The pool recovers by creating a fresh session on demand.
        let guard = pool.checkout();
        assert_eq!(guard.session_id(), 1);
        drop(guard);
        assert_eq!(pool.idle_sessions(), 1);
        assert_eq!(pool.stats().quarantined, 1);
    }

    #[test]
    fn clean_drops_do_not_quarantine() {
        let pool = SessionPool::new();
        drop(pool.checkout());
        assert_eq!(pool.quarantined(), 0);
        assert_eq!(pool.idle_sessions(), 1);
    }

    #[test]
    fn checkout_under_contention_never_aliases() {
        // 8 threads × 64 checkouts; a shared "live ids" set proves no two
        // guards ever hold the same session at the same time.
        let pool = SessionPool::new();
        let live: Mutex<HashSet<u64>> = Mutex::new(HashSet::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..64 {
                        let guard = pool.checkout();
                        assert!(
                            live.lock().insert(guard.session_id()),
                            "session {} handed to two live guards",
                            guard.session_id()
                        );
                        std::thread::yield_now();
                        assert!(live.lock().remove(&guard.session_id()));
                        drop(guard);
                    }
                });
            }
        });
        assert_eq!(pool.in_flight(), 0);
        assert!(pool.sessions_created() <= 8, "pool must not outgrow its in-flight peak");
        assert_eq!(pool.idle_sessions(), pool.sessions_created());
    }
}
