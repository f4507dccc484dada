//! A sharded, byte-budgeted LRU result cache for the serving path.
//!
//! The paper's own workload statistics (Table V's `kwf` column) show
//! keyword frequency is heavily skewed — a hosted WikiSearch answers the
//! same few keyword sets over and over. This module lets the serving
//! layer answer a repeated query from memory instead of re-running the
//! two-stage search, without ever changing an answer:
//!
//! * **Keying** — a [`QueryKey`] pairs the *normalized* query (the
//!   sorted, deduplicated, analyzed term list produced by
//!   `textindex::normalize_query`) with a bit-exact
//!   [`ParamsFingerprint`] of the
//!   [`SearchParams`]. Word order, capitalization, duplicates and
//!   stopwords collapse onto one slot; any α/k/λ/pruning difference keys
//!   a distinct slot, so cached answers can never alias across knobs.
//! * **Sharding** — [`ShardedLruCache`] splits the key space over `N`
//!   shards (default [`DEFAULT_SHARDS`]), each behind its own mutex, so
//!   the hit path of one query never contends with a hit on another
//!   shard; there is no global lock anywhere.
//! * **Budget & admission** — capacity is counted in (caller-estimated)
//!   bytes, split evenly across shards. An entry larger than one shard's
//!   budget is never admitted ([`CacheStats::bypasses`]) — a single
//!   pathological answer set cannot wipe out the working set.
//! * **Eviction** — least-recently-used per shard: every get/insert
//!   stamps the entry with the shard's logical clock; when a shard runs
//!   over budget, lowest stamps are evicted until it fits.
//! * **Accounting** — per-shard hit/miss/insert/eviction counters are
//!   maintained under the same lock as the map, so a [`CacheStats`]
//!   snapshot always satisfies `hits + misses == lookups`.
//!
//! The cache is value-generic (`V: Clone`); the serving layer stores
//! `Arc`-wrapped result payloads so a hit clones a pointer, not an
//! answer set.

use crate::config::{ParamsFingerprint, SearchParams};
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default shard count of [`ShardedLruCache::new`]. Eight shards keep
/// per-shard scans short while comfortably exceeding the concurrency of
/// the CLI's default 4-worker server.
pub const DEFAULT_SHARDS: usize = 8;

/// The cache key of one search: normalized query terms + parameter
/// fingerprint.
///
/// ```
/// use central::{cache::QueryKey, SearchParams};
/// use textindex::normalize_query;
///
/// let p = SearchParams::default();
/// let a = QueryKey::new(normalize_query("Einstein physics"), &p);
/// let b = QueryKey::new(normalize_query("the physics of EINSTEIN"), &p);
/// assert_eq!(a, b);
/// let narrow = QueryKey::new(normalize_query("Einstein physics"), &p.with_top_k(1));
/// assert_ne!(a, narrow);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    terms: Vec<String>,
    params: ParamsFingerprint,
}

impl QueryKey {
    /// Build a key from analyzed query terms and the search parameters.
    /// `terms` is re-sorted and deduplicated defensively, so passing
    /// either `textindex::normalize_query` output (already canonical) or
    /// raw `analyze_unique` output (query order) yields the same key.
    pub fn new(mut terms: Vec<String>, params: &SearchParams) -> Self {
        terms.sort_unstable();
        terms.dedup();
        QueryKey { terms, params: params.fingerprint() }
    }

    /// `true` if the query normalized to no terms at all (stopword-only
    /// or empty input). Such queries must bypass the cache: the engine's
    /// empty-query behaviour is already O(1).
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The normalized term list (sorted, deduplicated).
    pub fn terms(&self) -> &[String] {
        &self.terms
    }

    /// Approximate heap footprint of the key itself, charged to the
    /// entry it keys.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.terms.iter().map(|t| 24 + t.len()).sum::<usize>()
    }
}

/// A point-in-time snapshot of the cache's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Total `get` calls.
    pub lookups: u64,
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (`hits + misses == lookups`).
    pub misses: u64,
    /// Entries admitted (including replacements of an existing key).
    pub inserts: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Inserts refused by the admission policy (entry larger than one
    /// shard's byte budget).
    pub bypasses: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated bytes currently resident.
    pub bytes: usize,
    /// Total configured byte budget.
    pub capacity_bytes: usize,
    /// Number of shards.
    pub shards: usize,
}

/// One cached entry: the value, its charged size, and its LRU stamp.
struct Entry<V> {
    value: V,
    bytes: usize,
    stamp: u64,
}

/// Mutable state of one shard. Counters live inside the mutex so every
/// snapshot is internally consistent (`hits + misses == lookups` holds
/// exactly, never transiently off by an in-flight increment).
struct ShardState<K, V> {
    entries: HashMap<K, Entry<V>>,
    bytes: usize,
    /// Logical clock: bumped on every get/insert, stamped onto the
    /// touched entry. Lowest stamp == least recently used.
    tick: u64,
    lookups: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
}

impl<K, V> Default for ShardState<K, V> {
    fn default() -> Self {
        ShardState {
            entries: HashMap::new(),
            bytes: 0,
            tick: 0,
            lookups: 0,
            hits: 0,
            misses: 0,
            inserts: 0,
            evictions: 0,
        }
    }
}

/// A sharded LRU cache with a byte budget. See the module docs for the
/// design; see [`QueryKey`] for the intended key type.
///
/// ```
/// use central::cache::ShardedLruCache;
///
/// let cache: ShardedLruCache<String, u32> = ShardedLruCache::new(1024);
/// assert_eq!(cache.get(&"q".to_string()), None);
/// cache.insert("q".to_string(), 7, 100);
/// assert_eq!(cache.get(&"q".to_string()), Some(7));
/// let stats = cache.stats();
/// assert_eq!((stats.lookups, stats.hits, stats.misses), (2, 1, 1));
/// ```
pub struct ShardedLruCache<K, V> {
    shards: Box<[Mutex<ShardState<K, V>>]>,
    hasher: RandomState,
    /// Per-shard byte budget (`capacity / shards`, at least 1).
    shard_budget: usize,
    /// Admission threshold: entries larger than this are never cached.
    max_entry_bytes: usize,
    capacity_bytes: usize,
    bypasses: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLruCache<K, V> {
    /// A cache with `capacity_bytes` total budget over
    /// [`DEFAULT_SHARDS`] shards. A zero capacity still constructs (one
    /// byte of budget, so effectively nothing is ever admitted) — the
    /// serving layer treats 0 as "disabled" and skips construction
    /// entirely.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_shards(capacity_bytes, DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (rounded up to a power of
    /// two, minimum 1). The admission threshold is one shard's budget.
    pub fn with_shards(capacity_bytes: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let shard_budget = (capacity_bytes / shards).max(1);
        ShardedLruCache {
            shards: (0..shards).map(|_| Mutex::new(ShardState::default())).collect(),
            hasher: RandomState::new(),
            shard_budget,
            max_entry_bytes: shard_budget,
            capacity_bytes,
            bypasses: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<ShardState<K, V>> {
        // Shard count is a power of two, so the low hash bits select.
        let h = self.hasher.hash_one(key);
        &self.shards[(h as usize) & (self.shards.len() - 1)]
    }

    /// Look `key` up, refreshing its LRU stamp on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shard = self.shard_for(key).lock();
        shard.tick += 1;
        shard.lookups += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.stamp = tick;
                let value = entry.value.clone();
                shard.hits += 1;
                Some(value)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key`, charged as `bytes`. Returns `false`
    /// if the admission policy refused it (oversized). Replacing an
    /// existing key re-charges it. The shard evicts least-recently-used
    /// entries until it is back under budget; the entry just inserted
    /// carries the newest stamp and is evicted last.
    pub fn insert(&self, key: K, value: V, bytes: usize) -> bool {
        if bytes > self.max_entry_bytes {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut shard = self.shard_for(&key).lock();
        shard.tick += 1;
        shard.inserts += 1;
        let stamp = shard.tick;
        if let Some(old) = shard.entries.insert(key, Entry { value, bytes, stamp }) {
            shard.bytes -= old.bytes;
        }
        shard.bytes += bytes;
        while shard.bytes > self.shard_budget && shard.entries.len() > 1 {
            // O(len) victim scan; shard budgets keep len small enough
            // that a linked-list LRU would cost more in bookkeeping.
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty shard");
            if let Some(evicted) = shard.entries.remove(&victim) {
                shard.bytes -= evicted.bytes;
                shard.evictions += 1;
            }
        }
        true
    }

    /// Aggregate the per-shard counters into one snapshot.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats {
            capacity_bytes: self.capacity_bytes,
            shards: self.shards.len(),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            ..CacheStats::default()
        };
        for shard in self.shards.iter() {
            let shard = shard.lock();
            stats.lookups += shard.lookups;
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.inserts += shard.inserts;
            stats.evictions += shard.evictions;
            stats.entries += shard.entries.len();
            stats.bytes += shard.bytes;
        }
        stats
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Drop every entry (counters are kept — they describe history, not
    /// contents).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            shard.entries.clear();
            shard.bytes = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textindex::normalize_query;

    fn key(raw: &str, params: &SearchParams) -> QueryKey {
        QueryKey::new(normalize_query(raw), params)
    }

    #[test]
    fn normalized_keys_collide_across_case_order_and_stopwords() {
        let p = SearchParams::default();
        let base = key("Einstein physics", &p);
        assert_eq!(base, key("physics  EINSTEIN", &p), "order + case");
        assert_eq!(base, key("the physics of einstein", &p), "stopwords");
        assert_eq!(base, key("physics einstein physics", &p), "duplicates");
        assert_ne!(base, key("einstein", &p));
        assert_ne!(base, key("einstein physics relativity", &p));
    }

    #[test]
    fn same_terms_different_params_do_not_alias() {
        let p = SearchParams::default();
        let base = key("einstein physic", &p);
        assert_ne!(base, key("einstein physic", &p.clone().with_top_k(1)), "top-k in key");
        assert_ne!(base, key("einstein physic", &p.clone().with_alpha(0.4)), "alpha in key");
        assert_ne!(base, key("einstein physic", &p.clone().with_lambda(0.0)), "lambda in key");
        assert_ne!(base, key("einstein physic", &p.clone().with_average_distance(9.9)), "A in key");
    }

    #[test]
    fn empty_after_stopword_filtering_is_detectable_for_bypass() {
        let p = SearchParams::default();
        assert!(key("the of and", &p).is_empty());
        assert!(key("", &p).is_empty());
        assert!(!key("einstein", &p).is_empty());
    }

    #[test]
    fn get_insert_and_replace_round_trip() {
        let cache: ShardedLruCache<u32, &'static str> = ShardedLruCache::new(1 << 16);
        assert_eq!(cache.get(&1), None);
        assert!(cache.insert(1, "one", 10));
        assert!(cache.insert(2, "two", 10));
        assert_eq!(cache.get(&1), Some("one"));
        assert_eq!(cache.get(&2), Some("two"));
        assert!(cache.insert(1, "uno", 12), "replacement admitted");
        assert_eq!(cache.get(&1), Some("uno"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes, 22, "replacement re-charges, no double count");
        assert_eq!(stats.inserts, 3);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.lookups, stats.hits + stats.misses);
    }

    #[test]
    fn lru_evicts_the_least_recently_touched_entry() {
        // One shard so eviction order is fully observable.
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::with_shards(100, 1);
        assert!(cache.insert(1, 10, 40));
        assert!(cache.insert(2, 20, 40));
        assert_eq!(cache.get(&1), Some(10), "touch 1 so 2 becomes LRU");
        assert!(cache.insert(3, 30, 40), "overflows the 100-byte budget");
        assert_eq!(cache.get(&2), None, "2 was least recently used");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= 100);
    }

    #[test]
    fn oversized_entries_bypass_instead_of_wiping_the_shard() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::with_shards(80, 1);
        assert!(cache.insert(1, 10, 30));
        assert!(!cache.insert(2, 20, 200), "larger than the shard budget");
        assert_eq!(cache.get(&1), Some(10), "resident entry untouched");
        assert_eq!(cache.get(&2), None);
        let stats = cache.stats();
        assert_eq!(stats.bypasses, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn eviction_never_removes_the_entry_being_inserted() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::with_shards(64, 1);
        for k in 0..10 {
            assert!(cache.insert(k, k, 60), "each entry nearly fills the shard");
            assert_eq!(cache.get(&k), Some(k), "the newest entry survives its own insert");
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.evictions, 9);
    }

    #[test]
    fn shard_count_rounds_to_a_power_of_two() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::with_shards(1 << 12, 5);
        assert_eq!(cache.stats().shards, 8);
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::with_shards(1 << 12, 0);
        assert_eq!(cache.stats().shards, 1);
    }

    #[test]
    fn stats_add_up_under_concurrent_hammering() {
        let cache: ShardedLruCache<u64, u64> = ShardedLruCache::with_shards(1 << 10, 4);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let k = (t * 7 + i) % 32;
                        if cache.get(&k).is_none() {
                            cache.insert(k, k * 2, 16 + (k as usize % 48));
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.lookups, 8 * 200);
        assert_eq!(stats.hits + stats.misses, stats.lookups);
        assert!(stats.bytes <= stats.capacity_bytes);
        assert!(stats.hits > 0, "repeated keys must hit");
        assert_eq!(cache.len(), stats.entries);
    }

    #[test]
    fn clear_empties_but_keeps_history() {
        let cache: ShardedLruCache<u32, u32> = ShardedLruCache::new(1 << 12);
        cache.insert(1, 1, 8);
        cache.get(&1);
        cache.clear();
        assert!(cache.is_empty());
        let stats = cache.stats();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.hits, 1, "history survives clear");
    }
}
