//! A bounded LRU cache of signature-verification outcomes.
//!
//! Block validation re-checks endorsement signatures that were already
//! verified at endorsement time, and identical `(public key, message,
//! signature)` triples recur whenever certificates are re-verified or
//! blocks are re-validated. Caching the boolean outcome keyed by a digest
//! of the triple turns those repeats into a hash lookup.
//!
//! The cache is internally synchronised (a single `Mutex`), so one instance
//! can be shared by the worker threads of a parallel validation pipeline.
//! Both positive and negative outcomes are cached; entries are evicted in
//! least-recently-used order once `capacity` is reached.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use crate::sha256::Sha256;

/// Aggregate hit/miss counters, for benchmarking and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

struct Inner {
    /// key digest → (verification outcome, recency stamp).
    map: HashMap<[u8; 32], (bool, u64)>,
    /// recency stamp → key digest, for O(log n) LRU eviction.
    order: BTreeMap<u64, [u8; 32]>,
    tick: u64,
    stats: CacheStats,
}

/// The digest a `(pubkey, message, signature)` triple is cached under, as
/// returned by a missed [`SigCache::lookup_or_key`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey([u8; 32]);

/// Bounded LRU cache of `(pubkey, message, signature)` verification
/// outcomes.
pub struct SigCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl SigCache {
    /// Create a cache holding at most `capacity` entries. A capacity of 0
    /// disables the cache (lookups miss, inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        SigCache {
            capacity,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                tick: 0,
                stats: CacheStats::default(),
            }),
        }
    }

    fn key(public_key: &[u8; 32], message: &[u8], signature: &[u8; 64]) -> CacheKey {
        let mut h = Sha256::new();
        h.update(public_key);
        h.update(signature);
        h.update(message);
        CacheKey(h.finalize().0)
    }

    /// Return the cached outcome for a triple, if present, refreshing its
    /// recency.
    pub fn lookup(
        &self,
        public_key: &[u8; 32],
        message: &[u8],
        signature: &[u8; 64],
    ) -> Option<bool> {
        if self.capacity == 0 {
            return None;
        }
        self.lookup_or_key(public_key, message, signature).ok()
    }

    /// [`SigCache::lookup`] that on a miss hands back the triple's key, so
    /// the caller can [`SigCache::record_key`] its verdict without hashing
    /// the triple a second time.
    pub fn lookup_or_key(
        &self,
        public_key: &[u8; 32],
        message: &[u8],
        signature: &[u8; 64],
    ) -> Result<bool, CacheKey> {
        let key = Self::key(public_key, message, signature);
        if self.capacity == 0 {
            return Err(key);
        }
        let mut inner = self.inner.lock().expect("sig cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&key.0) {
            Some(entry) => {
                let old = entry.1;
                let outcome = entry.0;
                entry.1 = tick;
                inner.order.remove(&old);
                inner.order.insert(tick, key.0);
                inner.stats.hits += 1;
                Ok(outcome)
            }
            None => {
                inner.stats.misses += 1;
                Err(key)
            }
        }
    }

    /// Record the verification outcome for a triple, evicting the least
    /// recently used entry if the cache is full.
    pub fn record(&self, public_key: &[u8; 32], message: &[u8], signature: &[u8; 64], valid: bool) {
        if self.capacity == 0 {
            return;
        }
        self.record_key(Self::key(public_key, message, signature), valid);
    }

    /// [`SigCache::record`] under the key a missed
    /// [`SigCache::lookup_or_key`] returned.
    pub fn record_key(&self, key: CacheKey, valid: bool) {
        if self.capacity == 0 {
            return;
        }
        let CacheKey(key) = key;
        let mut inner = self.inner.lock().expect("sig cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            let old = entry.1;
            entry.0 = valid;
            entry.1 = tick;
            inner.order.remove(&old);
            inner.order.insert(tick, key);
            return;
        }
        if inner.map.len() >= self.capacity {
            if let Some((&oldest, &victim)) = inner.order.iter().next() {
                inner.order.remove(&oldest);
                inner.map.remove(&victim);
            }
        }
        inner.map.insert(key, (valid, tick));
        inner.order.insert(tick, key);
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("sig cache poisoned").map.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit/miss counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().expect("sig cache poisoned").stats
    }
}

impl std::fmt::Debug for SigCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("sig cache poisoned");
        f.debug_struct("SigCache")
            .field("capacity", &self.capacity)
            .field("len", &inner.map.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triple(i: u8) -> ([u8; 32], Vec<u8>, [u8; 64]) {
        ([i; 32], vec![i, i + 1], [i; 64])
    }

    #[test]
    fn hit_miss_and_outcomes() {
        let cache = SigCache::new(8);
        let (pk, msg, sig) = triple(1);
        assert_eq!(cache.lookup(&pk, &msg, &sig), None);
        cache.record(&pk, &msg, &sig, true);
        assert_eq!(cache.lookup(&pk, &msg, &sig), Some(true));
        cache.record(&pk, &msg, &sig, false);
        assert_eq!(cache.lookup(&pk, &msg, &sig), Some(false));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn distinct_triples_are_distinct_keys() {
        let cache = SigCache::new(8);
        let (pk, msg, sig) = triple(1);
        cache.record(&pk, &msg, &sig, true);
        let (pk2, _, _) = triple(2);
        assert_eq!(cache.lookup(&pk2, &msg, &sig), None);
        assert_eq!(cache.lookup(&pk, b"other", &sig), None);
        let mut sig2 = sig;
        sig2[0] ^= 1;
        assert_eq!(cache.lookup(&pk, &msg, &sig2), None);
    }

    #[test]
    fn bounded_with_lru_eviction() {
        let cache = SigCache::new(3);
        for i in 0..3u8 {
            let (pk, msg, sig) = triple(i);
            cache.record(&pk, &msg, &sig, true);
        }
        // Touch entry 0 so entry 1 becomes the LRU victim.
        let (pk0, msg0, sig0) = triple(0);
        assert_eq!(cache.lookup(&pk0, &msg0, &sig0), Some(true));
        let (pk3, msg3, sig3) = triple(3);
        cache.record(&pk3, &msg3, &sig3, true);
        assert_eq!(cache.len(), 3);
        let (pk1, msg1, sig1) = triple(1);
        assert_eq!(cache.lookup(&pk1, &msg1, &sig1), None, "LRU entry evicted");
        assert_eq!(cache.lookup(&pk0, &msg0, &sig0), Some(true));
        assert_eq!(cache.lookup(&pk3, &msg3, &sig3), Some(true));
    }

    #[test]
    fn keyed_miss_path_replays_a_script_exactly() {
        // One script — lookups, records of the misses, re-records, enough
        // distinct triples to evict — through `lookup`/`record` and
        // through `lookup_or_key`/`record_key`. Hits, misses, length and
        // the survivors (hence eviction order) are pinned to what
        // `lookup`/`record` gave before the keyed pair existed.
        let script: Vec<u8> = vec![1, 2, 3, 1, 4, 5, 2, 6, 1, 7, 3, 3, 8, 1, 9, 2];
        let classic = SigCache::new(4);
        let keyed = SigCache::new(4);
        for &i in &script {
            let (pk, msg, sig) = triple(i);
            let valid = i % 3 != 0;
            let seen = classic.lookup(&pk, &msg, &sig);
            if seen.is_none() {
                classic.record(&pk, &msg, &sig, valid);
            }
            match keyed.lookup_or_key(&pk, &msg, &sig) {
                Ok(outcome) => assert_eq!(seen, Some(outcome)),
                Err(key) => {
                    assert_eq!(seen, None);
                    keyed.record_key(key, valid);
                }
            }
        }
        for cache in [&classic, &keyed] {
            let (hits, misses) = (3, 13);
            assert_eq!(cache.stats(), CacheStats { hits, misses });
            assert_eq!(cache.len(), 4);
            let inner = cache.inner.lock().unwrap();
            let survivors: Vec<u8> = (1..=9)
                .filter(|&i| {
                    let (pk, msg, sig) = triple(i);
                    inner.map.contains_key(&SigCache::key(&pk, &msg, &sig).0)
                })
                .collect();
            assert_eq!(survivors, vec![1, 2, 8, 9]);
        }
        // A re-record under a returned key overwrites, as `record` does.
        let (pk, msg, sig) = triple(10);
        let key = keyed.lookup_or_key(&pk, &msg, &sig).unwrap_err();
        keyed.record_key(key, true);
        keyed.record_key(key, false);
        assert_eq!(keyed.lookup(&pk, &msg, &sig), Some(false));
        // A disabled cache still hands back a key, and drops it.
        let off = SigCache::new(0);
        let key = off.lookup_or_key(&pk, &msg, &sig).unwrap_err();
        off.record_key(key, true);
        assert!(off.is_empty());
        assert_eq!(off.stats(), CacheStats::default());
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = SigCache::new(0);
        let (pk, msg, sig) = triple(1);
        cache.record(&pk, &msg, &sig, true);
        assert_eq!(cache.lookup(&pk, &msg, &sig), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn shared_across_threads() {
        let cache = std::sync::Arc::new(SigCache::new(64));
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..16u8 {
                        let (pk, msg, sig) = triple(t * 16 + i);
                        cache.record(&pk, &msg, &sig, true);
                        assert_eq!(cache.lookup(&pk, &msg, &sig), Some(true));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64);
    }
}
