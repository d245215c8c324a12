//! A bounded LRU cache of signature-verification outcomes.
//!
//! The same few certificates arrive with every proposal response and every
//! block, so the identical `(public key, message, signature)` triple is put
//! to the verifier again and again. Caching the boolean outcome keyed by a
//! digest of the triple turns those repeats into a hash lookup.
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
/// returned by a missed [`SigCache::lookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheKey([u8; 32]);

/// Bounded LRU cache of `(pubkey, message, signature)` verification
/// outcomes.
pub struct SigCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl SigCache {
    /// Create a cache holding at most `capacity` entries (at least one).
    pub fn new(capacity: usize) -> Self {
        SigCache {
            capacity: capacity.max(1),
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

    /// The cached outcome for a triple, refreshing its recency — or, on a
    /// miss, the triple's key, so the caller can [`SigCache::record`] its
    /// verdict without hashing the triple a second time.
    pub fn lookup(
        &self,
        public_key: &[u8; 32],
        message: &[u8],
        signature: &[u8; 64],
    ) -> Result<bool, CacheKey> {
        let key = Self::key(public_key, message, signature);
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

    /// Record the verification outcome under the key a missed
    /// [`SigCache::lookup`] returned, evicting the least recently used
    /// entry if the cache is full.
    pub fn record(&self, key: CacheKey, valid: bool) {
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

    fn lookup(cache: &SigCache, i: u8) -> Option<bool> {
        let (pk, msg, sig) = triple(i);
        cache.lookup(&pk, &msg, &sig).ok()
    }

    /// Record a verdict for triple `i` (which must not be cached yet).
    fn record(cache: &SigCache, i: u8, valid: bool) {
        let (pk, msg, sig) = triple(i);
        let key = cache.lookup(&pk, &msg, &sig).unwrap_err();
        cache.record(key, valid);
    }

    #[test]
    fn hit_miss_and_outcomes() {
        let cache = SigCache::new(8);
        let (pk, msg, sig) = triple(1);
        let key = cache.lookup(&pk, &msg, &sig).unwrap_err();
        cache.record(key, true);
        assert_eq!(lookup(&cache, 1), Some(true));
        // A re-record under the same key overwrites.
        cache.record(key, false);
        assert_eq!(lookup(&cache, 1), Some(false));
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn distinct_triples_are_distinct_keys() {
        let cache = SigCache::new(8);
        let (pk, msg, sig) = triple(1);
        record(&cache, 1, true);
        let (pk2, _, _) = triple(2);
        assert!(cache.lookup(&pk2, &msg, &sig).is_err());
        assert!(cache.lookup(&pk, b"other", &sig).is_err());
        let mut sig2 = sig;
        sig2[0] ^= 1;
        assert!(cache.lookup(&pk, &msg, &sig2).is_err());
    }

    #[test]
    fn bounded_with_lru_eviction() {
        let cache = SigCache::new(3);
        for i in 0..3u8 {
            record(&cache, i, true);
        }
        // Touch entry 0 so entry 1 becomes the LRU victim.
        assert_eq!(lookup(&cache, 0), Some(true));
        record(&cache, 3, true);
        assert_eq!(cache.len(), 3);
        assert_eq!(lookup(&cache, 1), None, "LRU entry evicted");
        assert_eq!(lookup(&cache, 0), Some(true));
        assert_eq!(lookup(&cache, 3), Some(true));
    }

    #[test]
    fn keyed_miss_path_replays_a_script_exactly() {
        // One script — lookups, records of the misses, enough distinct
        // triples to evict. Hits, misses, length and the survivors (hence
        // eviction order) are pinned to what the un-keyed `lookup`/`record`
        // pair gave before the keyed pair replaced it.
        let script: Vec<u8> = vec![1, 2, 3, 1, 4, 5, 2, 6, 1, 7, 3, 3, 8, 1, 9, 2];
        let cache = SigCache::new(4);
        for &i in &script {
            let (pk, msg, sig) = triple(i);
            let valid = i % 3 != 0;
            match cache.lookup(&pk, &msg, &sig) {
                Ok(outcome) => assert_eq!(outcome, valid),
                Err(key) => cache.record(key, valid),
            }
        }
        let (hits, misses) = (3, 13);
        assert_eq!(cache.stats(), CacheStats { hits, misses });
        assert_eq!(cache.len(), 4);
        let survivors: Vec<u8> = {
            let inner = cache.inner.lock().unwrap();
            (1..=9)
                .filter(|&i| {
                    let (pk, msg, sig) = triple(i);
                    inner.map.contains_key(&SigCache::key(&pk, &msg, &sig).0)
                })
                .collect()
        };
        assert_eq!(survivors, vec![1, 2, 8, 9]);
    }

    #[test]
    fn zero_capacity_holds_one_entry() {
        let cache = SigCache::new(0);
        record(&cache, 1, true);
        record(&cache, 2, false);
        assert_eq!(cache.len(), 1);
        assert_eq!(lookup(&cache, 2), Some(false));
    }

    #[test]
    fn shared_across_threads() {
        let cache = SigCache::new(64);
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..16u8 {
                        record(cache, t * 16 + i, true);
                        assert_eq!(lookup(cache, t * 16 + i), Some(true));
                    }
                });
            }
        });
        assert_eq!(cache.len(), 64);
    }
}
