//! Key-shard routing for sharded multi-channel deployments.
//!
//! A sharded deployment runs S independent channels and sends every
//! transaction to the channel(s) owning the keys it touches. Routing is a
//! pure function of the key bytes and the [`ShardMap`] configuration — no
//! load feedback, no randomness — so every replica, every rerun, and
//! every recovery path routes identically.
//!
//! * The **routing prefix** of a key is its first two `~`-separated
//!   components (`acct~alice` → `acct~alice`, `pend~t17~debit` →
//!   `pend~t17`). Entity-level keys therefore shard by entity, while a
//!   request's 2PC bookkeeping keys (`pend~<req>~<leg>`, `fin~<req>`)
//!   follow the request.
//! * The prefix is hashed with FNV-1a (stable across platforms and
//!   builds, unlike `std`'s `DefaultHasher`) modulo the shard count.
//! * Composite namespaces that must stay co-located override the hash
//!   with an **explicit pin**: e.g. pinning `vs~data~` places every view
//!   payload key on one chosen shard regardless of suffix. Longest
//!   matching pin wins.

/// Where a transaction's write-set routes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Route {
    /// Every key lives on one shard: submit directly, no 2PC.
    Single(usize),
    /// Keys span multiple shards (sorted, deduplicated): the deployment
    /// fans the request out as 2PC prepare sub-transactions.
    Cross(Vec<usize>),
}

/// FNV-1a over the key bytes: deterministic, platform-stable, and good
/// enough dispersion for shard assignment.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The routing prefix of a key: everything up to (not including) the
/// second `~` separator, or the whole key if it has fewer components.
pub fn routing_prefix(key: &str) -> &str {
    let mut seps = key
        .char_indices()
        .filter(|&(_, c)| c == '~')
        .map(|(i, _)| i);
    let _first = seps.next();
    match seps.next() {
        Some(i) => &key[..i],
        None => key,
    }
}

/// Deterministic key→shard assignment: FNV-1a of the routing prefix,
/// with longest-matching explicit pins for composite namespaces.
#[derive(Clone, Debug)]
pub struct ShardMap {
    shards: usize,
    /// `(prefix, shard)` pins; longest matching prefix wins, ties broken
    /// by insertion order (first wins).
    pins: Vec<(String, usize)>,
}

impl ShardMap {
    /// A map over `shards` channels with no pins.
    pub fn new(shards: usize) -> ShardMap {
        ShardMap {
            shards: shards.max(1),
            pins: Vec::new(),
        }
    }

    /// Number of shards this map routes over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Pin every key starting with `prefix` to `shard`, overriding the
    /// hash. Use for composite namespaces (e.g. `vs~data~`) whose keys
    /// must stay co-located on one channel.
    ///
    /// # Panics
    ///
    /// If `shard` is not below [`ShardMap::shards`].
    pub fn pin_prefix(&mut self, prefix: &str, shard: usize) {
        assert!(
            shard < self.shards,
            "pin target {shard} out of range (shards = {})",
            self.shards
        );
        self.pins.push((prefix.to_string(), shard));
    }

    /// The shard owning `key`.
    pub fn shard_for_key(&self, key: &str) -> usize {
        let pinned = self
            .pins
            .iter()
            .filter(|(p, _)| key.starts_with(p.as_str()))
            .max_by_key(|(p, _)| p.len())
            .map(|&(_, s)| s);
        match pinned {
            Some(s) => s,
            None => (fnv1a(routing_prefix(key).as_bytes()) % self.shards as u64) as usize,
        }
    }

    /// Route a transaction by the keys it touches. Empty key sets route
    /// to shard 0 (a keyless transaction can run anywhere; picking the
    /// first shard keeps the choice deterministic).
    pub fn route<'a, I>(&self, keys: I) -> Route
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut shards: Vec<usize> = keys.into_iter().map(|k| self.shard_for_key(k)).collect();
        shards.sort_unstable();
        shards.dedup();
        match shards.len() {
            0 => Route::Single(0),
            1 => Route::Single(shards[0]),
            _ => Route::Cross(shards),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_prefix_takes_two_components() {
        assert_eq!(routing_prefix("acct~alice"), "acct~alice");
        assert_eq!(routing_prefix("lock~t17~extra"), "lock~t17");
        assert_eq!(routing_prefix("plain"), "plain");
        assert_eq!(routing_prefix("vs~data~view1~k"), "vs~data");
    }

    #[test]
    fn assignment_is_stable_and_in_range() {
        let map = ShardMap::new(8);
        for i in 0..256 {
            let key = format!("acct~user{i}");
            let s = map.shard_for_key(&key);
            assert!(s < 8);
            assert_eq!(s, map.shard_for_key(&key), "assignment must be stable");
        }
        // The hash must actually disperse: 256 accounts over 8 shards
        // cannot all land on one.
        let hits: std::collections::BTreeSet<usize> = (0..256)
            .map(|i| map.shard_for_key(&format!("acct~user{i}")))
            .collect();
        assert!(hits.len() > 4, "poor dispersion: {hits:?}");
    }

    #[test]
    fn pins_override_hash_longest_wins() {
        let mut map = ShardMap::new(4);
        map.pin_prefix("vs~", 1);
        map.pin_prefix("vs~data~", 3);
        assert_eq!(map.shard_for_key("vs~meta~x"), 1);
        assert_eq!(map.shard_for_key("vs~data~view1~k"), 3);
        // Co-location: every vs~data~ key lands on the pinned shard.
        for i in 0..32 {
            assert_eq!(map.shard_for_key(&format!("vs~data~v{i}~k{i}")), 3);
        }
    }

    #[test]
    fn route_classifies_single_vs_cross() {
        let mut map = ShardMap::new(4);
        map.pin_prefix("a~", 0);
        map.pin_prefix("b~", 2);
        assert_eq!(map.route(["a~1", "a~2"]), Route::Single(0));
        assert_eq!(map.route(["a~1", "b~1"]), Route::Cross(vec![0, 2]));
        assert_eq!(map.route(std::iter::empty::<&str>()), Route::Single(0));
    }
}
