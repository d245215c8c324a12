//! The mutable in-memory write buffer at the top of the LSM tree.
//!
//! A memtable is a sorted map from key to the *newest* record for that
//! key (value or tombstone, plus its MVCC version). It absorbs writes
//! until its byte footprint crosses the configured threshold, at which
//! point the engine freezes it into an immutable L0 SSTable. Durability
//! before the flush comes from the caller's write-ahead log, not from
//! the memtable itself.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::Version;

/// One buffered record: `None` value = tombstone.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemEntry {
    pub value: Option<Vec<u8>>,
    pub version: Version,
}

/// Approximate in-memory footprint of one record (key + value + fixed
/// per-entry overhead for the version and map node).
fn entry_cost(key: &str, value: Option<&[u8]>) -> usize {
    key.len() + value.map_or(0, <[u8]>::len) + 48
}

/// Sorted write buffer with byte accounting.
#[derive(Default)]
pub struct Memtable {
    entries: BTreeMap<String, MemEntry>,
    bytes: usize,
}

impl Memtable {
    pub fn new() -> Memtable {
        Memtable::default()
    }

    /// Insert or overwrite a record; the newest write for a key wins.
    pub fn upsert(&mut self, key: String, value: Option<Vec<u8>>, version: Version) {
        let key_len = key.len();
        let added = entry_cost(&key, value.as_deref());
        if let Some(old) = self.entries.insert(key, MemEntry { value, version }) {
            // The displaced record shared the same key, so its exact cost
            // is recoverable from the old value alone.
            let removed = key_len + old.value.as_deref().map_or(0, <[u8]>::len) + 48;
            self.bytes = self.bytes.saturating_sub(removed);
        }
        self.bytes += added;
    }

    /// Newest buffered record for `key`, if any.
    pub fn get(&self, key: &str) -> Option<&MemEntry> {
        self.entries.get(key)
    }

    /// Iterate all buffered records in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &MemEntry)> {
        self.entries.iter()
    }

    /// Iterate records with `start <= key` and (if bounded) `key < end`.
    pub fn range<'a>(
        &'a self,
        start: &str,
        end: Option<&str>,
    ) -> impl Iterator<Item = (&'a String, &'a MemEntry)> + 'a {
        let lower = Bound::Included(start.to_string());
        let upper = match end {
            Some(e) => Bound::Excluded(e.to_string()),
            None => Bound::Unbounded,
        };
        self.entries.range((lower, upper))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Approximate buffered bytes (drives the flush threshold).
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const V: Version = Version {
        block_num: 1,
        tx_num: 0,
    };

    #[test]
    fn upsert_and_get() {
        let mut m = Memtable::new();
        m.upsert("a".into(), Some(b"1".to_vec()), V);
        m.upsert("b".into(), None, V);
        assert_eq!(m.get("a").unwrap().value.as_deref(), Some(&b"1"[..]));
        assert_eq!(m.get("b").unwrap().value, None);
        assert!(m.get("c").is_none());
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overwrite_keeps_byte_accounting_exact() {
        let mut m = Memtable::new();
        m.upsert("key".into(), Some(vec![0u8; 100]), V);
        let after_first = m.bytes();
        for _ in 0..10 {
            m.upsert("key".into(), Some(vec![0u8; 100]), V);
        }
        assert_eq!(m.bytes(), after_first);
        m.upsert("key".into(), None, V);
        assert_eq!(m.bytes(), after_first - 100);
    }

    #[test]
    fn range_respects_bounds() {
        let mut m = Memtable::new();
        for k in ["a", "b", "c", "d"] {
            m.upsert(k.into(), Some(vec![]), V);
        }
        let keys: Vec<&str> = m.range("b", Some("d")).map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["b", "c"]);
        let keys: Vec<&str> = m.range("c", None).map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["c", "d"]);
    }
}
