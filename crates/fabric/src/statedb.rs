//! The versioned key-value state database — the substrate's LevelDB.
//!
//! Each key stores its latest value together with the [`Version`] (block
//! number, transaction number) that last wrote it; MVCC validation compares
//! read-set versions against these. A deterministic bucketed Merkle digest
//! over the whole state (see [`crate::digest`]) is computable per block and
//! stored in checkpoints, which is what lets view data live safely in
//! contract state (§5.2 of the paper).
//!
//! Two implementations exist behind the [`VersionedState`] trait: this
//! in-memory [`StateDb`] (a `BTreeMap`, the reference semantics) and the
//! disk-backed LSM state, [`crate::lsm::LsmState`]. Both keep
//! their digest in the same incremental [`StateDigester`]; differential
//! tests hold them bit-identical — values, versions, and digests — and
//! hold the digest to the from-scratch oracle in [`crate::digest`].
//!
//! # Deletes are tombstones
//!
//! `delete` writes a *tombstone* carrying the deleting transaction's
//! version rather than erasing the entry. Live reads skip tombstones, but
//! [`StateDb::version`] still reports them, so a transaction that read
//! key `k` before a delete-and-recreate loses its MVCC race exactly as it
//! would after a plain overwrite — and the state digest commits to the
//! deletion itself.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::OnceLock;

use ledgerview_crypto::sha256::Digest;

pub use ledgerview_statedb::Version;

use crate::digest::{leaf_bytes, StateDigester};
use crate::merkle::{self, MerkleProof};

/// Visitor for [`VersionedState::for_each_entry`]: receives the key, the
/// value (`None` for a tombstone), and the entry's MVCC version.
pub type EntryVisitor<'a> = dyn FnMut(&str, Option<&[u8]>, Version) + 'a;

/// The single interface both state backends implement. Methods return
/// owned data (the trait must be object-safe and shareable across the
/// parallel-validation read path, hence `Send + Sync` and no borrowed
/// returns); the concrete [`StateDb`] additionally keeps its borrowing
/// inherent methods for hot in-process callers.
pub trait VersionedState: Send + Sync {
    /// Latest live value for `key` (`None` for absent or tombstoned).
    fn get(&self, key: &str) -> Option<Vec<u8>>;

    /// Latest version for `key`, **including tombstones** — the MVCC
    /// lookup. A deleted key reports the deleting version.
    fn version(&self, key: &str) -> Option<Version>;

    /// Value and version in one probe (what endorsement reads): the
    /// version includes tombstones, the value is live-only.
    fn lookup(&self, key: &str) -> (Option<Vec<u8>>, Option<Version>);

    /// Write `value` under `key` at `version`.
    fn put(&mut self, key: String, value: Vec<u8>, version: Version);

    /// Delete `key` at `version`, recording a digest-visible tombstone
    /// (also for never-written keys — both backends follow one rule).
    fn delete(&mut self, key: &str, version: Version);

    /// Live entries in `[start, end)`, in key order.
    fn range_scan(&self, start: &str, end: &str) -> Vec<(String, Vec<u8>)>;

    /// Live entries with the given key prefix, in key order.
    fn prefix_scan(&self, prefix: &str) -> Vec<(String, Vec<u8>)>;

    /// Number of live keys.
    fn len(&self) -> usize;

    /// Whether no live keys exist (tombstones may still).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Σ (key + value + 12) over all entries, tombstones included.
    fn size_bytes(&self) -> u64;

    /// The deterministic bucketed state digest (see [`crate::digest`]).
    fn state_digest(&self) -> Digest;

    /// Visit every entry — live and tombstoned — in ascending key order
    /// (what snapshots serialize).
    fn for_each_entry(&self, f: &mut EntryVisitor<'_>);

    /// Inclusion proof that `key` holds its current value under the
    /// current digest; `None` for absent or tombstoned keys. Returns the
    /// proof and the canonical leaf encoding.
    fn prove(&self, key: &str) -> Option<(MerkleProof, Vec<u8>)>;
}

#[derive(Clone, Debug)]
struct Entry {
    /// `None` = tombstone.
    value: Option<Vec<u8>>,
    version: Version,
}

/// An in-memory versioned KV store with range scans and Merkle digests.
#[derive(Clone, Debug, Default)]
pub struct StateDb {
    entries: BTreeMap<String, Entry>,
    live: usize,
    /// Built from `entries` by the first digest or proof request and fed
    /// every write from then on: a state nobody digests (an endorser's
    /// scratch chain, a bulk load) pays neither its hashing nor its memory.
    digester: OnceLock<StateDigester>,
}

impl StateDb {
    /// An empty state database.
    pub fn new() -> StateDb {
        StateDb::default()
    }

    /// Deep-copy any backend's contents — tombstones included — into an
    /// in-memory database. The copy's digest is bit-identical to the
    /// source's (both digest the same entries), which is what makes this
    /// useful as a reference twin in differential tests.
    pub fn materialize(state: &dyn VersionedState) -> StateDb {
        let mut out = StateDb::new();
        state.for_each_entry(&mut |key, value, version| match value {
            Some(v) => out.put(key.to_string(), v.to_vec(), version),
            None => out.delete(key, version),
        });
        out
    }

    /// Latest live value for `key`, if present.
    pub fn get(&self, key: &str) -> Option<&[u8]> {
        self.entries.get(key).and_then(|e| e.value.as_deref())
    }

    /// Latest version for `key` — tombstones included (MVCC semantics;
    /// see the module docs).
    pub fn version(&self, key: &str) -> Option<Version> {
        self.entries.get(key).map(|e| e.version)
    }

    /// Live value and version together (what endorsement reads).
    pub fn get_with_version(&self, key: &str) -> Option<(&[u8], Version)> {
        self.entries
            .get(key)
            .and_then(|e| e.value.as_deref().map(|v| (v, e.version)))
    }

    /// Write `value` under `key` at `version`.
    pub fn put(&mut self, key: String, value: Vec<u8>, version: Version) {
        if let Some(digester) = self.digester.get_mut() {
            digester.apply(&key, Some(&value), version);
        }
        let old = self.entries.insert(
            key,
            Entry {
                value: Some(value),
                version,
            },
        );
        if !matches!(old, Some(Entry { value: Some(_), .. })) {
            self.live += 1;
        }
    }

    /// Delete `key` at `version`: writes a tombstone that future MVCC
    /// reads and the state digest both observe.
    pub fn delete(&mut self, key: &str, version: Version) {
        if let Some(digester) = self.digester.get_mut() {
            digester.apply(key, None, version);
        }
        let old = self.entries.insert(
            key.to_string(),
            Entry {
                value: None,
                version,
            },
        );
        if matches!(old, Some(Entry { value: Some(_), .. })) {
            self.live -= 1;
        }
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the store has no live keys.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Range scan over live keys in `[start, end)` in key order (like
    /// Fabric's `GetStateByRange`).
    pub fn range(&self, start: &str, end: &str) -> impl Iterator<Item = (&str, &[u8])> {
        self.entries
            .range::<str, _>((Bound::Included(start), Bound::Excluded(end)))
            .filter_map(|(k, e)| e.value.as_deref().map(|v| (k.as_str(), v)))
    }

    /// All live keys with the given prefix, in key order.
    pub fn scan_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (&'a str, &'a [u8])> {
        self.entries
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .filter_map(|(k, e)| e.value.as_deref().map(|v| (k.as_str(), v)))
    }

    /// Every entry as `(key, value-or-tombstone, version)` in key order —
    /// what the storage layer serializes into a snapshot checkpoint.
    pub fn iter_entries(&self) -> impl Iterator<Item = (&str, Option<&[u8]>, Version)> {
        self.entries
            .iter()
            .map(|(k, e)| (k.as_str(), e.value.as_deref(), e.version))
    }

    /// Total bytes of keys + values + version metadata, tombstones
    /// included (storage accounting for Fig 9).
    pub fn size_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(k, e)| (k.len() + e.value.as_deref().map_or(0, <[u8]>::len) + 12) as u64)
            .sum()
    }

    fn digester(&self) -> &StateDigester {
        self.digester.get_or_init(|| {
            let mut digester = StateDigester::new();
            for (key, value, version) in self.iter_entries() {
                digester.apply(key, value, version);
            }
            digester
        })
    }

    /// Deterministic bucketed Merkle digest over the full state. The
    /// first call hashes every entry; later calls cost only the writes
    /// in between (see [`crate::digest`]).
    pub fn state_digest(&self) -> Digest {
        self.digester().digest()
    }

    /// Produce an inclusion proof that `key` holds its current value under
    /// the current state digest. Returns the proof and the leaf encoding.
    /// Tombstoned and absent keys have no proof.
    pub fn prove(&self, key: &str) -> Option<(MerkleProof, Vec<u8>)> {
        let entry = self.entries.get(key)?;
        let value = entry.value.as_deref()?;
        let proof = self.digester().prove(key)?;
        Some((proof, leaf_bytes(key, Some(value), entry.version)))
    }

    /// Verify an inclusion proof produced by [`StateDb::prove`] against a
    /// state digest.
    pub fn verify_proof(digest: &Digest, leaf: &[u8], proof: &MerkleProof) -> bool {
        merkle::verify_inclusion(digest, leaf, proof)
    }
}

impl VersionedState for StateDb {
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        StateDb::get(self, key).map(<[u8]>::to_vec)
    }

    fn version(&self, key: &str) -> Option<Version> {
        StateDb::version(self, key)
    }

    fn lookup(&self, key: &str) -> (Option<Vec<u8>>, Option<Version>) {
        match self.entries.get(key) {
            None => (None, None),
            Some(e) => (e.value.clone(), Some(e.version)),
        }
    }

    fn put(&mut self, key: String, value: Vec<u8>, version: Version) {
        StateDb::put(self, key, value, version);
    }

    fn delete(&mut self, key: &str, version: Version) {
        StateDb::delete(self, key, version);
    }

    fn range_scan(&self, start: &str, end: &str) -> Vec<(String, Vec<u8>)> {
        self.range(start, end)
            .map(|(k, v)| (k.to_string(), v.to_vec()))
            .collect()
    }

    fn prefix_scan(&self, prefix: &str) -> Vec<(String, Vec<u8>)> {
        self.scan_prefix(prefix)
            .map(|(k, v)| (k.to_string(), v.to_vec()))
            .collect()
    }

    fn len(&self) -> usize {
        StateDb::len(self)
    }

    fn size_bytes(&self) -> u64 {
        StateDb::size_bytes(self)
    }

    fn state_digest(&self) -> Digest {
        StateDb::state_digest(self)
    }

    fn for_each_entry(&self, f: &mut EntryVisitor<'_>) {
        for (k, v, ver) in self.iter_entries() {
            f(k, v, ver);
        }
    }

    fn prove(&self, key: &str) -> Option<(MerkleProof, Vec<u8>)> {
        StateDb::prove(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(b: u64, t: u32) -> Version {
        Version {
            block_num: b,
            tx_num: t,
        }
    }

    #[test]
    fn put_get_version() {
        let mut db = StateDb::new();
        db.put("k1".into(), b"v1".to_vec(), v(1, 0));
        assert_eq!(db.get("k1"), Some(&b"v1"[..]));
        assert_eq!(db.version("k1"), Some(v(1, 0)));
        assert_eq!(db.get("missing"), None);
        assert_eq!(db.version("missing"), None);

        db.put("k1".into(), b"v2".to_vec(), v(2, 3));
        assert_eq!(db.get("k1"), Some(&b"v2"[..]));
        assert_eq!(db.version("k1"), Some(v(2, 3)));
    }

    #[test]
    fn delete_leaves_versioned_tombstone() {
        let mut db = StateDb::new();
        db.put("a".into(), b"1".to_vec(), v(1, 0));
        db.put("b".into(), b"2".to_vec(), v(1, 1));
        let before = db.state_digest();
        db.delete("a", v(2, 0));
        // Live view: gone.
        assert_eq!(db.get("a"), None);
        assert_eq!(db.get_with_version("a"), None);
        assert_eq!(db.len(), 1);
        // MVCC view: the deleting version is still visible.
        assert_eq!(db.version("a"), Some(v(2, 0)));
        // Digest view: the tombstone changed the digest.
        assert_ne!(db.state_digest(), before);
    }

    #[test]
    fn delete_recreate_changes_version_not_amnesia() {
        // The ABA case: read at v1, delete at v2, recreate at v3. The
        // version chain must never revert to "absent".
        let mut db = StateDb::new();
        db.put("k".into(), b"x".to_vec(), v(1, 0));
        db.delete("k", v(2, 0));
        assert_eq!(db.version("k"), Some(v(2, 0)));
        db.put("k".into(), b"y".to_vec(), v(3, 0));
        assert_eq!(db.version("k"), Some(v(3, 0)));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn delete_absent_key_still_tombstones() {
        let mut db = StateDb::new();
        let empty = db.state_digest();
        db.delete("ghost", v(1, 0));
        assert_eq!(db.len(), 0);
        assert_eq!(db.version("ghost"), Some(v(1, 0)));
        assert_ne!(db.state_digest(), empty);
    }

    #[test]
    fn range_scan() {
        let mut db = StateDb::new();
        for key in ["item~1", "item~2", "item~3", "view~a"] {
            db.put(key.into(), b"x".to_vec(), v(1, 0));
        }
        db.delete("item~2", v(2, 0));
        let keys: Vec<&str> = db.range("item~", "item~~").map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["item~1", "item~3"], "tombstones are not live");
    }

    #[test]
    fn prefix_scan() {
        let mut db = StateDb::new();
        for key in ["view~v1~t1", "view~v1~t2", "view~v2~t1", "zz"] {
            db.put(key.into(), b"x".to_vec(), v(1, 0));
        }
        let keys: Vec<&str> = db.scan_prefix("view~v1~").map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["view~v1~t1", "view~v1~t2"]);
        assert_eq!(db.scan_prefix("absent~").count(), 0);
    }

    #[test]
    fn digest_deterministic_and_order_independent() {
        let mut a = StateDb::new();
        a.put("x".into(), b"1".to_vec(), v(1, 0));
        a.put("y".into(), b"2".to_vec(), v(1, 1));
        let mut b = StateDb::new();
        b.put("y".into(), b"2".to_vec(), v(1, 1));
        b.put("x".into(), b"1".to_vec(), v(1, 0));
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn digest_depends_on_value_and_version() {
        let mut a = StateDb::new();
        a.put("x".into(), b"1".to_vec(), v(1, 0));
        let base = a.state_digest();

        let mut b = StateDb::new();
        b.put("x".into(), b"2".to_vec(), v(1, 0));
        assert_ne!(b.state_digest(), base, "value must affect digest");

        let mut c = StateDb::new();
        c.put("x".into(), b"1".to_vec(), v(2, 0));
        assert_ne!(c.state_digest(), base, "version must affect digest");
    }

    #[test]
    fn empty_digest_stable() {
        assert_eq!(StateDb::new().state_digest(), StateDb::new().state_digest());
    }

    #[test]
    fn inclusion_proofs() {
        let mut db = StateDb::new();
        for i in 0..10 {
            db.put(format!("key-{i}"), format!("val-{i}").into_bytes(), v(1, i));
        }
        db.delete("key-9", v(2, 0));
        let digest = db.state_digest();
        let (proof, leaf) = db.prove("key-4").unwrap();
        assert!(StateDb::verify_proof(&digest, &leaf, &proof));
        // Tampered leaf fails.
        let mut bad = leaf.clone();
        bad[10] ^= 1;
        assert!(!StateDb::verify_proof(&digest, &bad, &proof));
        // Missing / tombstoned keys have no proof.
        assert!(db.prove("absent").is_none());
        assert!(db.prove("key-9").is_none());
    }

    #[test]
    fn size_accounting_monotone() {
        let mut db = StateDb::new();
        let s0 = db.size_bytes();
        db.put("key".into(), vec![0u8; 100], v(1, 0));
        let s1 = db.size_bytes();
        assert!(s1 > s0 + 100);
        // A tombstone shrinks but does not erase the accounting.
        db.delete("key", v(2, 0));
        let s2 = db.size_bytes();
        assert!(s2 > 0 && s2 < s1);
    }

    #[test]
    fn trait_object_view_matches_concrete() {
        let mut db = StateDb::new();
        db.put("a".into(), b"1".to_vec(), v(1, 0));
        db.delete("a", v(2, 0));
        db.put("b".into(), b"2".to_vec(), v(2, 1));
        let dyn_db: &dyn VersionedState = &db;
        assert_eq!(dyn_db.get("a"), None);
        assert_eq!(dyn_db.get("b"), Some(b"2".to_vec()));
        assert_eq!(dyn_db.version("a"), Some(v(2, 0)));
        assert_eq!(dyn_db.lookup("a"), (None, Some(v(2, 0))));
        assert_eq!(dyn_db.lookup("b"), (Some(b"2".to_vec()), Some(v(2, 1))));
        assert_eq!(dyn_db.lookup("c"), (None, None));
        assert_eq!(dyn_db.len(), 1);
        assert_eq!(dyn_db.state_digest(), db.state_digest());
        let mut entries = Vec::new();
        dyn_db.for_each_entry(&mut |k, val, ver| {
            entries.push((k.to_string(), val.map(<[u8]>::to_vec), ver));
        });
        assert_eq!(
            entries,
            vec![
                ("a".to_string(), None, v(2, 0)),
                ("b".to_string(), Some(b"2".to_vec()), v(2, 1)),
            ]
        );
    }
}
