//! The bucketed state digest — one deterministic Merkle commitment over
//! the full versioned state, maintained by one [`StateDigester`] behind
//! every backend.
//!
//! # Layout
//!
//! Keys hash (FNV-1a) into one of [`DIGEST_BUCKETS`] fixed buckets. Each
//! bucket commits to its entries — **in key order, tombstones included**
//! — with a Merkle root over leaf encodings of `(key, value-or-tombstone,
//! version)`; an empty bucket contributes [`merkle::empty_root`]. The
//! state digest is the Merkle root over the `DIGEST_BUCKETS` bucket
//! roots (a fixed-shape tree, since the bucket count is a power of two).
//! The shape is a pure function of the key set, so the digest does not
//! depend on write order, flush or compaction timing.
//!
//! # Cost
//!
//! The digester hashes only what changed. Every write hashes its leaf;
//! each bucket caches the interior levels of its tree and the top tree is
//! cached whole, and [`StateDigester::digest`] refreshes both level by
//! level over the de-duplicated set of touched positions:
//!
//! * an overwrite or tombstone of an existing key re-hashes one
//!   leaf→root path of its bucket — log₂(bucket size) nodes, fewer where
//!   paths of several writes merge;
//! * a key that is new to its bucket shifts the positions after it, so
//!   that bucket's interior is rebuilt (bucket size − 1 nodes);
//! * the top tree costs min(dirty·log₂ B, B − 1) nodes per `digest()`,
//!   however many writes fell into each dirty bucket.
//!
//! Per `digest()` that is O(writes·log(bucket) + min(dirty·log B, B))
//! node hashes, independent of the state size; a clean digester answers
//! from the cached root. Memory is about two digests per entry (the leaf
//! hash and, amortised, one interior node) plus the key and version.
//! Construction hashes and allocates nothing: the bucket tables appear
//! with the first write and the top tree with the first non-empty
//! `digest()`.
//!
//! # Tombstones are part of the digest
//!
//! A delete writes a tombstone leaf carrying the deleting transaction's
//! [`Version`]. This makes deletions tamper-evident (a recreated key
//! cannot masquerade as its ancestor) and — because tombstones are never
//! garbage-collected by either backend — keeps the digest independent of
//! compaction timing.
//!
//! Inclusion proofs compose the in-bucket path with the bucket-tree path
//! and verify with the existing [`merkle::verify_inclusion`].
//!
//! [`digest_of_entries`] and [`prove_in_buckets`] rebuild the same
//! commitment from scratch; they exist as the oracle tests hold the
//! digester to and nothing on a commit path calls them.

use std::sync::{Mutex, MutexGuard, OnceLock};

use ledgerview_crypto::sha256::Digest;
use ledgerview_statedb::bloom::fnv1a64;

use crate::merkle::{self, leaf_hash, node_hash, MerkleProof, MerkleTree, ProofStep};
use crate::statedb::Version;
use crate::wire::Writer;

/// Number of digest buckets (power of two; the top tree has a fixed,
/// perfect-binary shape).
pub const DIGEST_BUCKETS: usize = 1024;

/// Which bucket a key commits into.
pub fn bucket_of(key: &str) -> usize {
    (fnv1a64(key.as_bytes()) as usize) & (DIGEST_BUCKETS - 1)
}

/// Canonical leaf encoding of one state entry. Tag 1 = live value,
/// tag 0 = tombstone (no value bytes).
pub fn leaf_bytes(key: &str, value: Option<&[u8]>, version: Version) -> Vec<u8> {
    let mut w = Writer::new();
    w.string(key);
    match value {
        Some(v) => {
            w.u8(1);
            w.bytes(v);
        }
        None => {
            w.u8(0);
        }
    }
    w.u64(version.block_num).u32(version.tx_num);
    w.into_bytes()
}

// ---------------------------------------------------------------------------
// from-scratch oracle
// ---------------------------------------------------------------------------

/// Merkle root of one bucket given its leaf hashes in key order.
fn bucket_root(leaves: &[Digest]) -> Digest {
    MerkleTree::from_leaf_hashes(leaves.to_vec()).root()
}

/// Full-state digest from an iterator of entries **in ascending key
/// order** (tombstones included): the O(N) reference construction that
/// tests compare [`StateDigester::digest`] against.
pub fn digest_of_entries<'a>(
    entries: impl Iterator<Item = (&'a str, Option<&'a [u8]>, Version)>,
) -> Digest {
    let mut buckets: Vec<Vec<Digest>> = vec![Vec::new(); DIGEST_BUCKETS];
    for (key, value, version) in entries {
        buckets[bucket_of(key)].push(leaf_hash(&leaf_bytes(key, value, version)));
    }
    let roots: Vec<Digest> = buckets.iter().map(|b| bucket_root(b)).collect();
    MerkleTree::from_leaf_hashes(roots).root()
}

/// The reference composite inclusion proof for the entry at `idx` of
/// bucket `bucket`, given every bucket's leaf hashes — what tests compare
/// [`StateDigester::prove`] against.
pub fn prove_in_buckets(bucket_leaves: &[Vec<Digest>], bucket: usize, idx: usize) -> MerkleProof {
    debug_assert_eq!(bucket_leaves.len(), DIGEST_BUCKETS);
    let inner = MerkleTree::from_leaf_hashes(bucket_leaves[bucket].clone());
    let mut proof = inner.prove(idx);
    let roots: Vec<Digest> = bucket_leaves.iter().map(|b| bucket_root(b)).collect();
    let top = MerkleTree::from_leaf_hashes(roots);
    proof.steps.extend(top.prove(bucket).steps);
    proof
}

// ---------------------------------------------------------------------------
// incremental digester
// ---------------------------------------------------------------------------

/// One entry in the digester's in-memory directory. Values live with the
/// backend; only the key, leaf hash, version, and liveness are kept here.
#[derive(Clone, Debug)]
struct DirEntry {
    key: Box<str>,
    leaf: Digest,
    version: Version,
    /// Value length in bytes (0 for tombstones) — storage accounting.
    vlen: u32,
    live: bool,
}

/// Position of `key` in a sorted bucket, or where it would be inserted.
fn find(bucket: &[DirEntry], key: &str) -> Result<usize, usize> {
    bucket.binary_search_by(|e| e.key.as_ref().cmp(key))
}

/// Height of the top tree over the bucket roots.
const TOP_LEVELS: usize = DIGEST_BUCKETS.trailing_zeros() as usize;

/// Digests of the all-empty top tree, one per level: `[0]` is the root of
/// an empty bucket, `[TOP_LEVELS]` the digest of the empty state.
fn empty_levels() -> &'static [Digest; TOP_LEVELS + 1] {
    static LEVELS: OnceLock<[Digest; TOP_LEVELS + 1]> = OnceLock::new();
    LEVELS.get_or_init(|| {
        let mut levels = [merkle::empty_root(); TOP_LEVELS + 1];
        for d in 1..=TOP_LEVELS {
            levels[d] = node_hash(&levels[d - 1], &levels[d - 1]);
        }
        levels
    })
}

/// The cached Merkle tree of one bucket, above its leaves (the leaf
/// hashes live in the bucket's [`DirEntry`]s).
#[derive(Clone, Default)]
struct BucketTree {
    /// Interior levels, flat: the ⌈n/2⌉ nodes over the n leaves first,
    /// the root last. Empty = rebuild from the leaves (nothing cached
    /// yet, positions shifted, or fewer than two leaves).
    nodes: Vec<Digest>,
    /// Leaf positions rewritten since `nodes` was last refreshed;
    /// non-empty = the bucket root the top tree holds is stale.
    touched: Vec<u32>,
}

impl BucketTree {
    /// Record a write to leaf `idx` of a bucket that now holds `n`
    /// entries; `shifted` when the key is new and moved the positions
    /// after it. Returns whether the bucket was clean before.
    fn mark(&mut self, idx: usize, n: usize, shifted: bool) -> bool {
        let was_clean = self.touched.is_empty();
        // A bucket nobody digests must not collect marks without bound:
        // past one mark per leaf, fall back to a rebuild.
        if shifted || self.touched.len() >= n {
            self.nodes.clear();
            self.touched.clear();
        }
        self.touched.push(idx as u32);
        was_clean
    }

    /// Re-hash what the marks since the last call invalidated, level by
    /// level over the de-duplicated positions, and return the bucket root.
    fn refresh(&mut self, entries: &[DirEntry]) -> Digest {
        let n = entries.len();
        let mut dirty = std::mem::take(&mut self.touched);
        if self.nodes.is_empty() {
            dirty = (0..n as u32).collect();
            self.nodes.resize(interior_len(n), Digest::ZERO);
        }
        dirty.sort_unstable();
        // `below` is the level being read (`None` = the leaves, else its
        // offset in `nodes`), `len` its length, `at` where its parents go.
        let (mut below, mut len, mut at) = (None, n, 0);
        while len > 1 {
            for i in dirty.iter_mut() {
                *i /= 2;
            }
            dirty.dedup();
            for &parent in &dirty {
                let (left, right) = (2 * parent as usize, 2 * parent as usize + 1);
                let node = if right < len {
                    node_hash(
                        &self.child(entries, below, left),
                        &self.child(entries, below, right),
                    )
                } else {
                    self.child(entries, below, left)
                };
                self.nodes[at + parent as usize] = node;
            }
            below = Some(at);
            len = len.div_ceil(2);
            at += len;
        }
        dirty.clear();
        self.touched = dirty;
        match (self.nodes.last(), entries.first()) {
            (Some(root), _) => *root,
            (None, Some(only)) => only.leaf,
            (None, None) => merkle::empty_root(),
        }
    }

    /// Digest `i` of the level at offset `level` of `nodes` (`None` = the
    /// leaves).
    fn child(&self, entries: &[DirEntry], level: Option<usize>, i: usize) -> Digest {
        match level {
            None => entries[i].leaf,
            Some(offset) => self.nodes[offset + i],
        }
    }

    /// Sibling path from leaf `idx` to the bucket root (odd nodes are
    /// promoted without a step). The tree must be refreshed.
    fn path(&self, entries: &[DirEntry], mut idx: usize, steps: &mut Vec<ProofStep>) {
        let (mut level, mut len, mut next) = (None, entries.len(), 0);
        while len > 1 {
            let sibling = idx ^ 1;
            if sibling < len {
                steps.push(ProofStep {
                    sibling: self.child(entries, level, sibling),
                    sibling_on_right: sibling > idx,
                });
            }
            idx /= 2;
            level = Some(next);
            len = len.div_ceil(2);
            next += len;
        }
    }
}

/// Number of interior nodes (every level above the leaves) of an
/// odd-promoting Merkle tree over `n` leaves.
fn interior_len(mut n: usize) -> usize {
    let mut total = 0;
    while n > 1 {
        n = n.div_ceil(2);
        total += n;
    }
    total
}

/// Everything `digest()` refreshes behind `&self`: the per-bucket trees,
/// which buckets carry marks, and the top tree.
#[derive(Clone, Default)]
struct Hashes {
    /// One tree per bucket; empty until the first write.
    trees: Vec<BucketTree>,
    /// Buckets with marks, each once, in mark order.
    dirty: Vec<usize>,
    /// The top tree as a heap: root at 1, children of `i` at `2i` and
    /// `2i + 1`, bucket `b`'s root at `DIGEST_BUCKETS + b`. Empty until
    /// the first refresh, when it starts from [`empty_levels`].
    top: Vec<Digest>,
}

impl Hashes {
    fn refresh(&mut self, buckets: &[Vec<DirEntry>]) {
        if self.dirty.is_empty() {
            return;
        }
        if self.top.is_empty() {
            self.top = vec![Digest::ZERO; 2 * DIGEST_BUCKETS];
            for (d, empty) in empty_levels().iter().enumerate() {
                let start = DIGEST_BUCKETS >> d;
                self.top[start..2 * start].fill(*empty);
            }
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        for node in dirty.iter_mut() {
            let b = *node;
            *node = DIGEST_BUCKETS + b;
            self.top[*node] = self.trees[b].refresh(&buckets[b]);
        }
        // Parents of a sorted level are sorted, so one dedup pass per
        // level leaves each shared ancestor hashed once.
        for _ in 0..TOP_LEVELS {
            for node in dirty.iter_mut() {
                *node /= 2;
            }
            dirty.dedup();
            for &node in &dirty {
                self.top[node] = node_hash(&self.top[2 * node], &self.top[2 * node + 1]);
            }
        }
        dirty.clear();
        self.dirty = dirty;
    }
}

/// The incrementally maintained bucketed digest and per-key directory
/// behind every state backend: it is fed the same puts and deletes the
/// backend receives and serves `version`/`len`/`digest`/`prove` without
/// touching the values. Reads take `&self` (cached hashes refresh behind
/// a mutex), matching the shared read path of parallel validation.
#[derive(Default)]
pub struct StateDigester {
    /// Sorted entries per bucket; empty until the first write.
    buckets: Vec<Vec<DirEntry>>,
    live_count: usize,
    /// Σ (key + value + 12) over all entries.
    size_bytes: u64,
    hashes: Mutex<Hashes>,
}

impl Clone for StateDigester {
    fn clone(&self) -> StateDigester {
        StateDigester {
            buckets: self.buckets.clone(),
            live_count: self.live_count,
            size_bytes: self.size_bytes,
            hashes: Mutex::new(self.hashes().clone()),
        }
    }
}

impl std::fmt::Debug for StateDigester {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateDigester")
            .field("entries", &self.total_entries())
            .field("live", &self.live_count)
            .finish()
    }
}

impl StateDigester {
    /// An empty directory (digest of the empty state). Hashes nothing and
    /// allocates nothing.
    pub fn new() -> StateDigester {
        StateDigester::default()
    }

    fn hashes(&self) -> MutexGuard<'_, Hashes> {
        self.hashes.lock().expect("a digest refresh panicked")
    }

    /// Record a live write.
    pub fn apply_put(&mut self, key: &str, value: &[u8], version: Version) {
        self.apply(key, Some(value), version);
    }

    /// Record a tombstone.
    pub fn apply_delete(&mut self, key: &str, version: Version) {
        self.apply(key, None, version);
    }

    /// Record a write: a live value, or a tombstone when `value` is `None`.
    pub fn apply(&mut self, key: &str, value: Option<&[u8]>, version: Version) {
        let b = bucket_of(key);
        let leaf = leaf_hash(&leaf_bytes(key, value, version));
        let vlen = value.map_or(0, <[u8]>::len) as u32;
        let live = value.is_some();
        let hashes = self.hashes.get_mut().expect("a digest refresh panicked");
        if self.buckets.is_empty() {
            self.buckets.resize_with(DIGEST_BUCKETS, Vec::new);
            hashes
                .trees
                .resize_with(DIGEST_BUCKETS, BucketTree::default);
        }
        let bucket = &mut self.buckets[b];
        let (idx, shifted) = match find(bucket, key) {
            Ok(i) => {
                let e = &mut bucket[i];
                if e.live {
                    self.live_count -= 1;
                }
                self.size_bytes -= e.vlen as u64;
                e.leaf = leaf;
                e.version = version;
                e.vlen = vlen;
                e.live = live;
                (i, false)
            }
            Err(i) => {
                // Buckets are many and small: grow by a quarter, not by
                // doubling, or half the directory is spare capacity.
                if bucket.len() == bucket.capacity() {
                    bucket.reserve_exact(bucket.len() / 4 + 1);
                }
                bucket.insert(
                    i,
                    DirEntry {
                        key: key.into(),
                        leaf,
                        version,
                        vlen,
                        live,
                    },
                );
                self.size_bytes += (key.len() + 12) as u64;
                (i, true)
            }
        };
        if live {
            self.live_count += 1;
        }
        self.size_bytes += vlen as u64;
        if hashes.trees[b].mark(idx, bucket.len(), shifted) {
            hashes.dirty.push(b);
        }
    }

    fn entry(&self, key: &str) -> Option<&DirEntry> {
        let bucket = self.buckets.get(bucket_of(key))?;
        find(bucket, key).ok().map(|i| &bucket[i])
    }

    /// Version of `key`, tombstones included (the MVCC lookup).
    pub fn version(&self, key: &str) -> Option<Version> {
        self.entry(key).map(|e| e.version)
    }

    /// Whether `key` currently holds a live value (`None` = never
    /// written, `Some(false)` = tombstoned).
    pub fn liveness(&self, key: &str) -> Option<bool> {
        self.entry(key).map(|e| e.live)
    }

    /// Count of live keys.
    pub fn live_len(&self) -> usize {
        self.live_count
    }

    /// Count of all directory entries (live + tombstones).
    pub fn total_entries(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Σ (key + value + 12) over all entries.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Approximate resident memory of the directory itself: each entry
    /// plus the one interior node it costs its bucket's cached tree.
    pub fn resident_bytes(&self) -> usize {
        self.buckets
            .iter()
            .flatten()
            .map(|e| e.key.len() + std::mem::size_of::<DirEntry>() + std::mem::size_of::<Digest>())
            .sum()
    }

    /// The state digest, re-hashing only what the writes since the last
    /// call invalidated (see the module docs for the cost).
    pub fn digest(&self) -> Digest {
        let mut hashes = self.hashes();
        hashes.refresh(&self.buckets);
        // No top tree yet means nothing was ever written.
        hashes
            .top
            .get(1)
            .copied()
            .unwrap_or_else(|| empty_levels()[TOP_LEVELS])
    }

    /// Composite inclusion proof for a live key under the current
    /// [`StateDigester::digest`]; the caller supplies the leaf encoding
    /// (it holds the value). `None` for absent or tombstoned keys.
    pub fn prove(&self, key: &str) -> Option<MerkleProof> {
        let b = bucket_of(key);
        let bucket = self.buckets.get(b)?;
        let i = find(bucket, key).ok()?;
        if !bucket[i].live {
            return None;
        }
        let mut hashes = self.hashes();
        hashes.refresh(&self.buckets);
        let mut proof = MerkleProof::default();
        hashes.trees[b].path(bucket, i, &mut proof.steps);
        // A live key means a write was refreshed, so the top tree exists.
        let mut node = DIGEST_BUCKETS + b;
        while node > 1 {
            let sibling = node ^ 1;
            proof.steps.push(ProofStep {
                sibling: hashes.top[sibling],
                sibling_on_right: sibling > node,
            });
            node /= 2;
        }
        Some(proof)
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

    /// Reference digest from a plain map (sorted iteration).
    fn reference_digest(
        entries: &std::collections::BTreeMap<String, (Option<Vec<u8>>, Version)>,
    ) -> Digest {
        digest_of_entries(
            entries
                .iter()
                .map(|(k, (val, ver))| (k.as_str(), val.as_deref(), *ver)),
        )
    }

    #[test]
    fn incremental_matches_full_rebuild() {
        let mut digester = StateDigester::new();
        let mut map = std::collections::BTreeMap::new();
        assert_eq!(digester.digest(), reference_digest(&map));
        for i in 0..300u64 {
            let key = format!("key-{:03}", i % 120);
            if i % 7 == 3 {
                digester.apply_delete(&key, v(i, 0));
                map.insert(key, (None, v(i, 0)));
            } else {
                let value = format!("val-{i}").into_bytes();
                digester.apply_put(&key, &value, v(i, 1));
                map.insert(key, (Some(value), v(i, 1)));
            }
            if i % 37 == 0 {
                assert_eq!(digester.digest(), reference_digest(&map), "after op {i}");
            }
        }
        assert_eq!(digester.digest(), reference_digest(&map));
        let live = map.values().filter(|(val, _)| val.is_some()).count();
        assert_eq!(digester.live_len(), live);
        assert_eq!(digester.total_entries(), map.len());
    }

    /// Bucket sizes 0, 1, 2, 3 and 5 — no tree, a lone leaf, and an odd
    /// node promoted at the leaf level, above it, and at both — forced by
    /// keys of one bucket. Each size is grown insert by insert (rebuild)
    /// and then overwritten leaf by leaf (patch); digests and proofs must
    /// equal the oracle's throughout.
    #[test]
    fn small_buckets_promote_odd_nodes_like_the_oracle() {
        let target = bucket_of("any");
        let mut keys: Vec<String> = (0u32..)
            .map(|i| format!("b{i}"))
            .filter(|k| bucket_of(k) == target)
            .take(5)
            .collect();
        for n in [0, 1, 2, 3, 5] {
            let mut digester = StateDigester::new();
            let mut map = std::collections::BTreeMap::new();
            let check = |digester: &StateDigester, map: &std::collections::BTreeMap<_, _>| {
                assert_eq!(digester.digest(), reference_digest(map), "n={n}");
                let mut bucket_leaves = vec![Vec::new(); DIGEST_BUCKETS];
                for (k, (val, ver)) in map {
                    let val: &Option<Vec<u8>> = val;
                    bucket_leaves[target].push(leaf_hash(&leaf_bytes(k, val.as_deref(), *ver)));
                }
                for (idx, k) in map.keys().enumerate() {
                    let proof = digester.prove(k).unwrap();
                    assert_eq!(
                        proof,
                        prove_in_buckets(&bucket_leaves, target, idx),
                        "n={n}"
                    );
                }
            };
            // Unsorted arrival, so inserts land in the middle too.
            keys.rotate_left(2);
            for (i, key) in keys[..n].iter().enumerate() {
                digester.apply_put(key, b"first", v(1, i as u32));
                map.insert(key.clone(), (Some(b"first".to_vec()), v(1, i as u32)));
                check(&digester, &map);
            }
            // n = 0 enters neither loop.
            check(&digester, &map);
            for (i, key) in keys[..n].iter().enumerate() {
                digester.apply_put(key, b"second", v(2, i as u32));
                map.insert(key.clone(), (Some(b"second".to_vec()), v(2, i as u32)));
                check(&digester, &map);
            }
        }
    }

    /// Every `StateDb` carries a digester slot and every chain a
    /// `StateDb`, so construction must cost nothing: no hashing, no
    /// per-bucket tables (the old constructor hashed a 1 023-node empty
    /// tree — seconds for this loop).
    #[test]
    fn construction_hashes_and_allocates_nothing() {
        let start = std::time::Instant::now();
        for _ in 0..10_000 {
            std::hint::black_box(StateDigester::new());
            std::hint::black_box(crate::statedb::StateDb::new());
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        let mut fresh = StateDigester::new();
        assert_eq!(fresh.buckets.capacity(), 0);
        let hashes = fresh.hashes.get_mut().unwrap();
        assert_eq!((hashes.trees.capacity(), hashes.top.capacity()), (0, 0));
        let empty = reference_digest(&std::collections::BTreeMap::new());
        assert_eq!(fresh.digest(), empty);
        assert_eq!(crate::statedb::StateDb::new().state_digest(), empty);
        assert!(fresh.hashes.get_mut().unwrap().top.is_empty());
    }

    #[test]
    fn tombstones_change_the_digest() {
        let mut digester = StateDigester::new();
        digester.apply_put("a", b"1", v(1, 0));
        let with_value = digester.digest();
        digester.apply_delete("a", v(2, 0));
        let with_tombstone = digester.digest();
        assert_ne!(with_value, with_tombstone);
        // And a tombstone differs from never-written.
        assert_ne!(with_tombstone, StateDigester::new().digest());
        // Version lookups still see the tombstone (MVCC ABA defence).
        assert_eq!(digester.version("a"), Some(v(2, 0)));
        assert_eq!(digester.liveness("a"), Some(false));
        assert_eq!(digester.live_len(), 0);
    }

    #[test]
    fn proofs_verify_against_digest() {
        let mut digester = StateDigester::new();
        let mut values = Vec::new();
        for i in 0..50u64 {
            let key = format!("key-{i}");
            let value = format!("value-{i}").into_bytes();
            digester.apply_put(&key, &value, v(1, i as u32));
            values.push((key, value));
        }
        digester.apply_delete("key-7", v(2, 0));
        let digest = digester.digest();
        for (key, value) in &values {
            if key == "key-7" {
                assert!(digester.prove(key).is_none(), "tombstoned key has no proof");
                continue;
            }
            let proof = digester.prove(key).unwrap();
            let leaf = leaf_bytes(key, Some(value), digester.version(key).unwrap());
            assert!(merkle::verify_inclusion(&digest, &leaf, &proof), "{key}");
        }
        assert!(digester.prove("absent").is_none());
        // A wrong value must not verify.
        let proof = digester.prove("key-3").unwrap();
        let bad = leaf_bytes("key-3", Some(b"forged"), digester.version("key-3").unwrap());
        assert!(!merkle::verify_inclusion(&digest, &bad, &proof));
    }

    #[test]
    fn prove_in_buckets_matches_digester() {
        let mut digester = StateDigester::new();
        let mut bucket_leaves: Vec<Vec<Digest>> = vec![Vec::new(); DIGEST_BUCKETS];
        let mut keys_in_bucket: Vec<Vec<String>> = vec![Vec::new(); DIGEST_BUCKETS];
        let mut entries: Vec<(String, Vec<u8>)> = (0..40)
            .map(|i| (format!("k{i:02}"), vec![i as u8]))
            .collect();
        entries.sort();
        for (key, value) in &entries {
            digester.apply_put(key, value, v(1, 0));
        }
        for (key, value) in &entries {
            let b = bucket_of(key);
            // Keys inserted in sorted order land in buckets in sorted order.
            bucket_leaves[b].push(leaf_hash(&leaf_bytes(key, Some(value), v(1, 0))));
            keys_in_bucket[b].push(key.clone());
        }
        let digest = digester.digest();
        let (key, value) = &entries[11];
        let b = bucket_of(key);
        let idx = keys_in_bucket[b].iter().position(|k| k == key).unwrap();
        let proof = prove_in_buckets(&bucket_leaves, b, idx);
        let leaf = leaf_bytes(key, Some(value), v(1, 0));
        assert!(merkle::verify_inclusion(&digest, &leaf, &proof));
        assert_eq!(proof, digester.prove(key).unwrap());
    }

    #[test]
    fn size_accounting_tracks_overwrites() {
        let mut digester = StateDigester::new();
        digester.apply_put("k", &[0u8; 100], v(1, 0));
        let s1 = digester.size_bytes();
        assert_eq!(s1, (1 + 100 + 12) as u64);
        digester.apply_put("k", &[0u8; 40], v(2, 0));
        assert_eq!(digester.size_bytes(), (1 + 40 + 12) as u64);
        digester.apply_delete("k", v(3, 0));
        assert_eq!(digester.size_bytes(), (1 + 12) as u64);
    }
}
