//! Property-based tests for the blockchain substrate.

use std::collections::BTreeMap;

use fabric_sim::digest::{
    bucket_of, digest_of_entries, leaf_bytes, prove_in_buckets, StateDigester, DIGEST_BUCKETS,
};
use fabric_sim::merkle::{leaf_hash, verify_inclusion, MerkleTree};
use fabric_sim::statedb::{StateDb, Version};
use fabric_sim::wire::{Reader, Writer};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The digester's from-scratch twin: every entry, tombstones included.
type Twin = BTreeMap<String, (Option<Vec<u8>>, Version)>;

/// 24 keys that fall into only three digest buckets, so random scripts
/// over them grow, patch and rebuild real in-bucket trees.
fn crowded_keys() -> Vec<String> {
    (0u32..)
        .map(|i| format!("k{i}"))
        .filter(|k| bucket_of(k) < 3)
        .take(24)
        .collect()
}

fn twin_digest(twin: &Twin) -> ledgerview_crypto::sha256::Digest {
    digest_of_entries(
        twin.iter()
            .map(|(k, (value, version))| (k.as_str(), value.as_deref(), *version)),
    )
}

/// Every live key proves under `digest` with exactly the oracle's proof,
/// from the digester directly and through the `StateDb` in front of it.
fn check_proofs(twin: &Twin, digester: &StateDigester, db: &StateDb) -> Result<(), TestCaseError> {
    let digest = twin_digest(twin);
    let mut bucket_leaves = vec![Vec::new(); DIGEST_BUCKETS];
    for (k, (value, version)) in twin {
        bucket_leaves[bucket_of(k)].push(leaf_hash(&leaf_bytes(k, value.as_deref(), *version)));
    }
    let mut seen = vec![0usize; DIGEST_BUCKETS];
    for (k, (value, version)) in twin {
        let b = bucket_of(k);
        let idx = seen[b];
        seen[b] += 1;
        let Some(value) = value else {
            prop_assert!(digester.prove(k).is_none(), "tombstone {} proved", k);
            prop_assert!(db.prove(k).is_none());
            continue;
        };
        let proof = digester.prove(k).expect("live key proves");
        prop_assert_eq!(
            &proof,
            &prove_in_buckets(&bucket_leaves, b, idx),
            "key {}",
            k
        );
        let leaf = leaf_bytes(k, Some(value), *version);
        prop_assert!(verify_inclusion(&digest, &leaf, &proof), "key {}", k);
        prop_assert_eq!(db.prove(k), Some((proof, leaf)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every leaf of every random tree proves under the root; mutated
    /// values fail.
    #[test]
    fn merkle_all_leaves_prove(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..40)
    ) {
        let tree = MerkleTree::build(&leaves);
        let root = tree.root();
        prop_assert_eq!(tree.len(), leaves.len());
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i);
            prop_assert!(verify_inclusion(&root, leaf, &proof), "leaf {}", i);
            let mut bad = leaf.clone();
            bad.push(1);
            prop_assert!(!verify_inclusion(&root, &bad, &proof));
        }
    }

    /// The state digest is a pure function of contents, regardless of
    /// insertion order, and sensitive to every entry.
    #[test]
    fn statedb_digest_properties(
        entries in proptest::collection::btree_map("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..16), 1..20)
    ) {
        let mut forward = StateDb::new();
        for (i, (k, v)) in entries.iter().enumerate() {
            forward.put(k.clone(), v.clone(), Version { block_num: i as u64, tx_num: 0 });
        }
        let mut backward = StateDb::new();
        for (i, (k, v)) in entries.iter().enumerate().collect::<Vec<_>>().into_iter().rev() {
            backward.put(k.clone(), v.clone(), Version { block_num: i as u64, tx_num: 0 });
        }
        prop_assert_eq!(forward.state_digest(), backward.state_digest());

        // Deleting any entry changes the digest (the tombstone is itself
        // digest-visible, so the digest differs from the full state's).
        let full = forward.state_digest();
        for k in entries.keys() {
            let mut reduced = forward.clone();
            reduced.delete(k, Version { block_num: 99, tx_num: 0 });
            prop_assert_ne!(reduced.state_digest(), full);
        }
    }

    /// Random interleavings of put-new / overwrite / delete / delete-absent
    /// / re-insert / `digest()` / `prove()` / `clone()` over keys crowded
    /// into three buckets: every digest equals the from-scratch oracle over
    /// a `BTreeMap` twin and every proof equals the oracle's — for the
    /// digester fed directly and for a `StateDb`, whose digester first
    /// appears at whatever point the script first asks for a digest.
    #[test]
    fn digester_matches_oracle_under_random_interleavings(
        ops in proptest::collection::vec((0u8..10, 0usize..24, 0usize..40), 1..120)
    ) {
        let keys = crowded_keys();
        let mut twin = Twin::new();
        let mut digester = StateDigester::new();
        let mut db = StateDb::new();
        for (i, (op, key, len)) in ops.iter().enumerate() {
            let key = &keys[*key];
            let version = Version { block_num: 1 + i as u64 / 7, tx_num: (i % 7) as u32 };
            match op {
                0..=4 => {
                    let value = vec![i as u8; *len];
                    digester.apply_put(key, &value, version);
                    db.put(key.clone(), value.clone(), version);
                    twin.insert(key.clone(), (Some(value), version));
                }
                5 | 6 => {
                    digester.apply_delete(key, version);
                    db.delete(key, version);
                    twin.insert(key.clone(), (None, version));
                }
                7 => {
                    prop_assert_eq!(digester.digest(), twin_digest(&twin), "after op {}", i);
                    prop_assert_eq!(db.state_digest(), twin_digest(&twin), "after op {}", i);
                }
                8 => check_proofs(&twin, &digester, &db)?,
                _ => {
                    // Carry on with copies (pending marks and cached trees
                    // included); a write to the original must not reach them.
                    let copy = digester.clone();
                    digester.apply_delete("only-in-the-original", version);
                    digester = copy;
                    db = db.clone();
                }
            }
        }
        prop_assert_eq!(digester.digest(), twin_digest(&twin));
        prop_assert_eq!(db.state_digest(), twin_digest(&twin));
        check_proofs(&twin, &digester, &db)?;
    }

    /// State inclusion proofs verify for every key and fail for tampered
    /// leaves.
    #[test]
    fn statedb_proofs(
        entries in proptest::collection::btree_map("[a-z]{1,6}", proptest::collection::vec(any::<u8>(), 1..16), 1..12)
    ) {
        let mut db = StateDb::new();
        for (k, v) in &entries {
            db.put(k.clone(), v.clone(), Version::GENESIS);
        }
        let digest = db.state_digest();
        for k in entries.keys() {
            let (proof, leaf) = db.prove(k).unwrap();
            prop_assert!(StateDb::verify_proof(&digest, &leaf, &proof));
            let mut bad = leaf.clone();
            bad[0] ^= 0xFF;
            prop_assert!(!StateDb::verify_proof(&digest, &bad, &proof));
        }
    }

    /// Wire writer/reader round-trips arbitrary record sequences.
    #[test]
    fn wire_sequences(records in proptest::collection::vec(
        (any::<u8>(), any::<u32>(), any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)), 0..16)
    ) {
        let mut w = Writer::new();
        for (a, b, c, d) in &records {
            w.u8(*a).u32(*b).u64(*c).bytes(d);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for (a, b, c, d) in &records {
            prop_assert_eq!(r.u8().unwrap(), *a);
            prop_assert_eq!(r.u32().unwrap(), *b);
            prop_assert_eq!(r.u64().unwrap(), *c);
            prop_assert_eq!(&r.bytes().unwrap(), d);
        }
        r.finish().unwrap();
    }

    /// Truncating canonical bytes at any point never panics, only errors
    /// (decoder robustness).
    #[test]
    fn wire_truncation_robustness(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut in any::<usize>(),
    ) {
        let mut w = Writer::new();
        w.u64(7).bytes(&payload).string("tail");
        let bytes = w.into_bytes();
        let cut = cut % bytes.len().max(1);
        let mut r = Reader::new(&bytes[..cut]);
        // Either succeeds on prefix fields or errors; must not panic.
        let _ = r.u64().and_then(|_| r.bytes()).and_then(|_| r.string());
    }
}
