//! Differential properties of the disk-backed LSM state database.
//!
//! Every test drives the same operation stream into the LSM backend and
//! the in-memory `StateDb` twin and demands bit-identical results: values,
//! MVCC versions, range/prefix scans, the bucketed Merkle state digest,
//! and the chain's rolling state root at every height. Both states share
//! one incremental digester, so every digest is also held to the
//! from-scratch oracle (`digest_of_entries` over the backend's own entry
//! stream) and one digest is pinned to a golden value.
//! The snapshot tests install one `ChainSnapshot` into an LSM under tiny
//! and under default budgets and hold both *pruned* stores to the twin
//! from there on, across clean reopens. Crashes mid-flush, mid-compaction
//! and mid-append are swept in `tests/crash_states.rs`.

#[path = "common/chain.rs"]
mod chain;

use chain::{
    apply_twin_block, open_chain, oracle_digest, reference_history, run_workload, tiny_lsm_config,
    twin_with_snapshot, Shape,
};
use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::identity::Identity;
use ledgerview::fabric::statedb::VersionedState;
use ledgerview::fabric::storage::ChainSnapshot;
use ledgerview::fabric::{FabricChain, FabricError, LsmState, StateDb, Version};
use ledgerview::prelude::{FsyncPolicy, StorageConfig};
use ledgerview::store::testdir::TestDir;
use proptest::prelude::*;
use std::path::Path;

/// Eleven keys, 120-byte values: large against the tiny memtable, so
/// flushes fire mid-run.
const SHAPE: Shape = Shape {
    keys: 11,
    value_len: 120,
};

fn storage(dir: &Path) -> StorageConfig {
    StorageConfig::new(dir)
        .fsync(FsyncPolicy::Never)
        .checkpoint_every(3)
}

fn lsm_chain(seed: u64, dir: &Path) -> (FabricChain, Identity) {
    open_chain(seed, storage(dir), true, None).unwrap()
}

fn v(block_num: u64, tx_num: u32) -> Version {
    Version { block_num, tx_num }
}

/// Compare every observable of the two states: digest, sizes, per-key
/// values and versions, and full/partial scans.
fn assert_states_identical(lsm: &LsmState, mem: &StateDb, keys: impl Iterator<Item = String>) {
    assert_eq!(lsm.state_digest(), mem.state_digest());
    assert_eq!(lsm.state_digest(), oracle_digest(lsm));
    assert_eq!(mem.state_digest(), oracle_digest(mem));
    assert_eq!(lsm.len(), VersionedState::len(mem));
    assert_eq!(lsm.size_bytes(), VersionedState::size_bytes(mem));
    for key in keys {
        assert_eq!(lsm.get(&key), VersionedState::get(mem, &key), "{key}");
        assert_eq!(lsm.version(&key), mem.version(&key), "{key}");
        assert_eq!(lsm.lookup(&key), VersionedState::lookup(mem, &key), "{key}");
    }
    assert_eq!(
        lsm.prefix_scan(""),
        VersionedState::prefix_scan(mem, ""),
        "full scans diverge"
    );
}

/// A fixed 2 000-op script (puts, overwrites, tombstones, re-inserts, with
/// digests taken along the way) must keep producing the digest the
/// from-scratch construction gave before the digester became incremental:
/// the value is part of every checkpoint and LSM manifest on disk.
#[test]
fn golden_digest_of_a_fixed_script() {
    let dir = TestDir::new("statedb-eq-golden");
    let (mut lsm, _) = LsmState::open(tiny_lsm_config(dir.path())).unwrap();
    let mut mem = StateDb::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..2_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("acct~{:04}", x % 600);
        let version = v(1 + i / 20, (i % 20) as u32);
        if x >> 61 == 0 {
            lsm.delete(&key, version);
            mem.delete(&key, version);
        } else {
            let value = vec![(x >> 8) as u8; (x >> 16) as usize % 96];
            lsm.put(key.clone(), value.clone(), version);
            mem.put(key, value, version);
        }
        if i % 250 == 249 {
            assert_eq!(lsm.state_digest(), mem.state_digest(), "op {i}");
        }
    }
    const GOLDEN: &str = "0ed5e184780ba2d7bbb3a587cc9c7d3b9415932a485cfda5578e528f27032e51";
    assert_eq!(mem.state_digest().to_hex(), GOLDEN);
    assert_eq!(lsm.state_digest().to_hex(), GOLDEN);
    assert_eq!(oracle_digest(&mem).to_hex(), GOLDEN);
}

#[test]
fn lsm_chain_matches_twin_and_survives_reopen() {
    let dir = TestDir::new("statedb-eq-clean");
    let seed = 41;
    let blocks = 10;
    let history = {
        let (mut chain, alice) = lsm_chain(seed, dir.path());
        let history = run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd, SHAPE);
        // The tiny budgets must actually exercise the disk paths.
        let stats = chain.lsm_backend().unwrap().lsm_stats();
        assert!(stats.flushes > 0, "workload never flushed the memtable");
        assert!(stats.compactions > 0, "workload never compacted");
        history
    };
    assert_eq!(
        history,
        reference_history(seed, blocks, SHAPE),
        "twins diverged"
    );

    let (mut chain, alice) = lsm_chain(seed, dir.path());
    assert_eq!(chain.height(), blocks);
    assert!(chain.is_durable());
    let (digest, root) = history.last().unwrap();
    assert_eq!(chain.state().state_digest(), *digest);
    assert_eq!(chain.state_root(), *root);
    chain.store().verify_chain().unwrap();

    // The recovered chain keeps committing.
    let mut rng = seeded(999);
    chain
        .invoke(
            &alice,
            "kv",
            "put",
            vec![b"post".to_vec(), b"crash".to_vec()],
            &mut rng,
        )
        .unwrap();
    let outcomes = chain.cut_block();
    assert!(outcomes[0].is_valid());
    assert_eq!(chain.height(), blocks + 1);

    // ...and stays within its budgets when the working set does not fit
    // them: 300 live 120-byte values against 8 KiB of memtable + caches,
    // every key read back so the caches fill.
    let budgets = tiny_lsm_config(dir.path());
    let cache_budget = budgets.block_cache_bytes + budgets.row_cache_bytes;
    let wide_key = |i: u64| format!("wide{i:03}");
    for b in 0..30u64 {
        for t in 0..10 {
            let args = vec![wide_key(b * 10 + t).into_bytes(), vec![b as u8; 120]];
            chain.invoke(&alice, "kv", "put", args, &mut rng).unwrap();
        }
        assert!(chain.cut_block().iter().all(|o| o.is_valid()));
    }
    for i in 0..300 {
        let value = chain.state().get(&wide_key(i));
        assert_eq!(value, Some(vec![(i / 10) as u8; 120]), "{}", wide_key(i));
    }
    let backend = chain.lsm_backend().unwrap();
    let stats = backend.lsm_stats();
    assert!(300 * 120 >= 4 * (budgets.memtable_bytes + cache_budget));
    assert!(stats.memtable_bytes <= budgets.memtable_bytes, "{stats:?}");
    assert!(stats.cache_resident_bytes <= cache_budget, "{stats:?}");
    assert!(stats.flushes > 0 && stats.compactions > 0, "{stats:?}");
    assert!(stats.write_amplification() >= 1.0, "{stats:?}");
    for event in backend.compaction_trace() {
        assert!(["flush", "l0", "level"].contains(&event.kind), "{event:?}");
        assert!(event.output_bytes > 0 && !event.outputs.is_empty());
    }
    chain.flush().unwrap();
}

/// Open the store under `dir`, its LSM under tiny or default budgets —
/// installing `snapshot` into it first, when one is given.
fn pruned_chain(
    seed: u64,
    dir: &Path,
    tiny: bool,
    snapshot: Option<&ChainSnapshot>,
) -> Result<FabricChain, FabricError> {
    open_chain(seed, storage(dir), tiny, snapshot).map(|(chain, _)| chain)
}

/// A pruned store must sit at `height` with the twin's state, and still
/// know where it was cut from the history it never saw.
fn assert_pruned_at(
    chain: &FabricChain,
    snapshot: &ChainSnapshot,
    history: &[(Digest, Digest)],
    height: u64,
) {
    assert_eq!(chain.height(), height);
    assert_eq!(chain.store().base(), snapshot.height, "base_height");
    let (digest, root) = history[height as usize];
    assert_eq!(chain.state().state_digest(), digest, "at {height}");
    assert_eq!(chain.state().state_digest(), oracle_digest(chain.state()));
    assert_eq!(chain.state_root(), root, "at {height}");
    // `base_prev_hash`: the tip hash of an empty pruned store, the link
    // its first block must carry otherwise (`verify_chain` checks it).
    match chain.store().block(snapshot.height) {
        Some(first) => assert_eq!(first.header.prev_hash, snapshot.prev_block_hash),
        None => assert_eq!(chain.store().tip_hash(), snapshot.prev_block_hash),
    }
    chain.store().verify_chain().unwrap();
}

#[test]
fn snapshot_bootstrap_lands_on_either_engine() {
    let (seed, at, blocks) = (77, 5, 12);
    let (twin, snapshot, history) = twin_with_snapshot(seed, at, blocks, SHAPE);
    let tiny_dir = TestDir::new("statedb-eq-snap-lsm");
    let default_dir = TestDir::new("statedb-eq-snap-default");
    let mut on_tiny = pruned_chain(seed, tiny_dir.path(), true, Some(&snapshot)).unwrap();
    let mut on_default = pruned_chain(seed, default_dir.path(), false, Some(&snapshot)).unwrap();
    for dir in [&tiny_dir, &default_dir] {
        assert!(dir.path().join("lsm").join("MANIFEST").is_file());
        assert!(!dir.path().join("checkpoint.dat").exists());
    }

    // Same remaining blocks on both and on the twin: identical at every
    // height.
    for h in at..blocks {
        assert_pruned_at(&on_tiny, &snapshot, &history, h);
        assert_pruned_at(&on_default, &snapshot, &history, h);
        apply_twin_block(&mut on_tiny, &twin, h);
        apply_twin_block(&mut on_default, &twin, h);
    }
    let stats = on_tiny.lsm_backend().unwrap().lsm_stats();
    assert!(stats.flushes > 1 && stats.compactions > 0, "{stats:?}");
    drop((on_tiny, on_default));

    // Both pruned directories reopen under the tuning that created them.
    for (dir, tiny) in [(&tiny_dir, true), (&default_dir, false)] {
        let chain = pruned_chain(seed, dir.path(), tiny, None).unwrap();
        assert_pruned_at(&chain, &snapshot, &history, blocks);
    }

    // A directory that holds an LSM manifest — even one with no block
    // yet — is not a place to install a snapshot, under either tuning.
    let bare = TestDir::new("statedb-eq-snap-bare");
    drop(pruned_chain(seed, bare.path(), true, Some(&snapshot)).unwrap());
    for dir in [&bare, &tiny_dir] {
        for tiny in [true, false] {
            let refused = pruned_chain(seed, dir.path(), tiny, Some(&snapshot));
            assert!(matches!(refused, Err(FabricError::Storage(_))));
        }
    }
    let chain = pruned_chain(seed, bare.path(), true, None).unwrap();
    assert_pruned_at(&chain, &snapshot, &history, at);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Op-level differential: a random put/delete/flush interleaving gives
    /// bit-identical values, versions, scans and digests on both state
    /// implementations — and the digest survives flush + reopen.
    #[test]
    fn random_ops_bit_identical(
        ops in proptest::collection::vec(
            // (key index, op: 0-1 put / 2 delete, value length, flush?)
            (0u8..24, 0u8..3, 0usize..48, any::<bool>()),
            1..100,
        ),
    ) {
        let dir = TestDir::new("statedb-eq-ops");
        let (mut lsm, _) = LsmState::open(tiny_lsm_config(dir.path())).unwrap();
        let mut mem = StateDb::new();
        for (i, (key_idx, op, len, flush)) in ops.iter().enumerate() {
            let key = format!("key{key_idx:02}");
            let version = v(1 + (i / 4) as u64, (i % 4) as u32);
            if *op < 2 {
                let value = vec![(*key_idx) ^ (i as u8); *len];
                lsm.put(key.clone(), value.clone(), version);
                mem.put(key, value, version);
            } else {
                // Deletes tombstone even absent keys (digest-visible).
                lsm.delete(&key, version);
                mem.delete(&key, version);
            }
            if *flush && i % 5 == 0 {
                lsm.flush(b"mid").unwrap();
            }
        }
        assert_states_identical(&lsm, &mem, (0..24).map(|i| format!("key{i:02}")));
        prop_assert_eq!(
            lsm.range_scan("key04", "key12"),
            VersionedState::range_scan(&mem, "key04", "key12")
        );

        // Flush persists the memtable; a reopen must rebuild the identical
        // directory (versions, tombstones, digest) from disk alone.
        let digest = lsm.state_digest();
        lsm.flush(b"final").unwrap();
        drop(lsm);
        let (reopened, meta) = LsmState::open(tiny_lsm_config(dir.path())).unwrap();
        prop_assert_eq!(meta.as_deref(), Some(&b"final"[..]));
        prop_assert_eq!(reopened.state_digest(), digest);
        assert_states_identical(&reopened, &mem, (0..24).map(|i| format!("key{i:02}")));
    }

    /// Chain-level differential: the LSM-backed chain and the in-memory
    /// chain commit bit-identical state (digest AND rolling root) at every
    /// height, across random seeds and block counts.
    #[test]
    fn lsm_and_in_memory_chains_identical(
        seed in 0u64..500,
        blocks in 1u64..7,
    ) {
        let dir = TestDir::new("statedb-eq-chain");
        let (mut chain, alice) = lsm_chain(seed, dir.path());
        let lsm_history = run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd, SHAPE);
        prop_assert_eq!(lsm_history, reference_history(seed, blocks, SHAPE));
    }
}
