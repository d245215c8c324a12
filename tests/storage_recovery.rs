//! Crash-recovery properties of the durable storage backend under its
//! default LSM tuning.
//!
//! Each test runs a deterministic workload on a durable chain, drops it
//! without a flush (or damages its directory), reopens the directory, and
//! checks the recovered state against an in-memory twin that replayed the
//! same workload: the recovered height, state digest and rolling state
//! root must match the twin's bit for bit. Twin and durable chain share
//! one incremental digester, so every digest in a history is also held to
//! the from-scratch `digest_of_entries`. Every state a crash mid-flush,
//! mid-compaction or mid-append can leave is swept in
//! `tests/crash_states.rs`.

#[path = "common/chain.rs"]
mod chain;

use chain::{
    apply_twin_block, open_chain, reference_history, run_workload, twin_with_snapshot, Shape,
};
use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::identity::Identity;
use ledgerview::fabric::ledger::Block;
use ledgerview::fabric::{FabricChain, FabricError};
use ledgerview::prelude::{FsyncPolicy, StorageConfig};
use ledgerview::store::blockfile::BLOCKS_DATA_FILE;
use ledgerview::store::record::encode_frame;
use ledgerview::store::testdir::TestDir;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Seven keys, nine-byte values: the default engine never flushes on
/// pressure, so checkpoints come from the interval alone.
const SHAPE: Shape = Shape {
    keys: 7,
    value_len: 9,
};

fn durable_chain(seed: u64, config: StorageConfig) -> (FabricChain, Identity) {
    open_chain(seed, config, false, None).unwrap()
}

#[test]
fn clean_reopen_recovers_full_history() {
    let dir = TestDir::new("recover-clean");
    let config = StorageConfig::new(dir.path())
        .fsync(FsyncPolicy::EveryN(4))
        .checkpoint_every(3);
    let seed = 11;
    let history = {
        let (mut chain, alice) = durable_chain(seed, config.clone());
        run_workload(&mut chain, &alice, 8, seed ^ 0xabcd, SHAPE)
    };
    assert_eq!(
        history,
        reference_history(seed, 8, SHAPE),
        "twin workloads agree"
    );

    let (mut chain, alice) = durable_chain(seed, config);
    assert_eq!(chain.height(), 8);
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
    assert_eq!(chain.height(), 9);
    chain.flush().unwrap();
}

/// Reopen the directory `config` names; it must refuse with a typed
/// storage error.
fn assert_reopen_is_a_storage_error(seed: u64, config: StorageConfig, what: &str) {
    match open_chain(seed, config, false, None) {
        Err(FabricError::Storage(_)) => {}
        Err(other) => panic!("{what}: expected a storage error, got {other}"),
        Ok(_) => panic!("{what}: the directory was accepted"),
    }
}

/// The newest SSTable of an LSM directory (names are zero-padded sequence
/// numbers, so the greatest name is the newest table).
fn newest_table(lsm: &Path) -> PathBuf {
    std::fs::read_dir(lsm)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tbl"))
        .max()
        .expect("the chain flushed a table")
}

#[test]
fn tampered_checkpoint_is_rejected() {
    // A checkpoint is an LSM flush: its manifest and its tables. One bit
    // flipped in either must stop the reopen with a typed error.
    for target in ["MANIFEST", "newest table"] {
        let dir = TestDir::new("recover-tamper");
        let config = StorageConfig::new(dir.path())
            .fsync(FsyncPolicy::Never)
            .checkpoint_every(2);
        let seed = 23;
        {
            let (mut chain, alice) = durable_chain(seed, config.clone());
            run_workload(&mut chain, &alice, 6, seed ^ 0xabcd, SHAPE);
        }
        let lsm = dir.path().join("lsm");
        let path = match target {
            "MANIFEST" => lsm.join("MANIFEST"),
            _ => newest_table(&lsm),
        };
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert_reopen_is_a_storage_error(seed, config, target);
    }
}

#[test]
fn lost_state_is_rebuilt_from_the_block_file() {
    // Delete `lsm/` from a store that checkpointed twice: the reopen
    // re-derives the whole state from the block bodies — the path a
    // directory written with the full-state `checkpoint.dat` takes too.
    let dir = TestDir::new("recover-lost-state");
    let config = StorageConfig::new(dir.path())
        .fsync(FsyncPolicy::Never)
        .checkpoint_every(3);
    let seed = 29;
    let history = {
        let (mut chain, alice) = durable_chain(seed, config.clone());
        let history = run_workload(&mut chain, &alice, 8, seed ^ 0xabcd, SHAPE);
        let flushes = chain.lsm_backend().unwrap().lsm_stats().flushes;
        assert!(flushes >= 2, "checkpointed {flushes} times");
        history
    };
    std::fs::remove_dir_all(dir.path().join("lsm")).unwrap();

    let (chain, _) = durable_chain(seed, config);
    assert_eq!(chain.height(), 8);
    let (digest, root) = history.last().unwrap();
    assert_eq!(chain.state().state_digest(), *digest);
    assert_eq!(chain.state_root(), *root);
    chain.store().verify_chain().unwrap();
}

#[test]
fn lost_state_of_a_snapshot_installed_store_is_a_storage_error() {
    // A pruned store has no blocks below its base to rebuild from: without
    // its manifest the base is unknown, and the block file contradicts it.
    let (seed, at, blocks) = (31, 4, 8);
    let (twin, snapshot, _) = twin_with_snapshot(seed, at, blocks, SHAPE);

    let dir = TestDir::new("recover-lost-snapshot-state");
    let config = StorageConfig::new(dir.path())
        .fsync(FsyncPolicy::Never)
        .checkpoint_every(3);
    {
        let (mut chain, _) = open_chain(seed, config.clone(), false, Some(&snapshot)).unwrap();
        for h in at..blocks {
            apply_twin_block(&mut chain, &twin, h);
        }
        assert_eq!(chain.state_root(), twin.state_root());
    }
    std::fs::remove_dir_all(dir.path().join("lsm")).unwrap();
    assert_reopen_is_a_storage_error(seed, config, "pruned store without its manifest");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Drop the chain without a flush, with checkpoints in play: the block
    /// file is intact, so recovery must reconstruct the *complete* history
    /// (the writes after the last checkpoint are re-derived from the
    /// blocks themselves).
    #[test]
    fn reopen_after_checkpoints_recovers_full_state(
        seed in 0u64..500,
        blocks in 3u64..9,
    ) {
        let dir = TestDir::new("recover-unflushed");
        let config = StorageConfig::new(dir.path())
            .fsync(FsyncPolicy::Never)
            .checkpoint_every(4);
        {
            let (mut chain, alice) = durable_chain(seed, config.clone());
            run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd, SHAPE);
        }

        let (chain, _) = durable_chain(seed, config);
        let reference = reference_history(seed, blocks, SHAPE);
        prop_assert_eq!(chain.height(), blocks);
        let (digest, root) = reference.last().unwrap();
        prop_assert_eq!(chain.state().state_digest(), *digest);
        prop_assert_eq!(chain.state_root(), *root);
        chain.store().verify_chain().unwrap();
    }

    /// Differential: the durable backend commits bit-identical state to the
    /// in-memory backend for the same workload, at every height.
    #[test]
    fn durable_and_in_memory_state_identical(
        seed in 0u64..500,
        blocks in 1u64..7,
    ) {
        let dir = TestDir::new("recover-differential");
        let config = StorageConfig::new(dir.path()).fsync(FsyncPolicy::Never);
        let (mut chain, alice) = durable_chain(seed, config);
        let durable = run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd, SHAPE);
        let reference = reference_history(seed, blocks, SHAPE);
        prop_assert_eq!(durable, reference);
    }
}

/// `blocks.dat` rebuilt by hand: one whole, CRC-valid frame per block,
/// its payload the block's height (little-endian) then the block bytes.
fn block_file(blocks: &[Vec<u8>]) -> Vec<u8> {
    let mut file = Vec::new();
    for (height, block) in blocks.iter().enumerate() {
        let mut payload = (height as u64).to_le_bytes().to_vec();
        payload.extend_from_slice(block);
        file.extend_from_slice(&encode_frame(&payload));
    }
    file
}

/// Block `k` of `blocks`, made bad in the way `how` names while staying a
/// whole frame: bytes that do not decode, a data hash that does not match
/// the transactions, a broken prev-hash link, or a validity vector one
/// flag too long. None of the three changes a write set, so the rolling
/// state root of a replayed block still matches its header.
fn spoil(blocks: &[Block], k: usize, how: &str) -> Vec<u8> {
    let mut block = blocks[k].clone();
    match how {
        "undecodable" => return b"not a block".to_vec(),
        "data hash" => block.transactions[0].response.extend_from_slice(b"!"),
        "prev-hash link" => block.header.prev_hash = Digest([0xab; 32]),
        "validity length" => block.validity.push(true),
        other => unreachable!("{other}"),
    }
    block.encode()
}

/// A block file whose every frame is whole and valid, but one of whose
/// blocks is not the block committed: each reopen is refused with a typed
/// storage error, reads no further, and leaves the directory as it was.
/// Block `k` sits below the checkpoint or above it (replayed), in the
/// first 32-block decode chunk of recovery or a later one.
#[test]
fn well_framed_bad_blocks_are_refused() {
    const BLOCKS: u64 = 40;
    let seed = 37;
    // Checkpoints every 12 blocks leave the last at 36: blocks 0..36 sit
    // below it and 36..40 are replayed. With no checkpoint every block is
    // replayed.
    for (interval, ks) in [(12, &[0, 3, 33, 38][..]), (1_000, &[3, 35][..])] {
        let dir = TestDir::new("recover-bad-block");
        let config = StorageConfig::new(dir.path())
            .fsync(FsyncPolicy::Never)
            .checkpoint_every(interval);
        let (blocks, last) = {
            let (mut chain, alice) = durable_chain(seed, config.clone());
            let history = run_workload(&mut chain, &alice, BLOCKS, seed ^ 0xabcd, SHAPE);
            let blocks: Vec<Block> = chain.store().iter().cloned().collect();
            (blocks, *history.last().unwrap())
        };
        let path = dir.path().join(BLOCKS_DATA_FILE);
        let encoded: Vec<Vec<u8>> = blocks.iter().map(Block::encode).collect();
        let original = std::fs::read(&path).unwrap();
        assert_eq!(block_file(&encoded), original, "the hand-built file");

        for &k in ks {
            for how in [
                "undecodable",
                "data hash",
                "prev-hash link",
                "validity length",
            ] {
                let mut spoilt = encoded.clone();
                spoilt[k] = spoil(&blocks, k, how);
                let image = block_file(&spoilt);
                std::fs::write(&path, &image).unwrap();
                let what = format!("checkpoint every {interval}, block {k}: {how}");
                assert_reopen_is_a_storage_error(seed, config.clone(), &what);
                assert_eq!(std::fs::read(&path).unwrap(), image, "{what}: file changed");
            }
        }
        std::fs::write(&path, &original).unwrap();
        let (chain, _) = durable_chain(seed, config);
        assert_eq!(chain.height(), BLOCKS);
        assert_eq!((chain.state().state_digest(), chain.state_root()), last);
    }
}
