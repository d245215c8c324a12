//! Crash-recovery properties of the durable storage backend.
//!
//! Each test runs a deterministic workload on a durable chain, simulates a
//! crash by dropping it without a flush and/or truncating the block file at
//! an arbitrary byte offset, reopens the directory, and checks the
//! recovered state against an
//! in-memory twin that replayed the same workload: the recovered height
//! must be a prefix of the reference history, and the state digest and
//! rolling state root at that height must match the twin's bit for bit.
//! Twin and durable chain share one incremental digester, so every digest
//! in a history is also held to the from-scratch `digest_of_entries`.

use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::chaincode::TxContext;
use ledgerview::fabric::digest::digest_of_entries;
use ledgerview::fabric::endorsement::EndorsementPolicy;
use ledgerview::fabric::identity::{Identity, OrgId};
use ledgerview::fabric::statedb::VersionedState;
use ledgerview::fabric::{Chaincode, FabricChain, FabricError, LsmState};
use ledgerview::prelude::{FsyncPolicy, StorageConfig, ValidationConfig};
use ledgerview::store::blockfile::BLOCKS_DATA_FILE;
use ledgerview::store::testdir::TestDir;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// `put key value`, `del key`, `rmw key` (read-modify-write, the MVCC
/// conflict generator).
struct Kv;

impl Chaincode for Kv {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        let key = String::from_utf8_lossy(&args[0]).to_string();
        match function {
            "put" => {
                ctx.put_state(key, args[1].clone());
                Ok(vec![])
            }
            "del" => {
                ctx.delete_state(key);
                Ok(vec![])
            }
            "rmw" => {
                let mut v = ctx.get_state(&key).unwrap_or_default();
                v.push(b'!');
                ctx.put_state(key, v.clone());
                Ok(v)
            }
            other => Err(FabricError::ChaincodeError(format!("unknown {other}"))),
        }
    }
}

fn setup(chain: &mut FabricChain, seed: u64) -> Identity {
    let mut rng = seeded(seed ^ 0x5eed);
    chain.deploy(
        "kv",
        Box::new(Kv),
        EndorsementPolicy::AllOf(chain.org_ids()),
    );
    chain
        .enroll(&OrgId::new("Org1"), "alice", &mut rng)
        .unwrap()
}

/// The state digest rebuilt from scratch out of the state's own entries —
/// independent of the incremental digester that produced the other one.
fn oracle_digest(state: &dyn VersionedState) -> Digest {
    let mut entries = Vec::new();
    state.for_each_entry(&mut |key, value, version| {
        entries.push((key.to_string(), value.map(<[u8]>::to_vec), version));
    });
    digest_of_entries(
        entries
            .iter()
            .map(|(key, value, version)| (key.as_str(), value.as_deref(), *version)),
    )
}

/// Commit `blocks` blocks of a deterministic mixed workload (puts, deletes,
/// and an intra-block MVCC conflict pair every other block). Returns
/// `(state_digest, state_root)` after every block, with index 0 holding the
/// pre-workload (empty) snapshot; every digest must equal the oracle's.
fn run_workload(
    chain: &mut FabricChain,
    alice: &Identity,
    blocks: u64,
    seed: u64,
) -> Vec<(Digest, Digest)> {
    let mut rng = seeded(seed);
    let snapshot = |chain: &FabricChain| {
        let digest = chain.state().state_digest();
        assert_eq!(
            digest,
            oracle_digest(chain.state()),
            "at {}",
            chain.height()
        );
        (digest, chain.state_root())
    };
    let mut history = vec![snapshot(chain)];
    for b in 0..blocks {
        for t in 0..3u64 {
            let key = format!("k{}", (b * 3 + t) % 7);
            chain
                .invoke(
                    alice,
                    "kv",
                    "put",
                    vec![key.into_bytes(), vec![(b + t) as u8; 9]],
                    &mut rng,
                )
                .unwrap();
        }
        if b % 2 == 1 {
            // Two read-modify-writes of one key: the second is invalidated
            // by MVCC, so blocks contain invalid transactions too.
            for _ in 0..2 {
                chain
                    .invoke(alice, "kv", "rmw", vec![b"k0".to_vec()], &mut rng)
                    .unwrap();
            }
        }
        if b % 3 == 2 {
            chain
                .invoke(
                    alice,
                    "kv",
                    "del",
                    vec![format!("k{}", b % 7).into_bytes()],
                    &mut rng,
                )
                .unwrap();
        }
        let outcomes = chain.cut_block();
        assert!(!outcomes.is_empty());
        history.push(snapshot(chain));
    }
    history
}

fn durable_chain(seed: u64, config: StorageConfig) -> (FabricChain, Identity) {
    let mut rng = seeded(seed);
    let mut chain = FabricChain::with_storage(
        &["Org1", "Org2"],
        &mut rng,
        config,
        ValidationConfig::parallel(2),
    )
    .unwrap();
    let alice = setup(&mut chain, seed);
    (chain, alice)
}

/// The in-memory twin: same seeds, same workload, no disk.
fn reference_history(seed: u64, blocks: u64) -> Vec<(Digest, Digest)> {
    let mut rng = seeded(seed);
    let mut chain = FabricChain::new(&["Org1", "Org2"], &mut rng);
    let alice = setup(&mut chain, seed);
    run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd)
}

/// Truncate `path` to `keep` bytes (simulated crash mid-write).
fn truncate_file(path: &Path, keep: u64) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(keep.min(f.metadata().unwrap().len())).unwrap();
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
        run_workload(&mut chain, &alice, 8, seed ^ 0xabcd)
    };
    assert_eq!(history, reference_history(seed, 8), "twin workloads agree");

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
    let mut rng = seeded(seed);
    match FabricChain::with_storage(
        &["Org1", "Org2"],
        &mut rng,
        config,
        ValidationConfig::default(),
    ) {
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
            run_workload(&mut chain, &alice, 6, seed ^ 0xabcd);
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
        let history = run_workload(&mut chain, &alice, 8, seed ^ 0xabcd);
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
    let mut twin = FabricChain::new(&["Org1", "Org2"], &mut seeded(seed));
    let alice = setup(&mut twin, seed);
    run_workload(&mut twin, &alice, at, seed ^ 0xabcd);
    let snapshot = twin.export_snapshot();
    run_workload(&mut twin, &alice, blocks - at, seed ^ 0xdcba);

    let dir = TestDir::new("recover-lost-snapshot-state");
    let config = StorageConfig::new(dir.path())
        .fsync(FsyncPolicy::Never)
        .checkpoint_every(3);
    {
        let mut chain = FabricChain::from_snapshot(
            &["Org1", "Org2"],
            &mut seeded(seed),
            config.clone(),
            LsmState::default_config(&config),
            ValidationConfig::parallel(2),
            &snapshot,
        )
        .unwrap();
        setup(&mut chain, seed);
        for h in at..blocks {
            let block = twin.store().block(h).unwrap();
            chain.commit_ordered(block.transactions.clone(), block.header.timestamp_us);
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
            run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd);
        }

        let (chain, _) = durable_chain(seed, config);
        let reference = reference_history(seed, blocks);
        prop_assert_eq!(chain.height(), blocks);
        let (digest, root) = reference.last().unwrap();
        prop_assert_eq!(chain.state().state_digest(), *digest);
        prop_assert_eq!(chain.state_root(), *root);
        chain.store().verify_chain().unwrap();
    }

    /// Cut the block file anywhere: recovery keeps the surviving block
    /// prefix, and the recovered state must equal the reference replay at
    /// exactly that height.
    #[test]
    fn block_file_truncation_recovers_a_prefix(
        seed in 0u64..500,
        blocks in 3u64..9,
        cut_blocks in 0u64..1_000_000,
    ) {
        let dir = TestDir::new("recover-block-cut");
        // No checkpoints: an artificial cut below a checkpoint's height is
        // (correctly) reported as corruption, which the prefix property
        // below does not model;
        // `reopen_after_checkpoints_recovers_full_state` exercises
        // checkpoints.
        let config = StorageConfig::new(dir.path())
            .fsync(FsyncPolicy::Never)
            .checkpoint_every(1_000);
        {
            let (mut chain, alice) = durable_chain(seed, config.clone());
            run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd);
        }
        let data_path = dir.path().join(BLOCKS_DATA_FILE);
        let len = std::fs::metadata(&data_path).unwrap().len();
        truncate_file(&data_path, cut_blocks % (len + 1));

        let (chain, alice) = durable_chain(seed, config);
        let reference = reference_history(seed, blocks);
        let height = chain.height();
        prop_assert!(height <= blocks);
        let (digest, root) = reference[height as usize];
        prop_assert_eq!(chain.state().state_digest(), digest);
        prop_assert_eq!(chain.state_root(), root);
        chain.store().verify_chain().unwrap();

        // The repaired store accepts new commits at the recovered height.
        let mut chain = chain;
        let mut rng = seeded(seed ^ 7777);
        chain
            .invoke(&alice, "kv", "put", vec![b"post".to_vec(), b"crash".to_vec()], &mut rng)
            .unwrap();
        chain.cut_block();
        prop_assert_eq!(chain.height(), height + 1);
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
        let durable = run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd);
        let reference = reference_history(seed, blocks);
        prop_assert_eq!(durable, reference);
    }
}
