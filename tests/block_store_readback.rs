//! A durable chain's block store keeps headers and reads bodies back from
//! its block file; an in-memory chain's keeps every body. Fed the same
//! blocks, the two must agree on every reader: `iter`, `block`,
//! `try_block`, `tip`, `find_tx`, `tx_location`, `verify_chain`,
//! `total_bytes` and `committed_tx_count`. Three states are checked:
//! freshly committed, closed and reopened, and joined from a snapshot (a
//! pruned base).
//!
//! Whether a body is held is seen from outside: with the block file
//! zeroed under an open chain, a block whose body was never read back
//! fails `try_block`, and a block already read back still answers.
//! Committing and reopening must leave every block in the first group.

#[path = "common/chain.rs"]
mod chain;

use std::path::Path;

use chain::{
    apply_twin_block, open_chain, reference_history, run_workload, setup, twin_with_snapshot, Shape,
};
use ledgerview::crypto::rng::seeded;
use ledgerview::fabric::{BlockStore, FabricChain, FabricError};
use ledgerview::prelude::{FsyncPolicy, StorageConfig, ViewError};
use ledgerview::store::blockfile::BLOCKS_DATA_FILE;
use ledgerview::store::testdir::TestDir;
use ledgerview::views::verify::ledger_edb;

const SHAPE: Shape = Shape {
    keys: 7,
    value_len: 9,
};
const SEED: u64 = 31;
const BLOCKS: u64 = 12;

fn storage(dir: &Path) -> StorageConfig {
    StorageConfig::new(dir)
        .fsync(FsyncPolicy::EveryN(4))
        .checkpoint_every(5)
}

/// The in-memory twin after `BLOCKS` blocks of the workload.
fn twin() -> FabricChain {
    let mut chain = FabricChain::new(&["Org1", "Org2"], &mut seeded(SEED));
    let alice = setup(&mut chain, SEED);
    run_workload(&mut chain, &alice, BLOCKS, SEED ^ 0xabcd, SHAPE);
    chain
}

/// Zero the block file under the open `store`: every block whose body the
/// store does not hold must fail `try_block` with `Storage`, while the
/// ledger keeps its height. The bytes are put back afterwards.
fn assert_no_body_held(dir: &Path, store: &BlockStore) {
    let path = dir.join(BLOCKS_DATA_FILE);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, vec![0u8; bytes.len()]).unwrap();
    for n in store.base()..store.height() {
        match store.try_block(n) {
            Err(FabricError::Storage(_)) => {}
            other => panic!("block {n}: body held before any reader asked ({other:?})"),
        }
    }
    std::fs::write(&path, &bytes).unwrap();
}

/// `store` must answer every reader as `twin` does over the blocks it
/// holds (from its base up), and its running totals must be the sums over
/// those blocks.
fn assert_agree(store: &BlockStore, twin: &BlockStore) {
    let base = store.base();
    assert_eq!(store.height(), twin.height());
    assert_eq!(store.tip_hash(), twin.tip_hash());
    let mine: Vec<_> = store.iter().collect();
    let theirs: Vec<_> = twin.iter().skip(base as usize).collect();
    assert_eq!(mine, theirs, "iter");
    assert_eq!(store.tip(), twin.tip(), "tip");
    assert!(store.block(base.wrapping_sub(1)).is_none());
    assert!(store.block(store.height()).is_none());
    assert!(matches!(store.try_block(store.height()), Ok(None)));
    for n in base..store.height() {
        assert_eq!(store.block(n), twin.block(n), "block {n}");
        assert_eq!(store.try_block(n).unwrap(), twin.block(n), "try_block {n}");
        for tx in &twin.block(n).unwrap().transactions {
            assert_eq!(store.find_tx(&tx.tx_id), twin.find_tx(&tx.tx_id));
            assert_eq!(store.tx_location(&tx.tx_id), twin.tx_location(&tx.tx_id));
        }
    }
    store.verify_chain().unwrap();
    let bytes: u64 = theirs.iter().map(|b| b.size_bytes()).sum();
    let valid = theirs
        .iter()
        .map(|b| b.validity.iter().filter(|v| **v).count() as u64)
        .sum::<u64>();
    let txs: u64 = theirs.iter().map(|b| b.transactions.len() as u64).sum();
    assert_eq!(store.total_bytes(), bytes, "total_bytes");
    assert_eq!(store.committed_tx_count(), valid, "committed_tx_count");
    assert_eq!(store.total_tx_count(), txs, "total_tx_count");
    if base == 0 {
        assert_eq!(store.total_bytes(), twin.total_bytes());
        assert_eq!(store.committed_tx_count(), twin.committed_tx_count());
    }
}

#[test]
fn full_store_agrees_with_its_twin_when_fresh_and_reopened() {
    let twin = twin();
    let dir = TestDir::new("readback-full");
    {
        let (mut chain, alice) = open_chain(SEED, storage(dir.path()), false, None).unwrap();
        let history = run_workload(&mut chain, &alice, BLOCKS, SEED ^ 0xabcd, SHAPE);
        assert_eq!(history, reference_history(SEED, BLOCKS, SHAPE));
        assert_no_body_held(dir.path(), chain.store());
        assert_agree(chain.store(), twin.store());
    }
    let (chain, _) = open_chain(SEED, storage(dir.path()), false, None).unwrap();
    assert_no_body_held(dir.path(), chain.store());
    assert_agree(chain.store(), twin.store());
}

#[test]
fn snapshot_joined_store_agrees_with_its_twin() {
    let (at, blocks) = (5, BLOCKS);
    let (twin, snapshot, _) = twin_with_snapshot(SEED, at, blocks, SHAPE);
    let dir = TestDir::new("readback-pruned");
    {
        let (mut chain, _) = open_chain(SEED, storage(dir.path()), false, Some(&snapshot)).unwrap();
        assert!(chain.store().tip().is_none(), "a joined store starts empty");
        assert_eq!(chain.store().tip_hash(), snapshot.prev_block_hash);
        chain.store().verify_chain().unwrap();
        for h in at..blocks {
            apply_twin_block(&mut chain, &twin, h);
        }
        assert_eq!(chain.store().base(), at);
        assert_no_body_held(dir.path(), chain.store());
        assert_agree(chain.store(), twin.store());
    }
    let (chain, _) = open_chain(SEED, storage(dir.path()), false, None).unwrap();
    assert_eq!(chain.store().base(), at);
    assert_no_body_held(dir.path(), chain.store());
    assert_agree(chain.store(), twin.store());
}

/// The scans that walk the whole ledger — the chain audit and the view
/// layer's ledger EDB — read every body back and keep none: after both,
/// with the block file zeroed, no block answers, and each scan is a typed
/// error rather than a panic.
#[test]
fn scans_hold_no_body() {
    let twin = twin();
    let dir = TestDir::new("readback-scan");
    {
        let (mut chain, alice) = open_chain(SEED, storage(dir.path()), false, None).unwrap();
        run_workload(&mut chain, &alice, BLOCKS, SEED ^ 0xabcd, SHAPE);
    }
    let (chain, _) = open_chain(SEED, storage(dir.path()), false, None).unwrap();
    chain.store().verify_chain().unwrap();
    ledger_edb(&chain).unwrap();
    let mut seen = Vec::new();
    chain
        .store()
        .for_each_block(|block| {
            seen.push(block.clone());
            Ok::<(), FabricError>(())
        })
        .unwrap();
    assert_eq!(seen, twin.store().iter().cloned().collect::<Vec<_>>());
    assert_no_body_held(dir.path(), chain.store());

    let path = dir.path().join(BLOCKS_DATA_FILE);
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    std::fs::write(&path, vec![0u8; len]).unwrap();
    assert!(matches!(
        chain.store().verify_chain(),
        Err(FabricError::Storage(_))
    ));
    assert!(matches!(
        ledger_edb(&chain),
        Err(ViewError::Fabric(FabricError::Storage(_)))
    ));
}

/// A body read back once is held: the block file can go bad under it.
#[test]
fn a_body_read_back_is_held() {
    let dir = TestDir::new("readback-held");
    let (mut chain, alice) = open_chain(SEED, storage(dir.path()), false, None).unwrap();
    run_workload(&mut chain, &alice, 4, SEED ^ 0xabcd, SHAPE);
    let first = chain.store().block(1).unwrap().clone();
    let path = dir.path().join(BLOCKS_DATA_FILE);
    let len = std::fs::metadata(&path).unwrap().len() as usize;
    std::fs::write(&path, vec![0u8; len]).unwrap();
    assert_eq!(chain.store().try_block(1).unwrap(), Some(&first));
    assert!(chain.store().try_block(2).is_err());
}

/// One byte flipped in the block file after open: the fallible reader
/// reports `Storage` for the damaged block and the right block for every
/// other, the ledger keeps its height, and the audit fails with the same
/// typed error rather than panicking.
#[test]
fn damage_after_open_is_a_typed_error() {
    let twin = twin();
    let dir = TestDir::new("readback-damage");
    let (mut chain, alice) = open_chain(SEED, storage(dir.path()), false, None).unwrap();
    run_workload(&mut chain, &alice, BLOCKS, SEED ^ 0xabcd, SHAPE);
    let path = dir.path().join(BLOCKS_DATA_FILE);
    let mut bytes = std::fs::read(&path).unwrap();
    let middle = bytes.len() / 2;
    bytes[middle] ^= 0x20;
    std::fs::write(&path, &bytes).unwrap();

    let store = chain.store();
    assert_eq!(store.height(), BLOCKS, "not a shorter ledger");
    let mut damaged = 0;
    for n in 0..BLOCKS {
        match store.try_block(n) {
            Ok(block) => assert_eq!(block, twin.store().block(n), "block {n}"),
            Err(FabricError::Storage(_)) => damaged += 1,
            Err(e) => panic!("block {n}: {e:?}"),
        }
    }
    assert_eq!(damaged, 1, "exactly the block holding the flipped byte");
    assert!(matches!(store.verify_chain(), Err(FabricError::Storage(_))));
    assert_eq!(store.total_bytes(), twin.store().total_bytes());
}
