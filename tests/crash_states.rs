//! Recovery from every state a crash can leave.
//!
//! Two seeded runs take a directory image at each of the engine's install
//! points — after `Lsm::wait` for the bare engine, after
//! `FabricChain::flush` for a durable chain — so the runs write exactly
//! the bytes they would write unobserved. For each flush or checkpoint,
//! `common/crash.rs` turns the images before and after it into the
//! directories a crash during it can leave, and each one is reopened:
//!
//! * before the manifest publish, or after it but before the obsolete
//!   tables are deleted: the reopen succeeds, holds the published state
//!   (for a chain: the reference state at the height its block file
//!   holds), and leaves exactly the published tables and no
//!   `MANIFEST.tmp` on disk;
//! * with the block file cut anywhere: the reopen holds the reference
//!   state at the surviving height, or — when the cut removed blocks the
//!   published manifest covers — fails with `FabricError::Storage`; it
//!   never panics.
//!
//! Every recovered chain then commits one more block.

#[path = "common/chain.rs"]
mod chain;
#[path = "common/crash.rs"]
mod crash;

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use chain::{
    apply_twin_block, open_chain, oracle_digest, reference_history, submit_block,
    twin_with_snapshot, Shape,
};
use crash::{Blocks, Family, Layout};
use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::lsm::LSM_SUBDIR;
use ledgerview::fabric::{FabricChain, FabricError, Version};
use ledgerview::prelude::{FsyncPolicy, StorageConfig};
use ledgerview::statedb::manifest::{self, MANIFEST_FILE};
use ledgerview::statedb::sstable::parse_table_file_name;
use ledgerview::statedb::{Lsm, LsmConfig};
use ledgerview::store::blockfile::BLOCKS_DATA_FILE;
use ledgerview::store::testdir::TestDir;

/// Assert that the table files in the LSM directory `dir` are exactly the
/// tables its manifest names, and that no `MANIFEST.tmp` is left.
fn assert_only_published_tables(dir: &Path, what: &str) {
    let live: BTreeSet<u64> = manifest::load(dir)
        .unwrap()
        .map_or_else(BTreeSet::new, |m| m.live_seqs().into_iter().collect());
    let on_disk: BTreeSet<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| parse_table_file_name(&e.unwrap().file_name().to_string_lossy()))
        .collect();
    assert_eq!(on_disk, live, "{what}: tables on disk");
    assert!(
        !manifest::tmp_path(dir).exists(),
        "{what}: MANIFEST.tmp left"
    );
}

// ---------------------------------------------------------------------------
// the engine alone
// ---------------------------------------------------------------------------

type Contents = BTreeMap<String, (Option<Vec<u8>>, Version)>;

/// What a reopened engine must hold: the meta of the last published
/// flush, and the records written before it.
struct Published {
    meta: Option<Vec<u8>>,
    contents: Contents,
}

fn lsm_config(dir: &Path) -> LsmConfig {
    LsmConfig::new(dir)
        .memtable_bytes(2048)
        .block_bytes(512)
        .table_target_bytes(4096)
        .l0_compact_tables(2)
        .level_base_bytes(4 << 10)
        .level_growth(4)
        .sync(false)
}

#[test]
fn every_crash_state_of_an_lsm_reopens_to_its_published_tree() {
    const FLUSHES: u32 = 24;
    let live = TestDir::new("crash-lsm-live");
    let scratch = TestDir::new("crash-lsm-state");
    let (mut lsm, _) = Lsm::open(lsm_config(live.path())).unwrap();
    let mut contents = Contents::new();
    let mut published = Published {
        meta: None,
        contents: Contents::new(),
    };
    let mut before = crash::image(live.path());
    let (mut compacting, mut states) = (0, [0usize; 2]);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for flush in 0..FLUSHES {
        for tx_num in 0..60 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = format!("k{:03}", x % 160);
            let version = Version {
                block_num: u64::from(flush) + 1,
                tx_num,
            };
            let value = (x >> 60 != 0).then(|| vec![x as u8; 8 + (x >> 8) as usize % 40]);
            match &value {
                Some(v) => lsm.put(key.clone(), v.clone(), version),
                None => lsm.delete(key.clone(), version),
            }
            contents.insert(key, (value, version));
        }
        let compactions = lsm.stats().compactions;
        let meta = format!("flush {flush}").into_bytes();
        lsm.flush(&meta).unwrap();
        lsm.wait().unwrap();
        if lsm.stats().compactions > compactions {
            compacting += 1;
        }
        let after = crash::image(live.path());
        let next = Published {
            meta: Some(meta),
            contents: contents.clone(),
        };
        let layout = Layout {
            lsm: "",
            blocks: None,
        };
        for state in crash::states(&before, &after, &layout) {
            let what = format!("flush {flush}, {:?}: {}", state.family, state.label);
            let expected = match state.family {
                Family::BeforePublish => &published,
                Family::AfterPublish => &next,
                Family::BlockCut => unreachable!("no block file"),
            };
            states[(state.family == Family::AfterPublish) as usize] += 1;
            crash::restore(&state.image, scratch.path());
            let (reopened, meta) =
                Lsm::open(lsm_config(scratch.path())).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(meta, expected.meta, "{what}");
            let mut found = Contents::new();
            reopened
                .for_each(&mut |r| {
                    found.insert(r.key, (r.value, r.version));
                })
                .unwrap();
            assert!(found == expected.contents, "{what}: contents differ");
            assert_only_published_tables(scratch.path(), &what);
        }
        before = after;
        published = next;
    }
    assert!(compacting >= FLUSHES / 3, "{compacting} flushes compacted");
    assert!(states[0] > 10 * FLUSHES as usize, "{states:?}");
    assert!(states[1] > FLUSHES as usize, "{states:?}");
}

// ---------------------------------------------------------------------------
// a whole chain
// ---------------------------------------------------------------------------

/// Eleven keys, 120-byte values: large against the tiny memtable, so
/// checkpoints come from memtable pressure as well as the interval, and
/// their jobs compact.
const SHAPE: Shape = Shape {
    keys: 11,
    value_len: 120,
};

fn storage(dir: &Path) -> StorageConfig {
    StorageConfig::new(dir)
        .fsync(FsyncPolicy::Never)
        .checkpoint_every(3)
}

/// How many crash states of each family a sweep reopened, and how many
/// of the block-cut ones were refused.
#[derive(Debug, Default)]
struct Swept {
    checkpoints: usize,
    before_publish: usize,
    after_publish: usize,
    block_cut: usize,
    refused: usize,
}

/// Commit blocks `base..end` on `chain` (stored under `live`) through
/// `commit`, and reopen every crash state of every checkpoint among them.
/// `history[h]` is the reference `(state_digest, state_root)` at height
/// `h`.
fn sweep_chain(
    seed: u64,
    live: &Path,
    mut chain: FabricChain,
    base: u64,
    end: u64,
    mut commit: impl FnMut(&mut FabricChain, u64),
    history: &[(Digest, Digest)],
) -> Swept {
    let scratch = TestDir::new("crash-chain-state");
    let manifest = format!("{LSM_SUBDIR}/{MANIFEST_FILE}");
    let mut swept = Swept::default();
    let mut before = crash::image(live);
    // The block file's length after each block from the base, and the
    // height of the published checkpoint.
    let mut ends: Vec<u64> = Vec::new();
    let mut checkpoint = base;
    let len_at = |ends: &[u64], height: u64| match height - base {
        0 => 0,
        n => ends[n as usize - 1],
    };
    for h in base..end {
        commit(&mut chain, h);
        chain.flush().unwrap();
        let after = crash::image(live);
        ends.push(after[BLOCKS_DATA_FILE].len() as u64);
        if after.get(&manifest) == before.get(&manifest) {
            before = after;
            continue;
        }
        swept.checkpoints += 1;
        let layout = Layout {
            lsm: &format!("{LSM_SUBDIR}/"),
            blocks: Some(Blocks {
                file: BLOCKS_DATA_FILE,
                old_checkpoint_len: len_at(&ends, checkpoint),
                ends: &ends,
            }),
        };
        let published_len = len_at(&ends, h + 1);
        for state in crash::states(&before, &after, &layout) {
            let what = format!("block {h}, {:?}: {}", state.family, state.label);
            let len = state.block_len.expect("a chain has a block file");
            crash::restore(&state.image, scratch.path());
            let reopened = open_chain(seed, storage(scratch.path()), true, None);
            match state.family {
                Family::BeforePublish => swept.before_publish += 1,
                Family::AfterPublish => swept.after_publish += 1,
                Family::BlockCut => swept.block_cut += 1,
            }
            if state.family == Family::BlockCut && len < published_len {
                match reopened {
                    Err(FabricError::Storage(_)) => swept.refused += 1,
                    Err(other) => panic!("{what}: expected a storage error, got {other}"),
                    Ok(_) => panic!("{what}: blocks the manifest covers were accepted as lost"),
                }
                continue;
            }
            let (mut recovered, alice) = reopened.unwrap_or_else(|e| panic!("{what}: {e}"));
            let height = base + ends.iter().filter(|&&e| e <= len).count() as u64;
            assert_eq!(recovered.height(), height, "{what}");
            assert_eq!(recovered.store().base(), base, "{what}");
            let (digest, root) = history[height as usize];
            assert_eq!(recovered.state().state_digest(), digest, "{what}");
            assert_eq!(oracle_digest(recovered.state()), digest, "{what}");
            assert_eq!(recovered.state_root(), root, "{what}");
            recovered.store().verify_chain().unwrap();
            assert_only_published_tables(&scratch.path().join(LSM_SUBDIR), &what);

            let mut rng = seeded(seed ^ height);
            let args = vec![b"post".to_vec(), b"crash".to_vec()];
            recovered
                .invoke(&alice, "kv", "put", args, &mut rng)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            let outcomes = recovered.cut_block();
            assert!(outcomes.iter().all(|o| o.is_valid()), "{what}");
            assert_eq!(recovered.height(), height + 1, "{what}");
        }
        checkpoint = h + 1;
        before = after;
    }
    swept
}

fn assert_swept(swept: &Swept) {
    assert!(swept.checkpoints >= 4, "{swept:?}");
    assert!(swept.before_publish >= 10 * swept.checkpoints, "{swept:?}");
    assert!(swept.after_publish > swept.checkpoints, "{swept:?}");
    assert!(
        swept.refused > 0 && swept.refused < swept.block_cut,
        "{swept:?}"
    );
}

#[test]
fn every_crash_state_of_a_chain_recovers_its_committed_prefix() {
    let (seed, blocks) = (43, 12);
    let history = reference_history(seed, blocks, SHAPE);
    let live = TestDir::new("crash-chain-live");
    let (chain, alice) = open_chain(seed, storage(live.path()), true, None).unwrap();
    let mut rng = seeded(seed ^ 0xabcd);
    let commit = |chain: &mut FabricChain, b: u64| {
        submit_block(chain, &alice, b, &mut rng, SHAPE);
        assert!(!chain.cut_block().is_empty());
    };
    let swept = sweep_chain(seed, live.path(), chain, 0, blocks, commit, &history);
    assert_swept(&swept);
}

#[test]
fn every_crash_state_of_a_snapshot_installed_chain_recovers_its_committed_prefix() {
    let (seed, at, blocks) = (78, 4, 16);
    let (twin, snapshot, history) = twin_with_snapshot(seed, at, blocks, SHAPE);
    let live = TestDir::new("crash-pruned-live");
    let (chain, _) = open_chain(seed, storage(live.path()), true, Some(&snapshot)).unwrap();
    let commit = |chain: &mut FabricChain, h: u64| apply_twin_block(chain, &twin, h);
    let swept = sweep_chain(seed, live.path(), chain, at, blocks, commit, &history);
    assert_swept(&swept);
}
