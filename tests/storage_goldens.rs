//! Byte-level goldens of the disk-backed commit path.
//!
//! One fixed-seed workload — puts, overwrites, deletes, an MVCC conflict
//! pair, four checkpoint intervals and one reopen — runs through
//! `with_lsm_storage_tuned` under budgets small enough to flush and
//! compact. Pinned: the final rolling state root and state digest, the
//! number of blocks the reopen recovered, and the length and SHA-256 of
//! every file left in the storage directory. The values were taken on the
//! tree where `DurableBackend` and `LsmBackend` were still two types, so a
//! refactor of the commit protocol that moves one byte of the block file
//! or an SSTable fails here.
//!
//! The one file whose content is not pinned is `lsm/MANIFEST`: it embeds
//! the metadata blob published with each flush, and only its length is
//! held — 40 bytes more than on that tree, because the blob now carries
//! `base_height` and `base_prev_hash`.

use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::sha256::sha256;
use ledgerview::fabric::chaincode::TxContext;
use ledgerview::fabric::endorsement::EndorsementPolicy;
use ledgerview::fabric::identity::{Identity, OrgId};
use ledgerview::fabric::{Chaincode, FabricChain, FabricError};
use ledgerview::prelude::{FsyncPolicy, StorageConfig, ValidationConfig};
use ledgerview::statedb::LsmConfig;
use ledgerview::store::testdir::TestDir;
use std::path::Path;

const SEED: u64 = 20;
const BLOCKS_BEFORE_REOPEN: u64 = 8;
const BLOCKS_AFTER_REOPEN: u64 = 6;

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

fn storage(dir: &Path) -> StorageConfig {
    StorageConfig::new(dir)
        .fsync(FsyncPolicy::Never)
        .checkpoint_every(3)
}

/// Budgets small enough that the memtable also flushes under pressure
/// between interval checkpoints, and level 0 compacts.
fn tiny_lsm_config(dir: &Path) -> LsmConfig {
    LsmConfig::new(dir.join("lsm"))
        .memtable_bytes(2 * 1024)
        .block_bytes(512)
        .table_target_bytes(4 * 1024)
        .block_cache_bytes(4 * 1024)
        .row_cache_bytes(2 * 1024)
        .l0_compact_tables(2)
        .level_base_bytes(16 * 1024)
        .sync(false)
}

fn open(dir: &Path) -> (FabricChain, Identity) {
    let mut rng = seeded(SEED);
    let orgs = ["Org1", "Org2"];
    let validation = ValidationConfig::parallel(2);
    let tuning = tiny_lsm_config(dir);
    let mut chain =
        FabricChain::with_lsm_storage_tuned(&orgs, &mut rng, storage(dir), tuning, validation)
            .unwrap();
    chain.deploy(
        "kv",
        Box::new(Kv),
        EndorsementPolicy::AllOf(chain.org_ids()),
    );
    let alice = chain
        .enroll(&OrgId::new("Org1"), "alice", &mut seeded(SEED ^ 0x5eed))
        .unwrap();
    (chain, alice)
}

/// Block `b` of the workload: four puts over a 13-key space (so later
/// blocks overwrite earlier ones), a conflicting read-modify-write pair on
/// odd blocks, a delete every third block.
fn commit_block(chain: &mut FabricChain, alice: &Identity, b: u64, rng: &mut impl rand::RngCore) {
    for t in 0..4u64 {
        let key = format!("k{:02}", (b * 4 + t) % 13);
        let value = vec![(b * 7 + t) as u8; 100 + (b as usize % 5) * 40];
        chain
            .invoke(alice, "kv", "put", vec![key.into_bytes(), value], rng)
            .unwrap();
    }
    if b % 2 == 1 {
        for _ in 0..2 {
            chain
                .invoke(alice, "kv", "rmw", vec![b"k00".to_vec()], rng)
                .unwrap();
        }
    }
    if b % 3 == 2 {
        let key = format!("k{:02}", b % 13);
        chain
            .invoke(alice, "kv", "del", vec![key.into_bytes()], rng)
            .unwrap();
    }
    assert!(!chain.cut_block().is_empty());
}

/// What the run leaves behind: `(root, digest, blocks recovered by the
/// reopen, [(relative path, length, sha256 hex)] sorted by path)`.
type Outcome = (String, String, u64, Vec<(String, u64, String)>);

fn run() -> Outcome {
    let dir = TestDir::new("goldens-lsm");
    let mut rng = seeded(SEED ^ 0xabcd);
    {
        let (mut chain, alice) = open(dir.path());
        for b in 0..BLOCKS_BEFORE_REOPEN {
            commit_block(&mut chain, &alice, b, &mut rng);
        }
    }
    let (mut chain, alice) = open(dir.path());
    let recovered = chain.height();
    for b in recovered..recovered + BLOCKS_AFTER_REOPEN {
        commit_block(&mut chain, &alice, b, &mut rng);
    }
    chain.flush().unwrap();
    let root = chain.state_root().to_hex();
    let digest = chain.state().state_digest().to_hex();
    drop(chain);

    let mut files = Vec::new();
    collect_files(dir.path(), dir.path(), &mut files);
    files.sort();
    (root, digest, recovered, files)
}

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<(String, u64, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            collect_files(root, &path, out);
            continue;
        }
        let bytes = std::fs::read(&path).unwrap();
        let name = path
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .to_string();
        out.push((name, bytes.len() as u64, sha256(&bytes).to_hex()));
    }
}

fn assert_matches(outcome: &Outcome, root: &str, digest: &str, files: &[(&str, u64, &str)]) {
    let (got_root, got_digest, recovered, got_files) = outcome;
    assert_eq!(got_root, root, "rolling state root");
    assert_eq!(got_digest, digest, "state digest");
    assert_eq!(*recovered, BLOCKS_BEFORE_REOPEN, "blocks recovered");
    let names = |it: &mut dyn Iterator<Item = &str>| it.collect::<Vec<_>>().join(" ");
    assert_eq!(
        names(&mut got_files.iter().map(|f| f.0.as_str())),
        names(&mut files.iter().map(|f| f.0)),
        "files in the storage directory: {got_files:#?}"
    );
    for ((name, len, hash), (_, want_len, want_hash)) in got_files.iter().zip(files) {
        assert_eq!(len, want_len, "length of {name}: {got_files:#?}");
        // "" = content not pinned (the LSM manifest; see the module docs).
        if !want_hash.is_empty() {
            assert_eq!(hash, want_hash, "sha256 of {name}: {got_files:#?}");
        }
    }
}

const ROOT: &str = "81625e715126f842ccb76c7c56b99796f236397d7f59cda1c493df94c2fc27bf";
const DIGEST: &str = "d3fedfc75f5387bd6a79515ae9a2a2ead74c94d2eb6fa947aee021ddb4e6b99a";
const BLOCKS_DAT: (&str, u64, &str) = (
    "blocks.dat",
    77_208,
    "cd83e5680ae29421df0ee33b28b0b449b039a515129ac15ac0ca612d9808cfb7",
);

#[test]
fn lsm_engine_directory_is_byte_identical() {
    let files = [
        BLOCKS_DAT,
        ("lsm/MANIFEST", 144 + 40, ""),
        (
            "lsm/sst-0000000005.tbl",
            3_100,
            "58e519316aa3cdf15f96c972497bfe88d2dc9d3c2a735d36427e80a535c7da69",
        ),
        (
            "lsm/sst-0000000006.tbl",
            2_458,
            "d14834d2774b919884ada533b44c75fbfe20968428443b258dbc19e30b5df297",
        ),
    ];
    assert_matches(&run(), ROOT, DIGEST, &files);
}
