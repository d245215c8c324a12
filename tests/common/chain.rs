//! The durable-chain harness: one chaincode, one seeded workload, the
//! in-memory twin that durable chains are held to, and one way to open a
//! durable chain. Included by path from `tests/storage_recovery.rs`,
//! `tests/statedb_equivalence.rs` and `tests/crash_states.rs`.

use std::path::Path;

use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::sha256::Digest;
use ledgerview::fabric::chaincode::TxContext;
use ledgerview::fabric::digest::digest_of_entries;
use ledgerview::fabric::endorsement::EndorsementPolicy;
use ledgerview::fabric::identity::{Identity, OrgId};
use ledgerview::fabric::statedb::VersionedState;
use ledgerview::fabric::storage::ChainSnapshot;
use ledgerview::fabric::{Chaincode, FabricChain, FabricError, LsmState};
use ledgerview::prelude::{StorageConfig, ValidationConfig};
use ledgerview::statedb::LsmConfig;

/// `put key value`, `del key`, `rmw key` (read-modify-write, the MVCC
/// conflict generator).
pub struct Kv;

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

/// Deploy `Kv` and enroll the client that drives it.
pub fn setup(chain: &mut FabricChain, seed: u64) -> Identity {
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

/// Tiny engine budgets so even short workloads overflow the memtable and
/// trigger compactions.
pub fn tiny_lsm_config(dir: &Path) -> LsmConfig {
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

/// Open the durable chain stored under `storage.dir` — its LSM under
/// [`tiny_lsm_config`] or the default tuning, with `snapshot` installed
/// first when one is given — and set it up with seed `seed`.
pub fn open_chain(
    seed: u64,
    storage: StorageConfig,
    tiny: bool,
    snapshot: Option<&ChainSnapshot>,
) -> Result<(FabricChain, Identity), FabricError> {
    let tuning = if tiny {
        tiny_lsm_config(&storage.dir)
    } else {
        LsmState::default_config(&storage)
    };
    let orgs = ["Org1", "Org2"];
    let validation = ValidationConfig::parallel(2);
    let mut rng = seeded(seed);
    let mut chain = match snapshot {
        Some(snapshot) => {
            FabricChain::from_snapshot(&orgs, &mut rng, storage, tuning, validation, snapshot)
        }
        None => FabricChain::with_lsm_storage_tuned(&orgs, &mut rng, storage, tuning, validation),
    }?;
    let alice = setup(&mut chain, seed);
    Ok((chain, alice))
}

/// The shape of the mixed workload: how many keys it cycles through, and
/// how long each put's value is.
#[derive(Clone, Copy)]
pub struct Shape {
    pub keys: u64,
    pub value_len: usize,
}

/// Submit block `b` of the deterministic mixed workload: three puts, a
/// read-modify-write pair every other block (the second loses MVCC
/// validation, so blocks carry invalid transactions too) and a delete
/// every third.
pub fn submit_block(
    chain: &mut FabricChain,
    alice: &Identity,
    b: u64,
    rng: &mut impl rand::RngCore,
    shape: Shape,
) {
    for t in 0..3u64 {
        let key = format!("k{:02}", (b * 3 + t) % shape.keys);
        let value = vec![(b + t) as u8; shape.value_len];
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
        let key = format!("k{:02}", b % shape.keys);
        chain
            .invoke(alice, "kv", "del", vec![key.into_bytes()], rng)
            .unwrap();
    }
}

/// The state digest rebuilt from scratch out of the state's own entries
/// (for an LSM: records read back from disk) — independent of the
/// incremental digester that produced the other one.
pub fn oracle_digest(state: &dyn VersionedState) -> Digest {
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

/// `(state_digest, state_root)` of `chain`, its digest held to the oracle.
fn snapshot(chain: &FabricChain) -> (Digest, Digest) {
    let digest = chain.state().state_digest();
    assert_eq!(
        digest,
        oracle_digest(chain.state()),
        "at {}",
        chain.height()
    );
    (digest, chain.state_root())
}

/// Commit `blocks` blocks of the workload. Returns `(state_digest,
/// state_root)` after every block, index 0 holding the pre-workload
/// snapshot; every digest must equal the oracle's.
pub fn run_workload(
    chain: &mut FabricChain,
    alice: &Identity,
    blocks: u64,
    seed: u64,
    shape: Shape,
) -> Vec<(Digest, Digest)> {
    let mut rng = seeded(seed);
    let mut history = vec![snapshot(chain)];
    for b in 0..blocks {
        submit_block(chain, alice, b, &mut rng, shape);
        let outcomes = chain.cut_block();
        assert!(!outcomes.is_empty());
        history.push(snapshot(chain));
    }
    history
}

/// The in-memory twin: same seeds, same workload, no disk.
pub fn reference_history(seed: u64, blocks: u64, shape: Shape) -> Vec<(Digest, Digest)> {
    let mut chain = FabricChain::new(&["Org1", "Org2"], &mut seeded(seed));
    let alice = setup(&mut chain, seed);
    run_workload(&mut chain, &alice, blocks, seed ^ 0xabcd, shape)
}

/// The in-memory twin run for `blocks` blocks with a snapshot exported at
/// height `at`: the chain (whose block store feeds the pruned peers), the
/// snapshot, and `(state_digest, state_root)` per height.
pub fn twin_with_snapshot(
    seed: u64,
    at: u64,
    blocks: u64,
    shape: Shape,
) -> (FabricChain, ChainSnapshot, Vec<(Digest, Digest)>) {
    let mut twin = FabricChain::new(&["Org1", "Org2"], &mut seeded(seed));
    let alice = setup(&mut twin, seed);
    let mut rng = seeded(seed ^ 0xabcd);
    let mut history = vec![snapshot(&twin)];
    let mut exported = None;
    for b in 0..blocks {
        if b == at {
            exported = Some(twin.export_snapshot());
        }
        submit_block(&mut twin, &alice, b, &mut rng, shape);
        twin.cut_block();
        history.push(snapshot(&twin));
    }
    (twin, exported.expect("at < blocks"), history)
}

/// Apply the twin's block `h` the way a replicated peer would.
pub fn apply_twin_block(chain: &mut FabricChain, twin: &FabricChain, h: u64) {
    let block = twin.store().block(h).expect("twin holds every block");
    let outcomes = chain.commit_ordered(block.transactions.clone(), block.header.timestamp_us);
    let validity: Vec<bool> = outcomes.iter().map(|o| o.is_valid()).collect();
    assert_eq!(validity, block.validity, "block {h}");
}
