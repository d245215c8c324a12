//! Larger-than-RAM state: a chain whose state database outgrows its memory
//! budget, crashed and recovered, with a view query on top.
//!
//! The peer stores its state in the disk-backed LSM backend with
//! deliberately small budgets (256 KiB memtable, 384 KiB of caches), then
//! bulk-loads tens of thousands of keys — far more value bytes than the
//! engine may keep resident. Mid-stream the process "crashes": the chain
//! is dropped without a flush, losing its memtable. Recovery opens the LSM
//! at its manifest, rebuilds the memtable from the blocks after it in the
//! block file, re-verifies every rolling state root, and proves a
//! composite view-storage key under the state digest before Bob's view
//! query runs end-to-end. Run with:
//!
//! ```text
//! cargo run --release --example million_keys [n_keys]
//! ```
//!
//! `n_keys` defaults to 60_000; pass 1_000_000 for the eponymous run.

use ledgerview::fabric::chaincode::TxContext;
use ledgerview::fabric::identity::{Identity, OrgId};
use ledgerview::fabric::{Chaincode, FabricChain, FabricError};
use ledgerview::prelude::*;
use ledgerview::statedb::LsmConfig;
use ledgerview::store::testdir::TestDir;
use ledgerview::views::verify;

const SEED: u64 = 2026;
const KEYS_PER_TX: usize = 1_000;
const TXS_PER_BLOCK: usize = 8;
const VALUE_BYTES: usize = 200;

/// `fill start count`: write `count` sequential accounts in one
/// transaction — the bulk-load path that makes the state outgrow RAM
/// without paying one signature per key.
struct BulkFill;

impl Chaincode for BulkFill {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        if function != "fill" {
            return Err(FabricError::ChaincodeError(format!("unknown {function}")));
        }
        let num = |i: usize| -> usize { String::from_utf8_lossy(&args[i]).parse().unwrap_or(0) };
        let (start, count) = (num(0), num(1));
        for k in start..start + count {
            ctx.put_state(format!("acct{k:07}"), vec![(k % 251) as u8; VALUE_BYTES]);
        }
        Ok(vec![])
    }
}

/// Open (or recover) the peer: LSM storage under `dir` with budgets small
/// enough that the bulk load is larger than memory many times over.
fn open_peer(dir: &TestDir) -> (FabricChain, Identity, Identity) {
    let mut rng = ledgerview::crypto::rng::seeded(SEED);
    let lsm = LsmConfig::new(dir.path().join("lsm"))
        .memtable_bytes(256 * 1024)
        .block_cache_bytes(256 * 1024)
        .row_cache_bytes(128 * 1024)
        .sync(false);
    let mut chain = FabricChain::with_lsm_storage_tuned(
        &["ManufacturerOrg", "AuditorOrg"],
        &mut rng,
        StorageConfig::new(dir.path())
            .fsync(FsyncPolicy::EveryN(512))
            .checkpoint_every(4),
        lsm,
        ValidationConfig::parallel(2),
    )
    .expect("open lsm chain");
    let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
    ledgerview::deploy_ledgerview_contracts(&mut chain, policy);
    chain.deploy(
        "bulk",
        Box::new(BulkFill),
        EndorsementPolicy::AnyOf(chain.org_ids()),
    );
    let owner = chain
        .enroll(&OrgId::new("ManufacturerOrg"), "view-owner", &mut rng)
        .unwrap();
    let alice = chain
        .enroll(&OrgId::new("ManufacturerOrg"), "alice", &mut rng)
        .unwrap();
    (chain, owner, alice)
}

fn main() {
    let n_keys: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(60_000);
    let mut rng = ledgerview::crypto::rng::seeded(SEED ^ 0xfeed);
    let dir = TestDir::new("million-keys-example");

    // ── First life: bulk-load `n_keys` accounts plus one view'd shipment.
    let (mut chain, owner, alice) = open_peer(&dir);
    println!("loading {n_keys} keys x {VALUE_BYTES} B through the LSM backend...");
    let mut start = 0;
    while start < n_keys {
        for _ in 0..TXS_PER_BLOCK {
            if start >= n_keys {
                break;
            }
            let count = KEYS_PER_TX.min(n_keys - start);
            chain
                .invoke(
                    &alice,
                    "bulk",
                    "fill",
                    vec![
                        start.to_string().into_bytes(),
                        count.to_string().into_bytes(),
                    ],
                    &mut rng,
                )
                .unwrap();
            start += count;
        }
        chain.cut_block();
    }

    let mut manager: HashBasedManager = ViewManager::new(owner, false);
    manager
        .create_view(
            &mut chain,
            "V_Audit",
            ViewPredicate::attr_eq("to", "Warehouse 1"),
            // Irrevocable: merged entries live under composite
            // `vs~data~<view>~<n>` keys in the view-storage contract.
            AccessMode::Irrevocable,
            &mut rng,
        )
        .unwrap();
    manager
        .invoke_with_secret(
            &mut chain,
            &alice,
            &ClientTransaction::new(
                vec![
                    ("shipment", AttrValue::int(1)),
                    ("to", AttrValue::str("Warehouse 1")),
                ],
                b"type=battery;amount=200".to_vec(),
            ),
            &mut rng,
        )
        .unwrap();
    manager.flush(&mut chain, &mut rng).unwrap();
    let bob_keys = EncryptionKeyPair::generate(&mut rng);
    manager
        .grant_access(&mut chain, "V_Audit", bob_keys.public(), &mut rng)
        .unwrap();

    let height = chain.height();
    let digest = chain.state().state_digest();
    let backend = chain.lsm_backend().expect("lsm backend");
    let stats = backend.lsm_stats();
    let value_bytes = (n_keys * VALUE_BYTES) as u64;
    // The engine may hold at most its configured budgets: 256 KiB of
    // memtable plus 384 KiB of caches (the digest directory and table
    // metadata are reported separately below).
    let budget = (256 + 256 + 128) * 1024u64;
    println!(
        "committed {height} blocks: {} flushes, {} compactions, write amp {:.2}",
        stats.flushes,
        stats.compactions,
        stats.write_amplification()
    );
    println!(
        "{value_bytes} B of values under a {budget} B memtable+cache budget \
         ({:.0}x larger than memory; resident now: memtable {} B, caches {} B, \
         table meta {} B, digest directory {} B)",
        value_bytes as f64 / budget as f64,
        stats.memtable_bytes,
        stats.cache_resident_bytes,
        stats.table_meta_resident_bytes,
        backend.directory_resident_bytes(),
    );
    assert!(stats.flushes > 0, "load never reached the disk");
    assert!(
        stats.compactions > 0,
        "no compaction ran, so the compaction reader went unexercised"
    );
    assert!(
        stats.memtable_bytes as u64 + stats.cache_resident_bytes as u64 <= budget,
        "engine exceeded its memory budget"
    );
    assert!(
        value_bytes > 4 * budget,
        "workload is not larger than memory"
    );

    // ── Crash: no flush, so the memtable is lost.
    println!(
        "crashing the peer unflushed (losing a {} B memtable)...",
        stats.memtable_bytes
    );
    drop(chain);

    // ── Second life: recovery = LSM manifest + the later blocks replayed
    //    from `blocks.dat`, with every rolling state root re-verified.
    let (chain, _owner, _alice) = open_peer(&dir);
    assert_eq!(chain.height(), height, "full history recovered");
    assert_eq!(chain.state().state_digest(), digest, "state bit-identical");
    chain.store().verify_chain().unwrap();
    println!("recovered to height {} with a bit-identical state", height);

    // Spot-check recovered accounts straight off the disk.
    for k in [0, n_keys / 2, n_keys - 1] {
        let key = format!("acct{k:07}");
        let value = chain.state().get(&key).expect("account survived");
        assert_eq!(value, vec![(k % 251) as u8; VALUE_BYTES], "{key}");
    }

    // ── Composite-key view query: find the view's storage entry by its
    //    composite prefix, prove it under the full state digest, then run
    //    Bob's end-to-end query with soundness + completeness checks.
    let state = chain.state();
    let composite = state
        .prefix_scan("vs~data~V_Audit~")
        .into_iter()
        .map(|(k, _)| k)
        .next()
        .expect("view storage entry exists");
    let (proof, leaf) = state.prove(&composite).expect("provable");
    assert!(ledgerview::fabric::StateDb::verify_proof(
        &state.state_digest(),
        &leaf,
        &proof
    ));
    println!("proved composite key {composite:?} under the state digest");

    let mut bob = ViewReader::new(bob_keys);
    bob.obtain_view_key(&chain, "V_Audit").unwrap();
    let response = manager
        .query_view("V_Audit", &bob.public(), None, &mut rng)
        .unwrap();
    let revealed = bob.open_response(&chain, "V_Audit", &response).unwrap();
    assert_eq!(revealed.len(), 1);
    println!(
        "view query answered: secret {:?}",
        String::from_utf8_lossy(&revealed[0].secret)
    );
    let (sound, complete) =
        verify::verify_view(&chain, "V_Audit", &revealed, u64::MAX, true).unwrap();
    assert!(sound.ok && complete.ok);
    println!(
        "post-recovery verification: soundness ok ({} checked), completeness ok ({} checked)",
        sound.checked, complete.checked
    );
}
