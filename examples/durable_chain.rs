//! Durable chain: crash mid-stream, recover from disk, answer the query.
//!
//! The quickstart workflow — views, concealed secrets, grants — but the
//! peer keeps its ledger on disk (`StorageConfig`). Mid-stream the peer
//! "crashes": the process drops the chain without flushing, so the state
//! written since the last checkpoint exists only in the lost memtable. On
//! restart, recovery rebuilds it from the block file (`blocks.dat`, the
//! peer's only log) and verifies every rolling state root — after which
//! Bob's view query answers exactly as if nothing had happened. Run with:
//!
//! ```text
//! cargo run --example durable_chain
//! ```

use ledgerview::fabric::identity::{Identity, OrgId};
use ledgerview::fabric::FabricChain;
use ledgerview::prelude::*;
use ledgerview::store::testdir::TestDir;
use ledgerview::views::verify;

const SEED: u64 = 2026;

/// Open (or recover) the peer's chain from `dir`. Everything the disk does
/// not hold — org CA keys, enrolled identities, deployed chaincodes — is
/// regenerated deterministically from `SEED`, exactly as a restarted peer
/// would reload its MSP material and chaincode images from config.
fn open_peer(dir: &TestDir) -> (FabricChain, Identity, Identity) {
    let mut rng = ledgerview::crypto::rng::seeded(SEED);
    let mut chain = FabricChain::with_storage(
        &["ManufacturerOrg", "AuditorOrg"],
        &mut rng,
        StorageConfig::new(dir.path()).fsync(FsyncPolicy::EveryN(512)),
        ValidationConfig::parallel(2),
    )
    .expect("open durable chain");
    let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
    ledgerview::deploy_ledgerview_contracts(&mut chain, policy);
    let owner = chain
        .enroll(&OrgId::new("ManufacturerOrg"), "view-owner", &mut rng)
        .unwrap();
    let alice = chain
        .enroll(&OrgId::new("ManufacturerOrg"), "alice", &mut rng)
        .unwrap();
    (chain, owner, alice)
}

fn main() {
    let mut rng = ledgerview::crypto::rng::seeded(SEED ^ 0xc1a5);
    let dir = TestDir::new("durable-chain-example");

    // ── First life of the peer: durable storage under `dir`.
    let (mut chain, owner, alice) = open_peer(&dir);
    assert!(chain.is_durable());
    println!("opened durable chain in {}", dir.path().display());

    let mut manager: HashBasedManager = ViewManager::new(owner, true);
    manager
        .create_view(
            &mut chain,
            "V_Warehouse1",
            ViewPredicate::attr_eq("to", "Warehouse 1"),
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();

    for (i, (to, secret)) in [
        ("Warehouse 1", "type=battery;amount=200;price=9.99"),
        ("Warehouse 2", "type=screen;amount=50;price=89.00"),
        ("Warehouse 1", "type=camera;amount=75;price=34.50"),
    ]
    .iter()
    .enumerate()
    {
        let tx = ClientTransaction::new(
            vec![
                ("shipment", AttrValue::int(1000 + i as i64)),
                ("from", AttrValue::str("Manufacturer 1")),
                ("to", AttrValue::str(*to)),
            ],
            secret.as_bytes().to_vec(),
        );
        manager
            .invoke_with_secret(&mut chain, &alice, &tx, &mut rng)
            .unwrap();
    }
    manager.flush(&mut chain, &mut rng).unwrap();

    let bob_keys = EncryptionKeyPair::generate(&mut rng);
    manager
        .grant_access(&mut chain, "V_Warehouse1", bob_keys.public(), &mut rng)
        .unwrap();

    let height = chain.height();
    let digest = chain.state().state_digest();
    println!("committed {height} blocks; crashing the peer mid-stream...");

    // ── Crash: the process dies without flushing. No checkpoint has run
    //    yet, so the whole state lived in the memtable and is gone.
    let flushes = chain.lsm_backend().unwrap().lsm_stats().flushes;
    drop(chain);
    let _ = alice;
    println!("dropped the peer unflushed ({flushes} memtable flushes on disk)");

    // ── Second life: recovery rebuilds the memtable from the blocks in
    //    `blocks.dat` and verifies every state root on the way up.
    let (chain, _owner, _alice) = open_peer(&dir);
    assert_eq!(chain.height(), height, "full history recovered");
    assert_eq!(chain.state().state_digest(), digest, "state bit-identical");
    chain.store().verify_chain().unwrap();
    println!(
        "recovered to height {} with a bit-identical state",
        chain.height()
    );

    // ── Bob's query runs against the recovered ledger as if the crash
    //    never happened: he recovers K_V on-chain, opens the response, and
    //    verifies soundness and completeness.
    let mut bob = ViewReader::new(bob_keys);
    bob.obtain_view_key(&chain, "V_Warehouse1").unwrap();
    let response = manager
        .query_view("V_Warehouse1", &bob.public(), None, &mut rng)
        .unwrap();
    let revealed = bob
        .open_response(&chain, "V_Warehouse1", &response)
        .unwrap();
    assert_eq!(revealed.len(), 2, "both Warehouse 1 shipments visible");
    for tx in &revealed {
        println!(
            "  {} → secret: {}",
            tx.tid.short(),
            String::from_utf8_lossy(&tx.secret)
        );
    }
    let (sound, complete) =
        verify::verify_view(&chain, "V_Warehouse1", &revealed, u64::MAX, true).unwrap();
    assert!(sound.ok && complete.ok);
    println!(
        "post-recovery verification: soundness ok ({} checked), completeness ok ({} checked)",
        sound.checked, complete.checked
    );
}
