//! Quickstart: the Alice/Bob workflow of Fig 3.
//!
//! Alice (a client) invokes a transaction whose secret part must be hidden
//! from the blockchain peers. The view owner's manager conceals it,
//! includes it in a view, and later answers Bob's query; Bob validates
//! everything against the chain. Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use ledgerview::prelude::*;
use ledgerview::views::verify;
use std::collections::HashSet;

fn main() {
    let mut rng = ledgerview::crypto::rng::seeded(2024);

    // ── Deployment: a two-org permissioned blockchain with the LedgerView
    //    contracts installed.
    let mut chain = FabricChain::new(&["ManufacturerOrg", "AuditorOrg"], &mut rng);
    let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
    ledgerview::deploy_ledgerview_contracts(&mut chain, policy);

    let owner = chain
        .enroll(&OrgId::new("ManufacturerOrg"), "view-owner", &mut rng)
        .unwrap();
    let alice = chain
        .enroll(&OrgId::new("ManufacturerOrg"), "alice", &mut rng)
        .unwrap();

    // ── The view owner creates a revocable, hash-based view of all
    //    shipments to Warehouse 1 (Example 3.2 of the paper).
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
    println!("created view V_Warehouse1 (revocable, hash-based)");

    // ── Alice invokes transactions. Shipment metadata is public; the
    //    contents and price are the secret part.
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
        let tid = manager
            .invoke_with_secret(&mut chain, &alice, &tx, &mut rng)
            .unwrap();
        println!(
            "committed shipment #{} → {to}  (tid {})",
            1000 + i,
            tid.short()
        );
    }
    manager.flush(&mut chain, &mut rng).unwrap();
    println!(
        "ledger height {} — the secret parts are on-chain only as salted hashes",
        chain.height()
    );

    // ── Bob is granted access: K_V is sealed to his public key and the
    //    dissemination is recorded on the chain.
    let bob_keys = EncryptionKeyPair::generate(&mut rng);
    manager
        .grant_access(&mut chain, "V_Warehouse1", bob_keys.public(), &mut rng)
        .unwrap();
    let mut bob = ViewReader::new(bob_keys);
    bob.obtain_view_key(&chain, "V_Warehouse1").unwrap();
    println!("granted Bob access; he recovered K_V from the on-chain V_access entry");

    // ── Bob queries the view and validates the answer against the ledger.
    let response = manager
        .query_view("V_Warehouse1", &bob.public(), None, &mut rng)
        .unwrap();
    let revealed = bob
        .open_response(&chain, "V_Warehouse1", &response)
        .unwrap();
    println!("Bob sees {} transactions:", revealed.len());
    for tx in &revealed {
        println!(
            "  {} → secret: {}",
            tx.tid.short(),
            String::from_utf8_lossy(&tx.secret)
        );
    }
    assert_eq!(revealed.len(), 2, "only Warehouse 1 shipments are visible");

    // ── Verifiable soundness and completeness (Proposition 4.1).
    let (sound, complete) =
        verify::verify_view(&chain, "V_Warehouse1", &revealed, u64::MAX, true).unwrap();
    println!(
        "verification: soundness ok={} ({} checked), completeness ok={} ({} checked)",
        sound.ok, sound.checked, complete.ok, complete.checked
    );
    assert!(sound.ok && complete.ok);

    // ── Revocation: rotate K_V away from Bob.
    manager
        .revoke_access(&mut chain, "V_Warehouse1", &bob.public(), &mut rng)
        .unwrap();
    assert!(bob.obtain_view_key(&chain, "V_Warehouse1").is_err());
    println!("revoked Bob: the rotated view key is no longer sealed to him");

    // Completeness can also be verified with a full ledger scan:
    let tids: HashSet<TxId> = revealed.iter().map(|r| r.tid).collect();
    let scan = verify::verify_completeness_scan(&chain, "V_Warehouse1", &tids, u64::MAX).unwrap();
    assert!(scan.ok);
    println!("full-ledger-scan completeness check also passed — done.");

    // ── No transaction was silently invalidated at commit. A transaction
    //    can fail MVCC or endorsement checks even though `invoke` succeeded;
    //    every block records each one's fate in its validity flags.
    let flags: Vec<bool> = chain
        .store()
        .iter()
        .flat_map(|block| block.validity.iter().copied())
        .collect();
    assert!(
        flags.iter().all(|valid| *valid),
        "a transaction was invalidated at commit"
    );
    println!(
        "validation flags checked: {} committed transactions, all valid.",
        flags.len()
    );
}
