//! Supply-chain tracking over the paper's WL1 workload (§6.2, Fig 1).
//!
//! Every entity of the supply chain gets its own access-control view.
//! A node sees exactly the transfers of items it handled — including the
//! history of an item it received — and nothing else. Run with:
//!
//! ```text
//! cargo run --example supply_chain_tracking
//! ```

use ledgerview::prelude::*;
use ledgerview::supplychain::{generate, Topology, WorkloadConfig};
use ledgerview::views::verify;
use std::collections::{HashMap, HashSet};

fn main() {
    let mut rng = ledgerview::crypto::rng::seeded(7);

    // ── The WL1 topology: 1 manufacturer, 3 intermediates, 3 shops.
    let topology = Topology::wl1();
    topology.validate().unwrap();
    println!(
        "WL1 topology: {} nodes → {} views",
        topology.len(),
        topology.len()
    );

    // ── Blockchain with one organisation per entity class.
    let mut chain = FabricChain::new(&["SupplyOrg", "AuditOrg"], &mut rng);
    let policy = EndorsementPolicy::MajorityOf(chain.org_ids());
    ledgerview::deploy_ledgerview_contracts(&mut chain, policy);
    let owner = chain
        .enroll(&OrgId::new("SupplyOrg"), "view-owner", &mut rng)
        .unwrap();
    let client = chain
        .enroll(&OrgId::new("SupplyOrg"), "logistics-app", &mut rng)
        .unwrap();

    // ── One view per entity: transactions where the entity is sender,
    //    receiver, or an earlier handler of the item.
    let mut manager: HashBasedManager = ViewManager::new(owner, true);
    for name in topology.node_names() {
        manager
            .create_view(
                &mut chain,
                format!("V_{name}"),
                ViewPredicate::touches_entity(name),
                AccessMode::Revocable,
                &mut rng,
            )
            .unwrap();
    }

    // ── Generate and commit the workload.
    let workload = generate(
        &topology,
        &WorkloadConfig {
            items: 40,
            max_hops: 8,
            seed: 99,
            secret_bytes: 48,
        },
    );
    println!("generated {} transfers for 40 items", workload.len());
    let mut expected_visibility: HashMap<String, HashSet<TxId>> = HashMap::new();
    for t in &workload.transfers {
        let tx = ClientTransaction::new(
            t.attributes()
                .iter()
                .map(|(k, v)| (k.as_str(), AttrValue::str(v.clone())))
                .collect(),
            t.secret.clone(),
        );
        let tid = manager
            .invoke_with_secret(&mut chain, &client, &tx, &mut rng)
            .unwrap();
        for entity in t.visible_to() {
            expected_visibility.entry(entity).or_default().insert(tid);
        }
    }
    manager.flush(&mut chain, &mut rng).unwrap();

    // ── Every transfer must have committed as valid before we reason
    //    about per-entity visibility: the expected-visibility map assumes
    //    it, so an MVCC conflict or endorsement failure slipping through
    //    would fail the isolation check with a misleading message (or pass
    //    it with missing data). Every block records each transaction's
    //    fate in its validity flags.
    let flags: Vec<bool> = chain
        .store()
        .iter()
        .flat_map(|block| block.validity.iter().copied())
        .collect();
    assert!(
        flags.iter().all(|valid| *valid),
        "a transfer was invalidated at commit"
    );
    println!(
        "validation flags checked: {} committed transactions, all valid",
        flags.len()
    );

    // ── Each entity gets keys and reads its view; check the isolation
    //    property: view contents == exactly the transfers it may see.
    println!("\nper-entity views:");
    for name in topology.node_names() {
        let view = format!("V_{name}");
        let keys = EncryptionKeyPair::generate(&mut rng);
        manager
            .grant_access(&mut chain, &view, keys.public(), &mut rng)
            .unwrap();
        let mut reader = ViewReader::new(keys);
        reader.obtain_view_key(&chain, &view).unwrap();
        let resp = manager
            .query_view(&view, &reader.public(), None, &mut rng)
            .unwrap();
        let revealed = reader.open_response(&chain, &view, &resp).unwrap();
        let got: HashSet<TxId> = revealed.iter().map(|r| r.tid).collect();
        let expected = expected_visibility.remove(name).unwrap_or_default();
        assert_eq!(
            got, expected,
            "{name} must see exactly its handled transfers"
        );

        let (sound, complete) =
            verify::verify_view(&chain, &view, &revealed, u64::MAX, true).unwrap();
        assert!(sound.ok && complete.ok, "{view} failed verification");
        println!(
            "  {name:<4} sees {:>3} transfers  (sound ✓, complete ✓)",
            revealed.len()
        );
    }

    println!(
        "\nledger: {} blocks, {} committed transactions, {} KiB",
        chain.height(),
        chain.store().committed_tx_count(),
        chain.store().total_bytes() / 1024
    );
    chain.store().verify_chain().unwrap();
    println!("hash chain verified — done.");
}
