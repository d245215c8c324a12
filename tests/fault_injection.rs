//! Fault injection: tampered endorsement signatures, wrong-org
//! endorsements, and truncated/corrupted wire messages must be rejected
//! with typed errors — never a panic — and the serial and parallel
//! validation pipelines must reject identically.

use fabric_sim::chaincode::{ReadEntry, RwSet, WriteEntry};
use fabric_sim::endorsement::{response_signing_bytes, EndorsementPolicy};
use fabric_sim::identity::{Certificate, Identity, Msp, OrgId};
use fabric_sim::ledger::{Block, BlockHeader, Endorsement, Transaction, TxId};
use fabric_sim::validation::{validate_and_commit_block_vscc, TxValidation};
use fabric_sim::{BlockValidator, FabricError, StateDb, ValidationConfig, Version};
use ledgerview_crypto::rng::seeded;
use ledgerview_crypto::sha256::{sha256, Digest};

struct Fixture {
    msp: Msp,
    endorsers: Vec<Identity>,
    outsider: Identity,
}

fn fixture() -> Fixture {
    let mut rng = seeded(11);
    let mut msp = Msp::new();
    let mut endorsers = Vec::new();
    for name in ["Org1", "Org2"] {
        let org = msp.add_org(name, &mut rng);
        endorsers.push(
            msp.enroll(&org, &format!("peer0.{name}"), &mut rng)
                .unwrap(),
        );
    }
    // An identity from an org the policy does not list.
    let other = msp.add_org("OrgX", &mut rng);
    let outsider = msp.enroll(&other, "peer0.OrgX", &mut rng).unwrap();
    Fixture {
        msp,
        endorsers,
        outsider,
    }
}

fn policy_for(cc: &str) -> Option<EndorsementPolicy> {
    (cc == "cc").then(|| EndorsementPolicy::AnyOf(vec![OrgId::new("Org1"), OrgId::new("Org2")]))
}

fn endorsed_tx(n: u8, endorsers: &[&Identity]) -> Transaction {
    let rwset = RwSet {
        reads: vec![ReadEntry {
            key: format!("r{n}"),
            version: Some(Version::GENESIS),
        }],
        writes: vec![WriteEntry {
            key: format!("w{n}"),
            value: Some(vec![n]),
        }],
        private_writes: vec![],
    };
    let tx_id = TxId(sha256(&[n]));
    let response = vec![n; 4];
    let msg = response_signing_bytes(&tx_id, &rwset.digest(), &response);
    Transaction {
        tx_id,
        chaincode: "cc".into(),
        function: "f".into(),
        args: vec![vec![n], vec![n, n]],
        creator: endorsers[0].cert().clone(),
        rwset,
        response,
        endorsements: endorsers
            .iter()
            .map(|e| Endorsement {
                endorser: e.cert().clone(),
                signature: e.sign(&msg),
            })
            .collect(),
    }
}

fn seed_state(n_txs: u8) -> StateDb {
    let mut state = StateDb::new();
    for n in 0..n_txs {
        state.put(format!("r{n}"), vec![0], Version::GENESIS);
    }
    state
}

/// Every worker count rejects the same transactions for the same reasons
/// as the one-signature-at-a-time reference.
fn assert_all_configs_agree(f: &Fixture, txs: &[Transaction]) -> Vec<TxValidation> {
    let mut ref_state = seed_state(txs.len() as u8);
    let expected = validate_and_commit_block_vscc(txs, &mut ref_state, 1, &f.msp, &policy_for);
    for workers in [1, 2, 4, 8] {
        let validator = BlockValidator::new(ValidationConfig::parallel(workers));
        let mut state = seed_state(txs.len() as u8);
        let got = validator.validate_and_commit(txs, &mut state, 1, &f.msp, &policy_for);
        assert_eq!(got, expected, "divergence at workers={workers}");
        assert_eq!(state.state_digest(), ref_state.state_digest());
    }
    expected
}

#[test]
fn tampered_endorsement_signatures_rejected_identically() {
    let f = fixture();
    let peers: Vec<&Identity> = f.endorsers.iter().collect();
    let mut txs: Vec<Transaction> = (0..6).map(|n| endorsed_tx(n, &peers)).collect();
    // Flip a different signature byte in half the transactions.
    for (i, tx) in txs.iter_mut().enumerate() {
        if i % 2 == 0 {
            tx.endorsements[i % 2].signature[i * 7 % 64] ^= 0x40;
        }
    }
    let outcomes = assert_all_configs_agree(&f, &txs);
    for (i, outcome) in outcomes.iter().enumerate() {
        if i % 2 == 0 {
            assert!(
                matches!(outcome, TxValidation::EndorsementFailure { reason }
                    if reason.contains("bad endorsement signature")),
                "tx {i}: {outcome:?}"
            );
        } else {
            assert_eq!(*outcome, TxValidation::Valid, "tx {i}");
        }
    }
}

#[test]
fn wrong_org_endorsements_rejected_identically() {
    let f = fixture();
    // OrgX is registered with the MSP (signatures verify) but is not in
    // the chaincode's policy: the endorsement must not satisfy it.
    let outside_only = endorsed_tx(0, &[&f.outsider]);
    // A rogue org unknown to the MSP entirely.
    let mut unknown_org = endorsed_tx(1, &[&f.endorsers[0]]);
    unknown_org.endorsements[0].endorser.org = OrgId::new("Ghost");
    // A valid transaction rides along to prove rejection is per-tx.
    let good = endorsed_tx(2, &[&f.endorsers[0], &f.endorsers[1]]);

    let outcomes = assert_all_configs_agree(&f, &[outside_only, unknown_org, good]);
    assert!(
        matches!(&outcomes[0], TxValidation::EndorsementFailure { reason }
            if reason.contains("policy")),
        "{:?}",
        outcomes[0]
    );
    assert!(
        matches!(&outcomes[1], TxValidation::EndorsementFailure { reason }
            if reason.contains("unknown org")),
        "{:?}",
        outcomes[1]
    );
    assert_eq!(outcomes[2], TxValidation::Valid);
}

#[test]
fn certificate_swap_rejected_identically() {
    let f = fixture();
    // Endorsement signed by Org1's key but presented under Org2's cert:
    // the signature does not verify against the claimed cert.
    let mut tx = endorsed_tx(0, &[&f.endorsers[0]]);
    tx.endorsements[0].endorser = f.endorsers[1].cert().clone();
    let outcomes = assert_all_configs_agree(&f, &[tx]);
    assert!(
        matches!(&outcomes[0], TxValidation::EndorsementFailure { reason }
            if reason.contains("bad endorsement signature")),
        "{:?}",
        outcomes[0]
    );
}

#[test]
fn truncated_transaction_wire_messages_never_panic() {
    let f = fixture();
    let peers: Vec<&Identity> = f.endorsers.iter().collect();
    let tx = endorsed_tx(3, &peers);
    let bytes = tx.encode();
    assert_eq!(Transaction::decode(&bytes).unwrap(), tx);
    // Every strict prefix must fail with a typed error, not a panic.
    for cut in 0..bytes.len() {
        match Transaction::decode(&bytes[..cut]) {
            Err(FabricError::Malformed(_)) => {}
            Ok(_) => panic!("prefix of {cut} bytes decoded successfully"),
            Err(other) => panic!("prefix of {cut} bytes: unexpected error {other:?}"),
        }
    }
}

#[test]
fn truncated_block_wire_messages_never_panic() {
    let f = fixture();
    let peers: Vec<&Identity> = f.endorsers.iter().collect();
    let transactions: Vec<Transaction> = (0..3).map(|n| endorsed_tx(n, &peers)).collect();
    let block = Block {
        header: BlockHeader {
            number: 4,
            prev_hash: sha256(b"prev"),
            data_hash: Block::compute_data_hash(&transactions),
            state_root: Digest::ZERO,
            timestamp_us: 99,
        },
        validity: vec![true; transactions.len()],
        transactions,
    };
    let bytes = block.encode();
    assert_eq!(Block::decode(&bytes).unwrap(), block);
    // Exhaustive prefixes are expensive for blocks; step through them.
    for cut in (0..bytes.len()).step_by(7) {
        assert!(
            matches!(Block::decode(&bytes[..cut]), Err(FabricError::Malformed(_))),
            "prefix of {cut} bytes"
        );
    }
    // Trailing garbage is also malformed.
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(matches!(
        Block::decode(&extended),
        Err(FabricError::Malformed(_))
    ));
}

#[test]
fn corrupted_wire_bytes_never_panic() {
    let f = fixture();
    let tx = endorsed_tx(5, &[&f.endorsers[0]]);
    let bytes = tx.encode();
    // Flip each byte of a sliding window; decode must return (not panic),
    // and any successful decode must not be bit-identical to the original
    // unless the flip is outside the canonical fields' interpretation.
    for i in (0..bytes.len()).step_by(3) {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xff;
        let _ = Transaction::decode(&corrupted);
    }
    // Certificates decode standalone too.
    let cert_bytes = tx.creator.to_bytes();
    assert_eq!(Certificate::from_bytes(&cert_bytes).unwrap(), tx.creator);
    for cut in 0..cert_bytes.len() {
        assert!(
            matches!(
                Certificate::from_bytes(&cert_bytes[..cut]),
                Err(FabricError::Malformed(_))
            ),
            "cert prefix of {cut} bytes"
        );
    }
}

#[test]
fn rwset_truncation_never_panics() {
    let f = fixture();
    let tx = endorsed_tx(6, &[&f.endorsers[0]]);
    let bytes = tx.rwset.to_bytes();
    assert_eq!(
        RwSet::from_bytes(&bytes).unwrap().digest(),
        tx.rwset.digest()
    );
    for cut in 0..bytes.len() {
        assert!(
            matches!(
                RwSet::from_bytes(&bytes[..cut]),
                Err(FabricError::Malformed(_))
            ),
            "rwset prefix of {cut} bytes"
        );
    }
}
