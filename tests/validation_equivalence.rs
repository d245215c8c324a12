//! Differential property test: the parallel validation pipeline commits
//! **byte-identical** results to the serial reference path
//! (`validate_and_commit_block_vscc`: every signature verified where it
//! stands, no memo, no batch, no threads) for arbitrary blocks — same
//! per-transaction outcome vector, same state-DB contents, same rolling
//! state root — at every worker count.
//!
//! Blocks are generated adversarially: overlapping keys, stale reads, blind
//! writes, deletes, tampered endorsement signatures, forged certificates,
//! endorsers outside the policy, unknown chaincodes and endorsement-free
//! transactions. The generator faults only `endorsements[0]`, one class per
//! transaction; the directed cases below the proptests cover several faults
//! in one transaction, the certificate memo's cached verdicts, and its
//! eviction.

use fabric_sim::chaincode::{ReadEntry, RwSet, WriteEntry};
use fabric_sim::endorsement::{response_signing_bytes, EndorsementPolicy};
use fabric_sim::identity::{Identity, Msp, OrgId, CERT_MEMO_CAPACITY};
use fabric_sim::ledger::{Endorsement, Transaction, TxId};
use fabric_sim::validation::{
    next_state_root, validate_and_commit_block, validate_and_commit_block_vscc, TxValidation,
};
use fabric_sim::{BlockValidator, StateDb, ValidationConfig, Version};
use ledgerview_crypto::rng::seeded;
use ledgerview_crypto::sha256::{sha256, Digest};
use proptest::prelude::*;
use rand::{Rng, RngCore};

const KEYS: [&str; 6] = ["k0", "k1", "k2", "k3", "k4", "k5"];

struct Fixture {
    msp: Msp,
    endorsers: Vec<Identity>,
}

fn fixture() -> Fixture {
    let mut rng = seeded(7);
    let mut msp = Msp::new();
    let mut endorsers = Vec::new();
    for name in ["Org1", "Org2", "Org3"] {
        let org = msp.add_org(name, &mut rng);
        endorsers.push(
            msp.enroll(&org, &format!("peer0.{name}"), &mut rng)
                .unwrap(),
        );
    }
    Fixture { msp, endorsers }
}

fn policy_for(cc: &str) -> Option<EndorsementPolicy> {
    (cc == "cc").then(|| {
        EndorsementPolicy::AnyOf(vec![
            OrgId::new("Org1"),
            OrgId::new("Org2"),
            OrgId::new("Org3"),
        ])
    })
}

/// Build an initial state: a random subset of the keyspace at GENESIS.
fn initial_state(rng: &mut impl RngCore) -> StateDb {
    let mut state = StateDb::new();
    for key in KEYS {
        if rng.random_bool(0.7) {
            state.put(key.to_string(), vec![rng.random::<u8>()], Version::GENESIS);
        }
    }
    state
}

/// Generate one transaction (possibly faulty) from the seeded stream.
fn random_tx(f: &Fixture, state: &StateDb, rng: &mut impl RngCore, n: u32) -> Transaction {
    // Reads: mix of accurate-at-block-start versions (which earlier txs in
    // the block may invalidate), deliberately stale versions, and
    // absent-key reads.
    let mut reads = Vec::new();
    for key in KEYS {
        if !rng.random_bool(0.4) {
            continue;
        }
        let version = match rng.random_range(0..4u8) {
            0..=1 => state.version(key), // correct at block start
            2 => Some(Version {
                block_num: 9,
                tx_num: rng.random_range(0..3u32),
            }), // stale/fabricated
            _ => None,                   // claims the key is absent
        };
        reads.push(ReadEntry {
            key: key.to_string(),
            version,
        });
    }
    // Writes: blind writes, overwrites of read keys, and deletes.
    let mut writes = Vec::new();
    for key in KEYS {
        if !rng.random_bool(0.5) {
            continue;
        }
        writes.push(WriteEntry {
            key: key.to_string(),
            value: if rng.random_bool(0.8) {
                Some(vec![rng.random::<u8>(), rng.random::<u8>()])
            } else {
                None // delete
            },
        });
    }
    let rwset = RwSet {
        reads,
        writes,
        private_writes: vec![],
    };

    let tx_id = TxId(sha256(&n.to_be_bytes()));
    let response = vec![n as u8];
    let msg = response_signing_bytes(&tx_id, &rwset.digest(), &response);
    let n_endorsers = rng.random_range(1..=3usize);
    let mut endorsements: Vec<Endorsement> = (0..n_endorsers)
        .map(|_| {
            let e = &f.endorsers[rng.random_range(0..3usize)];
            Endorsement {
                endorser: e.cert().clone(),
                signature: e.sign(&msg),
            }
        })
        .collect();

    let mut tx = Transaction {
        tx_id,
        chaincode: "cc".into(),
        function: "f".into(),
        args: vec![],
        creator: f.endorsers[0].cert().clone(),
        rwset,
        response,
        endorsements: endorsements.clone(),
    };

    // Fault injection: each class with some probability.
    match rng.random_range(0..10u8) {
        0 => {
            // Tamper an endorsement signature.
            endorsements[0].signature[rng.random_range(0..64usize)] ^= 1;
            tx.endorsements = endorsements;
        }
        1 => {
            // Forge the certificate (subject no longer matches CA signature).
            endorsements[0].endorser.subject = "mallory".into();
            tx.endorsements = endorsements;
        }
        2 => tx.chaincode = "unknown-cc".into(),
        3 => tx.endorsements = vec![],
        4 => {
            // Endorser org unknown to the MSP.
            endorsements[0].endorser.org = OrgId::new("Rogue");
            tx.endorsements = endorsements;
        }
        _ => {}
    }
    tx
}

/// Full observable state: every key's value and version, plus the digest.
fn snapshot(state: &StateDb) -> (Vec<(String, Vec<u8>, Version)>, Digest) {
    let contents = state
        .scan_prefix("")
        .map(|(k, v)| {
            (
                k.to_string(),
                v.to_vec(),
                state.version(k).expect("listed key has a version"),
            )
        })
        .collect();
    (contents, state.state_digest())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serial reference vs the validator, at every worker count.
    #[test]
    fn parallel_pipeline_is_bit_identical_to_serial(seed in any::<u64>(), n_txs in 1usize..16) {
        let f = fixture();
        let mut rng = seeded(seed);
        let base_state = initial_state(&mut rng);
        let txs: Vec<Transaction> = (0..n_txs as u32)
            .map(|n| random_tx(&f, &base_state, &mut rng, n))
            .collect();

        let mut ref_state = initial_state(&mut seeded(seed));
        let ref_outcomes =
            validate_and_commit_block_vscc(&txs, &mut ref_state, 5, &f.msp, &policy_for);
        let ref_snapshot = snapshot(&ref_state);
        let ref_root = next_state_root(&Digest::ZERO, &txs, &ref_outcomes);

        for workers in [1usize, 2, 3, 4, 8] {
            let validator = BlockValidator::new(ValidationConfig::parallel(workers));
            let mut state = initial_state(&mut seeded(seed));
            let outcomes =
                validator.validate_and_commit(&txs, &mut state, 5, &f.msp, &policy_for);
            prop_assert_eq!(&outcomes, &ref_outcomes, "outcome mismatch: workers={}", workers);
            prop_assert_eq!(
                snapshot(&state), ref_snapshot.clone(),
                "state mismatch: workers={}", workers
            );
            let root = next_state_root(&Digest::ZERO, &txs, &outcomes);
            prop_assert_eq!(root, ref_root, "state root mismatch: workers={}", workers);
        }
    }

    /// MVCC-only mode (endorsement checks off) must equal the seed's
    /// serial `validate_and_commit_block` exactly, at every worker count.
    #[test]
    fn mvcc_only_mode_matches_seed_reference(seed in any::<u64>(), n_txs in 1usize..16) {
        let f = fixture();
        let mut rng = seeded(seed);
        let base_state = initial_state(&mut rng);
        let txs: Vec<Transaction> = (0..n_txs as u32)
            .map(|n| random_tx(&f, &base_state, &mut rng, n))
            .collect();

        let mut ref_state = initial_state(&mut seeded(seed));
        let ref_outcomes = validate_and_commit_block(&txs, &mut ref_state, 5);
        let ref_snapshot = snapshot(&ref_state);

        for workers in [1usize, 4, 8] {
            let validator = BlockValidator::new(ValidationConfig {
                workers,
                ..ValidationConfig::default()
            });
            let mut state = initial_state(&mut seeded(seed));
            let outcomes =
                validator.validate_and_commit(&txs, &mut state, 5, &f.msp, &policy_for);
            prop_assert_eq!(&outcomes, &ref_outcomes, "workers={}", workers);
            prop_assert_eq!(snapshot(&state), ref_snapshot.clone(), "workers={}", workers);
        }
    }

    /// The MSP's certificate memo, reused across many blocks (and warm
    /// with cached-invalid verdicts), never changes verdicts.
    #[test]
    fn cache_reuse_across_blocks_is_sound(seed in any::<u64>()) {
        let f = fixture();
        let mut rng = seeded(seed);
        let base_state = initial_state(&mut rng);
        // Three consecutive blocks, some transactions repeated verbatim so
        // cached (including cached-invalid) entries get exercised.
        let block_a: Vec<Transaction> =
            (0..5u32).map(|n| random_tx(&f, &base_state, &mut rng, n)).collect();
        let mut block_b: Vec<Transaction> =
            (10..14u32).map(|n| random_tx(&f, &base_state, &mut rng, n)).collect();
        block_b.extend(block_a.iter().take(2).cloned());
        let blocks = [block_a.clone(), block_b, block_a];

        let cached = BlockValidator::new(ValidationConfig::parallel(3));
        let mut state_a = initial_state(&mut seeded(seed));
        let mut state_b = initial_state(&mut seeded(seed));
        for (i, block) in blocks.iter().enumerate() {
            let got = cached.validate_and_commit(block, &mut state_a, i as u64, &f.msp, &policy_for);
            let want =
                validate_and_commit_block_vscc(block, &mut state_b, i as u64, &f.msp, &policy_for);
            prop_assert_eq!(got, want, "block {}", i);
        }
        prop_assert_eq!(state_a.state_digest(), state_b.state_digest());
    }
}

/// A transaction writing `w{n}` under chaincode `cc`, endorsed by
/// `endorsers` in order.
fn endorsed_tx(cc: &str, n: u32, endorsers: &[&Identity]) -> Transaction {
    let rwset = RwSet {
        reads: vec![],
        writes: vec![WriteEntry {
            key: format!("w{n}"),
            value: Some(n.to_be_bytes().to_vec()),
        }],
        private_writes: vec![],
    };
    let tx_id = TxId(sha256(&n.to_be_bytes()));
    let response = vec![n as u8];
    let msg = response_signing_bytes(&tx_id, &rwset.digest(), &response);
    Transaction {
        tx_id,
        chaincode: cc.into(),
        function: "f".into(),
        args: vec![],
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

/// `txs` through the reference and through the validator at `workers`,
/// from an empty state: outcomes and state digests must agree. Returns the
/// reference's outcomes.
fn assert_matches_reference(
    f: &Fixture,
    txs: &[Transaction],
    policy: &(dyn Fn(&str) -> Option<EndorsementPolicy> + Sync),
    workers: &[usize],
) -> Vec<TxValidation> {
    let mut ref_state = StateDb::new();
    let expected = validate_and_commit_block_vscc(txs, &mut ref_state, 1, &f.msp, policy);
    for &workers in workers {
        let validator = BlockValidator::new(ValidationConfig::parallel(workers));
        let mut state = StateDb::new();
        let got = validator.validate_and_commit(txs, &mut state, 1, &f.msp, policy);
        assert_eq!(got, expected, "workers={workers}");
        assert_eq!(state.state_digest(), ref_state.state_digest());
    }
    expected
}

fn failure(reason: &str) -> TxValidation {
    TxValidation::EndorsementFailure {
        reason: reason.to_string(),
    }
}

/// Several faults in one transaction: the verdict is the *first* failing
/// check in endorsement order, although the validator settles certificates
/// during its walk and signatures only afterwards.
#[test]
fn first_failing_check_wins_when_a_transaction_has_several_faults() {
    let f = fixture();
    let [org1, org2, org3] = [&f.endorsers[0], &f.endorsers[1], &f.endorsers[2]];
    // `cc` takes any listed org; `strict` wants all three.
    let policy = |cc: &str| match cc {
        "strict" => Some(EndorsementPolicy::AllOf(vec![
            OrgId::new("Org1"),
            OrgId::new("Org2"),
            OrgId::new("Org3"),
        ])),
        other => policy_for(other),
    };

    // 0: bad signature on endorsement 0, forged certificate on 1.
    let mut sig_then_cert = endorsed_tx("cc", 0, &[org1, org2]);
    sig_then_cert.endorsements[0].signature[3] ^= 1;
    sig_then_cert.endorsements[1].endorser.subject = "mallory".into();
    // 1: the reverse — the certificate failure hides the signature after it.
    let mut cert_then_sig = endorsed_tx("cc", 1, &[org1, org2]);
    cert_then_sig.endorsements[0].endorser.subject = "mallory".into();
    cert_then_sig.endorsements[1].signature[3] ^= 1;
    // 2: bad signature on endorsement 0, unknown org on 1.
    let mut sig_then_rogue = endorsed_tx("cc", 2, &[org1, org2]);
    sig_then_rogue.endorsements[0].signature[60] ^= 0x80;
    sig_then_rogue.endorsements[1].endorser.org = OrgId::new("Rogue");
    // 3: every signature valid, policy short of one org.
    let short = endorsed_tx("strict", 3, &[org1, org2]);
    // 4: policy short *and* the last signature bad — the signature is
    // checked first.
    let mut short_and_bad = endorsed_tx("strict", 4, &[org1, org2]);
    short_and_bad.endorsements[1].signature[0] ^= 1;
    // 5: two good endorsements, then an unknown org.
    let mut good_then_rogue = endorsed_tx("cc", 5, &[org1, org2, org3]);
    good_then_rogue.endorsements[2].endorser.org = OrgId::new("Rogue");
    // 6, 7: valid, so chunks at every worker count carry good signatures
    // next to the bad ones.
    let good = endorsed_tx("strict", 6, &[org3, org1, org2]);
    let good2 = endorsed_tx("cc", 7, &[org2]);

    let block = [
        sig_then_cert,
        cert_then_sig,
        sig_then_rogue,
        short.clone(),
        short_and_bad,
        good_then_rogue,
        good.clone(),
        good2.clone(),
    ];
    let outcomes = assert_matches_reference(&f, &block, &policy, &[1, 2, 3, 4, 8]);
    assert_eq!(
        outcomes,
        vec![
            failure("bad endorsement signature from peer0.Org1@Org1"),
            failure("invalid certificate for mallory@Org1"),
            failure("bad endorsement signature from peer0.Org1@Org1"),
            failure("endorsement policy not satisfied"),
            failure("bad endorsement signature from peer0.Org2@Org2"),
            failure("endorsement from unknown org Rogue"),
            TxValidation::Valid,
            TxValidation::Valid,
        ]
    );

    // With no bad signature in the block the batch check passes, and the
    // policy's refusal must still come through.
    let outcomes = assert_matches_reference(&f, &[good, short, good2], &policy, &[1, 2, 3]);
    assert_eq!(
        outcomes,
        vec![
            TxValidation::Valid,
            failure("endorsement policy not satisfied"),
            TxValidation::Valid,
        ]
    );
}

/// A forged certificate next to the genuine one it was copied from, block
/// after block on one MSP: the memo's cached `true` for the genuine
/// certificate must not vouch for the forgery, and the forgery's cached
/// `false` must stick.
#[test]
fn forged_certificate_beside_its_original_is_rejected_every_time() {
    let f = fixture();
    let genuine = &f.endorsers[0];
    for block in 0..3u32 {
        let txs: Vec<Transaction> = (0..6u32)
            .map(|i| {
                let mut tx = endorsed_tx("cc", block * 6 + i, &[genuine]);
                if i % 2 == 1 {
                    // Same keys, same CA signature, another name.
                    tx.endorsements[0].endorser.subject = "peer0.0rg1".into();
                }
                tx
            })
            .collect();
        let outcomes = assert_matches_reference(&f, &txs, &policy_for, &[1, 2, 4]);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(
                    *outcome,
                    failure("invalid certificate for peer0.0rg1@Org1"),
                    "block {block} tx {i}"
                );
            } else {
                assert_eq!(*outcome, TxValidation::Valid, "block {block} tx {i}");
            }
        }
    }
}

/// More distinct endorser certificates than the memo holds: whatever it
/// evicts is verified again, and verdicts stay the reference's.
#[test]
fn more_endorser_certificates_than_the_memo_holds() {
    let mut f = fixture();
    let mut rng = seeded(23);
    let crowd: Vec<Identity> = (0..CERT_MEMO_CAPACITY + 1)
        .map(|i| {
            f.msp
                .enroll(&OrgId::new("Org1"), &format!("peer{i}.Org1"), &mut rng)
                .unwrap()
        })
        .collect();
    f.endorsers = crowd;
    // Five blocks walk the whole crowd once; the sixth returns to the
    // certificates seen first, by now evicted. Every 50th is forged.
    let per_block = f.endorsers.len().div_ceil(5);
    let mut blocks: Vec<Vec<usize>> = (0..f.endorsers.len())
        .collect::<Vec<_>>()
        .chunks(per_block)
        .map(<[usize]>::to_vec)
        .collect();
    blocks.push((0..per_block).collect());
    let validator = BlockValidator::new(ValidationConfig::parallel(2));
    let (mut state, mut ref_state) = (StateDb::new(), StateDb::new());
    for (b, members) in blocks.iter().enumerate() {
        let txs: Vec<Transaction> = members
            .iter()
            .map(|&i| {
                let mut tx = endorsed_tx("cc", (b * 10_000 + i) as u32, &[&f.endorsers[i]]);
                if i % 50 == 7 {
                    tx.endorsements[0].endorser.subject = "mallory".into();
                }
                tx
            })
            .collect();
        let got = validator.validate_and_commit(&txs, &mut state, b as u64, &f.msp, &policy_for);
        let want =
            validate_and_commit_block_vscc(&txs, &mut ref_state, b as u64, &f.msp, &policy_for);
        assert_eq!(got, want, "block {b}");
        let forged = members.iter().filter(|&&i| i % 50 == 7).count();
        assert_eq!(got.iter().filter(|o| !o.is_valid()).count(), forged);
    }
    assert_eq!(state.state_digest(), ref_state.state_digest());
    // One lookup per transaction, and the sixth block met at least one
    // certificate the memo had dropped (how many depends on how the two
    // lanes interleave).
    let stats = validator.cache_stats();
    assert_eq!(
        (stats.hits + stats.misses) as usize,
        f.endorsers.len() + per_block
    );
    assert!(stats.misses as usize > f.endorsers.len(), "{stats:?}");
}
