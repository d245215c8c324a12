//! Block validation and commit: MVCC read-set checks and write application.
//!
//! Transactions in a block are validated in order. A transaction commits
//! iff every key in its read set still has the version observed at
//! endorsement time — earlier transactions *in the same block* that wrote a
//! read key invalidate it too, exactly like Fabric's serializability check.

use ledgerview_crypto::keys::verify_signature;
use ledgerview_crypto::sha256::{sha256_concat, Digest};

use crate::chaincode::RwSet;
use crate::endorsement::{response_signing_bytes, EndorsementPolicy};
use crate::identity::Msp;
use crate::ledger::Transaction;
use crate::merkle::{self, leaf_hash};
use crate::statedb::{Version, VersionedState};
use crate::wire::Writer;

/// The per-transaction outcome of validating a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxValidation {
    /// Passed all checks; writes applied.
    Valid,
    /// A read-set version was stale.
    MvccConflict {
        /// The first conflicting key.
        key: String,
    },
    /// Commit-time endorsement verification failed (bad signature, policy
    /// not satisfied, or unknown chaincode); writes discarded.
    EndorsementFailure {
        /// Deterministic human-readable reason.
        reason: String,
    },
}

impl TxValidation {
    /// True for [`TxValidation::Valid`].
    pub fn is_valid(&self) -> bool {
        matches!(self, TxValidation::Valid)
    }
}

/// Check a transaction's read set against the current state.
///
/// `version` includes tombstones, so a read endorsed against a live value
/// conflicts after a delete, and a read endorsed against "absent"
/// conflicts after a delete of a never-seen key — symmetric on both
/// backends.
pub(crate) fn mvcc_check(rwset: &RwSet, state: &dyn VersionedState) -> TxValidation {
    for read in &rwset.reads {
        let current = state.version(&read.key);
        if current != read.version {
            return TxValidation::MvccConflict {
                key: read.key.clone(),
            };
        }
    }
    TxValidation::Valid
}

/// Apply a transaction's write set at the given version. Deletes write
/// versioned tombstones (digest-visible on every backend).
pub(crate) fn apply_writes(rwset: &RwSet, state: &mut dyn VersionedState, version: Version) {
    for write in &rwset.writes {
        match &write.value {
            Some(v) => state.put(write.key.clone(), v.clone(), version),
            None => state.delete(&write.key, version),
        }
    }
}

/// The serial commit loop: `verdict(i, tx)` is transaction `i`'s
/// endorsement verdict (`Some(reason)` fails it before MVCC); survivors
/// are MVCC-checked and applied in block order at `(block_num, i)`.
pub(crate) fn commit_in_order(
    transactions: &[Transaction],
    state: &mut dyn VersionedState,
    block_num: u64,
    mut verdict: impl FnMut(usize, &Transaction) -> Option<String>,
) -> Vec<TxValidation> {
    let mut outcomes = Vec::with_capacity(transactions.len());
    for (i, tx) in transactions.iter().enumerate() {
        let outcome = match verdict(i, tx) {
            Some(reason) => TxValidation::EndorsementFailure { reason },
            None => mvcc_check(&tx.rwset, state),
        };
        if outcome.is_valid() {
            apply_writes(
                &tx.rwset,
                state,
                Version {
                    block_num,
                    tx_num: i as u32,
                },
            );
        }
        outcomes.push(outcome);
    }
    outcomes
}

/// Validate and commit a block's transactions against `state`.
///
/// Returns the per-transaction outcomes; valid transactions' writes are
/// applied in order with versions `(block_num, tx_index)`.
pub fn validate_and_commit_block(
    transactions: &[Transaction],
    state: &mut dyn VersionedState,
    block_num: u64,
) -> Vec<TxValidation> {
    commit_in_order(transactions, state, block_num, |_, _| None)
}

/// [`validate_and_commit_block`] with commit-time endorsement checks
/// (Fabric's VSCC) done the plain way: every certificate and every
/// endorsement signature verified where it stands, one at a time, no memo,
/// no batch, no threads. This is the **reference**
/// [`BlockValidator`](crate::parallel::BlockValidator) is held to,
/// outcome for outcome and reason string for reason string.
pub fn validate_and_commit_block_vscc(
    transactions: &[Transaction],
    state: &mut dyn VersionedState,
    block_num: u64,
    msp: &Msp,
    policy_for: &dyn Fn(&str) -> Option<EndorsementPolicy>,
) -> Vec<TxValidation> {
    commit_in_order(transactions, state, block_num, |_, tx| {
        tx_verdict(tx, msp, policy_for(&tx.chaincode).as_ref())
    })
}

/// Walk one transaction's endorsement checks. Returns `None` if the
/// transaction passes, or a deterministic failure reason — the *first*
/// failing check in a fixed order: chaincode known, endorsements present,
/// then per endorsement its organisation, its certificate and its
/// signature, and last the policy.
fn tx_verdict(tx: &Transaction, msp: &Msp, policy: Option<&EndorsementPolicy>) -> Option<String> {
    let Some(policy) = policy else {
        return Some(format!("unknown chaincode {:?}", tx.chaincode));
    };
    if tx.endorsements.is_empty() {
        return Some("no endorsements".to_string());
    }
    let message = response_signing_bytes(&tx.tx_id, &tx.rwset.digest(), &tx.response);
    let mut orgs = Vec::with_capacity(tx.endorsements.len());
    for e in &tx.endorsements {
        let cert = &e.endorser;
        let Some(ca_pub) = msp.ca_public_key(&cert.org) else {
            return Some(format!("endorsement from unknown org {}", cert.org));
        };
        if verify_signature(&ca_pub, &cert.to_signed_bytes(), &cert.ca_signature).is_err() {
            return Some(format!(
                "invalid certificate for {}@{}",
                cert.subject, cert.org
            ));
        }
        if verify_signature(&cert.signing_pub, &message, &e.signature).is_err() {
            return Some(format!(
                "bad endorsement signature from {}@{}",
                cert.subject, cert.org
            ));
        }
        orgs.push(cert.org.clone());
    }
    if !policy.is_satisfied(&orgs) {
        return Some("endorsement policy not satisfied".to_string());
    }
    None
}

/// Rolling state root: `H(prev_root || merkle_root(valid writes))`.
///
/// Cheap to compute per block (it does not rescan the whole state) while
/// still binding the full history of state transitions; full-state digests
/// for proofs come from [`VersionedState::state_digest`].
pub fn next_state_root(
    prev_root: &Digest,
    transactions: &[Transaction],
    outcomes: &[TxValidation],
) -> Digest {
    let valid = outcomes.iter().map(TxValidation::is_valid);
    rolling_root(prev_root, transactions, valid)
}

/// [`next_state_root`] re-derived from a stored block's validity flags
/// instead of live validation outcomes — what crash recovery uses to check
/// each recovered block's header against the replayed writes.
pub fn state_root_from_block(prev_root: &Digest, block: &crate::ledger::Block) -> Digest {
    rolling_root(
        prev_root,
        &block.transactions,
        block.validity.iter().copied(),
    )
}

fn rolling_root(
    prev_root: &Digest,
    transactions: &[Transaction],
    valid: impl Iterator<Item = bool>,
) -> Digest {
    let mut leaves: Vec<Digest> = Vec::new();
    for (tx, is_valid) in transactions.iter().zip(valid) {
        if !is_valid {
            continue;
        }
        for write in &tx.rwset.writes {
            let mut w = Writer::new();
            w.string(&write.key);
            match &write.value {
                Some(v) => {
                    w.u8(1).bytes(v);
                }
                None => {
                    w.u8(0);
                }
            }
            leaves.push(leaf_hash(&w.into_bytes()));
        }
    }
    let writes_root = merkle::root_of(leaves);
    sha256_concat(&[prev_root.as_bytes(), writes_root.as_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::{ReadEntry, WriteEntry};
    use crate::ledger::TxId;
    use crate::statedb::StateDb;
    use ledgerview_crypto::rng::seeded;
    use ledgerview_crypto::sha256::sha256;

    fn tx_with(reads: Vec<ReadEntry>, writes: Vec<WriteEntry>, n: u8) -> Transaction {
        let mut rng = seeded(99);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1", &mut rng);
        let id = msp.enroll(&org, "u", &mut rng).unwrap();
        Transaction {
            tx_id: TxId(sha256(&[n])),
            chaincode: "cc".into(),
            function: "f".into(),
            args: vec![],
            creator: id.cert().clone(),
            rwset: RwSet {
                reads,
                writes,
                private_writes: vec![],
            },
            response: vec![],
            endorsements: vec![],
        }
    }

    fn read(key: &str, version: Option<Version>) -> ReadEntry {
        ReadEntry {
            key: key.into(),
            version,
        }
    }

    fn write(key: &str, value: &[u8]) -> WriteEntry {
        WriteEntry {
            key: key.into(),
            value: Some(value.to_vec()),
        }
    }

    #[test]
    fn fresh_write_commits() {
        let mut state = StateDb::new();
        let txs = vec![tx_with(vec![], vec![write("k", b"v")], 1)];
        let outcomes = validate_and_commit_block(&txs, &mut state, 1);
        assert!(outcomes[0].is_valid());
        assert_eq!(state.get("k"), Some(&b"v"[..]));
        assert_eq!(
            state.version("k"),
            Some(Version {
                block_num: 1,
                tx_num: 0
            })
        );
    }

    #[test]
    fn stale_read_conflicts() {
        let mut state = StateDb::new();
        state.put("k".into(), b"v0".to_vec(), Version::GENESIS);
        // Transaction read version (5,0) but state has GENESIS.
        let txs = vec![tx_with(
            vec![read(
                "k",
                Some(Version {
                    block_num: 5,
                    tx_num: 0,
                }),
            )],
            vec![write("k", b"v1")],
            1,
        )];
        let outcomes = validate_and_commit_block(&txs, &mut state, 6);
        assert_eq!(outcomes[0], TxValidation::MvccConflict { key: "k".into() });
        // Writes not applied.
        assert_eq!(state.get("k"), Some(&b"v0"[..]));
    }

    #[test]
    fn read_of_absent_key_validates_against_absence() {
        let mut state = StateDb::new();
        let txs = vec![tx_with(vec![read("k", None)], vec![write("k", b"v")], 1)];
        let outcomes = validate_and_commit_block(&txs, &mut state, 1);
        assert!(outcomes[0].is_valid());

        // Second transaction that also read "absent" must now conflict.
        let txs2 = vec![tx_with(vec![read("k", None)], vec![write("k", b"w")], 2)];
        let outcomes2 = validate_and_commit_block(&txs2, &mut state, 2);
        assert!(!outcomes2[0].is_valid());
    }

    #[test]
    fn intra_block_write_write_conflict() {
        // Two transactions in one block read the same key version and both
        // write it: the first commits, the second sees the first's new
        // version and is invalidated.
        let mut state = StateDb::new();
        state.put("k".into(), b"v0".to_vec(), Version::GENESIS);
        let txs = vec![
            tx_with(
                vec![read("k", Some(Version::GENESIS))],
                vec![write("k", b"a")],
                1,
            ),
            tx_with(
                vec![read("k", Some(Version::GENESIS))],
                vec![write("k", b"b")],
                2,
            ),
        ];
        let outcomes = validate_and_commit_block(&txs, &mut state, 1);
        assert!(outcomes[0].is_valid());
        assert!(!outcomes[1].is_valid());
        assert_eq!(state.get("k"), Some(&b"a"[..]));
    }

    #[test]
    fn blind_writes_do_not_conflict() {
        // No reads: both transactions commit, last write wins.
        let mut state = StateDb::new();
        let txs = vec![
            tx_with(vec![], vec![write("k", b"a")], 1),
            tx_with(vec![], vec![write("k", b"b")], 2),
        ];
        let outcomes = validate_and_commit_block(&txs, &mut state, 1);
        assert!(outcomes.iter().all(|o| o.is_valid()));
        assert_eq!(state.get("k"), Some(&b"b"[..]));
        assert_eq!(
            state.version("k"),
            Some(Version {
                block_num: 1,
                tx_num: 1
            })
        );
    }

    #[test]
    fn deletes_apply() {
        let mut state = StateDb::new();
        state.put("k".into(), b"v".to_vec(), Version::GENESIS);
        let txs = vec![tx_with(
            vec![],
            vec![WriteEntry {
                key: "k".into(),
                value: None,
            }],
            1,
        )];
        validate_and_commit_block(&txs, &mut state, 1);
        assert_eq!(state.get("k"), None);
    }

    #[test]
    fn state_root_from_block_matches_live_outcomes() {
        let mut state = StateDb::new();
        let txs = vec![
            tx_with(vec![], vec![write("a", b"1")], 1),
            tx_with(
                vec![read("a", Some(Version::GENESIS))], // stale: invalidated
                vec![write("a", b"2")],
                2,
            ),
        ];
        let outcomes = validate_and_commit_block(&txs, &mut state, 3);
        let live = next_state_root(&Digest::ZERO, &txs, &outcomes);
        let block = crate::ledger::Block {
            header: crate::ledger::BlockHeader {
                number: 3,
                prev_hash: Digest::ZERO,
                data_hash: crate::ledger::Block::compute_data_hash(&txs),
                state_root: live,
                timestamp_us: 0,
            },
            validity: outcomes.iter().map(TxValidation::is_valid).collect(),
            transactions: txs,
        };
        assert_eq!(state_root_from_block(&Digest::ZERO, &block), live);
    }

    #[test]
    fn state_root_rolls_forward() {
        let mut state = StateDb::new();
        let txs = vec![tx_with(vec![], vec![write("k", b"v")], 1)];
        let outcomes = validate_and_commit_block(&txs, &mut state, 1);
        let r1 = next_state_root(&Digest::ZERO, &txs, &outcomes);
        assert_ne!(r1, Digest::ZERO);
        // Same writes from a different previous root give a different root.
        let r2 = next_state_root(&r1, &txs, &outcomes);
        assert_ne!(r1, r2);
        // Invalid transactions do not contribute.
        let conflicted = vec![TxValidation::MvccConflict { key: "k".into() }];
        let r3 = next_state_root(&Digest::ZERO, &txs, &conflicted);
        let r_empty = next_state_root(&Digest::ZERO, &[], &[]);
        assert_eq!(r3, r_empty);
    }
}
