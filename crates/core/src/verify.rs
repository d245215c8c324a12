//! Verifiable soundness and completeness (§4.7, Proposition 4.1).
//!
//! *Soundness*: every transaction a view serves (1) exists and is valid on
//! the ledger, (2) satisfies the view's on-chain predicate, and (3) carries
//! a secret matching its on-chain concealment.
//!
//! *Completeness at T*: the view contains every qualifying transaction up
//! to time T. Two strategies, mirroring Fig 12: the cheap comparison
//! against the TxListContract's maintained list, and the exhaustive ledger
//! scan that re-evaluates the predicate over every stored transaction.

use std::collections::HashSet;

use fabric_sim::ledger::TxId;
use fabric_sim::FabricChain;
use ledgerview_datalog::{Database, Value};

use crate::contracts::{self, INVOKE_CC};
use crate::error::ViewError;
use crate::predicate::ViewDefinition;
use crate::reader::RevealedTx;
use crate::txmodel::{AttrValue, StoredTransaction};

/// Outcome of a verification pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerificationReport {
    /// Whether the property held.
    pub ok: bool,
    /// Number of transactions checked.
    pub checked: usize,
    /// Human-readable descriptions of each violation found.
    pub violations: Vec<String>,
}

impl VerificationReport {
    fn new() -> VerificationReport {
        VerificationReport {
            ok: true,
            checked: 0,
            violations: Vec::new(),
        }
    }

    fn violation(&mut self, msg: String) {
        self.ok = false;
        self.violations.push(msg);
    }
}

/// Build the generic extensional database over the ledger: one
/// `tx(tid_hex, attr, value)` triple per non-secret attribute of every
/// valid stored transaction. Recursive view definitions are evaluated
/// against this EDB. A block the ledger cannot read back is an error.
pub fn ledger_edb(chain: &FabricChain) -> Result<Database, ViewError> {
    let mut db = Database::new();
    chain.store().for_each_block(|block| {
        for (i, tx) in block.transactions.iter().enumerate() {
            if !block.validity[i] || tx.chaincode != INVOKE_CC {
                continue;
            }
            let Some(arg) = tx.args.first() else { continue };
            let Ok(stored) = StoredTransaction::from_bytes(arg) else {
                continue;
            };
            let tid_hex = Value::Str(tx.tx_id.to_hex());
            for (k, v) in &stored.non_secret {
                let value = match v {
                    AttrValue::Str(s) => Value::Str(s.clone()),
                    AttrValue::Int(i) => Value::Int(*i),
                };
                db.insert("tx", vec![tid_hex.clone(), Value::Str(k.clone()), value]);
            }
        }
        Ok::<(), ViewError>(())
    })?;
    Ok(db)
}

/// The tids a recursive definition derives over the current ledger.
fn recursive_membership(
    chain: &FabricChain,
    definition: &ViewDefinition,
) -> Result<Option<HashSet<TxId>>, ViewError> {
    let ViewDefinition::Recursive { program, query } = definition else {
        return Ok(None);
    };
    let derived = program
        .evaluate(&ledger_edb(chain)?)
        .map_err(|e| ViewError::Malformed(format!("datalog evaluation failed: {e}")))?;
    let mut out = HashSet::new();
    for tuple in derived.tuples(query) {
        if let Some(Value::Str(hex)) = tuple.first() {
            if let Some(d) = ledgerview_crypto::sha256::Digest::from_hex(hex) {
                out.insert(TxId(d));
            }
        }
    }
    Ok(Some(out))
}

/// Verify soundness of revealed view contents against the chain.
///
/// Checks, per transaction: ledger membership and validity, the on-chain
/// view definition (case 1 of §4.7 — per-transaction predicates are
/// checked directly, recursive definitions by datalog evaluation over the
/// ledger), agreement of the served non-secret part with the ledger, and
/// the secret/concealment match (case 2).
pub fn verify_soundness(
    chain: &FabricChain,
    view: &str,
    revealed: &[RevealedTx],
) -> Result<VerificationReport, ViewError> {
    let definition = contracts::read_view_definition(chain.state(), view)?;
    let recursive_members = recursive_membership(chain, &definition)?;
    let mut report = VerificationReport::new();
    for tx in revealed {
        report.checked += 1;
        // Ledger membership + validity flag (per-transaction ledger access
        // is what makes soundness the expensive direction in Fig 12).
        let Some((_ledger_tx, valid)) = chain.store().find_tx(&tx.tid) else {
            report.violation(format!("tx {} not found on the ledger", tx.tid));
            continue;
        };
        if !valid {
            report.violation(format!("tx {} was invalidated at commit", tx.tid));
            continue;
        }
        let Some(stored_bytes) = contracts::read_stored_tx(chain.state(), &tx.tid) else {
            report.violation(format!("tx {} has no stored state", tx.tid));
            continue;
        };
        let stored = StoredTransaction::from_bytes(&stored_bytes)?;
        if stored.non_secret != tx.non_secret {
            report.violation(format!(
                "tx {}: served non-secret part differs from the ledger",
                tx.tid
            ));
            continue;
        }
        let satisfies = match (&definition, &recursive_members) {
            (ViewDefinition::PerTx(p), _) => p.matches(&stored.non_secret),
            (_, Some(members)) => members.contains(&tx.tid),
            _ => false,
        };
        if !satisfies {
            report.violation(format!(
                "tx {}: does not satisfy the view definition (case 1)",
                tx.tid
            ));
            continue;
        }
        if !stored.matches_secret(&tx.secret, tx.tx_key.as_ref()) {
            report.violation(format!(
                "tx {}: secret does not match on-chain concealment (case 2)",
                tx.tid
            ));
        }
    }
    Ok(report)
}

/// Verify completeness against the TxListContract's maintained list
/// (§5.4): every listed transaction with timestamp ≤ `horizon_us` must be
/// present in the view.
pub fn verify_completeness_txlist(
    chain: &FabricChain,
    view: &str,
    view_tids: &HashSet<TxId>,
    horizon_us: u64,
) -> Result<VerificationReport, ViewError> {
    let list = contracts::read_view_txlist(chain.state(), view)?;
    let mut report = VerificationReport::new();
    for (tid, ts) in list {
        if ts > horizon_us {
            continue;
        }
        report.checked += 1;
        if !view_tids.contains(&tid) {
            report.violation(format!(
                "tx {tid} (t={ts}µs) is listed for {view:?} but missing from the view (case 3)"
            ));
        }
    }
    Ok(report)
}

/// Verify completeness by scanning the entire ledger (the expensive
/// strategy of Fig 12): re-evaluate the on-chain predicate over every
/// stored transaction committed up to `horizon_us`. A block the ledger
/// cannot read back is an error.
pub fn verify_completeness_scan(
    chain: &FabricChain,
    view: &str,
    view_tids: &HashSet<TxId>,
    horizon_us: u64,
) -> Result<VerificationReport, ViewError> {
    let definition = contracts::read_view_definition(chain.state(), view)?;
    let recursive_members = recursive_membership(chain, &definition)?;
    let mut report = VerificationReport::new();
    chain.store().for_each_block(|block| {
        if block.header.timestamp_us > horizon_us {
            return Ok(());
        }
        for (i, tx) in block.transactions.iter().enumerate() {
            if !block.validity[i] || tx.chaincode != INVOKE_CC {
                continue;
            }
            let Some(arg) = tx.args.first() else { continue };
            let Ok(stored) = StoredTransaction::from_bytes(arg) else {
                continue;
            };
            let qualifies = match (&definition, &recursive_members) {
                (ViewDefinition::PerTx(p), _) => p.matches(&stored.non_secret),
                (_, Some(members)) => members.contains(&tx.tx_id),
                _ => false,
            };
            if !qualifies {
                continue;
            }
            report.checked += 1;
            if !view_tids.contains(&tx.tx_id) {
                report.violation(format!(
                    "qualifying tx {} (block {}) missing from view {view:?} (case 3)",
                    tx.tx_id, block.header.number
                ));
            }
        }
        Ok::<(), ViewError>(())
    })?;
    Ok(report)
}

/// Proposition 4.1 in one call: verify both soundness and completeness of
/// served view contents at `horizon_us`, using the TxListContract when
/// `use_txlist` or the full scan otherwise.
pub fn verify_view(
    chain: &FabricChain,
    view: &str,
    revealed: &[RevealedTx],
    horizon_us: u64,
    use_txlist: bool,
) -> Result<(VerificationReport, VerificationReport), ViewError> {
    let soundness = verify_soundness(chain, view, revealed)?;
    let tids: HashSet<TxId> = revealed.iter().map(|r| r.tid).collect();
    let completeness = if use_txlist {
        verify_completeness_txlist(chain, view, &tids, horizon_us)?
    } else {
        verify_completeness_scan(chain, view, &tids, horizon_us)?
    };
    Ok((soundness, completeness))
}

/// [`verify_view`] with the pass timed into `telemetry`: duration lands in
/// `lv_views_verify_seconds{strategy=txlist|scan}` and a `view.verify`
/// span, which is how Fig 12's txlist-vs-scan gap shows up in a live
/// exposition rather than a bespoke benchmark.
pub fn verify_view_timed(
    chain: &FabricChain,
    view: &str,
    revealed: &[RevealedTx],
    horizon_us: u64,
    use_txlist: bool,
    telemetry: &ledgerview_telemetry::Telemetry,
) -> Result<(VerificationReport, VerificationReport), ViewError> {
    let strategy = if use_txlist { "txlist" } else { "scan" };
    let histogram = telemetry
        .registry()
        .histogram("lv_views_verify_seconds", &[("strategy", strategy)]);
    let span = telemetry.span("view.verify");
    let start = std::time::Instant::now();
    let result = verify_view(chain, view, revealed, horizon_us, use_txlist);
    histogram.observe_duration(start.elapsed());
    drop(span);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{AccessMode, EncryptionBasedManager, HashBasedManager, ViewManager};
    use crate::predicate::ViewPredicate;
    use crate::reader::ViewReader;
    use crate::testutil::test_chain;
    use crate::txmodel::{AttrValue, ClientTransaction};
    use ledgerview_crypto::keys::EncryptionKeyPair;
    use ledgerview_crypto::rng::seeded;
    use ledgerview_crypto::SymmetricKey;

    fn tx(to: &str, secret: &[u8]) -> ClientTransaction {
        ClientTransaction::new(
            vec![("from", AttrValue::str("M1")), ("to", AttrValue::str(to))],
            secret.to_vec(),
        )
    }

    /// Set up a hash-based revocable view "V_W1" with 3 matching and 2
    /// non-matching transactions, a granted reader, and return the
    /// revealed contents.
    fn setup_hash_view() -> (
        fabric_sim::FabricChain,
        HashBasedManager,
        ViewReader,
        Vec<crate::reader::RevealedTx>,
    ) {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(30);
        let mut mgr: HashBasedManager = ViewManager::new(owner, true);
        mgr.create_view(
            &mut chain,
            "V_W1",
            ViewPredicate::attr_eq("to", "W1"),
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        for i in 0..3u8 {
            mgr.invoke_with_secret(&mut chain, &client, &tx("W1", &[b's', i]), &mut rng)
                .unwrap();
        }
        for i in 0..2u8 {
            mgr.invoke_with_secret(&mut chain, &client, &tx("W2", &[b'x', i]), &mut rng)
                .unwrap();
        }
        mgr.flush(&mut chain, &mut rng).unwrap();

        let bob_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V_W1", bob_kp.public(), &mut rng)
            .unwrap();
        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V_W1").unwrap();
        let resp = mgr
            .query_view("V_W1", &bob.public(), None, &mut rng)
            .unwrap();
        let revealed = bob.open_response(&chain, "V_W1", &resp).unwrap();
        (chain, mgr, bob, revealed)
    }

    #[test]
    fn honest_view_is_sound_and_complete() {
        let (chain, _mgr, _bob, revealed) = setup_hash_view();
        assert_eq!(revealed.len(), 3);
        let (sound, complete) = verify_view(&chain, "V_W1", &revealed, u64::MAX, true).unwrap();
        assert!(sound.ok, "violations: {:?}", sound.violations);
        assert_eq!(sound.checked, 3);
        assert!(complete.ok, "violations: {:?}", complete.violations);
        assert_eq!(complete.checked, 3);
        // The scan strategy agrees.
        let tids: HashSet<TxId> = revealed.iter().map(|r| r.tid).collect();
        let scan = verify_completeness_scan(&chain, "V_W1", &tids, u64::MAX).unwrap();
        assert!(scan.ok);
        assert_eq!(scan.checked, 3);
    }

    #[test]
    fn timed_verification_matches_and_records_duration() {
        let (chain, _mgr, _bob, revealed) = setup_hash_view();
        let telemetry = ledgerview_telemetry::Telemetry::wall_clock();
        let (sound, complete) =
            verify_view_timed(&chain, "V_W1", &revealed, u64::MAX, true, &telemetry).unwrap();
        let (sound2, complete2) = verify_view(&chain, "V_W1", &revealed, u64::MAX, true).unwrap();
        assert_eq!(sound, sound2);
        assert_eq!(complete, complete2);
        let h = telemetry
            .registry()
            .histogram("lv_views_verify_seconds", &[("strategy", "txlist")]);
        assert_eq!(h.histogram().count(), 1);
        assert!(telemetry
            .tracer()
            .recent()
            .iter()
            .any(|s| s.name == "view.verify"));
    }

    #[test]
    fn case1_extraneous_transaction_detected() {
        let (chain, _mgr, _bob, mut revealed) = setup_hash_view();
        // Maliciously include a W2 transaction in the served view: its
        // non-secret part does not satisfy the predicate.
        let w2_tid = chain
            .store()
            .iter()
            .flat_map(|b| &b.transactions)
            .find_map(|t| {
                if t.chaincode != INVOKE_CC {
                    return None;
                }
                let stored = StoredTransaction::from_bytes(&t.args[0]).ok()?;
                (stored.non_secret.get("to") == Some(&AttrValue::str("W2")))
                    .then_some((t.tx_id, stored))
            })
            .expect("a W2 tx exists");
        revealed.push(crate::reader::RevealedTx {
            tid: w2_tid.0,
            non_secret: w2_tid.1.non_secret,
            secret: b"x\x00".to_vec(),
            tx_key: None,
        });
        let report = verify_soundness(&chain, "V_W1", &revealed).unwrap();
        assert!(!report.ok);
        assert!(
            report.violations[0].contains("case 1")
                || report.violations.iter().any(|v| v.contains("predicate"))
        );
    }

    #[test]
    fn case2_corrupted_secret_detected() {
        let (chain, _mgr, _bob, mut revealed) = setup_hash_view();
        revealed[1].secret = b"corrupted".to_vec();
        let report = verify_soundness(&chain, "V_W1", &revealed).unwrap();
        assert!(!report.ok);
        assert!(report.violations.iter().any(|v| v.contains("concealment")));
    }

    #[test]
    fn case2_corrupted_non_secret_detected() {
        let (chain, _mgr, _bob, mut revealed) = setup_hash_view();
        revealed[0]
            .non_secret
            .insert("to".into(), AttrValue::str("W1-forged"));
        let report = verify_soundness(&chain, "V_W1", &revealed).unwrap();
        assert!(!report.ok);
        assert!(report.violations.iter().any(|v| v.contains("differs")));
    }

    #[test]
    fn case3_omitted_transaction_detected() {
        let (chain, _mgr, _bob, mut revealed) = setup_hash_view();
        // The owner hides one transaction from the reader.
        revealed.pop();
        let tids: HashSet<TxId> = revealed.iter().map(|r| r.tid).collect();
        let via_list = verify_completeness_txlist(&chain, "V_W1", &tids, u64::MAX).unwrap();
        assert!(!via_list.ok);
        assert_eq!(via_list.violations.len(), 1);
        let via_scan = verify_completeness_scan(&chain, "V_W1", &tids, u64::MAX).unwrap();
        assert!(!via_scan.ok);
    }

    #[test]
    fn fabricated_tid_detected() {
        let (chain, _mgr, _bob, mut revealed) = setup_hash_view();
        revealed[0].tid = TxId(ledgerview_crypto::sha256::sha256(b"ghost"));
        let report = verify_soundness(&chain, "V_W1", &revealed).unwrap();
        assert!(!report.ok);
        assert!(report.violations[0].contains("not found"));
    }

    #[test]
    fn completeness_horizon_excludes_later_txs() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(31);
        let mut mgr: HashBasedManager = ViewManager::new(owner, true);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &tx("W1", b"early"), &mut rng)
            .unwrap();
        mgr.flush(&mut chain, &mut rng).unwrap();
        let list = contracts::read_view_txlist(chain.state(), "V").unwrap();
        let horizon = list[0].1;
        // A later transaction past the horizon.
        chain.set_time_us(horizon + 10_000_000);
        mgr.invoke_with_secret(&mut chain, &client, &tx("W1", b"late"), &mut rng)
            .unwrap();
        mgr.flush(&mut chain, &mut rng).unwrap();

        // A view snapshot containing only the early tx is complete at the
        // horizon, but incomplete at MAX.
        let tids: HashSet<TxId> = [list[0].0].into_iter().collect();
        let at_horizon = verify_completeness_txlist(&chain, "V", &tids, horizon).unwrap();
        assert!(at_horizon.ok);
        let at_max = verify_completeness_txlist(&chain, "V", &tids, u64::MAX).unwrap();
        assert!(!at_max.ok);
    }

    #[test]
    fn encryption_scheme_wrong_key_detected() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(32);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &tx("W1", b"s"), &mut rng)
            .unwrap();
        let bob_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();
        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V").unwrap();
        let resp = mgr.query_view("V", &bob.public(), None, &mut rng).unwrap();
        let mut revealed = bob.open_response(&chain, "V", &resp).unwrap();
        // Corrupt the transaction key: soundness case 2 (corrupted keys).
        revealed[0].tx_key = Some(SymmetricKey::generate(&mut rng));
        let report = verify_soundness(&chain, "V", &revealed).unwrap();
        assert!(!report.ok);
    }
}
