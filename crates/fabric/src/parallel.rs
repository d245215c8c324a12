//! Parallel block validation with batch signature verification.
//!
//! Fabric's commit path splits naturally in two:
//!
//! 1. **Per-transaction endorsement checks** (certificate chains, Ed25519
//!    endorsement signatures, policy evaluation) depend only on the
//!    transaction itself — they can run on any number of workers in any
//!    order.
//! 2. **MVCC read-set validation and write application** depend on the
//!    outcomes of *earlier* transactions in the same block and must stay
//!    serial.
//!
//! [`BlockValidator`] exploits this: phase 1 fans the block out in
//! contiguous chunks with [`WorkerPool::map_chunks`] — scoped threads that
//! borrow the transactions, the [`Msp`] and the policy lookup, and are gone
//! when the call returns — and phase 2 is the serial loop of
//! [`validate_and_commit_block`](crate::validation::validate_and_commit_block).
//! Chunk boundaries are `ceil(n / workers)`, so they depend only on the
//! transaction count and configured worker count, never on scheduling.
//!
//! Within a chunk each transaction is walked once: its structure is
//! checked, every endorser certificate is put to [`Msp::verify_cert`] (the
//! MSP's memo is the only certificate cache), and the endorsement
//! signatures that survive are checked together by
//! [`ed25519::verify_batch`]. A batch rejects iff some entry is
//! individually invalid (up to the ~2⁻¹²⁸ soundness error of the
//! random-linear-combination check); on a batch failure the signatures are
//! re-verified individually, so the per-transaction verdicts — including
//! *which* check failed first — match
//! [`validate_and_commit_block_vscc`](crate::validation::validate_and_commit_block_vscc),
//! the one-signature-at-a-time reference, exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ledgerview_crypto::ed25519::{self, BatchEntry};
use ledgerview_crypto::keys::verify_signature;
use ledgerview_telemetry::{Counter, HistogramHandle, Telemetry};

use crate::endorsement::{response_signing_bytes, EndorsementPolicy};
use crate::error::FabricError;
use crate::identity::{CacheStats, Msp};
use crate::ledger::Transaction;
use crate::pool::WorkerPool;
use crate::statedb::VersionedState;
use crate::validation::{commit_in_order, mvcc_check, TxValidation};

/// Tuning knobs for the commit-time validation pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationConfig {
    /// Worker threads for the endorsement-verification phase. `1` keeps
    /// everything on the calling thread.
    pub workers: usize,
    /// Re-check endorsements at commit time (Fabric's VSCC). When `false`,
    /// commit performs MVCC validation only — the behaviour of
    /// [`validate_and_commit_block`](crate::validation::validate_and_commit_block),
    /// appropriate when endorsements were already checked at submission.
    pub verify_endorsements: bool,
}

impl Default for ValidationConfig {
    /// One worker, MVCC-only (matching `validate_and_commit_block`).
    fn default() -> ValidationConfig {
        ValidationConfig {
            workers: 1,
            verify_endorsements: false,
        }
    }
}

impl ValidationConfig {
    /// Commit-time endorsement checks on `workers` threads.
    pub fn parallel(workers: usize) -> ValidationConfig {
        ValidationConfig {
            workers,
            verify_endorsements: true,
        }
    }
}

/// Pre-resolved metric handles for the validator's hot path — looked up
/// once when telemetry attaches, recorded into forever after. Purely
/// observational: nothing here feeds back into verdicts or state.
#[derive(Clone, Debug)]
struct ValidatorMetrics {
    telemetry: Telemetry,
    /// Wall time of one endorsement-verification chunk.
    chunk_seconds: HistogramHandle,
    /// Wall time of the serial MVCC + write-application phase.
    mvcc_seconds: HistogramHandle,
    /// Signatures proven valid via one Ed25519 batch check.
    batch_verified: Counter,
    /// Signatures verified one at a time.
    individual_verified: Counter,
    /// Certificate-memo hits/misses attributed to this validator (deltas
    /// of the MSP's counters around each block's endorsement phase).
    cache_hits: Counter,
    cache_misses: Counter,
    /// Transaction outcomes by class.
    valid_txs: Counter,
    endorsement_failures: Counter,
    mvcc_conflicts: Counter,
}

impl ValidatorMetrics {
    fn new(telemetry: &Telemetry) -> ValidatorMetrics {
        let r = telemetry.registry();
        ValidatorMetrics {
            telemetry: telemetry.clone(),
            chunk_seconds: r.histogram("lv_validate_endorse_chunk_seconds", &[]),
            mvcc_seconds: r.histogram("lv_validate_mvcc_seconds", &[]),
            batch_verified: r.counter("lv_validate_sigs_batch_verified_total", &[]),
            individual_verified: r.counter("lv_validate_sigs_individual_total", &[]),
            cache_hits: r.counter("lv_validate_sigcache_hits_total", &[]),
            cache_misses: r.counter("lv_validate_sigcache_misses_total", &[]),
            valid_txs: r.counter("lv_validate_tx_total", &[("outcome", "valid")]),
            endorsement_failures: r.counter(
                "lv_validate_tx_total",
                &[("outcome", "endorsement_failure")],
            ),
            mvcc_conflicts: r.counter("lv_validate_tx_total", &[("outcome", "mvcc_conflict")]),
        }
    }

    /// Count one MVCC conflict, attributed to the conflicting `key`.
    fn note_conflict(&self, key: &str) {
        self.mvcc_conflicts.inc();
        self.telemetry
            .registry()
            .counter("lv_validate_mvcc_conflict_by_key_total", &[("key", key)])
            .inc();
    }
}

/// Commit-time block validator: parallel endorsement phase + serial MVCC
/// phase. See the module docs for the determinism argument.
#[derive(Debug)]
pub struct BlockValidator {
    config: ValidationConfig,
    pool: WorkerPool,
    /// Certificate-memo hits and misses seen during this validator's
    /// endorsement phases.
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    metrics: Option<ValidatorMetrics>,
}

impl BlockValidator {
    /// Build a validator for `config` with its own worker pool.
    pub fn new(config: ValidationConfig) -> BlockValidator {
        let pool = WorkerPool::new(config.workers);
        BlockValidator::with_pool(config, pool)
    }

    /// Build a validator on an existing pool, so its busy-time accounting
    /// covers both validation and whatever else used the pool (e.g.
    /// storage recovery).
    pub fn with_pool(config: ValidationConfig, pool: WorkerPool) -> BlockValidator {
        BlockValidator {
            config,
            pool,
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            metrics: None,
        }
    }

    /// Attach telemetry: per-chunk endorsement timings, certificate-memo
    /// and batch-verify counters, MVCC conflict counters, and the pool's
    /// per-worker busy-time mirror. Recording never changes verdicts.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.pool.attach_registry(telemetry.registry());
        self.metrics = Some(ValidatorMetrics::new(telemetry));
    }

    /// Hits and misses of the MSP's certificate memo observed during this
    /// validator's endorsement phases (zeros with endorsement checks off).
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.memo_hits.load(Ordering::Relaxed),
            misses: self.memo_misses.load(Ordering::Relaxed),
        }
    }

    /// Validate and commit a block's transactions against `state`.
    ///
    /// `policy_for` maps a chaincode name to its endorsement policy (`None`
    /// marks the chaincode unknown). Valid transactions' writes are applied
    /// in order with versions `(block_num, tx_index)`. The returned outcome
    /// vector is identical to the serial reference path at every worker
    /// count.
    pub fn validate_and_commit(
        &self,
        transactions: &[Transaction],
        state: &mut dyn VersionedState,
        block_num: u64,
        msp: &Msp,
        policy_for: &(dyn Fn(&str) -> Option<EndorsementPolicy> + Sync),
    ) -> Vec<TxValidation> {
        let _block_span = self
            .metrics
            .as_ref()
            .map(|m| m.telemetry.span("validate.block"));

        // Phase 1 (parallel): per-transaction endorsement verdicts.
        let mut verdicts: Vec<Option<String>> = if self.config.verify_endorsements {
            self.endorsement_verdicts(transactions, msp, policy_for)
        } else {
            vec![None; transactions.len()]
        };

        // Phase 2 (serial): MVCC checks and write application, in block
        // order — the reference implementation's own loop.
        let mvcc_start = self.metrics.as_ref().map(|_| Instant::now());
        let outcomes = commit_in_order(transactions, state, block_num, |i, _| verdicts[i].take());

        if let (Some(m), Some(start)) = (&self.metrics, mvcc_start) {
            m.mvcc_seconds.observe_duration(start.elapsed());
            for outcome in &outcomes {
                match outcome {
                    TxValidation::Valid => m.valid_txs.inc(),
                    TxValidation::EndorsementFailure { .. } => m.endorsement_failures.inc(),
                    TxValidation::MvccConflict { key } => m.note_conflict(key),
                }
            }
        }
        outcomes
    }

    /// Pre-block read-set check: for each transaction, the first read key
    /// whose committed version in `state` no longer matches the version
    /// observed at endorsement (`None` = all reads fresh).
    ///
    /// This is the read-set metadata a conflict-aware block cutter plans
    /// with: a stale read dooms its transaction under every intra-block
    /// order, so the cutter can pull it before validation. The check is a
    /// pure per-transaction function of `(transaction, state)` — nothing
    /// is applied — so the verdict vector is identical at every worker
    /// count.
    pub fn precheck_reads(
        &self,
        transactions: &[Transaction],
        state: &dyn VersionedState,
    ) -> Vec<Option<String>> {
        self.pool.map_indexed(transactions.len(), |i| {
            match mvcc_check(&transactions[i].rwset, state) {
                TxValidation::MvccConflict { key } => Some(key),
                _ => None,
            }
        })
    }

    /// Phase 1: fan the endorsement checks out over the pool, one chunk of
    /// borrowed transactions per lane, and attribute the certificate-memo
    /// traffic they caused to this validator.
    fn endorsement_verdicts(
        &self,
        transactions: &[Transaction],
        msp: &Msp,
        policy_for: &(dyn Fn(&str) -> Option<EndorsementPolicy> + Sync),
    ) -> Vec<Option<String>> {
        let metrics = self.metrics.as_ref();
        let before = msp.cert_memo_stats();
        let verdicts = self.pool.map_chunks(transactions.len(), |range| {
            let start = metrics.map(|_| Instant::now());
            let out = verify_chunk(&transactions[range], msp, policy_for, metrics);
            if let (Some(m), Some(start)) = (metrics, start) {
                m.chunk_seconds.observe_duration(start.elapsed());
            }
            out
        });
        let after = msp.cert_memo_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        self.memo_hits.fetch_add(hits, Ordering::Relaxed);
        self.memo_misses.fetch_add(misses, Ordering::Relaxed);
        if let Some(m) = metrics {
            m.cache_hits.add(hits);
            m.cache_misses.add(misses);
        }
        verdicts
    }
}

/// What one transaction's walk leaves for its chunk's signature check.
struct Walked {
    /// The bytes every endorser of this transaction signed.
    message: Vec<u8>,
    /// How many leading endorsements carry a certificate the MSP vouches
    /// for: exactly their signatures are checked.
    signed: usize,
    /// The verdict if every one of those signatures holds: the structural
    /// or certificate failure that stopped the walk, the policy's refusal,
    /// or `None`.
    otherwise: Option<String>,
}

/// Walk one transaction up to its signatures: chaincode known, endorsements
/// present, then each endorser's organisation and certificate in order,
/// and last the policy.
fn walk(tx: &Transaction, msp: &Msp, policy: Option<&EndorsementPolicy>) -> Walked {
    let mut walked = Walked {
        message: Vec::new(),
        signed: 0,
        otherwise: None,
    };
    let Some(policy) = policy else {
        walked.otherwise = Some(format!("unknown chaincode {:?}", tx.chaincode));
        return walked;
    };
    if tx.endorsements.is_empty() {
        walked.otherwise = Some("no endorsements".to_string());
        return walked;
    }
    walked.message = response_signing_bytes(&tx.tx_id, &tx.rwset.digest(), &tx.response);
    let mut orgs = Vec::with_capacity(tx.endorsements.len());
    for e in &tx.endorsements {
        let cert = &e.endorser;
        if let Err(err) = msp.verify_cert(cert) {
            walked.otherwise = Some(match err {
                FabricError::AccessDenied(_) => {
                    format!("endorsement from unknown org {}", cert.org)
                }
                _ => format!("invalid certificate for {}@{}", cert.subject, cert.org),
            });
            return walked;
        }
        walked.signed += 1;
        orgs.push(cert.org.clone());
    }
    if !policy.is_satisfied(&orgs) {
        walked.otherwise = Some("endorsement policy not satisfied".to_string());
    }
    walked
}

/// Endorsement verdicts for one contiguous chunk of transactions: walk
/// each once, check the chunk's signatures as one batch, and only if the
/// batch fails find each transaction's first bad signature individually.
/// A transaction's verdict is its first bad signature among the
/// endorsements walked, else whatever the walk ended on — the reference's
/// order, since a walk stops at the first failure that is not a signature.
fn verify_chunk(
    chunk: &[Transaction],
    msp: &Msp,
    policy_for: &(dyn Fn(&str) -> Option<EndorsementPolicy> + Sync),
    metrics: Option<&ValidatorMetrics>,
) -> Vec<Option<String>> {
    let walks: Vec<Walked> = chunk
        .iter()
        .map(|tx| walk(tx, msp, policy_for(&tx.chaincode).as_ref()))
        .collect();
    let entries: Vec<BatchEntry<'_>> = chunk
        .iter()
        .zip(&walks)
        .flat_map(|(tx, w)| {
            tx.endorsements[..w.signed].iter().map(|e| BatchEntry {
                public_key: &e.endorser.signing_pub,
                message: &w.message,
                signature: &e.signature,
            })
        })
        .collect();
    if entries.len() >= 2 && ed25519::verify_batch(&entries).is_ok() {
        if let Some(m) = metrics {
            m.batch_verified.add(entries.len() as u64);
        }
        return walks.into_iter().map(|w| w.otherwise).collect();
    }
    let mut checked = 0;
    let verdicts = chunk
        .iter()
        .zip(walks)
        .map(|(tx, w)| {
            tx.endorsements[..w.signed]
                .iter()
                .find(|e| {
                    checked += 1;
                    verify_signature(&e.endorser.signing_pub, &w.message, &e.signature).is_err()
                })
                .map(|e| {
                    format!(
                        "bad endorsement signature from {}@{}",
                        e.endorser.subject, e.endorser.org
                    )
                })
                .or(w.otherwise)
        })
        .collect();
    if let Some(m) = metrics {
        m.individual_verified.add(checked);
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::{ReadEntry, RwSet, WriteEntry};
    use crate::identity::Identity;
    use crate::ledger::{Endorsement, TxId};
    use crate::statedb::StateDb;
    use crate::statedb::Version;
    use crate::validation::{validate_and_commit_block, validate_and_commit_block_vscc};
    use ledgerview_crypto::rng::seeded;
    use ledgerview_crypto::sha256::sha256;

    struct Fixture {
        msp: Msp,
        endorsers: Vec<Identity>,
    }

    fn fixture() -> Fixture {
        let mut rng = seeded(42);
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

    fn endorsed_tx(f: &Fixture, n: u8, rwset: RwSet, endorser_idx: &[usize]) -> Transaction {
        let tx_id = TxId(sha256(&[n]));
        let response = vec![n, n, n];
        let msg = response_signing_bytes(&tx_id, &rwset.digest(), &response);
        let endorsements = endorser_idx
            .iter()
            .map(|&i| Endorsement {
                endorser: f.endorsers[i].cert().clone(),
                signature: f.endorsers[i].sign(&msg),
            })
            .collect();
        Transaction {
            tx_id,
            chaincode: "cc".into(),
            function: "f".into(),
            args: vec![],
            creator: f.endorsers[0].cert().clone(),
            rwset,
            response,
            endorsements,
        }
    }

    fn rw(reads: Vec<ReadEntry>, writes: Vec<(&str, &[u8])>) -> RwSet {
        RwSet {
            reads,
            writes: writes
                .into_iter()
                .map(|(k, v)| WriteEntry {
                    key: k.into(),
                    value: Some(v.to_vec()),
                })
                .collect(),
            private_writes: vec![],
        }
    }

    fn policy_any() -> impl Fn(&str) -> Option<EndorsementPolicy> + Sync {
        |cc: &str| {
            (cc == "cc").then(|| {
                EndorsementPolicy::AnyOf(vec![
                    crate::identity::OrgId::new("Org1"),
                    crate::identity::OrgId::new("Org2"),
                    crate::identity::OrgId::new("Org3"),
                ])
            })
        }
    }

    #[test]
    fn mvcc_only_mode_matches_reference() {
        let f = fixture();
        let txs: Vec<Transaction> = (0..8)
            .map(|n| endorsed_tx(&f, n, rw(vec![], vec![("k", &[n])]), &[0]))
            .collect();
        let mut serial_state = StateDb::new();
        let expected = validate_and_commit_block(&txs, &mut serial_state, 3);
        for workers in [1, 4] {
            let validator = BlockValidator::new(ValidationConfig {
                workers,
                ..ValidationConfig::default()
            });
            let mut state = StateDb::new();
            let got = validator.validate_and_commit(&txs, &mut state, 3, &f.msp, &policy_any());
            assert_eq!(got, expected);
            assert_eq!(state.state_digest(), serial_state.state_digest());
        }
    }

    #[test]
    fn parallel_matches_serial_with_endorsement_checks() {
        let f = fixture();
        let mut txs: Vec<Transaction> = (0..10)
            .map(|n| endorsed_tx(&f, n, rw(vec![], vec![("k", &[n])]), &[(n % 3) as usize]))
            .collect();
        // Tamper with one endorsement signature and one certificate.
        txs[4].endorsements[0].signature[7] ^= 1;
        txs[7].endorsements[0].endorser.subject = "mallory".into();

        let mut serial_state = StateDb::new();
        let expected =
            validate_and_commit_block_vscc(&txs, &mut serial_state, 1, &f.msp, &policy_any());
        assert!(matches!(
            expected[4],
            TxValidation::EndorsementFailure { .. }
        ));
        assert!(matches!(
            expected[7],
            TxValidation::EndorsementFailure { .. }
        ));

        for workers in [1, 2, 4, 8] {
            let validator = BlockValidator::new(ValidationConfig::parallel(workers));
            let mut state = StateDb::new();
            let got = validator.validate_and_commit(&txs, &mut state, 1, &f.msp, &policy_any());
            assert_eq!(got, expected, "workers={workers}");
            assert_eq!(state.state_digest(), serial_state.state_digest());
        }
    }

    #[test]
    fn unknown_chaincode_and_missing_endorsements_fail() {
        let f = fixture();
        let mut t1 = endorsed_tx(&f, 1, rw(vec![], vec![("a", b"1")]), &[0]);
        t1.chaincode = "nope".into();
        let mut t2 = endorsed_tx(&f, 2, rw(vec![], vec![("b", b"2")]), &[0]);
        t2.endorsements.clear();
        let validator = BlockValidator::new(ValidationConfig {
            verify_endorsements: true,
            ..ValidationConfig::default()
        });
        let mut state = StateDb::new();
        let got = validator.validate_and_commit(&[t1, t2], &mut state, 1, &f.msp, &policy_any());
        assert!(
            matches!(&got[0], TxValidation::EndorsementFailure { reason } if reason.contains("unknown chaincode"))
        );
        assert!(
            matches!(&got[1], TxValidation::EndorsementFailure { reason } if reason.contains("no endorsements"))
        );
        assert!(state.state_digest() == StateDb::new().state_digest());
    }

    #[test]
    fn policy_not_satisfied_detected() {
        let f = fixture();
        let tx = endorsed_tx(&f, 1, rw(vec![], vec![("a", b"1")]), &[0]);
        let all_three = |_: &str| {
            Some(EndorsementPolicy::AllOf(vec![
                crate::identity::OrgId::new("Org1"),
                crate::identity::OrgId::new("Org2"),
                crate::identity::OrgId::new("Org3"),
            ]))
        };
        let validator = BlockValidator::new(ValidationConfig {
            verify_endorsements: true,
            ..ValidationConfig::default()
        });
        let mut state = StateDb::new();
        let got = validator.validate_and_commit(&[tx], &mut state, 1, &f.msp, &all_three);
        assert!(
            matches!(&got[0], TxValidation::EndorsementFailure { reason } if reason.contains("policy"))
        );
    }

    #[test]
    fn cache_stats_are_this_validators_share_of_the_cert_memo() {
        let f = fixture();
        let txs: Vec<Transaction> = (0..6)
            .map(|n| endorsed_tx(&f, n, rw(vec![], vec![("k", &[n])]), &[0]))
            .collect();
        let validator = BlockValidator::new(ValidationConfig::parallel(1));
        let mut state = StateDb::new();
        validator.validate_and_commit(&txs, &mut state, 1, &f.msp, &policy_any());
        // One endorser certificate on six transactions: verified once,
        // remembered five times. Endorsement signatures are never cached.
        let first = validator.cache_stats();
        assert_eq!((first.misses, first.hits), (1, 5));
        let mut state2 = StateDb::new();
        validator.validate_and_commit(&txs, &mut state2, 1, &f.msp, &policy_any());
        let second = validator.cache_stats();
        assert_eq!((second.misses, second.hits), (1, 11));
        // Another validator on the same MSP counts only its own lookups,
        // and with endorsement checks off there are none.
        let other = BlockValidator::new(ValidationConfig::parallel(2));
        other.validate_and_commit(&txs, &mut StateDb::new(), 1, &f.msp, &policy_any());
        assert_eq!(other.cache_stats(), CacheStats { hits: 6, misses: 0 });
        assert_eq!(validator.cache_stats(), second);
        let off = BlockValidator::new(ValidationConfig::default());
        off.validate_and_commit(&txs, &mut StateDb::new(), 1, &f.msp, &policy_any());
        assert_eq!(off.cache_stats(), CacheStats::default());
    }

    #[test]
    fn mvcc_conflicts_still_detected_in_parallel_mode() {
        let f = fixture();
        let genesis_read = ReadEntry {
            key: "k".into(),
            version: Some(Version::GENESIS),
        };
        let txs = vec![
            endorsed_tx(
                &f,
                1,
                rw(vec![genesis_read.clone()], vec![("k", b"a")]),
                &[0],
            ),
            endorsed_tx(&f, 2, rw(vec![genesis_read], vec![("k", b"b")]), &[1]),
        ];
        let validator = BlockValidator::new(ValidationConfig::parallel(4));
        let mut state = StateDb::new();
        state.put("k".into(), b"v0".to_vec(), Version::GENESIS);
        let got = validator.validate_and_commit(&txs, &mut state, 1, &f.msp, &policy_any());
        assert_eq!(got[0], TxValidation::Valid);
        assert_eq!(got[1], TxValidation::MvccConflict { key: "k".into() });
        assert_eq!(state.get("k"), Some(&b"a"[..]));
    }

    #[test]
    fn precheck_reads_matches_serial_mvcc_at_every_worker_count() {
        let f = fixture();
        let fresh = ReadEntry {
            key: "fresh".into(),
            version: Some(Version::GENESIS),
        };
        let stale = ReadEntry {
            key: "stale".into(),
            version: None, // Endorsed against an absent key…
        };
        let mut state = StateDb::new();
        state.put("fresh".into(), b"v".to_vec(), Version::GENESIS);
        // …which has since been written: the read is doomed.
        state.put(
            "stale".into(),
            b"v".to_vec(),
            Version {
                block_num: 3,
                tx_num: 0,
            },
        );
        let txs: Vec<Transaction> = (0..9)
            .map(|n| {
                let reads = match n % 3 {
                    0 => vec![fresh.clone()],
                    1 => vec![stale.clone()],
                    _ => vec![fresh.clone(), stale.clone()],
                };
                endorsed_tx(&f, n, rw(reads, vec![("out", &[n])]), &[0])
            })
            .collect();
        let expected: Vec<Option<String>> = txs
            .iter()
            .map(|tx| match mvcc_check(&tx.rwset, &state) {
                TxValidation::MvccConflict { key } => Some(key),
                _ => None,
            })
            .collect();
        assert!(expected.iter().any(Option::is_some));
        assert!(expected.iter().any(Option::is_none));
        for workers in [1, 2, 4] {
            let validator = BlockValidator::new(ValidationConfig {
                workers,
                ..ValidationConfig::default()
            });
            assert_eq!(
                validator.precheck_reads(&txs, &state),
                expected,
                "workers={workers}"
            );
            // Pure prediction: the state is untouched.
            assert_eq!(state.get("fresh"), Some(&b"v"[..]));
        }
    }

    #[test]
    fn shared_pool_serves_two_validators() {
        let f = fixture();
        let pool = WorkerPool::new(4);
        let v1 = BlockValidator::with_pool(ValidationConfig::parallel(4), pool.clone());
        let v2 = BlockValidator::with_pool(ValidationConfig::parallel(4), pool.clone());
        let txs: Vec<Transaction> = (0..8)
            .map(|n| endorsed_tx(&f, n, rw(vec![], vec![("k", &[n])]), &[0]))
            .collect();
        let mut s1 = StateDb::new();
        let mut s2 = StateDb::new();
        let o1 = v1.validate_and_commit(&txs, &mut s1, 1, &f.msp, &policy_any());
        let after_first = pool.busy_times_us();
        assert!(after_first.iter().all(|&us| us > 0), "{after_first:?}");
        let o2 = v2.validate_and_commit(&txs, &mut s2, 1, &f.msp, &policy_any());
        assert_eq!(o1, o2);
        assert_eq!(s1.state_digest(), s2.state_digest());
        let after_second = pool.busy_times_us();
        assert!(
            after_first.iter().zip(&after_second).all(|(a, b)| a < b),
            "both validators charged the one pool: {after_first:?} {after_second:?}"
        );
    }
}
