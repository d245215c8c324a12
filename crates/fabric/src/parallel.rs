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
//! [`BlockValidator`] exploits this: phase 1 fans transactions out across
//! the **persistent** threads of a [`WorkerPool`] in contiguous chunks
//! (optionally batch-verifying the chunk's signatures with
//! [`ed25519::verify_batch`] and consulting a shared [`SigCache`]), phase 2
//! replays the serial reference logic of
//! [`validate_and_commit_block`](crate::validation::validate_and_commit_block).
//! Because phase 1 outcomes are a pure function of each transaction and
//! phase 2 is unchanged, the combined result is bit-identical to the serial
//! path at every worker count.
//!
//! The fan-out ships each worker an owned snapshot of its chunk (the
//! transactions, the CA public keys, the relevant endorsement policies) so
//! jobs are `'static` and the pool's threads can outlive any one block; the
//! clone cost is trivial next to the Ed25519 verifications the chunk
//! performs. Chunk boundaries come from [`WorkerPool::chunk_ranges`] —
//! `ceil(n / workers)` — so they depend only on the transaction count and
//! configured worker count, never on scheduling.
//!
//! Batch verification rejects iff some entry is individually invalid (up to
//! the ~2⁻¹²⁸ soundness error of the random-linear-combination check); on a
//! batch failure every pending entry is re-verified individually, so the
//! per-transaction verdicts — including *which* endorsement failed — match
//! the serial path exactly.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use ledgerview_crypto::ed25519::{self, BatchEntry};
use ledgerview_crypto::keys::verify_signature;
use ledgerview_crypto::{CacheKey, CacheStats, SigCache};
use ledgerview_telemetry::{Counter, HistogramHandle, Telemetry};

use crate::endorsement::{response_signing_bytes, EndorsementPolicy};
use crate::identity::{Msp, OrgId};
use crate::ledger::Transaction;
use crate::pool::WorkerPool;
use crate::statedb::{Version, VersionedState};
use crate::validation::{apply_writes, mvcc_check, TxValidation};

/// Tuning knobs for the commit-time validation pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ValidationConfig {
    /// Worker threads for the endorsement-verification phase. `1` keeps
    /// everything on the calling thread (the serial reference path).
    pub workers: usize,
    /// Verify a chunk's endorsement signatures as one Ed25519 batch instead
    /// of one at a time.
    pub batch_verify: bool,
    /// Capacity of the shared verified-signature LRU cache (`0` disables).
    /// Endorser certificates repeat across transactions, so certificate
    /// checks hit this cache heavily.
    pub sig_cache: usize,
    /// Re-check endorsements at commit time (Fabric's VSCC). When `false`,
    /// commit performs MVCC validation only — the historical behaviour of
    /// [`validate_and_commit_block`](crate::validation::validate_and_commit_block),
    /// appropriate when endorsements were already checked at submission.
    pub verify_endorsements: bool,
}

impl Default for ValidationConfig {
    /// The serial reference configuration: one worker, no batching, no
    /// cache, MVCC-only (matching `validate_and_commit_block`).
    fn default() -> ValidationConfig {
        ValidationConfig {
            workers: 1,
            batch_verify: false,
            sig_cache: 0,
            verify_endorsements: false,
        }
    }
}

impl ValidationConfig {
    /// The serial reference path (alias for [`Default`]).
    pub fn serial_reference() -> ValidationConfig {
        ValidationConfig::default()
    }

    /// A fully-featured parallel configuration: `workers` threads, batch
    /// verification, a 4096-entry signature cache and commit-time
    /// endorsement checks enabled.
    pub fn parallel(workers: usize) -> ValidationConfig {
        ValidationConfig {
            workers,
            batch_verify: true,
            sig_cache: 4096,
            verify_endorsements: true,
        }
    }
}

/// A signature triple scheduled for verification: `(public key, message,
/// signature)`.
type Demand = ([u8; 32], Vec<u8>, [u8; 64]);

/// CA public keys by organisation — the owned snapshot of the MSP data the
/// endorsement phase needs, cloneable into `'static` worker jobs.
type CaKeys = HashMap<OrgId, [u8; 32]>;

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
    /// `SigCache` hits/misses attributed to this validator (deltas of the
    /// shared cache's counters around each block).
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
    cache: Option<Arc<SigCache>>,
    metrics: Option<ValidatorMetrics>,
}

impl BlockValidator {
    /// Build a validator for `config` with its own worker pool.
    pub fn new(config: ValidationConfig) -> BlockValidator {
        let pool = WorkerPool::new(config.workers);
        BlockValidator::with_pool(config, pool)
    }

    /// Build a validator sharing an existing pool (its persistent threads
    /// then serve both validation and whatever else holds the pool, e.g.
    /// storage recovery).
    pub fn with_pool(config: ValidationConfig, pool: WorkerPool) -> BlockValidator {
        let cache = if config.sig_cache > 0 {
            Some(Arc::new(SigCache::new(config.sig_cache)))
        } else {
            None
        };
        BlockValidator {
            config,
            pool,
            cache,
            metrics: None,
        }
    }

    /// Attach telemetry: per-chunk endorsement timings, signature-cache and
    /// batch-verify counters, MVCC conflict counters, and the pool's
    /// per-worker busy-time mirror. Recording never changes verdicts.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.pool.attach_registry(telemetry.registry());
        self.metrics = Some(ValidatorMetrics::new(telemetry));
    }

    /// The configuration this validator was built with.
    pub fn config(&self) -> &ValidationConfig {
        &self.config
    }

    /// The worker pool (cloning shares its persistent threads).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Hit/miss counters of the shared signature cache (zeros if disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Validate and commit a block's transactions against `state`.
    ///
    /// `policy_for` maps a chaincode name to its endorsement policy (`None`
    /// marks the chaincode unknown). Valid transactions' writes are applied
    /// in order with versions `(block_num, tx_index)`. The returned outcome
    /// vector is identical to the serial reference path for every
    /// configuration.
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
        let cache_before = self.cache_stats();

        // Phase 1 (parallel): per-transaction endorsement verdicts.
        let verdicts: Vec<Option<String>> = if self.config.verify_endorsements {
            self.endorsement_verdicts(transactions, msp, policy_for)
        } else {
            vec![None; transactions.len()]
        };

        // Phase 2 (serial): MVCC checks and write application, in block
        // order — unchanged from the reference implementation.
        let mvcc_start = self.metrics.as_ref().map(|_| Instant::now());
        let mut outcomes = Vec::with_capacity(transactions.len());
        for (i, tx) in transactions.iter().enumerate() {
            let outcome = match &verdicts[i] {
                Some(reason) => TxValidation::EndorsementFailure {
                    reason: reason.clone(),
                },
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

        if let Some(m) = &self.metrics {
            m.mvcc_seconds
                .observe_duration(mvcc_start.expect("started with metrics").elapsed());
            let cache_after = self.cache_stats();
            m.cache_hits.add(cache_after.hits - cache_before.hits);
            m.cache_misses.add(cache_after.misses - cache_before.misses);
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
    /// is applied — and fans out over the pool's persistent threads for
    /// multi-worker configurations, so the verdict vector is identical at
    /// every worker count.
    pub fn precheck_reads(
        &self,
        transactions: &[Transaction],
        state: &dyn VersionedState,
    ) -> Vec<Option<String>> {
        let stale = |tx: &Transaction| match mvcc_check(&tx.rwset, state) {
            TxValidation::MvccConflict { key } => Some(key),
            _ => None,
        };
        if self.config.workers <= 1 || transactions.len() <= 1 {
            return transactions.iter().map(stale).collect();
        }
        self.pool
            .map_indexed(transactions.len(), |i| stale(&transactions[i]))
    }

    /// Phase 1: fan the endorsement checks out over the persistent pool.
    fn endorsement_verdicts(
        &self,
        transactions: &[Transaction],
        msp: &Msp,
        policy_for: &(dyn Fn(&str) -> Option<EndorsementPolicy> + Sync),
    ) -> Vec<Option<String>> {
        // Owned snapshots shared by every job: the CA key map (a handful of
        // orgs) and the policies of the chaincodes this block touches.
        let mut ca_keys: CaKeys = HashMap::new();
        for org in msp.org_ids() {
            if let Some(pk) = msp.ca_public_key(&org) {
                ca_keys.insert(org, pk);
            }
        }
        let ca_keys = Arc::new(ca_keys);
        let mut policies: HashMap<String, Option<EndorsementPolicy>> = HashMap::new();
        for tx in transactions {
            policies
                .entry(tx.chaincode.clone())
                .or_insert_with(|| policy_for(&tx.chaincode));
        }
        let policies = Arc::new(policies);

        let ranges = self.pool.chunk_ranges(transactions.len());
        if ranges.len() <= 1 {
            let start = Instant::now();
            let out = verify_chunk(
                transactions,
                &ca_keys,
                &policies,
                self.config.batch_verify,
                self.cache.as_deref(),
                self.metrics.as_ref(),
            );
            if let Some(m) = &self.metrics {
                m.chunk_seconds.observe_duration(start.elapsed());
            }
            return out;
        }
        let jobs: Vec<_> = ranges
            .into_iter()
            .map(|range| {
                let chunk: Vec<Transaction> = transactions[range].to_vec();
                let ca_keys = Arc::clone(&ca_keys);
                let policies = Arc::clone(&policies);
                let cache = self.cache.clone();
                let batch_verify = self.config.batch_verify;
                let metrics = self.metrics.clone();
                move || {
                    let start = Instant::now();
                    let out = verify_chunk(
                        &chunk,
                        &ca_keys,
                        &policies,
                        batch_verify,
                        cache.as_deref(),
                        metrics.as_ref(),
                    );
                    if let Some(m) = &metrics {
                        m.chunk_seconds.observe_duration(start.elapsed());
                    }
                    out
                }
            })
            .collect();
        self.pool.execute(jobs).into_iter().flatten().collect()
    }
}

/// Endorsement verdicts for one contiguous chunk of transactions.
///
/// Three passes: collect every signature the chunk needs checked, resolve
/// them (cache, then batch or individual verification), then replay the
/// per-transaction check sequence against the resolved answers. The replay
/// consumes each transaction's results in the same order they were
/// collected, so verdicts are independent of how the signatures were
/// resolved.
fn verify_chunk(
    chunk: &[Transaction],
    ca_keys: &CaKeys,
    policies: &HashMap<String, Option<EndorsementPolicy>>,
    batch_verify: bool,
    cache: Option<&SigCache>,
    metrics: Option<&ValidatorMetrics>,
) -> Vec<Option<String>> {
    let policy_of = |tx: &Transaction| -> Option<&EndorsementPolicy> {
        policies.get(&tx.chaincode).and_then(|p| p.as_ref())
    };

    // Reference path (no batching, no cache): verify every endorsement
    // in place, one at a time, exactly as a straightforward serial
    // validator would. The demand collection and deduplication below
    // belong to the batching/caching machinery and are skipped here so
    // the serial configuration measures the unoptimised baseline.
    if !batch_verify && cache.is_none() {
        return chunk
            .iter()
            .map(|tx| {
                tx_verdict(tx, ca_keys, policy_of(tx), |pk, msg, sig| {
                    if let Some(m) = metrics {
                        m.individual_verified.inc();
                    }
                    verify_signature(pk, msg, sig).is_ok()
                })
            })
            .collect();
    }

    // Pass 1: collect signature demands per transaction, mirroring the
    // verdict walk (an always-true oracle keeps the walk going past
    // signature checks so later demands are still gathered).
    let mut per_tx: Vec<Vec<Demand>> = Vec::with_capacity(chunk.len());
    for tx in chunk {
        let mut demands: Vec<Demand> = Vec::new();
        let _ = tx_verdict(tx, ca_keys, policy_of(tx), |pk, msg, sig| {
            demands.push((*pk, msg.to_vec(), *sig));
            true
        });
        per_tx.push(demands);
    }

    // Pass 2: resolve every demand in the chunk. Identical triples are
    // verified once — endorser certificates repeat on every transaction,
    // so this alone cuts the chunk's work roughly in half.
    let flat: Vec<&Demand> = per_tx.iter().flatten().collect();
    let mut first_seen: HashMap<&Demand, usize> = HashMap::new();
    let mut slot_of: Vec<usize> = Vec::with_capacity(flat.len());
    let mut unique: Vec<usize> = Vec::new();
    for (i, d) in flat.iter().enumerate() {
        let slot = *first_seen.entry(d).or_insert_with(|| {
            unique.push(i);
            unique.len() - 1
        });
        slot_of.push(slot);
    }
    // A miss keeps the key the cache hashed for it, so recording its
    // verdict below does not hash the triple again.
    let mut miss_keys: Vec<Option<CacheKey>> = vec![None; unique.len()];
    let mut by_slot: Vec<Option<bool>> = unique
        .iter()
        .zip(&mut miss_keys)
        .map(|(&i, miss_key)| {
            let (pk, msg, sig) = flat[i];
            match cache?.lookup_or_key(pk, msg, sig) {
                Ok(outcome) => Some(outcome),
                Err(key) => {
                    *miss_key = Some(key);
                    None
                }
            }
        })
        .collect();
    let pending: Vec<usize> = (0..unique.len())
        .filter(|&s| by_slot[s].is_none())
        .collect();
    if batch_verify && pending.len() >= 2 {
        let entries: Vec<BatchEntry<'_>> = pending
            .iter()
            .map(|&s| BatchEntry {
                public_key: &flat[unique[s]].0,
                message: &flat[unique[s]].1,
                signature: &flat[unique[s]].2,
            })
            .collect();
        if ed25519::verify_batch(&entries).is_ok() {
            for &s in &pending {
                by_slot[s] = Some(true);
            }
            if let Some(m) = metrics {
                m.batch_verified.add(pending.len() as u64);
            }
        } else {
            // At least one entry is bad: fall back to individual
            // verification so each verdict matches the serial path.
            for &s in &pending {
                let (pk, msg, sig) = flat[unique[s]];
                by_slot[s] = Some(verify_signature(pk, msg, sig).is_ok());
            }
            if let Some(m) = metrics {
                m.individual_verified.add(pending.len() as u64);
            }
        }
    } else {
        for &s in &pending {
            let (pk, msg, sig) = flat[unique[s]];
            by_slot[s] = Some(verify_signature(pk, msg, sig).is_ok());
        }
        if let Some(m) = metrics {
            m.individual_verified.add(pending.len() as u64);
        }
    }
    if let Some(cache) = cache {
        for &s in &pending {
            let key = miss_keys[s].expect("a pending slot missed the cache");
            cache.record_key(key, by_slot[s] == Some(true));
        }
    }
    let resolved: Vec<bool> = slot_of
        .iter()
        .map(|&s| by_slot[s].expect("demand left unresolved"))
        .collect();

    // Pass 3: replay the verdict walk against the resolved answers.
    let mut out = Vec::with_capacity(chunk.len());
    let mut flat_pos = 0;
    for (tx, demands) in chunk.iter().zip(&per_tx) {
        let tx_resolved = &resolved[flat_pos..flat_pos + demands.len()];
        flat_pos += demands.len();
        let mut cursor = 0;
        out.push(tx_verdict(tx, ca_keys, policy_of(tx), |_, _, _| {
            let ok = tx_resolved[cursor];
            cursor += 1;
            ok
        }));
    }
    out
}

/// Walk one transaction's endorsement checks, asking `verify` about each
/// signature. Returns `None` if the transaction passes, or a deterministic
/// failure reason — the *first* failing check in a fixed order, so the
/// verdict never depends on scheduling or verification strategy.
fn tx_verdict(
    tx: &Transaction,
    ca_keys: &CaKeys,
    policy: Option<&EndorsementPolicy>,
    mut verify: impl FnMut(&[u8; 32], &[u8], &[u8; 64]) -> bool,
) -> Option<String> {
    let policy = match policy {
        Some(p) => p,
        None => return Some(format!("unknown chaincode {:?}", tx.chaincode)),
    };
    if tx.endorsements.is_empty() {
        return Some("no endorsements".to_string());
    }
    let message = response_signing_bytes(&tx.tx_id, &tx.rwset.digest(), &tx.response);
    let mut orgs = Vec::with_capacity(tx.endorsements.len());
    for e in &tx.endorsements {
        let cert = &e.endorser;
        let ca_pub = match ca_keys.get(&cert.org) {
            Some(pk) => pk,
            None => return Some(format!("endorsement from unknown org {}", cert.org)),
        };
        if !verify(ca_pub, &cert.to_signed_bytes(), &cert.ca_signature) {
            return Some(format!(
                "invalid certificate for {}@{}",
                cert.subject, cert.org
            ));
        }
        if !verify(&cert.signing_pub, &message, &e.signature) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaincode::{ReadEntry, RwSet, WriteEntry};
    use crate::identity::Identity;
    use crate::ledger::{Endorsement, TxId};
    use crate::statedb::StateDb;
    use crate::validation::validate_and_commit_block;
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

        let serial = BlockValidator::new(ValidationConfig {
            verify_endorsements: true,
            ..ValidationConfig::default()
        });
        let mut serial_state = StateDb::new();
        let expected =
            serial.validate_and_commit(&txs, &mut serial_state, 1, &f.msp, &policy_any());
        assert!(matches!(
            expected[4],
            TxValidation::EndorsementFailure { .. }
        ));
        assert!(matches!(
            expected[7],
            TxValidation::EndorsementFailure { .. }
        ));

        for workers in [2, 4, 8] {
            for (batch, cache) in [(false, 0), (true, 0), (true, 256), (false, 256)] {
                let validator = BlockValidator::new(ValidationConfig {
                    workers,
                    batch_verify: batch,
                    sig_cache: cache,
                    verify_endorsements: true,
                });
                let mut state = StateDb::new();
                let got = validator.validate_and_commit(&txs, &mut state, 1, &f.msp, &policy_any());
                assert_eq!(
                    got, expected,
                    "workers={workers} batch={batch} cache={cache}"
                );
                assert_eq!(state.state_digest(), serial_state.state_digest());
            }
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
    fn cache_hits_accumulate_across_blocks() {
        let f = fixture();
        let txs: Vec<Transaction> = (0..6)
            .map(|n| endorsed_tx(&f, n, rw(vec![], vec![("k", &[n])]), &[0]))
            .collect();
        let validator = BlockValidator::new(ValidationConfig {
            workers: 1,
            batch_verify: false,
            sig_cache: 1024,
            verify_endorsements: true,
        });
        let mut state = StateDb::new();
        validator.validate_and_commit(&txs, &mut state, 1, &f.msp, &policy_any());
        let first = validator.cache_stats();
        // First block: every unique triple misses. The repeated endorser
        // certificate dedups within the chunk, so 6 txs need only 7 unique
        // checks (1 cert + 6 endorsement signatures).
        assert_eq!(first.hits, 0);
        assert_eq!(first.misses, 7);
        // Re-validating the same transactions is all cache hits.
        let mut state2 = StateDb::new();
        validator.validate_and_commit(&txs, &mut state2, 1, &f.msp, &policy_any());
        let second = validator.cache_stats();
        assert_eq!(second.misses, first.misses);
        assert_eq!(second.hits, first.misses);
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
    fn repeated_blocks_reuse_the_same_pool_threads() {
        let f = fixture();
        let validator = BlockValidator::new(ValidationConfig::parallel(4));
        let txs: Vec<Transaction> = (0..12)
            .map(|n| endorsed_tx(&f, n, rw(vec![], vec![("k", &[n])]), &[(n % 3) as usize]))
            .collect();
        for block in 1..=3 {
            let mut state = StateDb::new();
            let got = validator.validate_and_commit(&txs, &mut state, block, &f.msp, &policy_any());
            assert!(got.iter().all(|o| o.is_valid()));
        }
        // Three blocks × four chunks each ran as owned jobs on the
        // validator's persistent pool — no per-block thread spawning.
        assert_eq!(validator.pool().jobs_run(), 12);
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
        let o2 = v2.validate_and_commit(&txs, &mut s2, 1, &f.msp, &policy_any());
        assert_eq!(o1, o2);
        assert_eq!(s1.state_digest(), s2.state_digest());
        assert_eq!(pool.jobs_run(), 8, "both validators fed the one pool");
    }
}
