//! The synchronous blockchain facade.
//!
//! [`FabricChain`] wires the substrate together in a single process:
//! enrollment, chaincode deployment, endorsement (real chaincode execution
//! and Ed25519 signatures), block cutting, MVCC validation and commit, state
//! digests, and private data dissemination. The functional layer of the
//! LedgerView system — and every example and integration test — runs on
//! this type; the timed deployment in [`crate::network`] adds latency and
//! queueing on top for the performance experiments.

use std::collections::HashMap;
use std::time::Instant;

use ledgerview_crypto::sha256::Digest;
use ledgerview_statedb::LsmConfig;
use ledgerview_telemetry::{Counter, HistogramHandle, Telemetry};
use rand::RngCore;

use crate::chaincode::{Chaincode, TxContext};
use crate::endorsement::{check_endorsements, EndorsementPolicy, Proposal, ProposalResponse};
use crate::error::FabricError;
use crate::identity::{Identity, Msp, OrgId};
use crate::ledger::{Block, BlockHeader, BlockStore, Transaction, TxId};
use crate::lsm::LsmState;
use crate::parallel::{BlockValidator, ValidationConfig};
use crate::privdata::{CollectionConfig, PrivateStore};
use crate::statedb::VersionedState;
use crate::storage::{ChainSnapshot, DurableBackend, InMemoryBackend, StateBackend, StorageConfig};
use crate::validation::{next_state_root, TxValidation};

struct Deployed {
    code: Box<dyn Chaincode>,
    policy: EndorsementPolicy,
}

/// Transaction-lifecycle metric handles, resolved once when telemetry
/// attaches. Phases share one labeled family,
/// `lv_chain_phase_seconds{phase=...}`, mirroring the paper's endorse →
/// order → validate → commit → persist breakdown.
#[derive(Clone)]
struct ChainMetrics {
    telemetry: Telemetry,
    endorse_seconds: HistogramHandle,
    order_seconds: HistogramHandle,
    validate_seconds: HistogramHandle,
    commit_seconds: HistogramHandle,
    persist_seconds: HistogramHandle,
    block_txs: HistogramHandle,
    txs_total: Counter,
    blocks_total: Counter,
}

impl ChainMetrics {
    fn new(telemetry: &Telemetry) -> ChainMetrics {
        let r = telemetry.registry();
        let phase = |name: &str| r.histogram("lv_chain_phase_seconds", &[("phase", name)]);
        ChainMetrics {
            telemetry: telemetry.clone(),
            endorse_seconds: phase("endorse"),
            order_seconds: phase("order"),
            validate_seconds: phase("validate"),
            commit_seconds: phase("commit"),
            persist_seconds: phase("persist"),
            block_txs: r.histogram("lv_chain_block_txs", &[]),
            txs_total: r.counter("lv_chain_txs_total", &[]),
            blocks_total: r.counter("lv_chain_blocks_total", &[]),
        }
    }
}

/// Result of a committed invocation.
#[derive(Clone, Debug)]
pub struct InvokeResult {
    /// The transaction id.
    pub tx_id: TxId,
    /// The chaincode's response payload.
    pub response: Vec<u8>,
}

/// A single-process deployment of the permissioned blockchain.
pub struct FabricChain {
    msp: Msp,
    /// One endorsing peer identity per organisation.
    endorsers: HashMap<OrgId, Identity>,
    chaincodes: HashMap<String, Deployed>,
    /// Committed state, behind a pluggable persistence backend (in-memory
    /// by default; durable via [`FabricChain::with_storage`]).
    backend: Box<dyn StateBackend>,
    store: BlockStore,
    pending: Vec<Transaction>,
    pending_private: Vec<(String, String, Vec<u8>)>,
    private: PrivateStore,
    /// Rolling state root of the last committed block.
    state_root: Digest,
    /// Logical clock for transaction timestamps (microseconds).
    clock_us: u64,
    /// Whether endorsement signatures are checked at submission
    /// ([`check_endorsements`]). Endorsers sign every response either
    /// way, so a chain with checks off still pays one Ed25519 signature
    /// per endorsing organisation per transaction. Disabled only by
    /// throughput experiments (documented substitution).
    check_signatures: bool,
    /// Commit-time validation pipeline (serial MVCC-only by default; see
    /// [`ValidationConfig`]).
    validator: BlockValidator,
    /// Lifecycle metrics + tracer, attached via [`FabricChain::set_telemetry`].
    /// `None` means every hook is a branch on a `None` and nothing more.
    metrics: Option<ChainMetrics>,
}

impl FabricChain {
    /// Create a chain with one organisation (and endorsing peer) per name.
    pub fn new<R: RngCore + ?Sized>(org_names: &[&str], rng: &mut R) -> FabricChain {
        let mut msp = Msp::new();
        let mut endorsers = HashMap::new();
        for name in org_names {
            let org = msp.add_org(name, rng);
            let peer = msp
                .enroll(&org, &format!("peer.{name}"), rng)
                .expect("org just created");
            endorsers.insert(org, peer);
        }
        FabricChain {
            msp,
            endorsers,
            chaincodes: HashMap::new(),
            backend: Box::new(InMemoryBackend::new()),
            store: BlockStore::new(),
            pending: Vec::new(),
            pending_private: Vec::new(),
            private: PrivateStore::new(),
            state_root: Digest::ZERO,
            clock_us: 0,
            check_signatures: true,
            validator: BlockValidator::new(ValidationConfig::default()),
            metrics: None,
        }
    }

    /// Attach telemetry to the chain and everything beneath it (validator,
    /// worker pool, storage backend). Purely observational — commit
    /// outcomes and state roots are bit-identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.validator.set_telemetry(telemetry);
        self.backend.set_telemetry(telemetry);
        self.metrics = Some(ChainMetrics::new(telemetry));
    }

    /// The attached telemetry bundle, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.metrics.as_ref().map(|m| &m.telemetry)
    }

    /// Create a chain whose state and ledger persist under `storage.dir`,
    /// the state in a disk-backed LSM tree under the default tuning
    /// ([`LsmState::default_config`]), recovering whatever an earlier run
    /// (including one that crashed) committed there.
    ///
    /// Recovery rebuilds the block store from the durable block file, the
    /// state database from the last flush plus the blocks after it, and
    /// verifies every recovered block's state root; identities are
    /// re-derived from `rng`, so reopening with the same seed reproduces
    /// the same organisations.
    /// One worker pool (sized by `validation.workers`) fans out both block
    /// decoding during recovery and endorsement verification at commit
    /// time. Private data collections are not persisted (documented
    /// limitation).
    pub fn with_storage<R: RngCore + ?Sized>(
        org_names: &[&str],
        rng: &mut R,
        storage: StorageConfig,
        validation: ValidationConfig,
    ) -> Result<FabricChain, FabricError> {
        let lsm = LsmState::default_config(&storage);
        FabricChain::with_lsm_storage_tuned(org_names, rng, storage, lsm, validation)
    }

    /// [`FabricChain::with_storage`] with explicit LSM tuning (memtable
    /// size, cache budgets, compaction thresholds).
    pub fn with_lsm_storage_tuned<R: RngCore + ?Sized>(
        org_names: &[&str],
        rng: &mut R,
        storage: StorageConfig,
        lsm: LsmConfig,
        validation: ValidationConfig,
    ) -> Result<FabricChain, FabricError> {
        FabricChain::open_durable(org_names, rng, storage, lsm, validation, None)
    }

    /// Create a chain bootstrapped from a shipped [`ChainSnapshot`] instead
    /// of block history: the snapshot state (digest-verified) becomes the
    /// committed state, the block store starts *pruned* at the snapshot
    /// height, and the next committed block links to the snapshot's
    /// `prev_block_hash`. This is the O(state) peer catch-up path — the
    /// recipient never sees, stores, or replays a block below the base.
    ///
    /// The state lands in an LSM tree tuned by `lsm`. `storage.dir` must
    /// not already contain blocks or state. As with
    /// [`FabricChain::with_storage`], identities are re-derived from `rng`.
    pub fn from_snapshot<R: RngCore + ?Sized>(
        org_names: &[&str],
        rng: &mut R,
        storage: StorageConfig,
        lsm: LsmConfig,
        validation: ValidationConfig,
        snapshot: &ChainSnapshot,
    ) -> Result<FabricChain, FabricError> {
        FabricChain::open_durable(org_names, rng, storage, lsm, validation, Some(snapshot))
    }

    /// Open the disk-backed backend (installing `snapshot` first, if
    /// given) and adopt it: take the (possibly pruned) block store its
    /// recovery built and resume root and clock from the backend's
    /// verified recovery state. The worker pool that served recovery
    /// decoding is reused for commit-time validation.
    fn open_durable<R: RngCore + ?Sized>(
        org_names: &[&str],
        rng: &mut R,
        storage: StorageConfig,
        lsm: LsmConfig,
        validation: ValidationConfig,
        snapshot: Option<&ChainSnapshot>,
    ) -> Result<FabricChain, FabricError> {
        let mut chain = FabricChain::new(org_names, rng);
        let pool = crate::pool::WorkerPool::new(validation.workers);
        let (backend, store) = match snapshot {
            Some(snapshot) => DurableBackend::install_snapshot(storage, lsm, &pool, snapshot)?,
            None => DurableBackend::open_with(storage, lsm, &pool)?,
        };
        chain.validator = BlockValidator::with_pool(validation, pool);
        chain.store = store;
        chain.state_root = backend.state_root();
        chain.clock_us = backend.last_timestamp_us();
        chain.backend = Box::new(backend);
        Ok(chain)
    }

    /// Export a shippable snapshot of the chain at its current height:
    /// full state plus the header anchors a recipient needs to keep
    /// extending the chain ([`FabricChain::from_snapshot`]).
    pub fn export_snapshot(&self) -> ChainSnapshot {
        ChainSnapshot::capture(
            self.height(),
            self.store.tip_hash(),
            self.state_root,
            self.clock_us,
            self.backend.state(),
        )
    }

    /// Turn the submission-time check of endorsement signatures on or off
    /// (off in the large-scale timing experiments; see DESIGN.md).
    /// Signature *production* is unaffected: endorsers always sign.
    pub fn set_check_signatures(&mut self, check: bool) {
        self.check_signatures = check;
    }

    /// Replace the commit-time validation pipeline (worker count,
    /// commit-time endorsement checks). Every configuration commits
    /// identical outcomes; only cost differs.
    pub fn set_validation_config(&mut self, config: ValidationConfig) {
        self.validator = BlockValidator::new(config);
        if let Some(m) = &self.metrics {
            self.validator.set_telemetry(&m.telemetry);
        }
    }

    /// Enroll a user with an organisation.
    pub fn enroll<R: RngCore + ?Sized>(
        &mut self,
        org: &OrgId,
        name: &str,
        rng: &mut R,
    ) -> Result<Identity, FabricError> {
        self.msp.enroll(org, name, rng)
    }

    /// The membership registry.
    pub fn msp(&self) -> &Msp {
        &self.msp
    }

    /// Registered organisation ids.
    pub fn org_ids(&self) -> Vec<OrgId> {
        self.msp.org_ids()
    }

    /// Deploy a chaincode under `name` with an endorsement policy.
    ///
    /// # Panics
    /// Panics if the name is already taken (deployment-time error).
    pub fn deploy(
        &mut self,
        name: impl Into<String>,
        code: Box<dyn Chaincode>,
        policy: EndorsementPolicy,
    ) {
        let name = name.into();
        assert!(
            !self.chaincodes.contains_key(&name),
            "chaincode {name:?} already deployed"
        );
        self.chaincodes.insert(name, Deployed { code, policy });
    }

    /// Define a private data collection.
    pub fn define_collection(&mut self, config: CollectionConfig) {
        self.private.define_collection(config);
    }

    /// Advance the logical clock (the timed network layer drives this).
    pub fn set_time_us(&mut self, us: u64) {
        self.clock_us = self.clock_us.max(us);
    }

    /// Invoke a chaincode: endorse, check the policy, and queue the
    /// transaction for the next block.
    pub fn invoke<R: RngCore + ?Sized>(
        &mut self,
        creator: &Identity,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        rng: &mut R,
    ) -> Result<InvokeResult, FabricError> {
        self.invoke_with_transient(creator, chaincode, function, args, Default::default(), rng)
    }

    /// Invoke with transient data: the map is visible to the chaincode at
    /// simulation time (`TxContext::get_transient`) but never stored in
    /// the transaction — Fabric's mechanism for feeding private values to
    /// chaincode without putting them on-chain.
    pub fn invoke_with_transient<R: RngCore + ?Sized>(
        &mut self,
        creator: &Identity,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        transient: std::collections::BTreeMap<String, Vec<u8>>,
        rng: &mut R,
    ) -> Result<InvokeResult, FabricError> {
        let metrics = self.metrics.clone();
        let _span = metrics.as_ref().map(|m| m.telemetry.span("endorse.tx"));
        let start = metrics.as_ref().map(|_| Instant::now());
        let result = self.endorse_inner(creator, chaincode, function, args, transient, rng);
        if let (Some(m), Some(start)) = (&metrics, start) {
            m.endorse_seconds.observe_duration(start.elapsed());
        }
        result
    }

    /// The endorsement path proper (simulate + sign + queue), wrapped by
    /// [`FabricChain::invoke_with_transient`] for timing.
    fn endorse_inner<R: RngCore + ?Sized>(
        &mut self,
        creator: &Identity,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        transient: std::collections::BTreeMap<String, Vec<u8>>,
        rng: &mut R,
    ) -> Result<InvokeResult, FabricError> {
        self.clock_us += 1;
        let proposal = Proposal::new(creator, chaincode, function, args, rng);
        let tx_id = proposal.tx_id();

        let deployed = self
            .chaincodes
            .get(chaincode)
            .ok_or_else(|| FabricError::UnknownChaincode(chaincode.to_string()))?;

        // Simulate once (chaincode is deterministic; every endorser would
        // compute the same read/write set against the same state).
        let mut ctx = TxContext::with_transient(
            self.backend.state(),
            tx_id,
            creator.cert(),
            self.clock_us,
            transient,
        );
        let response = deployed
            .code
            .invoke(&mut ctx, &proposal.function, &proposal.args)?;
        let (rwset, private_values) = ctx.into_results();

        // Collect endorsements from every policy org's peer. They all sign
        // the same bytes over the one simulated set, hashed once, so they
        // sign together.
        let endorsers: Vec<&Identity> = deployed
            .policy
            .orgs()
            .iter()
            .filter_map(|org| self.endorsers.get(org))
            .collect();
        let responses =
            ProposalResponse::sign_each(&endorsers, tx_id, &rwset, &rwset.digest(), &response);
        let policy = deployed.policy.clone();
        if self.check_signatures {
            check_endorsements(&policy, &responses, &self.msp)?;
        } else {
            let orgs: Vec<OrgId> = responses
                .iter()
                .map(|r| r.endorsement.endorser.org.clone())
                .collect();
            if !policy.is_satisfied(&orgs) {
                return Err(FabricError::EndorsementPolicyFailure(format!(
                    "policy {policy:?} not satisfied"
                )));
            }
        }

        let endorsements = responses.into_iter().map(|r| r.endorsement).collect();
        self.pending.push(Transaction {
            tx_id,
            chaincode: proposal.chaincode,
            function: proposal.function,
            args: proposal.args,
            creator: proposal.creator,
            rwset,
            response: response.clone(),
            endorsements,
        });
        self.pending_private.extend(private_values);
        Ok(InvokeResult { tx_id, response })
    }

    /// Evaluate a chaincode function without committing (Fabric "query").
    /// Writes produced by the simulation are discarded.
    pub fn query(
        &self,
        creator: &Identity,
        chaincode: &str,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        let deployed = self
            .chaincodes
            .get(chaincode)
            .ok_or_else(|| FabricError::UnknownChaincode(chaincode.to_string()))?;
        // Query tx ids never hit the ledger; derive one from the clock.
        let tx_id = TxId(ledgerview_crypto::sha256::sha256(
            &self.clock_us.to_be_bytes(),
        ));
        let mut ctx = TxContext::new(self.backend.state(), tx_id, creator.cert(), self.clock_us);
        deployed.code.invoke(&mut ctx, function, args.as_ref())
    }

    /// Number of transactions waiting for the next block.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Cut a block from all pending transactions, validate, and commit.
    ///
    /// Returns the per-transaction validation outcomes (in order). Cutting
    /// with no pending transactions is a no-op returning an empty vec.
    pub fn cut_block(&mut self) -> Vec<TxValidation> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        self.clock_us += 1;
        let transactions = std::mem::take(&mut self.pending);
        self.commit_block_inner(transactions)
    }

    /// Take every endorsed-but-uncommitted transaction out of the local
    /// queue (for an ordering service to batch and replicate instead of
    /// committing locally via [`FabricChain::cut_block`]).
    pub fn take_pending(&mut self) -> Vec<Transaction> {
        std::mem::take(&mut self.pending)
    }

    /// The endorsed-but-uncommitted transactions, in endorsement order —
    /// the read/write sets a conflict-aware block cutter plans over.
    pub fn pending(&self) -> &[Transaction] {
        &self.pending
    }

    /// Pre-block read-set check of `transactions` against committed
    /// state: for each transaction, the first read key whose committed
    /// version no longer matches the endorsed version (`None` = all
    /// reads fresh). A transaction with a stale read fails MVCC under
    /// *every* intra-block order, so cutters can abort it before it
    /// spends a validation slot. Pure prediction — nothing is applied.
    pub fn precheck(&self, transactions: &[Transaction]) -> Vec<Option<String>> {
        self.validator
            .precheck_reads(transactions, self.backend.state())
    }

    /// [`FabricChain::precheck`] over the local pending queue.
    pub fn precheck_pending(&self) -> Vec<Option<String>> {
        self.precheck(&self.pending)
    }

    /// Commit a block of transactions delivered by an ordering service.
    ///
    /// This is the replicated-peer commit path: the transactions and block
    /// timestamp come from the shared ordered log, not the local pending
    /// queue, so every peer that applies the same ordered batches builds
    /// bit-identical blocks (same header, same state root). Validation and
    /// MVCC rules are exactly those of [`FabricChain::cut_block`].
    pub fn commit_ordered(
        &mut self,
        transactions: Vec<Transaction>,
        timestamp_us: u64,
    ) -> Vec<TxValidation> {
        if transactions.is_empty() {
            return Vec::new();
        }
        self.clock_us = self.clock_us.max(timestamp_us);
        self.commit_block_inner(transactions)
    }

    /// Validate, persist, and append one block built from `transactions`
    /// at the current clock — the shared tail of [`FabricChain::cut_block`]
    /// and [`FabricChain::commit_ordered`].
    fn commit_block_inner(&mut self, transactions: Vec<Transaction>) -> Vec<TxValidation> {
        let metrics = self.metrics.clone();
        let _span = metrics.as_ref().map(|m| m.telemetry.span("cut.block"));
        let tx_count = transactions.len();
        let block_num = self.store.height();
        let chaincodes = &self.chaincodes;
        let validate_start = Instant::now();
        let outcomes = {
            let _s = metrics.as_ref().map(|m| m.telemetry.span("block.validate"));
            self.validator.validate_and_commit(
                &transactions,
                self.backend.state_mut(),
                block_num,
                &self.msp,
                &|cc: &str| chaincodes.get(cc).map(|d| d.policy.clone()),
            )
        };
        let order_start = Instant::now();
        let (block, digest) = {
            let _s = metrics.as_ref().map(|m| m.telemetry.span("block.order"));
            let digest = Block::digest_transactions(&transactions);
            let state_root = next_state_root(&self.state_root, &transactions, &outcomes);
            let prev_hash = self.store.tip_hash();
            let header = BlockHeader {
                number: block_num,
                prev_hash,
                data_hash: digest.root,
                state_root,
                timestamp_us: self.clock_us,
            };
            let validity = outcomes.iter().map(|o| o.is_valid()).collect();
            let block = Block {
                header,
                transactions,
                validity,
            };
            (block, digest)
        };
        let state_root = block.header.state_root;
        // Durability point: the backend persists (the block file) before
        // the in-memory ledger advances, so a crash after this call can
        // always be recovered to include this block.
        let persist_start = Instant::now();
        let at = {
            let _s = metrics.as_ref().map(|m| m.telemetry.span("block.persist"));
            self.backend
                .commit_block(&block)
                .unwrap_or_else(|e| panic!("durable commit of block {block_num} failed: {e}"))
        };
        let commit_start = Instant::now();
        let _commit_span = metrics.as_ref().map(|m| m.telemetry.span("block.commit"));
        // A durable store keeps the header and drops the body: the block
        // file now holds it at `at`.
        self.store
            .append_hashed(block, digest, at)
            .expect("locally built block must link");
        self.state_root = state_root;

        // Disseminate private values to collection members.
        for (collection, key, value) in std::mem::take(&mut self.pending_private) {
            if let Some(config) = self.private.config(&collection) {
                if let Some(org) = config.member_orgs.first().cloned() {
                    self.private
                        .put(&collection, &key, value, &org)
                        .expect("org is a member by construction");
                }
            }
        }
        if let Some(m) = &metrics {
            // Phase boundaries: validate = parallel endorsement checks +
            // serial MVCC; order = block assembly (state root, data hash,
            // header); persist = durable backend; commit = in-memory ledger
            // append + private dissemination.
            m.validate_seconds
                .observe_duration(order_start.duration_since(validate_start));
            m.order_seconds
                .observe_duration(persist_start.duration_since(order_start));
            m.persist_seconds
                .observe_duration(commit_start.duration_since(persist_start));
            m.commit_seconds.observe_duration(commit_start.elapsed());
            m.block_txs.observe(tx_count as u64);
            m.blocks_total.inc();
            m.txs_total.add(tx_count as u64);
        }
        outcomes
    }

    /// Invoke and immediately commit in a single-transaction block.
    pub fn invoke_commit<R: RngCore + ?Sized>(
        &mut self,
        creator: &Identity,
        chaincode: &str,
        function: &str,
        args: Vec<Vec<u8>>,
        rng: &mut R,
    ) -> Result<InvokeResult, FabricError> {
        let result = self.invoke(creator, chaincode, function, args, rng)?;
        let outcomes = self.cut_block();
        match outcomes.last() {
            Some(TxValidation::Valid) => Ok(result),
            Some(TxValidation::MvccConflict { key }) => {
                Err(FabricError::MvccConflict { key: key.clone() })
            }
            Some(TxValidation::EndorsementFailure { reason }) => {
                Err(FabricError::EndorsementPolicyFailure(reason.clone()))
            }
            None => Err(FabricError::Malformed("no transaction committed".into())),
        }
    }

    /// The committed state database (a [`crate::StateDb`] or an
    /// [`LsmState`] — both behind the [`VersionedState`] trait).
    pub fn state(&self) -> &dyn VersionedState {
        self.backend.state()
    }

    /// The persistence backend.
    pub fn backend(&self) -> &dyn StateBackend {
        self.backend.as_ref()
    }

    /// The LSM state engine of a durable chain (statistics, compaction
    /// trace); `None` for an in-memory chain ([`FabricChain::new`]).
    pub fn lsm_backend(&self) -> Option<&LsmState> {
        self.backend.lsm_state()
    }

    /// Whether commits survive a process crash (true for chains created
    /// with [`FabricChain::with_storage`]).
    pub fn is_durable(&self) -> bool {
        self.backend.is_durable()
    }

    /// Force everything committed so far to stable storage (no-op for the
    /// in-memory backend).
    pub fn flush(&mut self) -> Result<(), FabricError> {
        self.backend.flush()
    }

    /// The block store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The private data store.
    pub fn private(&self) -> &PrivateStore {
        &self.private
    }

    /// Chain height.
    pub fn height(&self) -> u64 {
        self.store.height()
    }

    /// Rolling state root after the last committed block.
    pub fn state_root(&self) -> Digest {
        self.state_root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerview_crypto::rng::seeded;

    /// A toy chaincode: `put key value`, `get key`, `fail`.
    struct KvChaincode;

    impl Chaincode for KvChaincode {
        fn invoke(
            &self,
            ctx: &mut TxContext<'_>,
            function: &str,
            args: &[Vec<u8>],
        ) -> Result<Vec<u8>, FabricError> {
            match function {
                "put" => {
                    let key = String::from_utf8(args[0].clone())
                        .map_err(|_| FabricError::Malformed("key".into()))?;
                    ctx.put_state(key, args[1].clone());
                    Ok(vec![])
                }
                "get" => {
                    let key = String::from_utf8(args[0].clone())
                        .map_err(|_| FabricError::Malformed("key".into()))?;
                    Ok(ctx.get_state(&key).unwrap_or_default())
                }
                "rmw" => {
                    // Read-modify-write: append a byte to the value.
                    let key = String::from_utf8(args[0].clone())
                        .map_err(|_| FabricError::Malformed("key".into()))?;
                    let mut v = ctx.get_state(&key).unwrap_or_default();
                    v.push(b'!');
                    ctx.put_state(key, v.clone());
                    Ok(v)
                }
                "fail" => Err(FabricError::ChaincodeError("requested failure".into())),
                other => Err(FabricError::ChaincodeError(format!(
                    "unknown function {other}"
                ))),
            }
        }
    }

    fn chain_with_kv() -> (FabricChain, Identity) {
        let mut rng = seeded(1);
        let mut chain = FabricChain::new(&["Org1", "Org2"], &mut rng);
        let policy = EndorsementPolicy::AllOf(chain.org_ids());
        chain.deploy("kv", Box::new(KvChaincode), policy);
        let alice = chain
            .enroll(&OrgId::new("Org1"), "alice", &mut rng)
            .unwrap();
        (chain, alice)
    }

    #[test]
    fn invoke_commit_query_round_trip() {
        let (mut chain, alice) = chain_with_kv();
        let mut rng = seeded(2);
        chain
            .invoke_commit(
                &alice,
                "kv",
                "put",
                vec![b"k".to_vec(), b"v".to_vec()],
                &mut rng,
            )
            .unwrap();
        assert_eq!(chain.height(), 1);
        let got = chain.query(&alice, "kv", "get", &[b"k".to_vec()]).unwrap();
        assert_eq!(got, b"v");
        chain.store().verify_chain().unwrap();
    }

    #[test]
    fn query_does_not_commit() {
        let (mut chain, alice) = chain_with_kv();
        let mut rng = seeded(3);
        chain
            .invoke_commit(
                &alice,
                "kv",
                "put",
                vec![b"k".to_vec(), b"v".to_vec()],
                &mut rng,
            )
            .unwrap();
        // rmw as query: returns new value but does not write it.
        let out = chain.query(&alice, "kv", "rmw", &[b"k".to_vec()]).unwrap();
        assert_eq!(out, b"v!");
        assert_eq!(
            chain.query(&alice, "kv", "get", &[b"k".to_vec()]).unwrap(),
            b"v"
        );
    }

    #[test]
    fn chaincode_error_propagates_and_nothing_queued() {
        let (mut chain, alice) = chain_with_kv();
        let mut rng = seeded(4);
        let err = chain.invoke(&alice, "kv", "fail", vec![], &mut rng);
        assert!(matches!(err, Err(FabricError::ChaincodeError(_))));
        assert_eq!(chain.pending_count(), 0);
        assert_eq!(chain.height(), 0);
    }

    #[test]
    fn unknown_chaincode_rejected() {
        let (mut chain, alice) = chain_with_kv();
        let mut rng = seeded(5);
        assert!(matches!(
            chain.invoke(&alice, "nope", "f", vec![], &mut rng),
            Err(FabricError::UnknownChaincode(_))
        ));
    }

    #[test]
    fn batched_block_with_mvcc_conflict() {
        let (mut chain, alice) = chain_with_kv();
        let mut rng = seeded(6);
        chain
            .invoke_commit(
                &alice,
                "kv",
                "put",
                vec![b"k".to_vec(), b"v".to_vec()],
                &mut rng,
            )
            .unwrap();
        // Two read-modify-writes of the same key in one block: the second
        // must be invalidated by MVCC.
        chain
            .invoke(&alice, "kv", "rmw", vec![b"k".to_vec()], &mut rng)
            .unwrap();
        chain
            .invoke(&alice, "kv", "rmw", vec![b"k".to_vec()], &mut rng)
            .unwrap();
        let outcomes = chain.cut_block();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes[0].is_valid());
        assert!(!outcomes[1].is_valid());
        assert_eq!(
            chain.query(&alice, "kv", "get", &[b"k".to_vec()]).unwrap(),
            b"v!"
        );
        assert_eq!(chain.store().committed_tx_count(), 2); // put + first rmw
    }

    #[test]
    fn cut_block_empty_is_noop() {
        let (mut chain, _) = chain_with_kv();
        assert!(chain.cut_block().is_empty());
        assert_eq!(chain.height(), 0);
    }

    #[test]
    fn state_root_advances_per_block() {
        let (mut chain, alice) = chain_with_kv();
        let mut rng = seeded(7);
        let r0 = chain.state_root();
        chain
            .invoke_commit(
                &alice,
                "kv",
                "put",
                vec![b"a".to_vec(), b"1".to_vec()],
                &mut rng,
            )
            .unwrap();
        let r1 = chain.state_root();
        assert_ne!(r0, r1);
        assert_eq!(chain.store().tip().unwrap().header.state_root, r1);
    }

    #[test]
    fn endorsements_present_and_verifiable() {
        let (mut chain, alice) = chain_with_kv();
        let mut rng = seeded(8);
        let res = chain
            .invoke_commit(
                &alice,
                "kv",
                "put",
                vec![b"a".to_vec(), b"1".to_vec()],
                &mut rng,
            )
            .unwrap();
        let (tx, valid) = chain.store().find_tx(&res.tx_id).unwrap();
        assert!(valid);
        assert_eq!(tx.endorsements.len(), 2); // Org1 + Org2 peers
        for e in &tx.endorsements {
            chain.msp().verify_cert(&e.endorser).unwrap();
        }
    }

    #[test]
    fn signatures_can_be_disabled_for_timing_runs() {
        let mut rng = seeded(9);
        let mut chain = FabricChain::new(&["Org1"], &mut rng);
        chain.set_check_signatures(false);
        chain.deploy(
            "kv",
            Box::new(KvChaincode),
            EndorsementPolicy::AnyOf(chain.org_ids()),
        );
        let alice = chain
            .enroll(&OrgId::new("Org1"), "alice", &mut rng)
            .unwrap();
        chain
            .invoke_commit(
                &alice,
                "kv",
                "put",
                vec![b"k".to_vec(), b"v".to_vec()],
                &mut rng,
            )
            .unwrap();
        assert_eq!(chain.height(), 1);
    }
}
