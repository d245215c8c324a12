//! The view manager run by view owners (§5.3).
//!
//! A [`ViewManager`] intercepts client requests, conceals secret parts
//! (`ProcessSecret`), stores transactions through the invoke contract,
//! determines view inclusion (`InsertIntoView`), regulates access
//! (grant / revoke with `K_V` rotation), answers queries (`QueryView`) and
//! maintains the on-chain structures (ViewStorage for irrevocable views,
//! TxListContract batches).
//!
//! The two concealment schemes of the paper are the two instantiations
//! [`EncryptionBasedManager`] (§4.1 EI / §4.2 ER) and [`HashBasedManager`]
//! (§4.3 HI / §4.4 HR); the access mode is chosen per view at
//! `CreateView` time.

use std::collections::BTreeMap;

use fabric_sim::identity::Identity;
use fabric_sim::ledger::TxId;
use fabric_sim::FabricChain;
use ledgerview_crypto::aead::{self, AeadKey};
use ledgerview_crypto::keys::PublicKey;
use ledgerview_crypto::SymmetricKey;
use ledgerview_telemetry::{Counter, HistogramHandle, Telemetry};
use rand::RngCore;

use crate::contracts::{
    self, AccessEntry, TxListUpdate, ACCESS_CC, INVOKE_CC, TX_LIST_CC, VIEW_STORAGE_CC,
};
use crate::error::ViewError;
use crate::predicate::{ViewDefinition, ViewPredicate};
use crate::txmodel::{
    conceal_by_encryption, conceal_by_hash, ClientTransaction, Concealed, StoredTransaction,
};

/// Whether access permissions to a view can later be revoked (§3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessMode {
    /// Access can be revoked by rotating `K_V` (§4.2 / §4.4).
    Revocable,
    /// Access is permanent; view data lives in the ViewStorage contract
    /// under blockchain integrity (§4.1 / §4.3).
    Irrevocable,
}

impl AccessMode {
    /// The mode's byte in query responses and exported owner state.
    pub fn tag(self) -> u8 {
        match self {
            AccessMode::Revocable => 0,
            AccessMode::Irrevocable => 1,
        }
    }

    /// Inverse of [`AccessMode::tag`].
    pub fn from_tag(tag: u8) -> Result<AccessMode, ViewError> {
        match tag {
            0 => Ok(AccessMode::Revocable),
            1 => Ok(AccessMode::Irrevocable),
            _ => Err(ViewError::Malformed("bad mode tag".into())),
        }
    }
}

/// Which concealment scheme a manager uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchemeKind {
    /// Secrets stored encrypted on-chain; views carry transaction keys.
    Encryption,
    /// Only salted hashes on-chain; views carry the secret values.
    Hash,
}

impl SchemeKind {
    /// The scheme's byte in query responses and exported owner state.
    pub fn tag(self) -> u8 {
        match self {
            SchemeKind::Encryption => 0,
            SchemeKind::Hash => 1,
        }
    }

    /// Inverse of [`SchemeKind::tag`].
    pub fn from_tag(tag: u8) -> Result<SchemeKind, ViewError> {
        match tag {
            0 => Ok(SchemeKind::Encryption),
            1 => Ok(SchemeKind::Hash),
            _ => Err(ViewError::Malformed("bad scheme tag".into())),
        }
    }
}

/// A concealment scheme: how `ProcessSecret` conceals, what the owner
/// retains, and what a view entry carries.
pub trait SecretScheme {
    /// What the view owner keeps per transaction (`ViewData` values):
    /// the transaction key `K_i` (encryption) or the secret itself (hash).
    type Record: Clone;

    /// Scheme discriminator carried in query responses.
    fn kind() -> SchemeKind;

    /// Conceal a secret for on-chain storage (`ProcessSecret`).
    fn conceal<R: RngCore + ?Sized>(secret: &[u8], rng: &mut R) -> (Concealed, Self::Record);

    /// The bytes a view entry carries for this transaction: `K_i` for EI/ER
    /// (§4.1), the secret value for HI/HR (§4.3).
    fn entry_payload(record: &Self::Record) -> Vec<u8>;

    /// Reconstruct a record from its payload bytes (owner delegation,
    /// §4.2: "a view can have many view owners").
    fn record_from_payload(payload: Vec<u8>) -> Result<Self::Record, ViewError>;
}

/// Encryption-based concealment (EI / ER).
pub struct EncryptionScheme;

impl SecretScheme for EncryptionScheme {
    type Record = SymmetricKey;

    fn kind() -> SchemeKind {
        SchemeKind::Encryption
    }

    fn conceal<R: RngCore + ?Sized>(secret: &[u8], rng: &mut R) -> (Concealed, SymmetricKey) {
        conceal_by_encryption(secret, rng)
    }

    fn entry_payload(record: &SymmetricKey) -> Vec<u8> {
        record.as_bytes().to_vec()
    }

    fn record_from_payload(payload: Vec<u8>) -> Result<SymmetricKey, ViewError> {
        let arr: [u8; 32] = payload
            .try_into()
            .map_err(|_| ViewError::Malformed("transaction key size".into()))?;
        Ok(SymmetricKey::from_bytes(arr))
    }
}

/// Hash-based concealment (HI / HR).
pub struct HashScheme;

impl SecretScheme for HashScheme {
    type Record = Vec<u8>;

    fn kind() -> SchemeKind {
        SchemeKind::Hash
    }

    fn conceal<R: RngCore + ?Sized>(secret: &[u8], rng: &mut R) -> (Concealed, Vec<u8>) {
        (conceal_by_hash(secret, rng), secret.to_vec())
    }

    fn entry_payload(record: &Vec<u8>) -> Vec<u8> {
        record.clone()
    }

    fn record_from_payload(payload: Vec<u8>) -> Result<Vec<u8>, ViewError> {
        Ok(payload)
    }
}

/// Per-view owner-side state (the paper's `ViewBuffer`: `ViewKeys` +
/// `ViewData`).
struct ViewInfo<S: SecretScheme> {
    mode: AccessMode,
    definition: ViewDefinition,
    /// Current view key `K_V`.
    key: SymmetricKey,
    /// Users (or roles) currently granted access.
    members: Vec<PublicKey>,
    /// tid → record (`ViewData`).
    data: BTreeMap<TxId, S::Record>,
    /// Next ViewStorage entry sequence number.
    merge_seq: u64,
    /// Irrevocable entries not yet merged on-chain (TxListContract
    /// batching defers them to the next flush).
    pending_merge: Vec<(String, Vec<u8>)>,
}

/// A query answer: the response payload sealed to the requester's public
/// key. Decode with [`crate::reader::ViewReader`].
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// `enc(response, PubK_requester)`.
    pub sealed: Vec<u8>,
}

/// The decoded (but still `K_V`-protected) form of a response; produced by
/// the manager, consumed by the reader.
pub(crate) fn encode_response(
    kind: SchemeKind,
    mode: AccessMode,
    entries: &[(TxId, Vec<u8>)],
) -> Vec<u8> {
    let mut w = fabric_sim::wire::Writer::new();
    w.u8(kind.tag())
        .u8(mode.tag())
        .list(entries, |w, (tid, enc)| {
            w.array(tid.0.as_bytes()).bytes(enc);
        });
    w.into_bytes()
}

/// Registry handles for one manager, resolved at attach time. The
/// `scheme` label carries the concealment scheme, so one registry holds
/// both EI/ER and HI/HR managers side by side (the Fig 5/6 comparison).
#[derive(Clone)]
struct ViewMetrics {
    telemetry: Telemetry,
    create_seconds: HistogramHandle,
    invoke_seconds: HistogramHandle,
    query_seconds: HistogramHandle,
    conceal_total: Counter,
    flush_txs: Counter,
}

impl ViewMetrics {
    fn new(telemetry: &Telemetry, scheme: SchemeKind) -> ViewMetrics {
        let scheme = match scheme {
            SchemeKind::Encryption => "encryption",
            SchemeKind::Hash => "hash",
        };
        let r = telemetry.registry();
        let labels = [("scheme", scheme)];
        ViewMetrics {
            create_seconds: r.histogram("lv_views_create_seconds", &labels),
            invoke_seconds: r.histogram("lv_views_invoke_seconds", &labels),
            query_seconds: r.histogram("lv_views_query_seconds", &labels),
            conceal_total: r.counter("lv_views_conceal_total", &labels),
            flush_txs: r.counter("lv_views_flush_txs_total", &labels),
            telemetry: telemetry.clone(),
        }
    }
}

/// The view manager of one view owner.
pub struct ViewManager<S: SecretScheme> {
    owner: Identity,
    views: BTreeMap<String, ViewInfo<S>>,
    /// Every record this owner has processed, keyed by tid — the source
    /// for retroactive view insertions (granting access to historical
    /// transactions, as when a supply-chain node receives an item).
    records: BTreeMap<TxId, S::Record>,
    /// Whether the TxListContract maintains per-view id lists with batched
    /// flushes (§5.4). When enabled, irrevocable merges are batched too.
    use_txlist: bool,
    txlist_pending: Vec<TxListUpdate>,
    /// Virtual flush interval in microseconds (the paper suggests 30 s).
    flush_interval_us: u64,
    last_flush_us: u64,
    metrics: Option<ViewMetrics>,
}

/// The encryption-based manager of §5.3.1 (methods EI and ER).
pub type EncryptionBasedManager = ViewManager<EncryptionScheme>;
/// The hash-based manager of §5.3.2 (methods HI and HR).
pub type HashBasedManager = ViewManager<HashScheme>;

impl<S: SecretScheme> ViewManager<S> {
    /// Create a manager for `owner`. `use_txlist` enables the
    /// TxListContract (batched id lists, batched merges).
    pub fn new(owner: Identity, use_txlist: bool) -> ViewManager<S> {
        ViewManager {
            owner,
            views: BTreeMap::new(),
            records: BTreeMap::new(),
            use_txlist,
            txlist_pending: Vec::new(),
            flush_interval_us: 30_000_000,
            last_flush_us: 0,
            metrics: None,
        }
    }

    /// Attach telemetry: view create/invoke/query durations and conceal
    /// counters, all labeled with this manager's concealment scheme.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.metrics = Some(ViewMetrics::new(telemetry, S::kind()));
    }

    /// Change the TxListContract flush interval (virtual microseconds).
    pub fn set_flush_interval_us(&mut self, us: u64) {
        self.flush_interval_us = us;
    }

    /// The owner identity this manager acts as.
    pub fn owner(&self) -> &Identity {
        &self.owner
    }

    /// Names of views managed here.
    pub fn view_names(&self) -> Vec<&str> {
        self.views.keys().map(|s| s.as_str()).collect()
    }

    /// The current `K_V` of a view (owner-side; tests and delegation).
    pub fn view_key(&self, view: &str) -> Result<&SymmetricKey, ViewError> {
        Ok(&self.view(view)?.key)
    }

    /// Current members of a view.
    pub fn members(&self, view: &str) -> Result<&[PublicKey], ViewError> {
        Ok(&self.view(view)?.members)
    }

    /// Number of transactions currently in a view.
    pub fn view_len(&self, view: &str) -> Result<usize, ViewError> {
        Ok(self.view(view)?.data.len())
    }

    /// Transaction ids of a view (`V_ids`, §4.2), in tid order.
    pub fn view_tids(&self, view: &str) -> Result<Vec<TxId>, ViewError> {
        Ok(self.view(view)?.data.keys().copied().collect())
    }

    fn view(&self, name: &str) -> Result<&ViewInfo<S>, ViewError> {
        self.views
            .get(name)
            .ok_or_else(|| ViewError::UnknownView(name.to_string()))
    }

    fn view_mut(&mut self, name: &str) -> Result<&mut ViewInfo<S>, ViewError> {
        self.views
            .get_mut(name)
            .ok_or_else(|| ViewError::UnknownView(name.to_string()))
    }

    /// `CreateView` with a per-transaction predicate. See
    /// [`ViewManager::create_view_with_definition`].
    pub fn create_view<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        name: impl Into<String>,
        predicate: ViewPredicate,
        mode: AccessMode,
        rng: &mut R,
    ) -> Result<(), ViewError> {
        self.create_view_with_definition(chain, name, ViewDefinition::PerTx(predicate), mode, rng)
    }

    /// `CreateView`: register a view with a definition and an access mode.
    ///
    /// Registers the definition with the TxListContract (public view
    /// registration, the basis of verifiable soundness) and, for
    /// irrevocable views, initialises the ViewStorage contract. Recursive
    /// definitions are not matched incrementally — call
    /// [`ViewManager::refresh_view`] to (re)compute their membership over
    /// the ledger.
    pub fn create_view_with_definition<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        name: impl Into<String>,
        definition: ViewDefinition,
        mode: AccessMode,
        rng: &mut R,
    ) -> Result<(), ViewError> {
        let metrics = self.metrics.clone();
        let _span = metrics.as_ref().map(|m| m.telemetry.span("view.create"));
        let start = std::time::Instant::now();
        let result = self.create_view_inner(chain, name.into(), definition, mode, rng);
        if let Some(m) = &metrics {
            m.create_seconds.observe_duration(start.elapsed());
        }
        result
    }

    fn create_view_inner<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        name: String,
        definition: ViewDefinition,
        mode: AccessMode,
        rng: &mut R,
    ) -> Result<(), ViewError> {
        if self.views.contains_key(&name) {
            return Err(ViewError::DuplicateView(name));
        }
        chain.invoke_commit(
            &self.owner,
            TX_LIST_CC,
            "create_view",
            vec![name.as_bytes().to_vec(), definition.to_bytes()],
            rng,
        )?;
        if mode == AccessMode::Irrevocable {
            chain.invoke_commit(
                &self.owner,
                VIEW_STORAGE_CC,
                "init",
                vec![name.as_bytes().to_vec()],
                rng,
            )?;
        }
        self.views.insert(
            name,
            ViewInfo {
                mode,
                definition,
                key: SymmetricKey::generate(rng),
                members: Vec::new(),
                data: BTreeMap::new(),
                merge_seq: 0,
                pending_merge: Vec::new(),
            },
        );
        Ok(())
    }

    /// `InvokeWithSecret`: conceal the client transaction, store it
    /// on-chain, and insert it into every matching view.
    ///
    /// Returns the transaction id. The number of extra on-chain
    /// transactions depends on the modes involved: revocable views add
    /// none; irrevocable views without the TxListContract add one `merge`
    /// per view; with the TxListContract everything is batched into the
    /// periodic flush (Fig 6).
    pub fn invoke_with_secret<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        client: &Identity,
        tx: &ClientTransaction,
        rng: &mut R,
    ) -> Result<TxId, ViewError> {
        let metrics = self.metrics.clone();
        let _span = metrics.as_ref().map(|m| m.telemetry.span("view.invoke"));
        let start = std::time::Instant::now();
        let result = self.invoke_with_secret_inner(chain, client, tx, rng);
        if let Some(m) = &metrics {
            m.invoke_seconds.observe_duration(start.elapsed());
            m.conceal_total.inc();
        }
        result
    }

    fn invoke_with_secret_inner<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        client: &Identity,
        tx: &ClientTransaction,
        rng: &mut R,
    ) -> Result<TxId, ViewError> {
        // ProcessSecret (scheme-specific).
        let (concealed, record) = S::conceal(&tx.secret, rng);
        let stored = StoredTransaction {
            non_secret: tx.non_secret.clone(),
            concealed,
        };
        let result = chain.invoke_commit(
            client,
            INVOKE_CC,
            "invoke_with_secret",
            vec![stored.to_bytes()],
            rng,
        )?;
        let tid = result.tx_id;
        let now_us = chain
            .store()
            .tip()
            .map(|b| b.header.timestamp_us)
            .unwrap_or(0);
        self.records.insert(tid, record.clone());

        // InsertIntoView for every view whose definition can be decided
        // per transaction; recursive views are refreshed explicitly.
        let matching: Vec<String> = self
            .views
            .iter()
            .filter(|(_, v)| v.definition.matches_streaming(&tx.non_secret) == Some(true))
            .map(|(n, _)| n.clone())
            .collect();
        let mut immediate_merges: Vec<contracts::MergeBatch> = Vec::new();
        for name in matching {
            if let Some(entry) = self.insert_into_view(&name, tid, record.clone(), now_us, rng)? {
                immediate_merges.push((name, vec![entry]));
            }
        }
        // All views' merge entries travel in ONE view-storage transaction:
        // an irrevocable request costs exactly one extra on-chain
        // transaction, however many views it joins (§6.3).
        self.submit_merges(chain, immediate_merges, rng)?;
        Ok(tid)
    }

    fn submit_merges<R: RngCore + ?Sized>(
        &self,
        chain: &mut FabricChain,
        merges: Vec<contracts::MergeBatch>,
        rng: &mut R,
    ) -> Result<(), ViewError> {
        if merges.is_empty() {
            return Ok(());
        }
        chain.invoke_commit(
            &self.owner,
            VIEW_STORAGE_CC,
            "merge_multi",
            vec![contracts::encode_multi_merge(&merges)],
            rng,
        )?;
        Ok(())
    }

    /// `InsertIntoView` (§5.3): record the transaction in the view buffer
    /// and stage the on-chain maintenance. For irrevocable views without
    /// the TxListContract, returns the merge entry the caller must submit
    /// (batched per invocation into one view-storage transaction).
    fn insert_into_view<R: RngCore + ?Sized>(
        &mut self,
        name: &str,
        tid: TxId,
        record: S::Record,
        now_us: u64,
        rng: &mut R,
    ) -> Result<Option<(String, Vec<u8>)>, ViewError> {
        let use_txlist = self.use_txlist;
        let info = self.view_mut(name)?;
        info.data.insert(tid, record);

        let mut immediate = None;
        if info.mode == AccessMode::Irrevocable {
            // Entry: enc((tid, payload), K_V) under the view key.
            let payload = S::entry_payload(&info.data[&tid]);
            let entry_value =
                aead::seal_sym_aad(info.key.as_bytes(), rng, &payload, tid.0.as_bytes());
            let entry_key = format!("{:016x}", info.merge_seq);
            info.merge_seq += 1;
            let mut entry_bytes = fabric_sim::wire::Writer::new();
            entry_bytes.array(tid.0.as_bytes()).bytes(&entry_value);
            let entry = (entry_key, entry_bytes.into_bytes());
            if use_txlist {
                info.pending_merge.push(entry);
            } else {
                immediate = Some(entry);
            }
        }

        if use_txlist {
            self.txlist_pending.push(TxListUpdate {
                view: name.to_string(),
                tid,
                timestamp_us: now_us,
            });
        }
        Ok(immediate)
    }

    /// Retroactively add an already-processed transaction to a view —
    /// granting access to *historical* transactions, e.g. when a
    /// supply-chain node receives an item and must see its prior transfers
    /// (§6.2: "the view of node n₃ is updated by adding the historical
    /// transfers of item i to it"). Idempotent for transactions already in
    /// the view.
    pub fn add_to_view<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        view: &str,
        tid: TxId,
        rng: &mut R,
    ) -> Result<(), ViewError> {
        if self.view(view)?.data.contains_key(&tid) {
            return Ok(());
        }
        let record = self
            .records
            .get(&tid)
            .cloned()
            .ok_or_else(|| ViewError::Malformed(format!("no record for tx {tid}")))?;
        let now_us = chain
            .store()
            .tip()
            .map(|b| b.header.timestamp_us)
            .unwrap_or(0);
        if let Some(entry) = self.insert_into_view(view, tid, record, now_us, rng)? {
            self.submit_merges(chain, vec![(view.to_string(), vec![entry])], rng)?;
        }
        Ok(())
    }

    /// Pending (unflushed) TxListContract updates.
    pub fn txlist_pending_len(&self) -> usize {
        self.txlist_pending.len()
    }

    /// Flush batched TxListContract updates and deferred irrevocable
    /// merges if the flush interval elapsed (call with the current virtual
    /// time). Returns the number of on-chain transactions issued.
    pub fn maybe_flush<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        now_us: u64,
        rng: &mut R,
    ) -> Result<u32, ViewError> {
        if now_us.saturating_sub(self.last_flush_us) < self.flush_interval_us {
            return Ok(0);
        }
        self.last_flush_us = now_us;
        self.flush(chain, rng)
    }

    /// Force a flush of all batched updates.
    pub fn flush<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        rng: &mut R,
    ) -> Result<u32, ViewError> {
        if !self.use_txlist {
            return Ok(0);
        }
        let mut txs = 0u32;
        if !self.txlist_pending.is_empty() {
            let batch = std::mem::take(&mut self.txlist_pending);
            chain.invoke_commit(
                &self.owner,
                TX_LIST_CC,
                "add_batch",
                vec![contracts::encode_txlist_batch(&batch)],
                rng,
            )?;
            txs += 1;
        }
        let mut merges: Vec<contracts::MergeBatch> = Vec::new();
        for (name, info) in self.views.iter_mut() {
            if !info.pending_merge.is_empty() {
                merges.push((name.clone(), std::mem::take(&mut info.pending_merge)));
            }
        }
        if !merges.is_empty() {
            self.submit_merges(chain, merges, rng)?;
            txs += 1;
        }
        if let Some(m) = &self.metrics {
            m.flush_txs.add(txs as u64);
        }
        Ok(txs)
    }

    /// Grant `user` access to `view`: seal the current `K_V` to the user's
    /// public key and publish a new `V_access` generation on-chain.
    pub fn grant_access<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        view: &str,
        user: PublicKey,
        rng: &mut R,
    ) -> Result<(), ViewError> {
        let owner = self.owner.clone();
        let info = self.view_mut(view)?;
        if !info.members.contains(&user) {
            info.members.push(user);
        }
        let payload = Self::access_payload(info, rng);
        chain.invoke_commit(
            &owner,
            ACCESS_CC,
            "publish_access",
            vec![view.as_bytes().to_vec(), payload],
            rng,
        )?;
        Ok(())
    }

    /// Revoke `user`'s access to a *revocable* view: rotate `K_V` and
    /// re-disseminate the new key to the remaining members (§4.2/§4.4).
    /// The revoked user keeps anything already downloaded but cannot
    /// decrypt future responses.
    pub fn revoke_access<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        view: &str,
        user: &PublicKey,
        rng: &mut R,
    ) -> Result<(), ViewError> {
        let owner = self.owner.clone();
        let info = self.view_mut(view)?;
        if info.mode == AccessMode::Irrevocable {
            return Err(ViewError::ModeMismatch(format!(
                "view {view:?} is irrevocable"
            )));
        }
        let before = info.members.len();
        info.members.retain(|m| m != user);
        if info.members.len() == before {
            return Err(ViewError::AccessDenied(format!(
                "user is not a member of {view:?}"
            )));
        }
        // Rotate K_V and publish the new generation.
        info.key = SymmetricKey::generate(rng);
        let payload = Self::access_payload(info, rng);
        chain.invoke_commit(
            &owner,
            ACCESS_CC,
            "publish_access",
            vec![view.as_bytes().to_vec(), payload],
            rng,
        )?;
        Ok(())
    }

    fn access_payload<R: RngCore + ?Sized>(info: &ViewInfo<S>, rng: &mut R) -> Vec<u8> {
        let entries: Vec<AccessEntry> = info
            .members
            .iter()
            .map(|m| AccessEntry {
                recipient: *m,
                sealed_key: ledgerview_crypto::seal(m, rng, info.key.as_bytes()),
            })
            .collect();
        contracts::encode_access_payload(&entries)
    }

    /// `QueryView`: answer a reader's query.
    ///
    /// The response contains, per transaction, `enc(payload, K_V)` bound to
    /// the tid — transaction keys for the encryption scheme (§4.2), secret
    /// values for the hash scheme (§4.4) — and the whole response is sealed
    /// to the requester's public key. `tids = None` returns the full view;
    /// `Some(..)` only the requested transactions (a revocable-view request
    /// never reveals keys that were not requested).
    pub fn query_view<R: RngCore + ?Sized>(
        &self,
        view: &str,
        requester: &PublicKey,
        tids: Option<&[TxId]>,
        rng: &mut R,
    ) -> Result<QueryResponse, ViewError> {
        let _span = self
            .metrics
            .as_ref()
            .map(|m| m.telemetry.span("view.query"));
        let start = std::time::Instant::now();
        let result = self.query_view_inner(view, requester, tids, rng);
        if let Some(m) = &self.metrics {
            m.query_seconds.observe_duration(start.elapsed());
        }
        result
    }

    fn query_view_inner<R: RngCore + ?Sized>(
        &self,
        view: &str,
        requester: &PublicKey,
        tids: Option<&[TxId]>,
        rng: &mut R,
    ) -> Result<QueryResponse, ViewError> {
        let info = self.view(view)?;
        if !info.members.contains(requester) {
            return Err(ViewError::AccessDenied(format!(
                "requester has no access to {view:?}"
            )));
        }
        let selected: Vec<(TxId, &S::Record)> = match tids {
            Some(ids) => ids
                .iter()
                .filter_map(|t| info.data.get(t).map(|r| (*t, r)))
                .collect(),
            None => info.data.iter().map(|(t, r)| (*t, r)).collect(),
        };
        // Every entry is sealed under the one K_V: derive it once.
        let kv = AeadKey::new(info.key.as_bytes());
        let entries: Vec<(TxId, Vec<u8>)> = selected
            .into_iter()
            .map(|(tid, record)| {
                let payload = S::entry_payload(record);
                (tid, kv.seal(rng, &payload, tid.0.as_bytes()))
            })
            .collect();
        let response = encode_response(S::kind(), info.mode, &entries);
        Ok(QueryResponse {
            sealed: ledgerview_crypto::seal(requester, rng, &response),
        })
    }

    /// The view's definition.
    pub fn definition(&self, view: &str) -> Result<&ViewDefinition, ViewError> {
        Ok(&self.view(view)?.definition)
    }

    /// Export the full owner-side state of a view, for delegation to a
    /// co-owner (§4.2). Seal it with [`crate::delegation::export_view`].
    pub fn export_owner_state(
        &self,
        view: &str,
    ) -> Result<crate::delegation::OwnerState, ViewError> {
        let info = self.view(view)?;
        Ok(crate::delegation::OwnerState {
            view: view.to_string(),
            scheme: S::kind(),
            mode: info.mode,
            definition: info.definition.clone(),
            key: info.key,
            members: info.members.clone(),
            records: info
                .data
                .iter()
                .map(|(t, r)| (*t, S::entry_payload(r)))
                .collect(),
            merge_seq: info.merge_seq,
        })
    }

    /// Install an exported owner state, becoming a co-owner of the view.
    pub fn import_owner_state(
        &mut self,
        state: crate::delegation::OwnerState,
    ) -> Result<(), ViewError> {
        if self.views.contains_key(&state.view) {
            return Err(ViewError::DuplicateView(state.view));
        }
        let mut data = BTreeMap::new();
        for (tid, payload) in state.records {
            let record = S::record_from_payload(payload)?;
            self.records.insert(tid, record.clone());
            data.insert(tid, record);
        }
        self.views.insert(
            state.view,
            ViewInfo {
                mode: state.mode,
                definition: state.definition,
                key: state.key,
                members: state.members,
                data,
                merge_seq: state.merge_seq,
                pending_merge: Vec::new(),
            },
        );
        Ok(())
    }

    /// Recompute a recursive view's membership over the current ledger and
    /// insert any missing transactions (per-tx views are already complete;
    /// refreshing them is a no-op). Returns the number of added
    /// transactions.
    ///
    /// This is how "the view of node n₃ is updated by adding the
    /// historical transfers" (§6.2) happens for datalog views.
    pub fn refresh_view<R: RngCore + ?Sized>(
        &mut self,
        chain: &mut FabricChain,
        view: &str,
        rng: &mut R,
    ) -> Result<usize, ViewError> {
        let ViewDefinition::Recursive { program, query } = self.view(view)?.definition.clone()
        else {
            return Ok(0);
        };
        let edb = crate::verify::ledger_edb(chain)?;
        let derived = program
            .evaluate(&edb)
            .map_err(|e| ViewError::Malformed(format!("datalog evaluation failed: {e}")))?;
        let mut to_add = Vec::new();
        for tuple in derived.tuples(&query) {
            let Some(ledgerview_datalog::Value::Str(tid_hex)) = tuple.first() else {
                continue;
            };
            let Some(digest) = ledgerview_crypto::sha256::Digest::from_hex(tid_hex) else {
                continue;
            };
            let tid = TxId(digest);
            if !self.view(view)?.data.contains_key(&tid) && self.records.contains_key(&tid) {
                to_add.push(tid);
            }
        }
        let added = to_add.len();
        for tid in to_add {
            self.add_to_view(chain, view, tid, rng)?;
        }
        Ok(added)
    }

    /// The view's access mode.
    pub fn mode(&self, view: &str) -> Result<AccessMode, ViewError> {
        Ok(self.view(view)?.mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::test_chain;
    use crate::txmodel::AttrValue;
    use ledgerview_crypto::rng::seeded;

    fn shipment(to: &str, secret: &[u8]) -> ClientTransaction {
        ClientTransaction::new(
            vec![("from", AttrValue::str("M1")), ("to", AttrValue::str(to))],
            secret.to_vec(),
        )
    }

    #[test]
    fn create_view_registers_on_chain() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(1);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        let pred = ViewPredicate::attr_eq("to", "W1");
        mgr.create_view(
            &mut chain,
            "V_W1",
            pred.clone(),
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            contracts::read_view_predicate(chain.state(), "V_W1").unwrap(),
            pred
        );
        // Duplicate rejected locally.
        assert!(matches!(
            mgr.create_view(&mut chain, "V_W1", pred, AccessMode::Revocable, &mut rng),
            Err(ViewError::DuplicateView(_))
        ));
    }

    #[test]
    fn invoke_inserts_into_matching_views_only() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(2);
        let mut mgr: HashBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V_W1",
            ViewPredicate::attr_eq("to", "W1"),
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.create_view(
            &mut chain,
            "V_W2",
            ViewPredicate::attr_eq("to", "W2"),
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();

        let tid = mgr
            .invoke_with_secret(&mut chain, &client, &shipment("W1", b"s1"), &mut rng)
            .unwrap();
        assert_eq!(mgr.view_len("V_W1").unwrap(), 1);
        assert_eq!(mgr.view_len("V_W2").unwrap(), 0);
        assert_eq!(mgr.view_tids("V_W1").unwrap(), vec![tid]);
        // The stored transaction is on-chain, concealed.
        let stored_bytes = contracts::read_stored_tx(chain.state(), &tid).unwrap();
        let stored = StoredTransaction::from_bytes(&stored_bytes).unwrap();
        assert!(matches!(stored.concealed, Concealed::Hashed { .. }));
        assert!(!stored_bytes.windows(2).any(|w| w == b"s1"));
    }

    #[test]
    fn irrevocable_views_merge_on_chain_per_tx() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(3);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Irrevocable,
            &mut rng,
        )
        .unwrap();
        let h0 = chain.height();
        mgr.invoke_with_secret(&mut chain, &client, &shipment("W1", b"s"), &mut rng)
            .unwrap();
        // Two blocks: the invoke and the merge (Fig 6: 2 on-chain txs per
        // request for irrevocable views without the TxListContract).
        assert_eq!(chain.height(), h0 + 2);
        assert_eq!(contracts::read_view_storage(chain.state(), "V").len(), 1);
    }

    #[test]
    fn txlist_batches_defer_onchain_work() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(4);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, true);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Irrevocable,
            &mut rng,
        )
        .unwrap();
        let h0 = chain.height();
        for i in 0..5u8 {
            mgr.invoke_with_secret(&mut chain, &client, &shipment("W1", &[i]), &mut rng)
                .unwrap();
        }
        // Only the 5 invoke transactions hit the chain so far.
        assert_eq!(chain.height(), h0 + 5);
        assert_eq!(mgr.txlist_pending_len(), 5);
        // Flush: one add_batch + one merge.
        let txs = mgr.flush(&mut chain, &mut rng).unwrap();
        assert_eq!(txs, 2);
        assert_eq!(mgr.txlist_pending_len(), 0);
        assert_eq!(
            contracts::read_view_txlist(chain.state(), "V")
                .unwrap()
                .len(),
            5
        );
        assert_eq!(contracts::read_view_storage(chain.state(), "V").len(), 5);
    }

    #[test]
    fn maybe_flush_respects_interval() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(5);
        let mut mgr: HashBasedManager = ViewManager::new(owner, true);
        mgr.set_flush_interval_us(30_000_000);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &shipment("W1", b"x"), &mut rng)
            .unwrap();
        // 10 s: too early.
        assert_eq!(
            mgr.maybe_flush(&mut chain, 10_000_000, &mut rng).unwrap(),
            0
        );
        assert_eq!(mgr.txlist_pending_len(), 1);
        // 31 s: flush happens.
        assert_eq!(
            mgr.maybe_flush(&mut chain, 31_000_000, &mut rng).unwrap(),
            1
        );
        assert_eq!(mgr.txlist_pending_len(), 0);
    }

    #[test]
    fn grant_publishes_sealed_key() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(6);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        let bob = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob.public(), &mut rng)
            .unwrap();

        let gen = contracts::read_access_generation(chain.state(), "V").unwrap();
        let entries = contracts::read_access_payload(chain.state(), "V", gen).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].recipient, bob.public());
        // Bob can unseal K_V; it matches the manager's.
        let kv = ledgerview_crypto::open(&bob, &entries[0].sealed_key).unwrap();
        assert_eq!(kv, mgr.view_key("V").unwrap().as_bytes());
    }

    #[test]
    fn revoke_rotates_key_and_excludes_user() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(7);
        let mut mgr: HashBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        let bob = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng);
        let carol = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob.public(), &mut rng)
            .unwrap();
        mgr.grant_access(&mut chain, "V", carol.public(), &mut rng)
            .unwrap();
        let old_key = *mgr.view_key("V").unwrap();

        mgr.revoke_access(&mut chain, "V", &bob.public(), &mut rng)
            .unwrap();
        let new_key = *mgr.view_key("V").unwrap();
        assert_ne!(old_key.as_bytes(), new_key.as_bytes());
        assert_eq!(mgr.members("V").unwrap(), &[carol.public()]);

        // The latest generation only reaches carol, with the new key.
        let gen = contracts::read_access_generation(chain.state(), "V").unwrap();
        let entries = contracts::read_access_payload(chain.state(), "V", gen).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].recipient, carol.public());
        assert!(ledgerview_crypto::open(&bob, &entries[0].sealed_key).is_err());
        assert_eq!(
            ledgerview_crypto::open(&carol, &entries[0].sealed_key).unwrap(),
            new_key.as_bytes()
        );
    }

    #[test]
    fn revoking_irrevocable_fails() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(8);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Irrevocable,
            &mut rng,
        )
        .unwrap();
        let bob = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob.public(), &mut rng)
            .unwrap();
        assert!(matches!(
            mgr.revoke_access(&mut chain, "V", &bob.public(), &mut rng),
            Err(ViewError::ModeMismatch(_))
        ));
    }

    #[test]
    fn query_denied_for_non_members() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(9);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &shipment("W1", b"s"), &mut rng)
            .unwrap();
        let eve = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng);
        assert!(matches!(
            mgr.query_view("V", &eve.public(), None, &mut rng),
            Err(ViewError::AccessDenied(_))
        ));
    }

    #[test]
    fn telemetry_times_view_lifecycle_per_scheme() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(11);
        let telemetry = Telemetry::wall_clock();
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        mgr.set_telemetry(&telemetry);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &shipment("W1", b"s"), &mut rng)
            .unwrap();
        let bob = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob.public(), &mut rng)
            .unwrap();
        mgr.query_view("V", &bob.public(), None, &mut rng).unwrap();

        let r = telemetry.registry();
        let labels = [("scheme", "encryption")];
        for name in [
            "lv_views_create_seconds",
            "lv_views_invoke_seconds",
            "lv_views_query_seconds",
        ] {
            let h = r.histogram(name, &labels);
            assert_eq!(h.histogram().count(), 1, "{name}");
        }
        assert_eq!(r.counter("lv_views_conceal_total", &labels).get(), 1);
        let spans = telemetry.tracer().recent();
        for name in ["view.create", "view.invoke", "view.query"] {
            assert!(spans.iter().any(|s| s.name == name), "missing span {name}");
        }
    }

    #[test]
    fn unknown_view_operations_fail() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(10);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        let user = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng);
        assert!(matches!(
            mgr.grant_access(&mut chain, "ghost", user.public(), &mut rng),
            Err(ViewError::UnknownView(_))
        ));
        assert!(mgr.view_key("ghost").is_err());
        assert!(mgr.view_tids("ghost").is_err());
    }
}
