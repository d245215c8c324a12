//! The on-chain side of LedgerView: four chaincodes.
//!
//! * [`InvokeContract`] — `InvokeWithSecret`: stores concealed client
//!   transactions under their transaction id (§5.3).
//! * [`ViewStorageContract`] — `Init` / `Merge` over per-view encrypted
//!   entries; used by irrevocable views so the blockchain protects view
//!   integrity (§5.3, *View Storage Contract*).
//! * [`TxListContract`] — the per-view transaction-id lists with batched
//!   updates used for efficient completeness verification (§5.4).
//! * [`AccessContract`] — on-chain dissemination: `V_access` generations
//!   (sealed view keys) and the transparent RBAC relations `A_r`, `A_p`
//!   (§4.6).
//!
//! All state keys use `~`-separated prefixes so membership and integrity
//! can be checked with range scans.

use fabric_sim::chaincode::{arg, arg_str, Chaincode, TxContext};
use fabric_sim::endorsement::EndorsementPolicy;
use fabric_sim::ledger::TxId;
use fabric_sim::statedb::VersionedState;
use fabric_sim::wire::{Reader, Writer};
use fabric_sim::{FabricChain, FabricError};
use ledgerview_crypto::keys::PublicKey;
use ledgerview_crypto::sha256::Digest;

use crate::error::ViewError;
use crate::predicate::{ViewDefinition, ViewPredicate};

/// Chaincode name for [`InvokeContract`].
pub const INVOKE_CC: &str = "lv.invoke";
/// Chaincode name for [`ViewStorageContract`].
pub const VIEW_STORAGE_CC: &str = "lv.viewstorage";
/// Chaincode name for [`TxListContract`].
pub const TX_LIST_CC: &str = "lv.txlist";
/// Chaincode name for [`AccessContract`].
pub const ACCESS_CC: &str = "lv.access";

/// Deploy the four LedgerView contracts on a chain with the given policy —
/// the boilerplate every deployment needs.
pub fn deploy_ledgerview_contracts(chain: &mut FabricChain, policy: EndorsementPolicy) {
    chain.deploy(INVOKE_CC, Box::new(InvokeContract), policy.clone());
    chain.deploy(
        VIEW_STORAGE_CC,
        Box::new(ViewStorageContract),
        policy.clone(),
    );
    chain.deploy(TX_LIST_CC, Box::new(TxListContract), policy.clone());
    chain.deploy(ACCESS_CC, Box::new(AccessContract), policy);
}

/// State key of a stored client transaction.
pub fn tx_state_key(tid: &TxId) -> String {
    format!("tx~{}", tid.to_hex())
}

// ---------------------------------------------------------------------
// InvokeContract
// ---------------------------------------------------------------------

/// Stores concealed client transactions on the ledger.
pub struct InvokeContract;

impl Chaincode for InvokeContract {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            "invoke_with_secret" => {
                let stored = arg(args, 0)?.to_vec();
                let key = tx_state_key(&ctx.tx_id());
                ctx.put_state(key, stored);
                Ok(ctx.tx_id().0.as_bytes().to_vec())
            }
            other => Err(FabricError::ChaincodeError(format!(
                "InvokeContract: unknown function {other}"
            ))),
        }
    }
}

/// Read a stored transaction's bytes from committed state.
pub fn read_stored_tx(state: &dyn VersionedState, tid: &TxId) -> Option<Vec<u8>> {
    state.get(&tx_state_key(tid))
}

// ---------------------------------------------------------------------
// ViewStorageContract
// ---------------------------------------------------------------------

/// Per-view encrypted entries for irrevocable views.
pub struct ViewStorageContract;

fn vs_meta_key(view: &str) -> String {
    format!("vs~meta~{view}")
}

fn vs_entry_key(view: &str, entry: &str) -> String {
    format!("vs~data~{view}~{entry}")
}

/// Encode a batch of `(entry_key, value)` pairs for `merge`.
pub fn encode_merge_entries(entries: &[(String, Vec<u8>)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.list(entries, |w, (k, v)| {
        w.string(k).bytes(v);
    });
    w.into_bytes()
}

fn decode_merge_entries(bytes: &[u8]) -> Result<Vec<(String, Vec<u8>)>, FabricError> {
    decode_list(bytes, |r| Ok((r.string()?, r.bytes()?)))
}

fn merge_into(
    ctx: &mut TxContext<'_>,
    view: &str,
    entries: Vec<(String, Vec<u8>)>,
) -> Result<u32, FabricError> {
    if ctx.get_state(&vs_meta_key(view)).is_none() {
        return Err(FabricError::ChaincodeError(format!(
            "view {view:?} not initialised"
        )));
    }
    let mut added = 0u32;
    for (entry, value) in entries {
        let key = vs_entry_key(view, &entry);
        // Merge semantics: only missing keys are added (§5.3).
        if ctx.get_state(&key).is_none() {
            ctx.put_state(key, value);
            added += 1;
        }
    }
    Ok(added)
}

/// One view's merge batch: `(view name, [(state key, sealed entry)])`.
pub type MergeBatch = (String, Vec<(String, Vec<u8>)>);

/// Encode per-view merge batches for `merge_multi`.
pub fn encode_multi_merge(batches: &[MergeBatch]) -> Vec<u8> {
    let mut w = Writer::new();
    w.list(batches, |w, (view, entries)| {
        w.string(view).bytes(&encode_merge_entries(entries));
    });
    w.into_bytes()
}

fn decode_multi_merge(bytes: &[u8]) -> Result<Vec<MergeBatch>, FabricError> {
    decode_list(bytes, |r| {
        Ok((r.string()?, decode_merge_entries(&r.bytes()?)?))
    })
}

impl Chaincode for ViewStorageContract {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            "init" => {
                let view = arg_str(args, 0)?;
                let key = vs_meta_key(&view);
                if ctx.get_state(&key).is_some() {
                    return Err(FabricError::ChaincodeError(format!(
                        "view {view:?} already initialised"
                    )));
                }
                ctx.put_state(key, vec![1]);
                Ok(vec![])
            }
            "merge" => {
                let view = arg_str(args, 0)?;
                let added = merge_into(ctx, &view, decode_merge_entries(arg(args, 1)?)?)?;
                Ok(added.to_be_bytes().to_vec())
            }
            // One transaction carrying the merge entries of *several* views
            // — this is why an irrevocable request costs exactly one extra
            // on-chain transaction regardless of how many views it joins
            // (§6.3: "the number of on-chain transactions is doubled").
            "merge_multi" => {
                let batches = decode_multi_merge(arg(args, 0)?)?;
                let mut added = 0u32;
                for (view, entries) in batches {
                    added += merge_into(ctx, &view, entries)?;
                }
                Ok(added.to_be_bytes().to_vec())
            }
            other => Err(FabricError::ChaincodeError(format!(
                "ViewStorageContract: unknown function {other}"
            ))),
        }
    }
}

/// Read all entries of an irrevocable view from committed state, in entry
/// key order.
pub fn read_view_storage(state: &dyn VersionedState, view: &str) -> Vec<(String, Vec<u8>)> {
    let prefix = format!("vs~data~{view}~");
    state
        .prefix_scan(&prefix)
        .into_iter()
        .map(|(k, v)| (k[prefix.len()..].to_string(), v))
        .collect()
}

/// Whether an irrevocable view was initialised on-chain.
pub fn view_storage_initialised(state: &dyn VersionedState, view: &str) -> bool {
    state.get(&vs_meta_key(view)).is_some()
}

// ---------------------------------------------------------------------
// TxListContract
// ---------------------------------------------------------------------

/// Maintains per-view transaction-id lists plus the view predicates
/// (completeness support, §5.4).
pub struct TxListContract;

fn tl_pred_key(view: &str) -> String {
    format!("tl~pred~{view}")
}

fn tl_count_key(view: &str) -> String {
    format!("tl~cnt~{view}")
}

fn tl_id_key(view: &str, seq: u64) -> String {
    format!("tl~ids~{view}~{seq:016x}")
}

fn tl_flush_key() -> String {
    "tl~lastflush".to_string()
}

/// One batched update: a transaction id recorded for a view at a time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxListUpdate {
    /// The view name.
    pub view: String,
    /// The included transaction.
    pub tid: TxId,
    /// Insertion timestamp (µs of virtual time).
    pub timestamp_us: u64,
}

/// Encode a flush batch.
pub fn encode_txlist_batch(updates: &[TxListUpdate]) -> Vec<u8> {
    let mut w = Writer::new();
    w.list(updates, |w, u| {
        w.string(&u.view)
            .array(u.tid.0.as_bytes())
            .u64(u.timestamp_us);
    });
    w.into_bytes()
}

fn decode_txlist_batch(bytes: &[u8]) -> Result<Vec<TxListUpdate>, FabricError> {
    decode_list(bytes, |r| {
        Ok(TxListUpdate {
            view: r.string()?,
            tid: TxId(Digest(r.array::<32>()?)),
            timestamp_us: r.u64()?,
        })
    })
}

impl Chaincode for TxListContract {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            "create_view" => {
                let view = arg_str(args, 0)?;
                let pred = arg(args, 1)?.to_vec();
                let key = tl_pred_key(&view);
                if ctx.get_state(&key).is_some() {
                    return Err(FabricError::ChaincodeError(format!(
                        "view {view:?} already registered"
                    )));
                }
                ctx.put_state(key, pred);
                ctx.put_state(tl_count_key(&view), 0u64.to_be_bytes().to_vec());
                Ok(vec![])
            }
            "add_batch" => {
                let updates = decode_txlist_batch(arg(args, 0)?)?;
                let mut max_ts = 0u64;
                for u in &updates {
                    let cnt_key = tl_count_key(&u.view);
                    let count = match ctx.get_state(&cnt_key) {
                        Some(bytes) => u64::from_be_bytes(
                            bytes
                                .try_into()
                                .map_err(|_| FabricError::Malformed("bad count".into()))?,
                        ),
                        None => {
                            return Err(FabricError::ChaincodeError(format!(
                                "view {:?} not registered",
                                u.view
                            )))
                        }
                    };
                    let mut w = Writer::new();
                    w.array(u.tid.0.as_bytes()).u64(u.timestamp_us);
                    ctx.put_state(tl_id_key(&u.view, count), w.into_bytes());
                    ctx.put_state(cnt_key, (count + 1).to_be_bytes().to_vec());
                    max_ts = max_ts.max(u.timestamp_us);
                }
                ctx.put_state(tl_flush_key(), max_ts.to_be_bytes().to_vec());
                Ok((updates.len() as u32).to_be_bytes().to_vec())
            }
            other => Err(FabricError::ChaincodeError(format!(
                "TxListContract: unknown function {other}"
            ))),
        }
    }
}

/// Read a view's registered definition from committed state.
pub fn read_view_definition(
    state: &dyn VersionedState,
    view: &str,
) -> Result<ViewDefinition, ViewError> {
    let bytes = state
        .get(&tl_pred_key(view))
        .ok_or_else(|| ViewError::UnknownView(view.to_string()))?;
    ViewDefinition::from_bytes(&bytes)
}

/// Read a view's per-transaction predicate; errors if the view has a
/// recursive definition (use [`read_view_definition`] then).
pub fn read_view_predicate(
    state: &dyn VersionedState,
    view: &str,
) -> Result<ViewPredicate, ViewError> {
    match read_view_definition(state, view)? {
        ViewDefinition::PerTx(p) => Ok(p),
        ViewDefinition::Recursive { .. } => Err(ViewError::Malformed(format!(
            "view {view:?} has a recursive definition"
        ))),
    }
}

/// Read a view's transaction-id list `(tid, timestamp)` in insertion order.
pub fn read_view_txlist(
    state: &dyn VersionedState,
    view: &str,
) -> Result<Vec<(TxId, u64)>, ViewError> {
    if state.get(&tl_pred_key(view)).is_none() {
        return Err(ViewError::UnknownView(view.to_string()));
    }
    let prefix = format!("tl~ids~{view}~");
    let mut out = Vec::new();
    for (_, v) in state.prefix_scan(&prefix) {
        let mut r = Reader::new(&v);
        out.push((TxId(Digest(r.array::<32>()?)), r.u64()?));
    }
    Ok(out)
}

/// The timestamp of the last flush (completeness horizon T, §5.4).
pub fn read_last_flush(state: &dyn VersionedState) -> Option<u64> {
    state
        .get(&tl_flush_key())
        .and_then(|b| b.try_into().ok().map(u64::from_be_bytes))
}

/// All views registered with the TxListContract.
pub fn read_registered_views(state: &dyn VersionedState) -> Vec<String> {
    let prefix = "tl~pred~";
    state
        .prefix_scan(prefix)
        .into_iter()
        .map(|(k, _)| k[prefix.len()..].to_string())
        .collect()
}

// ---------------------------------------------------------------------
// AccessContract
// ---------------------------------------------------------------------

/// On-chain dissemination of view keys and the RBAC relations.
pub struct AccessContract;

fn va_gen_key(view: &str) -> String {
    format!("va~gen~{view}")
}

fn va_payload_key(view: &str, generation: u64) -> String {
    format!("va~data~{view}~{generation:016x}")
}

fn rbac_users_key(role: &str) -> String {
    format!("rbac~ar~{role}")
}

fn rbac_views_key(role: &str) -> String {
    format!("rbac~ap~{role}")
}

fn rbac_rolekey_key(role: &str) -> String {
    format!("rbac~key~{role}")
}

/// One sealed view-key entry of a `V_access` generation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessEntry {
    /// The grantee's public key (or a role public key, §4.6).
    pub recipient: PublicKey,
    /// `enc(K_V, PubK_recipient)` — hybrid-sealed view key.
    pub sealed_key: Vec<u8>,
}

/// Encode a `V_access` payload.
pub fn encode_access_payload(entries: &[AccessEntry]) -> Vec<u8> {
    let mut w = Writer::new();
    w.list(entries, |w, e| {
        w.array(e.recipient.as_bytes()).bytes(&e.sealed_key);
    });
    w.into_bytes()
}

/// Decode a `V_access` payload.
pub fn decode_access_payload(bytes: &[u8]) -> Result<Vec<AccessEntry>, ViewError> {
    Ok(decode_list(bytes, |r| {
        Ok(AccessEntry {
            recipient: PublicKey(r.array::<32>()?),
            sealed_key: r.bytes()?,
        })
    })?)
}

/// Encode a list of strings (role→views). Keys (role→users) have their
/// own codec, [`encode_key_list`].
pub fn encode_string_list(items: &[String]) -> Vec<u8> {
    let mut w = Writer::new();
    w.list(items, |w, s| {
        w.string(s);
    });
    w.into_bytes()
}

fn decode_string_list(bytes: &[u8]) -> Result<Vec<String>, FabricError> {
    decode_list(bytes, |r| r.string())
}

/// Encode a list of public keys (role→users).
pub fn encode_key_list(keys: &[PublicKey]) -> Vec<u8> {
    let mut w = Writer::new();
    w.list(keys, |w, k| {
        w.array(k.as_bytes());
    });
    w.into_bytes()
}

fn decode_key_list(bytes: &[u8]) -> Result<Vec<PublicKey>, FabricError> {
    decode_list(bytes, |r| r.array().map(PublicKey))
}

/// Decode a payload that is exactly one list (trailing bytes rejected).
fn decode_list<T>(
    bytes: &[u8],
    item: impl FnMut(&mut Reader<'_>) -> Result<T, FabricError>,
) -> Result<Vec<T>, FabricError> {
    let mut r = Reader::new(bytes);
    let out = r.list(item)?;
    r.finish()?;
    Ok(out)
}

impl Chaincode for AccessContract {
    fn invoke(
        &self,
        ctx: &mut TxContext<'_>,
        function: &str,
        args: &[Vec<u8>],
    ) -> Result<Vec<u8>, FabricError> {
        match function {
            "publish_access" => {
                let view = arg_str(args, 0)?;
                let payload = arg(args, 1)?.to_vec();
                // Sanity: payload must decode.
                decode_access_payload(&payload)
                    .map_err(|_| FabricError::Malformed("bad access payload".into()))?;
                let gen = match ctx.get_state(&va_gen_key(&view)) {
                    Some(bytes) => {
                        u64::from_be_bytes(
                            bytes
                                .try_into()
                                .map_err(|_| FabricError::Malformed("bad generation".into()))?,
                        ) + 1
                    }
                    None => 0,
                };
                ctx.put_state(va_gen_key(&view), gen.to_be_bytes().to_vec());
                ctx.put_state(va_payload_key(&view, gen), payload);
                Ok(gen.to_be_bytes().to_vec())
            }
            "set_role_users" => {
                let role = arg_str(args, 0)?;
                let payload = arg(args, 1)?.to_vec();
                decode_key_list(&payload)?;
                ctx.put_state(rbac_users_key(&role), payload);
                Ok(vec![])
            }
            "set_role_views" => {
                let role = arg_str(args, 0)?;
                let payload = arg(args, 1)?.to_vec();
                decode_string_list(&payload)?;
                ctx.put_state(rbac_views_key(&role), payload);
                Ok(vec![])
            }
            "set_role_key" => {
                let role = arg_str(args, 0)?;
                let key = arg(args, 1)?;
                if key.len() != 32 {
                    return Err(FabricError::Malformed("role key must be 32 bytes".into()));
                }
                ctx.put_state(rbac_rolekey_key(&role), key.to_vec());
                Ok(vec![])
            }
            other => Err(FabricError::ChaincodeError(format!(
                "AccessContract: unknown function {other}"
            ))),
        }
    }
}

/// Latest `V_access` generation number of a view.
pub fn read_access_generation(state: &dyn VersionedState, view: &str) -> Option<u64> {
    state
        .get(&va_gen_key(view))
        .and_then(|b| b.try_into().ok().map(u64::from_be_bytes))
}

/// The `V_access` payload of a specific generation.
pub fn read_access_payload(
    state: &dyn VersionedState,
    view: &str,
    generation: u64,
) -> Result<Vec<AccessEntry>, ViewError> {
    let bytes = state
        .get(&va_payload_key(view, generation))
        .ok_or_else(|| ViewError::UnknownView(format!("{view} gen {generation}")))?;
    decode_access_payload(&bytes)
}

/// The transparent role→users relation `A_r` entry for a role.
pub fn read_role_users(
    state: &dyn VersionedState,
    role: &str,
) -> Result<Vec<PublicKey>, ViewError> {
    let bytes = state
        .get(&rbac_users_key(role))
        .ok_or_else(|| ViewError::UnknownView(format!("role {role}")))?;
    Ok(decode_key_list(&bytes)?)
}

/// The transparent role→views relation `A_p` entry for a role.
pub fn read_role_views(state: &dyn VersionedState, role: &str) -> Result<Vec<String>, ViewError> {
    let bytes = state
        .get(&rbac_views_key(role))
        .ok_or_else(|| ViewError::UnknownView(format!("role {role}")))?;
    Ok(decode_string_list(&bytes)?)
}

/// The public key registered for a role.
pub fn read_role_key(state: &dyn VersionedState, role: &str) -> Result<PublicKey, ViewError> {
    let bytes = state
        .get(&rbac_rolekey_key(role))
        .ok_or_else(|| ViewError::UnknownView(format!("role {role}")))?;
    let arr: [u8; 32] = bytes
        .try_into()
        .map_err(|_| ViewError::Malformed("role key size".into()))?;
    Ok(PublicKey(arr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_sim::endorsement::EndorsementPolicy;
    use fabric_sim::identity::OrgId;
    use fabric_sim::FabricChain;
    use ledgerview_crypto::rng::seeded;

    use crate::testutil::{assert_hostile_rejected, assert_pinned, lying_count};

    fn chain() -> (FabricChain, fabric_sim::Identity) {
        let mut rng = seeded(1);
        let mut chain = FabricChain::new(&["Org1"], &mut rng);
        let policy = EndorsementPolicy::AnyOf(chain.org_ids());
        deploy_ledgerview_contracts(&mut chain, policy);
        let alice = chain
            .enroll(&OrgId::new("Org1"), "alice", &mut rng)
            .unwrap();
        (chain, alice)
    }

    #[test]
    fn invoke_contract_stores_under_tid() {
        let (mut chain, alice) = chain();
        let mut rng = seeded(2);
        let res = chain
            .invoke_commit(
                &alice,
                INVOKE_CC,
                "invoke_with_secret",
                vec![b"payload".to_vec()],
                &mut rng,
            )
            .unwrap();
        assert_eq!(
            read_stored_tx(chain.state(), &res.tx_id).unwrap(),
            b"payload"
        );
        assert_eq!(res.response, res.tx_id.0.as_bytes());
    }

    #[test]
    fn view_storage_init_and_merge() {
        let (mut chain, alice) = chain();
        let mut rng = seeded(3);
        chain
            .invoke_commit(
                &alice,
                VIEW_STORAGE_CC,
                "init",
                vec![b"V1".to_vec()],
                &mut rng,
            )
            .unwrap();
        assert!(view_storage_initialised(chain.state(), "V1"));
        assert!(!view_storage_initialised(chain.state(), "V2"));

        // Double init fails.
        assert!(chain
            .invoke(
                &alice,
                VIEW_STORAGE_CC,
                "init",
                vec![b"V1".to_vec()],
                &mut rng
            )
            .is_err());

        let entries = vec![
            ("0001".to_string(), b"enc-entry-1".to_vec()),
            ("0002".to_string(), b"enc-entry-2".to_vec()),
        ];
        chain
            .invoke_commit(
                &alice,
                VIEW_STORAGE_CC,
                "merge",
                vec![b"V1".to_vec(), encode_merge_entries(&entries)],
                &mut rng,
            )
            .unwrap();
        assert_eq!(read_view_storage(chain.state(), "V1"), entries);

        // Merge is idempotent on existing keys.
        let overwrite = vec![("0001".to_string(), b"evil".to_vec())];
        chain
            .invoke_commit(
                &alice,
                VIEW_STORAGE_CC,
                "merge",
                vec![b"V1".to_vec(), encode_merge_entries(&overwrite)],
                &mut rng,
            )
            .unwrap();
        assert_eq!(read_view_storage(chain.state(), "V1")[0].1, b"enc-entry-1");
    }

    #[test]
    fn merge_requires_init() {
        let (mut chain, alice) = chain();
        let mut rng = seeded(4);
        let err = chain.invoke(
            &alice,
            VIEW_STORAGE_CC,
            "merge",
            vec![b"nope".to_vec(), encode_merge_entries(&[])],
            &mut rng,
        );
        assert!(err.is_err());
    }

    #[test]
    fn txlist_create_and_batches() {
        let (mut chain, alice) = chain();
        let mut rng = seeded(5);
        let pred = ViewPredicate::attr_eq("to", "W1");
        let def = ViewDefinition::PerTx(pred.clone());
        chain
            .invoke_commit(
                &alice,
                TX_LIST_CC,
                "create_view",
                vec![b"V1".to_vec(), def.to_bytes()],
                &mut rng,
            )
            .unwrap();
        assert_eq!(read_view_predicate(chain.state(), "V1").unwrap(), pred);
        assert_eq!(read_registered_views(chain.state()), vec!["V1".to_string()]);

        let tid = |n: u8| TxId(ledgerview_crypto::sha256::sha256(&[n]));
        let batch = vec![
            TxListUpdate {
                view: "V1".into(),
                tid: tid(1),
                timestamp_us: 100,
            },
            TxListUpdate {
                view: "V1".into(),
                tid: tid(2),
                timestamp_us: 200,
            },
        ];
        chain
            .invoke_commit(
                &alice,
                TX_LIST_CC,
                "add_batch",
                vec![encode_txlist_batch(&batch)],
                &mut rng,
            )
            .unwrap();
        let list = read_view_txlist(chain.state(), "V1").unwrap();
        assert_eq!(list, vec![(tid(1), 100), (tid(2), 200)]);
        assert_eq!(read_last_flush(chain.state()), Some(200));

        // Second batch appends in order.
        let batch2 = vec![TxListUpdate {
            view: "V1".into(),
            tid: tid(3),
            timestamp_us: 300,
        }];
        chain
            .invoke_commit(
                &alice,
                TX_LIST_CC,
                "add_batch",
                vec![encode_txlist_batch(&batch2)],
                &mut rng,
            )
            .unwrap();
        assert_eq!(read_view_txlist(chain.state(), "V1").unwrap().len(), 3);
    }

    #[test]
    fn txlist_unknown_view_rejected() {
        let (mut chain, alice) = chain();
        let mut rng = seeded(6);
        let batch = vec![TxListUpdate {
            view: "ghost".into(),
            tid: TxId(ledgerview_crypto::sha256::sha256(b"x")),
            timestamp_us: 1,
        }];
        assert!(chain
            .invoke(
                &alice,
                TX_LIST_CC,
                "add_batch",
                vec![encode_txlist_batch(&batch)],
                &mut rng
            )
            .is_err());
        assert!(read_view_txlist(chain.state(), "ghost").is_err());
    }

    #[test]
    fn access_generations_advance() {
        let (mut chain, alice) = chain();
        let mut rng = seeded(7);
        let user = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng);
        let entry = AccessEntry {
            recipient: user.public(),
            sealed_key: b"sealed".to_vec(),
        };
        let payload = encode_access_payload(std::slice::from_ref(&entry));
        chain
            .invoke_commit(
                &alice,
                ACCESS_CC,
                "publish_access",
                vec![b"V1".to_vec(), payload.clone()],
                &mut rng,
            )
            .unwrap();
        assert_eq!(read_access_generation(chain.state(), "V1"), Some(0));
        assert_eq!(
            read_access_payload(chain.state(), "V1", 0).unwrap(),
            vec![entry.clone()]
        );

        chain
            .invoke_commit(
                &alice,
                ACCESS_CC,
                "publish_access",
                vec![b"V1".to_vec(), payload],
                &mut rng,
            )
            .unwrap();
        assert_eq!(read_access_generation(chain.state(), "V1"), Some(1));
        // Old generations remain (append-only ledger).
        assert!(read_access_payload(chain.state(), "V1", 0).is_ok());
    }

    #[test]
    fn rbac_relations_round_trip() {
        let (mut chain, alice) = chain();
        let mut rng = seeded(8);
        let u1 = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng).public();
        let u2 = ledgerview_crypto::EncryptionKeyPair::generate(&mut rng).public();
        chain
            .invoke_commit(
                &alice,
                ACCESS_CC,
                "set_role_users",
                vec![b"nurse".to_vec(), encode_key_list(&[u1, u2])],
                &mut rng,
            )
            .unwrap();
        chain
            .invoke_commit(
                &alice,
                ACCESS_CC,
                "set_role_views",
                vec![
                    b"nurse".to_vec(),
                    encode_string_list(&["records".to_string(), "meds".to_string()]),
                ],
                &mut rng,
            )
            .unwrap();
        chain
            .invoke_commit(
                &alice,
                ACCESS_CC,
                "set_role_key",
                vec![b"nurse".to_vec(), u1.as_bytes().to_vec()],
                &mut rng,
            )
            .unwrap();
        assert_eq!(
            read_role_users(chain.state(), "nurse").unwrap(),
            vec![u1, u2]
        );
        assert_eq!(
            read_role_views(chain.state(), "nurse").unwrap(),
            vec!["records".to_string(), "meds".to_string()]
        );
        assert_eq!(read_role_key(chain.state(), "nurse").unwrap(), u1);
        assert!(read_role_users(chain.state(), "ghost").is_err());
    }

    #[test]
    fn malformed_payloads_rejected() {
        let (mut chain, alice) = chain();
        let mut rng = seeded(9);
        assert!(chain
            .invoke(
                &alice,
                ACCESS_CC,
                "publish_access",
                vec![b"V".to_vec(), b"garbage".to_vec()],
                &mut rng
            )
            .is_err());
        assert!(chain
            .invoke(
                &alice,
                ACCESS_CC,
                "set_role_key",
                vec![b"r".to_vec(), vec![0u8; 31]],
                &mut rng
            )
            .is_err());
        assert!(chain
            .invoke(&alice, INVOKE_CC, "nonexistent", vec![], &mut rng)
            .is_err());
    }

    fn merge_entries() -> Vec<(String, Vec<u8>)> {
        vec![
            ("0000000000000000".into(), b"sealed entry zero".to_vec()),
            ("0000000000000001".into(), vec![]),
        ]
    }

    #[test]
    fn merge_batch_golden() {
        let entries = merge_entries();
        let bytes = encode_merge_entries(&entries);
        assert_pinned(
            &bytes,
            69,
            "69f35bc7dda8d4e77795ea70e1fd953ef3d73123be5bea537cdf6ed95980e9f5",
        );
        assert_eq!(decode_merge_entries(&bytes).unwrap(), entries);
        assert_hostile_rejected(&bytes, lying_count, decode_merge_entries);
    }

    #[test]
    fn multi_merge_golden() {
        let batches = vec![
            ("V_W1".to_string(), merge_entries()),
            ("V_W2".to_string(), vec![]),
        ];
        let bytes = encode_multi_merge(&batches);
        assert_pinned(
            &bytes,
            101,
            "f09ff692c9bf769f04a0006f8f4eb8a905a693eba1fd3d276ea5c46f4aeab612",
        );
        assert_eq!(decode_multi_merge(&bytes).unwrap(), batches);
        assert_hostile_rejected(&bytes, lying_count, decode_multi_merge);
    }

    #[test]
    fn txlist_batch_golden() {
        let updates = vec![
            TxListUpdate {
                view: "V_W1".into(),
                tid: TxId(Digest([0xa1; 32])),
                timestamp_us: 1_000,
            },
            TxListUpdate {
                view: "V_M2".into(),
                tid: TxId(Digest([0xb2; 32])),
                timestamp_us: 2_000,
            },
        ];
        let bytes = encode_txlist_batch(&updates);
        assert_pinned(
            &bytes,
            100,
            "e44920c9303418bbf773e9d335f9fa0ffd7dacf641fd57a5b7e44f79ca5a9219",
        );
        assert_eq!(decode_txlist_batch(&bytes).unwrap(), updates);
        assert_hostile_rejected(&bytes, lying_count, decode_txlist_batch);
    }

    #[test]
    fn string_list_golden() {
        let items = vec!["records".to_string(), String::new(), "prescriptions".into()];
        let bytes = encode_string_list(&items);
        assert_pinned(
            &bytes,
            36,
            "e492bf4b2f5420babe50afdbd1fb4534af0bb31b6cf1eb063552743c0510715b",
        );
        assert_eq!(decode_string_list(&bytes).unwrap(), items);
        assert_hostile_rejected(&bytes, lying_count, decode_string_list);
    }

    #[test]
    fn key_list_golden() {
        let keys = vec![PublicKey([0x31; 32]), PublicKey([0x32; 32])];
        let bytes = encode_key_list(&keys);
        assert_pinned(
            &bytes,
            68,
            "b89973ccaf2f5d5ae73bbb13f8c4c1823f2dc042645d39ebe46676882d83b388",
        );
        assert_eq!(decode_key_list(&bytes).unwrap(), keys);
        assert_hostile_rejected(&bytes, lying_count, decode_key_list);
    }
}
