//! View-owner delegation (§4.2 / §5.3).
//!
//! "A view owner can be any user with access to all the information of the
//! view. Hence, a view can have many view owners." This module lets an
//! existing owner export a view's full owner-side state — definition, mode,
//! current `K_V`, member list, and the per-transaction records — sealed to
//! a co-owner's public key. The co-owner imports it into their own
//! [`crate::manager::ViewManager`] and can serve queries, grant, revoke and
//! maintain the view independently.
//!
//! The handoff itself can travel on-chain (it is sealed) or over any
//! secure channel; either way the chain remains the source of truth for
//! `V_access` generations, so owners that rotate `K_V` concurrently are
//! reconciled by comparing against the latest on-chain generation.

use fabric_sim::ledger::TxId;
use fabric_sim::wire::{Reader, Writer};
use ledgerview_crypto::keys::{EncryptionKeyPair, PublicKey};
use ledgerview_crypto::sha256::Digest;
use ledgerview_crypto::SymmetricKey;
use rand::RngCore;

use crate::error::ViewError;
use crate::manager::{AccessMode, SchemeKind, SecretScheme, ViewManager};
use crate::predicate::ViewDefinition;

/// The owner-side state of one view, in transferable form.
#[derive(Clone, Debug)]
pub struct OwnerState {
    /// View name.
    pub view: String,
    /// Which concealment scheme the records belong to.
    pub scheme: SchemeKind,
    /// Access mode.
    pub mode: AccessMode,
    /// The view definition.
    pub definition: ViewDefinition,
    /// Current view key `K_V`.
    pub key: SymmetricKey,
    /// Current members.
    pub members: Vec<PublicKey>,
    /// tid → record payload (`K_i` for encryption, secret for hash).
    pub records: Vec<(TxId, Vec<u8>)>,
    /// Next ViewStorage merge sequence number.
    pub merge_seq: u64,
}

impl OwnerState {
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.string(&self.view)
            .u8(self.scheme.tag())
            .u8(self.mode.tag())
            .bytes(&self.definition.to_bytes())
            .array(self.key.as_bytes())
            .list(&self.members, |w, m| {
                w.array(m.as_bytes());
            })
            .list(&self.records, |w, (tid, payload)| {
                w.array(tid.0.as_bytes()).bytes(payload);
            })
            .u64(self.merge_seq);
        w.into_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<OwnerState, ViewError> {
        let mut r = Reader::new(bytes);
        let view = r.string()?;
        let scheme = SchemeKind::from_tag(r.u8()?)?;
        let mode = AccessMode::from_tag(r.u8()?)?;
        let definition = ViewDefinition::from_bytes(&r.bytes()?)?;
        let key = SymmetricKey::from_bytes(r.array::<32>()?);
        let members = r.list(|r| r.array().map(PublicKey))?;
        let records = r.list(|r| Ok::<_, ViewError>((TxId(Digest(r.array()?)), r.bytes()?)))?;
        let merge_seq = r.u64()?;
        r.finish()?;
        Ok(OwnerState {
            view,
            scheme,
            mode,
            definition,
            key,
            members,
            records,
            merge_seq,
        })
    }
}

/// Export a view's owner state from `manager`, sealed to `co_owner`'s
/// public key.
pub fn export_view<S: SecretScheme, R: RngCore + ?Sized>(
    manager: &ViewManager<S>,
    view: &str,
    co_owner: &PublicKey,
    rng: &mut R,
) -> Result<Vec<u8>, ViewError> {
    let state = manager.export_owner_state(view)?;
    Ok(ledgerview_crypto::seal(co_owner, rng, &state.to_bytes()))
}

/// Import a sealed owner state into `manager`, becoming a co-owner of the
/// view. Fails if the manager's scheme does not match the exported state,
/// or if it already manages a view with that name.
pub fn import_view<S: SecretScheme>(
    manager: &mut ViewManager<S>,
    keypair: &EncryptionKeyPair,
    sealed: &[u8],
) -> Result<String, ViewError> {
    let bytes = ledgerview_crypto::open(keypair, sealed)?;
    let state = OwnerState::from_bytes(&bytes)?;
    if state.scheme != S::kind() {
        return Err(ViewError::ModeMismatch(format!(
            "exported state is {:?}, manager is {:?}",
            state.scheme,
            S::kind()
        )));
    }
    let name = state.view.clone();
    manager.import_owner_state(state)?;
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{EncryptionBasedManager, HashBasedManager};
    use crate::predicate::ViewPredicate;
    use crate::reader::ViewReader;
    use crate::testutil::test_chain;
    use crate::txmodel::{AttrValue, ClientTransaction};
    use ledgerview_crypto::rng::seeded;

    fn tx(i: i64) -> ClientTransaction {
        ClientTransaction::new(
            vec![("n", AttrValue::int(i)), ("to", AttrValue::str("W1"))],
            format!("secret-{i}").into_bytes(),
        )
    }

    #[test]
    fn co_owner_serves_queries_and_revokes() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(70);
        let mut mgr: HashBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        for i in 0..3 {
            mgr.invoke_with_secret(&mut chain, &client, &tx(i), &mut rng)
                .unwrap();
        }
        let bob_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();

        // Delegate to a co-owner.
        let co_owner_kp = EncryptionKeyPair::generate(&mut rng);
        let sealed = export_view(&mgr, "V", &co_owner_kp.public(), &mut rng).unwrap();
        let co_owner_identity = chain
            .enroll(
                &fabric_sim::identity::OrgId::new("Org1"),
                "co-owner",
                &mut rng,
            )
            .unwrap();
        let mut co_mgr: HashBasedManager = ViewManager::new(co_owner_identity, false);
        let imported = import_view(&mut co_mgr, &co_owner_kp, &sealed).unwrap();
        assert_eq!(imported, "V");
        assert_eq!(co_mgr.view_len("V").unwrap(), 3);
        assert_eq!(co_mgr.members("V").unwrap(), mgr.members("V").unwrap());

        // The co-owner answers Bob's query; Bob validates as usual.
        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V").unwrap();
        let resp = co_mgr
            .query_view("V", &bob.public(), None, &mut rng)
            .unwrap();
        let revealed = bob.open_response(&chain, "V", &resp).unwrap();
        assert_eq!(revealed.len(), 3);

        // The co-owner can revoke: Bob loses access via the new on-chain
        // generation, and the ORIGINAL owner's key is now stale.
        co_mgr
            .revoke_access(&mut chain, "V", &bob.public(), &mut rng)
            .unwrap();
        assert!(bob.obtain_view_key(&chain, "V").is_err());
    }

    #[test]
    fn wrong_recipient_cannot_import() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(71);
        let mut mgr: HashBasedManager = ViewManager::new(owner.clone(), false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        let intended = EncryptionKeyPair::generate(&mut rng);
        let eve = EncryptionKeyPair::generate(&mut rng);
        let sealed = export_view(&mgr, "V", &intended.public(), &mut rng).unwrap();
        let mut eve_mgr: HashBasedManager = ViewManager::new(owner, false);
        assert!(import_view(&mut eve_mgr, &eve, &sealed).is_err());
    }

    #[test]
    fn scheme_mismatch_rejected() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(72);
        let mut mgr: HashBasedManager = ViewManager::new(owner.clone(), false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        let co = EncryptionKeyPair::generate(&mut rng);
        let sealed = export_view(&mgr, "V", &co.public(), &mut rng).unwrap();
        // Importing hash-scheme state into an encryption-based manager.
        let mut enc_mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        assert!(matches!(
            import_view(&mut enc_mgr, &co, &sealed),
            Err(ViewError::ModeMismatch(_))
        ));
    }

    #[test]
    fn duplicate_view_rejected_on_import() {
        let (mut chain, owner, _) = test_chain();
        let mut rng = seeded(73);
        let mut mgr: HashBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        let co = EncryptionKeyPair::generate(&mut rng);
        let sealed = export_view(&mgr, "V", &co.public(), &mut rng).unwrap();
        // Importing into a manager that already owns "V" fails.
        assert!(matches!(
            import_view(&mut mgr, &co, &sealed),
            Err(ViewError::DuplicateView(_))
        ));
    }

    #[test]
    fn owner_state_round_trips() {
        let state = OwnerState {
            view: "V".into(),
            scheme: SchemeKind::Encryption,
            mode: AccessMode::Irrevocable,
            definition: ViewDefinition::PerTx(ViewPredicate::attr_eq("to", "W1")),
            key: SymmetricKey::from_bytes([9u8; 32]),
            members: vec![PublicKey([1u8; 32]), PublicKey([2u8; 32])],
            records: vec![(TxId(Digest([3u8; 32])), b"payload".to_vec())],
            merge_seq: 7,
        };
        let decoded = OwnerState::from_bytes(&state.to_bytes()).unwrap();
        assert_eq!(decoded.view, "V");
        assert_eq!(decoded.scheme, SchemeKind::Encryption);
        assert_eq!(decoded.mode, AccessMode::Irrevocable);
        assert_eq!(decoded.members, state.members);
        assert_eq!(decoded.records, state.records);
        assert_eq!(decoded.merge_seq, 7);
        assert!(OwnerState::from_bytes(&state.to_bytes()[..10]).is_err());
    }

    #[test]
    fn owner_state_golden() {
        let state = OwnerState {
            view: "V_W1".into(),
            scheme: SchemeKind::Hash,
            mode: AccessMode::Revocable,
            definition: ViewDefinition::PerTx(ViewPredicate::touches_entity("W1")),
            key: SymmetricKey::from_bytes([0x5a; 32]),
            members: vec![PublicKey([0x61; 32]), PublicKey([0x62; 32])],
            records: vec![
                (TxId(Digest([0x71; 32])), b"secret one".to_vec()),
                (TxId(Digest([0x72; 32])), vec![]),
            ],
            merge_seq: 3,
        };
        let bytes = state.to_bytes();
        crate::testutil::assert_pinned(
            &bytes,
            263,
            "ab110304f3a872ec305199d8814bf029b5548301ed4dfb5a0033d3c2321d96dd",
        );
        let decoded = OwnerState::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.to_bytes(), bytes);
        assert_eq!(decoded.records, state.records);
        let lying = |w: &mut Writer| {
            w.string(&state.view)
                .u8(1)
                .u8(0)
                .bytes(&state.definition.to_bytes())
                .array(state.key.as_bytes());
            crate::testutil::lying_count(w);
        };
        crate::testutil::assert_hostile_rejected(&bytes, lying, OwnerState::from_bytes);
    }
}
