//! The view-reader side (Bob in Fig 3).
//!
//! A reader obtains the view key `K_V` from the on-chain `V_access`
//! dissemination (or out of band), decrypts query responses from the view
//! owner, and *validates* everything against the blockchain — readers do
//! not trust view owners (§5.3: "view readers do not always trust view
//! owners").

use std::collections::BTreeMap;

use fabric_sim::ledger::TxId;
use fabric_sim::wire::Reader as WireReader;
use fabric_sim::FabricChain;
use ledgerview_crypto::aead::AeadKey;
use ledgerview_crypto::keys::EncryptionKeyPair;
use ledgerview_crypto::sha256::Digest;
use ledgerview_crypto::SymmetricKey;

use crate::contracts;
use crate::error::ViewError;
use crate::manager::{AccessMode, QueryResponse, SchemeKind};
use crate::txmodel::{Concealed, NonSecret, StoredTransaction};

/// A transaction as revealed to an authorized reader, with the material
/// needed to validate it against the chain.
#[derive(Clone, Debug)]
pub struct RevealedTx {
    /// Transaction id.
    pub tid: TxId,
    /// The visible attributes, as read from the ledger.
    pub non_secret: NonSecret,
    /// The revealed secret part.
    pub secret: Vec<u8>,
    /// The per-transaction key (encryption scheme only).
    pub tx_key: Option<SymmetricKey>,
}

/// Decoded response metadata + per-transaction payloads.
#[derive(Clone, Debug)]
pub struct DecodedResponse {
    /// Which concealment scheme produced the response.
    pub scheme: SchemeKind,
    /// The view's access mode.
    pub mode: AccessMode,
    /// Per transaction: the decrypted payload (`K_i` or the secret value).
    pub entries: Vec<(TxId, Vec<u8>)>,
}

/// A view reader bound to a decryption key pair (a user's own, or a role's
/// reconstructed pair, §4.6).
pub struct ViewReader {
    keypair: EncryptionKeyPair,
    /// View name → current `K_V` as known to this reader.
    view_keys: BTreeMap<String, SymmetricKey>,
}

impl ViewReader {
    /// A reader decrypting with `keypair`.
    pub fn new(keypair: EncryptionKeyPair) -> ViewReader {
        ViewReader {
            keypair,
            view_keys: BTreeMap::new(),
        }
    }

    /// The public key this reader is addressed by.
    pub fn public(&self) -> ledgerview_crypto::PublicKey {
        self.keypair.public()
    }

    /// Fetch the latest `V_access` generation from the chain and recover
    /// `K_V` for `view`. Fails if this reader is not among the recipients
    /// (revoked users find their entry gone after rotation).
    pub fn obtain_view_key(&mut self, chain: &FabricChain, view: &str) -> Result<(), ViewError> {
        let generation = contracts::read_access_generation(chain.state(), view)
            .ok_or_else(|| ViewError::UnknownView(view.to_string()))?;
        let entries = contracts::read_access_payload(chain.state(), view, generation)?;
        let me = self.keypair.public();
        let mine = entries.iter().find(|e| e.recipient == me).ok_or_else(|| {
            ViewError::AccessDenied(format!("no V_access entry for me in {view:?}"))
        })?;
        let key_bytes = ledgerview_crypto::open(&self.keypair, &mine.sealed_key)?;
        let arr: [u8; 32] = key_bytes
            .try_into()
            .map_err(|_| ViewError::Malformed("view key size".into()))?;
        self.view_keys
            .insert(view.to_string(), SymmetricKey::from_bytes(arr));
        Ok(())
    }

    /// Install a view key obtained out of band (secure channel, §4.1).
    pub fn install_view_key(&mut self, view: impl Into<String>, key: SymmetricKey) {
        self.view_keys.insert(view.into(), key);
    }

    /// The reader's current `K_V` for a view, if known.
    pub fn view_key(&self, view: &str) -> Option<&SymmetricKey> {
        self.view_keys.get(view)
    }

    /// Decrypt a [`QueryResponse`] from the view owner: open the outer
    /// seal with the reader's private key, then each entry with `K_V`.
    pub fn decode_response(
        &self,
        view: &str,
        response: &QueryResponse,
    ) -> Result<DecodedResponse, ViewError> {
        let kv = self
            .view_keys
            .get(view)
            .ok_or_else(|| ViewError::AccessDenied(format!("no K_V for {view:?}")))?;
        let outer = ledgerview_crypto::open(&self.keypair, &response.sealed)?;
        let kv = AeadKey::new(kv.as_bytes());
        let mut r = WireReader::new(&outer);
        let scheme = SchemeKind::from_tag(r.u8()?)?;
        let mode = AccessMode::from_tag(r.u8()?)?;
        let entries = r.list(|r| {
            let tid = TxId(Digest(r.array()?));
            let payload = kv.open(&r.bytes()?, tid.0.as_bytes())?;
            Ok::<_, ViewError>((tid, payload))
        })?;
        r.finish()?;
        Ok(DecodedResponse {
            scheme,
            mode,
            entries,
        })
    }

    /// Decrypt the on-chain ViewStorage entries of an irrevocable view
    /// directly from the ledger (no interaction with the owner; §5.3
    /// *Validation*: "users retrieve the encrypted view data from the
    /// ViewStorage contract").
    pub fn decode_view_storage(
        &self,
        chain: &FabricChain,
        view: &str,
        scheme: SchemeKind,
    ) -> Result<DecodedResponse, ViewError> {
        let kv = self
            .view_keys
            .get(view)
            .ok_or_else(|| ViewError::AccessDenied(format!("no K_V for {view:?}")))?;
        let kv = AeadKey::new(kv.as_bytes());
        let mut entries = Vec::new();
        for (_, value) in contracts::read_view_storage(chain.state(), view) {
            let mut r = WireReader::new(&value);
            let tid = TxId(Digest(r.array::<32>()?));
            let enc = r.bytes()?;
            r.finish()?;
            let payload = kv.open(&enc, tid.0.as_bytes())?;
            entries.push((tid, payload));
        }
        Ok(DecodedResponse {
            scheme,
            mode: AccessMode::Irrevocable,
            entries,
        })
    }

    /// Reveal and validate the secrets of a decoded response against the
    /// ledger: fetch each stored transaction and check the payload against
    /// its concealment (hash match, or decryption under the carried key).
    ///
    /// Any mismatch aborts with [`ViewError::VerificationFailed`] — a
    /// tampering owner is caught here (§4.7 case 2).
    pub fn reveal(
        &self,
        chain: &FabricChain,
        decoded: &DecodedResponse,
    ) -> Result<Vec<RevealedTx>, ViewError> {
        let mut out = Vec::with_capacity(decoded.entries.len());
        for (tid, payload) in &decoded.entries {
            let stored_bytes = contracts::read_stored_tx(chain.state(), tid).ok_or_else(|| {
                ViewError::VerificationFailed(format!("tx {tid} not on the ledger"))
            })?;
            let stored = StoredTransaction::from_bytes(&stored_bytes)?;
            let (secret, tx_key) = match decoded.scheme {
                SchemeKind::Encryption => {
                    let arr: [u8; 32] = payload
                        .as_slice()
                        .try_into()
                        .map_err(|_| ViewError::Malformed("tx key size".into()))?;
                    let key = SymmetricKey::from_bytes(arr);
                    let Concealed::Encrypted { ciphertext } = &stored.concealed else {
                        return Err(ViewError::VerificationFailed(format!(
                            "tx {tid} is not encryption-concealed"
                        )));
                    };
                    let secret = key.open(ciphertext).map_err(|_| {
                        ViewError::VerificationFailed(format!(
                            "provided key does not decrypt tx {tid}"
                        ))
                    })?;
                    (secret, Some(key))
                }
                SchemeKind::Hash => {
                    if !stored.matches_secret(payload, None) {
                        return Err(ViewError::VerificationFailed(format!(
                            "provided secret does not match on-chain hash for tx {tid}"
                        )));
                    }
                    (payload.clone(), None)
                }
            };
            out.push(RevealedTx {
                tid: *tid,
                non_secret: stored.non_secret,
                secret,
                tx_key,
            });
        }
        Ok(out)
    }

    /// Convenience: decode a response and reveal+validate in one call.
    pub fn open_response(
        &self,
        chain: &FabricChain,
        view: &str,
        response: &QueryResponse,
    ) -> Result<Vec<RevealedTx>, ViewError> {
        let decoded = self.decode_response(view, response)?;
        self.reveal(chain, &decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{EncryptionBasedManager, HashBasedManager, ViewManager};
    use crate::predicate::ViewPredicate;
    use crate::testutil::test_chain;
    use crate::txmodel::{AttrValue, ClientTransaction};
    use ledgerview_crypto::rng::seeded;

    fn tx(to: &str, secret: &[u8]) -> ClientTransaction {
        ClientTransaction::new(
            vec![("from", AttrValue::str("M1")), ("to", AttrValue::str(to))],
            secret.to_vec(),
        )
    }

    #[test]
    fn full_workflow_encryption_revocable() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(20);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        let tid = mgr
            .invoke_with_secret(&mut chain, &client, &tx("W1", b"amount=200"), &mut rng)
            .unwrap();

        let bob_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();

        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V").unwrap();
        let resp = mgr.query_view("V", &bob.public(), None, &mut rng).unwrap();
        let revealed = bob.open_response(&chain, "V", &resp).unwrap();
        assert_eq!(revealed.len(), 1);
        assert_eq!(revealed[0].tid, tid);
        assert_eq!(revealed[0].secret, b"amount=200");
        assert!(revealed[0].tx_key.is_some());
    }

    #[test]
    fn full_workflow_hash_revocable() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(21);
        let mut mgr: HashBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &tx("W1", b"price=9.99"), &mut rng)
            .unwrap();

        let bob_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();
        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V").unwrap();
        let resp = mgr.query_view("V", &bob.public(), None, &mut rng).unwrap();
        let revealed = bob.open_response(&chain, "V", &resp).unwrap();
        assert_eq!(revealed[0].secret, b"price=9.99");
        assert!(revealed[0].tx_key.is_none());
    }

    #[test]
    fn irrevocable_read_from_chain_without_owner() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(22);
        let mut mgr: HashBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Irrevocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &tx("W1", b"s-1"), &mut rng)
            .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &tx("W2", b"s-2"), &mut rng)
            .unwrap();
        let bob_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();

        // Bob reads the view data straight off the ledger: no owner query.
        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V").unwrap();
        let decoded = bob
            .decode_view_storage(&chain, "V", SchemeKind::Hash)
            .unwrap();
        let revealed = bob.reveal(&chain, &decoded).unwrap();
        assert_eq!(revealed.len(), 2);
        let secrets: Vec<&[u8]> = revealed.iter().map(|r| r.secret.as_slice()).collect();
        assert!(secrets.contains(&&b"s-1"[..]) && secrets.contains(&&b"s-2"[..]));
    }

    #[test]
    fn revoked_reader_cannot_use_new_generation() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(23);
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
        let carol_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();
        mgr.grant_access(&mut chain, "V", carol_kp.public(), &mut rng)
            .unwrap();

        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V").unwrap();

        // Revoke bob. He cannot obtain the rotated key...
        mgr.revoke_access(&mut chain, "V", &bob.public(), &mut rng)
            .unwrap();
        assert!(matches!(
            bob.obtain_view_key(&chain, "V"),
            Err(ViewError::AccessDenied(_))
        ));
        // ... and owner-side access control also rejects his queries.
        assert!(mgr.query_view("V", &bob.public(), None, &mut rng).is_err());
        // Even with a response addressed to carol, bob's old K_V cannot
        // decrypt entries sealed under the rotated key.
        let resp_for_carol = mgr
            .query_view("V", &carol_kp.public(), None, &mut rng)
            .unwrap();
        assert!(bob.decode_response("V", &resp_for_carol).is_err());

        // Carol still works end to end.
        let mut carol = ViewReader::new(carol_kp);
        carol.obtain_view_key(&chain, "V").unwrap();
        let resp = mgr
            .query_view("V", &carol.public(), None, &mut rng)
            .unwrap();
        assert_eq!(carol.open_response(&chain, "V", &resp).unwrap().len(), 1);
    }

    #[test]
    fn selective_query_reveals_only_requested() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(24);
        let mut mgr: EncryptionBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        let t1 = mgr
            .invoke_with_secret(&mut chain, &client, &tx("W1", b"s1"), &mut rng)
            .unwrap();
        let _t2 = mgr
            .invoke_with_secret(&mut chain, &client, &tx("W2", b"s2"), &mut rng)
            .unwrap();

        let bob_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();
        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V").unwrap();
        let resp = mgr
            .query_view("V", &bob.public(), Some(&[t1]), &mut rng)
            .unwrap();
        let revealed = bob.open_response(&chain, "V", &resp).unwrap();
        assert_eq!(revealed.len(), 1);
        assert_eq!(revealed[0].tid, t1);
    }

    #[test]
    fn tampered_response_detected() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(25);
        let mut mgr: HashBasedManager = ViewManager::new(owner, false);
        mgr.create_view(
            &mut chain,
            "V",
            ViewPredicate::True,
            AccessMode::Revocable,
            &mut rng,
        )
        .unwrap();
        mgr.invoke_with_secret(&mut chain, &client, &tx("W1", b"real"), &mut rng)
            .unwrap();
        let bob_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();
        let mut bob = ViewReader::new(bob_kp);
        bob.obtain_view_key(&chain, "V").unwrap();

        // A malicious owner serving a fabricated secret is caught because
        // the hash on the ledger does not match (§4.7 case 2).
        let kv = *mgr.view_key("V").unwrap();
        let tid = mgr.view_tids("V").unwrap()[0];
        let fake_entry = AeadKey::new(kv.as_bytes()).seal(&mut rng, b"fake", tid.0.as_bytes());
        let forged = crate::manager::QueryResponse {
            sealed: ledgerview_crypto::seal(
                &bob.public(),
                &mut rng,
                &crate::manager::encode_response(
                    SchemeKind::Hash,
                    AccessMode::Revocable,
                    &[(tid, fake_entry)],
                ),
            ),
        };
        assert!(matches!(
            bob.open_response(&chain, "V", &forged),
            Err(ViewError::VerificationFailed(_))
        ));
    }

    #[test]
    fn response_for_other_user_unreadable() {
        let (mut chain, owner, client) = test_chain();
        let mut rng = seeded(26);
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
        let eve_kp = EncryptionKeyPair::generate(&mut rng);
        mgr.grant_access(&mut chain, "V", bob_kp.public(), &mut rng)
            .unwrap();
        let resp = mgr
            .query_view("V", &bob_kp.public(), None, &mut rng)
            .unwrap();

        let mut eve = ViewReader::new(eve_kp);
        eve.install_view_key("V", *mgr.view_key("V").unwrap());
        // Even knowing K_V (say, leaked), the outer seal is to bob.
        assert!(eve.decode_response("V", &resp).is_err());
    }

    #[test]
    fn query_response_golden() {
        use crate::manager::encode_response;
        use crate::testutil::{assert_hostile_rejected, assert_pinned, lying_count};
        use fabric_sim::wire::Writer;
        use ledgerview_crypto::aead;

        let mut rng = seeded(0x901d);
        let reader_kp = EncryptionKeyPair::generate(&mut rng);
        let kv = SymmetricKey::from_bytes([0x4b; 32]);
        let entries: Vec<(TxId, Vec<u8>)> = [(0x81u8, &b"k_i of the first"[..]), (0x82, b"")]
            .iter()
            .map(|&(fill, payload)| {
                let tid = TxId(Digest([fill; 32]));
                let enc = aead::seal_sym_aad(kv.as_bytes(), &mut rng, payload, tid.0.as_bytes());
                (tid, enc)
            })
            .collect();
        let bytes = encode_response(SchemeKind::Hash, AccessMode::Irrevocable, &entries);
        assert_pinned(
            &bytes,
            190,
            "62b7d8bf93a6e52ebf4687fb9d32540ff2bdcfbc2336cda3ba4f5f637d0d0484",
        );

        let mut reader = ViewReader::new(reader_kp);
        reader.install_view_key("V", kv);
        let public = reader.public();
        let decode = |plain: &[u8]| {
            let mut rng = seeded(0x901e);
            let sealed = ledgerview_crypto::seal(&public, &mut rng, plain);
            reader.decode_response("V", &QueryResponse { sealed })
        };
        let decoded = decode(&bytes).unwrap();
        assert_eq!(
            (decoded.scheme, decoded.mode),
            (SchemeKind::Hash, AccessMode::Irrevocable)
        );
        let payloads: Vec<&[u8]> = decoded.entries.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, [&b"k_i of the first"[..], b""]);
        let lying = |w: &mut Writer| {
            w.u8(1).u8(1);
            lying_count(w);
        };
        assert_hostile_rejected(&bytes, lying, decode);
    }
}
