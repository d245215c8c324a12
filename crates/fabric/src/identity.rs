//! Membership service provider (MSP): organisations, certificate
//! authorities and user identities.
//!
//! A permissioned blockchain's users are enrolled by an organisation CA.
//! Here each organisation holds an Ed25519 CA key; enrolling a user signs a
//! certificate binding the user's name, organisation, signing key and
//! encryption key. Peers verify endorsement signatures against certificates
//! and certificates against the CA registry.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

use ledgerview_crypto::ed25519::{self, VerifyingKey};
use ledgerview_crypto::keys::{EncryptionKeyPair, PublicKey, SigningKeyPair};
use ledgerview_crypto::sha256::Sha256;
use ledgerview_crypto::CryptoError;
use rand::RngCore;

use crate::error::FabricError;
use crate::wire::Writer;

/// An organisation (MSP) identifier, e.g. `"Org1MSP"`.
#[derive(Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct OrgId(pub String);

impl OrgId {
    /// Construct from any string-like value.
    pub fn new(name: impl Into<String>) -> OrgId {
        OrgId(name.into())
    }
}

impl std::fmt::Display for OrgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// A certificate binding a user's keys to a name and organisation, signed
/// by the organisation's CA.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Enrolled user name (unique within the org).
    pub subject: String,
    /// Issuing organisation.
    pub org: OrgId,
    /// The user's Ed25519 verification key.
    pub signing_pub: [u8; 32],
    /// The user's X25519 public encryption key (the paper's `PubK_u`).
    pub encryption_pub: PublicKey,
    /// CA signature over the fields above.
    pub ca_signature: [u8; 64],
}

impl Certificate {
    /// The bytes the CA signs.
    pub fn to_signed_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_signed_to(&mut w);
        w.into_bytes()
    }

    /// Append the bytes the CA signs to an open writer (no copy).
    pub fn write_signed_to(&self, w: &mut Writer) {
        w.string(&self.subject)
            .string(&self.org.0)
            .array(&self.signing_pub)
            .array(self.encryption_pub.as_bytes());
    }

    /// Full wire encoding: the signed bytes plus the CA signature.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.write_to(&mut w);
        w.into_bytes()
    }

    /// Append the full wire encoding to an open writer (no copy): the
    /// signed bytes, then the CA signature.
    pub fn write_to(&self, w: &mut Writer) {
        self.write_signed_to(w);
        w.array(&self.ca_signature);
    }

    /// Decode the wire encoding produced by [`Certificate::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Certificate, FabricError> {
        let mut r = crate::wire::Reader::new(bytes);
        let cert = Self::read_from(&mut r)?;
        r.finish()?;
        Ok(cert)
    }

    /// Decode from an open reader (for embedding in larger messages).
    pub fn read_from(r: &mut crate::wire::Reader<'_>) -> Result<Certificate, FabricError> {
        Ok(Certificate {
            subject: r.string()?,
            org: OrgId(r.string()?),
            signing_pub: r.array::<32>()?,
            encryption_pub: PublicKey(r.array::<32>()?),
            ca_signature: r.array::<64>()?,
        })
    }
}

/// A user identity: certificate plus the private keys.
#[derive(Clone, Debug)]
pub struct Identity {
    cert: Certificate,
    signing: SigningKeyPair,
    encryption: EncryptionKeyPair,
}

impl Identity {
    /// The public certificate.
    pub fn cert(&self) -> &Certificate {
        &self.cert
    }

    /// Convenience: the user's name.
    pub fn name(&self) -> &str {
        &self.cert.subject
    }

    /// Convenience: the user's organisation.
    pub fn org(&self) -> &OrgId {
        &self.cert.org
    }

    /// The user's public encryption key (`PubK_u`).
    pub fn encryption_public(&self) -> PublicKey {
        self.cert.encryption_pub
    }

    /// Sign a message with the identity's signing key.
    pub fn sign(&self, message: &[u8]) -> [u8; 64] {
        self.signing.sign(message)
    }

    /// Sign one message with every identity's signing key, in order
    /// ([`SigningKeyPair::sign_many`]): each signature is the one
    /// [`Identity::sign`] gives.
    pub fn sign_many(identities: &[&Identity], message: &[u8]) -> Vec<[u8; 64]> {
        let keys: Vec<&SigningKeyPair> = identities.iter().map(|id| &id.signing).collect();
        SigningKeyPair::sign_many(&keys, message)
    }

    /// Decrypt a payload sealed to this identity's encryption key.
    pub fn open(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        ledgerview_crypto::keys::open(&self.encryption, ciphertext)
    }
}

struct OrgCa {
    ca: SigningKeyPair,
}

/// Certificates whose CA-signature verdict [`Msp::verify_cert`] remembers,
/// with the expanded signing key (10 KiB) once the holder has signed. A
/// deployment has a few endorsing peers and a bounded client population;
/// past this many the certificate memoised first is forgotten, and
/// verified again if it returns.
pub const CERT_MEMO_CAPACITY: usize = 1024;

/// Hit/miss counters of the certificate memo, for benchmarking and
/// diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
}

/// What the memo knows about one certificate.
#[derive(Clone)]
struct Certified {
    /// Whether the CA's signature holds.
    valid: bool,
    /// The holder's expanded signing key, built at its first signature.
    key: Option<Arc<VerifyingKey>>,
}

/// The certificate memo: entries keyed by a digest of the CA key, the
/// certificate's signed bytes and its CA signature — the same few
/// endorser certificates arrive with every proposal response.
#[derive(Default)]
struct CertMemo {
    entries: HashMap<[u8; 32], Certified>,
    /// Entry keys in the order they were first memoised: eviction order.
    order: VecDeque<[u8; 32]>,
    stats: CacheStats,
}

/// The key a certificate is memoised under.
fn memo_key(ca_key: &[u8; 32], signed: &[u8], ca_signature: &[u8; 64]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(ca_key);
    h.update(ca_signature);
    h.update(signed);
    h.finalize().0
}

/// The membership registry: organisation CAs and certificate verification.
#[derive(Default)]
pub struct Msp {
    orgs: HashMap<OrgId, OrgCa>,
    cert_memo: Mutex<CertMemo>,
}

impl Msp {
    /// An empty registry.
    pub fn new() -> Msp {
        Msp::default()
    }

    /// Create an organisation with a fresh CA key. Returns its id.
    ///
    /// # Panics
    /// Panics if the organisation already exists (deployment-time error).
    pub fn add_org<R: RngCore + ?Sized>(&mut self, name: &str, rng: &mut R) -> OrgId {
        let id = OrgId::new(name);
        assert!(
            !self.orgs.contains_key(&id),
            "organisation {name:?} already exists"
        );
        self.orgs.insert(
            id.clone(),
            OrgCa {
                ca: SigningKeyPair::generate(rng),
            },
        );
        id
    }

    /// Organisations registered, in sorted order.
    pub fn org_ids(&self) -> Vec<OrgId> {
        let mut ids: Vec<OrgId> = self.orgs.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Enroll a user with `org`, issuing a signed certificate.
    pub fn enroll<R: RngCore + ?Sized>(
        &self,
        org: &OrgId,
        subject: &str,
        rng: &mut R,
    ) -> Result<Identity, FabricError> {
        let ca = self
            .orgs
            .get(org)
            .ok_or_else(|| FabricError::AccessDenied(format!("unknown org {org}")))?;
        let signing = SigningKeyPair::generate(rng);
        let encryption = EncryptionKeyPair::generate(rng);
        let mut cert = Certificate {
            subject: subject.to_string(),
            org: org.clone(),
            signing_pub: signing.public(),
            encryption_pub: encryption.public(),
            ca_signature: [0u8; 64],
        };
        cert.ca_signature = ca.ca.sign(&cert.to_signed_bytes());
        Ok(Identity {
            cert,
            signing,
            encryption,
        })
    }

    /// The CA verification key for an organisation, or `None` if the
    /// organisation is not registered.
    pub fn ca_public_key(&self, org: &OrgId) -> Option<[u8; 32]> {
        self.orgs.get(org).map(|o| o.ca.public())
    }

    /// Verify that a certificate was issued by a registered organisation:
    /// `AccessDenied` if its organisation is not registered, `BadSignature`
    /// if the CA's signature does not hold. Each distinct certificate costs
    /// one signature verification; repeats are answered from a bounded memo
    /// of verdicts, valid or not.
    pub fn verify_cert(&self, cert: &Certificate) -> Result<(), FabricError> {
        self.certify(cert).map(|_| ())
    }

    /// Hits and misses of the certificate memo behind [`Msp::verify_cert`]
    /// since this registry was built.
    pub fn cert_memo_stats(&self) -> CacheStats {
        self.memo().stats
    }

    /// Verify a signature made by the holder of `cert`, checking the
    /// certificate chain first. The holder's key is expanded on its first
    /// signature and kept beside the certificate's verdict, so later ones
    /// take the short verification. A key that does not decode (off the
    /// curve, small order) is a bad signature and is not kept. This is
    /// [`Msp::verify_identity_signatures`] of the one entry.
    pub fn verify_identity_signature(
        &self,
        cert: &Certificate,
        message: &[u8],
        signature: &[u8; 64],
    ) -> Result<(), FabricError> {
        self.verify_identity_signatures(&[(cert, message, signature)])
            .swap_remove(0)
    }

    /// [`Msp::verify_identity_signature`] of every `(certificate,
    /// message, signature)`, in order. Every certificate is checked first;
    /// the signatures under the ones that hold are verified together
    /// ([`ed25519::verify_each`]), each by its own equation, so each
    /// verdict is the one a lone call gives.
    pub fn verify_identity_signatures(
        &self,
        signed: &[(&Certificate, &[u8], &[u8; 64])],
    ) -> Vec<Result<(), FabricError>> {
        let mut verdicts = Vec::with_capacity(signed.len());
        let mut keyed = Vec::with_capacity(signed.len());
        for (i, &(cert, message, signature)) in signed.iter().enumerate() {
            match self.holder_key(cert) {
                Ok(key) => {
                    verdicts.push(Ok(()));
                    keyed.push((i, key, message, signature));
                }
                Err(e) => verdicts.push(Err(e)),
            }
        }
        let entries: Vec<(&VerifyingKey, &[u8], &[u8; 64])> = keyed
            .iter()
            .map(|(_, key, message, signature)| (&**key, *message, *signature))
            .collect();
        for ((i, ..), verdict) in keyed.iter().zip(ed25519::verify_each(&entries)) {
            verdicts[*i] = verdict.map_err(|_| FabricError::BadSignature);
        }
        verdicts
    }

    /// The expanded signing key of `cert`'s holder, once the certificate
    /// chain holds: from the memo, or expanded now and kept beside the
    /// certificate's verdict.
    fn holder_key(&self, cert: &Certificate) -> Result<Arc<VerifyingKey>, FabricError> {
        let (memo_key, known) = self.certify(cert)?;
        if let Some(key) = known {
            return Ok(key);
        }
        let key =
            VerifyingKey::from_bytes(&cert.signing_pub).map_err(|_| FabricError::BadSignature)?;
        let key = Arc::new(key);
        self.remember(memo_key, true, Some(Arc::clone(&key)));
        Ok(key)
    }

    /// The CA verdict on `cert`, from the memo or checked and remembered
    /// now: on success, the certificate's memo key and its holder's
    /// expanded key if one was kept.
    fn certify(
        &self,
        cert: &Certificate,
    ) -> Result<([u8; 32], Option<Arc<VerifyingKey>>), FabricError> {
        let ca = self
            .orgs
            .get(&cert.org)
            .ok_or_else(|| FabricError::AccessDenied(format!("unknown org {}", cert.org)))?;
        let (ca_key, signed, sig) = (ca.ca.public(), cert.to_signed_bytes(), &cert.ca_signature);
        let memo_key = memo_key(&ca_key, &signed, sig);
        let known = {
            let mut memo = self.memo();
            let known = memo.entries.get(&memo_key).cloned();
            if known.is_some() {
                memo.stats.hits += 1;
            } else {
                memo.stats.misses += 1;
            }
            known
        };
        // Verify outside the lock: validator lanes share this memo.
        let entry = known.unwrap_or_else(|| {
            let valid = ledgerview_crypto::keys::verify_signature(&ca_key, &signed, sig).is_ok();
            self.remember(memo_key, valid, None);
            Certified { valid, key: None }
        });
        if entry.valid {
            Ok((memo_key, entry.key))
        } else {
            Err(FabricError::BadSignature)
        }
    }

    /// Store a verdict (and key) under `memo_key`; at capacity the entry
    /// memoised first makes room.
    fn remember(&self, memo_key: [u8; 32], valid: bool, key: Option<Arc<VerifyingKey>>) {
        let mut guard = self.memo();
        let memo = &mut *guard;
        if !memo.entries.contains_key(&memo_key) {
            if memo.entries.len() >= CERT_MEMO_CAPACITY {
                if let Some(oldest) = memo.order.pop_front() {
                    memo.entries.remove(&oldest);
                }
            }
            memo.order.push_back(memo_key);
        }
        memo.entries.insert(memo_key, Certified { valid, key });
    }

    fn memo(&self) -> MutexGuard<'_, CertMemo> {
        self.cert_memo.lock().expect("certificate memo poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ledgerview_crypto::rng::seeded;

    #[test]
    fn enroll_and_verify() {
        let mut rng = seeded(1);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1MSP", &mut rng);
        let alice = msp.enroll(&org, "alice", &mut rng).unwrap();
        msp.verify_cert(alice.cert()).unwrap();
        assert_eq!(alice.name(), "alice");
        assert_eq!(alice.org(), &org);
    }

    #[test]
    fn identity_signature_verifies() {
        let mut rng = seeded(2);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1MSP", &mut rng);
        let alice = msp.enroll(&org, "alice", &mut rng).unwrap();
        let sig = alice.sign(b"endorsement");
        msp.verify_identity_signature(alice.cert(), b"endorsement", &sig)
            .unwrap();
        assert!(msp
            .verify_identity_signature(alice.cert(), b"tampered", &sig)
            .is_err());
    }

    #[test]
    fn forged_cert_rejected() {
        let mut rng = seeded(3);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1MSP", &mut rng);
        let alice = msp.enroll(&org, "alice", &mut rng).unwrap();
        // Change the subject: CA signature no longer matches.
        let mut forged = alice.cert().clone();
        forged.subject = "mallory".into();
        assert!(msp.verify_cert(&forged).is_err());
        // Swap in an attacker signing key.
        let mut forged2 = alice.cert().clone();
        forged2.signing_pub = SigningKeyPair::generate(&mut rng).public();
        assert!(msp.verify_cert(&forged2).is_err());
    }

    #[test]
    fn cert_memo_remembers_verdicts_per_certificate_and_ca() {
        let mut rng = seeded(9);
        let mut msp = Msp::new();
        let org1 = msp.add_org("Org1MSP", &mut rng);
        let org2 = msp.add_org("Org2MSP", &mut rng);
        let alice = msp.enroll(&org1, "alice", &mut rng).unwrap();

        // One verification, then hits.
        for _ in 0..3 {
            msp.verify_cert(alice.cert()).unwrap();
        }
        let stats = msp.cert_memo_stats();
        assert_eq!((stats.misses, stats.hits), (1, 2));

        // A forged certificate is rejected the first time and every time
        // after: a cached `false` is as good as a fresh one, and the valid
        // certificate it was forged from does not vouch for it.
        let mut forged = alice.cert().clone();
        forged.encryption_pub = msp
            .enroll(&org1, "mallory", &mut rng)
            .unwrap()
            .encryption_public();
        for _ in 0..3 {
            assert!(matches!(
                msp.verify_cert(&forged),
                Err(FabricError::BadSignature)
            ));
        }
        let mut resigned = alice.cert().clone();
        resigned.ca_signature[7] ^= 1;
        assert!(msp.verify_cert(&resigned).is_err());
        assert!(msp.verify_cert(&resigned).is_err());

        // The same bytes presented under another organisation's CA are a
        // different question: the CA key is part of the memo key.
        let mut relabelled = alice.cert().clone();
        relabelled.org = org2;
        assert!(msp.verify_cert(&relabelled).is_err());
        msp.verify_cert(alice.cert()).unwrap();
        assert_eq!(msp.memo().entries.len(), 4);
    }

    #[test]
    fn cert_memo_replays_a_script_exactly() {
        // Nine certificates, every third forged, presented in a fixed
        // order with repeats: one miss per distinct certificate, a hit for
        // every repeat, and each verdict the same from memory as fresh.
        let mut rng = seeded(13);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1MSP", &mut rng);
        let certs: Vec<Certificate> = (1..=9u8)
            .map(|i| {
                let mut cert = msp.enroll(&org, &format!("u{i}"), &mut rng).unwrap().cert;
                if i % 3 == 0 {
                    cert.ca_signature[0] ^= 1;
                }
                cert
            })
            .collect();
        let script: [u8; 16] = [1, 2, 3, 1, 4, 5, 2, 6, 1, 7, 3, 3, 8, 1, 9, 2];
        for &i in &script {
            let verdict = msp.verify_cert(&certs[i as usize - 1]);
            assert_eq!(verdict.is_ok(), i % 3 != 0, "certificate {i}");
        }
        let (hits, misses) = (7, 9);
        assert_eq!(msp.cert_memo_stats(), CacheStats { hits, misses });
        assert_eq!(msp.memo().entries.len(), 9);
    }

    fn keys_held(msp: &Msp) -> usize {
        let memo = msp.memo();
        memo.entries.values().filter(|e| e.key.is_some()).count()
    }

    #[test]
    fn key_memo_holds_only_keys_of_verified_certificates() {
        let mut rng = seeded(10);
        let mut msp = Msp::new();
        let org1 = msp.add_org("Org1MSP", &mut rng);
        let org2 = msp.add_org("Org2MSP", &mut rng);
        let alice = msp.enroll(&org1, "alice", &mut rng).unwrap();
        let sig = alice.sign(b"endorsement");
        // Nothing is expanded at enrolment.
        assert_eq!(keys_held(&msp), 0);

        // Wrong fields under the CA's signature, a damaged CA signature,
        // another organisation's label: the signature itself is good, and
        // no key is kept for any of them.
        let mut forged = alice.cert().clone();
        forged.subject = "mallory".into();
        let mut resigned = alice.cert().clone();
        resigned.ca_signature[7] ^= 1;
        let mut relabelled = alice.cert().clone();
        relabelled.org = org2;
        for cert in [&forged, &resigned, &relabelled] {
            for _ in 0..2 {
                assert!(matches!(
                    msp.verify_identity_signature(cert, b"endorsement", &sig),
                    Err(FabricError::BadSignature)
                ));
            }
        }
        assert_eq!(keys_held(&msp), 0);

        // The real certificate's key is kept once, whatever the verdicts
        // on the signatures checked under it.
        for _ in 0..3 {
            msp.verify_identity_signature(alice.cert(), b"endorsement", &sig)
                .unwrap();
            assert!(msp
                .verify_identity_signature(alice.cert(), b"tampered", &sig)
                .is_err());
        }
        assert_eq!(keys_held(&msp), 1);
    }

    #[test]
    fn key_memo_is_bounded_and_evicted_keys_still_verify() {
        let mut rng = seeded(11);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1MSP", &mut rng);
        let users: Vec<Identity> = (0..CERT_MEMO_CAPACITY + 1)
            .map(|i| msp.enroll(&org, &format!("user{i}"), &mut rng).unwrap())
            .collect();
        // Two rounds: the second meets whichever keys the first evicted.
        for _ in 0..2 {
            for user in &users {
                let sig = user.sign(user.name().as_bytes());
                msp.verify_identity_signature(user.cert(), user.name().as_bytes(), &sig)
                    .unwrap();
                assert!(keys_held(&msp) <= CERT_MEMO_CAPACITY);
            }
        }
        assert_eq!(keys_held(&msp), CERT_MEMO_CAPACITY);
    }

    #[test]
    fn small_order_signing_key_in_a_valid_certificate_is_a_bad_signature() {
        let mut rng = seeded(12);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1MSP", &mut rng);
        let alice = msp.enroll(&org, "alice", &mut rng).unwrap();
        // The CA signs a certificate for the order-2 point (0, −1). With
        // R = the identity and s = 0 the verification equation would hold
        // for every message.
        let mut cert = alice.cert().clone();
        cert.signing_pub = [0xff; 32];
        cert.signing_pub[0] = 0xec;
        cert.signing_pub[31] = 0x7f;
        cert.ca_signature = msp.orgs[&org].ca.sign(&cert.to_signed_bytes());
        msp.verify_cert(&cert).unwrap();
        let mut universal = [0u8; 64];
        universal[0] = 1;
        assert!(matches!(
            msp.verify_identity_signature(&cert, b"anything", &universal),
            Err(FabricError::BadSignature)
        ));
        assert_eq!(keys_held(&msp), 0);
    }

    #[test]
    fn cert_from_unknown_org_rejected() {
        let mut rng = seeded(4);
        let mut msp_a = Msp::new();
        let org_a = msp_a.add_org("OrgA", &mut rng);
        let alice = msp_a.enroll(&org_a, "alice", &mut rng).unwrap();

        let msp_b = Msp::new();
        assert!(matches!(
            msp_b.verify_cert(alice.cert()),
            Err(FabricError::AccessDenied(_))
        ));
    }

    #[test]
    fn unknown_org_enroll_fails() {
        let msp = Msp::new();
        let mut rng = seeded(5);
        assert!(msp.enroll(&OrgId::new("nope"), "x", &mut rng).is_err());
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_org_panics() {
        let mut rng = seeded(6);
        let mut msp = Msp::new();
        msp.add_org("Org1", &mut rng);
        msp.add_org("Org1", &mut rng);
    }

    #[test]
    fn encryption_round_trip_via_identity() {
        let mut rng = seeded(7);
        let mut msp = Msp::new();
        let org = msp.add_org("Org1MSP", &mut rng);
        let bob = msp.enroll(&org, "bob", &mut rng).unwrap();
        let ct = ledgerview_crypto::keys::seal(&bob.encryption_public(), &mut rng, b"view key");
        assert_eq!(bob.open(&ct).unwrap(), b"view key");
    }

    #[test]
    fn org_ids_sorted() {
        let mut rng = seeded(8);
        let mut msp = Msp::new();
        msp.add_org("Zeta", &mut rng);
        msp.add_org("Alpha", &mut rng);
        let ids = msp.org_ids();
        assert_eq!(ids[0].0, "Alpha");
        assert_eq!(ids[1].0, "Zeta");
    }
}
