//! Key types used across the workspace, and hybrid public-key encryption.
//!
//! The paper's notation maps onto this module as follows:
//!
//! | Paper | Here |
//! |---|---|
//! | per-transaction key `K_ij` (§4.1) | [`SymmetricKey`] |
//! | view key `K_V` | [`SymmetricKey`] |
//! | `PubK_u`, `PrivK_u` | [`EncryptionKeyPair`] / [`PublicKey`] |
//! | `enc(K_V, PubK_u)` | [`seal`] (ephemeral X25519 + AEAD) |
//! | endorsement signatures (substrate) | [`SigningKeyPair`] |

use std::fmt;
use std::sync::OnceLock;

use rand::RngCore;

use crate::aead;
use crate::ed25519;
use crate::error::CryptoError;
use crate::hkdf;
use crate::hmac::HmacKey;
use crate::rng::random_array;
use crate::x25519;

/// A 256-bit symmetric key (a transaction key `K_i` or a view key `K_V`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SymmetricKey(pub [u8; 32]);

impl SymmetricKey {
    /// Generate a fresh random key.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> SymmetricKey {
        SymmetricKey(random_array(rng))
    }

    /// Encrypt `plaintext` under this key. See [`crate::aead::seal_sym`].
    pub fn seal<R: RngCore + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        aead::seal_sym(&self.0, rng, plaintext)
    }

    /// Decrypt a ciphertext produced by [`SymmetricKey::seal`].
    pub fn open(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        aead::open_sym(&self.0, ciphertext)
    }

    /// Raw key bytes (e.g. for embedding in a view's key list).
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Reconstruct a key from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> SymmetricKey {
        SymmetricKey(bytes)
    }
}

impl fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "SymmetricKey(..)")
    }
}

/// An X25519 public key, the `PubK_u` of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub [u8; 32]);

impl PublicKey {
    /// Raw public key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Hex rendering, used as a user identifier in dissemination lists.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({}..)", &self.to_hex()[..12])
    }
}

/// An X25519 key pair used to receive sealed payloads (`PrivK_u`, `PubK_u`).
#[derive(Clone)]
pub struct EncryptionKeyPair {
    secret: [u8; 32],
    public: PublicKey,
}

impl EncryptionKeyPair {
    /// Generate a fresh key pair.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> EncryptionKeyPair {
        let secret: [u8; 32] = random_array(rng);
        let public = PublicKey(x25519::public_key(&secret));
        EncryptionKeyPair { secret, public }
    }

    /// The public half, safe to publish on the ledger.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Export the secret scalar. Used for *role keys* (§4.6 of the paper):
    /// the role's private key is itself sealed to each member's public key
    /// and disseminated, so members must be able to reconstruct the pair.
    pub fn secret_bytes(&self) -> &[u8; 32] {
        &self.secret
    }

    /// Reconstruct a key pair from an exported secret scalar.
    pub fn from_secret_bytes(secret: [u8; 32]) -> EncryptionKeyPair {
        let public = PublicKey(x25519::public_key(&secret));
        EncryptionKeyPair { secret, public }
    }
}

impl fmt::Debug for EncryptionKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EncryptionKeyPair(pub: {:?})", self.public)
    }
}

/// Hybrid public-key encryption: the `enc(m, PubK_u)` of the paper.
///
/// An ephemeral X25519 key pair is generated; the shared secret with the
/// recipient key is run through HKDF (bound to both public keys) to derive
/// an AEAD key; the output is `ephemeral_pk (32) || aead_ciphertext`.
pub fn seal<R: RngCore + ?Sized>(recipient: &PublicKey, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
    // Loop until the ephemeral key produces a contributory shared secret
    // (an all-zero secret only occurs for adversarial low-order keys).
    loop {
        let eph_secret: [u8; 32] = random_array(rng);
        let eph_public = x25519::public_key(&eph_secret);
        let Some(shared) = x25519::shared_secret(&eph_secret, &recipient.0) else {
            continue;
        };
        let key = derive_seal_key(&shared, &eph_public, &recipient.0);
        let mut out = Vec::with_capacity(32 + plaintext.len() + aead::OVERHEAD);
        out.extend_from_slice(&eph_public);
        out.extend_from_slice(&aead::seal_sym(&key, rng, plaintext));
        return out;
    }
}

/// Decrypt a payload produced by [`seal`] for this key pair.
pub fn open(recipient: &EncryptionKeyPair, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if ciphertext.len() < 32 + aead::OVERHEAD {
        return Err(CryptoError::DecryptionFailed);
    }
    let (eph_public, sealed) = ciphertext.split_at(32);
    let eph_public: [u8; 32] = std::array::from_fn(|i| eph_public[i]);
    let shared = x25519::shared_secret(&recipient.secret, &eph_public)
        .ok_or(CryptoError::DecryptionFailed)?;
    let key = derive_seal_key(&shared, &eph_public, &recipient.public.0);
    aead::open_sym(&key, sealed)
}

/// HKDF with an empty salt (keyed once per process) over the shared
/// secret, `info = "ledgerview-hybrid-v1" || eph_public || recipient`.
fn derive_seal_key(shared: &[u8; 32], eph_public: &[u8; 32], recipient: &[u8; 32]) -> [u8; 32] {
    static EMPTY_SALT: OnceLock<HmacKey> = OnceLock::new();
    let salt = EMPTY_SALT.get_or_init(|| HmacKey::new(b""));
    let prk = HmacKey::new(&salt.mac(&[shared]));
    let mut key = [0u8; 32];
    hkdf::expand_keyed(
        &prk,
        &[b"ledgerview-hybrid-v1", eph_public, recipient],
        &mut key,
    );
    key
}

/// An Ed25519 signing key pair, used by the Fabric substrate for
/// endorsements, block signatures and identity certificates.
#[derive(Clone)]
pub struct SigningKeyPair {
    key: ed25519::SigningKey,
}

impl SigningKeyPair {
    /// Generate a fresh signing key pair.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> SigningKeyPair {
        let seed: [u8; 32] = random_array(rng);
        SigningKeyPair {
            key: ed25519::SigningKey::from_seed(&seed),
        }
    }

    /// The 32-byte verification key.
    pub fn public(&self) -> [u8; 32] {
        self.key.public_key()
    }

    /// Sign a message.
    pub fn sign(&self, message: &[u8]) -> [u8; 64] {
        self.key.sign(message)
    }

    /// Sign one message with every key pair, in order
    /// ([`ed25519::sign_many`]): each signature is the one
    /// [`SigningKeyPair::sign`] gives.
    pub fn sign_many(pairs: &[&SigningKeyPair], message: &[u8]) -> Vec<[u8; 64]> {
        let keys: Vec<&ed25519::SigningKey> = pairs.iter().map(|p| &p.key).collect();
        ed25519::sign_many(&keys, message)
    }
}

impl fmt::Debug for SigningKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SigningKeyPair(pub: {}..)",
            &crate::hex::encode(&self.public())[..12]
        )
    }
}

/// Verify an Ed25519 signature (free function mirror of
/// [`SigningKeyPair::sign`]).
pub fn verify_signature(
    public: &[u8; 32],
    message: &[u8],
    signature: &[u8; 64],
) -> Result<(), CryptoError> {
    ed25519::verify(public, message, signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn hybrid_round_trip() {
        let mut rng = seeded(10);
        let bob = EncryptionKeyPair::generate(&mut rng);
        let ct = seal(&bob.public(), &mut rng, b"the view key K_V");
        assert_eq!(open(&bob, &ct).unwrap(), b"the view key K_V");
    }

    #[test]
    fn wrong_recipient_fails() {
        let mut rng = seeded(11);
        let bob = EncryptionKeyPair::generate(&mut rng);
        let eve = EncryptionKeyPair::generate(&mut rng);
        let ct = seal(&bob.public(), &mut rng, b"for bob only");
        assert!(open(&eve, &ct).is_err());
    }

    #[test]
    fn tampered_hybrid_fails() {
        let mut rng = seeded(12);
        let bob = EncryptionKeyPair::generate(&mut rng);
        let ct = seal(&bob.public(), &mut rng, b"data");
        for i in [0, 16, 31, 32, 48, ct.len() - 1] {
            let mut bad = ct.clone();
            bad[i] ^= 1;
            assert!(open(&bob, &bad).is_err(), "byte {i} tamper accepted");
        }
    }

    #[test]
    fn every_truncation_and_every_flipped_byte_is_an_error_never_a_panic() {
        let mut rng = seeded(18);
        let bob = EncryptionKeyPair::generate(&mut rng);
        let ct = seal(&bob.public(), &mut rng, b"K_V and then some bytes");
        assert!(open(&bob, &ct).is_ok());
        for len in 0..ct.len() {
            assert_eq!(open(&bob, &ct[..len]), Err(CryptoError::DecryptionFailed));
        }
        for i in 0..ct.len() {
            for bit in [0x01, 0x80] {
                let mut bad = ct.clone();
                bad[i] ^= bit;
                assert_eq!(
                    open(&bob, &bad),
                    Err(CryptoError::DecryptionFailed),
                    "byte {i} ^ {bit:#x} accepted"
                );
            }
        }
    }

    #[test]
    fn short_ciphertext_fails() {
        let mut rng = seeded(13);
        let bob = EncryptionKeyPair::generate(&mut rng);
        assert!(open(&bob, &[0u8; 10]).is_err());
        assert!(open(&bob, &[]).is_err());
    }

    #[test]
    fn signing_round_trip() {
        let mut rng = seeded(14);
        let kp = SigningKeyPair::generate(&mut rng);
        let sig = kp.sign(b"endorse: tx-123");
        verify_signature(&kp.public(), b"endorse: tx-123", &sig).unwrap();
        assert!(verify_signature(&kp.public(), b"endorse: tx-124", &sig).is_err());
    }

    #[test]
    fn symmetric_key_round_trip() {
        let mut rng = seeded(15);
        let k = SymmetricKey::generate(&mut rng);
        let ct = k.seal(&mut rng, b"secret part");
        assert_eq!(k.open(&ct).unwrap(), b"secret part");
        let other = SymmetricKey::generate(&mut rng);
        assert!(other.open(&ct).is_err());
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        let mut rng = seeded(16);
        let k = SymmetricKey::generate(&mut rng);
        let rendered = format!("{k:?}");
        assert!(!rendered.contains(&crate::hex::encode(k.as_bytes())[..8]));
    }

    #[test]
    fn distinct_seals_of_same_plaintext_differ() {
        let mut rng = seeded(17);
        let bob = EncryptionKeyPair::generate(&mut rng);
        let c1 = seal(&bob.public(), &mut rng, b"same");
        let c2 = seal(&bob.public(), &mut rng, b"same");
        assert_ne!(c1, c2);
    }
}
