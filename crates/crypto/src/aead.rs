//! Authenticated encryption: AES-256-CTR + HMAC-SHA-256, encrypt-then-MAC.
//!
//! This is the `enc(data, K)` used throughout the paper: transactions'
//! secret parts (§4.1), view key lists (§4.1), `V_access` entries (§4.2),
//! and view storage payloads (§4.3) are all sealed with this construction.
//!
//! Wire format: `nonce (16) || ciphertext (len(pt)) || tag (32)`.
//! The tag authenticates `nonce || aad || ciphertext` with the lengths of
//! `aad` bound into the MAC input, so the same bytes cannot be reinterpreted
//! across contexts.
//!
//! # What is derived once
//!
//! Everything that depends only on the 32-byte key lives in an [`AeadKey`]:
//! the HKDF subkeys (`extract` under the constant salt, itself keyed once
//! per process, then `expand` of `"enc"` and `"mac"` under one keyed PRK),
//! the AES-256 round keys and the MAC's two pad states — 10 SHA-256
//! compressions and one key schedule. A message then costs
//! `⌈len / 16⌉` AES blocks — eight per pass on the CPU's AES instructions
//! where it has them, a few ns each, else ≈ 90 ns each on the T-table
//! rounds ([`crate::ctr`]) — and `⌈(24 + aad + len + 9) / 64⌉ + 1`
//! compressions. A view message seals every entry under the one `K_V`
//! (§4.1–§4.4), so callers that walk a view build the `AeadKey` once;
//! the free functions below are the same code keyed per call, for the
//! one-message keys (`K_i`, hybrid session keys).

use std::fmt;
use std::sync::OnceLock;

use rand::RngCore;

use crate::aes::Aes;
use crate::ctr;
use crate::error::CryptoError;
use crate::hkdf;
use crate::hmac::{verify_tag, HmacKey};

/// Size of the random nonce prefix.
pub const NONCE_LEN: usize = 16;
/// Size of the HMAC-SHA-256 tag suffix.
pub const TAG_LEN: usize = 32;
/// Total ciphertext expansion: `NONCE_LEN + TAG_LEN`.
pub const OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// A 32-byte symmetric key expanded for use: independent encryption and
/// MAC subkeys derived from it, as an AES-256 key schedule and a keyed HMAC.
#[derive(Clone)]
pub struct AeadKey {
    aes: Aes,
    mac: HmacKey,
}

impl AeadKey {
    /// Derive the subkeys of `key` and expand them.
    pub fn new(key: &[u8; 32]) -> AeadKey {
        static SALT: OnceLock<HmacKey> = OnceLock::new();
        let salt = SALT.get_or_init(|| HmacKey::new(b"ledgerview-aead-v1"));
        let prk = HmacKey::new(&salt.mac(&[key]));
        let mut enc = [0u8; 32];
        hkdf::expand_keyed(&prk, &[b"enc"], &mut enc);
        let mut mac = [0u8; 32];
        hkdf::expand_keyed(&prk, &[b"mac"], &mut mac);
        AeadKey {
            aes: Aes::new_256(&enc),
            mac: HmacKey::new(&mac),
        }
    }

    fn tag(&self, nonce: &[u8], aad: &[u8], ct: &[u8]) -> [u8; 32] {
        let aad_len = (aad.len() as u64).to_be_bytes();
        self.mac.mac(&[nonce, &aad_len, aad, ct])
    }

    /// Encrypt `plaintext`, binding optional associated data `aad` into
    /// the authentication tag. Draws the 16-byte nonce from `rng`.
    pub fn seal<R: RngCore + ?Sized>(&self, rng: &mut R, plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);

        let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(plaintext);
        ctr::apply_keystream(&self.aes, &nonce, &mut out[NONCE_LEN..]);

        let tag = self.tag(&nonce, aad, &out[NONCE_LEN..]);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypt and authenticate a ciphertext produced by [`AeadKey::seal`]
    /// under the same key and `aad`.
    pub fn open(&self, ciphertext: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        if ciphertext.len() < OVERHEAD {
            return Err(CryptoError::DecryptionFailed);
        }
        let (nonce, rest) = ciphertext.split_at(NONCE_LEN);
        let (ct, tag) = rest.split_at(rest.len() - TAG_LEN);
        if !verify_tag(&self.tag(nonce, aad, ct), tag) {
            return Err(CryptoError::DecryptionFailed);
        }
        let nonce: [u8; NONCE_LEN] = std::array::from_fn(|i| nonce[i]);
        let mut pt = ct.to_vec();
        ctr::apply_keystream(&self.aes, &nonce, &mut pt);
        Ok(pt)
    }
}

impl fmt::Debug for AeadKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "AeadKey(..)")
    }
}

/// Encrypt `plaintext` under a 32-byte symmetric key, binding optional
/// associated data `aad` into the authentication tag.
pub fn seal_sym_aad<R: RngCore + ?Sized>(
    key: &[u8; 32],
    rng: &mut R,
    plaintext: &[u8],
    aad: &[u8],
) -> Vec<u8> {
    AeadKey::new(key).seal(rng, plaintext, aad)
}

/// Decrypt and authenticate a ciphertext produced by [`seal_sym_aad`].
pub fn open_sym_aad(key: &[u8; 32], ciphertext: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
    AeadKey::new(key).open(ciphertext, aad)
}

/// Encrypt without associated data. See [`seal_sym_aad`].
pub fn seal_sym<R: RngCore + ?Sized>(key: &[u8; 32], rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
    seal_sym_aad(key, rng, plaintext, &[])
}

/// Decrypt without associated data. See [`open_sym_aad`].
pub fn open_sym(key: &[u8; 32], ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
    open_sym_aad(key, ciphertext, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn round_trip() {
        let key = [42u8; 32];
        let mut rng = seeded(1);
        let ct = seal_sym(&key, &mut rng, b"the secret part of a transaction");
        assert_eq!(ct.len(), 32 + OVERHEAD);
        let pt = open_sym(&key, &ct).unwrap();
        assert_eq!(pt, b"the secret part of a transaction");
    }

    #[test]
    fn empty_plaintext() {
        let key = [1u8; 32];
        let ct = seal_sym(&key, &mut seeded(2), b"");
        assert_eq!(open_sym(&key, &ct).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn wrong_key_fails() {
        let ct = seal_sym(&[1u8; 32], &mut seeded(3), b"data");
        assert_eq!(
            open_sym(&[2u8; 32], &ct),
            Err(CryptoError::DecryptionFailed)
        );
    }

    #[test]
    fn tamper_any_byte_fails() {
        let key = [5u8; 32];
        let ct = seal_sym(&key, &mut seeded(4), b"tamper-evidence");
        for i in 0..ct.len() {
            let mut bad = ct.clone();
            bad[i] ^= 0x01;
            assert!(open_sym(&key, &bad).is_err(), "byte {i} tamper accepted");
        }
    }

    #[test]
    fn truncated_fails() {
        let key = [6u8; 32];
        let ct = seal_sym(&key, &mut seeded(5), b"data");
        for len in 0..OVERHEAD.min(ct.len()) {
            assert!(open_sym(&key, &ct[..len]).is_err());
        }
        assert!(open_sym(&key, &ct[..ct.len() - 1]).is_err());
    }

    #[test]
    fn aad_is_bound() {
        let key = [7u8; 32];
        let ct = seal_sym_aad(&key, &mut seeded(6), b"payload", b"tid-42");
        assert!(open_sym_aad(&key, &ct, b"tid-42").is_ok());
        assert!(open_sym_aad(&key, &ct, b"tid-43").is_err());
        assert!(open_sym_aad(&key, &ct, b"").is_err());
    }

    #[test]
    fn nonces_differ_between_seals() {
        let key = [8u8; 32];
        let mut rng = seeded(7);
        let c1 = seal_sym(&key, &mut rng, b"same plaintext");
        let c2 = seal_sym(&key, &mut rng, b"same plaintext");
        assert_ne!(c1, c2, "nonce reuse");
        assert_eq!(open_sym(&key, &c1).unwrap(), open_sym(&key, &c2).unwrap());
    }

    #[test]
    fn one_key_seals_and_opens_many_messages_like_the_one_shot_path() {
        let raw = [9u8; 32];
        let key = AeadKey::new(&raw);
        let (mut keyed_rng, mut one_shot_rng) = (seeded(8), seeded(8));
        for len in [0usize, 1, 16, 17, 100] {
            let pt = vec![len as u8; len];
            let ct = key.seal(&mut keyed_rng, &pt, b"tid");
            assert_eq!(ct, seal_sym_aad(&raw, &mut one_shot_rng, &pt, b"tid"));
            assert_eq!(key.open(&ct, b"tid").unwrap(), pt);
            assert_eq!(open_sym_aad(&raw, &ct, b"tid").unwrap(), pt);
            assert!(key.open(&ct, b"tie").is_err());
        }
    }

    #[test]
    fn debug_does_not_leak_key_material() {
        assert_eq!(format!("{:?}", AeadKey::new(&[3u8; 32])), "AeadKey(..)");
    }
}
