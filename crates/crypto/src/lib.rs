//! From-scratch cryptographic primitives for the LedgerView reproduction.
//!
//! LedgerView (SIGMOD 2022) conceals the secret part of blockchain
//! transactions with symmetric encryption or salted hashing, and distributes
//! view keys with public-key encryption. This crate implements every
//! primitive the system needs, with no external crypto dependencies:
//!
//! * [`mod@sha256`], [`mod@sha512`] — FIPS 180-4 hash functions.
//! * [`hmac`] — RFC 2104 message authentication over SHA-256
//!   ([`hmac::HmacKey`]: key once, tag many).
//! * [`hkdf`] — RFC 5869 key derivation.
//! * [`aes`] — FIPS 197 block cipher (128/192/256-bit keys), encryption
//!   direction, T-table rounds.
//! * [`ctr`] — NIST SP 800-38A counter mode.
//! * [`aead`] — authenticated encryption (AES-256-CTR + HMAC-SHA-256,
//!   encrypt-then-MAC), the `enc(·, K)` of the paper; an
//!   [`aead::AeadKey`] holds everything derived from one key so a view's
//!   entries are sealed and opened without re-deriving it.
//! * [`x25519`] — RFC 7748 Diffie–Hellman, used for hybrid public-key
//!   encryption (`enc(K_V, PubK_u)` in the paper).
//! * [`ed25519`] — RFC 8032 signatures, used for endorsements in the
//!   Fabric substrate.
//! * [`keys`] — the key types the rest of the workspace uses:
//!   [`keys::SymmetricKey`], [`keys::EncryptionKeyPair`] (with
//!   [`keys::seal`]/[`keys::open`] hybrid encryption) and
//!   [`keys::SigningKeyPair`].
//!
//! Every primitive is pinned by the published test vectors of its defining
//! standard, plus property-based round-trip tests.
//!
//! # Security disclaimer
//!
//! This code is written for clarity and reproduction fidelity. It is **not**
//! hardened against side channels (it is not constant-time) and must not be
//! used to protect real data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod aes;
pub mod ctr;
pub mod ed25519;
pub mod error;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod rng;
pub mod sha256;
pub mod sha512;
pub mod sigcache;
pub mod x25519;

pub use aead::{open_sym, seal_sym};
pub use error::CryptoError;
pub use keys::{open, seal, EncryptionKeyPair, PublicKey, SigningKeyPair, SymmetricKey};
pub use sha256::{sha256, Digest, Sha256};
pub use sigcache::{CacheKey, CacheStats, SigCache};
