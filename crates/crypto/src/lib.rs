//! From-scratch cryptographic primitives for the LedgerView reproduction.
//!
//! LedgerView (SIGMOD 2022) conceals the secret part of blockchain
//! transactions with symmetric encryption or salted hashing, and distributes
//! view keys with public-key encryption. This crate implements every
//! primitive the system needs, with no external crypto dependencies:
//!
//! * [`mod@sha256`], [`mod@sha512`] — FIPS 180-4 hash functions; SHA-256
//!   runs on the CPU's SHA extensions where it has them.
//! * [`hmac`] — RFC 2104 message authentication over SHA-256
//!   ([`hmac::HmacKey`]: key once, tag many).
//! * [`hkdf`] — RFC 5869 key derivation.
//! * [`aes`] — FIPS 197 block cipher (128/192/256-bit keys), encryption
//!   direction: the key schedule, and the T-table rounds that are the
//!   portable fallback and the oracle.
//! * [`ctr`] — NIST SP 800-38A counter mode; runs on the CPU's AES
//!   instructions, eight blocks per pass, where it has them.
//! * [`aead`] — authenticated encryption (AES-256-CTR + HMAC-SHA-256,
//!   encrypt-then-MAC), the `enc(·, K)` of the paper; an
//!   [`aead::AeadKey`] holds everything derived from one key so a view's
//!   entries are sealed and opened without re-deriving it.
//! * [`x25519`] — RFC 7748 Diffie–Hellman, used for hybrid public-key
//!   encryption (`enc(K_V, PubK_u)` in the paper); its ladder runs on four
//!   lanes of the CPU's 52-bit multiply-add (AVX-512 IFMA) where it has it.
//! * [`ed25519`] — RFC 8032 signatures, used for endorsements in the
//!   Fabric substrate; its point arithmetic runs on the same four IFMA
//!   lanes where the CPU has them, two independent signatures or checks
//!   side by side ([`ed25519::sign_many`], [`ed25519::verify_each`]).
//! * [`keys`] — the key types the rest of the workspace uses:
//!   [`keys::SymmetricKey`], [`keys::EncryptionKeyPair`] (with
//!   [`keys::seal`]/[`keys::open`] hybrid encryption) and
//!   [`keys::SigningKeyPair`].
//!
//! Every primitive is pinned by the published test vectors of its defining
//! standard, plus property-based round-trip tests.
//!
//! # Unsafe code
//!
//! The crate is `#![deny(unsafe_code)]` with exactly four exemptions, one
//! call each into a `#[target_feature]` function of safe `std::arch`
//! intrinsics:
//!
//! * in [`mod@sha256`], into its SHA-extension compression body;
//! * in [`ctr`], into its AES-NI keystream body;
//! * in [`x25519`], into its AVX-512 IFMA ladder body;
//! * in [`ed25519`], into its AVX-512 IFMA body (point loops and the
//!   exponentiation of point decompression).
//!
//! Each call is made only after `is_x86_feature_detected!` has seen every
//! feature its body is compiled for; on other CPUs the portable code runs
//! ([`sha256::hardware_accelerated`], [`aes::hardware_accelerated`] and
//! [`x25519::hardware_accelerated`] say which; the last one also answers
//! for Ed25519, whose body needs the same features). Nothing else here is
//! `unsafe`, and the root package's `tests/unsafe_inventory.rs` keeps it
//! that way across the workspace.
//!
//! # Security disclaimer
//!
//! This code is written for clarity and reproduction fidelity. It is **not**
//! hardened against side channels (it is not constant-time) and must not be
//! used to protect real data. A few secret-dependent steps are branch-free,
//! and only these: the AES-NI path of [`ctr`] makes no secret-indexed table
//! lookups (the T-table fallback does); both X25519 ladder bodies swap
//! their ends by mask, not by branch; and the final reduction of a field
//! element to bytes (X25519's output, and every Ed25519 encoding) selects
//! by mask. That is still no constant-time promise: the Ed25519
//! scalar multiplications branch and index tables on secret digits, the
//! compiler is free to reintroduce branches, and no part of the crate has
//! been checked for timing leaks.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod aes;
pub mod ctr;
pub mod ed25519;
pub mod error;
mod field;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod rng;
pub mod sha256;
pub mod sha512;
pub mod x25519;

pub use aead::{open_sym, seal_sym};
pub use error::CryptoError;
pub use keys::{open, seal, EncryptionKeyPair, PublicKey, SigningKeyPair, SymmetricKey};
pub use sha256::{sha256, Digest, Sha256};
