//! Property-based tests for the cryptographic primitives.

use ledgerview_crypto::keys::{EncryptionKeyPair, SigningKeyPair};
use ledgerview_crypto::rng::seeded;
use ledgerview_crypto::sha256::{sha256, Sha256};
use ledgerview_crypto::sha512::sha512;
use ledgerview_crypto::{aead, ed25519, hex, hkdf, hmac, x25519};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming hashing equals one-shot hashing for any split.
    #[test]
    fn sha256_streaming_equivalence(data in proptest::collection::vec(any::<u8>(), 0..2048), split in any::<usize>()) {
        let split = if data.is_empty() { 0 } else { split % data.len() };
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// SHA-256 and SHA-512 never collide on the inputs we generate (a
    /// sanity property: distinct inputs hash distinctly).
    #[test]
    fn hashes_distinguish_inputs(a in proptest::collection::vec(any::<u8>(), 0..256),
                                 b in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(a != b);
        prop_assert_ne!(sha256(&a), sha256(&b));
        prop_assert_ne!(sha512(&a).0.to_vec(), sha512(&b).0.to_vec());
    }

    /// AEAD round trip for arbitrary keys, plaintexts and AAD; any flipped
    /// bit is rejected.
    #[test]
    fn aead_round_trip_and_tamper(
        key in any::<[u8; 32]>(),
        pt in proptest::collection::vec(any::<u8>(), 0..512),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
        seed in any::<u64>(),
        flip in any::<(usize, u8)>(),
    ) {
        let mut rng = seeded(seed);
        let ct = aead::seal_sym_aad(&key, &mut rng, &pt, &aad);
        prop_assert_eq!(aead::open_sym_aad(&key, &ct, &aad).unwrap(), pt);

        let (pos, bit) = flip;
        let mut bad = ct.clone();
        bad[pos % ct.len()] ^= 1 << (bit % 8);
        if bad != ct {
            prop_assert!(aead::open_sym_aad(&key, &bad, &aad).is_err());
        }
    }

    /// Hybrid public-key encryption round trips; other key pairs fail.
    #[test]
    fn hybrid_round_trip(pt in proptest::collection::vec(any::<u8>(), 0..256), seed in any::<u64>()) {
        let mut rng = seeded(seed);
        let me = EncryptionKeyPair::generate(&mut rng);
        let other = EncryptionKeyPair::generate(&mut rng);
        let ct = ledgerview_crypto::seal(&me.public(), &mut rng, &pt);
        prop_assert_eq!(ledgerview_crypto::open(&me, &ct).unwrap(), pt);
        prop_assert!(ledgerview_crypto::open(&other, &ct).is_err());
    }

    /// X25519 Diffie–Hellman agreement for random scalars.
    #[test]
    fn x25519_agreement(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
        let pa = x25519::public_key(&a);
        let pb = x25519::public_key(&b);
        let sa = x25519::x25519(&a, &pb);
        let sb = x25519::x25519(&b, &pa);
        prop_assert_eq!(sa, sb);
    }

    /// Ed25519 signatures verify and are message-bound.
    #[test]
    fn ed25519_sign_verify(msg in proptest::collection::vec(any::<u8>(), 0..256),
                           tweak in proptest::collection::vec(any::<u8>(), 0..256),
                           seed in any::<u64>()) {
        let mut rng = seeded(seed);
        let kp = SigningKeyPair::generate(&mut rng);
        let sig = kp.sign(&msg);
        prop_assert!(ledgerview_crypto::keys::verify_signature(&kp.public(), &msg, &sig).is_ok());
        if tweak != msg {
            prop_assert!(
                ledgerview_crypto::keys::verify_signature(&kp.public(), &tweak, &sig).is_err()
            );
        }
    }

    /// HMAC is key- and message-sensitive.
    #[test]
    fn hmac_sensitivity(k1 in any::<[u8; 16]>(), k2 in any::<[u8; 16]>(),
                        m1 in proptest::collection::vec(any::<u8>(), 0..128),
                        m2 in proptest::collection::vec(any::<u8>(), 0..128)) {
        if k1 != k2 {
            prop_assert_ne!(hmac::hmac_sha256(&k1, &m1), hmac::hmac_sha256(&k2, &m1));
        }
        if m1 != m2 {
            prop_assert_ne!(hmac::hmac_sha256(&k1, &m1), hmac::hmac_sha256(&k1, &m2));
        }
    }

    /// HKDF expansion has the prefix property and is info-sensitive.
    #[test]
    fn hkdf_properties(ikm in proptest::collection::vec(any::<u8>(), 1..64)) {
        let prk = hkdf::extract(b"salt", &ikm);
        let mut long = [0u8; 64];
        hkdf::expand(&prk, b"ctx", &mut long);
        let mut short = [0u8; 16];
        hkdf::expand(&prk, b"ctx", &mut short);
        prop_assert_eq!(&long[..16], &short[..]);
        let mut other = [0u8; 16];
        hkdf::expand(&prk, b"ctx2", &mut other);
        prop_assert_ne!(short, other);
    }

    /// Hex round trips.
    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An expanded `VerifyingKey` and the one-shot `verify` give the same
    /// verdict on a signature, on every single-bit flip of it, and on every
    /// single-bit flip of the key — where "the key does not expand" and
    /// "nothing verifies under these bytes" must coincide.
    #[test]
    fn verifying_key_agrees_with_verify(seed in any::<[u8; 32]>(),
                                        msg in proptest::collection::vec(any::<u8>(), 0..=256)) {
        let key = ed25519::SigningKey::from_seed(&seed);
        let pk = key.public_key();
        let sig = key.sign(&msg);
        let expanded = ed25519::VerifyingKey::from_bytes(&pk).unwrap();
        prop_assert_eq!(expanded.as_bytes(), &pk);
        prop_assert!(expanded.verify(&msg, &sig).is_ok());
        prop_assert!(ed25519::verify(&pk, &msg, &sig).is_ok());

        // More valid signatures under the one key, so that every entry of
        // the chunk tables is read by some case.
        let mut longer = msg.clone();
        for suffix in 0..32u8 {
            longer.push(suffix);
            let sig = key.sign(&longer);
            prop_assert!(expanded.verify(&longer, &sig).is_ok(), "suffix {}", suffix);
            prop_assert!(ed25519::verify(&pk, &longer, &sig).is_ok(), "suffix {}", suffix);
        }

        for bit in 0..512 {
            let mut forged = sig;
            forged[bit / 8] ^= 1 << (bit % 8);
            let one_shot = ed25519::verify(&pk, &msg, &forged).is_ok();
            prop_assert_eq!(expanded.verify(&msg, &forged).is_ok(), one_shot, "signature bit {}", bit);
            prop_assert!(!one_shot, "signature bit {}", bit);
        }
        let mut undecodable = 0;
        for bit in 0..256 {
            let mut other = pk;
            other[bit / 8] ^= 1 << (bit % 8);
            let one_shot = ed25519::verify(&other, &msg, &sig).is_ok();
            match ed25519::VerifyingKey::from_bytes(&other) {
                Ok(k) => prop_assert_eq!(k.verify(&msg, &sig).is_ok(), one_shot, "key bit {}", bit),
                Err(_) => {
                    undecodable += 1;
                    prop_assert!(!one_shot, "key bit {}", bit);
                }
            }
        }
        // About half of all y are off the curve.
        prop_assert!((64..192).contains(&undecodable), "{} of 256 flipped keys rejected", undecodable);
    }
}
