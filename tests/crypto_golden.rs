//! Golden bytes for the symmetric layer: every ciphertext, hybrid seal and
//! HKDF output below is a pure function of a seed, and on-chain bytes, state
//! roots and `stored_bytes_per_op` depend on them. The digest was pinned on
//! the tree *before* `AeadKey`/`HmacKey`/T-table AES existed; a change to
//! `crates/crypto` that moves it has changed the wire format or the order
//! in which the RNG is drawn.

use ledgerview::crypto::keys::{self, EncryptionKeyPair, SymmetricKey};
use ledgerview::crypto::rng::seeded;
use ledgerview::crypto::{aead, hkdf, sha256};

const GOLDEN: &str = "72768a1140c3ecca1c63f205e17728253d31046749ae035988b1394a8248475c";

#[test]
fn sealed_script_hashes_to_the_pinned_digest() {
    let mut rng = seeded(0x001e_d6e7);
    let key: [u8; 32] = std::array::from_fn(|i| (i as u8).wrapping_mul(13) ^ 0x5a);
    let aad = b"tid-golden-0001";
    let mut out = Vec::new();

    for len in [0usize, 1, 15, 16, 17, 32, 64, 100, 2_700] {
        let pt: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();
        let ct = aead::seal_sym_aad(&key, &mut rng, &pt, aad);
        assert_eq!(ct.len(), len + aead::OVERHEAD);
        assert_eq!(aead::open_sym_aad(&key, &ct, aad).unwrap(), pt);
        out.extend_from_slice(&ct);
    }

    // The no-AAD entry points (the per-transaction `K_i` path).
    let ct = aead::seal_sym(&key, &mut rng, b"secret part of a transaction");
    assert_eq!(
        aead::open_sym(&key, &ct).unwrap(),
        b"secret part of a transaction"
    );
    out.extend_from_slice(&ct);
    let k = SymmetricKey::from_bytes(key);
    let ct = k.seal(&mut rng, b"another secret");
    assert_eq!(k.open(&ct).unwrap(), b"another secret");
    out.extend_from_slice(&ct);

    // `enc(K_V, PubK_u)`: one hybrid seal to a generated key pair.
    let bob = EncryptionKeyPair::generate(&mut rng);
    let ct = keys::seal(&bob.public(), &mut rng, key.as_slice());
    assert_eq!(keys::open(&bob, &ct).unwrap(), key);
    out.extend_from_slice(&ct);

    // HKDF at one block, a block and a bit, and four blocks.
    out.extend_from_slice(&hkdf::derive::<32>(b"golden-salt", &key, b"info"));
    out.extend_from_slice(&hkdf::derive::<42>(b"golden-salt", &key, b"info"));
    out.extend_from_slice(&hkdf::derive::<100>(b"", &key, b""));

    assert_eq!(sha256(&out).to_hex(), GOLDEN);
}
