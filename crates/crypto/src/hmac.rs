//! HMAC (RFC 2104) over SHA-256.
//!
//! Used by the [`crate::aead`] module for encrypt-then-MAC authentication
//! and by [`crate::hkdf`] for key derivation.
//!
//! The key-dependent work is done once, in [`HmacKey::new`]: the key is
//! padded into the ipad and opad blocks and each is compressed into a
//! SHA-256 state (2 compressions; 3 for a key longer than a block).
//! [`HmacKey::mac`] clones the two states, so a tag costs the message's
//! own blocks in the inner hash plus one outer compression — for the
//! short messages the view layer seals, 2 compressions instead of 4.

use crate::sha256::{sha256, Sha256};

const BLOCK: usize = 64;

/// An HMAC-SHA-256 key with the pad blocks already absorbed: the inner and
/// outer hash states every tag under this key starts from.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Key the MAC. Keys longer than the 64-byte block are hashed first.
    pub fn new(key: &[u8]) -> HmacKey {
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&key_block.map(|b| b ^ pad));
            h
        };
        HmacKey {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// The tag of the concatenation of `parts`, without materializing it.
    pub fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.start();
        for p in parts {
            inner.update(p);
        }
        self.finish(inner)
    }

    /// The inner hash, keyed and ready to absorb a message.
    pub(crate) fn start(&self) -> Sha256 {
        self.inner.clone()
    }

    /// Close an inner hash obtained from [`HmacKey::start`] into its tag.
    pub(crate) fn finish(&self, inner: Sha256) -> [u8; 32] {
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize().0
    }
}

/// Compute HMAC-SHA-256 of `message` under `key`.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    hmac_sha256_multi(key, &[message])
}

/// HMAC-SHA-256 over the concatenation of several message parts, without
/// materializing the concatenation.
pub fn hmac_sha256_multi(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    HmacKey::new(key).mac(parts)
}

/// Constant-shape equality check for MAC tags.
///
/// Compares all bytes regardless of where the first mismatch occurs so the
/// comparison result does not leak a prefix length. (The rest of the crate is
/// not constant-time; this is the one place where a timing oracle would be
/// trivially exploitable, so we close it.)
pub fn verify_tag(expected: &[u8], actual: &[u8]) -> bool {
    if expected.len() != actual.len() {
        return false;
    }
    let mut acc = 0u8;
    for (a, b) in expected.iter().zip(actual.iter()) {
        acc |= a ^ b;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    const CASE7_MSG: &[u8] = b"This is a test using a larger than block-size key and a larger \
        than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";

    /// RFC 4231 test cases 1–4, 6 and 7 (case 5 is a truncated tag):
    /// `(key, message, HMAC-SHA-256)`.
    fn rfc4231() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                (1..=25).collect(),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            // Keys longer than the block size are hashed first.
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                CASE7_MSG.to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    #[test]
    fn rfc4231_vectors() {
        for (key, msg, tag) in rfc4231() {
            assert_eq!(hex::encode(&hmac_sha256(&key, &msg)), tag);
        }
    }

    #[test]
    fn one_key_macs_many_messages_in_any_split() {
        // Cases 6 and 7 share a key: one `HmacKey`, several messages, each
        // fed in parts cut at every position (crossing the 64-byte block).
        let key = HmacKey::new(&[0xaa; 131]);
        for (_, msg, tag) in &rfc4231()[4..] {
            for cut in 0..=msg.len() {
                let (a, b) = msg.split_at(cut);
                assert_eq!(hex::encode(&key.mac(&[a, &[], b])), *tag);
            }
        }
        // Using the key did not disturb it.
        assert_eq!(key.mac(&[b"x"]), hmac_sha256(&[0xaa; 131], b"x"));
    }

    #[test]
    fn multi_part_matches_joined() {
        let key = b"some-key";
        let joined = hmac_sha256(key, b"hello world");
        let parts = hmac_sha256_multi(key, &[b"hello", b" ", b"world"]);
        assert_eq!(joined, parts);
    }

    #[test]
    fn verify_tag_semantics() {
        assert!(verify_tag(b"abcd", b"abcd"));
        assert!(!verify_tag(b"abcd", b"abce"));
        assert!(!verify_tag(b"abcd", b"abc"));
        assert!(verify_tag(b"", b""));
    }
}
