//! HKDF (RFC 5869) over HMAC-SHA-256.
//!
//! Used to derive symmetric keys from X25519 shared secrets in the hybrid
//! public-key encryption of [`crate::keys`], and to rotate view keys.
//!
//! Expand keys the PRK once ([`HmacKey`]) and feeds `T(i-1) | info | i`
//! to it in parts, so an output block costs its message's compressions
//! plus one and allocates nothing.

use crate::hmac::{hmac_sha256, HmacKey};

/// HKDF-Extract: derive a pseudorandom key from input keying material.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand: derive `out.len()` bytes of output keying material.
///
/// # Panics
/// Panics if more than `255 * 32` bytes are requested (RFC 5869 limit).
pub fn expand(prk: &[u8; 32], info: &[u8], out: &mut [u8]) {
    expand_keyed(&HmacKey::new(prk), &[info], out);
}

/// [`expand`] under an already-keyed PRK, with `info` given as the parts
/// of its concatenation — callers deriving several outputs from one PRK,
/// or assembling `info` from fields, key and concatenate nothing twice.
pub(crate) fn expand_keyed(prk: &HmacKey, info: &[&[u8]], out: &mut [u8]) {
    assert!(out.len() <= 255 * 32, "HKDF output too long");
    let mut t = [0u8; 32];
    for (i, chunk) in out.chunks_mut(32).enumerate() {
        let mut inner = prk.start();
        if i > 0 {
            inner.update(&t);
        }
        for part in info {
            inner.update(part);
        }
        // At most 255 chunks (asserted above), so the counter fits.
        inner.update(&[i as u8 + 1]);
        t = prk.finish(inner);
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// One-shot HKDF: extract then expand into a fixed-size output.
pub fn derive<const N: usize>(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; N] {
    let prk = extract(salt, ikm);
    let mut out = [0u8; N];
    expand(&prk, info, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 5869 Test Case 1.
    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex::encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        );
    }

    // RFC 5869 Test Case 2: 80-byte inputs, 82-byte output — three
    // chained blocks through the keyed expand.
    #[test]
    fn rfc5869_case2() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex::encode(&prk),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
        );
        let okm = "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
                   59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
                   cc30c58179ec3e87c14c01d5c1f3434f1d87";
        assert_eq!(hex::encode(&derive::<82>(&salt, &ikm, &info)), okm);
        // `info` cut into parts at any point derives the same bytes.
        let mut parts = [0u8; 82];
        expand_keyed(
            &HmacKey::new(&prk),
            &[&info[..7], &[], &info[7..]],
            &mut parts,
        );
        assert_eq!(hex::encode(&parts), okm);
    }

    // RFC 5869 Test Case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case3() {
        let ikm = [0x0bu8; 22];
        let prk = extract(&[], &ikm);
        let mut okm = [0u8; 42];
        expand(&prk, &[], &mut okm);
        assert_eq!(
            hex::encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn derive_is_extract_then_expand() {
        let out: [u8; 32] = derive(b"salt", b"ikm", b"info");
        let prk = extract(b"salt", b"ikm");
        let mut manual = [0u8; 32];
        expand(&prk, b"info", &mut manual);
        assert_eq!(out, manual);
    }

    #[test]
    fn different_info_different_keys() {
        let a: [u8; 32] = derive(b"s", b"k", b"view-key");
        let b: [u8; 32] = derive(b"s", b"k", b"mac-key");
        assert_ne!(a, b);
    }

    #[test]
    fn multi_block_expand() {
        let prk = extract(b"salt", b"ikm");
        let mut long = [0u8; 100];
        expand(&prk, b"info", &mut long);
        // First 32 bytes must match a 32-byte expansion (prefix property).
        let mut short = [0u8; 32];
        expand(&prk, b"info", &mut short);
        assert_eq!(&long[..32], &short);
    }
}
