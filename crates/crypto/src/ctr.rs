//! AES counter mode (NIST SP 800-38A §6.5).
//!
//! CTR turns the AES block cipher into a stream cipher; encryption and
//! decryption are the same XOR-with-keystream operation.
//!
//! # Two bodies, one dispatch
//!
//! Every seal and open in the workspace ends in [`apply_keystream`], which
//! runs the whole message through one of two bodies:
//!
//! * on x86-64 CPUs with the AES instructions, `aesenc` / `aesenclast` on
//!   eight independent counter blocks per pass, with the round keys loaded
//!   once per call (Gueron, "Intel Advanced Encryption Standard (AES) New
//!   Instructions Set") — the path Go's `crypto/aes` (the paper's
//!   substrate) takes on amd64. It makes no secret-indexed table lookups;
//! * everywhere else, one block at a time through the T-table
//!   [`Aes::encrypt_block`]. It is also the oracle the unit tests hold the
//!   hardware body to.
//!
//! The body is chosen at run time with `is_x86_feature_detected!`
//! ([`crate::aes::hardware_accelerated`]); there is no feature flag,
//! setting or environment variable, and both bodies give bit-identical
//! output. The key schedule is [`Aes`]'s either way. The call into the
//! hardware body is one of the crate's two `unsafe` blocks (see the crate
//! docs).

use crate::aes::Aes;

/// XOR `data` in place with the AES-CTR keystream starting at `iv`, on the
/// body this CPU supports.
///
/// The 16-byte `iv` is treated as a big-endian 128-bit counter incremented
/// once per block, wrapping at 2¹²⁸, exactly as in SP 800-38A.
pub fn apply_keystream(aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::aes::hardware_accelerated() {
        // SAFETY: `hardware_accelerated` has just seen aes and sse2 on this
        // CPU: every feature `apply_keystream_aes_ni` enables.
        #[allow(unsafe_code)]
        unsafe {
            apply_keystream_aes_ni(aes, iv, data)
        };
        return;
    }
    apply_keystream_portable(aes, iv, data);
}

/// One T-table block per 16 bytes: the body on CPUs without the AES
/// instructions and the oracle for the hardware one.
fn apply_keystream_portable(aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
    let mut counter = *iv;
    for chunk in data.chunks_mut(16) {
        let mut keystream = counter;
        aes.encrypt_block(&mut keystream);
        for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
            *d ^= k;
        }
        increment(&mut counter);
    }
}

/// Counter blocks the AES-NI body encrypts per pass: eight independent
/// `aesenc` chains keep the AES unit busy across the instruction's latency.
#[cfg(target_arch = "x86_64")]
const PASS_BLOCKS: usize = 8;

/// The same keystream on the x86-64 AES instructions. Block `i` of `data`
/// is XORed with the encryption of `iv + i` mod 2¹²⁸, as the portable
/// `increment` gives; a short last pass, partial block included, runs the
/// same rounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "aes,sse2")]
fn apply_keystream_aes_ni(aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
    use std::arch::x86_64::*;
    // Byte 0 in the low lane, as a 16-byte memory load would put it.
    let load = |bytes: [u8; 16]| {
        let (halves, _) = bytes.as_chunks::<8>();
        _mm_set_epi64x(i64::from_le_bytes(halves[1]), i64::from_le_bytes(halves[0]))
    };
    let store = |block: __m128i| {
        let low = _mm_cvtsi128_si64(block) as u64;
        let high = _mm_cvtsi128_si64(_mm_unpackhi_epi64(block, block)) as u64;
        (u128::from(high) << 64 | u128::from(low)).to_le_bytes()
    };
    let mut keys = [_mm_setzero_si128(); 15];
    let mut rounds = 0;
    for (round, (key, bytes)) in keys.iter_mut().zip(aes.round_key_bytes()).enumerate() {
        *key = load(bytes);
        rounds = round;
    }
    let counter = u128::from_be_bytes(*iv);
    for (pass, chunk) in data.chunks_mut(16 * PASS_BLOCKS).enumerate() {
        let first = pass * PASS_BLOCKS;
        let mut blocks: [__m128i; PASS_BLOCKS] = std::array::from_fn(|i| {
            let ctr = counter.wrapping_add((first + i) as u128);
            _mm_xor_si128(load(ctr.to_be_bytes()), keys[0])
        });
        for key in &keys[1..rounds] {
            for block in &mut blocks {
                *block = _mm_aesenc_si128(*block, *key);
            }
        }
        for block in &mut blocks {
            *block = _mm_aesenclast_si128(*block, keys[rounds]);
        }
        for (bytes, keystream) in chunk.chunks_mut(16).zip(blocks) {
            match bytes.as_chunks_mut::<16>() {
                ([full], _) => *full = store(_mm_xor_si128(load(*full), keystream)),
                (_, partial) => {
                    for (d, k) in partial.iter_mut().zip(store(keystream)) {
                        *d ^= k;
                    }
                }
            }
        }
    }
}

/// Increment a 128-bit big-endian counter, wrapping on overflow.
fn increment(counter: &mut [u8; 16]) {
    for byte in counter.iter_mut().rev() {
        let (v, overflow) = byte.overflowing_add(1);
        *byte = v;
        if !overflow {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use rand::RngCore;

    type Body = fn(&Aes, &[u8; 16], &mut [u8]);

    /// The bodies this CPU can run: the portable loop, and the AES-NI
    /// body — reached through the dispatch, which takes it whenever
    /// `hardware_accelerated`.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&'static str, Body)> = vec![("portable", apply_keystream_portable)];
        if crate::aes::hardware_accelerated() {
            bodies.push(("aes-ni", apply_keystream));
        } else {
            eprintln!("no AES instructions on this CPU: the hardware body is skipped");
        }
        bodies
    }

    const F5_PLAINTEXT: &str = "6bc1bee22e409f96e93d7e117393172a\
                                ae2d8a571e03ac9c9eb76fac45af8e51\
                                30c81c46a35ce411e5fbc1191a0a52ef\
                                f69f2445df4f9b17ad2b417be66c3710";

    /// One SP 800-38A F.5 vector (initial counter `f0f1…feff`) through
    /// each body, both ways: decryption is the same operation.
    fn check_f5(aes: Aes, ciphertext: &str) {
        let iv: [u8; 16] = hex::decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .unwrap()
            .try_into()
            .unwrap();
        for (name, body) in bodies() {
            let mut data = hex::decode(F5_PLAINTEXT).unwrap();
            body(&aes, &iv, &mut data);
            assert_eq!(hex::encode(&data), ciphertext, "{name}");
            body(&aes, &iv, &mut data);
            assert_eq!(hex::encode(&data), F5_PLAINTEXT, "{name}");
        }
    }

    fn key<const N: usize>(hexstr: &str) -> [u8; N] {
        hex::decode(hexstr).unwrap().try_into().unwrap()
    }

    /// SP 800-38A F.5.1/F.5.2: AES-128-CTR, four blocks.
    #[test]
    fn sp800_38a_f5_aes128_ctr() {
        check_f5(
            Aes::new_128(&key("2b7e151628aed2a6abf7158809cf4f3c")),
            "874d6191b620e3261bef6864990db6ce\
             9806f66b7970fdff8617187bb9fffdff\
             5ae4df3edbd5d35e5b4f09020db03eab\
             1e031dda2fbe03d1792170a0f3009cee",
        );
    }

    /// SP 800-38A F.5.3: AES-192-CTR, four blocks.
    #[test]
    fn sp800_38a_f5_aes192_ctr() {
        check_f5(
            Aes::new_192(&key("8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b")),
            "1abc932417521ca24f2b0459fe7e6e0b\
             090339ec0aa6faefd5ccc2c6f4ce8e94\
             1e36b26bd1ebc670d1bd1d665620abf7\
             4f78a7f6d29809585a97daec58c6b050",
        );
    }

    /// SP 800-38A F.5.5: AES-256-CTR, four blocks.
    #[test]
    fn sp800_38a_f5_aes256_ctr() {
        check_f5(
            Aes::new_256(&key(
                "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            )),
            "601ec313775789a5b7a7f504bbf3d228\
             f443e3ca4d62b59aca84e990cacaf5c5\
             2b0930daa23de94ce87017ba2d84988d\
             dfc9c58db67aada613c2dd08457941a6",
        );
    }

    /// On a CPU with the AES instructions the dispatch must take them: a
    /// detection that quietly fell back to the T-table rounds would pass
    /// every keystream test and lose the speed.
    #[test]
    fn dispatch_takes_aes_ni_when_present() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("aes") {
            assert!(crate::aes::hardware_accelerated());
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!crate::aes::hardware_accelerated());
    }

    /// The dispatched body against the portable loop: all three key sizes,
    /// every length 0..=300 plus 2 700 and 16 384, from a random counter,
    /// from one whose low 64 bits wrap three blocks in (inside the first
    /// eight-block pass), and from one that wraps all 128 bits there.
    #[test]
    fn hardware_body_matches_portable_loop() {
        if !crate::aes::hardware_accelerated() {
            eprintln!("no AES instructions on this CPU: hardware comparison skipped");
            return;
        }
        let mut rng = crate::rng::seeded(0xae5c7);
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        let mut random_iv = [0u8; 16];
        rng.fill_bytes(&mut random_iv);
        let low_wrap = (u128::from(rng.next_u64()) << 64 | u128::from(u64::MAX - 2)).to_be_bytes();
        let full_wrap = (u128::MAX - 2).to_be_bytes();
        let mut plaintext = vec![0u8; 16_384];
        rng.fill_bytes(&mut plaintext);
        for aes in [
            Aes::new_128(key[..16].try_into().unwrap()),
            Aes::new_192(key[..24].try_into().unwrap()),
            Aes::new_256(&key),
        ] {
            for iv in [random_iv, low_wrap, full_wrap] {
                for len in (0..=300).chain([2_700, 16_384]) {
                    let mut portable = plaintext[..len].to_vec();
                    apply_keystream_portable(&aes, &iv, &mut portable);
                    let mut dispatched = plaintext[..len].to_vec();
                    apply_keystream(&aes, &iv, &mut dispatched);
                    assert_eq!(dispatched, portable, "len={len} iv={}", hex::encode(&iv));
                }
            }
        }
    }

    #[test]
    fn partial_block() {
        let aes = Aes::new_128(&[1u8; 16]);
        let iv = [0u8; 16];
        let mut data = b"hello".to_vec();
        apply_keystream(&aes, &iv, &mut data);
        assert_ne!(&data, b"hello");
        apply_keystream(&aes, &iv, &mut data);
        assert_eq!(&data, b"hello");
    }

    #[test]
    fn counter_wraps() {
        let mut c = [0xffu8; 16];
        increment(&mut c);
        assert_eq!(c, [0u8; 16]);

        let mut c2 = [0u8; 16];
        c2[15] = 0xff;
        increment(&mut c2);
        assert_eq!(c2[15], 0);
        assert_eq!(c2[14], 1);
    }

    #[test]
    fn empty_input_is_noop() {
        let aes = Aes::new_128(&[1u8; 16]);
        let mut data: Vec<u8> = vec![];
        apply_keystream(&aes, &[0u8; 16], &mut data);
        assert!(data.is_empty());
    }
}
