//! CRC-32 (IEEE 802.3 polynomial, reflected) — the record checksum used by
//! every on-disk frame in this crate and by every SSTable frame in
//! `ledgerview-statedb`. Same checksum LevelDB and Fabric's block files
//! use for record integrity (they mask it; we don't, since our frames
//! never store a CRC of a CRC).
//!
//! # Two bodies, one dispatch
//!
//! [`crc32`] runs the whole buffer through one of two bodies:
//!
//! * on x86-64 CPUs with `pclmulqdq` and SSE4.1, carry-less multiplies
//!   fold 64 bytes per step in four independent 128-bit lanes, then fold
//!   the lanes into one and end in a Barrett reduction (Gopal et al.,
//!   "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
//!   Instruction", Intel, 2009; the reflected-polynomial constants are
//!   zlib's `crc32_simd`). Buffers under 64 bytes and the last fewer than
//!   16 bytes of longer ones go through the table loop below;
//! * everywhere else, [`crc32_portable`]: slicing-by-8, eight 256-entry
//!   lookup tables generated at compile time from the reversed polynomial
//!   `0xEDB88320`, consuming eight input bytes per iteration with
//!   independent table lookups instead of a serial one-lookup-per-byte
//!   dependency chain. It is also the oracle the unit tests hold the
//!   hardware body to.
//!
//! The body is chosen at run time with `is_x86_feature_detected!`; there
//! is no feature flag, setting or environment variable, and both bodies
//! give bit-identical checksums. [`hardware_accelerated`] says which one
//! this CPU runs. The call into the hardware body is the crate's one
//! `unsafe` block (see the crate docs).

/// Eight lookup tables: `TABLES[0]` is the classic byte-at-a-time table,
/// `TABLES[k]` advances a byte through `k` additional zero bytes.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Whether this CPU computes [`crc32`] with carry-less multiplies (x86-64
/// `pclmulqdq` plus SSE4.1) rather than the lookup tables. Both give
/// bit-identical checksums; this only reports which one every frame takes.
pub fn hardware_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// CRC-32 of `data` (IEEE, reflected, init `!0`, final xor `!0`), on the
/// body this CPU supports.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if hardware_accelerated() {
        // SAFETY: `hardware_accelerated` has just seen pclmulqdq and sse4.1
        // on this CPU: every feature `crc32_pclmul` enables.
        #[allow(unsafe_code)]
        unsafe {
            return crc32_pclmul(data);
        }
    }
    crc32_portable(data)
}

/// The slicing-by-8 loop: the body on CPUs without carry-less multiplies
/// and the oracle for the hardware one.
pub fn crc32_portable(data: &[u8]) -> u32 {
    !update_sliced(!0, data)
}

/// [`crc32`] of `prefix` followed by `data`, given `crc` = `crc32(prefix)`:
/// a running checksum, advanced on the tables.
pub(crate) fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    !update_sliced(!crc, data)
}

/// Advance a running (pre-inverted) CRC over `data` with the tables.
fn update_sliced(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        crc ^= u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(crc & 0xFF) as usize]
            ^ TABLES[6][((crc >> 8) & 0xFF) as usize]
            ^ TABLES[5][((crc >> 16) & 0xFF) as usize]
            ^ TABLES[4][(crc >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc
}

/// The same checksum on carry-less multiplies. Every 16-byte block is a
/// 128-bit polynomial; four lanes fold 64 bytes per step (`x·k1 ⊕ next`
/// with `k1k2` = x^(4·128±32) mod P), fold into one lane with `k3k4`
/// (x^(128±32) mod P) and take any remaining whole blocks one at a time.
/// The 128-bit remainder shrinks to 64 bits, then `k5` (x^64 mod P) and a
/// Barrett reduction by `P` and `μ` = ⌊x^64 / P⌋ leave the 32-bit CRC;
/// the tables finish the last fewer than 16 bytes from there.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_pclmul(data: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    if data.len() < 64 {
        return crc32_portable(data);
    }
    // Byte 0 in the low lane, as a 16-byte memory load would put it.
    let load = |bytes: &[u8; 16]| {
        let (halves, _) = bytes.as_chunks::<8>();
        _mm_set_epi64x(i64::from_le_bytes(halves[1]), i64::from_le_bytes(halves[0]))
    };
    // `x ← x.lo·k.lo ⊕ x.hi·k.hi ⊕ next`: one fold across 128 bits.
    let fold = |x: __m128i, k: __m128i, next: __m128i| {
        _mm_xor_si128(
            _mm_xor_si128(
                _mm_clmulepi64_si128(x, k, 0x00),
                _mm_clmulepi64_si128(x, k, 0x11),
            ),
            next,
        )
    };
    let k1k2 = _mm_set_epi64x(0x01_c6e4_1596, 0x01_5444_2bd4);
    let k3k4 = _mm_set_epi64x(0x00_ccaa_009e, 0x01_7519_97d0);
    let k5 = _mm_set_epi64x(0, 0x01_63cd_6124);
    let poly_mu = _mm_set_epi64x(0x01_f701_1641, 0x01_db71_0641);
    let low32 = _mm_setr_epi32(!0, 0, !0, 0);

    let (blocks, tail) = data.as_chunks::<16>();
    let (first, rest) = blocks.split_at(4);
    let mut lanes = [
        _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(!0)),
        load(&first[1]),
        load(&first[2]),
        load(&first[3]),
    ];
    let (quads, singles) = rest.as_chunks::<4>();
    for quad in quads {
        for (lane, block) in lanes.iter_mut().zip(quad) {
            *lane = fold(*lane, k1k2, load(block));
        }
    }
    let mut x = fold(lanes[0], k3k4, lanes[1]);
    x = fold(x, k3k4, lanes[2]);
    x = fold(x, k3k4, lanes[3]);
    for block in singles {
        x = fold(x, k3k4, load(block));
    }

    // 128 → 64 bits: the low half times k4, into the high half.
    x = _mm_xor_si128(_mm_srli_si128(x, 8), _mm_clmulepi64_si128(x, k3k4, 0x10));
    // 64 → 32 bits: the low 32 bits times k5, into the rest.
    x = _mm_xor_si128(
        _mm_srli_si128(x, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00),
    );
    // Barrett: q = (x mod x^32)·μ, then x ⊕ (q mod x^32)·P leaves the CRC
    // in bits 32..64.
    let q = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly_mu, 0x10);
    let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
    let crc = _mm_extract_epi32(_mm_xor_si128(x, r), 1) as u32;
    !update_sliced(crc, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Body = fn(&[u8]) -> u32;

    /// The bodies this CPU can run: the table loop, and the carry-less
    /// multiply body — reached through the dispatch, which takes it
    /// whenever `hardware_accelerated`.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&'static str, Body)> = vec![("portable", crc32_portable)];
        if hardware_accelerated() {
            bodies.push(("pclmulqdq", crc32));
        } else {
            eprintln!("no carry-less multiply on this CPU: the hardware body is skipped");
        }
        bodies
    }

    /// `n` pseudo-random bytes (xorshift64*, fixed seed).
    fn noise(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        let long = vec![b'a'; 1000];
        for (name, body) in bodies() {
            // Standard check value for "123456789".
            assert_eq!(body(b"123456789"), 0xCBF4_3926, "{name}");
            assert_eq!(body(b""), 0, "{name}");
            assert_eq!(body(b"a"), 0xE8B7_BE43, "{name}");
            // Long enough for every part of the folding path: 15 64-byte
            // steps, two single 16-byte folds and an 8-byte tail.
            assert_eq!(body(&long), 0x9A38_DA03, "{name}");
        }
    }

    #[test]
    fn extending_a_prefix_is_the_checksum_of_the_whole() {
        let data = noise(300, 5);
        let mut running = 0;
        for (i, &byte) in data.iter().enumerate() {
            assert_eq!(running, crc32(&data[..i]), "prefix {i}");
            running = crc32_extend(running, &[byte]);
        }
        assert_eq!(running, crc32(&data));
        assert_eq!(crc32_extend(crc32(&data[..77]), &data[77..]), crc32(&data));
    }

    #[test]
    fn sensitive_to_every_byte() {
        let base = crc32(b"hello world");
        for i in 0..11 {
            let mut tampered = b"hello world".to_vec();
            tampered[i] ^= 1;
            assert_ne!(crc32(&tampered), base, "flip at byte {i} undetected");
        }
        let long = noise(300, 3);
        let base = crc32(&long);
        for i in 0..long.len() {
            let mut tampered = long.clone();
            tampered[i] ^= 1 << (i % 8);
            assert_ne!(crc32(&tampered), base, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn sliced_matches_byte_at_a_time_on_all_lengths() {
        // The slicing path only engages past 8 bytes; check every length
        // across the chunk boundary against the reference scalar loop.
        let data: Vec<u8> = (0..64u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(11))
            .collect();
        for len in 0..data.len() {
            let mut crc = !0u32;
            for &byte in &data[..len] {
                crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
            }
            assert_eq!(
                crc32_portable(&data[..len]),
                !crc,
                "mismatch at length {len}"
            );
        }
    }

    /// On a CPU with carry-less multiplies the dispatch must take them: a
    /// detection that quietly fell back to the tables would pass every
    /// checksum test and lose the speed.
    #[test]
    fn dispatch_takes_pclmulqdq_when_present() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
            assert!(hardware_accelerated());
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!hardware_accelerated());
    }

    /// The dispatched body against the table loop: every length 0..=1024
    /// at four misalignments, then random lengths up to 1 MiB.
    #[test]
    fn hardware_body_matches_table_loop() {
        if !hardware_accelerated() {
            eprintln!("no carry-less multiply on this CPU: hardware comparison skipped");
            return;
        }
        let data = noise((1 << 20) + 3, 0xc3c3);
        for offset in 0..4 {
            for len in 0..=1024 {
                let slice = &data[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_portable(slice),
                    "len={len} offset={offset}"
                );
            }
        }
        let lengths = noise(64, 0x1e4);
        for pair in lengths.chunks_exact(4) {
            let len = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]) as usize % (1 << 20);
            let slice = &data[3..3 + len];
            assert_eq!(crc32(slice), crc32_portable(slice), "len={len}");
        }
    }
}
