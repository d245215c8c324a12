//! AES block cipher (FIPS 197) with 128-, 192- and 256-bit keys.
//!
//! Encryption only: CTR mode ([`crate::ctr`]) never runs the inverse
//! cipher. This module owns the key schedule, which every path uses, and
//! the portable block function, [`Aes::encrypt_block`]. On x86-64 CPUs
//! with the AES instructions ([`hardware_accelerated`]), CTR runs its own
//! AES-NI body over these round keys instead, and `encrypt_block` is the
//! fallback elsewhere and the oracle the tests hold that body to.
//!
//! A portable round is the word-wise T-table form — the state is four
//! big-endian `u32` columns and SubBytes, ShiftRows and MixColumns of one
//! column are four lookups in `TE0` (`x ↦ (2·S[x], S[x], S[x], 3·S[x])`),
//! rotated into place and XORed; the last round, which has no MixColumns,
//! reads `SBOX`. One 1 KiB table plus rotations measured faster here than
//! four tables. The table is indexed by secret bytes exactly as the S-box
//! always was: this path is not constant-time (see the crate-level
//! disclaimer).
//!
//! The S-box and the table are *computed* at compile time from the GF(2⁸)
//! definition rather than transcribed, so there is nothing to mistype; the
//! FIPS 197 vectors pin the result, and the tests hold every block against
//! the per-byte textbook cipher (and its inverse) kept there as the oracle.

/// Multiply two elements of GF(2⁸) modulo the AES polynomial x⁸+x⁴+x³+x+1.
const fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

const fn build_sbox() -> [u8; 256] {
    // Multiplicative inverse by brute force (const context), then the
    // affine transform of FIPS 197 §5.1.1.
    let mut sbox = [0u8; 256];
    let mut x = 0usize;
    while x < 256 {
        let inv = if x == 0 {
            0u8
        } else {
            let mut c = 1usize;
            let mut found = 0u8;
            while c < 256 {
                if gmul(x as u8, c as u8) == 1 {
                    found = c as u8;
                    break;
                }
                c += 1;
            }
            found
        };
        let mut s = inv;
        let mut r = inv;
        let mut i = 0;
        while i < 4 {
            r = r.rotate_left(1);
            s ^= r;
            i += 1;
        }
        sbox[x] = s ^ 0x63;
        x += 1;
    }
    sbox
}

/// `TE0[x]` is the MixColumns image of a column holding `S[x]` in row 0:
/// `(2·S[x], S[x], S[x], 3·S[x])`, row 0 in the high byte. Rows 1–3 are its
/// rotations by 8, 16 and 24 bits.
const fn build_te0() -> [u32; 256] {
    let mut te0 = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        te0[x] = u32::from_be_bytes([gmul(s, 2), s, s, gmul(s, 3)]);
        x += 1;
    }
    te0
}

const SBOX: [u8; 256] = build_sbox();
static TE0: [u32; 256] = build_te0();

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES key schedule, ready for encryption.
#[derive(Clone)]
pub struct Aes {
    /// Round keys as 4-byte words; `4 * (rounds + 1)` words are used.
    round_keys: [u32; 60],
    rounds: usize,
}

impl Aes {
    /// Expand a 128-bit key (10 rounds).
    pub fn new_128(key: &[u8; 16]) -> Aes {
        Self::expand(key, 4, 10)
    }

    /// Expand a 192-bit key (12 rounds).
    pub fn new_192(key: &[u8; 24]) -> Aes {
        Self::expand(key, 6, 12)
    }

    /// Expand a 256-bit key (14 rounds).
    pub fn new_256(key: &[u8; 32]) -> Aes {
        Self::expand(key, 8, 14)
    }

    fn expand(key: &[u8], nk: usize, rounds: usize) -> Aes {
        let mut w = [0u32; 60];
        for (word, bytes) in w.iter_mut().zip(key.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        let total = 4 * (rounds + 1);
        for i in nk..total {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ ((RCON[i / nk - 1] as u32) << 24);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        Aes {
            round_keys: w,
            rounds,
        }
    }

    /// The `rounds + 1` round keys, round 0 first, each as the 16 bytes it
    /// XORs into the state: what the AES-NI body in [`crate::ctr`] loads.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn round_key_bytes(&self) -> impl Iterator<Item = [u8; 16]> + '_ {
        let (keys, _) = self.round_keys[..4 * (self.rounds + 1)].as_chunks::<4>();
        keys.iter().map(|words| {
            let mut bytes = [0u8; 16];
            for (out, word) in bytes.as_chunks_mut::<4>().0.iter_mut().zip(words) {
                *out = word.to_be_bytes();
            }
            bytes
        })
    }

    /// Encrypt a single 16-byte block in place with the T-table rounds: the
    /// block function of the portable CTR path, and the oracle for the
    /// AES-NI one.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let rk = &self.round_keys[..4 * (self.rounds + 1)];
        let (first, rest) = rk.split_at(4);
        let (middle, last) = rest.split_at(rest.len() - 4);
        // Column c of the state, row 0 in the high byte, as the round keys are.
        let mut s: [u32; 4] = std::array::from_fn(|c| {
            u32::from_be_bytes([
                block[4 * c],
                block[4 * c + 1],
                block[4 * c + 2],
                block[4 * c + 3],
            ]) ^ first[c]
        });
        // ShiftRows: row r of output column c comes from column c + r.
        for k in middle.chunks_exact(4) {
            s = std::array::from_fn(|c| {
                TE0[(s[c] >> 24) as usize]
                    ^ TE0[(s[(c + 1) % 4] >> 16) as usize & 0xff].rotate_right(8)
                    ^ TE0[(s[(c + 2) % 4] >> 8) as usize & 0xff].rotate_right(16)
                    ^ TE0[s[(c + 3) % 4] as usize & 0xff].rotate_right(24)
                    ^ k[c]
            });
        }
        for c in 0..4 {
            let word = u32::from_be_bytes([
                SBOX[(s[c] >> 24) as usize],
                SBOX[(s[(c + 1) % 4] >> 16) as usize & 0xff],
                SBOX[(s[(c + 2) % 4] >> 8) as usize & 0xff],
                SBOX[s[(c + 3) % 4] as usize & 0xff],
            ]) ^ last[c];
            block[4 * c..4 * c + 4].copy_from_slice(&word.to_be_bytes());
        }
    }
}

/// Whether this CPU runs AES-CTR on its AES instructions (x86-64
/// `aesenc` / `aesenclast`) rather than the T-table rounds. Both give
/// bit-identical keystreams; this only reports which one every
/// [`crate::ctr::apply_keystream`] takes.
pub fn hardware_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("aes") && is_x86_feature_detected!("sse2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn sub_word(w: u32) -> u32 {
    let b = w.to_be_bytes();
    u32::from_be_bytes([
        SBOX[b[0] as usize],
        SBOX[b[1] as usize],
        SBOX[b[2] as usize],
        SBOX[b[3] as usize],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    // The textbook cipher, one byte at a time, and its inverse: the oracle
    // the T-table rounds are held to. The state is laid out column-major:
    // byte `c*4 + r` is row r, column c.

    const INV_SBOX: [u8; 256] = {
        let mut inv = [0u8; 256];
        let mut i = 0;
        while i < 256 {
            inv[SBOX[i] as usize] = i as u8;
            i += 1;
        }
        inv
    };

    fn add_round_key(aes: &Aes, block: &mut [u8; 16], round: usize) {
        for c in 0..4 {
            let word = aes.round_keys[round * 4 + c].to_be_bytes();
            for r in 0..4 {
                block[c * 4 + r] ^= word[r];
            }
        }
    }

    fn encrypt_block_ref(aes: &Aes, block: &mut [u8; 16]) {
        add_round_key(aes, block, 0);
        for round in 1..aes.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(aes, block, round);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(aes, block, aes.rounds);
    }

    fn decrypt_block_ref(aes: &Aes, block: &mut [u8; 16]) {
        add_round_key(aes, block, aes.rounds);
        for round in (1..aes.rounds).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(aes, block, round);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(aes, block, 0);
    }

    fn sub_bytes(block: &mut [u8; 16]) {
        for b in block.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn inv_sub_bytes(block: &mut [u8; 16]) {
        for b in block.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    // ShiftRows rotates row r left by r positions.
    fn shift_rows(block: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [block[r], block[4 + r], block[8 + r], block[12 + r]];
            for c in 0..4 {
                block[c * 4 + r] = row[(c + r) % 4];
            }
        }
    }

    fn inv_shift_rows(block: &mut [u8; 16]) {
        for r in 1..4 {
            let row = [block[r], block[4 + r], block[8 + r], block[12 + r]];
            for c in 0..4 {
                block[c * 4 + r] = row[(c + 4 - r) % 4];
            }
        }
    }

    fn mix_columns(block: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                block[c * 4],
                block[c * 4 + 1],
                block[c * 4 + 2],
                block[c * 4 + 3],
            ];
            block[c * 4] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
            block[c * 4 + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
            block[c * 4 + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
            block[c * 4 + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
        }
    }

    fn inv_mix_columns(block: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                block[c * 4],
                block[c * 4 + 1],
                block[c * 4 + 2],
                block[c * 4 + 3],
            ];
            block[c * 4] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            block[c * 4 + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            block[c * 4 + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            block[c * 4 + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    #[test]
    fn sbox_known_entries() {
        // FIPS 197 Figure 7 spot checks.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
        assert_eq!(INV_SBOX[0x63], 0x00);
        assert_eq!(INV_SBOX[0xed], 0x53);
    }

    #[test]
    fn te0_is_the_mixed_sbox_column() {
        // S[0x00] = 0x63: (2·63, 63, 63, 3·63) = (c6, 63, 63, a5).
        assert_eq!(TE0[0x00], 0xc663_63a5);
        assert_eq!(TE0[0x01], 0xf87c_7c84);
    }

    fn block(hexstr: &str) -> [u8; 16] {
        hex::decode(hexstr).unwrap().try_into().unwrap()
    }

    /// FIPS 197 Appendix C.1–C.3: one plaintext under the 128-, 192- and
    /// 256-bit keys `00 01 02 …`. The T-table path and the reference must
    /// both produce the ciphertext, and the reference inverse recover it.
    #[test]
    fn fips197_appendix_c() {
        let key: Vec<u8> = (0u8..32).collect();
        let pt = "00112233445566778899aabbccddeeff";
        for (aes, ct) in [
            (
                Aes::new_128(key[..16].try_into().unwrap()),
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
            (
                Aes::new_192(key[..24].try_into().unwrap()),
                "dda97ca4864cdfe06eaf70a0ec0d7191",
            ),
            (
                Aes::new_256(key[..32].try_into().unwrap()),
                "8ea2b7ca516745bfeafc49904b496089",
            ),
        ] {
            let mut b = block(pt);
            aes.encrypt_block(&mut b);
            assert_eq!(hex::encode(&b), ct);
            let mut r = block(pt);
            encrypt_block_ref(&aes, &mut r);
            assert_eq!(hex::encode(&r), ct);
            decrypt_block_ref(&aes, &mut b);
            assert_eq!(hex::encode(&b), pt);
        }
    }

    // SP 800-38A single-block ECB vectors.
    #[test]
    fn sp800_38a_ecb_block() {
        let key: [u8; 16] = hex::decode("2b7e151628aed2a6abf7158809cf4f3c")
            .unwrap()
            .try_into()
            .unwrap();
        let aes = Aes::new_128(&key);
        let mut b = block("6bc1bee22e409f96e93d7e117393172a");
        aes.encrypt_block(&mut b);
        assert_eq!(hex::encode(&b), "3ad77bb40d7a3660a89ecaf32466ef97");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any key of any size, any block: the T-table rounds agree with
        /// the per-byte cipher, and the per-byte inverse undoes them.
        #[test]
        fn table_rounds_match_the_reference(
            key in any::<[u8; 32]>(),
            size in 0usize..3,
            pt in any::<[u8; 16]>(),
        ) {
            let aes = match size {
                0 => Aes::new_128(key[..16].try_into().unwrap()),
                1 => Aes::new_192(key[..24].try_into().unwrap()),
                _ => Aes::new_256(&key),
            };
            let mut fast = pt;
            aes.encrypt_block(&mut fast);
            let mut slow = pt;
            encrypt_block_ref(&aes, &mut slow);
            prop_assert_eq!(fast, slow);
            decrypt_block_ref(&aes, &mut fast);
            prop_assert_eq!(fast, pt);
        }
    }

    #[test]
    fn gmul_identities() {
        for x in 0..=255u8 {
            assert_eq!(gmul(x, 1), x);
            assert_eq!(gmul(x, 0), 0);
        }
        // x * x⁻¹ = 1 is implied by the S-box construction; spot-check 0x02·0x8d=1.
        assert_eq!(gmul(0x02, 0x8d), 0x01);
        assert_eq!(gmul(0x53, 0xca), 0x01);
    }
}
