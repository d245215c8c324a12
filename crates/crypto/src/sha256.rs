//! SHA-256 (FIPS 180-4).
//!
//! LedgerView stores `h(t[S] || salt)` on the ledger in the hash-based view
//! methods (§4.3–§4.4 of the paper), and the Fabric substrate uses SHA-256
//! for block hashes, transaction identifiers and Merkle trees.
//!
//! # Two compression bodies, one dispatch
//!
//! Every hash in the workspace ends in one private `compress_blocks`,
//! which runs a whole run of 64-byte blocks through one of two bodies:
//!
//! * on x86-64 CPUs with the SHA extensions, `sha256rnds2` /
//!   `sha256msg1` / `sha256msg2` with the state held in two registers
//!   across the run — the path Go's `crypto/sha256` (the paper's
//!   substrate) takes on amd64;
//! * everywhere else, the portable FIPS 180-4 rounds. They are also the
//!   oracle the unit tests hold the hardware body to.
//!
//! The body is chosen at run time with `is_x86_feature_detected!`; there
//! is no feature flag, setting or environment variable, and both bodies
//! give bit-identical digests. [`hardware_accelerated`] says which one
//! this CPU runs. The call into the hardware body is one of the crate's
//! three `unsafe` blocks (see the crate docs).

use std::fmt;

/// A 32-byte SHA-256 digest.
///
/// Used throughout the workspace as block hashes, state digests and
/// commitment values.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the previous-hash of the genesis block.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        crate::hex::encode(&self.0)
    }

    /// Parse a digest from a 64-character hex string.
    pub fn from_hex(s: &str) -> Option<Digest> {
        let bytes = crate::hex::decode(s)?;
        let arr: [u8; 32] = bytes.try_into().ok()?;
        Some(Digest(arr))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use ledgerview_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes of the current, not-yet-compressed block.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Top up a partially-filled buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, std::slice::from_ref(&self.buf));
                self.buf_len = 0;
            } else {
                // Buffer still partial: all input consumed.
                return self;
            }
        }
        // Whole blocks straight from the input, in one call.
        let (blocks, rem) = data.as_chunks::<64>();
        compress_blocks(&mut self.state, blocks);
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
        self
    }

    /// Finish the hash and return the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length — behind the
        // buffered bytes when the length still fits in their block
        // (`update` keeps `buf_len < 64`), else spilling into one more.
        let mut tail = [[0u8; 64]; 2];
        tail[0][..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[0][self.buf_len] = 0x80;
        let blocks = if self.buf_len >= 56 { 2 } else { 1 };
        tail[blocks - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..blocks]);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// Whether this CPU runs SHA-256 on its SHA extensions (x86-64
/// `sha256rnds2` and friends) rather than the portable rounds. Both give
/// bit-identical digests; this only reports which one every hash takes.
pub fn hardware_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Run `blocks` through the compression function, in order, on the body
/// this CPU supports.
fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if hardware_accelerated() {
        // SAFETY: `hardware_accelerated` has just seen sha, sse2, ssse3 and
        // sse4.1 on this CPU: every feature `compress_sha_ni` enables.
        #[allow(unsafe_code)]
        unsafe {
            compress_sha_ni(state, blocks)
        };
        return;
    }
    compress_portable(state, blocks);
}

/// The FIPS 180-4 rounds: the body on CPUs without the SHA extensions and
/// the oracle for the hardware one.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *word = u32::from_be_bytes(*bytes);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// The same compression on the x86-64 SHA extensions (Intel's SHA-NI
/// sequence). `sha256rnds2` does two rounds on the working variables kept
/// as `(A, B, E, F)` and `(C, D, G, H)`, high lane first; `sha256msg1` /
/// `sha256msg2` extend the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_sha_ni(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    use std::arch::x86_64::*;
    let [a, b, c, d, e, f, g, h] = state.map(|word| word as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    let (k, _) = K.as_chunks::<4>();
    for block in blocks {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // The next sixteen schedule words, four to a register, lane 0 first.
        let mut w = [_mm_setzero_si128(); 4];
        for (quad, bytes) in w
            .iter_mut()
            .zip(block.as_chunks::<4>().0.as_chunks::<4>().0)
        {
            let [w0, w1, w2, w3] = bytes.map(i32::from_be_bytes);
            *quad = _mm_setr_epi32(w0, w1, w2, w3);
        }
        for ki in k {
            let [k0, k1, k2, k3] = ki.map(|word| word as i32);
            let wk = _mm_add_epi32(w[0], _mm_setr_epi32(k0, k1, k2, k3));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16], four at a
            // time (the last four quads go unused).
            let sum = _mm_add_epi32(
                _mm_sha256msg1_epu32(w[0], w[1]),
                _mm_alignr_epi8(w[3], w[2], 4),
            );
            w = [w[1], w[2], w[3], _mm_sha256msg2_epu32(sum, w[3])];
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *state = [
        _mm_extract_epi32(abef, 3),
        _mm_extract_epi32(abef, 2),
        _mm_extract_epi32(cdgh, 3),
        _mm_extract_epi32(cdgh, 2),
        _mm_extract_epi32(abef, 1),
        _mm_extract_epi32(abef, 0),
        _mm_extract_epi32(cdgh, 1),
        _mm_extract_epi32(cdgh, 0),
    ]
    .map(|word| word as u32);
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// SHA-256 over the concatenation of several byte slices, without
/// materializing the concatenation. Used for `h(secret || salt)`.
pub fn sha256_concat(parts: &[&[u8]]) -> Digest {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    type Body = fn(&mut [u32; 8], &[[u8; 64]]);

    /// The compression bodies this CPU can run: the portable rounds, and
    /// the SHA-extension body — reached through the dispatch, which takes
    /// it whenever `hardware_accelerated`.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&'static str, Body)> = vec![("portable", compress_portable)];
        if hardware_accelerated() {
            bodies.push(("sha-ni", compress_blocks));
        } else {
            eprintln!("no SHA extensions on this CPU: the hardware body is skipped");
        }
        bodies
    }

    /// `msg` padded by hand and run through `body` in one call, so the
    /// bodies are checked without `update`/`finalize`.
    fn hash_with(body: Body, msg: &[u8]) -> Digest {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        body(&mut state, padded.as_chunks().0);
        let mut out = [0u8; 32];
        for (bytes, w) in out.as_chunks_mut::<4>().0.iter_mut().zip(state) {
            *bytes = w.to_be_bytes();
        }
        Digest(out)
    }

    /// A published vector through the streaming API and through each body.
    fn check_vector(msg: &[u8], hex: &str) {
        assert_eq!(sha256(msg).to_hex(), hex);
        for (name, body) in bodies() {
            assert_eq!(hash_with(body, msg).to_hex(), hex, "{name}");
        }
    }

    // FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn empty_string() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// On a CPU with the SHA extensions the dispatch must take them: a
    /// detection that quietly fell back to the portable rounds would pass
    /// every digest test and lose the speed.
    #[test]
    fn dispatch_takes_the_sha_extensions_when_present() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha") {
            assert!(hardware_accelerated());
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!hardware_accelerated());
    }

    /// Hash-chained differential: from a random state, 10 000 runs of 1..=9
    /// random blocks, each run's output the next run's input state.
    #[test]
    fn hardware_body_matches_portable_rounds() {
        if !hardware_accelerated() {
            eprintln!("no SHA extensions on this CPU: hardware comparison skipped");
            return;
        }
        let mut rng = crate::rng::seeded(0x5a256);
        let mut state = H0.map(|_| rng.next_u32());
        let mut blocks = [[0u8; 64]; 9];
        for case in 0..10_000 {
            let run = &mut blocks[..1 + rng.next_u32() as usize % 9];
            for block in run.iter_mut() {
                rng.fill_bytes(block);
            }
            let mut portable = state;
            compress_portable(&mut portable, run);
            compress_blocks(&mut state, run);
            assert_eq!(state, portable, "case {case}, {} blocks", run.len());
        }
    }

    #[test]
    fn length_exactly_55_56_64(/* padding boundary cases */) {
        // Cross-check streaming vs one-shot on the padding boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![0x5au8; len];
            let one_shot = sha256(&data);
            let mut h = Sha256::new();
            for byte in &data {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), one_shot, "len={len}");
        }
    }

    /// Every padding layout: for each length, one-shot, byte-at-a-time and
    /// every two-way split agree, and the digest is the padded message's
    /// hand-built final state under each body (so `finalize` is checked
    /// against the compression bodies alone, not against itself).
    #[test]
    fn every_length_and_split_agrees() {
        let data: Vec<u8> = (0..130u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=130 {
            let msg = &data[..len];
            let expect = hash_with(compress_portable, msg).0;
            for (name, body) in bodies() {
                assert_eq!(hash_with(body, msg).0, expect, "len={len} {name}");
            }
            assert_eq!(sha256(msg).0, expect, "len={len}");

            let mut bytewise = Sha256::new();
            for byte in msg {
                bytewise.update(std::slice::from_ref(byte));
            }
            assert_eq!(bytewise.finalize().0, expect, "len={len} bytewise");
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&msg[..split]).update(&msg[split..]);
                assert_eq!(h.finalize().0, expect, "len={len} split={split}");
            }
        }
    }

    #[test]
    fn streaming_split_points() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let expect = sha256(&data);
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split={split}");
        }
    }

    #[test]
    fn concat_matches_joined() {
        let joined = sha256(b"secret-part|salt1234");
        let parts = sha256_concat(&[b"secret-part|", b"salt1234"]);
        assert_eq!(joined, parts);
    }

    #[test]
    fn digest_hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()).unwrap(), d);
        assert!(Digest::from_hex("abc").is_none());
        assert!(Digest::from_hex(&"z".repeat(64)).is_none());
    }
}
