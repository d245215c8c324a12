//! X25519 Diffie–Hellman key agreement (RFC 7748).
//!
//! This is the public-key primitive behind `enc(K_V, PubK_u)` in the paper:
//! view keys are sealed to a reader's public key with ephemeral-static
//! X25519 plus the symmetric AEAD (see [`crate::keys::seal`]).
//!
//! The field arithmetic uses five 51-bit limbs with `u128` intermediates,
//! the standard portable representation for 2²⁵⁵ − 19.

const MASK: u64 = (1u64 << 51) - 1;

/// An element of GF(2²⁵⁵ − 19), kept partially reduced.
///
/// Limb bounds, checked by debug assertions: [`Fe::mul`], [`Fe::square`]
/// and [`Fe::sub`] return limbs below 2⁵¹ + 2¹⁸ and accept limbs below
/// 2⁵⁴; [`Fe::add`] does not carry, so a sum of up to four such results
/// (below 2⁵³ + 2²⁰) is still a valid operand, and a longer chain of
/// additions is not.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fe(pub(crate) [u64; 5]);

/// The largest limb [`Fe::mul`], [`Fe::square`] and [`Fe::sub`] accept.
const OPERAND_BOUND: u64 = 1 << 54;

impl Fe {
    pub(crate) const ZERO: Fe = Fe([0; 5]);
    pub(crate) const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Load from 32 little-endian bytes, masking the top bit (RFC 7748 §5).
    pub(crate) fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |i: usize| u64::from_le_bytes(std::array::from_fn(|j| b[i + j]));
        Fe([
            load(0) & MASK,
            (load(6) >> 3) & MASK,
            (load(12) >> 6) & MASK,
            (load(19) >> 1) & MASK,
            (load(24) >> 12) & MASK,
        ])
    }

    /// Serialize to 32 little-endian bytes in fully reduced form.
    pub(crate) fn to_bytes(self) -> [u8; 32] {
        let t = self.reduce_full();
        let mut out = [0u8; 32];
        let mut acc: u128 = 0;
        let mut acc_bits = 0u32;
        let mut idx = 0usize;
        for limb in t.0 {
            acc |= (limb as u128) << acc_bits;
            acc_bits += 51;
            while acc_bits >= 8 {
                out[idx] = (acc & 0xff) as u8;
                acc >>= 8;
                acc_bits -= 8;
                idx += 1;
            }
        }
        // 5*51 = 255 bits; 31 bytes consumed 248 bits, one partial byte left.
        if idx < 32 {
            out[idx] = (acc & 0xff) as u8;
        }
        out
    }

    /// Fully reduce into [0, p).
    fn reduce_full(self) -> Fe {
        let mut t = self.carry();
        t = t.carry();
        // Now limbs < 2^51, value V < 2^255 = p + 19, so at most one
        // conditional subtraction of p. V >= p iff V + 19 overflows bit 255.
        let mut plus = t.0;
        plus[0] += 19;
        for i in 0..4 {
            plus[i + 1] += plus[i] >> 51;
            plus[i] &= MASK;
        }
        let overflow = plus[4] >> 51;
        if overflow != 0 {
            plus[4] &= MASK;
            Fe(plus)
        } else {
            t
        }
    }

    /// One sequential carry-propagation pass with the ×19 wraparound.
    fn carry(self) -> Fe {
        let mut t = self.0;
        let mut c: u64;
        for i in 0..4 {
            c = t[i] >> 51;
            t[i] &= MASK;
            t[i + 1] += c;
        }
        c = t[4] >> 51;
        t[4] &= MASK;
        t[0] += c * 19;
        Fe(t)
    }

    fn in_bounds(self) -> bool {
        self.0.iter().all(|&limb| limb < OPERAND_BOUND)
    }

    /// Limb-wise sum, not carried (see the bounds on [`Fe`]).
    pub(crate) fn add(self, rhs: Fe) -> Fe {
        let a = self.0;
        let b = rhs.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    pub(crate) fn sub(self, rhs: Fe) -> Fe {
        // Add 16p so no limb underflows, then carry every limb at once:
        // the carries are below 2⁶, so one pass leaves limbs < 2⁵¹ + 2¹¹.
        const P16: [u64; 5] = [(MASK - 18) << 4, MASK << 4, MASK << 4, MASK << 4, MASK << 4];
        debug_assert!(self.in_bounds() && rhs.in_bounds());
        let a = self.0;
        let b = rhs.0;
        let t = [
            a[0] + P16[0] - b[0],
            a[1] + P16[1] - b[1],
            a[2] + P16[2] - b[2],
            a[3] + P16[3] - b[3],
            a[4] + P16[4] - b[4],
        ];
        Fe([
            (t[0] & MASK) + (t[4] >> 51) * 19,
            (t[1] & MASK) + (t[0] >> 51),
            (t[2] & MASK) + (t[1] >> 51),
            (t[3] & MASK) + (t[2] >> 51),
            (t[4] & MASK) + (t[3] >> 51),
        ])
    }

    pub(crate) fn mul(self, rhs: Fe) -> Fe {
        debug_assert!(self.in_bounds() && rhs.in_bounds());
        let f = self.0;
        let g = rhs.0;
        let m = |a: u64, b: u64| (a as u128) * (b as u128);
        let g1_19 = g[1] * 19;
        let g2_19 = g[2] * 19;
        let g3_19 = g[3] * 19;
        let g4_19 = g[4] * 19;

        let h0 = m(f[0], g[0]) + m(f[1], g4_19) + m(f[2], g3_19) + m(f[3], g2_19) + m(f[4], g1_19);
        let h1 = m(f[0], g[1]) + m(f[1], g[0]) + m(f[2], g4_19) + m(f[3], g3_19) + m(f[4], g2_19);
        let h2 = m(f[0], g[2]) + m(f[1], g[1]) + m(f[2], g[0]) + m(f[3], g4_19) + m(f[4], g3_19);
        let h3 = m(f[0], g[3]) + m(f[1], g[2]) + m(f[2], g[1]) + m(f[3], g[0]) + m(f[4], g4_19);
        let h4 = m(f[0], g[4]) + m(f[1], g[3]) + m(f[2], g[2]) + m(f[3], g[1]) + m(f[4], g[0]);

        carry_wide([h0, h1, h2, h3, h4])
    }

    /// A dedicated squaring: the 25 limb products of [`Fe::mul`] collapse
    /// to 15 because the cross terms come in equal pairs.
    pub(crate) fn square(self) -> Fe {
        debug_assert!(self.in_bounds());
        let f = self.0;
        let m = |a: u64, b: u64| (a as u128) * (b as u128);
        let f3_19 = f[3] * 19;
        let f4_19 = f[4] * 19;

        let h0 = m(f[0], f[0]) + 2 * (m(f[1], f4_19) + m(f[2], f3_19));
        let h1 = m(f[3], f3_19) + 2 * (m(f[0], f[1]) + m(f[2], f4_19));
        let h2 = m(f[1], f[1]) + 2 * (m(f[0], f[2]) + m(f[4], f3_19));
        let h3 = m(f[4], f4_19) + 2 * (m(f[0], f[3]) + m(f[1], f[2]));
        let h4 = m(f[2], f[2]) + 2 * (m(f[0], f[4]) + m(f[1], f[3]));

        carry_wide([h0, h1, h2, h3, h4])
    }

    /// `self^(2^k)`: `k` successive squarings.
    fn square_n(self, k: u32) -> Fe {
        (0..k).fold(self, |x, _| x.square())
    }

    /// Multiply by the curve constant a24 = 121665.
    fn mul_small(self, s: u64) -> Fe {
        let f = self.0;
        let h: [u128; 5] = [
            (f[0] as u128) * s as u128,
            (f[1] as u128) * s as u128,
            (f[2] as u128) * s as u128,
            (f[3] as u128) * s as u128,
            (f[4] as u128) * s as u128,
        ];
        carry_wide(h)
    }

    /// The shared prefix of the two fixed exponentiations below:
    /// `(self^(2²⁵⁰ − 1), self^11)` by the standard addition chain
    /// (249 squarings, 11 multiplications).
    fn pow_2_250_minus_1(self) -> (Fe, Fe) {
        let x2 = self.square();
        let x9 = x2.square_n(2).mul(self);
        let x11 = x9.mul(x2);
        let e5 = x11.square().mul(x9); // 2^5 − 1
        let e10 = e5.square_n(5).mul(e5); // 2^10 − 1
        let e20 = e10.square_n(10).mul(e10);
        let e40 = e20.square_n(20).mul(e20);
        let e50 = e40.square_n(10).mul(e10);
        let e100 = e50.square_n(50).mul(e50);
        let e200 = e100.square_n(100).mul(e100);
        let e250 = e200.square_n(50).mul(e50);
        (e250, x11)
    }

    /// Raise to the power p − 2 = 2²⁵⁵ − 21 (the inverse, by Fermat's
    /// little theorem; 0 maps to 0).
    pub(crate) fn invert(self) -> Fe {
        let (e250, x11) = self.pow_2_250_minus_1();
        e250.square_n(5).mul(x11)
    }

    /// Raise to the power (p − 5)/8 = 2²⁵² − 3, the exponent of the
    /// square-root candidate in point decompression (RFC 8032 §5.1.3).
    pub(crate) fn pow_p58(self) -> Fe {
        let (e250, _) = self.pow_2_250_minus_1();
        e250.square_n(2).mul(self)
    }

    /// Generic left-to-right square-and-multiply with a little-endian
    /// exponent: the oracle the addition chains are tested against.
    #[cfg(test)]
    pub(crate) fn pow_le(self, exp_le: &[u8; 32]) -> Fe {
        let mut result = Fe::ONE;
        let mut started = false;
        for byte_idx in (0..32).rev() {
            for bit in (0..8).rev() {
                if started {
                    result = result.square();
                }
                if (exp_le[byte_idx] >> bit) & 1 == 1 {
                    if started {
                        result = result.mul(self);
                    } else {
                        result = self;
                        started = true;
                    }
                }
            }
        }
        result
    }

    pub(crate) fn is_zero(self) -> bool {
        self.to_bytes() == [0u8; 32]
    }
}

fn carry_wide(mut h: [u128; 5]) -> Fe {
    let mut c: u128;
    let mask = MASK as u128;
    c = h[0] >> 51;
    h[0] &= mask;
    h[1] += c;
    c = h[1] >> 51;
    h[1] &= mask;
    h[2] += c;
    c = h[2] >> 51;
    h[2] &= mask;
    h[3] += c;
    c = h[3] >> 51;
    h[3] &= mask;
    h[4] += c;
    c = h[4] >> 51;
    h[4] &= mask;
    h[0] += c * 19;
    c = h[0] >> 51;
    h[0] &= mask;
    h[1] += c;
    Fe([
        h[0] as u64,
        h[1] as u64,
        h[2] as u64,
        h[3] as u64,
        h[4] as u64,
    ])
}

/// Clamp a 32-byte scalar per RFC 7748 §5.
pub fn clamp_scalar(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: multiply the point with u-coordinate `u` by the
/// clamped scalar `k`, returning the resulting u-coordinate.
pub fn x25519(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp_scalar(*k);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = false;

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1 == 1;
        swap ^= k_t;
        if swap {
            std::mem::swap(&mut x2, &mut x3);
            std::mem::swap(&mut z2, &mut z3);
        }
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    if swap {
        std::mem::swap(&mut x2, &mut x3);
        std::mem::swap(&mut z2, &mut z3);
    }
    x2.mul(z2.invert()).to_bytes()
}

/// The base point u = 9.
pub const BASE_POINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Derive the public key for a private scalar: `X25519(k, 9)`.
///
/// The base point u = 9 is the image of the Ed25519 base point, so this is
/// the clamped scalar times B on the Edwards curve — a walk of the
/// fixed-base table rather than a 255-step ladder — mapped back to
/// Montgomery form.
pub fn public_key(private: &[u8; 32]) -> [u8; 32] {
    crate::ed25519::base_mul_montgomery_u(&clamp_scalar(*private))
}

/// Compute the shared secret between a private scalar and a peer public key.
///
/// Returns `None` if the result is the all-zero point (low-order peer key),
/// which callers must treat as an error per RFC 7748 §6.1.
pub fn shared_secret(private: &[u8; 32], peer_public: &[u8; 32]) -> Option<[u8; 32]> {
    let s = x25519(private, peer_public);
    if s == [0u8; 32] {
        None
    } else {
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn arr(s: &str) -> [u8; 32] {
        hex::decode(s).unwrap().try_into().unwrap()
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let k = arr("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = arr("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let k = arr("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = arr("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        assert_eq!(
            hex::encode(&x25519(&k, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    // RFC 7748 §6.1 Diffie–Hellman example.
    #[test]
    fn rfc7748_dh() {
        let alice_priv = arr("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let alice_pub = public_key(&alice_priv);
        assert_eq!(
            hex::encode(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        let bob_priv = arr("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            hex::encode(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let s1 = shared_secret(&alice_priv, &bob_pub).unwrap();
        let s2 = shared_secret(&bob_priv, &alice_pub).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(
            hex::encode(&s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    // RFC 7748 §5.2 iterated test (1 and 1000 iterations).
    #[test]
    fn rfc7748_iterated() {
        let mut k = arr("0900000000000000000000000000000000000000000000000000000000000000");
        let mut u = k;
        // 1 iteration.
        let r = x25519(&k, &u);
        u = k;
        k = r;
        assert_eq!(
            hex::encode(&k),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
        // 999 more.
        for _ in 0..999 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        assert_eq!(
            hex::encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn low_order_point_rejected() {
        let priv_key = arr("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let zero_point = [0u8; 32];
        assert!(shared_secret(&priv_key, &zero_point).is_none());
    }

    #[test]
    fn field_arithmetic_basics() {
        let a = Fe::from_bytes(&arr(
            "0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20",
        ));
        // a * a⁻¹ = 1
        assert_eq!(a.mul(a.invert()).to_bytes(), Fe::ONE.to_bytes());
        // a - a = 0
        assert!(a.sub(a).is_zero());
        // (a + a) = 2a = a * 2
        let two = Fe([2, 0, 0, 0, 0]);
        assert_eq!(a.add(a).to_bytes(), a.mul(two).to_bytes());
    }

    #[test]
    fn addition_chains_match_generic_exponentiation() {
        // p − 2, (p − 5)/8 as little-endian bytes.
        let mut p_minus_2 = [0xffu8; 32];
        p_minus_2[0] = 0xeb;
        p_minus_2[31] = 0x7f;
        let mut p58 = [0xffu8; 32];
        p58[0] = 0xfd;
        p58[31] = 0x0f;
        let mut bytes = [0u8; 32];
        for seed in 0..32u8 {
            for (i, b) in bytes.iter_mut().enumerate() {
                *b = seed
                    .wrapping_mul(31)
                    .wrapping_add(i as u8)
                    .wrapping_mul(167);
            }
            // Un-carried sums exercise the widest limbs the point formulas
            // feed into a multiplication or squaring.
            let a = Fe::from_bytes(&bytes);
            let wide = a.add(a).add(a);
            for x in [a, wide, Fe::ZERO, Fe::ONE, Fe::ZERO.sub(Fe::ONE)] {
                assert_eq!(x.invert().to_bytes(), x.pow_le(&p_minus_2).to_bytes());
                assert_eq!(x.pow_p58().to_bytes(), x.pow_le(&p58).to_bytes());
                assert_eq!(x.square().to_bytes(), x.mul(x).to_bytes());
            }
        }
    }

    #[test]
    fn public_key_matches_ladder() {
        // The Edwards fixed-base walk and the Montgomery ladder agree,
        // clamping included, on all-ones, all-zeros and patterned scalars.
        for k in [[0u8; 32], [0xff; 32], [0x42; 32], BASE_POINT] {
            assert_eq!(public_key(&k), x25519(&k, &BASE_POINT));
        }
    }

    #[test]
    fn to_from_bytes_round_trip() {
        // A canonical value (< p) must round-trip exactly.
        let bytes = arr("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20");
        assert_eq!(Fe::from_bytes(&bytes).to_bytes(), bytes);
    }

    #[test]
    fn clamping() {
        let k = clamp_scalar([0xffu8; 32]);
        assert_eq!(k[0] & 7, 0);
        assert_eq!(k[31] & 0x80, 0);
        assert_eq!(k[31] & 0x40, 0x40);
    }
}
