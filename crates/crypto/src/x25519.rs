//! X25519 Diffie–Hellman key agreement (RFC 7748).
//!
//! This is the public-key primitive behind `enc(K_V, PubK_u)` in the paper:
//! view keys are sealed to a reader's public key with ephemeral-static
//! X25519 plus the symmetric AEAD (see [`crate::keys::seal`]).
//!
//! The field arithmetic uses five 51-bit limbs with `u128` intermediates,
//! the standard portable representation for 2²⁵⁵ − 19.
//!
//! # Two ladder bodies, one dispatch
//!
//! Every [`x25519`] call runs one 255-step Montgomery ladder, then one
//! inversion. The ladder runs on one of two bodies:
//!
//! * on x86-64 CPUs with AVX-512 IFMA, the four ladder coordinates
//!   (x₂, z₂, x₃, z₃) sit in the four 64-bit lanes of 256-bit registers,
//!   and each step is three 4-lane multiplications built from the 52-bit
//!   multiply-add `vpmadd52{lo,hi}uq` (Nath and Sarkar, "Efficient 4-way
//!   vectorizations of the Montgomery ladder", IEEE TC 2022);
//! * everywhere else, the portable ladder on `Fe`. It is also the oracle
//!   the unit tests hold the vector body to.
//!
//! The body is chosen at run time with `is_x86_feature_detected!`; there
//! is no feature flag, setting or environment variable, and both bodies
//! give bit-identical output. [`hardware_accelerated`] says which one this
//! CPU runs. The inversion and the final encoding are the portable field
//! code either way. The call into the vector body is one of the crate's
//! three `unsafe` blocks (see the crate docs).
//!
//! Both bodies swap the ladder's ends by mask, not by branch: the portable
//! one with an XOR mask (RFC 7748 §5's `cswap`), the vector one with a lane
//! permute under a write mask made from the key bit. The final reduction
//! in `Fe::to_bytes` selects by mask too. None of this is a
//! constant-time promise (see the crate docs).

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
        // subtraction of p. V >= p iff V + 19 overflows bit 255; the
        // overflow bit selects V + 19 − 2^255 or V by mask, not by branch.
        let mut plus = t.0;
        plus[0] += 19;
        for i in 0..4 {
            plus[i + 1] += plus[i] >> 51;
            plus[i] &= MASK;
        }
        let take_plus = 0u64.wrapping_sub(plus[4] >> 51);
        plus[4] &= MASK;
        Fe(std::array::from_fn(|i| {
            (plus[i] & take_plus) | (t.0[i] & !take_plus)
        }))
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

    /// Multiply by a small constant (the ladder's [`A24`]).
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
    let (x2, z2) = ladder(&clamp_scalar(*k), Fe::from_bytes(u));
    x2.mul(z2.invert()).to_bytes()
}

/// [`x25519`] on the portable ladder, whatever the CPU: the baseline the
/// IFMA body is measured against (`x25519/ladder_portable` in the crypto
/// benches) and its oracle.
pub fn x25519_portable(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let (x2, z2) = ladder_portable(&clamp_scalar(*k), Fe::from_bytes(u));
    x2.mul(z2.invert()).to_bytes()
}

/// Whether this CPU runs the X25519 ladder on AVX-512 IFMA (x86-64
/// `vpmadd52luq` / `vpmadd52huq` on 256-bit registers) rather than the
/// portable field code. Both give bit-identical output; this only reports
/// which one every ladder takes.
pub fn hardware_accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512ifma") && is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The projective result `(x₂, z₂)` of the Montgomery ladder for the
/// clamped scalar `k` and the point with u-coordinate `x1`, on the body
/// this CPU supports.
fn ladder(k: &[u8; 32], x1: Fe) -> (Fe, Fe) {
    #[cfg(target_arch = "x86_64")]
    if hardware_accelerated() {
        // SAFETY: `hardware_accelerated` has just seen avx512ifma and
        // avx512vl on this CPU: every feature `ifma::ladder` enables.
        #[allow(unsafe_code)]
        return unsafe { ifma::ladder(k, x1) };
    }
    ladder_portable(k, x1)
}

/// RFC 7748 §5's ladder on [`Fe`]: the body on CPUs without IFMA and the
/// oracle for the vector one.
fn ladder_portable(k: &[u8; 32], x1: Fe) -> (Fe, Fe) {
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from(k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);
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
        z2 = e.mul(aa.add(e.mul_small(A24)));
    }
    cswap(swap, &mut x2, &mut x3);
    cswap(swap, &mut z2, &mut z3);
    (x2, z2)
}

/// The curve constant a24 = (486662 − 2) / 4 of the ladder step.
const A24: u64 = 121665;

/// Exchange `a` and `b` if `swap` is 1 and keep them if it is 0, by an XOR
/// mask rather than a branch (RFC 7748 §5's `cswap`).
fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
    let mask = 0u64.wrapping_sub(swap);
    for (x, y) in a.0.iter_mut().zip(b.0.iter_mut()) {
        let t = mask & (*x ^ *y);
        *x ^= t;
        *y ^= t;
    }
}

/// The ladder on four lanes of AVX-512 IFMA.
///
/// The state is one [`Fe4`] holding (x₂, z₂, x₃, z₃), lane 0 to lane 3,
/// and a step is three 4-lane multiplications:
/// {D·A, C·B, A², B²}, then {(DA + CB)², (DA − CB)², AA·BB, AA + a24·E}
/// (the addend of [`Fe4::mul_add`] saves an addition and its carry), then
/// {1·AA·BB, E·(AA + a24·E), 1·(DA + CB)², x₁·(DA − CB)²}, whose lanes are
/// the next state in order. Lane permutes and masked blends move values
/// between the multiplications.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use std::arch::x86_64::*;

    use super::{Fe, A24, MASK};

    /// Four field elements, one per 64-bit lane: lane j of `self.0[i]` is
    /// limb i (radix 2⁵¹, as in [`Fe`]) of element j.
    ///
    /// IFMA multiplies only the low 52 bits of each lane, so every operand
    /// of [`Fe4::mul_add`] must have limbs below 2⁵²; [`Fe4::mul_add`] and
    /// [`Fe4::add_sub`] take and return limbs below [`BOUND`], checked by
    /// debug assertions.
    #[derive(Clone, Copy)]
    struct Fe4([__m256i; 5]);

    /// The limb bound of every [`Fe4`] the ladder makes: below 2⁵², so any
    /// of them is a valid IFMA operand.
    const BOUND: u64 = (1 << 51) + (1 << 15);

    /// Write masks, bit j for lane j.
    const LANE1: __mmask8 = 0b0010;
    const LANE2: __mmask8 = 0b0100;
    const LANE3: __mmask8 = 0b1000;
    const ODD_LANES: __mmask8 = LANE1 | LANE3;

    /// The `permute4x64` immediate that puts lane `a` in lane 0, `b` in
    /// lane 1, `c` in lane 2 and `d` in lane 3.
    const fn lanes(a: i32, b: i32, c: i32, d: i32) -> i32 {
        a | b << 2 | c << 4 | d << 6
    }

    /// `19·x` for lanes below 2⁵⁹: `x + 2x + 16x`, the doublings as
    /// rotates, which equal shifts on such lanes. (Written with shifts, the
    /// sum is rewritten into a 64-bit multiply of twice the latency.)
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn times19(x: __m256i) -> __m256i {
        let x3 = _mm256_add_epi64(x, _mm256_rol_epi64::<1>(x));
        _mm256_add_epi64(x3, _mm256_rol_epi64::<4>(x))
    }

    impl Fe4 {
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn new(e: [Fe; 4]) -> Fe4 {
            let mut limbs = [_mm256_setzero_si256(); 5];
            for (i, limb) in limbs.iter_mut().enumerate() {
                *limb = _mm256_set_epi64x(
                    e[3].0[i] as i64,
                    e[2].0[i] as i64,
                    e[1].0[i] as i64,
                    e[0].0[i] as i64,
                );
            }
            Fe4(limbs)
        }

        /// The element in lane `J`.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn lane<const J: i32>(self) -> Fe {
            let mut limbs = [0u64; 5];
            for (limb, v) in limbs.iter_mut().zip(self.0) {
                *limb = _mm256_extract_epi64::<J>(v) as u64;
            }
            Fe(limbs)
        }

        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn below(self, bound: u64) -> bool {
            let bound = _mm256_set1_epi64x(bound as i64);
            let mut over = 0;
            for v in self.0 {
                over |= _mm256_cmpge_epu64_mask(v, bound);
            }
            over == 0
        }

        /// Lane i of the result is lane `IMM >> 2i & 3` of `self` (see
        /// [`lanes`]).
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn permute<const IMM: i32>(self) -> Fe4 {
            Fe4(self.0.map(|v| _mm256_permute4x64_epi64::<IMM>(v)))
        }

        /// `other`'s lanes where `mask` is set, `self`'s elsewhere.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn blend(self, mask: __mmask8, other: Fe4) -> Fe4 {
            let mut limbs = self.0;
            for (limb, o) in limbs.iter_mut().zip(other.0) {
                *limb = _mm256_mask_blend_epi64(mask, *limb, o);
            }
            Fe4(limbs)
        }

        /// [`Fe4::permute`] on the lanes in `mask`, `src`'s lanes elsewhere.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn permute_over<const IMM: i32>(self, mask: __mmask8, src: Fe4) -> Fe4 {
            let mut limbs = src.0;
            for (limb, v) in limbs.iter_mut().zip(self.0) {
                *limb = _mm256_mask_permutex_epi64::<IMM>(*limb, mask, v);
            }
            Fe4(limbs)
        }

        /// Exchange lanes (0, 1) with lanes (2, 3) if `swap` is 1, and keep
        /// them if it is 0: one lane permute under a write mask made from
        /// the bit, not a branch.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn cswap(self, swap: u64) -> Fe4 {
            let mask = (swap as u8).wrapping_neg() & 0b1111;
            self.permute_over::<{ lanes(2, 3, 0, 1) }>(mask, self)
        }

        /// `self + rhs` lane-wise, or `self − rhs` on the lanes in `sub`,
        /// carried back below [`BOUND`].
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn add_sub(self, rhs: Fe4, sub: __mmask8) -> Fe4 {
            debug_assert!(self.below(BOUND) && rhs.below(BOUND));
            // 4p − rhs has no negative limb for rhs limbs below 2⁵³ − 76,
            // and the sum stays below 2⁵⁴.
            let mut t = self.0;
            for (i, limb) in t.iter_mut().enumerate() {
                let four_p =
                    _mm256_set1_epi64x(if i == 0 { (MASK - 18) << 2 } else { MASK << 2 } as i64);
                let term = _mm256_mask_sub_epi64(rhs.0[i], sub, four_p, rhs.0[i]);
                *limb = _mm256_add_epi64(*limb, term);
            }
            Fe4::carry(t)
        }

        /// The lane-wise `self·rhs + addend`, limbs below [`BOUND`] in and
        /// out.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn mul_add(self, rhs: Fe4, addend: Fe4) -> Fe4 {
            debug_assert!(self.below(BOUND) && rhs.below(BOUND) && addend.below(BOUND));
            let (f, g) = (self.0, rhs.0);
            // lo[m] and hi[m] sum the low and the high 52 bits of every limb
            // product f_i·g_j with i + j = m: at most five terms below 2⁵²
            // each. The addend's limbs start the low columns.
            let mut lo = [_mm256_setzero_si256(); 9];
            lo[..5].copy_from_slice(&addend.0);
            let mut hi = [_mm256_setzero_si256(); 9];
            for i in 0..5 {
                for j in 0..5 {
                    lo[i + j] = _mm256_madd52lo_epu64(lo[i + j], f[i], g[j]);
                    hi[i + j] = _mm256_madd52hi_epu64(hi[i + j], f[i], g[j]);
                }
            }
            // f_i·g_j = lo + 2⁵²·hi = lo + 2⁵¹·(2·hi), so column m of the
            // product in radix 2⁵¹ is lo[m] + 2·hi[m − 1] (below 2⁵⁶), and
            // 2²⁵⁵ ≡ 19 folds column m + 5 onto column m (below 2⁶¹).
            let twice = |v: __m256i| _mm256_slli_epi64::<1>(v);
            let mut t = lo;
            for m in 1..9 {
                t[m] = _mm256_add_epi64(t[m], twice(hi[m - 1]));
            }
            let mut folded = [_mm256_setzero_si256(); 5];
            for (m, limb) in folded.iter_mut().enumerate() {
                let high = if m == 4 { twice(hi[8]) } else { t[m + 5] };
                *limb = _mm256_add_epi64(t[m], times19(high));
            }
            Fe4::carry(folded)
        }

        /// One carry pass over every limb at once, with the ×19
        /// wrap-around: limbs below 2⁶¹ in, below [`BOUND`] out. The top
        /// carry is below 2¹⁰, a valid IFMA operand, so one multiply-add
        /// folds it into limb 0.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn carry(t: [__m256i; 5]) -> Fe4 {
            let mask = _mm256_set1_epi64x(MASK as i64);
            let low = |i: usize| _mm256_and_si256(t[i], mask);
            let c = t.map(|v| _mm256_srli_epi64::<51>(v));
            Fe4([
                _mm256_madd52lo_epu64(low(0), c[4], _mm256_set1_epi64x(19)),
                _mm256_add_epi64(low(1), c[0]),
                _mm256_add_epi64(low(2), c[1]),
                _mm256_add_epi64(low(3), c[2]),
                _mm256_add_epi64(low(4), c[3]),
            ])
        }
    }

    /// The ladder of [`super::ladder_portable`], step for step, on one
    /// [`Fe4`] of (x₂, z₂, x₃, z₃).
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(super) fn ladder(k: &[u8; 32], x1: Fe) -> (Fe, Fe) {
        let a24 = Fe([A24, 0, 0, 0, 0]);
        let mut s = Fe4::new([Fe::ONE, Fe::ZERO, x1, Fe::ONE]);
        // The left factors of the third multiplication, less E in lane 1,
        // and a24 in lane 3 for the second.
        let step3 = Fe4::new([Fe::ONE, Fe::ZERO, Fe::ONE, x1]);
        let step2 = Fe4::new([Fe::ZERO, Fe::ZERO, Fe::ZERO, a24]);
        let zero = Fe4::new([Fe::ZERO; 4]);
        let mut swap = 0u64;

        for t in (0..255).rev() {
            let k_t = u64::from(k[t / 8] >> (t % 8)) & 1;
            swap ^= k_t;
            s = s.cswap(swap);
            swap = k_t;

            // (A, B, C, D) = (z₂ + x₂, x₂ − z₂, z₃ + x₃, x₃ − z₃).
            let abcd = s.permute::<{ lanes(1, 0, 3, 2) }>().add_sub(s, ODD_LANES);
            // (DA, CB, AA, BB).
            let p1 = abcd
                .permute::<{ lanes(3, 2, 0, 1) }>()
                .mul_add(abcd.permute::<{ lanes(0, 1, 0, 1) }>(), zero);
            // (DA + CB, DA − CB, AA, E = AA − BB), with (CB, CB, BB, BB).
            let cb_bb = p1.permute::<{ lanes(1, 1, 3, 3) }>();
            let w = p1
                .permute::<{ lanes(0, 0, 2, 2) }>()
                .add_sub(cb_bb.blend(LANE2, zero), ODD_LANES);
            // ((DA + CB)², (DA − CB)², AA·BB, AA + a24·E).
            let p2 = w.blend(LANE3, step2).mul_add(
                w.blend(LANE2, cb_bb),
                w.permute_over::<{ lanes(2, 2, 2, 2) }>(LANE3, zero),
            );
            // (AA·BB, AA + a24·E, (DA + CB)², (DA − CB)²) times
            // (1, E, 1, x₁) is the next (x₂, z₂, x₃, z₃).
            let right = p2.permute::<{ lanes(2, 3, 0, 1) }>();
            let left = w.permute_over::<{ lanes(3, 3, 3, 3) }>(LANE1, step3);
            s = left.mul_add(right, zero);
        }
        s = s.cswap(swap);
        (s.lane::<0>(), s.lane::<1>())
    }
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
    use rand::RngCore;

    fn arr(s: &str) -> [u8; 32] {
        hex::decode(s).unwrap().try_into().unwrap()
    }

    type X25519 = fn(&[u8; 32], &[u8; 32]) -> [u8; 32];

    /// The ladder bodies this CPU can run, each behind the whole X25519
    /// function: the portable one, and the IFMA body — reached through the
    /// dispatch, which takes it whenever `hardware_accelerated`.
    fn bodies() -> Vec<(&'static str, X25519)> {
        let mut bodies: Vec<(&'static str, X25519)> = vec![("portable", x25519_portable)];
        if hardware_accelerated() {
            bodies.push(("ifma", x25519));
        } else {
            eprintln!("no AVX-512 IFMA on this CPU: the vector ladder is skipped");
        }
        bodies
    }

    /// A published vector through each body.
    fn check_vector(k: &str, u: &str, out: &str) {
        let (k, u) = (arr(k), arr(u));
        for (name, body) in bodies() {
            assert_eq!(hex::encode(&body(&k, &u)), out, "{name}");
        }
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        check_vector(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        check_vector(
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
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

    // RFC 7748 §5.2 iterated test (1 and 1000 iterations), through each
    // body.
    #[test]
    fn rfc7748_iterated() {
        for (name, body) in bodies() {
            let mut k = BASE_POINT;
            let mut u = k;
            for i in 1..=1000 {
                let r = body(&k, &u);
                u = k;
                k = r;
                let want = match i {
                    1 => "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
                    1000 => "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51",
                    _ => continue,
                };
                assert_eq!(hex::encode(&k), want, "{name}, {i} iterations");
            }
        }
    }

    /// On a CPU with AVX-512 IFMA the dispatch must take it: a detection
    /// that quietly fell back to the portable ladder would pass every
    /// vector test and lose the speed.
    #[test]
    fn dispatch_takes_ifma_when_present() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx512ifma") && is_x86_feature_detected!("avx512vl") {
            assert!(hardware_accelerated());
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!hardware_accelerated());
    }

    /// Points of order 1, 2, 4 or 8 on the curve or its twist, in their
    /// canonical encodings and as p, p + 1: a clamped scalar (a multiple
    /// of 8) takes every one to the all-zero output.
    const LOW_ORDER: [&str; 7] = [
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    ];

    /// 12 000 random scalars against four kinds of u: uniform 32-byte
    /// strings (the top bit set in half of them), the non-canonical
    /// encodings p..p + 18, the low-order points, and uniform strings with
    /// the top bit forced — each of the last three with the top bit set or
    /// not at random.
    #[test]
    fn ifma_ladder_matches_portable() {
        if !hardware_accelerated() {
            eprintln!("no AVX-512 IFMA on this CPU: vector comparison skipped");
            return;
        }
        let mut rng = crate::rng::seeded(0x25519);
        let low_order = LOW_ORDER.map(arr);
        let (mut zeros, mut top_bits) = (0, 0);
        for case in 0..12_000u32 {
            let mut k = [0u8; 32];
            rng.fill_bytes(&mut k);
            let mut u = [0u8; 32];
            rng.fill_bytes(&mut u);
            let top = u[0] & 0x80;
            match case % 4 {
                0 => {}
                1 => {
                    u = [0xff; 32];
                    u[0] = 0xed + (rng.next_u32() % 19) as u8;
                    u[31] = 0x7f | top;
                }
                2 => {
                    u = low_order[(case / 4) as usize % low_order.len()];
                    u[31] |= top;
                }
                _ => u[31] |= 0x80,
            }
            top_bits += usize::from(u[31] >> 7);
            let portable = x25519_portable(&k, &u);
            assert_eq!(x25519(&k, &u), portable, "case {case}");
            if case % 4 == 2 {
                assert_eq!(portable, [0u8; 32], "case {case}: low-order u");
                zeros += 1;
            }
        }
        assert_eq!(zeros, 3000);
        assert!(top_bits > 5000, "{top_bits} inputs with the top bit set");
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
