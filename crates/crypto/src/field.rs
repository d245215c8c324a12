//! GF(2²⁵⁵ − 19), the field under both curves: X25519's Montgomery
//! ladder and Ed25519's twisted Edwards arithmetic.
//!
//! [`Fe`] is the portable element: five 51-bit limbs with `u128`
//! intermediates, the standard representation for 2²⁵⁵ − 19. It runs on
//! every CPU, and it is the oracle the vector field is held to.
//!
//! On x86-64, [`ifma::Fe4`] holds four elements at once, one per 64-bit
//! lane of five 256-bit registers, and multiplies them with the 52-bit
//! multiply-add `vpmadd52{lo,hi}uq` of AVX-512 IFMA. Its functions are
//! `#[target_feature(enable = "avx512ifma,avx512vl")]`, so only code
//! compiled for those features calls them: the X25519 ladder body and the
//! Ed25519 body (its point loops and the exponentiation of point
//! decompression, four elements per pass), each entered once after
//! [`ifma_available`].

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

/// The limb bound of a carried element, and of every [`ifma::Fe4`] the
/// vector bodies make: below 2⁵², so any of them is a valid IFMA operand.
/// [`Fe::mul`], [`Fe::square`] and [`Fe::sub`] return limbs below it (their
/// carries stop below 2¹¹), and so does [`Fe::carry`] of a sum of a few
/// such elements; an uncarried [`Fe::add`] does not.
pub(crate) const BOUND: u64 = (1 << 51) + (1 << 15);

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
    pub(crate) fn carry(self) -> Fe {
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

    /// Multiply by a small constant (the X25519 ladder's a24).
    pub(crate) fn mul_small(self, s: u64) -> Fe {
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

    /// Raise to the power p − 2 = 2²⁵⁵ − 21 (the inverse, by Fermat's
    /// little theorem; 0 maps to 0).
    pub(crate) fn invert(self) -> Fe {
        let (e250, x11) = pow_2_250_minus_1(self, Fe::square_n, Fe::mul);
        e250.square_n(5).mul(x11)
    }

    /// Replace every element by its inverse with one [`Fe::invert`] and
    /// 3(n − 1) multiplications (Montgomery's trick): invert the product
    /// of all, then peel the elements off it from the last. A zero
    /// element maps every element to 0.
    pub(crate) fn batch_invert(xs: &mut [Fe]) {
        // prefix[i] = x₀·x₁·…·xᵢ.
        let mut prefix: Vec<Fe> = Vec::with_capacity(xs.len());
        for &x in xs.iter() {
            prefix.push(prefix.last().map_or(x, |p| p.mul(x)));
        }
        let Some(product) = prefix.last() else {
            return;
        };
        // inv = (x₀·…·xᵢ)⁻¹ at step i, so inv·prefix[i − 1] = xᵢ⁻¹.
        let mut inv = product.invert();
        for i in (1..xs.len()).rev() {
            let x = xs[i];
            xs[i] = inv.mul(prefix[i - 1]);
            inv = inv.mul(x);
        }
        if let Some(first) = xs.first_mut() {
            *first = inv;
        }
    }

    /// Raise to the power (p − 5)/8 = 2²⁵² − 3, the exponent of the
    /// square-root candidate in point decompression (RFC 8032 §5.1.3).
    pub(crate) fn pow_p58(self) -> Fe {
        let (e250, _) = pow_2_250_minus_1(self, Fe::square_n, Fe::mul);
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

/// The shared prefix of the fixed exponentiations [`Fe::invert`],
/// [`Fe::pow_p58`] and [`ifma::Fe4::pow_p58`]: `(x^(2²⁵⁰ − 1), x^11)` by
/// the standard addition chain (249 squarings, 11 multiplications), over
/// whichever field body `square_n` and `mul` come from.
#[inline(always)]
fn pow_2_250_minus_1<F: Copy>(
    x: F,
    square_n: impl Fn(F, u32) -> F,
    mul: impl Fn(F, F) -> F,
) -> (F, F) {
    let x2 = square_n(x, 1);
    let x9 = mul(square_n(x2, 2), x);
    let x11 = mul(x9, x2);
    let e5 = mul(square_n(x11, 1), x9); // 2^5 − 1
    let e10 = mul(square_n(e5, 5), e5); // 2^10 − 1
    let e20 = mul(square_n(e10, 10), e10);
    let e40 = mul(square_n(e20, 20), e20);
    let e50 = mul(square_n(e40, 10), e10);
    let e100 = mul(square_n(e50, 50), e50);
    let e200 = mul(square_n(e100, 100), e100);
    let e250 = mul(square_n(e200, 50), e50);
    (e250, x11)
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

/// Whether this CPU has AVX-512 IFMA on 256-bit registers (`avx512ifma`
/// and `avx512vl`): every feature [`ifma::Fe4`] is compiled for.
pub(crate) fn ifma_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512ifma") && is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The 4-lane field on AVX-512 IFMA.
#[cfg(target_arch = "x86_64")]
pub(crate) mod ifma {
    use std::arch::x86_64::*;

    use super::{pow_2_250_minus_1, Fe, BOUND, MASK};

    /// Four field elements, one per 64-bit lane: lane j of `self.0[i]` is
    /// limb i (radix 2⁵¹, as in [`Fe`]) of element j.
    ///
    /// IFMA multiplies only the low 52 bits of each lane, so every operand
    /// of [`Fe4::mul_add`] must have limbs below 2⁵²; [`Fe4::mul_add`] and
    /// [`Fe4::add_sub`] take and return limbs below [`BOUND`], checked by
    /// debug assertions.
    #[derive(Clone, Copy)]
    pub(crate) struct Fe4([__m256i; 5]);

    /// Write masks, bit j for lane j.
    pub(crate) const LANE0: __mmask8 = 0b0001;
    pub(crate) const LANE1: __mmask8 = 0b0010;
    pub(crate) const LANE2: __mmask8 = 0b0100;
    pub(crate) const LANE3: __mmask8 = 0b1000;
    pub(crate) const ODD_LANES: __mmask8 = LANE1 | LANE3;

    /// The `permute4x64` immediate that puts lane `a` in lane 0, `b` in
    /// lane 1, `c` in lane 2 and `d` in lane 3.
    pub(crate) const fn lanes(a: i32, b: i32, c: i32, d: i32) -> i32 {
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
        pub(crate) fn new(e: [Fe; 4]) -> Fe4 {
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

        /// Four elements stored lane-major, as the Ed25519 tables keep
        /// them: `limbs[i][j]` is limb i of element j.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        pub(crate) fn from_limbs(limbs: &[[u64; 4]; 5]) -> Fe4 {
            let fe4 = Fe4(std::array::from_fn(|i| {
                let l = limbs[i];
                _mm256_set_epi64x(l[3] as i64, l[2] as i64, l[1] as i64, l[0] as i64)
            }));
            debug_assert!(fe4.below(BOUND));
            fe4
        }

        /// The inverse of [`Fe4::from_limbs`].
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        pub(crate) fn to_limbs(self) -> [[u64; 4]; 5] {
            self.0.map(|v| {
                [
                    _mm256_extract_epi64::<0>(v) as u64,
                    _mm256_extract_epi64::<1>(v) as u64,
                    _mm256_extract_epi64::<2>(v) as u64,
                    _mm256_extract_epi64::<3>(v) as u64,
                ]
            })
        }

        /// The element in lane `J`.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        pub(crate) fn lane<const J: i32>(self) -> Fe {
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
        pub(crate) fn permute<const IMM: i32>(self) -> Fe4 {
            Fe4(self.0.map(|v| _mm256_permute4x64_epi64::<IMM>(v)))
        }

        /// `other`'s lanes where `mask` is set, `self`'s elsewhere.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        pub(crate) fn blend(self, mask: __mmask8, other: Fe4) -> Fe4 {
            let mut limbs = self.0;
            for (limb, o) in limbs.iter_mut().zip(other.0) {
                *limb = _mm256_mask_blend_epi64(mask, *limb, o);
            }
            Fe4(limbs)
        }

        /// [`Fe4::permute`] on the lanes in `mask`, `src`'s lanes elsewhere.
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        pub(crate) fn permute_over<const IMM: i32>(self, mask: __mmask8, src: Fe4) -> Fe4 {
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
        pub(crate) fn cswap(self, swap: u64) -> Fe4 {
            let mask = (swap as u8).wrapping_neg() & 0b1111;
            self.permute_over::<{ lanes(2, 3, 0, 1) }>(mask, self)
        }

        /// `self + rhs` lane-wise, or `self − rhs` on the lanes in `sub`,
        /// carried back below [`BOUND`].
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        pub(crate) fn add_sub(self, rhs: Fe4, sub: __mmask8) -> Fe4 {
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
        pub(crate) fn mul_add(self, rhs: Fe4, addend: Fe4) -> Fe4 {
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

        /// Every lane raised to the power (p − 5)/8, as [`Fe::pow_p58`]
        /// does one element: the exponentiation of point decompression,
        /// four points per pass.
        #[target_feature(enable = "avx512ifma,avx512vl")]
        pub(crate) fn pow_p58(self) -> Fe4 {
            let zero = Fe4::new([Fe::ZERO; 4]);
            let mul = |a: Fe4, b: Fe4| a.mul_add(b, zero);
            let square_n = |a: Fe4, k: u32| (0..k).fold(a, |a, _| mul(a, a));
            let (e250, _) = pow_2_250_minus_1(self, square_n, mul);
            mul(square_n(e250, 2), self)
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
}
