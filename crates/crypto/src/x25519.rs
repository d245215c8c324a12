//! X25519 Diffie–Hellman key agreement (RFC 7748).
//!
//! This is the public-key primitive behind `enc(K_V, PubK_u)` in the paper:
//! view keys are sealed to a reader's public key with ephemeral-static
//! X25519 plus the symmetric AEAD (see [`crate::keys::seal`]).
//!
//! The field arithmetic is `crate::field`'s, shared with Ed25519: five
//! 51-bit limbs with `u128` intermediates, and the 4-lane IFMA field.
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
//! four `unsafe` blocks (see the crate docs).
//!
//! Both bodies swap the ladder's ends by mask, not by branch: the portable
//! one with an XOR mask (RFC 7748 §5's `cswap`), the vector one with a lane
//! permute under a write mask made from the key bit. The final reduction
//! in `Fe::to_bytes` selects by mask too. None of this is a
//! constant-time promise (see the crate docs).

use crate::field::Fe;

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
    crate::field::ifma_available()
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
    use crate::field::ifma::{lanes, Fe4, LANE1, LANE2, LANE3, ODD_LANES};
    use crate::field::Fe;

    use super::A24;

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
