//! Ed25519 signatures (RFC 8032).
//!
//! The Fabric substrate signs endorsements, blocks and identities with
//! Ed25519. Curve constants (`d`, `√−1`, the base point) are *derived* from
//! their definitions at first use rather than transcribed, and the RFC 8032
//! test vectors pin the result.
//!
//! # Two point bodies, one dispatch
//!
//! Every scalar multiplication is a loop of point doublings and additions:
//! the Straus walk behind [`verify`], [`VerifyingKey::verify`] and
//! [`verify_batch`], the fixed-base walk behind signing, key generation and
//! X25519 public keys, and the builders of the tables both walk. Those
//! loops run on one of two bodies:
//!
//! * on x86-64 CPUs with AVX-512 IFMA, a point's four extended coordinates
//!   (X, Y, Z, T) sit in the four lanes of the 4-lane field
//!   `crate::field` shares with the X25519 ladder. A doubling is one
//!   4-lane product of (X, Y, Z, X + Y) with itself, then (E, G, F, E)·(F,
//!   H, G, H); an addition is (Y − X, Y + X, Z, T)·(y − x, y + x, 2z, 2dT),
//!   then the same second product (Hisil, Wong, Carter and Dawson,
//!   "Twisted Edwards Curves Revisited", ASIACRYPT 2008, §4);
//! * everywhere else, the portable `Point` arithmetic on `Fe`. It is also
//!   the oracle the unit tests hold the vector body to.
//!
//! The body is chosen at run time with `is_x86_feature_detected!` (the
//! check [`crate::x25519::hardware_accelerated`] reports); there is no
//! feature flag, setting or environment variable, and both bodies give
//! bit-identical signatures, keys and verdicts. Each table is built once,
//! by the body this CPU runs, in one layout both bodies read. The call
//! into the vector body is one of the crate's four `unsafe` blocks (see
//! the crate docs).
//!
//! # Independent computations side by side
//!
//! One 4-lane product waits on the one before it, so the vector body is
//! latency-bound: a second, independent product beside the first costs
//! about half as much again. Every computation with an independent
//! sibling therefore runs beside it:
//!
//! * [`sign_many`] signs one message with several keys — the endorsers of
//!   a transaction — walking the fixed-base table for two nonces at once
//!   and compressing every `R` with one inversion (Montgomery's trick);
//! * [`verify_each`] checks several signatures under expanded keys, two
//!   Straus sums at a time; each entry is still checked by its own
//!   equation, so each verdict is the one [`VerifyingKey::verify`] gives;
//! * [`verify_each`] and [`verify_batch`] decompress their `R`s four per
//!   pass: the exponentiation of a decompression, one element per lane.
//!
//! [`SigningKey::sign`] and [`VerifyingKey::verify`] are the one-entry
//! cases of the same paths. The portable body runs the same sums one after
//! the other. Compression, inversion, SHA-512 and the scalar arithmetic are
//! portable either way.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::error::CryptoError;
use crate::field::{Fe, BOUND};
use crate::sha512::Sha512;

/// A point on the twisted Edwards curve in extended coordinates
/// (X : Y : Z : T) with T = XY/Z.
#[derive(Clone, Copy, Debug)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as the right-hand operand of [`Point::add`]:
/// (Y−X, Y+X, 2Z, 2dT), which takes the additions, the subtraction and the
/// multiplications by 2 and 2d out of each use. The portable body reads
/// every table [`Entry`] in this form.
#[derive(Clone, Copy, Debug)]
struct Cached {
    ymx: Fe,
    ypx: Fe,
    z2: Fe,
    t2d: Fe,
}

/// One table entry: a [`Cached`] point stored lane-major, `self.0[i][j]`
/// being limb i of coordinate j in the order (Y−X, Y+X, 2Z, 2dT), so that
/// the vector body loads it as one 4-lane element and the portable body as
/// a [`Cached`]. Every limb is carried below [`BOUND`]: IFMA reads only the
/// low 52 bits of a lane, and would drop the top of an uncarried sum
/// without any error.
#[derive(Clone, Copy, Debug)]
#[repr(align(32))]
struct Entry([[u64; 4]; 5]);

impl Entry {
    const ZERO: Entry = Entry([[0; 4]; 5]);

    /// The entry of a portable [`Cached`] point. Y + X and 2Z are
    /// uncarried sums, so they are carried here.
    fn from_cached(c: &Cached) -> Entry {
        let coords = [c.ymx, c.ypx.carry(), c.z2.carry(), c.t2d];
        debug_assert!(coords
            .iter()
            .all(|fe| fe.0.iter().all(|&limb| limb < BOUND)));
        Entry(std::array::from_fn(|i| coords.map(|fe| fe.0[i])))
    }

    /// The portable body's view of this entry.
    fn cached(&self) -> Cached {
        let coord = |j: usize| Fe(self.0.map(|limbs| limbs[j]));
        Cached {
            ymx: coord(0),
            ypx: coord(1),
            z2: coord(2),
            t2d: coord(3),
        }
    }
}

fn fe_small(v: u64) -> Fe {
    debug_assert!(v < (1 << 51));
    Fe([v, 0, 0, 0, 0])
}

fn fe_neg(a: Fe) -> Fe {
    Fe::ZERO.sub(a)
}

/// d = −121665/121666, computed from its definition.
fn d() -> Fe {
    static D: OnceLock<Fe> = OnceLock::new();
    *D.get_or_init(|| fe_neg(fe_small(121665)).mul(fe_small(121666).invert()))
}

/// 2d, carried, folded into [`Cached`] points.
fn d2() -> Fe {
    static D2: OnceLock<Fe> = OnceLock::new();
    *D2.get_or_init(|| d().add(d()).carry())
}

/// √−1 = 2^((p−1)/4), and (p − 1)/4 = 2·(p − 5)/8 + 1.
fn sqrt_m1() -> Fe {
    static I: OnceLock<Fe> = OnceLock::new();
    *I.get_or_init(|| {
        let two = fe_small(2);
        two.pow_p58().square().mul(two)
    })
}

/// The standard base point B, decompressed from its canonical encoding
/// (y = 4/5 with even x).
fn base_point() -> Point {
    static B: OnceLock<Point> = OnceLock::new();
    *B.get_or_init(|| {
        let mut enc = [0x66u8; 32];
        enc[0] = 0x58;
        decompress(&enc).expect("base point encoding is valid")
    })
}

impl Cached {
    fn neg(&self) -> Cached {
        Cached {
            ymx: self.ypx,
            ypx: self.ymx,
            z2: self.z2,
            t2d: fe_neg(self.t2d),
        }
    }
}

impl Point {
    /// The identity element (0, 1).
    fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    fn neg(&self) -> Point {
        Point {
            x: fe_neg(self.x),
            y: self.y,
            z: self.z,
            t: fe_neg(self.t),
        }
    }

    fn to_cached(self) -> Cached {
        Cached {
            ymx: self.y.sub(self.x),
            ypx: self.y.add(self.x),
            z2: self.z.add(self.z),
            t2d: self.t.mul(d2()),
        }
    }

    /// Unified point addition (add-2008-hwcd-3), 8M.
    fn add(&self, q: &Cached) -> Point {
        let a = self.y.sub(self.x).mul(q.ymx);
        let b = self.y.add(self.x).mul(q.ypx);
        let c = self.t.mul(q.t2d);
        let dd = self.z.mul(q.z2);
        let e = b.sub(a);
        let f = dd.sub(c);
        let g = dd.add(c);
        let h = b.add(a);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// `self + q` for a positive table digit, `self − q` for a negative one.
    fn add_signed(&self, q: &Entry, digit: i8) -> Point {
        let q = q.cached();
        if digit > 0 {
            self.add(&q)
        } else {
            self.add(&q.neg())
        }
    }

    /// Dedicated doubling (dbl-2008-hwcd with a = −1), 4S + 4M.
    fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(zz);
        let h = a.add(b);
        let e = h.sub(self.x.add(self.y).square());
        let g = a.sub(b);
        let f = c.add(g);
        Point {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// True for points of order 1, 2, 4 or 8 (the torsion subgroup):
    /// 8·P == identity after three doublings.
    fn is_small_order(&self) -> bool {
        self.double().double().double().equals(&Point::identity())
    }

    /// Compress to the 32-byte RFC 8032 encoding: y with the sign of x in
    /// the top bit.
    fn compress(&self) -> [u8; 32] {
        self.encode(self.z.invert())
    }

    /// [`Point::compress`] given `zinv` = 1/Z.
    fn encode(&self, zinv: Fe) -> [u8; 32] {
        let x = self.x.mul(zinv);
        let y = self.y.mul(zinv);
        let mut out = y.to_bytes();
        out[31] |= (x.to_bytes()[0] & 1) << 7;
        out
    }

    /// Projective equality: X1·Z2 == X2·Z1 and Y1·Z2 == Y2·Z1.
    fn equals(&self, q: &Point) -> bool {
        let a = self.x.mul(q.z).to_bytes();
        let b = q.x.mul(self.z).to_bytes();
        let c = self.y.mul(q.z).to_bytes();
        let d = q.y.mul(self.z).to_bytes();
        a == b && c == d
    }
}

/// [`Point::compress`] of every point, with one inversion for all of them
/// (see [`Fe::batch_invert`]).
fn compress_many(points: &[Point]) -> Vec<[u8; 32]> {
    let mut zinv: Vec<Fe> = points.iter().map(|p| p.z).collect();
    Fe::batch_invert(&mut zinv);
    points.iter().zip(zinv).map(|(p, z)| p.encode(z)).collect()
}

/// Which body runs a [`Job`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Body {
    /// The vector body where this CPU has AVX-512 IFMA, the portable one
    /// elsewhere.
    Best,
    /// The portable body, whatever the CPU: the baseline and the oracle.
    Portable,
}

/// A loop of field or point operations, for either body to run. One enum,
/// so that one `unsafe` call reaches the vector body for all of them. The
/// sums and walks come in slices: the vector body runs them two at a time
/// in lockstep, the portable body one after the other.
enum Job<'a> {
    /// `out[j] = Σ sᵢ·Pᵢ` over the terms of `sums[j]` (see
    /// [`straus_many`]).
    Straus {
        sums: &'a [&'a [Term<'a>]],
        out: &'a mut [Point],
    },
    /// `out[j] = Σ dᵢ·16ⁱ·B` over the rows of [`base_table`], for the
    /// signed radix-16 digits dᵢ of `digits[j]` (see [`base_mul_many`]).
    BaseMul {
        digits: &'a [[i8; 64]],
        table: &'a [[Entry; 8]],
        out: &'a mut [Point],
    },
    /// Fill `rows`, `row_len` entries a row: entry j of row i is
    /// (1 + step·j)·2^(shift·i)·P, with step 2 if `odd` and 1 otherwise.
    Table {
        p: Point,
        odd: bool,
        shift: u32,
        rows: &'a mut [Entry],
        row_len: usize,
    },
    /// Raise every element to the power (p − 5)/8, in place: the one
    /// exponentiation of a point decompression (see [`decompress_many`]).
    PowP58 { xs: &'a mut [Fe] },
}

/// Run `job` on `body`.
fn run(body: Body, job: Job<'_>) {
    #[cfg(target_arch = "x86_64")]
    if body == Body::Best && crate::field::ifma_available() {
        // SAFETY: `ifma_available` has just seen avx512ifma and avx512vl
        // on this CPU: every feature `ifma::run` enables.
        #[allow(unsafe_code)]
        return unsafe { ifma::run(job) };
    }
    match job {
        Job::Straus { sums, out } => {
            for (terms, out) in sums.iter().zip(out) {
                let mut acc = Point::identity();
                for i in (0..=top(terms).unwrap_or(0)).rev() {
                    acc = acc.double();
                    for t in terms.iter() {
                        let digit = t.naf[i];
                        if digit != 0 {
                            let entry = &t.table[digit.unsigned_abs() as usize / 2];
                            acc = acc.add_signed(entry, digit);
                        }
                    }
                }
                *out = acc;
            }
        }
        Job::BaseMul { digits, table, out } => {
            for (digits, out) in digits.iter().zip(out) {
                let mut acc = Point::identity();
                for (row, &digit) in table.iter().zip(digits) {
                    if digit != 0 {
                        acc = acc.add_signed(&row[digit.unsigned_abs() as usize - 1], digit);
                    }
                }
                *out = acc;
            }
        }
        Job::Table {
            p,
            odd,
            shift,
            rows,
            row_len,
        } => {
            let mut q = p;
            for (i, row) in rows.chunks_exact_mut(row_len).enumerate() {
                if i > 0 {
                    for _ in 0..shift {
                        q = q.double();
                    }
                }
                let step = if odd { q.double() } else { q }.to_cached();
                let mut cur = q;
                for (j, entry) in row.iter_mut().enumerate() {
                    if j > 0 {
                        cur = cur.add(&step);
                    }
                    *entry = Entry::from_cached(&cur.to_cached());
                }
            }
        }
        Job::PowP58 { xs } => {
            for x in xs {
                *x = x.pow_p58();
            }
        }
    }
}

/// The loops of [`run`] on four lanes of AVX-512 IFMA.
///
/// A point is one [`Fe4`] of (X, Y, Z, T), lane 0 to lane 3, and every
/// doubling and addition is two 4-lane multiplications with carried
/// additions and subtractions around them: the formulas of
/// [`Point::double`] and [`Point::add`], value for value. Lane permutes
/// and masked blends move values between them, and a table [`Entry`]
/// loads as one operand. Each multiplication waits on the one before it,
/// so two independent sums or walks run side by side: each phase of a
/// point operation runs for both before the next phase starts, and the
/// core overlaps their products. The exponentiation of decompression
/// instead puts four elements in the four lanes.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use crate::field::ifma::{lanes, Fe4, LANE0, LANE1, LANE2, LANE3};
    use crate::field::Fe;

    use super::{d2, top, Entry, Job, Point, Term};

    /// A point as (X, Y, Z, T), one coordinate a lane.
    #[derive(Clone, Copy)]
    struct P4(Fe4);

    /// One operation of a scalar multiplication: a doubling, or the
    /// addition of a table entry, negated if the flag is set.
    #[derive(Clone, Copy)]
    enum Step<'a> {
        Double,
        Add(&'a Entry, bool),
    }

    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn zero() -> Fe4 {
        Fe4::new([Fe::ZERO; 4])
    }

    impl P4 {
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn new(p: &Point) -> P4 {
            P4(Fe4::new([p.x, p.y, p.z, p.t]))
        }

        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn point(self) -> Point {
            Point {
                x: self.0.lane::<0>(),
                y: self.0.lane::<1>(),
                z: self.0.lane::<2>(),
                t: self.0.lane::<3>(),
            }
        }

        /// `steps[k]` applied to `points[k]`, for every k. A doubling and
        /// an addition are each two 4-lane products with carried additions
        /// and subtractions around them, and each phase runs for every
        /// point before the next one starts, so that the points' products
        /// overlap.
        ///
        /// Doubling ([`Point::double`]): (A, B, Z², S) = (X, Y, Z, X + Y)²,
        /// then (h, g, c) = (A + B, A − B, 2Z²), then (e, g, f, h) = (h −
        /// S, g, c + g, h).
        ///
        /// Addition of q ([`Point::add`]): (A, B, D, C) = (Y − X, Y + X, Z,
        /// T)·(y − x, y + x, 2z, 2dT), then (E, G, F, H) = (B − A, D + C, D
        /// − C, B + A). −q is (y + x, y − x, 2z, −2dT): its first two lanes
        /// are swapped on load, and the sign of its C swaps which of G and
        /// F subtracts.
        ///
        /// Both end in (E, G, F, E)·(F, H, G, H) = (X, Y, Z, T).
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn step_each<const N: usize>(points: [P4; N], steps: [Step<'_>; N]) -> [P4; N] {
            // The first product's operands.
            let mut left = [zero(); N];
            let mut right = [zero(); N];
            for (((p, step), left), right) in
                points.iter().zip(steps).zip(&mut left).zip(&mut right)
            {
                let s = p.0;
                match step {
                    Step::Double => {
                        let x_in_lane3 = s.permute_over::<{ lanes(0, 0, 0, 0) }>(LANE3, zero());
                        *left = s.permute::<{ lanes(0, 1, 2, 1) }>().add_sub(x_in_lane3, 0);
                        *right = *left;
                    }
                    Step::Add(q, negative) => {
                        let x_in_lanes01 = s
                            .permute::<{ lanes(0, 0, 0, 0) }>()
                            .blend(LANE2 | LANE3, zero());
                        *left = s
                            .permute::<{ lanes(1, 1, 2, 3) }>()
                            .add_sub(x_in_lanes01, LANE0);
                        let q = Fe4::from_limbs(&q.0);
                        let swap = u8::from(negative).wrapping_neg() & (LANE0 | LANE1);
                        *right = q.permute_over::<{ lanes(1, 0, 2, 3) }>(swap, q);
                    }
                }
            }
            for (left, right) in left.iter_mut().zip(right) {
                *left = left.mul_add(right, zero());
            }
            // (E, G, F, H), then the second product's operands.
            for ((product, right), step) in left.iter_mut().zip(&mut right).zip(steps) {
                let egfh = match step {
                    Step::Double => {
                        let sq = *product;
                        let hgch = sq
                            .permute::<{ lanes(0, 0, 2, 0) }>()
                            .add_sub(sq.permute::<{ lanes(1, 1, 2, 1) }>(), LANE1);
                        // (S, 0, g, 0).
                        let rhs = hgch.permute_over::<{ lanes(1, 1, 1, 1) }>(
                            LANE2,
                            sq.permute::<{ lanes(3, 3, 3, 3) }>()
                                .blend(LANE1 | LANE3, zero()),
                        );
                        hgch.add_sub(rhs, LANE0)
                    }
                    Step::Add(_, negative) => {
                        let neg = u8::from(negative).wrapping_neg();
                        let abdc = *product;
                        abdc.permute::<{ lanes(1, 2, 2, 1) }>().add_sub(
                            abdc.permute::<{ lanes(0, 3, 3, 0) }>(),
                            LANE0 | (neg & LANE1) | (!neg & LANE2),
                        )
                    }
                };
                *product = egfh.permute::<{ lanes(0, 1, 2, 0) }>();
                *right = egfh.permute::<{ lanes(2, 3, 1, 3) }>();
            }
            let mut out = [P4(zero()); N];
            for ((p, left), right) in out.iter_mut().zip(left).zip(right) {
                *p = P4(left.mul_add(right, zero()));
            }
            out
        }

        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn step(self, step: Step<'_>) -> P4 {
            let [p] = P4::step_each([self], [step]);
            p
        }

        /// This point as a table entry: (Y − X, Y + X, 2Z, T), then times
        /// `scale` = (1, 1, 1, 2d).
        #[inline]
        #[target_feature(enable = "avx512ifma,avx512vl")]
        fn entry(self, scale: Fe4) -> Entry {
            let s = self.0;
            let xxz = s.permute::<{ lanes(0, 0, 2, 3) }>().blend(LANE3, zero());
            let sums = s.permute::<{ lanes(1, 1, 2, 3) }>().add_sub(xxz, LANE0);
            Entry(sums.mul_add(scale, zero()).to_limbs())
        }
    }

    /// Apply each sequence of [`Step`]s to its accumulator: step k of
    /// every sequence runs beside step k of the others, and once some
    /// sequence has ended, the rest run one after the other.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn lockstep<'a, const N: usize>(
        acc: &mut [P4; N],
        mut steps: [impl Iterator<Item = Step<'a>>; N],
    ) {
        loop {
            let next = steps.each_mut().map(|s| s.next());
            if next.iter().all(Option::is_some) {
                // Every entry is `Some`: the default is never taken.
                *acc = P4::step_each(*acc, next.map(|s| s.unwrap_or(Step::Double)));
                continue;
            }
            for ((a, rest), step) in acc.iter_mut().zip(&mut steps).zip(next) {
                for step in step.into_iter().chain(rest) {
                    *a = a.step(step);
                }
            }
            return;
        }
    }

    /// `N` Straus sums in lockstep: at each digit position from the top
    /// down, every accumulator doubles, then the k-th addition of every
    /// sum runs beside the k-th of the others, for k = 0, 1, … until no
    /// sum has one left.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn straus<const N: usize>(sums: [&[Term<'_>]; N]) -> [Point; N] {
        let mut acc = [P4::new(&Point::identity()); N];
        let top = sums.iter().filter_map(|terms| top(terms)).max();
        for i in (0..=top.unwrap_or(0)).rev() {
            acc = P4::step_each(acc, [Step::Double; N]);
            let adds = sums.map(|terms| {
                terms.iter().filter_map(move |t| {
                    let digit = t.naf[i];
                    (digit != 0)
                        .then(|| Step::Add(&t.table[digit.unsigned_abs() as usize / 2], digit < 0))
                })
            });
            lockstep(&mut acc, adds);
        }
        acc.map(|a| a.point())
    }

    /// `N` fixed-base walks in lockstep: one addition per non-zero digit,
    /// from row 0 of the table up.
    #[inline]
    #[target_feature(enable = "avx512ifma,avx512vl")]
    fn base_mul<const N: usize>(digits: [&[i8; 64]; N], table: &[[Entry; 8]]) -> [Point; N] {
        let mut acc = [P4::new(&Point::identity()); N];
        let adds = digits.map(|digits| {
            table
                .iter()
                .zip(digits)
                .filter(|&(_, &digit)| digit != 0)
                .map(|(row, &digit)| Step::Add(&row[digit.unsigned_abs() as usize - 1], digit < 0))
        });
        lockstep(&mut acc, adds);
        acc.map(|a| a.point())
    }

    /// [`super::run`]'s loops on [`P4`]: the same sums and walks, two at
    /// a time in lockstep. One 4-lane product is latency-bound: a second,
    /// independent one beside it costs a fraction of the first. A lone
    /// sum or walk (the odd one out) runs by itself.
    #[target_feature(enable = "avx512ifma,avx512vl")]
    pub(super) fn run(job: Job<'_>) {
        match job {
            Job::Straus { sums, out } => {
                for (sums, out) in sums.chunks(2).zip(out.chunks_mut(2)) {
                    match (sums, out) {
                        (&[a, b], [pa, pb]) => {
                            [*pa, *pb] = straus([a, b]);
                        }
                        (sums, out) => {
                            for (&terms, p) in sums.iter().zip(out) {
                                [*p] = straus([terms]);
                            }
                        }
                    }
                }
            }
            Job::BaseMul { digits, table, out } => {
                for (digits, out) in digits.chunks(2).zip(out.chunks_mut(2)) {
                    match (digits, out) {
                        ([a, b], [pa, pb]) => {
                            [*pa, *pb] = base_mul([a, b], table);
                        }
                        (digits, out) => {
                            for (d, p) in digits.iter().zip(out) {
                                [*p] = base_mul([d], table);
                            }
                        }
                    }
                }
            }
            Job::Table {
                p,
                odd,
                shift,
                rows,
                row_len,
            } => {
                let scale = Fe4::new([Fe::ONE, Fe::ONE, Fe::ONE, d2()]);
                let mut q = P4::new(&p);
                for (i, row) in rows.chunks_exact_mut(row_len).enumerate() {
                    if i > 0 {
                        for _ in 0..shift {
                            q = q.step(Step::Double);
                        }
                    }
                    let step = if odd { q.step(Step::Double) } else { q }.entry(scale);
                    let mut cur = q;
                    for (j, entry) in row.iter_mut().enumerate() {
                        if j > 0 {
                            cur = cur.step(Step::Add(&step, false));
                        }
                        *entry = cur.entry(scale);
                    }
                }
            }
            Job::PowP58 { xs } => {
                for group in xs.chunks_mut(4) {
                    // One lane alone is quicker on the portable field.
                    if let [x] = group {
                        *x = x.pow_p58();
                        continue;
                    }
                    let last = group.len() - 1;
                    let pow = Fe4::new(std::array::from_fn(|j| group[j.min(last)])).pow_p58();
                    let lanes = [
                        pow.lane::<0>(),
                        pow.lane::<1>(),
                        pow.lane::<2>(),
                        pow.lane::<3>(),
                    ];
                    for (x, lane) in group.iter_mut().zip(lanes) {
                        *x = lane;
                    }
                }
            }
        }
    }
}

/// The odd multiples P, 3P, …, (2N−1)P: the table a width-w NAF digit
/// indexes, N = 2^(w−2).
fn odd_multiples<const N: usize>(body: Body, p: &Point) -> [Entry; N] {
    let mut table = [Entry::ZERO; N];
    run(
        body,
        Job::Table {
            p: *p,
            odd: true,
            shift: 0,
            rows: &mut table,
            row_len: N,
        },
    );
    table
}

/// A 256-bit scalar is cut into this many 64-bit chunks by
/// [`split_terms`]. Eight 32-bit chunks were measured (ISSUE 19) and are
/// not faster: twice the NAF ends and twice the tables for half as many
/// doublings.
const CHUNKS: usize = 4;

/// The odd multiples (N each) of P, 2⁶⁴P, 2¹²⁸P and 2¹⁹²P: one
/// [`odd_multiples`] table per chunk of a scalar, so that `s·P` is four
/// 64-bit terms sharing 64 doublings instead of one 256-bit term paying
/// 253.
fn split_tables<const N: usize>(body: Body, p: &Point) -> [[Entry; N]; CHUNKS] {
    let mut tables = [[Entry::ZERO; N]; CHUNKS];
    run(
        body,
        Job::Table {
            p: *p,
            odd: true,
            shift: (256 / CHUNKS) as u32,
            rows: tables.as_flattened_mut(),
            row_len: N,
        },
    );
    tables
}

/// [`split_tables`] of the base point for width-8 NAFs (40 KiB). Row 0 —
/// B, 3B, …, 127B — also serves the full-length base-point term of
/// [`verify_batch`].
fn base_split_tables() -> &'static [[Entry; 64]; CHUNKS] {
    static T: OnceLock<[[Entry; 64]; CHUNKS]> = OnceLock::new();
    T.get_or_init(|| split_tables(Body::Best, &base_point()))
}

/// The radix-16 fixed-base table: row i holds j·16ⁱ·B for j = 1..=8
/// (80 KiB, built once with 700 point operations and no inversion).
fn base_table() -> &'static [[Entry; 8]] {
    static T: OnceLock<Vec<[Entry; 8]>> = OnceLock::new();
    T.get_or_init(|| {
        let mut table = vec![[Entry::ZERO; 8]; 64];
        run(
            Body::Best,
            Job::Table {
                p: base_point(),
                odd: false,
                shift: 4,
                rows: table.as_flattened_mut(),
                row_len: 8,
            },
        );
        table
    })
}

/// `s·B` for any 256-bit little-endian scalar: one table addition per
/// non-zero signed radix-16 digit, no doublings (not constant time, see
/// crate disclaimer).
fn base_mul(body: Body, scalar_le: &[u8; 32]) -> Point {
    let mut out = [Point::identity()];
    base_mul_many(body, &[*scalar_le], &mut out);
    out[0]
}

/// `out[j] = scalars[j]·B` for every scalar, as [`base_mul`]: the vector
/// body walks the table for two scalars at once.
fn base_mul_many(body: Body, scalars: &[[u8; 32]], out: &mut [Point]) {
    let digits: Vec<[i8; 64]> = scalars.iter().map(radix16).collect();
    let table = base_table();
    run(
        body,
        Job::BaseMul {
            digits: &digits,
            table,
            out,
        },
    );
    for (p, scalar) in out.iter_mut().zip(scalars) {
        if scalar[31] >> 7 == 1 {
            *p = p.add(&table[63][7].cached()); // 8·16⁶³·B = 2²⁵⁵·B
        }
    }
}

/// The signed radix-16 digits of a scalar with bit 255 set aside: each in
/// [−8, 8), the last one ≤ 8.
fn radix16(scalar_le: &[u8; 32]) -> [i8; 64] {
    let mut digits = [0i8; 64];
    for (i, b) in scalar_le.iter().enumerate() {
        digits[2 * i] = (b & 15) as i8;
        digits[2 * i + 1] = (b >> 4) as i8;
    }
    digits[63] &= 7;
    for i in 0..63 {
        let carry = (digits[i] + 8) >> 4;
        digits[i] -= carry << 4;
        digits[i + 1] += carry;
    }
    digits
}

/// Width-`w` non-adjacent form of a 256-bit little-endian scalar: 257
/// signed digits, each zero or odd with |d| < 2^(w−1), any two non-zero
/// digits at least `w` positions apart, Σ dᵢ·2ⁱ equal to the scalar.
fn naf(scalar_le: &[u8; 32], w: u32) -> [i8; 257] {
    debug_assert!((2..=8).contains(&w));
    let mut limbs = [0u64; 5];
    for (limb, chunk) in limbs.iter_mut().zip(scalar_le.chunks_exact(8)) {
        *limb = chunk.iter().rev().fold(0, |acc, &b| (acc << 8) | b as u64);
    }
    // A NAF is at most one digit longer than its scalar: the 64-bit
    // chunks of `split_terms` stop here after 65 positions.
    let bit_length = limbs
        .iter()
        .rposition(|&limb| limb != 0)
        .map_or(0, |i| 64 * (i + 1) - limbs[i].leading_zeros() as usize);
    let width = 1u64 << w;
    let mut digits = [0i8; 257];
    let mut carry = 0u64;
    let mut pos = 0usize;
    while pos <= bit_length {
        let (idx, bit) = (pos / 64, pos % 64);
        let mut bits = limbs[idx] >> bit;
        if bit + w as usize > 64 {
            bits |= limbs[idx + 1] << (64 - bit);
        }
        let window = carry + (bits & (width - 1));
        if window & 1 == 0 {
            // Even (the carry, if any, rides on to the next bit).
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            digits[pos] = window as i8;
        } else {
            carry = 1;
            digits[pos] = (window as i64 - width as i64) as i8;
        }
        pos += w as usize;
    }
    digits
}

/// One term `s·P` of [`straus`]: the scalar in NAF and the odd multiples
/// of the point its digits index.
struct Term<'a> {
    naf: [i8; 257],
    table: &'a [Entry],
}

impl<'a> Term<'a> {
    /// `s·P` from [`odd_multiples`] of P; the table's length 2^(w−2) sets
    /// the NAF width, so every digit has its entry.
    fn new(scalar_le: &[u8; 32], table: &'a [Entry]) -> Term<'a> {
        debug_assert!(table.len().is_power_of_two());
        Term {
            naf: naf(scalar_le, table.len().trailing_zeros() + 2),
            table,
        }
    }
}

/// `s·P` as one term per table: the scalar is cut into `tables.len()`
/// equal slices and slice i indexes `tables[i]`, the odd multiples of
/// 2^(i·256/len)·P. A single table is the plain full-length term; the
/// four of [`split_tables`] give four 64-bit terms.
fn split_terms<'a, const N: usize>(
    scalar_le: &[u8; 32],
    tables: &'a [[Entry; N]],
) -> impl Iterator<Item = Term<'a>> {
    let scalar = *scalar_le;
    let width = 32 / tables.len();
    tables.iter().enumerate().map(move |(i, table)| {
        let mut slice = [0u8; 32];
        slice[..width].copy_from_slice(&scalar[i * width..(i + 1) * width]);
        Term::new(&slice, table)
    })
}

/// Multi-scalar multiplication `Σ sᵢ·Pᵢ` sharing one doubling chain across
/// every term (Straus's trick) with sliding signed windows: the whole sum
/// pays its ~253 doublings once, and each term one addition per non-zero
/// NAF digit — every w+1 bits on average. Short scalars (the 128-bit
/// coefficients of batch verification) have no digits above their top bit
/// and cost proportionally less.
fn straus(body: Body, terms: &[Term<'_>]) -> Point {
    let mut out = [Point::identity()];
    straus_many(body, &[terms], &mut out);
    out[0]
}

/// `out[j]` = [`straus`] of `sums[j]`, for independent sums: the vector
/// body runs two at once.
fn straus_many(body: Body, sums: &[&[Term<'_>]], out: &mut [Point]) {
    run(body, Job::Straus { sums, out });
}

/// The highest digit position at which some term is non-zero; `None` if
/// every digit is zero and the sum is the identity.
fn top(terms: &[Term<'_>]) -> Option<usize> {
    terms
        .iter()
        .filter_map(|t| t.naf.iter().rposition(|&d| d != 0))
        .max()
}

/// Check that the y-coordinate of a point encoding is canonically reduced
/// (y < p = 2²⁵⁵ − 19, after masking the sign bit). RFC 8032 §5.1.3
/// requires rejecting non-canonical encodings.
fn is_canonical_y(enc: &[u8; 32]) -> bool {
    // p in little-endian bytes: ed, ff × 30, 7f.
    let mut y = *enc;
    y[31] &= 0x7f;
    if y[31] < 0x7f {
        return true;
    }
    for i in (1..31).rev() {
        if y[i] < 0xff {
            return true;
        }
    }
    y[0] < 0xed
}

/// Decompress an RFC 8032 point encoding (§5.1.3).
fn decompress(enc: &[u8; 32]) -> Result<Point, CryptoError> {
    let mut d = Decompression::start(enc)?;
    d.w = d.w.pow_p58();
    d.finish()
}

/// [`decompress`] of every encoding, the exponentiations four per pass on
/// the vector body; each result is the one [`decompress`] gives.
fn decompress_many(body: Body, encs: &[[u8; 32]]) -> Vec<Result<Point, CryptoError>> {
    let mut started: Vec<Result<Decompression, CryptoError>> =
        encs.iter().map(Decompression::start).collect();
    let mut ws: Vec<Fe> = started.iter().flatten().map(|d| d.w).collect();
    run(body, Job::PowP58 { xs: &mut ws });
    for (d, w) in started.iter_mut().flatten().zip(ws) {
        d.w = w;
    }
    started
        .into_iter()
        .map(|d| d.and_then(Decompression::finish))
        .collect()
}

/// A point decompression cut at its one exponentiation: the candidate
/// root is x = u·v³·(u·v⁷)^((p−5)/8), for u = y² − 1 and v = d·y² + 1.
struct Decompression {
    y: Fe,
    u: Fe,
    v: Fe,
    uv3: Fe,
    /// u·v⁷ from [`Decompression::start`]; the caller raises it to the
    /// power (p − 5)/8 before [`Decompression::finish`].
    w: Fe,
    sign: u8,
}

impl Decompression {
    fn start(enc: &[u8; 32]) -> Result<Decompression, CryptoError> {
        if !is_canonical_y(enc) {
            return Err(CryptoError::MalformedInput);
        }
        let y = Fe::from_bytes(enc); // from_bytes masks the sign bit
        let y2 = y.square();
        let u = y2.sub(Fe::ONE);
        let v = d().mul(y2).add(Fe::ONE);
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        Ok(Decompression {
            y,
            u,
            v,
            uv3: u.mul(v3),
            w: u.mul(v7),
            sign: enc[31] >> 7,
        })
    }

    /// The point, once `w` holds (u·v⁷)^((p−5)/8).
    fn finish(self) -> Result<Point, CryptoError> {
        let Decompression {
            y,
            u,
            v,
            uv3,
            w,
            sign,
        } = self;
        let mut x = uv3.mul(w);
        let vx2 = v.mul(x.square());
        if vx2.sub(u).is_zero() {
            // x is already a root.
        } else if vx2.add(u).is_zero() {
            x = x.mul(sqrt_m1());
        } else {
            return Err(CryptoError::MalformedInput);
        }

        if x.is_zero() && sign == 1 {
            return Err(CryptoError::MalformedInput);
        }
        if x.to_bytes()[0] & 1 != sign {
            x = fe_neg(x);
        }
        Ok(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }
}

/// The group order L as 32 little-endian bytes:
/// 2²⁵² + 27742317777372353535851937790883648493.
const L: [i64; 32] = [
    0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
];

/// L as eight 32-bit little-endian limbs, derived from the bytes above.
const L_LIMBS: [i128; 8] = {
    let mut limbs = [0i128; 8];
    let mut i = 0;
    while i < 32 {
        limbs[i / 4] |= (L[i] as i128) << (8 * (i % 4));
        i += 1;
    }
    limbs
};

/// The first 4·N little-endian bytes as N 32-bit limbs.
fn load_limbs<const N: usize>(bytes: &[u8]) -> [u64; N] {
    std::array::from_fn(|i| {
        let b = &bytes[4 * i..4 * i + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64
    })
}

/// Reduce a 512-bit integer held in sixteen signed 32-bit limbs (any
/// magnitude the products of [`mul_add`] reach) modulo L. TweetNaCl's
/// `modL` at radix 2³²: with L = 2²⁵² + c, 2²⁵⁶ ≡ −16c, and 16c spans
/// five limbs, so each high limb folds into the five limbs eight places
/// below it.
fn mod_l(x: &mut [i128; 16]) -> [u8; 32] {
    for i in (8..16).rev() {
        let mut carry: i128 = 0;
        for j in (i - 8)..(i - 3) {
            x[j] += carry - 16 * x[i] * L_LIMBS[j - (i - 8)];
            carry = (x[j] + (1 << 31)) >> 32;
            x[j] -= carry << 32;
        }
        x[i - 3] += carry;
        x[i] = 0;
    }
    // Subtract the multiple of L the top limb announces, then add L back
    // once if that went below zero.
    let quotient = x[7] >> 28;
    let mut carry: i128 = 0;
    for j in 0..8 {
        x[j] += carry - quotient * L_LIMBS[j];
        carry = x[j] >> 32;
        x[j] &= 0xffff_ffff;
    }
    for j in 0..8 {
        x[j] -= carry * L_LIMBS[j];
    }
    let mut r = [0u8; 32];
    let mut carry: i128 = 0;
    for (limb, out) in x.iter().zip(r.chunks_exact_mut(4)) {
        let v = limb + carry;
        carry = v >> 32;
        out.copy_from_slice(&(v as u32).to_le_bytes());
    }
    r
}

/// Reduce a 64-byte hash output modulo L.
fn reduce64(h: &[u8; 64]) -> [u8; 32] {
    mod_l(&mut load_limbs::<16>(h).map(i128::from))
}

/// Compute (a·b + c) mod L over 32-byte little-endian scalars.
fn mul_add(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
    let (a, b, c) = (load_limbs::<8>(a), load_limbs::<8>(b), load_limbs::<8>(c));
    let mut x = [0i128; 16];
    for (xi, ci) in x.iter_mut().zip(c) {
        *xi = ci.into();
    }
    for (i, ai) in a.iter().enumerate() {
        for (j, bj) in b.iter().enumerate() {
            x[i + j] += i128::from(ai * bj);
        }
    }
    mod_l(&mut x)
}

/// Check that a 32-byte little-endian scalar is canonically reduced (< L).
fn is_canonical_scalar(s: &[u8; 32]) -> bool {
    for i in (0..32).rev() {
        let si = s[i] as i64;
        if si < L[i] {
            return true;
        }
        if si > L[i] {
            return false;
        }
    }
    false // s == L
}

fn clamp(mut s: [u8; 32]) -> [u8; 32] {
    s[0] &= 248;
    s[31] &= 63;
    s[31] |= 64;
    s
}

/// An expanded secret key (RFC 8032 §5.1.5): the clamped scalar, the nonce
/// prefix and the public key `A = s·B`, so that signing neither re-hashes
/// the seed nor re-derives `A`.
#[derive(Clone)]
pub struct SigningKey {
    scalar: [u8; 32],
    prefix: [u8; 32],
    public: [u8; 32],
}

impl SigningKey {
    /// Expand a 32-byte secret seed.
    pub fn from_seed(seed: &[u8; 32]) -> SigningKey {
        SigningKey::expand(Body::Best, seed)
    }

    fn expand(body: Body, seed: &[u8; 32]) -> SigningKey {
        let (scalar, prefix) = split64(&crate::sha512::sha512(seed).0);
        let scalar = clamp(scalar);
        SigningKey {
            scalar,
            prefix,
            public: base_mul(body, &scalar).compress(),
        }
    }

    /// The 32-byte public key.
    pub fn public_key(&self) -> [u8; 32] {
        self.public
    }

    /// Sign `message`, returning a 64-byte signature: [`sign_many`] with
    /// this key alone.
    pub fn sign(&self, message: &[u8]) -> [u8; 64] {
        self.sign_on(Body::Best, message)
    }

    /// [`SigningKey::sign`] on the portable point body, whatever the CPU:
    /// the baseline the IFMA body is measured against
    /// (`ed25519/sign_portable` in the crypto benches) and its oracle.
    pub fn sign_portable(&self, message: &[u8]) -> [u8; 64] {
        self.sign_on(Body::Portable, message)
    }

    fn sign_on(&self, body: Body, message: &[u8]) -> [u8; 64] {
        let mut sig = [[0u8; 64]];
        sign_into(body, &[self], message, &mut sig);
        sig[0]
    }
}

/// Sign one `message` with every key, in key order: all of a
/// transaction's endorsers sign the same bytes. Each signature is the one
/// [`SigningKey::sign`] gives; the vector body computes the nonce points
/// two at a time, and all of them are compressed with one inversion.
pub fn sign_many(keys: &[&SigningKey], message: &[u8]) -> Vec<[u8; 64]> {
    let mut sigs = vec![[0u8; 64]; keys.len()];
    sign_into(Body::Best, keys, message, &mut sigs);
    sigs
}

/// [`sign_many`] on the portable point body, whatever the CPU: the
/// baseline of `ed25519/sign_pair` (`ed25519/sign_pair_portable` in the
/// crypto benches).
pub fn sign_many_portable(keys: &[&SigningKey], message: &[u8]) -> Vec<[u8; 64]> {
    let mut sigs = vec![[0u8; 64]; keys.len()];
    sign_into(Body::Portable, keys, message, &mut sigs);
    sigs
}

/// `sigs[j]` = the signature of `message` by `keys[j]` (RFC 8032 §5.1.6):
/// r = SHA-512(prefix ‖ M) mod L, R = r·B, S = r + SHA-512(R ‖ A ‖ M)·s.
fn sign_into(body: Body, keys: &[&SigningKey], message: &[u8], sigs: &mut [[u8; 64]]) {
    let nonces: Vec<[u8; 32]> = keys
        .iter()
        .map(|key| {
            let mut hasher = Sha512::new();
            hasher.update(&key.prefix);
            hasher.update(message);
            reduce64(&hasher.finalize().0)
        })
        .collect();
    let mut points = vec![Point::identity(); keys.len()];
    base_mul_many(body, &nonces, &mut points);
    let r_encs = compress_many(&points);
    for (((sig, key), r), r_enc) in sigs.iter_mut().zip(keys).zip(&nonces).zip(&r_encs) {
        let k = challenge(r_enc, &key.public, message);
        sig[..32].copy_from_slice(r_enc);
        sig[32..].copy_from_slice(&mul_add(&k, &key.scalar, r));
    }
}

/// The two halves of a 64-byte string (a signature `R ‖ S`, a SHA-512
/// output).
fn split64(b: &[u8; 64]) -> ([u8; 32], [u8; 32]) {
    (
        std::array::from_fn(|i| b[i]),
        std::array::from_fn(|i| b[32 + i]),
    )
}

/// The challenge scalar k = SHA-512(R ‖ A ‖ M) mod L.
fn challenge(r_enc: &[u8; 32], public_key: &[u8; 32], message: &[u8]) -> [u8; 32] {
    let mut hasher = Sha512::new();
    hasher.update(r_enc);
    hasher.update(public_key);
    hasher.update(message);
    reduce64(&hasher.finalize().0)
}

/// Derive the 32-byte public key for a 32-byte secret seed.
pub fn public_key(seed: &[u8; 32]) -> [u8; 32] {
    SigningKey::from_seed(seed).public_key()
}

/// Sign `message` with the secret `seed`, returning a 64-byte signature.
/// Callers that sign more than once should keep a [`SigningKey`].
pub fn sign(seed: &[u8; 32], message: &[u8]) -> [u8; 64] {
    SigningKey::from_seed(seed).sign(message)
}

/// The u-coordinate of `s·B` on the birationally equivalent Montgomery
/// curve, u = (1 + y)/(1 − y): X25519's public-key derivation without a
/// ladder. The scalar is used as given (the caller clamps).
pub(crate) fn base_mul_montgomery_u(scalar_le: &[u8; 32]) -> [u8; 32] {
    montgomery_u(Body::Best, scalar_le)
}

fn montgomery_u(body: Body, scalar_le: &[u8; 32]) -> [u8; 32] {
    let p = base_mul(body, scalar_le);
    p.z.add(p.y).mul(p.z.sub(p.y).invert()).to_bytes()
}

/// Decode and pre-validate a public key: canonical encoding, on the curve,
/// and not of small order (torsion keys admit signatures that verify for
/// every message).
fn decode_public_key(public_key: &[u8; 32]) -> Result<Point, CryptoError> {
    let a = decompress(public_key).map_err(|_| CryptoError::InvalidSignature)?;
    if a.is_small_order() {
        return Err(CryptoError::InvalidSignature);
    }
    Ok(a)
}

/// Verify a 64-byte signature over `message` under `public_key`. Callers
/// that verify under the same key more than twice should keep a
/// [`VerifyingKey`].
pub fn verify(public_key: &[u8; 32], message: &[u8], sig: &[u8; 64]) -> Result<(), CryptoError> {
    verify_on(Body::Best, public_key, message, sig)
}

fn verify_on(
    body: Body,
    public_key: &[u8; 32],
    message: &[u8],
    sig: &[u8; 64],
) -> Result<(), CryptoError> {
    let a = decode_public_key(public_key)?;
    let minus_a: [Entry; 8] = odd_multiples(body, &a.neg());
    check_signature(body, public_key, &[minus_a], message, sig)
}

/// One signature for [`check_signatures`]: the key as its encoding and as
/// tables of `−A` for [`split_terms`] — one full-length table from
/// [`verify`], four short ones from a [`VerifyingKey`]; the tables' owner
/// has already validated `A`.
struct Check<'a, const N: usize> {
    public_key: &'a [u8; 32],
    minus_a: &'a [[Entry; N]],
    message: &'a [u8],
    sig: &'a [u8; 64],
}

/// [`check_signatures`] of one signature.
fn check_signature<const N: usize>(
    body: Body,
    public_key: &[u8; 32],
    minus_a: &[[Entry; N]],
    message: &[u8],
    sig: &[u8; 64],
) -> Result<(), CryptoError> {
    let check = Check {
        public_key,
        minus_a,
        message,
        sig,
    };
    let mut verdict = [Ok(())];
    check_signatures(body, &[check], &mut verdict);
    verdict[0]
}

/// The single-signature check `S·B − k·A == R` of every entry, each by
/// its own equation, into `verdicts`: the `R`s are decompressed four per
/// pass and the sums run two at a time, but no entry's verdict depends on
/// another's.
fn check_signatures<const N: usize>(
    body: Body,
    checks: &[Check<'_, N>],
    verdicts: &mut [Result<(), CryptoError>],
) {
    let r_encs: Vec<[u8; 32]> = checks.iter().map(|c| split64(c.sig).0).collect();
    let rs = decompress_many(body, &r_encs);
    // (verdict slot, R, terms) of every entry with a canonical S and an R
    // on the curve.
    let mut live = Vec::with_capacity(checks.len());
    for (((c, verdict), r_enc), r) in checks.iter().zip(verdicts.iter_mut()).zip(&r_encs).zip(rs) {
        *verdict = Err(CryptoError::InvalidSignature);
        let s = split64(c.sig).1;
        let Ok(r) = r else {
            continue;
        };
        if !is_canonical_scalar(&s) {
            continue;
        }
        let k = challenge(r_enc, c.public_key, c.message);
        let terms: Vec<Term<'_>> = split_terms(&s, &base_split_tables()[..c.minus_a.len()])
            .chain(split_terms(&k, c.minus_a))
            .collect();
        live.push((verdict, r, terms));
    }
    let sums: Vec<&[Term<'_>]> = live.iter().map(|(_, _, terms)| terms.as_slice()).collect();
    let mut points = vec![Point::identity(); live.len()];
    straus_many(body, &sums, &mut points);
    for ((verdict, r, _), p) in live.into_iter().zip(points) {
        if p.equals(&r) {
            *verdict = Ok(());
        }
    }
}

/// An expanded public key, the mirror of [`SigningKey`]: decoded and
/// validated once, with the odd multiples of −A, −2⁶⁴A, −2¹²⁸A and −2¹⁹²A
/// (10 KiB) that let [`VerifyingKey::verify`] run 64 doublings where
/// [`verify`] runs 253. Expanding costs 192 doublings and four small
/// tables — less than two verifications save — so a key that signs more
/// than twice is worth keeping in this form.
#[derive(Clone)]
pub struct VerifyingKey {
    bytes: [u8; 32],
    minus_a: [[Entry; 16]; CHUNKS],
}

impl VerifyingKey {
    /// Expand a 32-byte public key, rejecting exactly what [`verify`]
    /// rejects in a key: a non-canonical or off-curve encoding and points
    /// of small order.
    pub fn from_bytes(public_key: &[u8; 32]) -> Result<VerifyingKey, CryptoError> {
        VerifyingKey::expand(Body::Best, public_key)
    }

    fn expand(body: Body, public_key: &[u8; 32]) -> Result<VerifyingKey, CryptoError> {
        let a = decode_public_key(public_key)?;
        Ok(VerifyingKey {
            bytes: *public_key,
            minus_a: split_tables(body, &a.neg()),
        })
    }

    /// The 32-byte encoding this key was expanded from.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bytes
    }

    /// Verify a 64-byte signature over `message`; accepts exactly what
    /// [`verify`] accepts under the same key bytes. This is [`verify_each`]
    /// of one entry.
    pub fn verify(&self, message: &[u8], sig: &[u8; 64]) -> Result<(), CryptoError> {
        check_signature(Body::Best, &self.bytes, &self.minus_a, message, sig)
    }

    fn check<'a>(&'a self, message: &'a [u8], sig: &'a [u8; 64]) -> Check<'a, 16> {
        Check {
            public_key: &self.bytes,
            minus_a: &self.minus_a,
            message,
            sig,
        }
    }

    /// [`VerifyingKey::verify`] on the portable point body, whatever the
    /// CPU, over the same tables: the baseline the IFMA body is measured
    /// against (`ed25519/verify_known_key_portable` in the crypto benches)
    /// and its oracle.
    pub fn verify_portable(&self, message: &[u8], sig: &[u8; 64]) -> Result<(), CryptoError> {
        check_signature(Body::Portable, &self.bytes, &self.minus_a, message, sig)
    }
}

/// [`VerifyingKey::verify`] of every `(key, message, signature)`, in
/// order. Each entry is checked by its own equation, so each verdict is
/// the one a lone [`VerifyingKey::verify`] gives; the vector body
/// decompresses the `R`s four per pass and runs the checks two at a time.
pub fn verify_each(entries: &[(&VerifyingKey, &[u8], &[u8; 64])]) -> Vec<Result<(), CryptoError>> {
    verify_each_on(Body::Best, entries)
}

/// [`verify_each`] on the portable point body, whatever the CPU: the
/// baseline of `ed25519/verify_known_key_pair`
/// (`ed25519/verify_known_key_pair_portable` in the crypto benches).
pub fn verify_each_portable(
    entries: &[(&VerifyingKey, &[u8], &[u8; 64])],
) -> Vec<Result<(), CryptoError>> {
    verify_each_on(Body::Portable, entries)
}

fn verify_each_on(
    body: Body,
    entries: &[(&VerifyingKey, &[u8], &[u8; 64])],
) -> Vec<Result<(), CryptoError>> {
    let checks: Vec<Check<'_, 16>> = entries
        .iter()
        .map(|&(key, message, sig)| key.check(message, sig))
        .collect();
    let mut verdicts = vec![Ok(()); entries.len()];
    check_signatures(body, &checks, &mut verdicts);
    verdicts
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({})", crate::hex::encode(&self.bytes))
    }
}

/// One signature to be checked by [`verify_batch`].
#[derive(Clone, Copy, Debug)]
pub struct BatchEntry<'a> {
    /// The 32-byte compressed public key.
    pub public_key: &'a [u8; 32],
    /// The signed message.
    pub message: &'a [u8],
    /// The 64-byte signature.
    pub signature: &'a [u8; 64],
}

/// Verify a batch of Ed25519 signatures with one combined check.
///
/// Uses the standard random-linear-combination technique: with per-entry
/// 128-bit coefficients `z_i`, the batch is valid when
///
/// ```text
/// (Σ z_i·s_i mod L)·B − Σ z_i·R_i − Σ_A (Σ_{i: A_i = A} z_i·k_i mod L)·A  ==  0
/// ```
///
/// The left-hand side is one multi-scalar multiplication (`straus`)
/// sharing a single doubling chain across every term. Entries under the
/// same public key share one term: the key is decompressed and
/// torsion-checked once and the entries' `z_i·k_i` coefficients are summed
/// mod L — a block's endorsements come from a handful of peers, so a
/// 64-entry batch is typically 64 half-length `R` terms and two or three
/// full-length key terms. The coefficients are derived by hashing the
/// entire batch content, so the check is deterministic (a requirement of
/// this simulator) while a forged entry still has to beat a ~2⁻¹²⁸ chance
/// of cancelling the combination.
///
/// No cofactor multiplication is applied. For public keys in the
/// prime-order subgroup — every honestly generated key — a batch accepts
/// exactly when every entry verifies individually (up to that negligible
/// probability); a key with a torsion component that is not itself of
/// small order can make the two disagree, as it can for any non-cofactored
/// batch equation. Callers that need to attribute a failure fall back to
/// [`verify`] per entry.
///
/// Batches longer than 64 entries are checked as consecutive 64-entry
/// batches, each with its own coefficients.
///
/// An `Err` means at least one entry is invalid (or a combined equation
/// failed); it does not identify which entry.
pub fn verify_batch(entries: &[BatchEntry<'_>]) -> Result<(), CryptoError> {
    verify_batch_on(Body::Best, entries)
}

fn verify_batch_on(body: Body, entries: &[BatchEntry<'_>]) -> Result<(), CryptoError> {
    entries
        .chunks(BATCH_CHUNK)
        .try_for_each(|chunk| verify_chunk(body, chunk))
}

/// Entries checked per combined equation. Each entry holds a 1.3 KiB table
/// of multiples of its `R` for the length of the check, so this bounds the
/// working set (~100 KiB, cache-resident) whatever the caller passes; the
/// shared doubling chain and key terms are already amortised to a few
/// percent of an entry's cost at this size.
const BATCH_CHUNK: usize = 64;

/// [`verify_batch`] on at most [`BATCH_CHUNK`] entries.
fn verify_chunk(body: Body, entries: &[BatchEntry<'_>]) -> Result<(), CryptoError> {
    if entries.len() == 1 {
        let e = entries[0];
        return verify_on(body, e.public_key, e.message, e.signature);
    }

    // Derive the coefficient seed from the entire batch content. Long
    // messages are pre-hashed so the transcript stays small.
    let mut transcript = Sha512::new();
    transcript.update(b"ledgerview.ed25519.batch.v1");
    for e in entries {
        transcript.update(e.public_key);
        transcript.update(e.signature);
        transcript.update(&crate::sha512::sha512(e.message).0);
    }
    let seed = transcript.finalize().0;

    // Decode and pre-validate every entry, folding it into the three sums:
    // `points` holds (coefficient, odd multiples of −P) for every distinct
    // public key and every R.
    let r_encs: Vec<[u8; 32]> = entries.iter().map(|e| split64(e.signature).0).collect();
    let rs = decompress_many(body, &r_encs);
    let mut s_sum = [0u8; 32];
    let mut points: Vec<([u8; 32], [Entry; 8])> = Vec::with_capacity(entries.len() + 2);
    let mut key_slot: HashMap<&[u8; 32], usize> = HashMap::new();
    for (i, (e, r)) in entries.iter().zip(rs).enumerate() {
        let (r_enc, s) = split64(e.signature);
        if !is_canonical_scalar(&s) {
            return Err(CryptoError::InvalidSignature);
        }
        let slot = match key_slot.get(e.public_key) {
            Some(&slot) => slot,
            None => {
                let a = decode_public_key(e.public_key)?;
                let slot = points.len();
                points.push(([0u8; 32], odd_multiples(body, &a.neg())));
                key_slot.insert(e.public_key, slot);
                slot
            }
        };
        let r = r.map_err(|_| CryptoError::InvalidSignature)?;
        let k = challenge(&r_enc, e.public_key, e.message);

        let mut zh = Sha512::new();
        zh.update(&seed);
        zh.update(&(i as u64).to_le_bytes());
        let mut z = [0u8; 32];
        z[..16].copy_from_slice(&zh.finalize().0[..16]);

        s_sum = mul_add(&z, &s, &s_sum);
        points[slot].0 = mul_add(&z, &k, &points[slot].0);
        points.push((z, odd_multiples(body, &r.neg())));
    }

    let mut terms = Vec::with_capacity(1 + points.len());
    terms.push(Term::new(&s_sum, &base_split_tables()[0]));
    terms.extend(
        points
            .iter()
            .map(|(coefficient, table)| Term::new(coefficient, table)),
    );
    if straus(body, &terms).equals(&Point::identity()) {
        Ok(())
    } else {
        Err(CryptoError::InvalidSignature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    fn arr32(s: &str) -> [u8; 32] {
        hex::decode(s).unwrap().try_into().unwrap()
    }

    /// The differential oracle for every fast path: bit-by-bit
    /// double-and-add through the unified addition alone.
    fn scalar_mul(p: &Point, scalar_le: &[u8; 32]) -> Point {
        let mut result = Point::identity();
        let mut acc = *p;
        for byte in scalar_le {
            for bit in 0..8 {
                if (byte >> bit) & 1 == 1 {
                    result = result.add(&acc.to_cached());
                }
                acc = acc.add(&acc.to_cached());
            }
        }
        result
    }

    fn l_bytes() -> [u8; 32] {
        L.map(|v| v as u8)
    }

    /// TweetNaCl's byte-at-a-time `modL`, the oracle the limb version is
    /// held to.
    fn mod_l_bytes(x: &mut [i64; 64]) -> [u8; 32] {
        for i in (32..64).rev() {
            let mut carry: i64 = 0;
            for j in (i - 32)..(i - 12) {
                x[j] += carry - 16 * x[i] * L[j - (i - 32)];
                carry = (x[j] + 128) >> 8;
                x[j] -= carry << 8;
            }
            x[i - 12] += carry;
            x[i] = 0;
        }
        let mut carry: i64 = 0;
        for j in 0..32 {
            x[j] += carry - (x[31] >> 4) * L[j];
            carry = x[j] >> 8;
            x[j] &= 255;
        }
        for j in 0..32 {
            x[j] -= carry * L[j];
        }
        let mut r = [0u8; 32];
        for i in 0..32 {
            x[i + 1] += x[i] >> 8;
            r[i] = (x[i] & 255) as u8;
        }
        r
    }

    fn reduce64_bytes(h: &[u8; 64]) -> [u8; 32] {
        let mut x = [0i64; 64];
        for (i, b) in h.iter().enumerate() {
            x[i] = *b as i64;
        }
        mod_l_bytes(&mut x)
    }

    fn mul_add_bytes(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32]) -> [u8; 32] {
        let mut x = [0i64; 64];
        for (i, v) in c.iter().enumerate() {
            x[i] = *v as i64;
        }
        for i in 0..32 {
            for j in 0..32 {
                x[i + j] += (a[i] as i64) * (b[j] as i64);
            }
        }
        mod_l_bytes(&mut x)
    }

    /// `base + delta` for a small signed delta that neither borrows out of
    /// nor carries past byte 0.
    fn nudge(mut base: [u8; 32], delta: i8) -> [u8; 32] {
        base[0] = base[0].checked_add_signed(delta).unwrap();
        base
    }

    fn power_of_two(bit: usize) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[bit / 8] = 1 << (bit % 8);
        s
    }

    /// A signature `R ‖ S` with the given scalar half.
    fn with_s(sig: &[u8; 64], s: &[u8; 32]) -> [u8; 64] {
        let mut out = *sig;
        out[32..].copy_from_slice(s);
        out
    }

    /// `R ‖ S + L`: the same point equation in a second, non-canonical
    /// encoding (S + L < 2²⁵⁶ for every canonical S).
    fn with_s_plus_l(sig: &[u8; 64]) -> [u8; 64] {
        let mut carry = 0u16;
        let s_plus_l: [u8; 32] = std::array::from_fn(|i| {
            let v = sig[32 + i] as u16 + L[i] as u16 + carry;
            carry = v >> 8;
            v as u8
        });
        assert_eq!(carry, 0);
        with_s(sig, &s_plus_l)
    }

    /// 0, 1, L − 1, L, 2²⁵⁶ − 1, 2¹²⁸ − 1, 2²⁵⁵ and a lone top nibble.
    fn edge_scalars() -> Vec<[u8; 32]> {
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut l_minus_1 = l_bytes();
        l_minus_1[0] -= 1;
        let mut low_half = [0u8; 32];
        low_half[..16].fill(0xff);
        let mut top_bit = [0u8; 32];
        top_bit[31] = 0x80;
        let mut top_nibble = [0u8; 32];
        top_nibble[31] = 0xf0;
        vec![
            [0u8; 32],
            one,
            l_minus_1,
            l_bytes(),
            [0xff; 32],
            low_half,
            top_bit,
            top_nibble,
        ]
    }

    /// Σ dᵢ·2ⁱ of a NAF as 32 little-endian bytes, by Horner's rule from
    /// the top digit over a byte string two bytes longer than the result
    /// (every partial sum of a non-negative scalar's NAF is non-negative;
    /// the arithmetic shift propagates a negative digit's borrow).
    fn naf_value(digits: &[i8; 257]) -> [u8; 32] {
        let mut acc = [0i32; 34];
        for &d in digits.iter().rev() {
            let mut carry = d as i32;
            for limb in acc.iter_mut() {
                let v = *limb * 2 + carry;
                *limb = v & 0xff;
                carry = v >> 8;
            }
            assert_eq!(carry, 0);
        }
        assert_eq!((acc[32], acc[33]), (0, 0));
        std::array::from_fn(|i| acc[i] as u8)
    }

    fn check_naf(scalar: &[u8; 32], w: u32) {
        let digits = naf(scalar, w);
        assert_eq!(&naf_value(&digits), scalar, "w = {w}");
        let mut last: Option<usize> = None;
        for (i, &d) in digits.iter().enumerate() {
            if d == 0 {
                continue;
            }
            assert_eq!(d & 1, 1, "digit {d} at {i} is even");
            assert!((d as i32).abs() < 1 << (w - 1), "digit {d} out of range");
            if let Some(prev) = last {
                assert!(i - prev >= w as usize, "digits at {prev} and {i} adjacent");
            }
            last = Some(i);
        }
    }

    /// a·B + b·P + c·Q through `straus` and through the oracle.
    /// Both point bodies: on a CPU without AVX-512 IFMA, `Best` is the
    /// portable body too.
    const BODIES: [Body; 2] = [Body::Portable, Body::Best];

    /// The point of an entry, through the oracle's addition.
    fn entry_point(entry: &Entry) -> Point {
        Point::identity().add(&entry.cached())
    }

    /// a·B + b·P + c·Q through `straus` on each body, with the tables built
    /// by each body, and through the oracle.
    fn check_straus(a: &[u8; 32], b: &[u8; 32], c: &[u8; 32], p: &Point, q: &Point) {
        let slow = scalar_mul(&base_point(), a)
            .add(&scalar_mul(p, b).to_cached())
            .add(&scalar_mul(q, c).to_cached());
        for tables_by in BODIES {
            let p_table: [Entry; 8] = odd_multiples(tables_by, p);
            let q_table: [Entry; 2] = odd_multiples(tables_by, q);
            let terms = [
                Term::new(a, &base_split_tables()[0]),
                Term::new(b, &p_table),
                Term::new(c, &q_table),
            ];
            for body in BODIES {
                assert!(
                    straus(body, &terms).equals(&slow),
                    "{tables_by:?}, {body:?}"
                );
            }
        }
    }

    /// RFC 8032 §7.1: the key and the signature from each body, and the
    /// signature verifies under both forms of the key on each body.
    fn check_rfc8032(seed: &str, pk: &str, msg: &[u8], sig: &str) {
        let seed = arr32(seed);
        for body in BODIES {
            let key = SigningKey::expand(body, &seed);
            assert_eq!(hex::encode(&key.public_key()), pk, "{body:?}");
            let signature = key.sign_on(body, msg);
            assert_eq!(hex::encode(&signature), sig, "{body:?}");
            verify_on(body, &key.public_key(), msg, &signature).unwrap();
            let vk = VerifyingKey::expand(body, &key.public_key()).unwrap();
            check_signature(body, vk.as_bytes(), &vk.minus_a, msg, &signature).unwrap();

            // The pair paths: the key signing beside itself and beside
            // another key, and the signature checked twice in one call.
            let other = SigningKey::expand(body, &[0x42; 32]);
            for keys in [[&key, &key], [&other, &key]] {
                let mut sigs = [[0u8; 64]; 2];
                sign_into(body, &keys, msg, &mut sigs);
                assert_eq!(hex::encode(&sigs[1]), sig, "{body:?}");
            }
            let entries = [(&vk, msg, &signature); 2];
            assert_eq!(verify_each_on(body, &entries), [Ok(()); 2], "{body:?}");
        }
        assert_eq!(hex::encode(&public_key(&seed)), pk);
        assert_eq!(hex::encode(&sign(&seed, msg)), sig);
    }

    // RFC 8032 §7.1 TEST 1.
    #[test]
    fn rfc8032_test1() {
        check_rfc8032(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            b"",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        );
    }

    // RFC 8032 §7.1 TEST 2.
    #[test]
    fn rfc8032_test2() {
        let msg = [0x72u8];
        check_rfc8032(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            &msg,
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        );
    }

    // RFC 8032 §7.1 TEST 3.
    #[test]
    fn rfc8032_test3() {
        let msg = hex::decode("af82").unwrap();
        check_rfc8032(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            &msg,
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        );
    }

    // RFC 8032 §7.1 TEST 1024: a 1023-byte message, i.e. several SHA-512
    // blocks through both the nonce and the challenge hash.
    #[test]
    fn rfc8032_test1024() {
        let msg = hex::decode(
            "08b8b2b733424243760fe426a4b54908632110a66c2f6591eabd3345e3e4eb98\
             fa6e264bf09efe12ee50f8f54e9f77b1e355f6c50544e23fb1433ddf73be84d8\
             79de7c0046dc4996d9e773f4bc9efe5738829adb26c81b37c93a1b270b20329d\
             658675fc6ea534e0810a4432826bf58c941efb65d57a338bbd2e26640f89ffbc\
             1a858efcb8550ee3a5e1998bd177e93a7363c344fe6b199ee5d02e82d522c4fe\
             ba15452f80288a821a579116ec6dad2b3b310da903401aa62100ab5d1a36553e\
             06203b33890cc9b832f79ef80560ccb9a39ce767967ed628c6ad573cb116dbef\
             efd75499da96bd68a8a97b928a8bbc103b6621fcde2beca1231d206be6cd9ec7\
             aff6f6c94fcd7204ed3455c68c83f4a41da4af2b74ef5c53f1d8ac70bdcb7ed1\
             85ce81bd84359d44254d95629e9855a94a7c1958d1f8ada5d0532ed8a5aa3fb2\
             d17ba70eb6248e594e1a2297acbbb39d502f1a8c6eb6f1ce22b3de1a1f40cc24\
             554119a831a9aad6079cad88425de6bde1a9187ebb6092cf67bf2b13fd65f270\
             88d78b7e883c8759d2c4f5c65adb7553878ad575f9fad878e80a0c9ba63bcbcc\
             2732e69485bbc9c90bfbd62481d9089beccf80cfe2df16a2cf65bd92dd597b07\
             07e0917af48bbb75fed413d238f5555a7a569d80c3414a8d0859dc65a46128ba\
             b27af87a71314f318c782b23ebfe808b82b0ce26401d2e22f04d83d1255dc51a\
             ddd3b75a2b1ae0784504df543af8969be3ea7082ff7fc9888c144da2af58429e\
             c96031dbcad3dad9af0dcbaaaf268cb8fcffead94f3c7ca495e056a9b47acdb7\
             51fb73e666c6c655ade8297297d07ad1ba5e43f1bca32301651339e22904cc8c\
             42f58c30c04aafdb038dda0847dd988dcda6f3bfd15c4b4c4525004aa06eeff8\
             ca61783aacec57fb3d1f92b0fe2fd1a85f6724517b65e614ad6808d6f6ee34df\
             f7310fdc82aebfd904b01e1dc54b2927094b2db68d6f903b68401adebf5a7e08\
             d78ff4ef5d63653a65040cf9bfd4aca7984a74d37145986780fc0b16ac451649\
             de6188a7dbdf191f64b5fc5e2ab47b57f7f7276cd419c17a3ca8e1b939ae49e4\
             88acba6b965610b5480109c8b17b80e1b7b750dfc7598d5d5011fd2dcc5600a3\
             2ef5b52a1ecc820e308aa342721aac0943bf6686b64b2579376504ccc493d97e\
             6aed3fb0f9cd71a43dd497f01f17c0e2cb3797aa2a2f256656168e6c496afc5f\
             b93246f6b1116398a346f1a641f3b041e989f7914f90cc2c7fff357876e506b5\
             0d334ba77c225bc307ba537152f3f1610e4eafe595f6d9d90d11faa933a15ef1\
             369546868a7f3a45a96768d40fd9d03412c091c6315cf4fde7cb68606937380d\
             b2eaaa707b4c4185c32eddcdd306705e4dc1ffc872eeee475a64dfac86aba41c\
             0618983f8741c5ef68d3a101e8a3b8cac60c905c15fc910840b94c00a0b9d0",
        )
        .unwrap();
        assert_eq!(msg.len(), 1023);
        check_rfc8032(
            "f5e5767cf153319517630f226876b86c8160cc583bc013744c6bf255f5cc0ee5",
            "278117fc144c72340f67d0f2316e8386ceffbf2b2428c9c51fef7c597f1d426e",
            &msg,
            "0aab4c900501b3e24d7cdf4663326a3a87df5e4843b2cbdb67cbf6e460fec350\
             aa5371b1508f9f4528ecea23c436d94b5e8fcd4f681e30a6ac00a9704a188a03",
        );
    }

    // RFC 8032 §7.1 TEST SHA(abc): the message is SHA-512("abc").
    #[test]
    fn rfc8032_test_sha_abc() {
        let msg = crate::sha512::sha512(b"abc").0;
        check_rfc8032(
            "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
            "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
            &msg,
            "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589\
             09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704",
        );
    }

    #[test]
    fn tampered_message_rejected() {
        let seed = [7u8; 32];
        let pk = public_key(&seed);
        let sig = sign(&seed, b"original message");
        assert!(verify(&pk, b"tampered message", &sig).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let seed = [8u8; 32];
        let pk = public_key(&seed);
        let mut sig = sign(&seed, b"message");
        sig[0] ^= 1;
        assert!(verify(&pk, b"message", &sig).is_err());
        sig[0] ^= 1;
        sig[63] ^= 0x20;
        assert!(verify(&pk, b"message", &sig).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = sign(&[9u8; 32], b"message");
        let other_pk = public_key(&[10u8; 32]);
        assert!(verify(&other_pk, b"message", &sig).is_err());
    }

    #[test]
    fn non_canonical_s_rejected() {
        // Take a valid signature and add L to S: same point equation but
        // non-canonical encoding must be rejected (malleability defence).
        let seed = [11u8; 32];
        let pk = public_key(&seed);
        let sig = with_s_plus_l(&sign(&seed, b"m"));
        assert!(verify(&pk, b"m", &sig).is_err());
    }

    #[test]
    fn identity_and_base_point_sanity() {
        let b = base_point();
        let id = Point::identity();
        assert!(b.add(&id.to_cached()).equals(&b));
        assert!(id.add(&b.to_cached()).equals(&b));
        assert!(id.double().equals(&id));
        // The dedicated doubling agrees with the unified addition, 2B ≠ B,
        // and B − B is the identity.
        assert!(b.double().equals(&b.add(&b.to_cached())));
        assert!(!b.double().equals(&b));
        assert!(b.add(&b.to_cached().neg()).equals(&id));
        assert!(b.add(&b.neg().to_cached()).equals(&id));
    }

    #[test]
    fn scalar_l_times_base_is_identity() {
        assert!(scalar_mul(&base_point(), &l_bytes()).equals(&Point::identity()));
        for body in BODIES {
            assert!(base_mul(body, &l_bytes()).equals(&Point::identity()));
        }
    }

    #[test]
    fn fast_paths_match_oracle_on_edge_scalars() {
        let b = base_point();
        let p = scalar_mul(&b, &[0x5a; 32]);
        let q = p.double().add(&b.to_cached());
        let edges = edge_scalars();
        for s in &edges {
            for body in BODIES {
                assert!(base_mul(body, s).equals(&scalar_mul(&b, s)));
            }
            for w in 2..=8 {
                check_naf(s, w);
            }
        }
        for (i, a) in edges.iter().enumerate() {
            let b_scalar = &edges[(i + 3) % edges.len()];
            let c_scalar = &edges[(i + 5) % edges.len()];
            check_straus(a, b_scalar, c_scalar, &p, &q);
        }
        // No terms, and terms that are all zero.
        for body in BODIES {
            assert!(straus(body, &[]).equals(&Point::identity()));
        }
        check_straus(&[0; 32], &[0; 32], &[0; 32], &p, &q);
    }

    #[test]
    fn base_table_rows_are_multiples_of_powers_of_sixteen() {
        let table = base_table();
        assert_eq!(table.len(), 64);
        assert!(std::mem::size_of_val(table) <= 150 * 1024);
        for i in [0usize, 1, 31, 63] {
            for j in [1u8, 5, 8] {
                let mut s = [0u8; 32];
                s[i / 2] = if i % 2 == 0 { j } else { j << 4 };
                let entry = entry_point(&table[i][j as usize - 1]);
                assert!(entry.equals(&scalar_mul(&base_point(), &s)), "{j}·16^{i}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn base_mul_matches_oracle(s in any::<[u8; 32]>()) {
            for body in BODIES {
                prop_assert!(base_mul(body, &s).equals(&scalar_mul(&base_point(), &s)));
            }
        }

        #[test]
        fn naf_reconstructs_scalar(s in any::<[u8; 32]>(), w in 2u32..=8) {
            check_naf(&s, w);
        }

        #[test]
        fn straus_matches_oracle(
            a in any::<[u8; 32]>(),
            b in any::<[u8; 32]>(),
            c in any::<[u8; 16]>(),
            p in any::<[u8; 32]>(),
            q in any::<[u8; 32]>(),
        ) {
            // c is a 128-bit scalar, like a batch coefficient.
            let mut c32 = [0u8; 32];
            c32[..16].copy_from_slice(&c);
            check_straus(&a, &b, &c32, &base_mul(Body::Best, &p), &scalar_mul(&base_point(), &q));
        }

        #[test]
        fn montgomery_u_matches_ladder(k in any::<[u8; 32]>()) {
            prop_assert_eq!(
                crate::x25519::public_key(&k),
                crate::x25519::x25519(&k, &crate::x25519::BASE_POINT)
            );
        }

        #[test]
        fn expanded_key_signs_like_the_seed(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 0..200)) {
            let key = SigningKey::from_seed(&seed);
            // The RFC's own derivation, spelled out through the oracle.
            let h = crate::sha512::sha512(&seed).0;
            let (scalar, _) = split64(&h);
            prop_assert_eq!(
                key.public_key(),
                scalar_mul(&base_point(), &clamp(scalar)).compress()
            );
            let sig = key.sign(&msg);
            prop_assert_eq!(sig, sign(&seed, &msg));
            prop_assert!(verify(&key.public_key(), &msg, &sig).is_ok());
        }
    }

    #[test]
    fn decompress_rejects_invalid() {
        // A y-coordinate whose x² has no root.
        let mut bad = [0u8; 32];
        bad[0] = 2;
        // Try a few encodings; at least some must be invalid points.
        let mut rejected = 0;
        for v in 2..40u8 {
            bad[0] = v;
            if decompress(&bad).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "no invalid encodings found in range");
    }

    #[test]
    fn limb_scalar_field_matches_byte_oracle() {
        // L itself, as limbs and as a reduction.
        let mut l_from_limbs = [0u8; 32];
        for (limb, out) in L_LIMBS.iter().zip(l_from_limbs.chunks_exact_mut(4)) {
            out.copy_from_slice(&(*limb as u32).to_le_bytes());
        }
        assert_eq!(l_from_limbs, l_bytes());
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&l_bytes());
        assert_eq!(reduce64(&wide), [0u8; 32]);

        // 0, 1, L − 1, L, L + 1, 2²⁵², 2²⁵⁶ − 1 as operands and as the low
        // half of a 512-bit input under a zero, a lone-bit and an all-ones
        // high half (the last being 2⁵¹² − 1).
        let edges = [
            [0u8; 32],
            power_of_two(0),
            nudge(l_bytes(), -1),
            l_bytes(),
            nudge(l_bytes(), 1),
            power_of_two(252),
            [0xff; 32],
        ];
        for lo in &edges {
            for hi in [[0u8; 32], power_of_two(0), power_of_two(255), [0xff; 32]] {
                let mut wide = [0u8; 64];
                wide[..32].copy_from_slice(lo);
                wide[32..].copy_from_slice(&hi);
                let r = reduce64(&wide);
                assert_eq!(r, reduce64_bytes(&wide));
                assert!(is_canonical_scalar(&r));
            }
        }
        for a in &edges {
            for b in &edges {
                for c in &edges {
                    let r = mul_add(a, b, c);
                    assert_eq!(r, mul_add_bytes(a, b, c));
                    assert!(is_canonical_scalar(&r));
                }
            }
        }

        // 12 000 hash-chained inputs: each SHA-512 output is reduced, and
        // three of them feed a mul_add whose operands are *not* reduced.
        let mut h = crate::sha512::sha512(b"ledgerview mod L differential").0;
        for _ in 0..4_000 {
            let mut operands = [[0u8; 32]; 3];
            for operand in &mut operands {
                h = crate::sha512::sha512(&h).0;
                assert_eq!(reduce64(&h), reduce64_bytes(&h));
                *operand = split64(&h).0;
            }
            let [a, b, c] = operands;
            assert_eq!(mul_add(&a, &b, &c), mul_add_bytes(&a, &b, &c));
        }
    }

    #[test]
    fn scalar_s_equal_to_l_rejected() {
        // The exact boundary: s == L is non-canonical, s == L − 1 is fine.
        assert!(!is_canonical_scalar(&l_bytes()));
        let mut l_minus_1 = l_bytes();
        l_minus_1[0] -= 1;
        assert!(is_canonical_scalar(&l_minus_1));
        assert!(is_canonical_scalar(&[0u8; 32]));
    }

    #[test]
    fn non_canonical_y_rejected() {
        // p = 2²⁵⁵ − 19; encodings with y ≥ p must be rejected even though
        // they alias a valid point after reduction.
        let mut p_enc = [0xffu8; 32];
        p_enc[0] = 0xed;
        p_enc[31] = 0x7f;
        assert!(decompress(&p_enc).is_err(), "y == p must be rejected");
        let mut p_plus_1 = p_enc;
        p_plus_1[0] = 0xee; // y == p + 1 ≡ 1, aliases the identity's y
        assert!(
            decompress(&p_plus_1).is_err(),
            "y == p + 1 must be rejected"
        );
        // Same encodings with the sign bit set are equally non-canonical.
        let mut signed = p_plus_1;
        signed[31] |= 0x80;
        assert!(decompress(&signed).is_err());
        // Sanity: the largest canonical y (p − 1) still decompresses or
        // fails only for curve reasons, not canonicality.
        let mut p_minus_1 = p_enc;
        p_minus_1[0] = 0xec;
        assert!(is_canonical_y(&p_minus_1));
    }

    #[test]
    fn small_order_public_key_rejected() {
        // A = identity, R = identity, s = 0 satisfies S·B == R + k·A for
        // EVERY message — a universal forgery unless torsion keys are
        // rejected.
        let mut identity_enc = [0u8; 32];
        identity_enc[0] = 1;
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&identity_enc);
        assert!(verify(&identity_enc, b"any message at all", &sig).is_err());

        // Order-2 point (0, −1): y = p − 1.
        let mut order2 = [0xffu8; 32];
        order2[0] = 0xec;
        order2[31] = 0x7f;
        assert!(decompress(&order2).unwrap().is_small_order());
        let mut sig2 = [0u8; 64];
        sig2[..32].copy_from_slice(&order2);
        assert!(verify(&order2, b"msg", &sig2).is_err());

        // Honest keys are not small order.
        let pk = public_key(&[3u8; 32]);
        assert!(!decompress(&pk).unwrap().is_small_order());
    }

    /// Both forms of a public key refuse `enc`: expansion fails, and the
    /// signature (R = identity, s = 0) that satisfies the equation for
    /// every message under a small-order key does not verify.
    fn assert_key_rejected(enc: &[u8; 32]) {
        assert!(VerifyingKey::from_bytes(enc).is_err(), "{enc:02x?}");
        let mut sig = [0u8; 64];
        sig[0] = 1;
        assert!(verify(enc, b"any message at all", &sig).is_err());
    }

    #[test]
    fn verifying_key_rejects_the_keys_verify_rejects() {
        // Small order: the identity, the order-2 point (0, −1), and a
        // point of order 4 or 8 — L·P for a curve point P outside the
        // prime-order subgroup, found by walking small y.
        let mut identity_enc = [0u8; 32];
        identity_enc[0] = 1;
        assert_key_rejected(&identity_enc);
        let mut order2 = [0xffu8; 32];
        order2[0] = 0xec;
        order2[31] = 0x7f;
        assert_key_rejected(&order2);
        let torsion = (2..=255u8)
            .filter_map(|y| {
                let mut enc = [0u8; 32];
                enc[0] = y;
                decompress(&enc).ok()
            })
            .map(|p| scalar_mul(&p, &l_bytes()))
            .find(|t| !t.double().equals(&Point::identity()))
            .expect("some small y lies outside the prime-order subgroup");
        assert!(torsion.is_small_order());
        assert_key_rejected(&torsion.compress());

        // Non-canonical y (p, p + 1, with and without the sign bit).
        let mut p_enc = [0xffu8; 32];
        p_enc[0] = 0xed;
        p_enc[31] = 0x7f;
        assert_key_rejected(&p_enc);
        let p_plus_1 = nudge(p_enc, 1);
        assert_key_rejected(&p_plus_1);
        let mut signed = p_plus_1;
        signed[31] |= 0x80;
        assert_key_rejected(&signed);

        // A canonical y that is not on the curve.
        let off_curve = (2..40u8)
            .map(|y| {
                let mut enc = [0u8; 32];
                enc[0] = y;
                enc
            })
            .find(|enc| decompress(enc).is_err())
            .expect("some small y is off the curve");
        assert_key_rejected(&off_curve);

        // An honest key expands, and to the bytes it came from.
        let pk = public_key(&[3u8; 32]);
        assert_eq!(VerifyingKey::from_bytes(&pk).unwrap().as_bytes(), &pk);
    }

    #[test]
    fn verifying_key_rejects_non_canonical_s() {
        let key = SigningKey::from_seed(&[12u8; 32]);
        let vk = VerifyingKey::from_bytes(&key.public_key()).unwrap();
        let sig = key.sign(b"m");
        vk.verify(b"m", &sig).unwrap();
        let bad_s = [l_bytes(), nudge(l_bytes(), 1), [0xff; 32]].map(|s| with_s(&sig, &s));
        for bad in [with_s_plus_l(&sig)].iter().chain(&bad_s) {
            assert!(vk.verify(b"m", bad).is_err());
            assert!(verify(vk.as_bytes(), b"m", bad).is_err());
        }
        // The boundary: L − 1 is canonical, so it reaches the equation
        // (and fails there).
        assert!(is_canonical_scalar(&nudge(l_bytes(), -1)));
        assert!(vk
            .verify(b"m", &with_s(&sig, &nudge(l_bytes(), -1)))
            .is_err());
    }

    /// Entry j of row i is (2j + 1)·2^(64i)·P, every entry.
    fn check_split_tables<const N: usize>(tables: &[[Entry; N]; CHUNKS], p: &Point) {
        for (i, row) in tables.iter().enumerate() {
            for (j, cached) in row.iter().enumerate() {
                let mut s = power_of_two(64 * i);
                s[8 * i] = 2 * j as u8 + 1;
                assert!(
                    entry_point(cached).equals(&scalar_mul(p, &s)),
                    "row {i} entry {j}"
                );
            }
        }
    }

    #[test]
    fn split_table_rows_are_multiples_of_powers_of_two_to_the_64() {
        let base = base_split_tables();
        assert!(std::mem::size_of_val(base) <= 40 * 1024);
        check_split_tables(base, &base_point());

        let pk = public_key(&[13u8; 32]);
        for body in BODIES {
            let vk = VerifyingKey::expand(body, &pk).unwrap();
            assert!(std::mem::size_of_val(&vk.minus_a) <= 10 * 1024);
            check_split_tables(&vk.minus_a, &decompress(&pk).unwrap().neg());
        }
    }

    #[test]
    fn split_terms_sum_to_the_full_term() {
        let p = scalar_mul(&base_point(), &[0x5a; 32]);
        for body in BODIES {
            let tables: [[Entry; 16]; CHUNKS] = split_tables(body, &p);
            for s in edge_scalars() {
                let terms: Vec<Term<'_>> = split_terms(&s, &tables).collect();
                assert_eq!(terms.len(), CHUNKS);
                // Each chunk's NAF ends within a digit of bit 64.
                for t in &terms {
                    assert!(t.naf[65..].iter().all(|&d| d == 0));
                }
                assert!(straus(body, &terms).equals(&scalar_mul(&p, &s)));
                let whole: Vec<Term<'_>> = split_terms(&s, &tables[..1]).collect();
                assert_eq!(whole.len(), 1);
                assert!(straus(body, &whole).equals(&scalar_mul(&p, &s)));
            }
        }
    }

    #[test]
    fn batch_accepts_all_valid() {
        let entries_data: Vec<([u8; 32], Vec<u8>, [u8; 64])> = (0..6u8)
            .map(|i| {
                let seed = [i + 1; 32];
                let msg = vec![i; (i as usize) * 7 + 1];
                let sig = sign(&seed, &msg);
                (public_key(&seed), msg, sig)
            })
            .collect();
        let entries: Vec<BatchEntry> = entries_data
            .iter()
            .map(|(pk, msg, sig)| BatchEntry {
                public_key: pk,
                message: msg,
                signature: sig,
            })
            .collect();
        verify_batch(&entries).unwrap();
        // Empty and single-entry batches.
        verify_batch(&[]).unwrap();
        verify_batch(&entries[..1]).unwrap();
    }

    #[test]
    fn batch_rejects_any_invalid() {
        let seeds: Vec<[u8; 32]> = (0..5u8).map(|i| [i + 40; 32]).collect();
        let msgs: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 20]).collect();
        let pks: Vec<[u8; 32]> = seeds.iter().map(public_key).collect();
        let mut sigs: Vec<[u8; 64]> = seeds.iter().zip(&msgs).map(|(s, m)| sign(s, m)).collect();
        // Tamper with the middle signature.
        sigs[2][5] ^= 0x40;
        let entries: Vec<BatchEntry> = (0..5)
            .map(|i| BatchEntry {
                public_key: &pks[i],
                message: &msgs[i],
                signature: &sigs[i],
            })
            .collect();
        assert!(verify_batch(&entries).is_err());
        // The per-entry fallback agrees: exactly entry 2 fails.
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(verify(e.public_key, e.message, e.signature).is_ok(), i != 2);
        }
    }

    #[test]
    fn batch_over_two_keys_blames_the_forged_entry() {
        // The shape of a block's endorsements: many signatures, two
        // signers, so each key's entries share one term. One forged entry
        // must fail the batch, and the per-entry fallback must blame it
        // alone.
        let keys = [[21u8; 32], [22u8; 32]].map(|seed| SigningKey::from_seed(&seed));
        let pks = [keys[0].public_key(), keys[1].public_key()];
        let msgs: Vec<Vec<u8>> = (0..64u8).map(|i| vec![i; 40 + i as usize]).collect();
        let mut sigs: Vec<[u8; 64]> = (0..64).map(|i| keys[i % 2].sign(&msgs[i])).collect();
        let batch = |sigs: &[[u8; 64]]| {
            let entries: Vec<BatchEntry> = (0..64)
                .map(|i| BatchEntry {
                    public_key: &pks[i % 2],
                    message: &msgs[i],
                    signature: &sigs[i],
                })
                .collect();
            verify_batch(&entries)
        };
        batch(&sigs).unwrap();
        // A valid signature by the right key over a different message.
        sigs[37] = keys[37 % 2].sign(b"some other message");
        assert!(batch(&sigs).is_err());
        for i in 0..64 {
            assert_eq!(verify(&pks[i % 2], &msgs[i], &sigs[i]).is_ok(), i != 37);
        }
        // Swapping two signatures of the same key keeps every R and S in
        // the batch but must still fail: coefficients are per entry.
        sigs[37] = keys[37 % 2].sign(&msgs[37]);
        sigs.swap(2, 4);
        assert!(batch(&sigs).is_err());
    }

    #[test]
    fn batch_longer_than_a_chunk() {
        // 2·BATCH_CHUNK + 1 entries: two full chunks and a lone last entry.
        let n = 2 * BATCH_CHUNK + 1;
        let key = SigningKey::from_seed(&[24; 32]);
        let pk = key.public_key();
        let msgs: Vec<[u8; 8]> = (0..n as u64).map(u64::to_le_bytes).collect();
        let mut sigs: Vec<[u8; 64]> = msgs.iter().map(|m| key.sign(m)).collect();
        let batch = |sigs: &[[u8; 64]]| {
            let entries: Vec<BatchEntry> = (0..n)
                .map(|i| BatchEntry {
                    public_key: &pk,
                    message: &msgs[i],
                    signature: &sigs[i],
                })
                .collect();
            verify_batch(&entries)
        };
        batch(&sigs).unwrap();
        for forged in [0, BATCH_CHUNK, n - 1] {
            sigs[forged][40] ^= 1;
            assert!(batch(&sigs).is_err(), "forged entry {forged}");
            sigs[forged][40] ^= 1;
        }
    }

    #[test]
    fn batch_rejects_bad_key_after_good_entries_of_it() {
        // Key grouping must not skip validation: a small-order key fails
        // the batch wherever it appears.
        let key = SigningKey::from_seed(&[23; 32]);
        let pk = key.public_key();
        let msg = b"m".to_vec();
        let sig = key.sign(&msg);
        let mut identity_enc = [0u8; 32];
        identity_enc[0] = 1;
        let mut identity_sig = [0u8; 64];
        identity_sig[..32].copy_from_slice(&identity_enc);
        let good = BatchEntry {
            public_key: &pk,
            message: &msg,
            signature: &sig,
        };
        let torsion = BatchEntry {
            public_key: &identity_enc,
            message: &msg,
            signature: &identity_sig,
        };
        assert!(verify_batch(&[good, good, torsion]).is_err());
        assert!(verify_batch(&[torsion, good, good]).is_err());
        verify_batch(&[good, good, good]).unwrap();
    }

    #[test]
    fn batch_matches_individual_verdicts() {
        // For several corruption patterns, batch-accept must equal
        // all-individually-accept.
        for tamper in [None, Some(0), Some(3)] {
            let seeds: Vec<[u8; 32]> = (0..4u8).map(|i| [i + 90; 32]).collect();
            let msgs: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i ^ 0x5a; 33]).collect();
            let pks: Vec<[u8; 32]> = seeds.iter().map(public_key).collect();
            let mut sigs: Vec<[u8; 64]> =
                seeds.iter().zip(&msgs).map(|(s, m)| sign(s, m)).collect();
            if let Some(t) = tamper {
                sigs[t][33] ^= 1;
            }
            let entries: Vec<BatchEntry> = (0..4)
                .map(|i| BatchEntry {
                    public_key: &pks[i],
                    message: &msgs[i],
                    signature: &sigs[i],
                })
                .collect();
            let individual_ok = entries
                .iter()
                .all(|e| verify(e.public_key, e.message, e.signature).is_ok());
            assert_eq!(verify_batch(&entries).is_ok(), individual_ok);
        }
    }

    #[test]
    fn batch_rejects_non_canonical_s() {
        let seed = [77u8; 32];
        let pk = public_key(&seed);
        let msg = b"m".to_vec();
        let sig = with_s_plus_l(&sign(&seed, &msg));
        let other_seed = [78u8; 32];
        let other_pk = public_key(&other_seed);
        let other_sig = sign(&other_seed, &msg);
        let entries = [
            BatchEntry {
                public_key: &other_pk,
                message: &msg,
                signature: &other_sig,
            },
            BatchEntry {
                public_key: &pk,
                message: &msg,
                signature: &sig,
            },
        ];
        assert!(verify_batch(&entries).is_err());
    }

    /// Every verdict on `(pk, msg, sig)`, one per way to reach it: the
    /// one-shot `verify` on each body, and the expanded key built by each
    /// body and checked on each. Expansion fails for both bodies or none.
    fn verdicts(pk: &[u8; 32], msg: &[u8], sig: &[u8; 64]) -> Vec<bool> {
        let mut out: Vec<bool> = BODIES
            .iter()
            .map(|&body| verify_on(body, pk, msg, sig).is_ok())
            .collect();
        let keys = BODIES.map(|body| VerifyingKey::expand(body, pk).ok());
        assert_eq!(
            keys[0].is_some(),
            keys[1].is_some(),
            "expansion of {pk:02x?}"
        );
        for vk in keys.iter().flatten() {
            for body in BODIES {
                out.push(check_signature(body, &vk.bytes, &vk.minus_a, msg, sig).is_ok());
            }
        }
        out
    }

    /// Both point bodies give the same key, the same signature and the
    /// same verdict on every path, for valid, forged and non-canonical
    /// inputs; `verify_batch` agrees with them on batches of each kind.
    fn check_bodies_agree(seed: &[u8; 32], other: &[u8; 32], scalar: &[u8; 32], msg: &[u8]) {
        let keys = BODIES.map(|body| SigningKey::expand(body, seed));
        assert_eq!(keys[0].public, keys[1].public);
        assert_eq!(keys[0].public, public_key(seed));
        let [portable, best] = BODIES.map(|body| base_mul(body, scalar));
        assert!(portable.equals(&best));
        assert_eq!(portable.compress(), best.compress());
        assert_eq!(
            montgomery_u(Body::Portable, scalar),
            montgomery_u(Body::Best, scalar)
        );

        let key = &keys[0];
        let sig = key.sign_on(Body::Portable, msg);
        assert_eq!(keys[1].sign_on(Body::Best, msg), sig);
        assert_eq!(sign(seed, msg), sig);
        let other_key = SigningKey::expand(Body::Best, other);
        let mut forged_r = sig;
        forged_r[msg.len() % 32] ^= 1 << (msg.len() % 8);
        let mut forged_s = sig;
        forged_s[32 + msg.len() % 31] ^= 0x04;
        let mut non_canonical_r = sig;
        non_canonical_r[..32].fill(0xff);
        non_canonical_r[0] = 0xee; // y = p + 1
        non_canonical_r[31] = 0x7f;
        let mut identity = [0u8; 32];
        identity[0] = 1;
        let mut torsion_sig = [0u8; 64];
        torsion_sig[0] = 1;
        let pk = key.public;
        // (key, message, signature, valid).
        let cases = [
            (&pk, msg, sig, true),
            (&pk, b"another message", sig, false),
            (&pk, msg, forged_r, false),
            (&pk, msg, forged_s, false),
            (&pk, msg, with_s_plus_l(&sig), false),
            (&pk, msg, non_canonical_r, false),
            (&other_key.public, msg, sig, false),
            (&identity, msg, torsion_sig, false),
        ];
        for (i, (pk, m, sig, valid)) in cases.iter().enumerate() {
            let v = verdicts(pk, m, sig);
            assert!(v.iter().all(|&ok| ok == *valid), "case {i}: {v:?}");
        }

        // Batches under two keys: all valid, then each invalid case added.
        let sigs: Vec<[u8; 64]> = (0..6u8)
            .map(|i| [key, &other_key][usize::from(i % 2)].sign(&[msg, &[i]].concat()))
            .collect();
        let msgs: Vec<Vec<u8>> = (0..6u8).map(|i| [msg, &[i]].concat()).collect();
        let mut batch: Vec<BatchEntry<'_>> = (0..6)
            .map(|i| BatchEntry {
                public_key: [&key.public, &other_key.public][i % 2],
                message: &msgs[i],
                signature: &sigs[i],
            })
            .collect();
        let batch_verdicts =
            |batch: &[BatchEntry<'_>]| BODIES.map(|body| verify_batch_on(body, batch).is_ok());
        assert_eq!(batch_verdicts(&batch), [true, true]);
        for (pk, m, sig, valid) in &cases {
            batch.push(BatchEntry {
                public_key: pk,
                message: m,
                signature: sig,
            });
            assert_eq!(batch_verdicts(&batch), [*valid; 2]);
            batch.pop();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The IFMA point body against the portable one (the same body
        /// twice on a CPU without IFMA), in the test profile, where every
        /// 4-lane operation checks its limb bounds.
        #[test]
        fn ifma_point_body_matches_portable(
            seed in any::<[u8; 32]>(),
            other in any::<[u8; 32]>(),
            scalar in any::<[u8; 32]>(),
            msg in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            static REPORT: std::sync::Once = std::sync::Once::new();
            REPORT.call_once(|| {
                if crate::field::ifma_available() {
                    eprintln!("ed25519: AVX-512 IFMA point body against the portable one");
                } else {
                    eprintln!("no AVX-512 IFMA on this CPU: both bodies are the portable one");
                }
            });
            check_bodies_agree(&seed, &other, &scalar, &msg);
        }
    }

    /// Signing with 1, 2, 3 and 5 keys equals each key signing alone, and
    /// checking 1, 2, 3 and 5 signatures at once gives each the verdict it
    /// gets alone — over every window of a list that holds two valid
    /// signatures and one of each invalid kind, so that a forged entry
    /// sits first, second and last in a pair.
    fn check_pair_paths(seeds: &[[u8; 32]; 3], msg: &[u8]) {
        for body in BODIES {
            let keys = seeds.map(|seed| SigningKey::expand(body, &seed));
            let signers: Vec<&SigningKey> = [0, 1, 2, 0, 1].iter().map(|&i| &keys[i]).collect();
            for n in [1, 2, 3, 5] {
                let mut sigs = vec![[0u8; 64]; n];
                sign_into(body, &signers[..n], msg, &mut sigs);
                for (key, sig) in signers.iter().zip(&sigs) {
                    assert_eq!(*sig, key.sign_on(Body::Portable, msg), "{body:?}, {n} keys");
                }
            }

            let vks = keys
                .each_ref()
                .map(|k| VerifyingKey::expand(body, &k.public).unwrap());
            let valid = [0, 1].map(|i| keys[i].sign_on(body, msg));
            let other_message = keys[0].sign_on(body, &[msg, b"!"].concat());
            let mut flipped_r = valid[0];
            flipped_r[msg.len() % 32] ^= 1 << (msg.len() % 8);
            let mut flipped_s = valid[1];
            flipped_s[32 + msg.len() % 31] ^= 0x04;
            let mut non_canonical_r = valid[0];
            non_canonical_r[..32].fill(0xff);
            non_canonical_r[0] = 0xee; // y = p + 1
            non_canonical_r[31] = 0x7f;
            let mut small_order_r = valid[0];
            small_order_r[..32].fill(0);
            small_order_r[0] = 1; // the identity
                                  // (key, signature, valid).
            let cases = [
                (&vks[0], valid[0], true),
                (&vks[1], valid[1], true),
                (&vks[0], other_message, false),
                (&vks[0], flipped_r, false),
                (&vks[1], flipped_s, false),
                (&vks[0], non_canonical_r, false),
                (&vks[1], with_s_plus_l(&valid[1]), false),
                (&vks[0], with_s(&valid[0], &l_bytes()), false),
                (&vks[0], small_order_r, false),
                (&vks[2], valid[0], false),
            ];
            for n in [1, 2, 3, 5] {
                for start in 0..cases.len() {
                    let window: Vec<_> =
                        (0..n).map(|j| &cases[(start + j) % cases.len()]).collect();
                    let entries: Vec<(&VerifyingKey, &[u8], &[u8; 64])> =
                        window.iter().map(|(vk, sig, _)| (*vk, msg, sig)).collect();
                    let verdicts = verify_each_on(body, &entries);
                    for (j, (&(vk, sig, valid), verdict)) in window.iter().zip(verdicts).enumerate()
                    {
                        let alone =
                            check_signature(Body::Portable, &vk.bytes, &vk.minus_a, msg, sig);
                        assert_eq!(verdict, alone, "{body:?}, entry {j} of {n} from {start}");
                        assert_eq!(
                            verdict.is_ok(),
                            *valid,
                            "{body:?}, entry {j} of {n} from {start}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// [`sign_many`] and [`verify_each`] against one key or signature
        /// at a time, on both bodies (the same body twice on a CPU without
        /// IFMA), in the test profile, where every 4-lane operation checks
        /// its limb bounds.
        #[test]
        fn pair_paths_match_one_at_a_time(
            seeds in any::<[[u8; 32]; 3]>(),
            msg in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            check_pair_paths(&seeds, &msg);
        }

        /// [`decompress_many`] gives every encoding the result
        /// [`decompress`] gives it, for one to nine encodings, about half of
        /// them on the curve.
        #[test]
        fn decompress_many_matches_decompress(
            encs in proptest::collection::vec(any::<[u8; 32]>(), 1..10),
        ) {
            for body in BODIES {
                for (enc, many) in encs.iter().zip(decompress_many(body, &encs)) {
                    match (decompress(enc), many) {
                        (Ok(alone), Ok(many)) => {
                            prop_assert!(alone.equals(&many));
                            prop_assert_eq!(alone.compress(), many.compress());
                            prop_assert_eq!(alone.t.to_bytes(), many.t.to_bytes());
                        }
                        (alone, many) => prop_assert_eq!(alone.err(), many.err()),
                    }
                }
            }
        }
    }

    /// Whether the root candidate of `enc`'s decompression is off by the
    /// factor √−1.
    fn root_needs_sqrt_m1(enc: &[u8; 32]) -> bool {
        let d = Decompression::start(enc).unwrap();
        let x = d.uv3.mul(d.w.pow_p58());
        !d.v.mul(x.square()).sub(d.u).is_zero()
    }

    /// `verify_batch` over chunks of 1 to 9 entries, all valid and with
    /// an off-curve `R` at each position in turn: the `R`s are decompressed
    /// four per pass, so a bad `R` sits in every lane of a pass, and each
    /// lane also decompresses valid `R`s whose root needs the factor √−1
    /// (entries 0–3 and 8) and ones whose root does not (entries 4–7).
    #[test]
    fn batch_decompresses_every_lane() {
        let key = SigningKey::from_seed(&[31; 32]);
        let pk = key.public_key();
        let mut msgs: Vec<Vec<u8>> = Vec::new();
        let mut candidates = (0u32..).map(|i| i.to_le_bytes().to_vec());
        for j in 0..9 {
            let needs = (j / 4) % 2 == 0;
            let msg = candidates
                .find(|m| root_needs_sqrt_m1(&split64(&key.sign(m)).0) == needs)
                .unwrap();
            msgs.push(msg);
        }
        let sigs: Vec<[u8; 64]> = msgs.iter().map(|m| key.sign(m)).collect();
        let off_curve = (2..40u8)
            .map(|y| {
                let mut enc = [0u8; 32];
                enc[0] = y;
                enc
            })
            .find(|enc| decompress(enc).is_err())
            .unwrap();
        for n in 1..=9 {
            for bad in std::iter::once(None).chain((0..n).map(Some)) {
                let mut sigs = sigs[..n].to_vec();
                if let Some(b) = bad {
                    sigs[b][..32].copy_from_slice(&off_curve);
                }
                let entries: Vec<BatchEntry<'_>> = msgs
                    .iter()
                    .zip(&sigs)
                    .map(|(message, signature)| BatchEntry {
                        public_key: &pk,
                        message,
                        signature,
                    })
                    .collect();
                for body in BODIES {
                    let verdict = verify_batch_on(body, &entries);
                    match bad {
                        None => assert_eq!(verdict, Ok(()), "{body:?}, {n} entries"),
                        Some(b) => assert_eq!(
                            verdict,
                            Err(CryptoError::InvalidSignature),
                            "{body:?}, {n} entries, bad R at {b}"
                        ),
                    }
                }
            }
        }
    }

    /// Montgomery's trick gives each element the inverse `invert` gives
    /// it, for 0 to 5 elements; [`compress_many`] gives each point the
    /// encoding [`Point::compress`] gives it.
    #[test]
    fn batch_inversion_matches_one_at_a_time() {
        for n in 0..6u64 {
            let xs: Vec<Fe> = (0..n).map(|i| fe_small(3 + 7 * i).mul(d())).collect();
            let mut inverses = xs.clone();
            Fe::batch_invert(&mut inverses);
            for (x, inverse) in xs.iter().zip(&inverses) {
                assert_eq!(inverse.to_bytes(), x.invert().to_bytes(), "{n} elements");
            }
            let points: Vec<Point> = (0..n)
                .map(|i| base_mul(Body::Portable, &[i as u8 + 1; 32]))
                .collect();
            let alone: Vec<[u8; 32]> = points.iter().map(Point::compress).collect();
            assert_eq!(compress_many(&points), alone, "{n} points");
        }
    }

    #[test]
    fn mul_add_small_numbers() {
        // 3 * 4 + 5 = 17 mod L.
        let mut a = [0u8; 32];
        a[0] = 3;
        let mut b = [0u8; 32];
        b[0] = 4;
        let mut c = [0u8; 32];
        c[0] = 5;
        let r = mul_add(&a, &b, &c);
        let mut expect = [0u8; 32];
        expect[0] = 17;
        assert_eq!(r, expect);
    }
}
