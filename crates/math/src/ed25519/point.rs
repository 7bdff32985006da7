//! The Ristretto255 group (RFC 9496), carried on twisted-Edwards points
//! of Curve25519 (`-x² + y² = 1 + d·x²y²`).
//!
//! A [`Point`] is held in extended homogeneous coordinates
//! `(X : Y : Z : T)` with `x = X/Z`, `y = Y/Z`, `xy = T/Z`, so the
//! Edwards group law, the fixed-base tables and the MSM work on it
//! unchanged. What makes it a prime-order group is its interface:
//!
//! - a group element is a coset `P + E[4]` of the curve's 4-torsion, so
//!   equality and [`Point::is_identity`] compare cosets, not
//!   representatives;
//! - [`Point::compress`] / [`Point::decompress`] are RFC 9496 ENCODE /
//!   DECODE: every element has exactly one 32-byte encoding, and every
//!   accepted encoding names an element of the prime-order group, so a
//!   decoded point needs no `ℓ·P` subgroup check;
//! - [`Point::from_uniform_bytes`] is the RFC 9496 one-way map from 64
//!   uniform bytes (hash-to-group).

use super::fe::{edwards_d, sqrt_m1, Fe};
use super::scalar::Scalar;
use crate::BigUint;
use std::fmt;
use std::sync::OnceLock;

/// A Ristretto255 element, held as an Edwards point in extended
/// coordinates (any member of its 4-torsion coset).
#[derive(Clone, Copy)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

fn base_point() -> &'static Point {
    static B: OnceLock<Point> = OnceLock::new();
    B.get_or_init(|| {
        let x = Fe::from_dec(
            "15112221349535400772501151409588531511454012693041857206046113283949847762202",
        );
        let y = Fe::from_dec(
            "46316835694926478169428394003475163141307993866256225615783033603165251855960",
        );
        Point::from_affine(x, y).expect("base point is on the curve")
    })
}

impl Point {
    /// The neutral element (0, 1).
    pub fn identity() -> Point {
        Point { x: Fe::ZERO, y: Fe::ONE, z: Fe::ONE, t: Fe::ZERO }
    }

    /// The standard Ed25519 base point `B` (generates the prime-order subgroup).
    pub fn base() -> Point {
        *base_point()
    }

    /// Builds a point from affine coordinates, verifying the curve equation.
    pub fn from_affine(x: Fe, y: Fe) -> Option<Point> {
        let p = Point { x, y, z: Fe::ONE, t: x.mul(&y) };
        if p.satisfies_curve_equation() {
            Some(p)
        } else {
            None
        }
    }

    fn satisfies_curve_equation(&self) -> bool {
        // (-X² + Y²)·Z² == Z⁴ + d·X²Y²  (projective form)
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let lhs = yy.sub(&xx).mul(&zz);
        let rhs = zz.square().add(&edwards_d().mul(&xx).mul(&yy));
        lhs == rhs && self.t.mul(&self.z) == self.x.mul(&self.y)
    }

    /// True when this is the neutral element, i.e. any point of the
    /// 4-torsion coset `E[4]` (RFC 9496 equality with the identity).
    pub fn is_identity(&self) -> bool {
        self.x.is_zero() || self.y.is_zero()
    }

    /// Point addition (unified formula, complete on the twisted Edwards curve).
    pub fn add(&self, rhs: &Point) -> Point {
        // Hisil–Wong–Carter–Dawson "add-2008-hwcd-3" for a = -1.
        let a = self.y.sub(&self.x).mul(&rhs.y.sub(&rhs.x));
        let b = self.y.add(&self.x).mul(&rhs.y.add(&rhs.x));
        let d2 = edwards_d().add(&edwards_d());
        let c = self.t.mul(&d2).mul(&rhs.t);
        let d = self.z.add(&self.z).mul(&rhs.z);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Point doubling.
    pub fn double(&self) -> Point {
        // "dbl-2008-hwcd" for a = -1.
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().add(&self.z.square());
        let h = a.add(&b);
        let xy = self.x.add(&self.y);
        let e = h.sub(&xy.square());
        let g = a.sub(&b);
        let f = c.add(&g);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Negation.
    pub fn neg(&self) -> Point {
        Point { x: self.x.neg(), y: self.y, z: self.z, t: self.t.neg() }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Point) -> Point {
        self.add(&rhs.neg())
    }

    /// Scalar multiplication with a 4-bit fixed window.
    pub fn mul(&self, scalar: &Scalar) -> Point {
        self.mul_biguint(scalar.to_biguint())
    }

    /// Scalar multiplication by an arbitrary non-negative integer.
    pub fn mul_biguint(&self, scalar: &BigUint) -> Point {
        if scalar.is_zero() {
            return Point::identity();
        }
        // Precompute 0P..15P.
        let mut table = [Point::identity(); 16];
        for i in 1..16 {
            table[i] = table[i - 1].add(self);
        }
        let bits = scalar.bits();
        let windows = bits.div_ceil(4);
        let mut acc = Point::identity();
        for w in (0..windows).rev() {
            for _ in 0..4 {
                acc = acc.double();
            }
            let mut nibble = 0usize;
            for b in 0..4 {
                let bit_idx = w * 4 + (3 - b);
                nibble = (nibble << 1) | scalar.bit(bit_idx) as usize;
            }
            if nibble != 0 {
                acc = acc.add(&table[nibble]);
            }
        }
        acc
    }

    /// `scalar · B` for the standard base point, via the process-wide
    /// fixed-base table (additions only — no doublings, no per-call
    /// table build).
    pub fn mul_base(scalar: &Scalar) -> Point {
        crate::precomp::ed25519_base_table().mul(scalar.to_biguint())
    }

    /// Test oracle: true when `ℓ·P` is the identity under coset
    /// equality, i.e. the point represents an element of the prime-order
    /// group. Every point [`Point::decompress`] returns passes it by
    /// construction; no decoding path calls it.
    pub fn is_in_prime_subgroup(&self) -> bool {
        self.mul_biguint(Scalar::order_biguint()).is_identity()
    }

    /// RFC 9496 ENCODE: the canonical 32-byte encoding of the element
    /// (one inverse square root; equal elements encode equally, whichever
    /// coset member represents them).
    pub fn compress(&self) -> [u8; 32] {
        let c = constants();
        let u1 = self.z.add(&self.y).mul(&self.z.sub(&self.y));
        let u2 = self.x.mul(&self.y);
        let (_, invsqrt) = sqrt_ratio_m1(&Fe::ONE, &u1.mul(&u2.square()));
        let den1 = invsqrt.mul(&u1);
        let den2 = invsqrt.mul(&u2);
        let z_inv = den1.mul(&den2).mul(&self.t);
        let rotate = self.t.mul(&z_inv).is_negative();
        let (x, mut y, den_inv) = if rotate {
            let i = sqrt_m1();
            (self.y.mul(&i), self.x.mul(&i), den1.mul(&c.invsqrt_a_minus_d))
        } else {
            (self.x, self.y, den2)
        };
        if x.mul(&z_inv).is_negative() {
            y = y.neg();
        }
        den_inv.mul(&self.z.sub(&y)).abs().to_bytes()
    }

    /// RFC 9496 DECODE. Returns `None` unless `bytes` is the canonical
    /// encoding of an element: `s` must be reduced (`s < p`) and
    /// non-negative, `1/sqrt` must exist, and the result must have `t`
    /// non-negative and `y ≠ 0`. Every accepted point lies in the
    /// prime-order group (up to its coset), so no subgroup check follows.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let s = Fe::from_bytes(bytes);
        // Canonical (reduced, bit 255 clear) and non-negative (even).
        if s.to_bytes() != *bytes || bytes[0] & 1 == 1 {
            return None;
        }
        let ss = s.square();
        let u1 = Fe::ONE.sub(&ss);
        let u2 = Fe::ONE.add(&ss);
        let u2_sqr = u2.square();
        let v = edwards_d().mul(&u1.square()).neg().sub(&u2_sqr);
        let (was_square, invsqrt) = sqrt_ratio_m1(&Fe::ONE, &v.mul(&u2_sqr));
        let den_x = invsqrt.mul(&u2);
        let den_y = invsqrt.mul(&den_x).mul(&v);
        let x = s.add(&s).mul(&den_x).abs();
        let y = u1.mul(&den_y);
        let t = x.mul(&y);
        if !was_square || t.is_negative() || y.is_zero() {
            return None;
        }
        Some(Point { x, y, z: Fe::ONE, t })
    }

    /// RFC 9496 one-way map (§4.3.4): 64 uniform bytes to a group
    /// element, as the sum of the Elligator images of both halves. The
    /// hash-to-group of every Ed25519 scheme.
    pub fn from_uniform_bytes(bytes: &[u8; 64]) -> Point {
        let half = |b: &[u8]| {
            let mut h = [0u8; 32];
            h.copy_from_slice(b);
            // `Fe::from_bytes` ignores bit 255, as the map requires.
            elligator(&Fe::from_bytes(&h))
        };
        half(&bytes[..32]).add(&half(&bytes[32..]))
    }
}

/// Constants of RFC 9496 §4.1, derived once.
struct Constants {
    /// `1/sqrt(a − d)` with `a = −1`.
    invsqrt_a_minus_d: Fe,
    /// `sqrt(a·d − 1)`.
    sqrt_ad_minus_one: Fe,
    /// `1 − d²`.
    one_minus_d_sq: Fe,
    /// `(d − 1)²`.
    d_minus_one_sq: Fe,
}

fn constants() -> &'static Constants {
    static C: OnceLock<Constants> = OnceLock::new();
    C.get_or_init(|| {
        let d = edwards_d();
        Constants {
            invsqrt_a_minus_d: Fe::from_dec(
                "54469307008909316920995813868745141605393597292927456921205312896311721017578",
            ),
            sqrt_ad_minus_one: Fe::from_dec(
                "25063068953384623474111414158702152701244531502492656460079210482610430750235",
            ),
            one_minus_d_sq: Fe::ONE.sub(&d.square()),
            d_minus_one_sq: d.sub(&Fe::ONE).square(),
        }
    })
}

/// RFC 9496 SQRT_RATIO_M1: `(true, |sqrt(u/v)|)` when `u/v` is a square,
/// else `(false, |sqrt(i·u/v)|)`; `(true, 0)` for `u = 0` and
/// `(false, 0)` for `v = 0 ≠ u`.
fn sqrt_ratio_m1(u: &Fe, v: &Fe) -> (bool, Fe) {
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let r = u.mul(&v3).mul(&u.mul(&v7).pow22523());
    // Compare canonical bytes: each `Fe` equality would re-reduce `check`.
    let check = v.mul(&r.square()).to_bytes();
    let neg_u = u.neg();
    let correct_sign = check == u.to_bytes();
    let flipped_sign = check == neg_u.to_bytes();
    let flipped_sign_i = check == neg_u.mul(&sqrt_m1()).to_bytes();
    let r = if flipped_sign || flipped_sign_i { r.mul(&sqrt_m1()) } else { r };
    (correct_sign || flipped_sign, r.abs())
}

/// RFC 9496 MAP: the Elligator 2 map from a field element to a point.
fn elligator(t: &Fe) -> Point {
    let c = constants();
    let d = edwards_d();
    let r = sqrt_m1().mul(&t.square());
    let u = r.add(&Fe::ONE).mul(&c.one_minus_d_sq);
    let v = Fe::ONE.neg().sub(&r.mul(&d)).mul(&r.add(&d));
    let (was_square, s) = sqrt_ratio_m1(&u, &v);
    let (s, c_sel) = if was_square {
        (s, Fe::ONE.neg())
    } else {
        (s.mul(t).abs().neg(), r)
    };
    let n = c_sel.mul(&r.sub(&Fe::ONE)).mul(&c.d_minus_one_sq).sub(&v);
    let ss = s.square();
    let w0 = s.add(&s).mul(&v);
    let w1 = n.mul(&c.sqrt_ad_minus_one);
    let w2 = Fe::ONE.sub(&ss);
    let w3 = Fe::ONE.add(&ss);
    Point { x: w0.mul(&w3), y: w2.mul(&w1), z: w1.mul(&w3), t: w0.mul(&w2) }
}

impl PartialEq for Point {
    /// Coset equality (RFC 9496 EQUALS): `X1·Y2 == Y1·X2 || Y1·Y2 == X1·X2`,
    /// so representatives that differ by 4-torsion compare equal.
    fn eq(&self, other: &Self) -> bool {
        self.x.mul(&other.y) == self.y.mul(&other.x)
            || self.y.mul(&other.y) == self.x.mul(&other.x)
    }
}

impl Eq for Point {}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.compress();
        write!(f, "Point({})", hex(&c))
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xba5e)
    }

    #[test]
    fn base_point_on_curve() {
        assert!(Point::base().satisfies_curve_equation());
        assert!(Point::base().is_in_prime_subgroup());
        assert!(!Point::base().is_identity());
    }

    #[test]
    fn identity_laws() {
        let b = Point::base();
        assert_eq!(b.add(&Point::identity()), b);
        assert_eq!(Point::identity().add(&b), b);
        assert_eq!(b.add(&b.neg()), Point::identity());
        assert!(Point::identity().is_identity());
    }

    #[test]
    fn double_matches_add() {
        let mut r = rng();
        let p = Point::mul_base(&Scalar::random(&mut r));
        assert_eq!(p.double(), p.add(&p));
    }

    #[test]
    fn group_laws_random() {
        let mut r = rng();
        for _ in 0..10 {
            let p = Point::mul_base(&Scalar::random(&mut r));
            let q = Point::mul_base(&Scalar::random(&mut r));
            let s = Point::mul_base(&Scalar::random(&mut r));
            assert_eq!(p.add(&q), q.add(&p));
            assert_eq!(p.add(&q).add(&s), p.add(&q.add(&s)));
        }
    }

    #[test]
    fn scalar_mul_distributes() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Scalar::random(&mut r);
            let b = Scalar::random(&mut r);
            // (a+b)·B == a·B + b·B
            assert_eq!(
                Point::mul_base(&a.add(&b)),
                Point::mul_base(&a).add(&Point::mul_base(&b))
            );
            // (a·b)·B == a·(b·B)
            assert_eq!(Point::mul_base(&a.mul(&b)), Point::mul_base(&b).mul(&a));
        }
    }

    #[test]
    fn small_scalar_mults() {
        let b = Point::base();
        assert_eq!(b.mul(&Scalar::from_u64(0)), Point::identity());
        assert_eq!(b.mul(&Scalar::from_u64(1)), b);
        assert_eq!(b.mul(&Scalar::from_u64(2)), b.double());
        assert_eq!(b.mul(&Scalar::from_u64(3)), b.double().add(&b));
        let mut acc = Point::identity();
        for _ in 0..17 {
            acc = acc.add(&b);
        }
        assert_eq!(b.mul(&Scalar::from_u64(17)), acc);
    }

    #[test]
    fn order_annihilates_base() {
        let l = Scalar::order_biguint();
        assert!(Point::base().mul_biguint(l).is_identity());
        // ℓ−1 · B == −B
        let l_minus_1 = l - &BigUint::one();
        assert_eq!(Point::base().mul_biguint(&l_minus_1), Point::base().neg());
    }

    /// The RFC 8032 Edwards decoding, kept here to build non-subgroup
    /// points for the torsion tests.
    fn edwards_decompress(y: u64) -> Option<Point> {
        let y = Fe::from_dec(&y.to_string());
        let yy = y.square();
        let xx = yy.sub(&Fe::ONE).mul(&edwards_d().mul(&yy).add(&Fe::ONE).invert());
        Point::from_affine(xx.sqrt()?, y)
    }

    /// Strict Edwards equality with (0, 1), not the coset one.
    fn is_edwards_identity(p: &Point) -> bool {
        p.x.is_zero() && p.y == p.z
    }

    /// A point of order exactly 4, obtained as `ℓ·Q` for some
    /// non-subgroup `Q`.
    fn order4_torsion() -> Point {
        let l = Scalar::order_biguint();
        (2u64..200)
            .filter_map(edwards_decompress)
            .flat_map(|q| {
                let t = q.mul_biguint(l);
                [t, t.double()]
            })
            .find(|t| {
                !is_edwards_identity(&t.double()) && is_edwards_identity(&t.double().double())
            })
            .expect("a small y gives a point with a 4-torsion component")
    }

    fn from_hex(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, b) in out.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn rfc9496_constants() {
        let c = constants();
        let minus_one_minus_d = Fe::ONE.neg().sub(&edwards_d());
        assert_eq!(c.invsqrt_a_minus_d.square().mul(&minus_one_minus_d), Fe::ONE);
        assert_eq!(c.sqrt_ad_minus_one.square(), minus_one_minus_d);
    }

    #[test]
    fn rfc9496_base_multiples() {
        // RFC 9496 Appendix A.1: encodings of 0·B, 1·B, 2·B, ...
        let vectors = [
            "0000000000000000000000000000000000000000000000000000000000000000",
            "e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
            "6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
            "94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
            "da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
            "e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
            "f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
            "44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
            "903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
            "02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
            "20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
            "bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
            "e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
            "aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
            "46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
            "e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
        ];
        let mut p = Point::identity();
        for v in vectors {
            let bytes = from_hex(v);
            assert_eq!(p.compress(), bytes, "{v}");
            assert_eq!(Point::decompress(&bytes).expect("valid encoding"), p);
            p = p.add(&Point::base());
        }
    }

    #[test]
    fn compress_decompress_roundtrip() {
        let mut r = rng();
        for _ in 0..20 {
            let p = Point::mul_base(&Scalar::random(&mut r));
            let c = p.compress();
            let q = Point::decompress(&c).expect("valid encoding");
            assert_eq!(p, q);
            assert_eq!(q.compress(), c);
        }
    }

    #[test]
    fn identity_encodes_to_zero_bytes() {
        assert_eq!(Point::identity().compress(), [0u8; 32]);
        assert!(Point::decompress(&[0u8; 32]).unwrap().is_identity());
    }

    #[test]
    fn decompress_rejects_invalid() {
        // Not every non-negative s < p is an encoding.
        let mut any_invalid = false;
        for s in (2u8..40).step_by(2) {
            let mut bytes = [0u8; 32];
            bytes[0] = s;
            if Point::decompress(&bytes).is_none() {
                any_invalid = true;
                break;
            }
        }
        assert!(any_invalid, "some small s must be rejected");
    }

    #[test]
    fn decompress_rejects_non_canonical_and_negative() {
        // p + 1 (reduces to s = 1), p itself (s = 0) and a set bit 255.
        let mut p_plus_1 = [0xffu8; 32];
        p_plus_1[0] = 0xee;
        p_plus_1[31] = 0x7f;
        let mut p = p_plus_1;
        p[0] = 0xed;
        let mut high_bit = [0u8; 32];
        high_bit[31] = 0x80;
        // s = 1 is odd, i.e. negative.
        let mut one = [0u8; 32];
        one[0] = 1;
        // s = p − 1 = −1 is even, and gives y = 0.
        let mut minus_one = p;
        minus_one[0] = 0xec;
        for bytes in [p_plus_1, p, high_bit, one, minus_one] {
            assert!(Point::decompress(&bytes).is_none(), "{bytes:02x?}");
        }
        // Odd multiples' encodings flipped to their negation p − s are odd.
        let mut r = rng();
        let enc = Point::mul_base(&Scalar::random(&mut r)).compress();
        let neg = Fe::from_bytes(&enc).neg().to_bytes();
        assert!(Point::decompress(&neg).is_none());
    }

    #[test]
    fn torsion_coset_encodes_once() {
        let t = order4_torsion();
        assert!(t.is_identity(), "4-torsion is the identity under coset equality");
        assert!(!is_edwards_identity(&t));
        let mut r = rng();
        for _ in 0..5 {
            let p = Point::mul_base(&Scalar::random(&mut r));
            for shifted in [p.add(&t), p.add(&t.double()), p.sub(&t)] {
                assert_eq!(shifted.compress(), p.compress());
                assert_eq!(shifted, p);
            }
        }
        // An 8-torsion component is not absorbed.
        let l = Scalar::order_biguint();
        let t8 = (2u64..200)
            .filter_map(edwards_decompress)
            .map(|q| q.mul_biguint(l))
            .find(|t| !t.is_identity())
            .expect("a small y gives a point with an 8-torsion component");
        assert!(!t8.is_identity());
        assert!(!t8.is_in_prime_subgroup());
        assert_ne!(Point::base().add(&t8), Point::base());
    }

    #[test]
    fn decoded_points_pass_the_order_oracle() {
        let mut r = rng();
        let mut accepted = 0;
        for i in 0..64u64 {
            // Random encodings (mostly rejected) and real ones.
            let mut bytes = [0u8; 32];
            rand::RngCore::fill_bytes(&mut r, &mut bytes);
            bytes[31] &= 0x7f;
            if i % 2 == 0 {
                bytes = Point::mul_base(&Scalar::random(&mut r)).compress();
            }
            if let Some(p) = Point::decompress(&bytes) {
                accepted += 1;
                assert!(p.mul_biguint(Scalar::order_biguint()).is_identity());
                assert_eq!(p.compress(), bytes);
            }
        }
        assert!(accepted >= 32);
    }

    #[test]
    fn one_way_map_lands_in_group() {
        let mut r = rng();
        for _ in 0..50 {
            let mut bytes = [0u8; 64];
            rand::RngCore::fill_bytes(&mut r, &mut bytes);
            let p = Point::from_uniform_bytes(&bytes);
            assert!(!p.is_identity());
            assert!(p.is_in_prime_subgroup());
            let c = p.compress();
            assert_eq!(Point::decompress(&c).expect("valid encoding"), p);
            assert_eq!(Point::from_uniform_bytes(&bytes), p);
        }
    }

    #[test]
    fn neg_of_identity_is_identity() {
        assert_eq!(Point::identity().neg(), Point::identity());
    }

    #[test]
    fn cofactor_times_base_nonzero() {
        assert!(!Point::base().double().double().double().is_identity());
    }
}
