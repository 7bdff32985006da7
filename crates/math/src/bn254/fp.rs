//! The BN254 base field F_p with
//! p = 21888242871839275222246405745257275088696311157297823662689037894645226208583.
//!
//! Elements are kept in 4-limb Montgomery form; this field is hot (every
//! pairing evaluates ~10^5 multiplications here), so unlike the dynamic
//! [`crate::Montgomery`] context it uses fixed-width CIOS arithmetic.

use crate::BigUint;
use std::fmt;
use std::sync::OnceLock;

/// The modulus p as little-endian u64 limbs.
const P: [u64; 4] = [
    0x3c208c16d87cfd47,
    0x97816a916871ca8d,
    0xb85045b68181585d,
    0x30644e72e131a029,
];

/// `-p^{-1} mod 2^64`.
const P_INV: u64 = 0x87d20782e4866389;

/// `R = 2^256 mod p` (Montgomery form of 1).
const R1: [u64; 4] = [
    0xd35d438dc58f0d9d,
    0x0a78eb28f5c70b3d,
    0x666ea36f7879462c,
    0x0e0a77c19a07df2f,
];

/// `R^2 mod p`.
const R2: [u64; 4] = [
    0xf32cfc5b538afa89,
    0xb5e71911d44501fb,
    0x47ab1eff0a417ff6,
    0x06d89f71cab8351f,
];

#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + (borrow >> 63) as u128);
    (t as u64, (t >> 64) as u64)
}

#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 * c as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// An element of F_p in Montgomery form.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp([u64; 4]);

impl Fp {
    /// The additive identity.
    pub const ZERO: Fp = Fp([0, 0, 0, 0]);
    /// The multiplicative identity (R mod p in Montgomery form).
    pub const ONE: Fp = Fp(R1);
    /// 1/2 = (p + 1)/2, in Montgomery form (R/2 mod p).
    pub const TWO_INV: Fp =
        Fp([0x87bee7d24f060572, 0xd0fd2add2f1c6ae5, 0x8f5f7492fcfd4f44, 0x1f37631a3d9cbfac]);

    /// The modulus as a [`BigUint`].
    pub fn modulus() -> &'static BigUint {
        static M: OnceLock<BigUint> = OnceLock::new();
        M.get_or_init(|| BigUint::from_limbs(P.to_vec()))
    }

    /// Builds from a small integer.
    pub fn from_u64(v: u64) -> Fp {
        Fp::from_raw([v, 0, 0, 0])
    }

    /// Builds from raw little-endian limbs (must be < p), converting into
    /// Montgomery form.
    pub fn from_raw(limbs: [u64; 4]) -> Fp {
        Fp(limbs).mul(&Fp(R2))
    }

    /// Builds from a [`BigUint`] (reduced mod p).
    pub fn from_biguint(v: &BigUint) -> Fp {
        let v = v.rem(Self::modulus());
        let mut limbs = [0u64; 4];
        for (i, l) in v.limbs().iter().enumerate() {
            limbs[i] = *l;
        }
        Fp::from_raw(limbs)
    }

    /// Parses a decimal string (reduced mod p).
    pub fn from_dec(s: &str) -> Fp {
        Fp::from_biguint(&BigUint::from_dec(s).expect("valid decimal"))
    }

    /// The canonical integer representative.
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_limbs(self.to_raw().to_vec())
    }

    /// Converts out of Montgomery form into plain little-endian limbs.
    pub fn to_raw(&self) -> [u64; 4] {
        // Montgomery reduction of (self, 0).
        let mut t = [self.0[0], self.0[1], self.0[2], self.0[3], 0, 0, 0, 0];
        mont_reduce(&mut t)
    }

    /// Uniformly random element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Fp {
        let v = BigUint::random_below(rng, Self::modulus());
        Fp::from_biguint(&v)
    }

    /// True when zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }

    /// Addition.
    #[inline]
    pub fn add(&self, rhs: &Fp) -> Fp {
        let (d0, c) = adc(self.0[0], rhs.0[0], 0);
        let (d1, c) = adc(self.0[1], rhs.0[1], c);
        let (d2, c) = adc(self.0[2], rhs.0[2], c);
        let (d3, _) = adc(self.0[3], rhs.0[3], c);
        // The sum never overflows 2^256 since both inputs are < p < 2^254·1.22.
        Fp([d0, d1, d2, d3]).reduce_once()
    }

    #[inline]
    fn reduce_once(self) -> Fp {
        let (d0, b) = sbb(self.0[0], P[0], 0);
        let (d1, b) = sbb(self.0[1], P[1], b);
        let (d2, b) = sbb(self.0[2], P[2], b);
        let (d3, b) = sbb(self.0[3], P[3], b);
        if b == 0 {
            Fp([d0, d1, d2, d3])
        } else {
            self
        }
    }

    /// Subtraction.
    #[inline]
    pub fn sub(&self, rhs: &Fp) -> Fp {
        let (d0, b) = sbb(self.0[0], rhs.0[0], 0);
        let (d1, b) = sbb(self.0[1], rhs.0[1], b);
        let (d2, b) = sbb(self.0[2], rhs.0[2], b);
        let (d3, b) = sbb(self.0[3], rhs.0[3], b);
        if b == 0 {
            Fp([d0, d1, d2, d3])
        } else {
            let (d0, c) = adc(d0, P[0], 0);
            let (d1, c) = adc(d1, P[1], c);
            let (d2, c) = adc(d2, P[2], c);
            let (d3, _) = adc(d3, P[3], c);
            Fp([d0, d1, d2, d3])
        }
    }

    /// Negation.
    #[inline]
    pub fn neg(&self) -> Fp {
        if self.is_zero() {
            *self
        } else {
            let (d0, b) = sbb(P[0], self.0[0], 0);
            let (d1, b) = sbb(P[1], self.0[1], b);
            let (d2, b) = sbb(P[2], self.0[2], b);
            let (d3, _) = sbb(P[3], self.0[3], b);
            Fp([d0, d1, d2, d3])
        }
    }

    /// Doubling.
    #[inline]
    pub fn double(&self) -> Fp {
        self.add(self)
    }

    /// Multiplication (Montgomery CIOS, "no-carry" variant).
    ///
    /// p's top limb is below 2⁶³ − 1, so each round's two carry chains
    /// fit in four limbs without the fifth overflow word of textbook
    /// CIOS (the optimisation gnark-crypto uses for BN254); the result is
    /// below 2p and one conditional subtraction reduces it.
    #[inline]
    pub fn mul(&self, rhs: &Fp) -> Fp {
        let (a, b) = (&self.0, &rhs.0);
        let mut t = [0u64; 4];
        for bi in b {
            let (t0, mut carry_ab) = mac(t[0], a[0], *bi, 0);
            let m = t0.wrapping_mul(P_INV);
            let (_, mut carry_mp) = mac(t0, m, P[0], 0);
            for j in 1..4 {
                let (tj, c) = mac(t[j], a[j], *bi, carry_ab);
                carry_ab = c;
                let (tj, c) = mac(tj, m, P[j], carry_mp);
                carry_mp = c;
                t[j - 1] = tj;
            }
            t[3] = carry_mp.wrapping_add(carry_ab);
        }
        Fp(t).reduce_once()
    }

    /// Squaring.
    #[inline]
    pub fn square(&self) -> Fp {
        self.mul(self)
    }

    /// Exponentiation by an arbitrary integer exponent.
    pub fn pow(&self, exp: &BigUint) -> Fp {
        let mut acc = Fp::ONE;
        for i in (0..exp.bits()).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Multiplicative inverse (`self^(p−2)`), `None` for zero.
    pub fn invert(&self) -> Option<Fp> {
        if self.is_zero() {
            return None;
        }
        static EXP: OnceLock<BigUint> = OnceLock::new();
        let e = EXP.get_or_init(|| Fp::modulus() - &BigUint::from_u64(2));
        Some(self.pow(e))
    }

    /// Square root (p ≡ 3 mod 4, so `x^((p+1)/4)`), `None` for non-residues.
    pub fn sqrt(&self) -> Option<Fp> {
        static EXP: OnceLock<BigUint> = OnceLock::new();
        let e = EXP.get_or_init(|| (Fp::modulus() + &BigUint::one()) >> 2);
        let root = self.pow(e);
        if root.square() == *self {
            Some(root)
        } else {
            None
        }
    }

    /// Canonical sign: true when the representative is odd (used for
    /// compressed-point encodings).
    pub fn is_odd(&self) -> bool {
        self.to_raw()[0] & 1 == 1
    }

    /// Encodes as 32 big-endian bytes.
    pub fn to_bytes_be(&self) -> [u8; 32] {
        let raw = self.to_raw();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[(3 - i) * 8..(4 - i) * 8].copy_from_slice(&raw[i].to_be_bytes());
        }
        out
    }

    /// Decodes 32 big-endian bytes, rejecting values ≥ p.
    pub fn from_bytes_be(bytes: &[u8; 32]) -> Option<Fp> {
        let v = BigUint::from_bytes_be(bytes);
        if &v >= Self::modulus() {
            return None;
        }
        Some(Fp::from_biguint(&v))
    }
}

/// `(a0·b0 − a1·b1, a0·b1 + a1·b0)`: the F_p² product under u² = −1,
/// by Karatsuba with lazy reduction — three unreduced 512-bit products
/// and two Montgomery reductions instead of three full multiplications.
///
/// Bounds: the unreduced sums are below 2p, so `(a0+a1)(b0+b1) < 4p²`;
/// both outputs are taken below 2p² (the real part shifted up by p²),
/// and everything stays under p·2²⁵⁶ as [`mont_reduce`] requires.
#[inline]
pub(crate) fn mul_complex(a0: &Fp, a1: &Fp, b0: &Fp, b1: &Fp) -> (Fp, Fp) {
    /// p² as 8 little-endian limbs.
    const P_SQUARED: [u64; 8] = mul_wide(&P, &P);
    let aa = mul_wide(&a0.0, &b0.0);
    let bb = mul_wide(&a1.0, &b1.0);
    let sum = mul_wide(&add_unreduced(&a0.0, &a1.0), &add_unreduced(&b0.0, &b1.0));
    let mut real = add_wide(&sub_wide(&aa, &bb), &P_SQUARED);
    let mut imaginary = sub_wide(&sub_wide(&sum, &aa), &bb);
    (Fp(mont_reduce(&mut real)), Fp(mont_reduce(&mut imaginary)))
}

/// Schoolbook 4×4-limb product into 8 limbs.
#[inline(always)]
const fn mul_wide(a: &[u64; 4], b: &[u64; 4]) -> [u64; 8] {
    let mut t = [0u64; 8];
    let mut i = 0;
    while i < 4 {
        let mut carry = 0u64;
        let mut j = 0;
        while j < 4 {
            let v = t[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry as u128;
            t[i + j] = v as u64;
            carry = (v >> 64) as u64;
            j += 1;
        }
        t[i + 4] = carry;
        i += 1;
    }
    t
}

/// `a + b` without reduction (below 2p < 2²⁵⁵ for reduced inputs).
#[inline(always)]
fn add_unreduced(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let (d0, c) = adc(a[0], b[0], 0);
    let (d1, c) = adc(a[1], b[1], c);
    let (d2, c) = adc(a[2], b[2], c);
    let (d3, _) = adc(a[3], b[3], c);
    [d0, d1, d2, d3]
}

#[inline(always)]
fn add_wide(a: &[u64; 8], b: &[u64; 8]) -> [u64; 8] {
    let mut r = [0u64; 8];
    let mut carry = 0;
    for i in 0..8 {
        (r[i], carry) = adc(a[i], b[i], carry);
    }
    r
}

/// `a − b` modulo 2⁵¹²; callers keep the true result non-negative.
#[inline(always)]
fn sub_wide(a: &[u64; 8], b: &[u64; 8]) -> [u64; 8] {
    let mut r = [0u64; 8];
    let mut borrow = 0;
    for i in 0..8 {
        (r[i], borrow) = sbb(a[i], b[i], borrow);
    }
    r
}

/// Montgomery reduction of an 8-limb value; returns 4 limbs < p.
///
/// Standard interleaved REDC (the zkcrypto layout): one reduction round per
/// input limb, threading a second carry chain through the high half.
#[inline]
fn mont_reduce(t: &mut [u64; 8]) -> [u64; 4] {
    let k = t[0].wrapping_mul(P_INV);
    let (_, carry) = mac(t[0], k, P[0], 0);
    let (r1, carry) = mac(t[1], k, P[1], carry);
    let (r2, carry) = mac(t[2], k, P[2], carry);
    let (r3, carry) = mac(t[3], k, P[3], carry);
    let (r4, carry2) = adc(t[4], 0, carry);

    let k = r1.wrapping_mul(P_INV);
    let (_, carry) = mac(r1, k, P[0], 0);
    let (r2, carry) = mac(r2, k, P[1], carry);
    let (r3, carry) = mac(r3, k, P[2], carry);
    let (r4, carry) = mac(r4, k, P[3], carry);
    let (r5, carry2) = adc(t[5], carry2, carry);

    let k = r2.wrapping_mul(P_INV);
    let (_, carry) = mac(r2, k, P[0], 0);
    let (r3, carry) = mac(r3, k, P[1], carry);
    let (r4, carry) = mac(r4, k, P[2], carry);
    let (r5, carry) = mac(r5, k, P[3], carry);
    let (r6, carry2) = adc(t[6], carry2, carry);

    let k = r3.wrapping_mul(P_INV);
    let (_, carry) = mac(r3, k, P[0], 0);
    let (r4, carry) = mac(r4, k, P[1], carry);
    let (r5, carry) = mac(r5, k, P[2], carry);
    let (r6, carry) = mac(r6, k, P[3], carry);
    let (r7, _) = adc(t[7], carry2, carry);

    Fp([r4, r5, r6, r7]).reduce_once().0
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({})", self.to_biguint())
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_biguint())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xb254)
    }

    #[test]
    fn constants_consistent() {
        // P really is the BN254 prime.
        assert_eq!(
            Fp::modulus().to_dec(),
            "21888242871839275222246405745257275088696311157297823662689037894645226208583"
        );
        // P_INV · p ≡ −1 mod 2^64
        assert_eq!(P[0].wrapping_mul(P_INV), u64::MAX);
        // R1 = 2^256 mod p
        let r = (BigUint::one() << 256).rem(Fp::modulus());
        assert_eq!(BigUint::from_limbs(R1.to_vec()), r);
        // R2 = R^2 mod p
        let r2 = (&r * &r).rem(Fp::modulus());
        assert_eq!(BigUint::from_limbs(R2.to_vec()), r2);
    }

    #[test]
    fn one_roundtrip() {
        assert_eq!(Fp::ONE.to_biguint(), BigUint::one());
        assert_eq!(Fp::from_u64(1), Fp::ONE);
        assert_eq!(Fp::TWO_INV.add(&Fp::TWO_INV), Fp::ONE);
        assert_eq!(Fp::from_u64(2).invert(), Some(Fp::TWO_INV));
        assert!(Fp::ZERO.is_zero());
    }

    #[test]
    fn add_sub_match_biguint() {
        let mut r = rng();
        let p = Fp::modulus();
        for _ in 0..200 {
            let a = Fp::random(&mut r);
            let b = Fp::random(&mut r);
            let expect = (&a.to_biguint() + &b.to_biguint()).rem(p);
            assert_eq!(a.add(&b).to_biguint(), expect);
            let expect_sub = if a.to_biguint() >= b.to_biguint() {
                &a.to_biguint() - &b.to_biguint()
            } else {
                &(&a.to_biguint() + p) - &b.to_biguint()
            };
            assert_eq!(a.sub(&b).to_biguint(), expect_sub);
        }
    }

    #[test]
    fn mul_extremes_match_biguint() {
        // Largest operands stress the no-carry CIOS bound.
        let p = Fp::modulus();
        let edges = [
            Fp::ONE.neg(),
            Fp::from_u64(2).neg(),
            Fp::from_biguint(&(p >> 1)),
            Fp::ONE,
            Fp::ZERO,
        ];
        for a in &edges {
            for b in &edges {
                let expect = (&a.to_biguint() * &b.to_biguint()).rem(p);
                assert_eq!(a.mul(b).to_biguint(), expect);
            }
        }
    }

    #[test]
    fn mul_matches_biguint() {
        let mut r = rng();
        let p = Fp::modulus();
        for _ in 0..200 {
            let a = Fp::random(&mut r);
            let b = Fp::random(&mut r);
            let expect = (&a.to_biguint() * &b.to_biguint()).rem(p);
            assert_eq!(a.mul(&b).to_biguint(), expect);
        }
    }

    #[test]
    fn neg_and_double() {
        let mut r = rng();
        for _ in 0..50 {
            let a = Fp::random(&mut r);
            assert!(a.add(&a.neg()).is_zero());
            assert_eq!(a.double(), a.add(&a));
        }
        assert!(Fp::ZERO.neg().is_zero());
    }

    #[test]
    fn invert_roundtrip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp::ONE);
        }
        assert!(Fp::ZERO.invert().is_none());
    }

    #[test]
    fn sqrt_roundtrip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            let sq = a.square();
            let root = sq.sqrt().expect("squares have roots");
            assert!(root == a || root == a.neg());
        }
    }

    #[test]
    fn sqrt_non_residue() {
        // The curve equation x³+3 at x=1 gives 4 = 2², a residue; we need a
        // known non-residue: p ≡ 3 mod 4 means −1 is a non-residue.
        assert!(Fp::ONE.neg().sqrt().is_none());
    }

    #[test]
    fn pow_fermat() {
        let mut r = rng();
        let a = Fp::random(&mut r);
        let e = Fp::modulus() - &BigUint::one();
        assert_eq!(a.pow(&e), Fp::ONE);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp::random(&mut r);
            assert_eq!(Fp::from_bytes_be(&a.to_bytes_be()).unwrap(), a);
        }
        // Reject p itself.
        let mut p_bytes = [0u8; 32];
        let pb = Fp::modulus().to_bytes_be();
        p_bytes[32 - pb.len()..].copy_from_slice(&pb);
        assert!(Fp::from_bytes_be(&p_bytes).is_none());
    }
}
