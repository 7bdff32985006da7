//! The quadratic extension F_p² = F_p[u] / (u² + 1).
//!
//! G2 of BN254 lives over this field, and the sextic twist is defined with
//! the non-residue ξ = 9 + u.

use super::fp::Fp;
use crate::BigUint;
use std::fmt;

/// An element `c0 + c1·u` of F_p².
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp2 {
    /// Real coefficient.
    pub c0: Fp,
    /// Coefficient of `u`.
    pub c1: Fp,
}

impl Fp2 {
    /// The additive identity.
    pub const ZERO: Fp2 = Fp2 { c0: Fp::ZERO, c1: Fp::ZERO };
    /// The multiplicative identity.
    pub const ONE: Fp2 = Fp2 { c0: Fp::ONE, c1: Fp::ZERO };

    /// Builds from two base-field coefficients.
    pub fn new(c0: Fp, c1: Fp) -> Fp2 {
        Fp2 { c0, c1 }
    }

    /// Embeds a base-field element.
    pub fn from_fp(c0: Fp) -> Fp2 {
        Fp2 { c0, c1: Fp::ZERO }
    }

    /// ξ = 9 + u, the sextic non-residue defining the twist and the tower.
    pub fn xi() -> Fp2 {
        Fp2 { c0: Fp::from_u64(9), c1: Fp::ONE }
    }

    /// Uniformly random element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Fp2 {
        Fp2 { c0: Fp::random(rng), c1: Fp::random(rng) }
    }

    /// True when zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Addition.
    pub fn add(&self, rhs: &Fp2) -> Fp2 {
        Fp2 { c0: self.c0.add(&rhs.c0), c1: self.c1.add(&rhs.c1) }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Fp2) -> Fp2 {
        Fp2 { c0: self.c0.sub(&rhs.c0), c1: self.c1.sub(&rhs.c1) }
    }

    /// Negation.
    pub fn neg(&self) -> Fp2 {
        Fp2 { c0: self.c0.neg(), c1: self.c1.neg() }
    }

    /// Doubling.
    pub fn double(&self) -> Fp2 {
        self.add(self)
    }

    /// Multiplication (Karatsuba over the base field with lazy
    /// reduction; u² = −1).
    #[inline]
    pub fn mul(&self, rhs: &Fp2) -> Fp2 {
        let (c0, c1) = super::fp::mul_complex(&self.c0, &self.c1, &rhs.c0, &rhs.c1);
        Fp2 { c0, c1 }
    }

    /// Squaring (complex method).
    pub fn square(&self) -> Fp2 {
        let a_plus_b = self.c0.add(&self.c1);
        let a_minus_b = self.c0.sub(&self.c1);
        let ab = self.c0.mul(&self.c1);
        Fp2 {
            c0: a_plus_b.mul(&a_minus_b),
            c1: ab.double(),
        }
    }

    /// Scales by a base-field element.
    pub fn mul_fp(&self, s: &Fp) -> Fp2 {
        Fp2 { c0: self.c0.mul(s), c1: self.c1.mul(s) }
    }

    /// Multiplies by the non-residue ξ = 9 + u:
    /// `(a + bu)(9 + u) = (9a − b) + (a + 9b)u`.
    pub fn mul_by_xi(&self) -> Fp2 {
        let nine_a = self.c0.double().double().double().add(&self.c0);
        let nine_b = self.c1.double().double().double().add(&self.c1);
        Fp2 {
            c0: nine_a.sub(&self.c1),
            c1: self.c0.add(&nine_b),
        }
    }

    /// Complex conjugation `a − bu` (the Frobenius endomorphism of F_p²).
    pub fn conjugate(&self) -> Fp2 {
        Fp2 { c0: self.c0, c1: self.c1.neg() }
    }

    /// Multiplicative inverse: `(a + bu)^{-1} = (a − bu)/(a² + b²)`.
    pub fn invert(&self) -> Option<Fp2> {
        let norm = self.c0.square().add(&self.c1.square());
        let norm_inv = norm.invert()?;
        Some(Fp2 {
            c0: self.c0.mul(&norm_inv),
            c1: self.c1.neg().mul(&norm_inv),
        })
    }

    /// Exponentiation by an arbitrary integer.
    pub fn pow(&self, exp: &BigUint) -> Fp2 {
        let mut acc = Fp2::ONE;
        for i in (0..exp.bits()).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }
}

impl fmt::Debug for Fp2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp2({} + {}·u)", self.c0, self.c1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xf2)
    }

    #[test]
    fn ring_axioms() {
        let mut r = rng();
        for _ in 0..50 {
            let a = Fp2::random(&mut r);
            let b = Fp2::random(&mut r);
            let c = Fp2::random(&mut r);
            assert_eq!(a.add(&b), b.add(&a));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.mul(&Fp2::ONE), a);
            assert_eq!(a.add(&Fp2::ZERO), a);
            assert!(a.sub(&a).is_zero());
        }
    }

    #[test]
    fn u_squared_is_minus_one() {
        let u = Fp2::new(Fp::ZERO, Fp::ONE);
        assert_eq!(u.square(), Fp2::from_fp(Fp::ONE.neg()));
    }

    #[test]
    fn mul_matches_schoolbook() {
        let mut r = rng();
        let top = Fp::ONE.neg();
        let mut cases: Vec<(Fp2, Fp2)> =
            (0..50).map(|_| (Fp2::random(&mut r), Fp2::random(&mut r))).collect();
        // Largest coefficients and a real part that goes negative
        // before the lazy reduction.
        cases.push((Fp2::new(top, top), Fp2::new(top, top)));
        cases.push((Fp2::new(Fp::ZERO, top), Fp2::new(Fp::ZERO, top)));
        cases.push((Fp2::new(Fp::ONE, top), Fp2::new(Fp::ONE, top)));
        for (a, b) in cases {
            let c0 = a.c0.mul(&b.c0).sub(&a.c1.mul(&b.c1));
            let c1 = a.c0.mul(&b.c1).add(&a.c1.mul(&b.c0));
            assert_eq!(a.mul(&b), Fp2::new(c0, c1));
        }
    }

    #[test]
    fn square_matches_mul() {
        let mut r = rng();
        for _ in 0..50 {
            let a = Fp2::random(&mut r);
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn invert_roundtrip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp2::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp2::ONE);
        }
        assert!(Fp2::ZERO.invert().is_none());
    }

    #[test]
    fn mul_by_xi_matches_mul() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp2::random(&mut r);
            assert_eq!(a.mul_by_xi(), a.mul(&Fp2::xi()));
        }
    }

    #[test]
    fn conjugate_is_frobenius() {
        let mut r = rng();
        let a = Fp2::random(&mut r);
        assert_eq!(a.pow(super::super::fp::Fp::modulus()), a.conjugate());
    }

    #[test]
    fn conjugate_fixes_base_field() {
        let a = Fp2::from_fp(Fp::from_u64(12345));
        assert_eq!(a.conjugate(), a);
    }

    #[test]
    fn xi_is_nonresidue_order() {
        // ξ^((p²−1)/6) must be a primitive 6th root of unity for the tower
        // to be a field; indirectly verified by ξ having no cube/square root
        // issues — check ξ^(p²−1) == 1 and ξ^((p²−1)/2) != 1.
        let p = Fp::modulus();
        let p2_minus_1 = &(p * p) - &BigUint::one();
        let xi = Fp2::xi();
        assert_eq!(xi.pow(&p2_minus_1), Fp2::ONE);
        let half = &p2_minus_1 >> 1;
        assert!(xi.pow(&half) != Fp2::ONE, "xi must be a quadratic non-residue");
        let third = p2_minus_1.divrem(&BigUint::from_u64(3)).0;
        assert!(xi.pow(&third) != Fp2::ONE, "xi must be a cubic non-residue");
    }
}
