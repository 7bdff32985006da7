//! The sextic-tower middle layer F_p⁶ = F_p²[v] / (v³ − ξ) with ξ = 9 + u.

use super::fp2::Fp2;
use std::fmt;

/// An element `c0 + c1·v + c2·v²` of F_p⁶.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fp6 {
    pub c0: Fp2,
    pub c1: Fp2,
    pub c2: Fp2,
}

impl Fp6 {
    /// The additive identity.
    pub const ZERO: Fp6 = Fp6 { c0: Fp2::ZERO, c1: Fp2::ZERO, c2: Fp2::ZERO };
    /// The multiplicative identity.
    pub const ONE: Fp6 = Fp6 { c0: Fp2::ONE, c1: Fp2::ZERO, c2: Fp2::ZERO };

    /// Builds from three F_p² coefficients.
    pub fn new(c0: Fp2, c1: Fp2, c2: Fp2) -> Fp6 {
        Fp6 { c0, c1, c2 }
    }

    /// Embeds an F_p² element.
    pub fn from_fp2(c0: Fp2) -> Fp6 {
        Fp6 { c0, c1: Fp2::ZERO, c2: Fp2::ZERO }
    }

    /// Uniformly random element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Fp6 {
        Fp6 { c0: Fp2::random(rng), c1: Fp2::random(rng), c2: Fp2::random(rng) }
    }

    /// True when zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    /// Addition.
    pub fn add(&self, rhs: &Fp6) -> Fp6 {
        Fp6 {
            c0: self.c0.add(&rhs.c0),
            c1: self.c1.add(&rhs.c1),
            c2: self.c2.add(&rhs.c2),
        }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Fp6) -> Fp6 {
        Fp6 {
            c0: self.c0.sub(&rhs.c0),
            c1: self.c1.sub(&rhs.c1),
            c2: self.c2.sub(&rhs.c2),
        }
    }

    /// Negation.
    pub fn neg(&self) -> Fp6 {
        Fp6 { c0: self.c0.neg(), c1: self.c1.neg(), c2: self.c2.neg() }
    }

    /// Multiplication (Toom-style interpolation with v³ = ξ).
    pub fn mul(&self, rhs: &Fp6) -> Fp6 {
        let t0 = self.c0.mul(&rhs.c0);
        let t1 = self.c1.mul(&rhs.c1);
        let t2 = self.c2.mul(&rhs.c2);

        // c0 = t0 + ξ·((a1+a2)(b1+b2) − t1 − t2)
        let s12 = self.c1.add(&self.c2).mul(&rhs.c1.add(&rhs.c2)).sub(&t1).sub(&t2);
        let c0 = t0.add(&s12.mul_by_xi());
        // c1 = (a0+a1)(b0+b1) − t0 − t1 + ξ·t2
        let s01 = self.c0.add(&self.c1).mul(&rhs.c0.add(&rhs.c1)).sub(&t0).sub(&t1);
        let c1 = s01.add(&t2.mul_by_xi());
        // c2 = (a0+a2)(b0+b2) − t0 − t2 + t1
        let s02 = self.c0.add(&self.c2).mul(&rhs.c0.add(&rhs.c2)).sub(&t0).sub(&t2);
        let c2 = s02.add(&t1);

        Fp6 { c0, c1, c2 }
    }

    /// Multiplication by the sparse element `b0 + b1·v` (five F_p²
    /// multiplications instead of six): the shape a Miller-loop line
    /// takes in each half of [`super::fp12::Fp12::mul_by_034`].
    pub(crate) fn mul_by_01(&self, b0: &Fp2, b1: &Fp2) -> Fp6 {
        let t0 = self.c0.mul(b0);
        let t1 = self.c1.mul(b1);
        // c0 = a0·b0 + ξ·a2·b1, with a2·b1 = (a1+a2)·b1 − a1·b1
        let a2b1 = self.c1.add(&self.c2).mul(b1).sub(&t1);
        let c0 = t0.add(&a2b1.mul_by_xi());
        // c1 = a0·b1 + a1·b0 = (a0+a1)(b0+b1) − t0 − t1
        let c1 = self.c0.add(&self.c1).mul(&b0.add(b1)).sub(&t0).sub(&t1);
        // c2 = a1·b1 + a2·b0, with a2·b0 = (a0+a2)·b0 − a0·b0
        let c2 = self.c0.add(&self.c2).mul(b0).sub(&t0).add(&t1);
        Fp6 { c0, c1, c2 }
    }

    /// Squaring.
    pub fn square(&self) -> Fp6 {
        self.mul(self)
    }

    /// Multiplies by `v` (cyclic shift with a ξ twist):
    /// `(a0 + a1 v + a2 v²)·v = ξ·a2 + a0 v + a1 v²`.
    pub fn mul_by_v(&self) -> Fp6 {
        Fp6 {
            c0: self.c2.mul_by_xi(),
            c1: self.c0,
            c2: self.c1,
        }
    }

    /// Scales by an F_p² element.
    pub fn mul_fp2(&self, s: &Fp2) -> Fp6 {
        Fp6 { c0: self.c0.mul(s), c1: self.c1.mul(s), c2: self.c2.mul(s) }
    }

    /// Multiplicative inverse.
    pub fn invert(&self) -> Option<Fp6> {
        // Standard formula (e.g. Guide to Pairing-Based Cryptography §5.2.3):
        // A = a0² − ξ a1 a2, B = ξ a2² − a0 a1, C = a1² − a0 a2,
        // F = a0 A + ξ (a2 B + a1 C), inverse = (A + B v + C v²)/F.
        let a = self.c0.square().sub(&self.c1.mul(&self.c2).mul_by_xi());
        let b = self.c2.square().mul_by_xi().sub(&self.c0.mul(&self.c1));
        let c = self.c1.square().sub(&self.c0.mul(&self.c2));
        let f = self
            .c0
            .mul(&a)
            .add(&self.c2.mul(&b).add(&self.c1.mul(&c)).mul_by_xi());
        let f_inv = f.invert()?;
        Some(Fp6 {
            c0: a.mul(&f_inv),
            c1: b.mul(&f_inv),
            c2: c.mul(&f_inv),
        })
    }
}

impl fmt::Debug for Fp6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp6({:?}, {:?}, {:?})", self.c0, self.c1, self.c2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xf6)
    }

    #[test]
    fn ring_axioms() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp6::random(&mut r);
            let b = Fp6::random(&mut r);
            let c = Fp6::random(&mut r);
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.mul(&Fp6::ONE), a);
        }
    }

    #[test]
    fn v_cubed_is_xi() {
        let v = Fp6::new(Fp2::ZERO, Fp2::ONE, Fp2::ZERO);
        let v3 = v.mul(&v).mul(&v);
        assert_eq!(v3, Fp6::from_fp2(Fp2::xi()));
    }

    #[test]
    fn mul_by_v_matches() {
        let mut r = rng();
        let v = Fp6::new(Fp2::ZERO, Fp2::ONE, Fp2::ZERO);
        for _ in 0..10 {
            let a = Fp6::random(&mut r);
            assert_eq!(a.mul_by_v(), a.mul(&v));
        }
    }

    #[test]
    fn mul_by_01_matches_mul() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp6::random(&mut r);
            let (b0, b1) = (Fp2::random(&mut r), Fp2::random(&mut r));
            assert_eq!(a.mul_by_01(&b0, &b1), a.mul(&Fp6::new(b0, b1, Fp2::ZERO)));
        }
    }

    #[test]
    fn invert_roundtrip() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp6::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp6::ONE);
        }
        assert!(Fp6::ZERO.invert().is_none());
    }
}
