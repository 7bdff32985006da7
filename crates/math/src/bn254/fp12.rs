//! The full extension F_p¹² = F_p⁶[w] / (w² − v), target group of the
//! BN254 pairing, with the Frobenius endomorphism needed by the optimal
//! ate Miller loop and the final exponentiation.

use super::fp::Fp;
use super::fp2::Fp2;
use super::fp6::Fp6;
use crate::BigUint;
use std::fmt;
use std::sync::OnceLock;

/// An element `c0 + c1·w` of F_p¹².
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fp12 {
    pub c0: Fp6,
    pub c1: Fp6,
}

/// Frobenius constants γ: powers of ξ used by the p-power endomorphisms.
struct FrobeniusParams {
    /// ξ^((p−1)/6): scales the w-coefficient in the F_p¹² Frobenius.
    gamma_w: Fp2,
    /// ξ^((p−1)/3): scales the v-coefficient in the F_p⁶ Frobenius.
    gamma_v1: Fp2,
    /// ξ^(2(p−1)/3): scales the v²-coefficient in the F_p⁶ Frobenius.
    gamma_v2: Fp2,
    /// ξ^((p−1)/2): scales the y-coordinate in the G2 Frobenius (ψ).
    gamma_y: Fp2,
}

fn frobenius_params() -> &'static FrobeniusParams {
    static PARAMS: OnceLock<FrobeniusParams> = OnceLock::new();
    PARAMS.get_or_init(|| {
        let p = Fp::modulus();
        let one = BigUint::one();
        let p_minus_1 = p - &one;
        let e6 = p_minus_1.divrem(&BigUint::from_u64(6)).0;
        let e3 = p_minus_1.divrem(&BigUint::from_u64(3)).0;
        let e2 = &p_minus_1 >> 1;
        let xi = Fp2::xi();
        FrobeniusParams {
            gamma_w: xi.pow(&e6),
            gamma_v1: xi.pow(&e3),
            gamma_v2: xi.pow(&e3).square(),
            gamma_y: xi.pow(&e2),
        }
    })
}

/// ξ^((p−1)/3) — exposed for the G2 untwist-Frobenius-twist endomorphism.
pub(crate) fn frobenius_gamma_x() -> Fp2 {
    frobenius_params().gamma_v1
}

/// ξ^((p−1)/2) — exposed for the G2 untwist-Frobenius-twist endomorphism.
pub(crate) fn frobenius_gamma_y() -> Fp2 {
    frobenius_params().gamma_y
}

/// Frobenius endomorphism of F_p⁶ (coefficients conjugated, v-powers scaled).
fn frobenius_fp6(a: &Fp6) -> Fp6 {
    let params = frobenius_params();
    Fp6 {
        c0: a.c0.conjugate(),
        c1: a.c1.conjugate().mul(&params.gamma_v1),
        c2: a.c2.conjugate().mul(&params.gamma_v2),
    }
}

impl Fp12 {
    /// The additive identity.
    pub const ZERO: Fp12 = Fp12 { c0: Fp6::ZERO, c1: Fp6::ZERO };
    /// The multiplicative identity.
    pub const ONE: Fp12 = Fp12 { c0: Fp6::ONE, c1: Fp6::ZERO };

    /// Builds from two F_p⁶ halves.
    pub fn new(c0: Fp6, c1: Fp6) -> Fp12 {
        Fp12 { c0, c1 }
    }

    /// Uniformly random element.
    pub fn random<R: rand::RngCore + ?Sized>(rng: &mut R) -> Fp12 {
        Fp12 { c0: Fp6::random(rng), c1: Fp6::random(rng) }
    }

    /// True when zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// True when one.
    pub fn is_one(&self) -> bool {
        *self == Fp12::ONE
    }

    /// Addition.
    pub fn add(&self, rhs: &Fp12) -> Fp12 {
        Fp12 { c0: self.c0.add(&rhs.c0), c1: self.c1.add(&rhs.c1) }
    }

    /// Subtraction.
    pub fn sub(&self, rhs: &Fp12) -> Fp12 {
        Fp12 { c0: self.c0.sub(&rhs.c0), c1: self.c1.sub(&rhs.c1) }
    }

    /// Multiplication (Karatsuba; w² = v).
    pub fn mul(&self, rhs: &Fp12) -> Fp12 {
        let aa = self.c0.mul(&rhs.c0);
        let bb = self.c1.mul(&rhs.c1);
        let sum_a = self.c0.add(&self.c1);
        let sum_b = rhs.c0.add(&rhs.c1);
        Fp12 {
            c0: aa.add(&bb.mul_by_v()),
            c1: sum_a.mul(&sum_b).sub(&aa).sub(&bb),
        }
    }

    /// Multiplication by a sparse Miller-loop line `c0 + (c3 + c4·v)·w`
    /// (coefficients 0, 3 and 4 of the basis `1, v, v², w, vw, v²w`):
    /// Karatsuba over w with both line halves sparse, 13 F_p²
    /// multiplications instead of the 18 of a dense [`Fp12::mul`].
    pub(crate) fn mul_by_034(&self, c0: &Fp2, c3: &Fp2, c4: &Fp2) -> Fp12 {
        let aa = self.c0.mul_fp2(c0);
        let bb = self.c1.mul_by_01(c3, c4);
        let sum = self.c0.add(&self.c1).mul_by_01(&c0.add(c3), c4);
        Fp12 {
            c0: aa.add(&bb.mul_by_v()),
            c1: sum.sub(&aa).sub(&bb),
        }
    }

    /// Squaring (complex method: two F_p⁶ multiplications).
    ///
    /// `(a + b·w)² = (a + b)(a + b·v) − ab − ab·v + 2ab·w`.
    pub fn square(&self) -> Fp12 {
        let ab = self.c0.mul(&self.c1);
        let c0 = self
            .c0
            .add(&self.c1)
            .mul(&self.c0.add(&self.c1.mul_by_v()))
            .sub(&ab)
            .sub(&ab.mul_by_v());
        Fp12 { c0, c1: ab.add(&ab) }
    }

    /// Granger–Scott squaring in the cyclotomic subgroup (Faster Squaring
    /// in the Cyclotomic Subgroup of Sixth Degree Extensions, PKC 2010):
    /// six F_p² multiplications instead of twelve.
    ///
    /// Only valid for elements of order dividing `p⁴ − p² + 1`, i.e. the
    /// output of [`Fp12::easy_part`] and anything computed from it by
    /// multiplication, squaring, conjugation and Frobenius; for any other
    /// input the result is not the square.
    pub(crate) fn cyclotomic_square(&self) -> Fp12 {
        // Viewing F_p¹² as F_p⁴³ with F_p⁴ = F_p²[s]/(s² − ξ), the three
        // F_p⁴ coordinates are (z0, z1), (z2, z3), (z4, z5).
        let (z0, z4, z3) = (self.c0.c0, self.c0.c1, self.c0.c2);
        let (z2, z1, z5) = (self.c1.c0, self.c1.c1, self.c1.c2);
        // (x + y·s)² = (x² + ξ·y²) + 2xy·s, with x² + ξ·y² computed as
        // (x + y)(x + ξ·y) − xy − ξ·xy.
        let fp4_square = |x: &Fp2, y: &Fp2| {
            let xy = x.mul(y);
            let re = x.add(y).mul(&x.add(&y.mul_by_xi())).sub(&xy).sub(&xy.mul_by_xi());
            (re, xy.double())
        };
        let (t0, t1) = fp4_square(&z0, &z1);
        let (t2, t3) = fp4_square(&z2, &z3);
        let (t4, t5) = fp4_square(&z4, &z5);
        // 3·t − 2·z and 3·t + 2·z.
        let minus = |t: &Fp2, z: &Fp2| t.sub(z).double().add(t);
        let plus = |t: &Fp2, z: &Fp2| t.add(z).double().add(t);
        Fp12 {
            c0: Fp6::new(minus(&t0, &z0), minus(&t2, &z4), minus(&t4, &z3)),
            c1: Fp6::new(plus(&t5.mul_by_xi(), &z2), plus(&t1, &z1), plus(&t3, &z5)),
        }
    }

    /// Conjugation over F_p⁶: `c0 − c1 w`. For unitary elements (pairing
    /// outputs after the easy part) this equals inversion.
    pub fn conjugate(&self) -> Fp12 {
        Fp12 { c0: self.c0, c1: self.c1.neg() }
    }

    /// Multiplicative inverse.
    pub fn invert(&self) -> Option<Fp12> {
        // (c0 + c1 w)^{-1} = (c0 − c1 w) / (c0² − c1²·v)
        let denom = self.c0.square().sub(&self.c1.square().mul_by_v());
        let denom_inv = denom.invert()?;
        Some(Fp12 {
            c0: self.c0.mul(&denom_inv),
            c1: self.c1.neg().mul(&denom_inv),
        })
    }

    /// The p-power Frobenius endomorphism.
    pub fn frobenius(&self) -> Fp12 {
        let params = frobenius_params();
        let c0 = frobenius_fp6(&self.c0);
        let c1 = frobenius_fp6(&self.c1).mul_fp2(&params.gamma_w);
        Fp12 { c0, c1 }
    }

    /// The p²-power Frobenius (two applications).
    pub fn frobenius2(&self) -> Fp12 {
        self.frobenius().frobenius()
    }

    /// Exponentiation by an arbitrary non-negative integer.
    pub fn pow(&self, exp: &BigUint) -> Fp12 {
        let mut acc = Fp12::ONE;
        for i in (0..exp.bits()).rev() {
            acc = acc.square();
            if exp.bit(i) {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// Final exponentiation of the pairing.
    ///
    /// Easy part via conjugation/Frobenius; hard part via the
    /// Fuentes-Castañeda x-chain for BN curves (three ~63-bit
    /// exponentiations instead of one 762-bit square-and-multiply).
    /// The chain computes `f^(m·(p⁴−p²+1)/r)` for the fixed constant
    /// `m = 2x(6x²+3x+1)` with `gcd(m, r) = 1` — a standard,
    /// equally-valid instantiation of the pairing's final power: the
    /// result is still r-torsion, non-degenerate and bilinear, and every
    /// pairing in the library uses the same exponent. The exact relation
    /// to the canonical exponent is asserted in tests against
    /// [`Fp12::final_exponentiation_generic`].
    pub fn final_exponentiation(&self) -> Option<Fp12> {
        let f2 = self.easy_part()?;
        Some(hard_part_chain(&f2))
    }

    /// Reference final exponentiation (plain square-and-multiply with the
    /// canonical (p⁴ − p² + 1)/r exponent); the correctness oracle for
    /// the optimized chain, which equals this value raised to the fixed
    /// r-coprime constant `m = 2x(6x²+3x+1)`.
    pub fn final_exponentiation_generic(&self) -> Option<Fp12> {
        let f2 = self.easy_part()?;
        static HARD: OnceLock<BigUint> = OnceLock::new();
        let exp = HARD.get_or_init(|| {
            let p = Fp::modulus();
            let r = super::fr::Fr::modulus();
            let p2 = p * p;
            let p4 = &p2 * &p2;
            let num = &(&p4 - &p2) + &BigUint::one();
            let (q, rem) = num.divrem(r);
            assert!(rem.is_zero(), "r divides p^4 - p^2 + 1 for BN curves");
            q
        });
        Some(f2.pow(exp))
    }

    /// Easy part: `f^((p⁶−1)(p²+1))`, which lands in the cyclotomic
    /// subgroup (where the result is unitary and
    /// [`Fp12::cyclotomic_square`] applies). `None` for zero.
    pub(crate) fn easy_part(&self) -> Option<Fp12> {
        let inv = self.invert()?;
        let f1 = self.conjugate().mul(&inv); // f^(p⁶−1)
        Some(f1.frobenius2().mul(&f1)) // ^(p²+1)
    }

    /// `self^x` for the BN parameter x: a left-to-right ladder over the
    /// width-4 NAF of x (14 non-zero digits against 28 set bits) with a
    /// table of `self`, `self³`, `self⁵`, `self⁷` and cyclotomic squarings.
    /// `self` must be unitary (an easy-part output), which also makes each
    /// negative power a conjugation.
    fn pow_by_x(&self) -> Fp12 {
        /// The BN254 curve parameter x = 4965661367192848881.
        const X_NAF: [i8; 63] = super::wnaf(4965661367192848881, 4);
        let square = self.cyclotomic_square();
        let mut odd = [*self; 4];
        for k in 1..odd.len() {
            odd[k] = odd[k - 1].mul(&square);
        }
        let power = |d: i8| {
            let f = odd[usize::from(d.unsigned_abs() / 2)];
            if d > 0 {
                f
            } else {
                f.conjugate()
            }
        };
        let top = X_NAF.len() - 1;
        let mut acc = power(X_NAF[top]);
        for &digit in X_NAF[..top].iter().rev() {
            acc = acc.cyclotomic_square();
            if digit != 0 {
                acc = acc.mul(&power(digit));
            }
        }
        acc
    }

    /// The p³-power Frobenius.
    fn frobenius3(&self) -> Fp12 {
        self.frobenius2().frobenius()
    }
}

/// Fuentes-Castañeda hard part `f^(m·(p⁴−p²+1)/r)`, m = 2x(6x²+3x+1),
/// for BN curves with positive parameter x (the chain used by standard
/// Bn implementations; `exp_by_neg_x(f) = conj(f^x)` since inputs are
/// unitary after the easy part, making inversion a conjugation). Every
/// value in the chain stays in the cyclotomic subgroup, so all squarings
/// are Granger–Scott.
fn hard_part_chain(r: &Fp12) -> Fp12 {
    let exp_by_neg_x = |f: &Fp12| f.pow_by_x().conjugate();

    let y0 = exp_by_neg_x(r); // r^{-x}
    let y1 = y0.cyclotomic_square(); // r^{-2x}
    let y2 = y1.cyclotomic_square(); // r^{-4x}
    let y3 = y2.mul(&y1); // r^{-6x}
    let y4 = exp_by_neg_x(&y3); // r^{6x²}
    let y5 = y4.cyclotomic_square(); // r^{12x²}
    let y6 = exp_by_neg_x(&y5); // r^{-12x³}
    let y3 = y3.conjugate(); // r^{6x}
    let y6 = y6.conjugate(); // r^{12x³}
    let y7 = y6.mul(&y4); // r^{12x³+6x²}
    let y8 = y7.mul(&y3); // r^{12x³+6x²+6x}
    let y9 = y8.mul(&y1); // r^{12x³+6x²+4x}
    let y10 = y8.mul(&y4); // r^{12x³+12x²+6x}
    let y11 = y10.mul(r);
    let y12 = y9.frobenius();
    let y13 = y12.mul(&y11);
    let y14 = y8.frobenius2();
    let y15 = y14.mul(&y13);
    let y16 = r.conjugate();
    let y17 = y16.mul(&y9);
    let y18 = y17.frobenius3();
    y18.mul(&y15)
}

impl fmt::Debug for Fp12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp12({:?}, {:?})", self.c0, self.c1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xf12)
    }

    #[test]
    fn ring_axioms() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp12::random(&mut r);
            let b = Fp12::random(&mut r);
            let c = Fp12::random(&mut r);
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            assert_eq!(a.mul(&Fp12::ONE), a);
        }
    }

    #[test]
    fn w_squared_is_v() {
        let w = Fp12::new(Fp6::ZERO, Fp6::ONE);
        let v = Fp12::new(Fp6::new(Fp2::ZERO, Fp2::ONE, Fp2::ZERO), Fp6::ZERO);
        assert_eq!(w.square(), v);
    }

    #[test]
    fn invert_roundtrip() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Fp12::random(&mut r);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.mul(&a.invert().unwrap()), Fp12::ONE);
        }
    }

    #[test]
    fn frobenius_matches_pow_p() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        assert_eq!(a.frobenius(), a.pow(Fp::modulus()));
    }

    #[test]
    fn frobenius_twelve_times_identity() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let mut b = a;
        for _ in 0..12 {
            b = b.frobenius();
        }
        assert_eq!(a, b);
    }

    #[test]
    fn final_exponentiation_lands_in_torsion() {
        let mut r = rng();
        let a = Fp12::random(&mut r);
        let f = a.final_exponentiation().expect("nonzero");
        // Result must have order dividing r.
        assert_eq!(f.pow(super::super::fr::Fr::modulus()), Fp12::ONE);
    }

    #[test]
    fn fast_hard_part_is_fixed_multiple_of_generic() {
        // fast = generic^m with m = 2x(6x²+3x+1), the Fuentes-Castañeda
        // constant; verified exactly.
        let x = BigUint::from_u64(4965661367192848881);
        let six_x2 = (&(&x * &x) * &BigUint::from_u64(6)).clone();
        let three_x = &x * &BigUint::from_u64(3);
        let m = &(&x << 1) * &(&(&six_x2 + &three_x) + &BigUint::one());
        let mut r = rng();
        for _ in 0..2 {
            let a = Fp12::random(&mut r);
            let fast = a.final_exponentiation().unwrap();
            let generic = a.final_exponentiation_generic().unwrap();
            assert_eq!(fast, generic.pow(&m));
            // And the fast output is genuinely r-torsion.
            assert_eq!(fast.pow(super::super::fr::Fr::modulus()), Fp12::ONE);
        }
    }

    #[test]
    fn pow_by_x_matches_pow() {
        // Unitary input: pow_by_x squares with Granger–Scott.
        let mut r = rng();
        let a = Fp12::random(&mut r).easy_part().unwrap();
        let x = BigUint::from_u64(4965661367192848881);
        assert_eq!(a.pow_by_x(), a.pow(&x));
    }

    #[test]
    fn square_matches_mul() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp12::random(&mut r);
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn cyclotomic_square_matches_mul_on_easy_part_outputs() {
        let mut r = rng();
        for _ in 0..5 {
            let a = Fp12::random(&mut r).easy_part().unwrap();
            assert_eq!(a.cyclotomic_square(), a.mul(&a));
            // And it stays correct along a chain of squarings.
            let a2 = a.cyclotomic_square();
            assert_eq!(a2.cyclotomic_square(), a2.mul(&a2));
        }
    }

    #[test]
    fn mul_by_034_matches_mul() {
        let mut r = rng();
        for _ in 0..10 {
            let a = Fp12::random(&mut r);
            let (c0, c3, c4) = (Fp2::random(&mut r), Fp2::random(&mut r), Fp2::random(&mut r));
            let line = Fp12::new(Fp6::from_fp2(c0), Fp6::new(c3, c4, Fp2::ZERO));
            assert_eq!(a.mul_by_034(&c0, &c3, &c4), a.mul(&line));
        }
    }
}
