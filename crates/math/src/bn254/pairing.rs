//! The optimal ate pairing e : G1 × G2 → G_T ⊂ F_p¹².
//!
//! One multi-Miller loop serves every entry point: all pairs of a product
//! share a single `f.square()` per bit of 6x + 2 (in NAF) and a single
//! final exponentiation. The G2 side walks in homogeneous projective
//! coordinates on the D-type twist with the inversion-free doubling and
//! addition steps of Costello–Lange–Naehrig (PKC 2010) as tuned by
//! Aranha et al. (EUROCRYPT 2011). Each step yields a three-coefficient
//! line `c0 + (c3 + c4·v)·w`, multiplied in with the sparse
//! [`Fp12::mul_by_034`]. The final exponentiation squares in the
//! cyclotomic subgroup (Granger–Scott).
//!
//! A textbook affine loop (one F_p² inversion per step, dense line
//! products) is kept as [`miller_loop_affine`], the oracle the tests and
//! the kernel benchmark compare against. Correctness is
//! also enforced by bilinearity/non-degeneracy tests and a pinned value
//! of `e(G1, G2)`, which a wrong loop constant, twist type or Frobenius
//! coefficient would all break.

use super::fp::Fp;
use super::fp12::Fp12;
use super::fp2::Fp2;
use super::fp6::Fp6;
use super::g1::G1;
use super::g2::{psi, G2};

/// The BN parameter x = 4965661367192848881; the Miller loop runs over
/// 6x + 2 = 29793968203157093288 (65 bits, hence `u128`).
const SIX_X_PLUS_2: u128 = 29793968203157093288;

/// Digits of 6x + 2 in non-adjacent form, least significant first: 22
/// non-zero digits against 37 set bits, so 15 fewer addition steps.
const ATE_NAF: [i8; 66] = super::wnaf(SIX_X_PLUS_2, 2);

/// An affine twist point `(x, y)`.
type Affine = (Fp2, Fp2);

/// Line coefficients `(c0, c3, c4)` before evaluation at P: the line at
/// P is `c0·y_P + (c3·x_P + c4·v)·w`, scaled by an F_p² factor relative
/// to the affine line (the final exponentiation kills it).
type Line = (Fp2, Fp2, Fp2);

/// A twist point in homogeneous projective coordinates (x = X/Z, y = Y/Z).
struct Projective {
    x: Fp2,
    y: Fp2,
    z: Fp2,
}

impl Projective {
    /// Tangent step `T ← 2T` (Aranha et al. 2011, eq. 11, D-type twist);
    /// `three_b` is 3·b' for the twist constant b' = 3/ξ.
    fn double(&mut self, three_b: &Fp2) -> Line {
        let a = self.x.mul(&self.y).mul_fp(&Fp::TWO_INV);
        let b = self.y.square();
        let c = self.z.square();
        let e = three_b.mul(&c);
        let f = e.double().add(&e);
        let g = b.add(&f).mul_fp(&Fp::TWO_INV);
        let h = self.y.add(&self.z).square().sub(&b.add(&c));
        let j = self.x.square();
        let e2 = e.square();
        self.x = a.mul(&b.sub(&f));
        self.y = g.square().sub(&e2.double().add(&e2));
        self.z = b.mul(&h);
        (h.neg(), j.double().add(&j), e.sub(&b))
    }

    /// Chord step `T ← T + Q` for an affine `Q` (Aranha et al. 2011,
    /// eq. 12, D-type twist). For `T = −Q` the line is the vertical one
    /// (times w) and T becomes the identity; for `T = Q` every
    /// coefficient is zero, which makes the Miller value zero and the
    /// pairing check fail rather than panic.
    fn add(&mut self, q: &Affine) -> Line {
        let theta = self.y.sub(&q.1.mul(&self.z));
        let lambda = self.x.sub(&q.0.mul(&self.z));
        let c = theta.square();
        let d = lambda.square();
        let e = lambda.mul(&d);
        let f = self.z.mul(&c);
        let g = self.x.mul(&d);
        let h = e.add(&f).sub(&g.double());
        self.x = lambda.mul(&h);
        self.y = theta.mul(&g.sub(&h)).sub(&e.mul(&self.y));
        self.z = self.z.mul(&e);
        let j = theta.mul(&q.0).sub(&lambda.mul(&q.1));
        (lambda, theta.neg(), j)
    }
}

/// One pair of the multi-Miller loop: affine P, affine Q and the running T.
struct Term {
    px: Fp,
    py: Fp,
    q: Affine,
    t: Projective,
}

impl Term {
    fn absorb(&self, f: &Fp12, line: Line) -> Fp12 {
        f.mul_by_034(&line.0.mul_fp(&self.py), &line.1.mul_fp(&self.px), &line.2)
    }
}

/// The shared Miller loop over every pair: one `f.square()` per NAF
/// digit for all pairs together, then each pair's sparse line(s).
/// Pairs with an identity point contribute nothing.
fn multi_miller_loop(pairs: &[(&G1, &G2)]) -> Fp12 {
    let mut terms: Vec<Term> = pairs
        .iter()
        .filter_map(|(p, q)| {
            let (px, py) = p.to_affine()?;
            let q = q.to_affine()?;
            Some(Term { px, py, q, t: Projective { x: q.0, y: q.1, z: Fp2::ONE } })
        })
        .collect();
    if terms.is_empty() {
        return Fp12::ONE;
    }
    let b = G2::b();
    let three_b = b.double().add(&b);

    let top = ATE_NAF.len() - 1;
    let mut f = Fp12::ONE;
    for i in (0..top).rev() {
        if i + 1 < top {
            f = f.square();
        }
        for term in &mut terms {
            let line = term.t.double(&three_b);
            f = term.absorb(&f, line);
            let line = match ATE_NAF[i] {
                1 => term.t.add(&term.q),
                -1 => term.t.add(&(term.q.0, term.q.1.neg())),
                _ => continue,
            };
            f = term.absorb(&f, line);
        }
    }

    // Frobenius correction lines: T + ψ(Q), then + (−ψ²(Q)).
    for term in &mut terms {
        let q1 = psi(&term.q);
        let q2 = psi(&q1);
        let line = term.t.add(&q1);
        f = term.absorb(&f, line);
        let line = term.t.add(&(q2.0, q2.1.neg()));
        f = term.absorb(&f, line);
    }
    f
}

/// The Miller loop of the optimal ate pairing (no final exponentiation):
/// the one-pair case of the shared multi-Miller loop.
///
/// The raw value carries F_p² scaling factors from the projective line
/// formulas (and differs from [`miller_loop_affine`] by a subfield
/// factor), so only its final exponentiation is meaningful. Returns
/// `Fp12::ONE` when either input is the identity.
pub fn miller_loop(p: &G1, q: &G2) -> Fp12 {
    multi_miller_loop(&[(p, q)])
}

/// Final exponentiation of a Miller value. A non-invertible value can
/// only come from a degenerate step (a point off the r-torsion); it maps
/// to zero, which is not in G_T, so every check built on it fails.
fn finish(f: &Fp12) -> Fp12 {
    f.final_exponentiation().unwrap_or(Fp12::ZERO)
}

/// The full optimal ate pairing `e(P, Q)`.
///
/// # Examples
///
/// ```
/// use theta_math::bn254::{pairing, Fr, G1, G2};
/// let e = pairing(&G1::generator(), &G2::generator());
/// assert!(!e.is_one()); // non-degenerate
/// ```
pub fn pairing(p: &G1, q: &G2) -> Fp12 {
    finish(&miller_loop(p, q))
}

/// Computes `Π e(P_i, Q_i)` with one shared Miller loop and one final
/// exponentiation — the shape every pairing-based verification equation
/// in BLS04/BZ03 uses.
pub fn multi_pairing(pairs: &[(&G1, &G2)]) -> Fp12 {
    finish(&multi_miller_loop(pairs))
}

/// Checks `e(a1, a2) == e(b1, b2)` using a single final exponentiation via
/// `e(a1, a2) · e(−b1, b2) == 1`.
pub fn pairing_check(a1: &G1, a2: &G2, b1: &G1, b2: &G2) -> bool {
    multi_pairing(&[(a1, a2), (&b1.neg(), b2)]).is_one()
}

/// The textbook affine Miller loop (binary 6x + 2, one F_p² inversion per
/// step, dense line products), hidden from docs: the oracle for tests and
/// the kernel benchmark. Its final exponentiation equals the pairing.
/// Returns `Fp12::ONE` for an identity input and `Fp12::ZERO` when a step
/// is degenerate.
#[doc(hidden)]
pub fn miller_loop_affine(p: &G1, q: &G2) -> Fp12 {
    let (Some((px, py)), Some(q)) = (p.to_affine(), q.to_affine()) else {
        return Fp12::ONE;
    };
    affine_loop(px, py, q).unwrap_or(Fp12::ZERO)
}

fn affine_loop(px: Fp, py: Fp, q: Affine) -> Option<Fp12> {
    // Line through (or tangent at) T with slope λ, evaluated at P:
    // `y_P − λ·x_P·w + (λ·x_T − y_T)·w³`, with w³ = v·w.
    let line = |lambda: &Fp2, t: &Affine| {
        Fp12::new(
            Fp6::from_fp2(Fp2::from_fp(py)),
            Fp6::new(lambda.mul_fp(&px).neg(), lambda.mul(&t.0).sub(&t.1), Fp2::ZERO),
        )
    };
    let double = |t: &Affine| {
        let xx = t.0.square();
        let lambda = xx.double().add(&xx).mul(&t.1.double().invert()?);
        let x3 = lambda.square().sub(&t.0.double());
        let y3 = lambda.mul(&t.0.sub(&x3)).sub(&t.1);
        Some((line(&lambda, t), (x3, y3)))
    };
    let add = |t: &Affine, q: &Affine| {
        if t.0 == q.0 {
            // T = −Q, reached only by the last Frobenius step (T = Q is
            // impossible for r-torsion inputs): the vertical line
            // `x_P − x_T·v`, and the sum is the identity.
            let vertical = Fp12::new(
                Fp6::new(Fp2::from_fp(px), t.0.neg(), Fp2::ZERO),
                Fp6::ZERO,
            );
            return Some((vertical, *t));
        }
        let lambda = q.1.sub(&t.1).mul(&q.0.sub(&t.0).invert()?);
        let x3 = lambda.square().sub(&t.0).sub(&q.0);
        let y3 = lambda.mul(&t.0.sub(&x3)).sub(&t.1);
        Some((line(&lambda, t), (x3, y3)))
    };

    let mut t = q;
    let mut f = Fp12::ONE;
    for i in (0..127 - SIX_X_PLUS_2.leading_zeros()).rev() {
        let (l, t2) = double(&t)?;
        f = f.square().mul(&l);
        t = t2;
        if (SIX_X_PLUS_2 >> i) & 1 == 1 {
            let (l, t2) = add(&t, &q)?;
            f = f.mul(&l);
            t = t2;
        }
    }
    let q1 = psi(&q);
    let q2 = psi(&q1);
    let (l, t2) = add(&t, &q1)?;
    f = f.mul(&l);
    let (l, _) = add(&t2, &(q2.0, q2.1.neg()))?;
    Some(f.mul(&l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::Fr;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xee)
    }

    #[test]
    fn non_degenerate() {
        let e = pairing(&G1::generator(), &G2::generator());
        assert!(!e.is_one());
        assert!(!e.is_zero());
    }

    #[test]
    fn output_has_order_r() {
        let e = pairing(&G1::generator(), &G2::generator());
        assert_eq!(e.pow(Fr::modulus()), Fp12::ONE);
    }

    #[test]
    fn bilinear_in_g1() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        let e_base = pairing(&G1::generator(), &G2::generator());
        let e_scaled = pairing(&G1::mul_generator(&a), &G2::generator());
        assert_eq!(e_scaled, e_base.pow(a.to_biguint()));
    }

    #[test]
    fn bilinear_in_g2() {
        let mut r = rng();
        let b = Fr::random(&mut r);
        let e_base = pairing(&G1::generator(), &G2::generator());
        let e_scaled = pairing(&G1::generator(), &G2::mul_generator(&b));
        assert_eq!(e_scaled, e_base.pow(b.to_biguint()));
    }

    #[test]
    fn bilinear_both_sides() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let lhs = pairing(&G1::mul_generator(&a), &G2::mul_generator(&b));
        let rhs = pairing(&G1::mul_generator(&a.mul(&b)), &G2::generator());
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn identity_pairs_to_one() {
        assert!(pairing(&G1::identity(), &G2::generator()).is_one());
        assert!(pairing(&G1::generator(), &G2::identity()).is_one());
        assert!(multi_pairing(&[]).is_one());
    }

    #[test]
    fn inverse_relation() {
        let e = pairing(&G1::generator(), &G2::generator());
        let e_neg = pairing(&G1::generator().neg(), &G2::generator());
        assert_eq!(e.mul(&e_neg), Fp12::ONE);
    }

    #[test]
    fn multi_pairing_matches_products() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        let p1 = G1::mul_generator(&a);
        let p2 = G1::mul_generator(&b);
        let q = G2::generator();
        let single = pairing(&p1, &q).mul(&pairing(&p2, &q));
        let multi = multi_pairing(&[(&p1, &q), (&p2, &q)]);
        assert_eq!(single, multi);
    }

    #[test]
    fn matches_affine_reference() {
        let mut r = rng();
        let p = G1::mul_generator(&Fr::random(&mut r));
        let q = G2::mul_generator(&Fr::random(&mut r));
        let reference = miller_loop_affine(&p, &q).final_exponentiation().unwrap();
        assert_eq!(pairing(&p, &q), reference);
        // The raw Miller values differ by a subfield factor only.
        assert_ne!(miller_loop(&p, &q), miller_loop_affine(&p, &q));
    }

    /// `e(G1, G2)` pinned to the value the affine loop produced before the
    /// projective rewrite (coefficients in the order c0.c0 .. c1.c2).
    #[test]
    fn generator_pairing_is_pinned() {
        let e = pairing(&G1::generator(), &G2::generator());
        let coeffs = [e.c0.c0, e.c0.c1, e.c0.c2, e.c1.c0, e.c1.c1, e.c1.c2];
        let got: Vec<String> =
            coeffs.iter().flat_map(|c| [c.c0.to_string(), c.c1.to_string()]).collect();
        assert_eq!(got, PINNED_E_G1_G2);
    }

    const PINNED_E_G1_G2: [&str; 12] = [
        "17264119758069723980713015158403419364912226240334615592005620718956030922389",
        "1300711225518851207585954685848229181392358478699795190245709208408267917898",
        "8894217292938489450175280157304813535227569267786222825147475294561798790624",
        "1829859855596098509359522796979920150769875799037311140071969971193843357227",
        "4968700049505451466697923764727215585075098085662966862137174841375779106779",
        "12814315002058128940449527172080950701976819591738376253772993495204862218736",
        "4233474252585134102088637248223601499779641130562251948384759786370563844606",
        "9420544134055737381096389798327244442442230840902787283326002357297404128074",
        "13457906610892676317612909831857663099224588803620954529514857102808143524905",
        "5122435115068592725432309312491733755581898052459744089947319066829791570839",
        "8891987925005301465158626530377582234132838601606565363865129986128301774627",
        "440796048150724096437130979851431985500142692666486515369083499585648077975",
    ];

    #[test]
    fn zero_miller_value_fails_the_check_instead_of_panicking() {
        let out = finish(&Fp12::ZERO);
        assert!(!out.is_one());
        assert!(out.is_zero());
    }

    #[test]
    fn degenerate_addition_step_yields_a_zero_line() {
        // T = Q mid-loop (impossible for r-torsion inputs) zeroes the line.
        let q = G2::generator().to_affine().unwrap();
        let mut t = Projective { x: q.0, y: q.1, z: Fp2::ONE };
        let (c0, c3, c4) = t.add(&q);
        assert!(c0.is_zero() && c3.is_zero() && c4.is_zero());
    }

    #[test]
    fn pairing_check_works() {
        let mut r = rng();
        let x = Fr::random(&mut r);
        // e(xG1, G2) == e(G1, xG2)
        assert!(pairing_check(
            &G1::mul_generator(&x),
            &G2::generator(),
            &G1::generator(),
            &G2::mul_generator(&x),
        ));
        // and a perturbed equation fails
        assert!(!pairing_check(
            &G1::mul_generator(&x.add(&Fr::one())),
            &G2::generator(),
            &G1::generator(),
            &G2::mul_generator(&x),
        ));
    }
}
