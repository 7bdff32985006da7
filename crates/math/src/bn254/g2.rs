//! G2: the r-order subgroup of the sextic twist `y² = x³ + 3/ξ` over F_p².

use super::curve::define_weierstrass_group;
use super::fp::Fp;
use super::fp12::{frobenius_gamma_x, frobenius_gamma_y};
use super::fp2::Fp2;
use std::sync::OnceLock;

fn b2() -> Fp2 {
    static B: OnceLock<Fp2> = OnceLock::new();
    *B.get_or_init(|| {
        Fp2::from_fp(Fp::from_u64(3)).mul(&Fp2::xi().invert().expect("xi nonzero"))
    })
}

fn g2_generator_affine() -> (Fp2, Fp2) {
    static G: OnceLock<(Fp2, Fp2)> = OnceLock::new();
    *G.get_or_init(|| {
        let x = Fp2::new(
            Fp::from_dec(
                "10857046999023057135944570762232829481370756359578518086990519993285655852781",
            ),
            Fp::from_dec(
                "11559732032986387107991004021392285783925812861821192530917403151452391805634",
            ),
        );
        let y = Fp2::new(
            Fp::from_dec(
                "8495653923123431417604973247489272438418190587263600148770280649306958101930",
            ),
            Fp::from_dec(
                "4082367875863433681332203403145435568316851327593401208105741076214120093531",
            ),
        );
        (x, y)
    })
}

define_weierstrass_group!(
    /// A point of the BN254 G2 group (on the D-type sextic twist) in
    /// Jacobian coordinates.
    ///
    /// Public keys of BLS04 and the ElGamal-style elements of BZ03 live
    /// here. Unlike G1 the twist has a large cofactor, so deserialized
    /// points must pass [`G2::is_torsion_free`].
    G2,
    Fp2,
    b2(),
    g2_generator_affine()
);

impl G2 {
    /// `scalar · G` for the fixed generator, via the process-wide
    /// fixed-base table (additions only — no doublings, no per-call
    /// table build).
    pub fn mul_generator(scalar: &super::fr::Fr) -> G2 {
        crate::precomp::bn254_g2_table().mul(scalar.to_biguint())
    }

    /// The untwist-Frobenius-twist endomorphism ψ used by the optimal ate
    /// pairing: `ψ(x, y) = (x̄·ξ^((p−1)/3), ȳ·ξ^((p−1)/2))`.
    pub fn frobenius(&self) -> G2 {
        match self.to_affine() {
            None => G2::identity(),
            Some(q) => {
                let (x, y) = psi(&q);
                G2::from_affine(x, y).expect("psi maps the twist to itself")
            }
        }
    }

    /// Compressed 65-byte encoding: tag byte then big-endian `x.c1 || x.c0`.
    pub fn to_compressed(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        match self.to_affine() {
            None => out,
            Some((x, y)) => {
                out[0] = if y.c0.is_odd() { 3 } else { 2 };
                out[1..33].copy_from_slice(&x.c1.to_bytes_be());
                out[33..65].copy_from_slice(&x.c0.to_bytes_be());
                out
            }
        }
    }

    /// Decodes the 65-byte compressed encoding, including the subgroup check.
    pub fn from_compressed(bytes: &[u8; 65]) -> Option<G2> {
        match bytes[0] {
            0 => {
                if bytes[1..].iter().all(|&b| b == 0) {
                    Some(G2::identity())
                } else {
                    None
                }
            }
            tag @ (2 | 3) => {
                let mut c1 = [0u8; 32];
                let mut c0 = [0u8; 32];
                c1.copy_from_slice(&bytes[1..33]);
                c0.copy_from_slice(&bytes[33..65]);
                let x = Fp2::new(Fp::from_bytes_be(&c0)?, Fp::from_bytes_be(&c1)?);
                let yy = x.square().mul(&x).add(&b2());
                let mut y = sqrt_fp2(&yy)?;
                if y.c0.is_odd() != (tag == 3) {
                    y = y.neg();
                }
                let point = G2::from_affine(x, y)?;
                if point.is_torsion_free() {
                    Some(point)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// ψ on affine coordinates (see [`G2::frobenius`]); the Miller loop
/// applies it to its affine Q directly.
pub(crate) fn psi(q: &(Fp2, Fp2)) -> (Fp2, Fp2) {
    (q.0.conjugate().mul(&frobenius_gamma_x()), q.1.conjugate().mul(&frobenius_gamma_y()))
}

/// Square root in F_p² via the complex method (p ≡ 3 mod 4).
///
/// For `a = a0 + a1·u`, uses the norm: `|a| = a0² + a1²`, then
/// `x0² = (a0 + sqrt(|a|))/2` (or with the other root sign).
fn sqrt_fp2(a: &Fp2) -> Option<Fp2> {
    if a.is_zero() {
        return Some(Fp2::ZERO);
    }
    if a.c1.is_zero() {
        // Pure base-field element: either sqrt(a0) or sqrt(-a0)·u.
        if let Some(r) = a.c0.sqrt() {
            return Some(Fp2::new(r, Fp::ZERO));
        }
        let r = a.c0.neg().sqrt()?;
        return Some(Fp2::new(Fp::ZERO, r));
    }
    let norm = a.c0.square().add(&a.c1.square());
    let alpha = norm.sqrt()?;
    let two_inv = Fp::TWO_INV;
    let mut delta = a.c0.add(&alpha).mul(&two_inv);
    if delta.sqrt().is_none() {
        delta = a.c0.sub(&alpha).mul(&two_inv);
    }
    let x0 = delta.sqrt()?;
    let x1 = a.c1.mul(&two_inv).mul(&x0.invert()?);
    let candidate = Fp2::new(x0, x1);
    if candidate.square() == *a {
        Some(candidate)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bn254::Fr;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x62)
    }

    #[test]
    fn generator_on_twist_and_torsion_free() {
        let g = G2::generator();
        assert!(!g.is_identity());
        assert!(g.is_torsion_free());
    }

    #[test]
    fn group_laws() {
        let mut r = rng();
        for _ in 0..3 {
            let p = G2::mul_generator(&Fr::random(&mut r));
            let q = G2::mul_generator(&Fr::random(&mut r));
            assert_eq!(p.add(&q), q.add(&p));
            assert_eq!(p.double(), p.add(&p));
            assert!(p.add(&p.neg()).is_identity());
        }
    }

    #[test]
    fn scalar_homomorphism() {
        let mut r = rng();
        let a = Fr::random(&mut r);
        let b = Fr::random(&mut r);
        assert_eq!(
            G2::mul_generator(&a.add(&b)),
            G2::mul_generator(&a).add(&G2::mul_generator(&b))
        );
    }

    #[test]
    fn frobenius_is_endomorphism() {
        let mut r = rng();
        let p = G2::mul_generator(&Fr::random(&mut r));
        let q = G2::mul_generator(&Fr::random(&mut r));
        // ψ(P + Q) = ψ(P) + ψ(Q)
        assert_eq!(p.add(&q).frobenius(), p.frobenius().add(&q.frobenius()));
        // ψ maps into the curve (checked inside from_affine) and preserves order.
        assert!(p.frobenius().is_torsion_free());
    }

    #[test]
    fn frobenius_trace_identity() {
        // On the r-torsion, ψ satisfies ψ² − [t]ψ + [p] = 0 where t is the
        // trace; equivalently for BN curves ψ²(P) − [t]ψ(P) + [p]P = O.
        // We check the cheaper characteristic equation ψ(P) = [p mod r]·P
        // (ψ acts as multiplication by p on the r-torsion of the twist).
        let mut r = rng();
        let p_point = G2::mul_generator(&Fr::random(&mut r));
        let p_mod_r = Fr::from_biguint(super::super::fp::Fp::modulus());
        assert_eq!(p_point.frobenius(), p_point.mul(&p_mod_r));
    }

    #[test]
    fn sqrt_fp2_roundtrip() {
        let mut r = rng();
        for _ in 0..20 {
            let a = Fp2::random(&mut r);
            let sq = a.square();
            let root = sqrt_fp2(&sq).expect("squares have roots");
            assert!(root == a || root == a.neg());
        }
    }

    #[test]
    fn compressed_roundtrip() {
        let mut r = rng();
        for _ in 0..5 {
            let p = G2::mul_generator(&Fr::random(&mut r));
            assert_eq!(G2::from_compressed(&p.to_compressed()).unwrap(), p);
        }
        let id = G2::identity();
        assert_eq!(G2::from_compressed(&id.to_compressed()).unwrap(), id);
    }

    #[test]
    fn compressed_rejects_non_subgroup() {
        // A random twist point is overwhelmingly unlikely to be in the
        // r-order subgroup; find one and ensure decode rejects it.
        let mut r = rng();
        let mut tried = 0;
        loop {
            let x = Fp2::random(&mut r);
            let yy = x.square().mul(&x).add(&b2());
            if let Some(y) = sqrt_fp2(&yy) {
                let p = G2::from_affine(x, y).unwrap();
                if !p.is_torsion_free() {
                    let mut enc = [0u8; 65];
                    enc[0] = if y.c0.is_odd() { 3 } else { 2 };
                    enc[1..33].copy_from_slice(&x.c1.to_bytes_be());
                    enc[33..65].copy_from_slice(&x.c0.to_bytes_be());
                    assert!(G2::from_compressed(&enc).is_none());
                    break;
                }
            }
            tried += 1;
            assert!(tried < 100, "could not find an off-subgroup twist point");
        }
    }
}
