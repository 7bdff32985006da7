//! Chaum–Pedersen proofs of discrete-log equality over Ed25519.
//!
//! This is the "ZKP" verification strategy of Table 1: SG02 decryption
//! shares and CKS05 coin shares each carry a DLEQ proof that the share
//! was computed with the party's committed key share.
//!
//! Proofs carry the Schnorr commitments `(w1, w2)` rather than the
//! challenge, so a verifier can check many proofs at once: a random
//! linear combination of the per-proof equations collapses into a single
//! multi-scalar multiplication (see [`DleqProof::verify_batch`]).

use crate::hashing::hash_to_ed25519_scalar;
use rand::RngCore;
use theta_codec::{Decode, Encode, Reader, Writer};
use theta_math::ed25519::{Point, Scalar};
use theta_math::msm;

/// A non-interactive DLEQ proof: knowledge of `x` with `h1 = g1^x` and
/// `h2 = g2^x` (Fiat–Shamir over the given domain).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DleqProof {
    w1: Point,
    w2: Point,
    response: Scalar,
}

/// One `(statement, proof)` pair for batch verification.
#[derive(Clone, Copy)]
pub struct DleqInstance<'a> {
    /// First base.
    pub g1: &'a Point,
    /// First image `g1^x`.
    pub h1: &'a Point,
    /// Second base.
    pub g2: &'a Point,
    /// Second image `g2^x`.
    pub h2: &'a Point,
    /// The proof to check against the statement.
    pub proof: &'a DleqProof,
}

impl DleqProof {
    /// Proves `log_{g1}(h1) = log_{g2}(h2) = x`.
    pub fn prove(
        domain: &str,
        g1: &Point,
        h1: &Point,
        g2: &Point,
        h2: &Point,
        x: &Scalar,
        rng: &mut dyn RngCore,
    ) -> DleqProof {
        let s = Scalar::random(rng);
        let w1 = g1.mul(&s);
        let w2 = g2.mul(&s);
        let challenge = Self::challenge(domain, g1, h1, g2, h2, &w1, &w2);
        let response = s.add(&x.mul(&challenge));
        DleqProof { w1, w2, response }
    }

    /// Verifies the proof against the same statement.
    ///
    /// Each equation `g^z = w · h^e` is rearranged to
    /// `g^z · h^{−e} == w` and evaluated as a 2-point Straus MSM, so the
    /// two scalar multiplications share one doubling chain.
    pub fn verify(&self, domain: &str, g1: &Point, h1: &Point, g2: &Point, h2: &Point) -> bool {
        let e = Self::challenge(domain, g1, h1, g2, h2, &self.w1, &self.w2);
        let z = self.response.to_biguint();
        let neg_e = e.neg();
        let lhs1 = msm::msm(&[*g1, *h1], &[z, neg_e.to_biguint()]);
        if lhs1 != self.w1 {
            return false;
        }
        let lhs2 = msm::msm(&[*g2, *h2], &[z, neg_e.to_biguint()]);
        lhs2 == self.w2
    }

    /// Verifies `k` proofs with one `6k`-point multi-scalar multiplication.
    ///
    /// Uses a random linear combination: with per-instance weights
    /// `r_i, s_i` (derived by Fiat–Shamir from the whole batch, so a
    /// malicious prover cannot anticipate them),
    ///
    /// ```text
    /// Σ_i  r_i·(z_i·g1_i − e_i·h1_i − w1_i)
    ///    + s_i·(z_i·g2_i − e_i·h2_i − w2_i)  ==  𝒪
    /// ```
    ///
    /// holds iff every individual proof verifies, except with probability
    /// ≈ 2⁻¹²⁸ over the weights. Returns `true` for an empty batch.
    pub fn verify_batch(domain: &str, instances: &[DleqInstance<'_>]) -> bool {
        match instances.len() {
            0 => return true,
            1 => {
                let i = &instances[0];
                return i.proof.verify(domain, i.g1, i.h1, i.g2, i.h2);
            }
            _ => {}
        }
        // Per-instance challenges, then batch weights bound to the full
        // transcript (every statement and every commitment).
        let challenges: Vec<Scalar> = instances
            .iter()
            .map(|i| {
                Self::challenge(domain, i.g1, i.h1, i.g2, i.h2, &i.proof.w1, &i.proof.w2)
            })
            .collect();
        let transcript: Vec<[u8; 32]> = instances
            .iter()
            .flat_map(|i| {
                [
                    i.g1.compress(),
                    i.h1.compress(),
                    i.g2.compress(),
                    i.h2.compress(),
                    i.proof.w1.compress(),
                    i.proof.w2.compress(),
                ]
            })
            .collect();
        let items: Vec<&[u8]> = transcript.iter().map(|t| t.as_slice()).collect();
        let seed = crate::hashing::hash_to_key(&format!("{domain}/batch-seed"), &items);
        let mut points = Vec::with_capacity(instances.len() * 6);
        let mut scalars = Vec::with_capacity(instances.len() * 6);
        for (idx, (inst, e)) in instances.iter().zip(&challenges).enumerate() {
            let idx_bytes = (idx as u64).to_le_bytes();
            let r =
                hash_to_ed25519_scalar(&format!("{domain}/batch-r"), &[&seed, &idx_bytes]);
            let s =
                hash_to_ed25519_scalar(&format!("{domain}/batch-s"), &[&seed, &idx_bytes]);
            let z = &inst.proof.response;
            // r_i·z_i · g1 − r_i·e_i · h1 − r_i · w1
            points.push(*inst.g1);
            scalars.push(r.mul(z));
            points.push(*inst.h1);
            scalars.push(r.mul(e).neg());
            points.push(inst.proof.w1);
            scalars.push(r.neg());
            // s_i·z_i · g2 − s_i·e_i · h2 − s_i · w2
            points.push(*inst.g2);
            scalars.push(s.mul(z));
            points.push(*inst.h2);
            scalars.push(s.mul(e).neg());
            points.push(inst.proof.w2);
            scalars.push(s.neg());
        }
        let scalar_refs: Vec<&theta_math::BigUint> =
            scalars.iter().map(|s| s.to_biguint()).collect();
        msm::msm(&points, &scalar_refs).is_identity()
    }

    /// Like [`DleqProof::verify_batch`], but every instance carries its
    /// own Fiat–Shamir domain, so proofs from *different schemes* (SG02
    /// decryption shares and CKS05 coin shares) fold into the same
    /// multi-scalar multiplication. The per-instance challenge is always
    /// derived with the instance's own domain — exactly the scalar an
    /// individual [`DleqProof::verify`] would use — while the batch
    /// weights are bound to a mixed-batch domain plus the full transcript
    /// (domains, statements and commitments of every instance).
    pub fn verify_batch_mixed(instances: &[(&str, DleqInstance<'_>)]) -> bool {
        match instances.len() {
            0 => return true,
            1 => {
                let (domain, i) = &instances[0];
                return i.proof.verify(domain, i.g1, i.h1, i.g2, i.h2);
            }
            _ => {}
        }
        const D_MIXED: &str = "thetacrypt/dleq/mixed-batch/v1";
        let challenges: Vec<Scalar> = instances
            .iter()
            .map(|(domain, i)| {
                Self::challenge(domain, i.g1, i.h1, i.g2, i.h2, &i.proof.w1, &i.proof.w2)
            })
            .collect();
        // Transcript: per instance, the domain (length-prefixed via its
        // own item slot) then the six compressed points.
        let compressed: Vec<[u8; 32]> = instances
            .iter()
            .flat_map(|(_, i)| {
                [
                    i.g1.compress(),
                    i.h1.compress(),
                    i.g2.compress(),
                    i.h2.compress(),
                    i.proof.w1.compress(),
                    i.proof.w2.compress(),
                ]
            })
            .collect();
        let mut items: Vec<&[u8]> = Vec::with_capacity(instances.len() * 7);
        for (idx, (domain, _)) in instances.iter().enumerate() {
            items.push(domain.as_bytes());
            items.extend(compressed[idx * 6..idx * 6 + 6].iter().map(|c| c.as_slice()));
        }
        let seed = crate::hashing::hash_to_key(&format!("{D_MIXED}/batch-seed"), &items);
        let mut points = Vec::with_capacity(instances.len() * 6);
        let mut scalars = Vec::with_capacity(instances.len() * 6);
        for (idx, ((_, inst), e)) in instances.iter().zip(&challenges).enumerate() {
            let idx_bytes = (idx as u64).to_le_bytes();
            let r =
                hash_to_ed25519_scalar(&format!("{D_MIXED}/batch-r"), &[&seed, &idx_bytes]);
            let s =
                hash_to_ed25519_scalar(&format!("{D_MIXED}/batch-s"), &[&seed, &idx_bytes]);
            let z = &inst.proof.response;
            points.push(*inst.g1);
            scalars.push(r.mul(z));
            points.push(*inst.h1);
            scalars.push(r.mul(e).neg());
            points.push(inst.proof.w1);
            scalars.push(r.neg());
            points.push(*inst.g2);
            scalars.push(s.mul(z));
            points.push(*inst.h2);
            scalars.push(s.mul(e).neg());
            points.push(inst.proof.w2);
            scalars.push(s.neg());
        }
        let scalar_refs: Vec<&theta_math::BigUint> =
            scalars.iter().map(|s| s.to_biguint()).collect();
        msm::msm(&points, &scalar_refs).is_identity()
    }

    fn challenge(
        domain: &str,
        g1: &Point,
        h1: &Point,
        g2: &Point,
        h2: &Point,
        w1: &Point,
        w2: &Point,
    ) -> Scalar {
        hash_to_ed25519_scalar(
            domain,
            &[
                &g1.compress(),
                &h1.compress(),
                &g2.compress(),
                &h2.compress(),
                &w1.compress(),
                &w2.compress(),
            ],
        )
    }
}

impl Encode for DleqProof {
    fn encode(&self, w: &mut Writer) {
        crate::wire::put_point(w, &self.w1);
        crate::wire::put_point(w, &self.w2);
        crate::wire::put_scalar(w, &self.response);
    }
}

impl Decode for DleqProof {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(DleqProof {
            w1: crate::wire::get_point(r)?,
            w2: crate::wire::get_point(r)?,
            response: crate::wire::get_scalar(r)?,
        })
    }
}

/// A point of order 4, `(√−1, 0)`: a different representative of the
/// identity under coset equality. Tests add it to points to check that
/// every check and hash depends on the element, not the representative.
#[cfg(test)]
pub(crate) fn torsion4() -> Point {
    use theta_math::ed25519::{sqrt_m1, Fe};
    Point::from_affine(sqrt_m1(), Fe::ZERO).expect("(i, 0) is on the curve")
}

#[cfg(test)]
impl DleqProof {
    /// The same proof with both commitments moved to other members of
    /// their cosets.
    pub(crate) fn shifted(&self, t: &Point) -> DleqProof {
        DleqProof { w1: self.w1.add(t), w2: self.w2.sub(t), response: self.response.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xd1e9)
    }

    #[test]
    fn torsion_shifted_statement_and_proof_verify() {
        let mut r = rng();
        let (g1, h1, g2, h2, x) = statement(&mut r);
        let proof = DleqProof::prove("test/dleq", &g1, &h1, &g2, &h2, &x, &mut r);
        let t = torsion4();
        assert!(t.is_identity());
        let (h1s, g2s, h2s) = (h1.add(&t), g2.sub(&t), h2.add(&t.double()));
        let shifted = proof.shifted(&t);
        assert!(shifted.verify("test/dleq", &g1, &h1s, &g2s, &h2s));
        let inst = DleqInstance { g1: &g1, h1: &h1s, g2: &g2s, h2: &h2s, proof: &shifted };
        assert!(DleqProof::verify_batch("test/dleq", &[inst, inst]));
    }

    fn statement(r: &mut impl RngCore) -> (Point, Point, Point, Point, Scalar) {
        let x = Scalar::random(r);
        let g1 = Point::base();
        let g2 = Point::mul_base(&Scalar::random(r));
        let h1 = g1.mul(&x);
        let h2 = g2.mul(&x);
        (g1, h1, g2, h2, x)
    }

    #[test]
    fn honest_proof_verifies() {
        let mut r = rng();
        for _ in 0..5 {
            let (g1, h1, g2, h2, x) = statement(&mut r);
            let proof = DleqProof::prove("test/dleq", &g1, &h1, &g2, &h2, &x, &mut r);
            assert!(proof.verify("test/dleq", &g1, &h1, &g2, &h2));
        }
    }

    #[test]
    fn unequal_logs_rejected() {
        let mut r = rng();
        let (g1, h1, g2, _, x) = statement(&mut r);
        // h2 with a different exponent: the prover cannot produce a valid
        // proof for a false statement.
        let h2_bad = g2.mul(&x.add(&Scalar::one()));
        let proof = DleqProof::prove("test/dleq", &g1, &h1, &g2, &h2_bad, &x, &mut r);
        assert!(!proof.verify("test/dleq", &g1, &h1, &g2, &h2_bad));
    }

    #[test]
    fn wrong_domain_rejected() {
        let mut r = rng();
        let (g1, h1, g2, h2, x) = statement(&mut r);
        let proof = DleqProof::prove("domain-a", &g1, &h1, &g2, &h2, &x, &mut r);
        assert!(!proof.verify("domain-b", &g1, &h1, &g2, &h2));
    }

    #[test]
    fn tampered_statement_rejected() {
        let mut r = rng();
        let (g1, h1, g2, h2, x) = statement(&mut r);
        let proof = DleqProof::prove("test/dleq", &g1, &h1, &g2, &h2, &x, &mut r);
        let other = Point::mul_base(&Scalar::random(&mut r));
        assert!(!proof.verify("test/dleq", &g1, &other, &g2, &h2));
        assert!(!proof.verify("test/dleq", &g1, &h1, &g2, &other));
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut r = rng();
        let (g1, h1, g2, h2, x) = statement(&mut r);
        let proof = DleqProof::prove("test/dleq", &g1, &h1, &g2, &h2, &x, &mut r);
        let bad = DleqProof {
            w1: proof.w1.add(&Point::base()),
            w2: proof.w2,
            response: proof.response.clone(),
        };
        assert!(!bad.verify("test/dleq", &g1, &h1, &g2, &h2));
        let bad = DleqProof {
            w1: proof.w1,
            w2: proof.w2.add(&Point::base()),
            response: proof.response.clone(),
        };
        assert!(!bad.verify("test/dleq", &g1, &h1, &g2, &h2));
        let bad = DleqProof {
            w1: proof.w1,
            w2: proof.w2,
            response: proof.response.add(&Scalar::one()),
        };
        assert!(!bad.verify("test/dleq", &g1, &h1, &g2, &h2));
    }

    #[test]
    fn codec_roundtrip() {
        let mut r = rng();
        let (g1, h1, g2, h2, x) = statement(&mut r);
        let proof = DleqProof::prove("test/dleq", &g1, &h1, &g2, &h2, &x, &mut r);
        let decoded = DleqProof::decoded(&proof.encoded()).unwrap();
        assert_eq!(decoded, proof);
        assert!(decoded.verify("test/dleq", &g1, &h1, &g2, &h2));
    }

    #[test]
    fn batch_accepts_all_valid() {
        let mut r = rng();
        let stmts: Vec<_> = (0..6).map(|_| statement(&mut r)).collect();
        let proofs: Vec<DleqProof> = stmts
            .iter()
            .map(|(g1, h1, g2, h2, x)| {
                DleqProof::prove("test/dleq", g1, h1, g2, h2, x, &mut r)
            })
            .collect();
        let instances: Vec<DleqInstance<'_>> = stmts
            .iter()
            .zip(&proofs)
            .map(|((g1, h1, g2, h2, _), proof)| DleqInstance { g1, h1, g2, h2, proof })
            .collect();
        assert!(DleqProof::verify_batch("test/dleq", &instances));
        assert!(DleqProof::verify_batch("test/dleq", &instances[..1]));
        assert!(DleqProof::verify_batch("test/dleq", &[]));
    }

    #[test]
    fn batch_rejects_single_bad_proof() {
        let mut r = rng();
        let stmts: Vec<_> = (0..5).map(|_| statement(&mut r)).collect();
        let mut proofs: Vec<DleqProof> = stmts
            .iter()
            .map(|(g1, h1, g2, h2, x)| {
                DleqProof::prove("test/dleq", g1, h1, g2, h2, x, &mut r)
            })
            .collect();
        proofs[3].response = proofs[3].response.add(&Scalar::one());
        let instances: Vec<DleqInstance<'_>> = stmts
            .iter()
            .zip(&proofs)
            .map(|((g1, h1, g2, h2, _), proof)| DleqInstance { g1, h1, g2, h2, proof })
            .collect();
        assert!(!DleqProof::verify_batch("test/dleq", &instances));
        // The other four instances still pass on their own.
        assert!(DleqProof::verify_batch("test/dleq", &instances[..3]));
    }

    #[test]
    fn mixed_batch_accepts_proofs_from_different_domains() {
        let mut r = rng();
        let domains = ["domain-a", "domain-b", "domain-a", "domain-c"];
        let stmts: Vec<_> = (0..domains.len()).map(|_| statement(&mut r)).collect();
        let proofs: Vec<DleqProof> = stmts
            .iter()
            .zip(&domains)
            .map(|((g1, h1, g2, h2, x), d)| DleqProof::prove(d, g1, h1, g2, h2, x, &mut r))
            .collect();
        let instances: Vec<(&str, DleqInstance<'_>)> = stmts
            .iter()
            .zip(&proofs)
            .zip(&domains)
            .map(|(((g1, h1, g2, h2, _), proof), d)| {
                (*d, DleqInstance { g1, h1, g2, h2, proof })
            })
            .collect();
        assert!(DleqProof::verify_batch_mixed(&instances));
        assert!(DleqProof::verify_batch_mixed(&instances[..1]));
        assert!(DleqProof::verify_batch_mixed(&[]));
        // The plain batch over a uniform domain agrees with the mixed one.
        let uniform: Vec<(&str, DleqInstance<'_>)> =
            instances.iter().map(|(_, i)| ("domain-a", *i)).collect();
        assert_eq!(
            DleqProof::verify_batch_mixed(&uniform),
            DleqProof::verify_batch(
                "domain-a",
                &uniform.iter().map(|(_, i)| *i).collect::<Vec<_>>()
            ),
        );
    }

    #[test]
    fn mixed_batch_rejects_one_bad_proof_and_swapped_domains() {
        let mut r = rng();
        let domains = ["domain-a", "domain-b", "domain-c"];
        let stmts: Vec<_> = (0..domains.len()).map(|_| statement(&mut r)).collect();
        let mut proofs: Vec<DleqProof> = stmts
            .iter()
            .zip(&domains)
            .map(|((g1, h1, g2, h2, x), d)| DleqProof::prove(d, g1, h1, g2, h2, x, &mut r))
            .collect();
        {
            let instances: Vec<(&str, DleqInstance<'_>)> = stmts
                .iter()
                .zip(&proofs)
                .zip(&domains)
                .map(|(((g1, h1, g2, h2, _), proof), d)| {
                    (*d, DleqInstance { g1, h1, g2, h2, proof })
                })
                .collect();
            // A proof attached under the wrong domain must not verify.
            let mut swapped = instances.clone();
            swapped[0].0 = "domain-b";
            assert!(!DleqProof::verify_batch_mixed(&swapped));
        }
        proofs[1].response = proofs[1].response.add(&Scalar::one());
        let instances: Vec<(&str, DleqInstance<'_>)> = stmts
            .iter()
            .zip(&proofs)
            .zip(&domains)
            .map(|(((g1, h1, g2, h2, _), proof), d)| {
                (*d, DleqInstance { g1, h1, g2, h2, proof })
            })
            .collect();
        assert!(!DleqProof::verify_batch_mixed(&instances));
        // The untouched instances still pass without the bad one.
        assert!(DleqProof::verify_batch_mixed(&[instances[0], instances[2]]));
    }

    #[test]
    fn batch_rejects_wrong_domain() {
        let mut r = rng();
        let stmts: Vec<_> = (0..3).map(|_| statement(&mut r)).collect();
        let proofs: Vec<DleqProof> = stmts
            .iter()
            .map(|(g1, h1, g2, h2, x)| {
                DleqProof::prove("domain-a", g1, h1, g2, h2, x, &mut r)
            })
            .collect();
        let instances: Vec<DleqInstance<'_>> = stmts
            .iter()
            .zip(&proofs)
            .map(|((g1, h1, g2, h2, _), proof)| DleqInstance { g1, h1, g2, h2, proof })
            .collect();
        assert!(!DleqProof::verify_batch("domain-b", &instances));
    }
}
