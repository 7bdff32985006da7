//! Hash-to-group and hash-to-scalar maps (domain separated), used by
//! every scheme's random-oracle instantiation.
//!
//! Ed25519 schemes hash to Ristretto255 with the RFC 9496 one-way map
//! over the 64-byte domain-separated digest: one evaluation, no retry,
//! no cofactor clearing. BN254 G1 keeps try-and-increment over `x`.

use crate::error::SchemeError;
use theta_math::bn254::{Fp, Fr, G1};
use theta_math::ed25519::{Point, Scalar};
use theta_primitives::DomainHasher;

/// Retry budget for BN254 try-and-increment (each attempt succeeds
/// w.p. ≈ 1/2, so 128 failures is a 2⁻¹²⁸ event — in practice
/// unreachable).
const MAX_TRIES: u32 = 128;

/// Hashes arbitrary data to a Ristretto255 element (RFC 9496 one-way
/// map on the 64-byte digest).
pub fn hash_to_ed25519(domain: &str, data: &[&[u8]]) -> Point {
    let mut h = DomainHasher::new(domain);
    for item in data {
        h.update(item);
    }
    Point::from_uniform_bytes(&h.finish())
}

/// Hashes arbitrary data to a non-identity point of BN254 G1.
///
/// # Errors
///
/// [`SchemeError::HashToGroupFailed`] after exhausting the retry budget.
pub fn hash_to_g1(domain: &str, data: &[&[u8]]) -> Result<G1, SchemeError> {
    for ctr in 0..MAX_TRIES {
        let mut h = DomainHasher::new(domain);
        for item in data {
            h.update(item);
        }
        h.update(&ctr.to_le_bytes());
        let digest = h.finish();
        let mut xb = [0u8; 32];
        xb.copy_from_slice(&digest[..32]);
        let x = Fp::from_biguint(&theta_math::BigUint::from_bytes_le(&xb));
        let y_odd = digest[32] & 1 == 1;
        if let Some(p) = G1::from_x(x, y_odd) {
            if !p.is_identity() {
                return Ok(p);
            }
        }
    }
    Err(SchemeError::HashToGroupFailed)
}

/// Hashes arbitrary data to an Ed25519 scalar (wide reduction, no bias).
pub fn hash_to_ed25519_scalar(domain: &str, data: &[&[u8]]) -> Scalar {
    let mut h = DomainHasher::new(domain);
    for item in data {
        h.update(item);
    }
    Scalar::from_bytes_wide(&h.finish())
}

/// Hashes arbitrary data to a BN254 scalar (wide reduction, no bias).
pub fn hash_to_fr(domain: &str, data: &[&[u8]]) -> Fr {
    let mut h = DomainHasher::new(domain);
    for item in data {
        h.update(item);
    }
    Fr::from_bytes_wide(&h.finish())
}

/// Hashes arbitrary data to 32 output bytes.
pub fn hash_to_key(domain: &str, data: &[&[u8]]) -> [u8; 32] {
    let mut h = DomainHasher::new(domain);
    for item in data {
        h.update(item);
    }
    h.finish32()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed25519_deterministic_and_in_subgroup() {
        let a = hash_to_ed25519("test/h2c", &[b"hello"]);
        let b = hash_to_ed25519("test/h2c", &[b"hello"]);
        assert_eq!(a, b);
        assert!(a.is_in_prime_subgroup());
        assert!(!a.is_identity());
    }

    #[test]
    fn ed25519_distinct_inputs_distinct_points() {
        let a = hash_to_ed25519("test/h2c", &[b"hello"]);
        let b = hash_to_ed25519("test/h2c", &[b"world"]);
        assert_ne!(a, b);
    }

    #[test]
    fn ed25519_domain_separation() {
        let a = hash_to_ed25519("domain-1", &[b"x"]);
        let b = hash_to_ed25519("domain-2", &[b"x"]);
        assert_ne!(a, b);
    }

    #[test]
    fn g1_deterministic_nonidentity() {
        let a = hash_to_g1("test/h2g1", &[b"msg"]).unwrap();
        let b = hash_to_g1("test/h2g1", &[b"msg"]).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_identity());
        assert!(a.is_torsion_free());
    }

    #[test]
    fn g1_many_messages_succeed() {
        for i in 0u32..20 {
            let p = hash_to_g1("test/h2g1", &[&i.to_le_bytes()]).unwrap();
            assert!(!p.is_identity());
        }
    }

    #[test]
    fn scalar_hashes_differ_by_domain() {
        assert_ne!(
            hash_to_ed25519_scalar("a", &[b"m"]),
            hash_to_ed25519_scalar("b", &[b"m"])
        );
        assert_ne!(hash_to_fr("a", &[b"m"]), hash_to_fr("b", &[b"m"]));
    }

    #[test]
    fn multi_item_framing() {
        let a = hash_to_key("d", &[b"ab", b"c"]);
        let b = hash_to_key("d", &[b"a", b"bc"]);
        assert_ne!(a, b);
    }
}
