//! CKS05 — the Cachin–Kursawe–Shoup common-coin scheme (Diffie–Hellman
//! construction) over Ed25519.
//!
//! A coin with name `C` is the hash of `g̃^x` where `g̃ = H(C)` and `x`
//! is the shared secret. Each share `σ_i = g̃^{x_i}` carries a DLEQ proof
//! of consistency with the party's verification key (paper §3.5: "every
//! share of a coin comes with a ZKP for validity").
//!
//! # Example
//!
//! ```
//! use theta_schemes::common::ThresholdParams;
//! use theta_schemes::cks05;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = ThresholdParams::new(1, 4).unwrap();
//! let (pk, shares) = cks05::keygen(params, &mut rng);
//! let s0 = cks05::create_coin_share(&shares[0], b"round-7", &mut rng);
//! let s1 = cks05::create_coin_share(&shares[1], b"round-7", &mut rng);
//! let coin = cks05::combine(&pk, b"round-7", &[s0, s1]).unwrap();
//! assert_eq!(coin.len(), 32);
//! ```

use crate::common::{
    bisect_invalid, lagrange_coeffs_at_zero, shamir_share, PartyId, ThresholdParams,
};
use crate::dleq::{DleqInstance, DleqProof};
use crate::error::SchemeError;
use crate::hashing::{hash_to_ed25519, hash_to_key};
use crate::wire::{get_point, get_scalar, put_point, put_scalar};
use rand::RngCore;
use theta_codec::{Decode, Encode, Reader, Writer};
use theta_math::ed25519::{Point, Scalar};

const D_COIN_BASE: &str = "thetacrypt/cks05/coin-base/v1";
const D_COIN_VALUE: &str = "thetacrypt/cks05/coin-value/v1";
const D_SHARE: &str = "thetacrypt/cks05/share-dleq/v1";

/// The coin public key: `h = g^x` and verification keys `h_i = g^{x_i}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey {
    params: ThresholdParams,
    h: Point,
    verification_keys: Vec<Point>,
}

impl PublicKey {
    /// Threshold parameters.
    pub fn params(&self) -> ThresholdParams {
        self.params
    }

    /// The verification key of `party`, if in range.
    pub fn verification_key(&self, party: PartyId) -> Option<&Point> {
        let idx = party.value().checked_sub(1)? as usize;
        self.verification_keys.get(idx)
    }
}

impl Encode for PublicKey {
    fn encode(&self, w: &mut Writer) {
        self.params.encode(w);
        put_point(w, &self.h);
        (self.verification_keys.len() as u32).encode(w);
        for vk in &self.verification_keys {
            put_point(w, vk);
        }
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        let params = ThresholdParams::decode(r)?;
        let h = get_point(r)?;
        let count = u32::decode(r)? as usize;
        if count != params.n() as usize {
            return Err(theta_codec::CodecError::InvalidValue(
                "verification key count != n".into(),
            ));
        }
        let mut verification_keys = Vec::with_capacity(count);
        for _ in 0..count {
            verification_keys.push(get_point(r)?);
        }
        Ok(PublicKey { params, h, verification_keys })
    }
}

/// One party's coin key share.
#[derive(Clone)]
pub struct KeyShare {
    id: PartyId,
    x_i: Scalar,
    public: PublicKey,
}

impl KeyShare {
    /// The owning party.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// The common public key.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Constant-time comparison: ids must match and the secret halves
    /// are compared without short-circuiting (`theta_math::ct`), so
    /// timing reveals nothing about where two shares differ.
    #[must_use]
    pub fn ct_eq(&self, other: &KeyShare) -> bool {
        self.id == other.id && self.x_i.ct_eq(&other.x_i)
    }
}

/// Redacted: a key share must never leak its secret through logs or
/// panic messages, so only the owner id is printed.
impl std::fmt::Debug for KeyShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyShare")
            .field("id", &self.id)
            .field("x_i", &"<redacted>")
            .finish_non_exhaustive()
    }
}

/// On drop the secret scalar is wiped (volatile writes the optimizer cannot elide), so
/// freed heap pages never retain key material.
impl Drop for KeyShare {
    fn drop(&mut self) {
        self.x_i.wipe();
    }
}

impl Encode for KeyShare {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        put_scalar(w, &self.x_i);
        self.public.encode(w);
    }
}

impl Decode for KeyShare {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(KeyShare {
            id: PartyId::decode(r)?,
            x_i: get_scalar(r)?,
            public: PublicKey::decode(r)?,
        })
    }
}

/// A coin share `σ_i = g̃^{x_i}` with its DLEQ validity proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoinShare {
    id: PartyId,
    sigma_i: Point,
    proof: DleqProof,
}

impl CoinShare {
    /// The producing party.
    pub fn id(&self) -> PartyId {
        self.id
    }
}

impl Encode for CoinShare {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        put_point(w, &self.sigma_i);
        self.proof.encode(w);
    }
}

impl Decode for CoinShare {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(CoinShare {
            id: PartyId::decode(r)?,
            sigma_i: get_point(r)?,
            proof: DleqProof::decode(r)?,
        })
    }
}

/// Dealer key generation.
pub fn keygen(params: ThresholdParams, rng: &mut dyn RngCore) -> (PublicKey, Vec<KeyShare>) {
    let x = Scalar::random(rng);
    let h = Point::mul_base(&x);
    let shares = shamir_share(&x, params, rng);
    let verification_keys: Vec<Point> =
        shares.iter().map(|(_, x_i)| Point::mul_base(x_i)).collect();
    let public = PublicKey { params, h, verification_keys };
    let key_shares = shares
        .into_iter()
        .map(|(id, x_i)| KeyShare { id, x_i, public: public.clone() })
        .collect();
    (public, key_shares)
}

/// The coin base point `g̃ = H(name)`.
fn coin_base(name: &[u8]) -> Point {
    hash_to_ed25519(D_COIN_BASE, &[name])
}

/// Produces this party's coin share for `name` with its DLEQ proof.
pub fn create_coin_share(key: &KeyShare, name: &[u8], rng: &mut dyn RngCore) -> CoinShare {
    let g_tilde = coin_base(name);
    let sigma_i = g_tilde.mul(&key.x_i);
    let h_i = key
        .public
        .verification_key(key.id)
        .expect("own id is always in range");
    let proof = DleqProof::prove(D_SHARE, &Point::base(), h_i, &g_tilde, &sigma_i, &key.x_i, rng);
    CoinShare { id: key.id, sigma_i, proof }
}

/// Verifies a coin share against the coin name.
pub fn verify_coin_share(pk: &PublicKey, name: &[u8], share: &CoinShare) -> bool {
    let Some(h_i) = pk.verification_key(share.id) else {
        return false;
    };
    let g_tilde = coin_base(name);
    share
        .proof
        .verify(D_SHARE, &Point::base(), h_i, &g_tilde, &share.sigma_i)
}

/// Verifies a batch of coin shares at once: all DLEQ proofs fold into a
/// single multi-scalar multiplication, with bisection locating the first
/// invalid share on failure.
///
/// # Errors
///
/// [`SchemeError::InvalidShare`] naming the first offending party.
pub fn verify_coin_shares_batch(
    pk: &PublicKey,
    name: &[u8],
    shares: &[CoinShare],
) -> Result<(), SchemeError> {
    let base = Point::base();
    let g_tilde = coin_base(name);
    let mut instances = Vec::with_capacity(shares.len());
    for share in shares {
        let Some(h_i) = pk.verification_key(share.id) else {
            return Err(SchemeError::InvalidShare { party: share.id.value() });
        };
        instances.push(DleqInstance {
            g1: &base,
            h1: h_i,
            g2: &g_tilde,
            h2: &share.sigma_i,
            proof: &share.proof,
        });
    }
    let check = |r: std::ops::Range<usize>| DleqProof::verify_batch(D_SHARE, &instances[r]);
    match bisect_invalid(shares.len(), &check) {
        None => Ok(()),
        Some(i) => Err(SchemeError::InvalidShare { party: shares[i].id.value() }),
    }
}

/// Combines `t+1` verified shares into the 32-byte coin value.
///
/// The coin is `H(name, g̃^x)` — pseudorandom under DDH, and identical
/// for every quorum (share uniqueness). Share proofs are verified in one
/// batched MSM and the interpolation of `g̃^x` is a single MSM too.
///
/// # Errors
///
/// [`SchemeError::InvalidShare`] / [`SchemeError::NotEnoughShares`].
pub fn combine(pk: &PublicKey, name: &[u8], shares: &[CoinShare]) -> Result<[u8; 32], SchemeError> {
    verify_coin_shares_batch(pk, name, shares)?;
    combine_preverified(pk, name, shares)
}

/// Captures one coin-share check as a detached
/// [`crate::batch::PendingCheck`] so the orchestration layer can fold it
/// into a cross-instance DLEQ batch (mixed with SG02 shares — the
/// Fiat–Shamir domains stay distinct per instance).
pub fn pending_check(
    pk: &PublicKey,
    name: &[u8],
    share: &CoinShare,
) -> crate::batch::PendingCheck {
    match pk.verification_key(share.id) {
        Some(h_i) => crate::batch::PendingCheck::Dleq {
            domain: D_SHARE,
            g1: Point::base(),
            h1: *h_i,
            g2: coin_base(name),
            h2: share.sigma_i,
            proof: share.proof.clone(),
        },
        None => crate::batch::PendingCheck::Invalid,
    }
}

/// Combines shares that were **already verified individually** (e.g. by
/// the cross-instance batch settle), skipping re-verification so only
/// the Lagrange MSM and the value hash remain.
pub fn combine_preverified(
    pk: &PublicKey,
    name: &[u8],
    shares: &[CoinShare],
) -> Result<[u8; 32], SchemeError> {
    let need = pk.params.quorum() as usize;
    if shares.len() < need {
        return Err(SchemeError::NotEnoughShares { have: shares.len(), need });
    }
    let quorum = &shares[..need];
    let ids: Vec<PartyId> = quorum.iter().map(|s| s.id).collect();
    let lambdas = lagrange_coeffs_at_zero::<Scalar>(&ids)?;
    let points: Vec<Point> = quorum.iter().map(|s| s.sigma_i).collect();
    let coeffs: Vec<&theta_math::BigUint> = lambdas.iter().map(|l| l.to_biguint()).collect();
    let g_tilde_x = theta_math::msm::msm(&points, &coeffs);
    Ok(hash_to_key(D_COIN_VALUE, &[name, &g_tilde_x.compress()]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xc5)
    }

    fn setup(t: u16, n: u16) -> (PublicKey, Vec<KeyShare>, rand::rngs::StdRng) {
        let mut r = rng();
        let params = ThresholdParams::new(t, n).unwrap();
        let (pk, shares) = keygen(params, &mut r);
        (pk, shares, r)
    }

    #[test]
    fn torsion_shifted_shares_verify_and_give_the_same_coin() {
        let (pk, shares, mut r) = setup(1, 4);
        let honest: Vec<CoinShare> =
            shares.iter().take(2).map(|s| create_coin_share(s, b"epoch", &mut r)).collect();
        let coin = combine(&pk, b"epoch", &honest).unwrap();
        // Every point a receiver holds moves to another coset member.
        let t = crate::dleq::torsion4();
        let shifted: Vec<CoinShare> = honest
            .iter()
            .map(|s| CoinShare { id: s.id, sigma_i: s.sigma_i.add(&t), proof: s.proof.shifted(&t) })
            .collect();
        let shifted_pk = PublicKey {
            params: pk.params,
            h: pk.h.sub(&t),
            verification_keys: pk.verification_keys.iter().map(|v| v.add(&t)).collect(),
        };
        for (s, h) in shifted.iter().zip(&honest) {
            assert!(verify_coin_share(&shifted_pk, b"epoch", s));
            assert_eq!(s.encoded(), h.encoded());
            let check = pending_check(&shifted_pk, b"epoch", s);
            assert_eq!(crate::batch::settle_mixed(&[&check]), vec![true]);
        }
        assert!(verify_coin_shares_batch(&shifted_pk, b"epoch", &shifted).is_ok());
        assert_eq!(combine(&shifted_pk, b"epoch", &shifted).unwrap(), coin);
        assert_eq!(combine_preverified(&shifted_pk, b"epoch", &shifted).unwrap(), coin);
    }

    #[test]
    fn coin_value_consistent_across_quorums() {
        let (pk, shares, mut r) = setup(1, 4);
        let all: Vec<_> = shares
            .iter()
            .map(|s| create_coin_share(s, b"round-1", &mut r))
            .collect();
        let a = combine(&pk, b"round-1", &[all[0].clone(), all[1].clone()]).unwrap();
        let b = combine(&pk, b"round-1", &[all[2].clone(), all[3].clone()]).unwrap();
        let c = combine(&pk, b"round-1", &all).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn different_names_different_coins() {
        let (pk, shares, mut r) = setup(1, 4);
        let mut coins = Vec::new();
        for name in [b"r1".as_slice(), b"r2", b"r3"] {
            let s: Vec<_> = shares[..2]
                .iter()
                .map(|k| create_coin_share(k, name, &mut r))
                .collect();
            coins.push(combine(&pk, name, &s).unwrap());
        }
        assert_ne!(coins[0], coins[1]);
        assert_ne!(coins[1], coins[2]);
        assert_ne!(coins[0], coins[2]);
    }

    #[test]
    fn share_proofs_validate() {
        let (pk, shares, mut r) = setup(1, 4);
        let share = create_coin_share(&shares[0], b"name", &mut r);
        assert!(verify_coin_share(&pk, b"name", &share));
        // Wrong coin name fails (g̃ differs).
        assert!(!verify_coin_share(&pk, b"other", &share));
        // Wrong party fails.
        let forged = CoinShare { id: PartyId(2), ..share.clone() };
        assert!(!verify_coin_share(&pk, b"name", &forged));
    }

    #[test]
    fn corrupt_share_rejected() {
        let (pk, shares, mut r) = setup(1, 4);
        let mut bad = create_coin_share(&shares[0], b"n", &mut r);
        bad.sigma_i = bad.sigma_i.add(&Point::base());
        let good = create_coin_share(&shares[1], b"n", &mut r);
        assert!(matches!(
            combine(&pk, b"n", &[bad, good]),
            Err(SchemeError::InvalidShare { party: 1 })
        ));
    }

    #[test]
    fn not_enough_shares() {
        let (pk, shares, mut r) = setup(2, 7);
        let s: Vec<_> = shares[..2]
            .iter()
            .map(|k| create_coin_share(k, b"n", &mut r))
            .collect();
        assert!(matches!(
            combine(&pk, b"n", &s),
            Err(SchemeError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn coin_sequence_is_unpredictable_looking() {
        // Not a statistical test — just ensures successive coins differ
        // and are not all-zero.
        let (pk, shares, mut r) = setup(1, 4);
        let mut prev = [0u8; 32];
        for round in 0u64..5 {
            let name = round.to_le_bytes();
            let s: Vec<_> = shares[..2]
                .iter()
                .map(|k| create_coin_share(k, &name, &mut r))
                .collect();
            let coin = combine(&pk, &name, &s).unwrap();
            assert_ne!(coin, [0u8; 32]);
            assert_ne!(coin, prev);
            prev = coin;
        }
    }

    #[test]
    fn codec_roundtrips() {
        let (pk, shares, mut r) = setup(1, 4);
        assert_eq!(PublicKey::decoded(&pk.encoded()).unwrap(), pk);
        let share = create_coin_share(&shares[0], b"n", &mut r);
        assert_eq!(CoinShare::decoded(&share.encoded()).unwrap(), share);
        let ks = KeyShare::decoded(&shares[0].encoded()).unwrap();
        assert_eq!(ks.id(), shares[0].id());
    }

    #[test]
    fn batch_verify_accepts_valid_and_names_culprit() {
        let (pk, shares, mut r) = setup(2, 7);
        let name = b"round-9";
        let mut cs: Vec<_> = shares
            .iter()
            .map(|k| create_coin_share(k, name, &mut r))
            .collect();
        assert!(verify_coin_shares_batch(&pk, name, &cs).is_ok());
        cs[5].sigma_i = cs[5].sigma_i.add(&Point::base());
        assert_eq!(
            verify_coin_shares_batch(&pk, name, &cs),
            Err(SchemeError::InvalidShare { party: cs[5].id.value() })
        );
        assert!(matches!(
            combine(&pk, name, &cs),
            Err(SchemeError::InvalidShare { .. })
        ));
    }
}
