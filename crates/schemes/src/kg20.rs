//! KG20 — FROST: flexible round-optimized Schnorr threshold signatures
//! (Komlo–Goldberg), over Ed25519.
//!
//! The one interactive (two-round) protocol in the suite (paper §3.5):
//!
//! 1. **Round 1 / preprocessing** — every signer samples a nonce pair
//!    `(d, e)` and publishes commitments `(D, E) = (g^d, g^e)`. Because
//!    nonces are message-independent, batches can be precomputed, turning
//!    signing into a single round (the paper's precomputation mode).
//! 2. **Round 2** — given the message and the full commitment list `B` of
//!    the signing set, each signer derives its binding factor
//!    `ρ_i = H(i, m, B)`, the group nonce `R = Π D_j·E_j^{ρ_j}`, the
//!    challenge `c = H(R, Y, m)` and responds `z_i = d_i + e_i·ρ_i + λ_i·x_i·c`.
//!
//! Everything round 2 derives from the commitment list — the binding
//! factors, each signer's binding term `B_j = D_j·E_j^{ρ_j}`, `R` and
//! `c` — is derived **once per signing instance** into a [`SigningSet`].
//! Signing under it is scalar arithmetic, verifying a response costs one
//! base and one variable-base multiplication, and combining responses
//! that were already verified is one Schnorr check. The free functions
//! [`sign_share`], [`verify_share`] and [`combine`] build a set per call
//! (and `combine` verifies every response), for callers holding only
//! the commitment list.
//!
//! FROST is deliberately **not robust**: the signing set is fixed by the
//! commitment list, so a misbehaving signer aborts the run (tested below)
//! rather than being excluded.
//!
//! # Example
//!
//! ```
//! use theta_schemes::common::ThresholdParams;
//! use theta_schemes::kg20;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = ThresholdParams::new(1, 4).unwrap();
//! let (pk, keys) = kg20::keygen(params, &mut rng);
//! // Round 1: parties 1 and 2 commit.
//! let n1 = kg20::generate_nonce(&keys[0], &mut rng);
//! let n2 = kg20::generate_nonce(&keys[1], &mut rng);
//! let commits = vec![n1.commitment().clone(), n2.commitment().clone()];
//! // Round 2: both sign.
//! let s1 = kg20::sign_share(&keys[0], n1, b"msg", &commits).unwrap();
//! let s2 = kg20::sign_share(&keys[1], n2, b"msg", &commits).unwrap();
//! let sig = kg20::combine(&pk, b"msg", &commits, &[s1, s2]).unwrap();
//! assert!(kg20::verify(&pk, b"msg", &sig));
//! ```

use crate::common::{lagrange_coeffs_at_zero, shamir_share, PartyId, ThresholdParams};
use crate::error::SchemeError;
use crate::hashing::hash_to_ed25519_scalar;
use crate::wire::{get_point, get_scalar, put_point, put_scalar};
use rand::RngCore;
use theta_codec::{Decode, Encode, Reader, Writer};
use theta_math::ed25519::{Point, Scalar};

const D_BINDING: &str = "thetacrypt/kg20/binding/v1";
const D_CHALLENGE: &str = "thetacrypt/kg20/challenge/v1";

/// The FROST group public key `Y = g^x` plus per-party verification keys.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey {
    params: ThresholdParams,
    y: Point,
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

    /// The group public key.
    pub fn group_key(&self) -> &Point {
        &self.y
    }
}

impl Encode for PublicKey {
    fn encode(&self, w: &mut Writer) {
        self.params.encode(w);
        put_point(w, &self.y);
        (self.verification_keys.len() as u32).encode(w);
        for vk in &self.verification_keys {
            put_point(w, vk);
        }
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        let params = ThresholdParams::decode(r)?;
        let y = get_point(r)?;
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
        Ok(PublicKey { params, y, verification_keys })
    }
}

/// One party's long-term FROST signing share.
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

/// A public round-1 nonce commitment `(D, E)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NonceCommitment {
    id: PartyId,
    d_big: Point,
    e_big: Point,
}

impl NonceCommitment {
    /// The committing party.
    pub fn id(&self) -> PartyId {
        self.id
    }
}

impl Encode for NonceCommitment {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        put_point(w, &self.d_big);
        put_point(w, &self.e_big);
    }
}

impl Decode for NonceCommitment {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(NonceCommitment {
            id: PartyId::decode(r)?,
            d_big: get_point(r)?,
            e_big: get_point(r)?,
        })
    }
}

/// A party's secret round-1 nonce pair. **Single use**: consumed by
/// [`sign_share`] so it cannot be replayed (nonce reuse leaks the key).
pub struct SigningNonce {
    d: Scalar,
    e: Scalar,
    commitment: NonceCommitment,
}

impl SigningNonce {
    /// The public commitment to broadcast in round 1.
    pub fn commitment(&self) -> &NonceCommitment {
        &self.commitment
    }
}

/// Redacted: a leaked nonce is as bad as a leaked key (Schnorr nonce
/// reuse/exposure recovers the signing share), so only the public
/// commitment is printed.
impl std::fmt::Debug for SigningNonce {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningNonce")
            .field("d", &"<redacted>")
            .field("e", &"<redacted>")
            .field("commitment", &self.commitment)
            .finish()
    }
}

/// Wipes both secret nonce scalars when the nonce is dropped — which
/// [`sign_share`] does immediately after computing the response.
impl Drop for SigningNonce {
    fn drop(&mut self) {
        self.d.wipe();
        self.e.wipe();
    }
}

/// A round-2 response `z_i`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignatureShare {
    id: PartyId,
    z_i: Scalar,
}

impl SignatureShare {
    /// The producing party.
    pub fn id(&self) -> PartyId {
        self.id
    }
}

impl Encode for SignatureShare {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        put_scalar(w, &self.z_i);
    }
}

impl Decode for SignatureShare {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(SignatureShare { id: PartyId::decode(r)?, z_i: get_scalar(r)? })
    }
}

/// A standard Schnorr signature `(R, z)` — indistinguishable from a
/// single-signer signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    r: Point,
    z: Scalar,
}

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        put_point(w, &self.r);
        put_scalar(w, &self.z);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(Signature { r: get_point(r)?, z: get_scalar(r)? })
    }
}

/// Dealer key generation.
pub fn keygen(params: ThresholdParams, rng: &mut dyn RngCore) -> (PublicKey, Vec<KeyShare>) {
    let x = Scalar::random(rng);
    let y = Point::mul_base(&x);
    let shares = shamir_share(&x, params, rng);
    let verification_keys: Vec<Point> =
        shares.iter().map(|(_, x_i)| Point::mul_base(x_i)).collect();
    let public = PublicKey { params, y, verification_keys };
    let key_shares = shares
        .into_iter()
        .map(|(id, x_i)| KeyShare { id, x_i, public: public.clone() })
        .collect();
    (public, key_shares)
}

/// Round 1: generates one nonce pair and its commitment.
pub fn generate_nonce(key: &KeyShare, rng: &mut dyn RngCore) -> SigningNonce {
    let d = Scalar::random_nonzero(rng);
    let e = Scalar::random_nonzero(rng);
    let commitment = NonceCommitment {
        id: key.id,
        d_big: Point::mul_base(&d),
        e_big: Point::mul_base(&e),
    };
    SigningNonce { d, e, commitment }
}

/// FROST preprocessing: a batch of nonces generated ahead of time so
/// that later signing needs only one round (paper §3.5).
pub fn precompute_nonces(key: &KeyShare, count: usize, rng: &mut dyn RngCore) -> Vec<SigningNonce> {
    (0..count).map(|_| generate_nonce(key, rng)).collect()
}

fn encode_commitment_list(commitments: &[NonceCommitment]) -> Vec<u8> {
    let mut w = Writer::new();
    (commitments.len() as u32).encode(&mut w);
    for c in commitments {
        c.encode(&mut w);
    }
    w.into_bytes()
}

fn binding_factor(id: PartyId, message: &[u8], commitment_bytes: &[u8]) -> Scalar {
    hash_to_ed25519_scalar(
        D_BINDING,
        &[&id.value().to_le_bytes(), message, commitment_bytes],
    )
}

fn challenge(r: &Point, y: &Point, message: &[u8]) -> Scalar {
    hash_to_ed25519_scalar(D_CHALLENGE, &[&r.compress(), &y.compress(), message])
}

fn validate_signer_set(
    params: ThresholdParams,
    commitments: &[NonceCommitment],
) -> Result<Vec<PartyId>, SchemeError> {
    let ids: Vec<PartyId> = commitments.iter().map(|c| c.id).collect();
    let mut seen = std::collections::HashSet::new();
    for id in &ids {
        if id.value() == 0 || id.value() > params.n() {
            return Err(SchemeError::InvalidShareSet(format!(
                "party {} outside 1..={}",
                id.value(),
                params.n()
            )));
        }
        if !seen.insert(id.value()) {
            return Err(SchemeError::InvalidShareSet("duplicate commitment".into()));
        }
    }
    if ids.len() < params.quorum() as usize {
        return Err(SchemeError::NotEnoughShares {
            have: ids.len(),
            need: params.quorum() as usize,
        });
    }
    Ok(ids)
}

/// One signer of a [`SigningSet`] and the values every party derives
/// identically for it from the commitment list.
struct Member {
    commitment: NonceCommitment,
    lambda: Scalar,
    rho: Scalar,
    /// The binding term `B_j = D_j · E_j^{ρ_j}`.
    binding: Point,
}

/// Everything round 2 derives from `(pk, message, commitments)`: the
/// validated signers with their Lagrange coefficients `λ_j`, binding
/// factors `ρ_j` and binding terms `B_j = D_j·E_j^{ρ_j}`, the group nonce
/// `R = Σ B_j` and the challenge `c = H(R, Y, m)`.
///
/// Building it costs one variable-base multiplication per signer; after
/// that signing is scalar arithmetic, verifying a response is one base
/// and one variable-base multiplication, and combining verified
/// responses is one Schnorr check.
pub struct SigningSet {
    members: Vec<Member>,
    y: Point,
    r: Point,
    c: Scalar,
}

impl SigningSet {
    /// Derives the signing set of `message` under `commitments`.
    ///
    /// # Errors
    ///
    /// - [`SchemeError::InvalidShareSet`] for a party outside `1..=n` or
    ///   a duplicate commitment.
    /// - [`SchemeError::NotEnoughShares`] when the set is below quorum.
    pub fn new(
        pk: &PublicKey,
        message: &[u8],
        commitments: &[NonceCommitment],
    ) -> Result<SigningSet, SchemeError> {
        let ids = validate_signer_set(pk.params, commitments)?;
        let lambdas = lagrange_coeffs_at_zero::<Scalar>(&ids)?;
        let bytes = encode_commitment_list(commitments);
        let mut r = Point::identity();
        let members = commitments
            .iter()
            .zip(lambdas)
            .map(|(commitment, lambda)| {
                let rho = binding_factor(commitment.id, message, &bytes);
                let binding = commitment.d_big.add(&commitment.e_big.mul(&rho));
                r = r.add(&binding);
                Member { commitment: commitment.clone(), lambda, rho, binding }
            })
            .collect();
        let c = challenge(&r, &pk.y, message);
        Ok(SigningSet { members, y: pk.y, r, c })
    }

    fn member(&self, party: PartyId) -> Option<&Member> {
        self.members.iter().find(|m| m.commitment.id == party)
    }

    /// True when `party` committed to this set.
    pub fn contains(&self, party: PartyId) -> bool {
        self.member(party).is_some()
    }

    /// Round 2: this party's response `z_i = d_i + e_i·ρ_i + λ_i·x_i·c`.
    /// Consumes (and so wipes) the nonce.
    ///
    /// # Errors
    ///
    /// [`SchemeError::InvalidShareSet`] when this party's commitment is
    /// missing from the set or is not the nonce's.
    pub fn sign_share(
        &self,
        key: &KeyShare,
        nonce: SigningNonce,
    ) -> Result<SignatureShare, SchemeError> {
        let own = self
            .member(key.id)
            .ok_or_else(|| SchemeError::InvalidShareSet("own commitment missing".into()))?;
        if own.commitment != nonce.commitment {
            return Err(SchemeError::InvalidShareSet(
                "commitment list does not contain this nonce".into(),
            ));
        }
        let z_i = nonce
            .d
            .add(&nonce.e.mul(&own.rho))
            .add(&own.lambda.mul(&key.x_i).mul(&self.c));
        Ok(SignatureShare { id: key.id, z_i })
    }

    /// Verifies a response from a member of the set:
    /// `g^{z_i} == B_i · Y_i^{λ_i·c}`. `pk` must be the key the set was
    /// built under.
    pub fn verify_share(&self, pk: &PublicKey, share: &SignatureShare) -> bool {
        let (Some(member), Some(vk)) = (self.member(share.id), pk.verification_key(share.id))
        else {
            return false;
        };
        Point::mul_base(&share.z_i) == member.binding.add(&vk.mul(&member.lambda.mul(&self.c)))
    }

    /// Aggregates responses that were **already verified** with
    /// [`Self::verify_share`] into a Schnorr signature: sums the `z_i`
    /// and checks the result like [`verify`].
    ///
    /// # Errors
    ///
    /// - [`SchemeError::InvalidShareSet`] unless there is exactly one
    ///   response per member.
    /// - [`SchemeError::InvalidSignature`] if the aggregate fails (cannot
    ///   happen when every response verified).
    pub fn combine_preverified(&self, shares: &[SignatureShare]) -> Result<Signature, SchemeError> {
        self.check_responses(shares)?;
        let z = shares.iter().fold(Scalar::zero(), |z, share| z.add(&share.z_i));
        let sig = Signature { r: self.r, z };
        if !schnorr_holds(&sig, &self.y, &self.c) {
            return Err(SchemeError::InvalidSignature);
        }
        Ok(sig)
    }

    /// FROST requires exactly one response from *every* committed signer.
    fn check_responses(&self, shares: &[SignatureShare]) -> Result<(), SchemeError> {
        if shares.len() != self.members.len() {
            return Err(SchemeError::InvalidShareSet(format!(
                "{} responses for {} commitments",
                shares.len(),
                self.members.len()
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for share in shares {
            if !self.contains(share.id) {
                return Err(SchemeError::InvalidShareSet(format!(
                    "response from non-committed party {}",
                    share.id.value()
                )));
            }
            if !seen.insert(share.id) {
                return Err(SchemeError::InvalidShareSet(format!(
                    "duplicate response from party {}",
                    share.id.value()
                )));
            }
        }
        Ok(())
    }
}

/// Round 2: produces this party's response. Consumes the nonce.
/// Derives the signing set afresh; a caller that signs, verifies and
/// combines under one set builds a [`SigningSet`] once instead.
///
/// # Errors
///
/// - [`SchemeError::InvalidShareSet`] for malformed signing sets or when
///   this party's commitment is missing/mismatched.
/// - [`SchemeError::NotEnoughShares`] when the signing set is below quorum.
pub fn sign_share(
    key: &KeyShare,
    nonce: SigningNonce,
    message: &[u8],
    commitments: &[NonceCommitment],
) -> Result<SignatureShare, SchemeError> {
    SigningSet::new(&key.public, message, commitments)?.sign_share(key, nonce)
}

/// Verifies a round-2 response against the signing set:
/// `g^{z_i} == D_i · E_i^{ρ_i} · Y_i^{λ_i·c}`. Derives the signing set
/// afresh (see [`SigningSet::verify_share`]).
pub fn verify_share(
    pk: &PublicKey,
    message: &[u8],
    commitments: &[NonceCommitment],
    share: &SignatureShare,
) -> bool {
    SigningSet::new(pk, message, commitments).is_ok_and(|set| set.verify_share(pk, share))
}

/// Verifies every response, then aggregates them into a Schnorr
/// signature. **Aborts** (errors) on any invalid share — FROST is not
/// robust; re-run with a new signing set after excluding the culprit.
///
/// # Errors
///
/// - [`SchemeError::InvalidShare`] identifying the misbehaving party.
/// - [`SchemeError::InvalidShareSet`] when shares don't match the
///   commitment list exactly.
/// - [`SchemeError::InvalidSignature`] if the aggregate fails (cannot
///   happen when all shares verified).
pub fn combine(
    pk: &PublicKey,
    message: &[u8],
    commitments: &[NonceCommitment],
    shares: &[SignatureShare],
) -> Result<Signature, SchemeError> {
    let set = SigningSet::new(pk, message, commitments)?;
    set.check_responses(shares)?;
    for share in shares {
        if !set.verify_share(pk, share) {
            return Err(SchemeError::InvalidShare { party: share.id.value() });
        }
    }
    set.combine_preverified(shares)
}

/// Standard Schnorr verification: `g^z == R · Y^c`.
pub fn verify(pk: &PublicKey, message: &[u8], sig: &Signature) -> bool {
    schnorr_holds(sig, &pk.y, &challenge(&sig.r, &pk.y, message))
}

fn schnorr_holds(sig: &Signature, y: &Point, c: &Scalar) -> bool {
    Point::mul_base(&sig.z) == sig.r.add(&y.mul(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x6020)
    }

    fn setup(t: u16, n: u16) -> (PublicKey, Vec<KeyShare>, rand::rngs::StdRng) {
        let mut r = rng();
        let params = ThresholdParams::new(t, n).unwrap();
        let (pk, keys) = keygen(params, &mut r);
        (pk, keys, r)
    }

    fn run_signing(
        pk: &PublicKey,
        keys: &[&KeyShare],
        msg: &[u8],
        r: &mut rand::rngs::StdRng,
    ) -> Signature {
        let nonces: Vec<SigningNonce> = keys.iter().map(|k| generate_nonce(k, r)).collect();
        let commits: Vec<NonceCommitment> =
            nonces.iter().map(|n| n.commitment().clone()).collect();
        let shares: Vec<SignatureShare> = keys
            .iter()
            .zip(nonces)
            .map(|(k, n)| sign_share(k, n, msg, &commits).unwrap())
            .collect();
        combine(pk, msg, &commits, &shares).unwrap()
    }

    #[test]
    fn two_round_signing() {
        let (pk, keys, mut r) = setup(1, 4);
        let signers = [&keys[0], &keys[2]];
        let sig = run_signing(&pk, &signers, b"frost message", &mut r);
        assert!(verify(&pk, b"frost message", &sig));
        assert!(!verify(&pk, b"other", &sig));
    }

    #[test]
    fn larger_signing_sets_work() {
        let (pk, keys, mut r) = setup(2, 7);
        // Exactly quorum.
        let signers: Vec<&KeyShare> = keys[..3].iter().collect();
        let sig = run_signing(&pk, &signers, b"m", &mut r);
        assert!(verify(&pk, b"m", &sig));
        // More than quorum.
        let signers: Vec<&KeyShare> = keys[1..6].iter().collect();
        let sig = run_signing(&pk, &signers, b"m", &mut r);
        assert!(verify(&pk, b"m", &sig));
    }

    #[test]
    fn precomputation_single_round() {
        // Round 1 happens ahead of time; signing consumes stock nonces.
        let (pk, keys, mut r) = setup(1, 4);
        let mut batch_0 = precompute_nonces(&keys[0], 3, &mut r);
        let mut batch_1 = precompute_nonces(&keys[1], 3, &mut r);
        for round in 0u64..3 {
            let msg = round.to_le_bytes();
            let n0 = batch_0.pop().unwrap();
            let n1 = batch_1.pop().unwrap();
            let commits = vec![n0.commitment().clone(), n1.commitment().clone()];
            let s0 = sign_share(&keys[0], n0, &msg, &commits).unwrap();
            let s1 = sign_share(&keys[1], n1, &msg, &commits).unwrap();
            let sig = combine(&pk, &msg, &commits, &[s0, s1]).unwrap();
            assert!(verify(&pk, &msg, &sig));
        }
    }

    #[test]
    fn bad_share_aborts_with_culprit() {
        let (pk, keys, mut r) = setup(1, 4);
        let n0 = generate_nonce(&keys[0], &mut r);
        let n1 = generate_nonce(&keys[1], &mut r);
        let commits = vec![n0.commitment().clone(), n1.commitment().clone()];
        let s0 = sign_share(&keys[0], n0, b"m", &commits).unwrap();
        let mut s1 = sign_share(&keys[1], n1, b"m", &commits).unwrap();
        s1.z_i = s1.z_i.add(&Scalar::one()); // party 2 misbehaves
        assert!(matches!(
            combine(&pk, b"m", &commits, &[s0, s1]),
            Err(SchemeError::InvalidShare { party: 2 })
        ));
    }

    #[test]
    fn missing_response_aborts() {
        // Non-robustness: all committed signers must respond.
        let (pk, keys, mut r) = setup(1, 4);
        let n0 = generate_nonce(&keys[0], &mut r);
        let n1 = generate_nonce(&keys[1], &mut r);
        let n2 = generate_nonce(&keys[2], &mut r);
        let commits = vec![
            n0.commitment().clone(),
            n1.commitment().clone(),
            n2.commitment().clone(),
        ];
        let s0 = sign_share(&keys[0], n0, b"m", &commits).unwrap();
        let s1 = sign_share(&keys[1], n1, b"m", &commits).unwrap();
        drop(n2); // party 3 never responds
        assert!(matches!(
            combine(&pk, b"m", &commits, &[s0, s1]),
            Err(SchemeError::InvalidShareSet(_))
        ));
    }

    #[test]
    fn signing_below_quorum_rejected() {
        let (_pk, keys, mut r) = setup(2, 7);
        let n0 = generate_nonce(&keys[0], &mut r);
        let commits = vec![n0.commitment().clone()];
        assert!(matches!(
            sign_share(&keys[0], n0, b"m", &commits),
            Err(SchemeError::NotEnoughShares { .. })
        ));
    }

    #[test]
    fn foreign_nonce_rejected() {
        let (_pk, keys, mut r) = setup(1, 4);
        let n0 = generate_nonce(&keys[0], &mut r);
        let n0_other = generate_nonce(&keys[0], &mut r);
        let n1 = generate_nonce(&keys[1], &mut r);
        // Commitment list contains a *different* nonce for party 1.
        let commits = vec![n0_other.commitment().clone(), n1.commitment().clone()];
        assert!(matches!(
            sign_share(&keys[0], n0, b"m", &commits),
            Err(SchemeError::InvalidShareSet(_))
        ));
    }

    #[test]
    fn share_verification_identifies_forgery() {
        let (pk, keys, mut r) = setup(1, 4);
        let n0 = generate_nonce(&keys[0], &mut r);
        let n1 = generate_nonce(&keys[1], &mut r);
        let commits = vec![n0.commitment().clone(), n1.commitment().clone()];
        let s0 = sign_share(&keys[0], n0, b"m", &commits).unwrap();
        assert!(verify_share(&pk, b"m", &commits, &s0));
        assert!(!verify_share(&pk, b"other-msg", &commits, &s0));
        let forged = SignatureShare { id: PartyId(2), z_i: s0.z_i.clone() };
        assert!(!verify_share(&pk, b"m", &commits, &forged));
    }

    #[test]
    fn duplicate_commitments_rejected() {
        let (pk, keys, mut r) = setup(1, 4);
        let n0 = generate_nonce(&keys[0], &mut r);
        let commits = vec![n0.commitment().clone(), n0.commitment().clone()];
        assert!(validate_signer_set(pk.params, &commits).is_err());
    }

    #[test]
    fn codec_roundtrips() {
        let (pk, keys, mut r) = setup(1, 4);
        assert_eq!(PublicKey::decoded(&pk.encoded()).unwrap(), pk);
        let n = generate_nonce(&keys[0], &mut r);
        let c = n.commitment().clone();
        assert_eq!(NonceCommitment::decoded(&c.encoded()).unwrap(), c);
        let n1 = generate_nonce(&keys[1], &mut r);
        let commits = vec![c, n1.commitment().clone()];
        let s = sign_share(&keys[0], n, b"m", &commits).unwrap();
        assert_eq!(SignatureShare::decoded(&s.encoded()).unwrap(), s);
        let s1 = sign_share(&keys[1], n1, b"m", &commits).unwrap();
        let sig = combine(&pk, b"m", &commits, &[s, s1]).unwrap();
        assert_eq!(Signature::decoded(&sig.encoded()).unwrap(), sig);
    }
}
