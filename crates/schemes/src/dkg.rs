//! Distributed key generation (Pedersen/joint-Feldman) over Ed25519.
//!
//! The paper's §2.2 names two setup paths: a trusted dealer (used by the
//! evaluation, §4.4) or "a distributed key-generation protocol [37, 27],
//! which is run by the parties themselves — more secure but arguably
//! more complex". This module implements that alternative for the
//! Ed25519-based schemes (SG02, KG20, CKS05): each party deals a random
//! secret with a Feldman commitment, shares are exchanged and verified
//! against the commitments, and the group key is the sum of the
//! qualified dealers' polynomials — no single party ever knows `x`.
//!
//! The protocol here is the synchronous, abort-on-misbehaviour variant
//! (complaints identify the culprit; the caller restarts without them),
//! which matches the trust model of the rest of the suite.
//!
//! # Example
//!
//! ```
//! use theta_schemes::common::ThresholdParams;
//! use theta_schemes::dkg;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = ThresholdParams::new(1, 4).unwrap();
//! let outputs = dkg::run_locally(params, &mut rng).unwrap();
//! // Every party derived the same group key.
//! assert!(outputs.iter().all(|o| o.group_key() == outputs[0].group_key()));
//! ```

use crate::common::{PartyId, ThresholdParams};
use crate::error::SchemeError;
use crate::wire::{get_point, get_scalar, put_point, put_scalar};
use rand::RngCore;
use std::collections::BTreeMap;
use theta_codec::{Decode, Encode, Reader, Writer};
use theta_math::ed25519::{Point, Scalar};

/// A dealer's public Feldman commitment: `C_k = g^{a_k}` for every
/// coefficient of its sharing polynomial (degree `t`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Commitment {
    dealer: PartyId,
    coefficients: Vec<Point>,
}

impl Commitment {
    /// The dealing party.
    pub fn dealer(&self) -> PartyId {
        self.dealer
    }

    /// The dealer's contribution to the group public key (`g^{a_0}`).
    pub fn constant_term(&self) -> &Point {
        &self.coefficients[0]
    }

    /// Evaluates the commitment polynomial "in the exponent" at `x = id`:
    /// `Π C_k^{id^k} = g^{f(id)}`.
    pub fn eval_exponent(&self, id: PartyId) -> Point {
        let x = Scalar::from_u64(id.value() as u64);
        let mut acc = Point::identity();
        let mut power = Scalar::one();
        for c in &self.coefficients {
            acc = acc.add(&c.mul(&power));
            power = power.mul(&x);
        }
        acc
    }
}

impl Encode for Commitment {
    fn encode(&self, w: &mut Writer) {
        self.dealer.encode(w);
        (self.coefficients.len() as u32).encode(w);
        for c in &self.coefficients {
            put_point(w, c);
        }
    }
}

impl Decode for Commitment {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        let dealer = PartyId::decode(r)?;
        let count = u32::decode(r)? as usize;
        if count == 0 || count > u16::MAX as usize {
            return Err(theta_codec::CodecError::InvalidValue("bad degree".into()));
        }
        let mut coefficients = Vec::with_capacity(count);
        for _ in 0..count {
            coefficients.push(get_point(r)?);
        }
        Ok(Commitment { dealer, coefficients })
    }
}

/// A share of one dealer's polynomial, destined for one receiver
/// (sent over an authenticated private channel in a real deployment).
///
/// Deliberately *not* `PartialEq`: the share value is secret material,
/// and a derived `==` would short-circuit on the first differing limb.
/// Compare with [`DealtShare::ct_eq`].
#[derive(Clone)]
pub struct DealtShare {
    dealer: PartyId,
    receiver: PartyId,
    value: Scalar,
}

impl DealtShare {
    /// The dealing party.
    pub fn dealer(&self) -> PartyId {
        self.dealer
    }

    /// The receiving party.
    pub fn receiver(&self) -> PartyId {
        self.receiver
    }

    /// Constant-time comparison: routing fields must match and the
    /// share values are compared without short-circuiting.
    #[must_use]
    pub fn ct_eq(&self, other: &DealtShare) -> bool {
        self.dealer == other.dealer
            && self.receiver == other.receiver
            && self.value.ct_eq(&other.value)
    }
}

/// Redacted: only the routing metadata is printed, never the share.
impl std::fmt::Debug for DealtShare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DealtShare")
            .field("dealer", &self.dealer)
            .field("receiver", &self.receiver)
            .field("value", &"<redacted>")
            .finish_non_exhaustive()
    }
}

/// On drop the share value is volatile-wiped so private-channel payloads
/// never linger in freed memory.
impl Drop for DealtShare {
    fn drop(&mut self) {
        self.value.wipe();
    }
}

impl Encode for DealtShare {
    fn encode(&self, w: &mut Writer) {
        self.dealer.encode(w);
        self.receiver.encode(w);
        put_scalar(w, &self.value);
    }
}

impl Decode for DealtShare {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(DealtShare {
            dealer: PartyId::decode(r)?,
            receiver: PartyId::decode(r)?,
            value: get_scalar(r)?,
        })
    }
}

/// One party's dealing: the broadcastable commitment plus the private
/// shares for every party (including itself).
#[derive(Debug)]
pub struct Dealing {
    /// Public part (broadcast to everyone).
    pub commitment: Commitment,
    /// Private shares, one per party, indexed by receiver.
    pub shares: Vec<DealtShare>,
}

/// Creates this party's dealing: a random degree-`t` polynomial with
/// commitment and per-party shares.
pub fn deal(params: ThresholdParams, dealer: PartyId, rng: &mut dyn RngCore) -> Dealing {
    let coeffs: Vec<Scalar> = (0..=params.t()).map(|_| Scalar::random(rng)).collect();
    let commitment = Commitment {
        dealer,
        coefficients: coeffs.iter().map(Point::mul_base).collect(),
    };
    let shares = params
        .parties()
        .map(|receiver| {
            let x = Scalar::from_u64(receiver.value() as u64);
            let mut acc = Scalar::zero();
            for c in coeffs.iter().rev() {
                acc = acc.mul(&x).add(c);
            }
            DealtShare { dealer, receiver, value: acc }
        })
        .collect();
    Dealing { commitment, shares }
}

/// Verifies one received share against its dealer's commitment:
/// `g^{share} == Π C_k^{i^k}`.
pub fn verify_dealt_share(commitment: &Commitment, share: &DealtShare) -> bool {
    commitment.dealer == share.dealer
        && Point::mul_base(&share.value) == commitment.eval_exponent(share.receiver)
}

/// The output of a completed DKG at one party.
#[derive(Clone)]
pub struct DkgOutput {
    params: ThresholdParams,
    id: PartyId,
    /// This party's share of the never-materialized group secret.
    secret_share: Scalar,
    /// The group public key `g^x`.
    group_key: Point,
    /// Verification keys `g^{x_i}` for every party.
    verification_keys: Vec<Point>,
}

impl DkgOutput {
    /// Threshold parameters.
    pub fn params(&self) -> ThresholdParams {
        self.params
    }

    /// This party.
    pub fn id(&self) -> PartyId {
        self.id
    }

    /// This party's secret share `x_i`.
    pub fn secret_share(&self) -> &Scalar {
        &self.secret_share
    }

    /// The group public key.
    pub fn group_key(&self) -> &Point {
        &self.group_key
    }

    /// The verification key of `party`.
    pub fn verification_key(&self, party: PartyId) -> Option<&Point> {
        self.verification_keys
            .get(party.value().checked_sub(1)? as usize)
    }
}

/// Redacted: the secret share never reaches logs or panic messages.
impl std::fmt::Debug for DkgOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DkgOutput")
            .field("params", &self.params)
            .field("id", &self.id)
            .field("secret_share", &"<redacted>")
            .field("group_key", &self.group_key)
            .finish_non_exhaustive()
    }
}

/// On drop the party's share of the group secret is volatile-wiped.
impl Drop for DkgOutput {
    fn drop(&mut self) {
        self.secret_share.wipe();
    }
}

/// Aggregates a full set of commitments and this party's received shares
/// into its DKG output.
///
/// All `n` dealers must appear exactly once (the abort-variant QUAL set
/// is the full party set; exclude misbehaving dealers and rerun with a
/// smaller `n` at the caller's level).
///
/// # Errors
///
/// - [`SchemeError::InvalidShare`] naming the dealer whose share fails
///   Feldman verification.
/// - [`SchemeError::InvalidShareSet`] for missing/duplicate dealers or
///   commitments of the wrong degree.
pub fn aggregate(
    params: ThresholdParams,
    me: PartyId,
    commitments: &[Commitment],
    my_shares: &[DealtShare],
) -> Result<DkgOutput, SchemeError> {
    // Validate the dealer sets.
    let expect = params.n() as usize;
    if commitments.len() != expect {
        return Err(SchemeError::InvalidShareSet(format!(
            "need commitments from all {expect} dealers, got {}",
            commitments.len()
        )));
    }
    let mut by_dealer: BTreeMap<u16, &Commitment> = BTreeMap::new();
    for c in commitments {
        if c.coefficients.len() != params.t() as usize + 1 {
            return Err(SchemeError::InvalidShareSet(format!(
                "dealer {} committed to degree {} (expected {})",
                c.dealer.value(),
                c.coefficients.len().saturating_sub(1),
                params.t()
            )));
        }
        if by_dealer.insert(c.dealer.value(), c).is_some() {
            return Err(SchemeError::InvalidShareSet("duplicate dealer commitment".into()));
        }
    }
    let mut shares: BTreeMap<u16, &DealtShare> = BTreeMap::new();
    for s in my_shares {
        if s.receiver != me {
            return Err(SchemeError::InvalidShareSet("share addressed to another party".into()));
        }
        if shares.insert(s.dealer.value(), s).is_some() {
            return Err(SchemeError::InvalidShareSet("duplicate dealt share".into()));
        }
    }
    if shares.len() != expect {
        return Err(SchemeError::InvalidShareSet(format!(
            "need shares from all {expect} dealers, got {}",
            shares.len()
        )));
    }

    // Feldman verification; a failure is a complaint against the dealer.
    let mut secret_share = Scalar::zero();
    let mut group_key = Point::identity();
    for (dealer_id, share) in &shares {
        let commitment = by_dealer.get(dealer_id).ok_or_else(|| {
            SchemeError::InvalidShareSet(format!("no commitment from dealer {dealer_id}"))
        })?;
        if !verify_dealt_share(commitment, share) {
            return Err(SchemeError::InvalidShare { party: *dealer_id });
        }
        secret_share = secret_share.add(&share.value);
        group_key = group_key.add(commitment.constant_term());
    }

    // Verification keys: g^{x_j} = Π_dealers g^{f_d(j)} from commitments.
    let verification_keys = params
        .parties()
        .map(|party| {
            let mut acc = Point::identity();
            for c in by_dealer.values() {
                acc = acc.add(&c.eval_exponent(party));
            }
            acc
        })
        .collect();

    Ok(DkgOutput {
        params,
        id: me,
        secret_share,
        group_key,
        verification_keys,
    })
}

/// Runs the whole DKG in-process (all parties simulated locally) —
/// useful for tests and for provisioning without a dealer.
///
/// # Errors
///
/// Propagates [`aggregate`] failures (cannot occur with honest local
/// execution).
pub fn run_locally(
    params: ThresholdParams,
    rng: &mut dyn RngCore,
) -> Result<Vec<DkgOutput>, SchemeError> {
    let dealings: Vec<Dealing> = params.parties().map(|id| deal(params, id, rng)).collect();
    let commitments: Vec<Commitment> =
        dealings.iter().map(|d| d.commitment.clone()).collect();
    params
        .parties()
        .map(|me| {
            let my_shares: Vec<DealtShare> = dealings
                .iter()
                .map(|d| d.shares[me.value() as usize - 1].clone())
                .collect();
            aggregate(params, me, &commitments, &my_shares)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Resharing (dealerless reconfiguration)
// ---------------------------------------------------------------------

/// One old party's resharing dealing: it re-deals its Lagrange-weighted
/// share contribution `λ_i·x_i` to the *new* party set under the new
/// threshold, with a Feldman commitment so new parties can verify.
///
/// This is the committee-reconfiguration primitive (cf. CHURP in the
/// paper's related work §5): the group secret and public key are
/// preserved while membership and threshold change, and the secret is
/// never reconstructed anywhere.
#[derive(Debug)]
pub struct ReshareDealing {
    /// Public commitment (the constant term commits to `λ_i·x_i`).
    pub commitment: Commitment,
    /// Private sub-shares for every *new* party.
    pub shares: Vec<DealtShare>,
}

/// Produces old party `old_id`'s resharing dealing toward `new_params`.
///
/// `old_quorum` is the fixed set of old parties participating in the
/// reshare (must contain `old_id` and have old-quorum size); every
/// participant must use the same set so the Lagrange weights line up.
///
/// # Errors
///
/// [`SchemeError::InvalidShareSet`] when `old_id ∉ old_quorum` or ids
/// collide.
pub fn reshare_deal(
    old_share: &Scalar,
    old_id: PartyId,
    old_quorum: &[PartyId],
    new_params: ThresholdParams,
    rng: &mut dyn RngCore,
) -> Result<ReshareDealing, SchemeError> {
    let lambda = crate::common::lagrange_at_zero::<Scalar>(old_id, old_quorum)?;
    let contribution = lambda.mul(old_share);
    // Degree-t' polynomial with g(0) = λ_i·x_i.
    let coeffs: Vec<Scalar> = std::iter::once(contribution)
        .chain((0..new_params.t()).map(|_| Scalar::random(rng)))
        .collect();
    let commitment = Commitment {
        dealer: old_id,
        coefficients: coeffs.iter().map(Point::mul_base).collect(),
    };
    let shares = new_params
        .parties()
        .map(|receiver| {
            let x = Scalar::from_u64(receiver.value() as u64);
            let mut acc = Scalar::zero();
            for c in coeffs.iter().rev() {
                acc = acc.mul(&x).add(c);
            }
            DealtShare { dealer: old_id, receiver, value: acc }
        })
        .collect();
    Ok(ReshareDealing { commitment, shares })
}

/// Aggregates resharing dealings at new party `me`.
///
/// `commitments` and `my_shares` must cover exactly the old quorum (one
/// dealing per old participant). `expected_group_key` pins the old group
/// key: the sum of constant terms must reproduce it, which defeats a
/// colluding old quorum trying to swap in a different secret.
///
/// # Errors
///
/// - [`SchemeError::InvalidShare`] naming a cheating old party.
/// - [`SchemeError::KeyMismatch`] when the dealings do not reconstitute
///   the expected group key.
/// - [`SchemeError::InvalidShareSet`] for malformed dealing sets.
pub fn reshare_aggregate(
    new_params: ThresholdParams,
    me: PartyId,
    commitments: &[Commitment],
    my_shares: &[DealtShare],
    expected_group_key: &Point,
) -> Result<DkgOutput, SchemeError> {
    if commitments.is_empty() || commitments.len() != my_shares.len() {
        return Err(SchemeError::InvalidShareSet(
            "need matching commitment/share sets from the old quorum".into(),
        ));
    }
    let mut by_dealer: BTreeMap<u16, &Commitment> = BTreeMap::new();
    for c in commitments {
        if c.coefficients.len() != new_params.t() as usize + 1 {
            return Err(SchemeError::InvalidShareSet("wrong reshare degree".into()));
        }
        if by_dealer.insert(c.dealer.value(), c).is_some() {
            return Err(SchemeError::InvalidShareSet("duplicate resharer".into()));
        }
    }
    let mut secret_share = Scalar::zero();
    let mut group_key = Point::identity();
    let mut seen = std::collections::HashSet::new();
    for share in my_shares {
        if share.receiver != me {
            return Err(SchemeError::InvalidShareSet(
                "sub-share addressed to another party".into(),
            ));
        }
        if !seen.insert(share.dealer.value()) {
            return Err(SchemeError::InvalidShareSet("duplicate sub-share".into()));
        }
        let commitment = by_dealer.get(&share.dealer.value()).ok_or_else(|| {
            SchemeError::InvalidShareSet(format!(
                "no commitment from resharer {}",
                share.dealer.value()
            ))
        })?;
        if !verify_dealt_share(commitment, share) {
            return Err(SchemeError::InvalidShare { party: share.dealer.value() });
        }
        secret_share = secret_share.add(&share.value);
        group_key = group_key.add(commitment.constant_term());
    }
    if &group_key != expected_group_key {
        return Err(SchemeError::KeyMismatch(
            "reshared dealings do not reproduce the group key".into(),
        ));
    }
    let verification_keys = new_params
        .parties()
        .map(|party| {
            let mut acc = Point::identity();
            for c in by_dealer.values() {
                acc = acc.add(&c.eval_exponent(party));
            }
            acc
        })
        .collect();
    Ok(DkgOutput {
        params: new_params,
        id: me,
        secret_share,
        group_key,
        verification_keys,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{lagrange_at_zero, shamir_reconstruct};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xd6c)
    }

    #[test]
    fn all_parties_agree_on_keys() {
        let mut r = rng();
        let params = ThresholdParams::new(2, 7).unwrap();
        let outputs = run_locally(params, &mut r).unwrap();
        for o in &outputs[1..] {
            assert_eq!(o.group_key(), outputs[0].group_key());
            for p in params.parties() {
                assert_eq!(o.verification_key(p), outputs[0].verification_key(p));
            }
        }
        // Verification keys match the secret shares.
        for o in &outputs {
            assert_eq!(
                &Point::mul_base(o.secret_share()),
                outputs[0].verification_key(o.id()).unwrap()
            );
        }
    }

    #[test]
    fn shares_reconstruct_group_secret() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let outputs = run_locally(params, &mut r).unwrap();
        // Reconstruct x from a quorum and check g^x == group key.
        let quorum: Vec<(PartyId, Scalar)> = outputs[..2]
            .iter()
            .map(|o| (o.id(), o.secret_share().clone()))
            .collect();
        let x = shamir_reconstruct(&quorum).unwrap();
        assert_eq!(&Point::mul_base(&x), outputs[0].group_key());
        // A different quorum reconstructs the same secret.
        let quorum2: Vec<(PartyId, Scalar)> = outputs[2..]
            .iter()
            .map(|o| (o.id(), o.secret_share().clone()))
            .collect();
        assert_eq!(shamir_reconstruct(&quorum2).unwrap(), x);
    }

    #[test]
    fn feldman_catches_bad_share() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let dealing = deal(params, PartyId(2), &mut r);
        let good = &dealing.shares[0];
        assert!(verify_dealt_share(&dealing.commitment, good));
        let bad = DealtShare {
            dealer: good.dealer,
            receiver: good.receiver,
            value: good.value.add(&Scalar::one()),
        };
        assert!(!verify_dealt_share(&dealing.commitment, &bad));
    }

    #[test]
    fn aggregate_identifies_cheating_dealer() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let dealings: Vec<Dealing> =
            params.parties().map(|id| deal(params, id, &mut r)).collect();
        let commitments: Vec<Commitment> =
            dealings.iter().map(|d| d.commitment.clone()).collect();
        // Dealer 3 sends party 1 a corrupted share.
        let mut my_shares: Vec<DealtShare> = dealings
            .iter()
            .map(|d| d.shares[0].clone())
            .collect();
        my_shares[2].value = my_shares[2].value.add(&Scalar::one());
        let err = aggregate(params, PartyId(1), &commitments, &my_shares).unwrap_err();
        assert_eq!(err, SchemeError::InvalidShare { party: 3 });
    }

    #[test]
    fn aggregate_rejects_malformed_sets() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let dealings: Vec<Dealing> =
            params.parties().map(|id| deal(params, id, &mut r)).collect();
        let commitments: Vec<Commitment> =
            dealings.iter().map(|d| d.commitment.clone()).collect();
        let my_shares: Vec<DealtShare> =
            dealings.iter().map(|d| d.shares[0].clone()).collect();

        // Missing a commitment.
        assert!(aggregate(params, PartyId(1), &commitments[..3], &my_shares).is_err());
        // Duplicate dealer.
        let mut dup = commitments.clone();
        dup[3] = dup[0].clone();
        assert!(aggregate(params, PartyId(1), &dup, &my_shares).is_err());
        // Share addressed to someone else.
        let foreign: Vec<DealtShare> =
            dealings.iter().map(|d| d.shares[1].clone()).collect();
        assert!(aggregate(params, PartyId(1), &commitments, &foreign).is_err());
        // Wrong-degree commitment.
        let mut short = commitments.clone();
        short[0].coefficients.pop();
        assert!(aggregate(params, PartyId(1), &short, &my_shares).is_err());
    }

    #[test]
    fn dkg_keys_drive_cks05_style_signing() {
        // The DKG output slots straight into the DLEQ-based flows: prove
        // a coin share under the DKG verification keys.
        use crate::dleq::DleqProof;
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let outputs = run_locally(params, &mut r).unwrap();
        let o = &outputs[0];
        let g_tilde = crate::hashing::hash_to_ed25519("dkg-test", &[b"coin"]);
        let sigma = g_tilde.mul(o.secret_share());
        let proof = DleqProof::prove(
            "dkg-test/share",
            &Point::base(),
            o.verification_key(o.id()).unwrap(),
            &g_tilde,
            &sigma,
            o.secret_share(),
            &mut r,
        );
        assert!(proof.verify(
            "dkg-test/share",
            &Point::base(),
            o.verification_key(o.id()).unwrap(),
            &g_tilde,
            &sigma,
        ));
    }

    #[test]
    fn lagrange_consistency_with_dkg_vks() {
        // Interpolating verification keys in the exponent over any quorum
        // yields the group key: Π vk_i^{λ_i} == g^x.
        let mut r = rng();
        let params = ThresholdParams::new(2, 7).unwrap();
        let outputs = run_locally(params, &mut r).unwrap();
        let ids: Vec<PartyId> = outputs[2..5].iter().map(|o| o.id()).collect();
        let mut acc = Point::identity();
        for o in &outputs[2..5] {
            let l = lagrange_at_zero::<Scalar>(o.id(), &ids).unwrap();
            acc = acc.add(&outputs[0].verification_key(o.id()).unwrap().mul(&l));
        }
        assert_eq!(&acc, outputs[0].group_key());
    }

    #[test]
    fn codec_roundtrips() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let dealing = deal(params, PartyId(1), &mut r);
        let c = dealing.commitment.clone();
        assert_eq!(Commitment::decoded(&c.encoded()).unwrap(), c);
        let s = dealing.shares[2].clone();
        assert!(DealtShare::decoded(&s.encoded()).unwrap().ct_eq(&s));
    }

    /// Runs a full reshare from `old` outputs (quorum subset) to a new
    /// (t', n') configuration; returns the new outputs.
    fn run_reshare(
        old: &[DkgOutput],
        new_params: ThresholdParams,
        r: &mut rand::rngs::StdRng,
    ) -> Result<Vec<DkgOutput>, SchemeError> {
        let old_quorum: Vec<PartyId> = old.iter().map(|o| o.id()).collect();
        let dealings: Vec<ReshareDealing> = old
            .iter()
            .map(|o| {
                reshare_deal(o.secret_share(), o.id(), &old_quorum, new_params, r).unwrap()
            })
            .collect();
        let commitments: Vec<Commitment> =
            dealings.iter().map(|d| d.commitment.clone()).collect();
        new_params
            .parties()
            .map(|me| {
                let my_shares: Vec<DealtShare> = dealings
                    .iter()
                    .map(|d| d.shares[me.value() as usize - 1].clone())
                    .collect();
                reshare_aggregate(new_params, me, &commitments, &my_shares, old[0].group_key())
            })
            .collect()
    }

    #[test]
    fn reshare_preserves_secret_and_group_key() {
        let mut r = rng();
        let old_params = ThresholdParams::new(1, 4).unwrap();
        let old = run_locally(old_params, &mut r).unwrap();
        let old_secret = shamir_reconstruct(
            &old[..2]
                .iter()
                .map(|o| (o.id(), o.secret_share().clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();

        // Grow the committee: 2-of-4 → 3-of-7, resharing from a quorum.
        let new_params = ThresholdParams::new(2, 7).unwrap();
        let new = run_reshare(&old[1..3], new_params, &mut r).unwrap();

        // Group key unchanged; every new node agrees.
        for o in &new {
            assert_eq!(o.group_key(), old[0].group_key());
        }
        // New shares reconstruct the same secret under the new threshold.
        let new_secret = shamir_reconstruct(
            &new[2..5]
                .iter()
                .map(|o| (o.id(), o.secret_share().clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(new_secret.ct_eq(&old_secret), "reshared secret changed");
        // Verification keys are consistent with the new shares.
        for o in &new {
            assert_eq!(
                &Point::mul_base(o.secret_share()),
                new[0].verification_key(o.id()).unwrap()
            );
        }
    }

    #[test]
    fn reshare_can_shrink_committee() {
        let mut r = rng();
        let old = run_locally(ThresholdParams::new(2, 7).unwrap(), &mut r).unwrap();
        let new_params = ThresholdParams::new(1, 4).unwrap();
        let new = run_reshare(&old[2..5], new_params, &mut r).unwrap();
        assert_eq!(new[0].group_key(), old[0].group_key());
        let old_secret = shamir_reconstruct(
            &old[..3]
                .iter()
                .map(|o| (o.id(), o.secret_share().clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let new_secret = shamir_reconstruct(
            &new[..2]
                .iter()
                .map(|o| (o.id(), o.secret_share().clone()))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(new_secret.ct_eq(&old_secret), "reshared secret changed");
    }

    #[test]
    fn reshare_detects_cheating_old_party() {
        let mut r = rng();
        let old = run_locally(ThresholdParams::new(1, 4).unwrap(), &mut r).unwrap();
        let new_params = ThresholdParams::new(1, 4).unwrap();
        let old_quorum: Vec<PartyId> = old[..2].iter().map(|o| o.id()).collect();
        let mut dealings: Vec<ReshareDealing> = old[..2]
            .iter()
            .map(|o| {
                reshare_deal(o.secret_share(), o.id(), &old_quorum, new_params, &mut r).unwrap()
            })
            .collect();
        // Old party 2 corrupts the sub-share it sends to new party 1.
        dealings[1].shares[0].value = dealings[1].shares[0].value.add(&Scalar::one());
        let commitments: Vec<Commitment> =
            dealings.iter().map(|d| d.commitment.clone()).collect();
        let my_shares: Vec<DealtShare> =
            dealings.iter().map(|d| d.shares[0].clone()).collect();
        let err = reshare_aggregate(
            new_params,
            PartyId(1),
            &commitments,
            &my_shares,
            old[0].group_key(),
        )
        .unwrap_err();
        assert_eq!(err, SchemeError::InvalidShare { party: 2 });
    }

    #[test]
    fn reshare_rejects_wrong_group_key() {
        let mut r = rng();
        let old = run_locally(ThresholdParams::new(1, 4).unwrap(), &mut r).unwrap();
        let new_params = ThresholdParams::new(1, 4).unwrap();
        let old_quorum: Vec<PartyId> = old[..2].iter().map(|o| o.id()).collect();
        let dealings: Vec<ReshareDealing> = old[..2]
            .iter()
            .map(|o| {
                reshare_deal(o.secret_share(), o.id(), &old_quorum, new_params, &mut r).unwrap()
            })
            .collect();
        let commitments: Vec<Commitment> =
            dealings.iter().map(|d| d.commitment.clone()).collect();
        let my_shares: Vec<DealtShare> =
            dealings.iter().map(|d| d.shares[0].clone()).collect();
        // A different expected group key is rejected.
        let wrong = Point::mul_base(&Scalar::from_u64(9));
        assert!(matches!(
            reshare_aggregate(new_params, PartyId(1), &commitments, &my_shares, &wrong),
            Err(SchemeError::KeyMismatch(_))
        ));
    }

    #[test]
    fn reshare_requires_consistent_quorum() {
        let mut r = rng();
        let old = run_locally(ThresholdParams::new(1, 4).unwrap(), &mut r).unwrap();
        let new_params = ThresholdParams::new(1, 4).unwrap();
        // Dealer not in the declared quorum.
        let bad_quorum = vec![PartyId(2), PartyId(3)];
        assert!(reshare_deal(
            old[0].secret_share(),
            old[0].id(),
            &bad_quorum,
            new_params,
            &mut r
        )
        .is_err());
    }
}
