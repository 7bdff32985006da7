//! Cross-instance batch verification.
//!
//! PR 2 batched share verification *within* one protocol instance; this
//! module batches it *across* concurrent instances. A share's validity
//! check is captured as a self-contained [`PendingCheck`] — the statement
//! plus the proof, with no borrow of the originating instance — so the
//! orchestration layer can gather checks from many in-flight requests and
//! settle them together:
//!
//! - all Ed25519 DLEQ proofs (SG02 decryption shares *and* CKS05 coin
//!   shares, each under its own Fiat–Shamir domain) fold into one
//!   multi-scalar multiplication via [`DleqProof::verify_batch_mixed`];
//! - all BN254 pairing checks (BLS04 partial signatures and BZ03
//!   decryption shares) fold into one pairing product sharing a single
//!   multi-Miller loop and final exponentiation via
//!   [`theta_math::bn254::multi_pairing`], with random-linear-combination
//!   weights and MSMs on whichever side of each term family has fewer
//!   distinct points.
//!
//! On failure, [`settle_mixed`] isolates every culprit with
//! [`bisect_invalid`] so one bad share across a mixed multi-instance
//! batch never poisons an innocent instance.

use crate::common::bisect_invalid;
use crate::dleq::{DleqInstance, DleqProof};
use crate::hashing::{hash_to_fr, hash_to_key};
use std::collections::{HashMap, HashSet};
use theta_math::bn254::{multi_pairing, pairing_check, Fr, G1, G2};
use theta_math::ed25519::Point;
use theta_math::msm::{msm, CurveGroup};

const D_CROSS: &str = "thetacrypt/batch/cross-instance/v1";

/// Compressed encodings: transcript bytes and pairing-group keys.
type G1Bytes = [u8; 33];
type G2Bytes = [u8; 65];

/// One share-validity check, detached from its protocol instance.
///
/// Constructed by the schemes (`sg02::pending_check`,
/// `bls04::pending_check`, `bz03::pending_check`, `cks05::pending_check`)
/// which own the private share fields and Fiat–Shamir domains.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // few, short-lived pool entries; boxing would put an alloc on the per-share hot path
pub enum PendingCheck {
    /// A Chaum–Pedersen DLEQ proof over Ed25519: `log_{g1} h1 = log_{g2} h2`.
    Dleq {
        /// The scheme's Fiat–Shamir domain (sg02 and cks05 differ).
        domain: &'static str,
        /// First base.
        g1: Point,
        /// First image.
        h1: Point,
        /// Second base.
        g2: Point,
        /// Second image.
        h2: Point,
        /// The proof to check.
        proof: DleqProof,
    },
    /// A BLS04 partial-signature check: `e(σ_i, P2) == e(H(m), Y_i)`.
    Bls04 {
        /// The hashed message `H(m) ∈ G1`.
        h: G1,
        /// The partial signature `σ_i ∈ G1`.
        sigma: G1,
        /// The party's verification key `Y_i ∈ G2`.
        vk: G2,
    },
    /// A BZ03 decryption-share check: `e(W, Y_i) == e(H1, δ_i)`.
    Bz03 {
        /// The ciphertext validity element `W ∈ G1`.
        w: G1,
        /// The party's verification key `Y_i ∈ G2`.
        vk: G2,
        /// The ciphertext validity base `H1(U, c_k, label) ∈ G1`.
        h1: G1,
        /// The decryption share `δ_i ∈ G2`.
        delta: G2,
    },
    /// A check already known to fail (e.g. a party id outside `n`, so no
    /// verification key exists). Kept in the batch so culprit isolation
    /// attributes the failure to the right share.
    Invalid,
}

impl PendingCheck {
    /// Verifies this check alone (no batching).
    pub fn holds(&self) -> bool {
        match self {
            PendingCheck::Dleq { domain, g1, h1, g2, h2, proof } => {
                proof.verify(domain, g1, h1, g2, h2)
            }
            PendingCheck::Bls04 { h, sigma, vk } => {
                pairing_check(sigma, &G2::generator(), h, vk)
            }
            PendingCheck::Bz03 { w, vk, h1, delta } => pairing_check(w, vk, h1, delta),
            PendingCheck::Invalid => false,
        }
    }
}

/// Verifies a mixed set of checks with one MSM (all DLEQ proofs) plus one
/// pairing product (all BLS04/BZ03 checks). Returns `true` iff *every*
/// check holds; `true` for an empty set.
pub fn batch_holds(checks: &[&PendingCheck]) -> bool {
    let mut dleq: Vec<(&str, DleqInstance<'_>)> = Vec::new();
    let mut bls04: Vec<(&G1, &G1, &G2)> = Vec::new();
    let mut bz03: Vec<(&G1, &G2, &G1, &G2)> = Vec::new();
    for check in checks {
        match check {
            PendingCheck::Dleq { domain, g1, h1, g2, h2, proof } => {
                dleq.push((domain, DleqInstance { g1, h1, g2, h2, proof }));
            }
            PendingCheck::Bls04 { h, sigma, vk } => bls04.push((h, sigma, vk)),
            PendingCheck::Bz03 { w, vk, h1, delta } => bz03.push((w, vk, h1, delta)),
            PendingCheck::Invalid => return false,
        }
    }
    DleqProof::verify_batch_mixed(&dleq) && pairing_subset_holds(&bls04, &bz03)
}

/// One pairing-product equation for all BLS04 and BZ03 checks together.
///
/// With Fiat–Shamir weights `r_j` bound to the full transcript, the
/// per-check equations combine into
///
/// ```text
/// e(−Σ r_j σ_j, P2) · Π e(H_j, r_j Y_j)                  (BLS04)
///   · Π e(W_j, r_j Y_j) · Π_h1 e(−H1, Σ r_j δ_j)         (BZ03)
///   == 1
/// ```
///
/// Each `e(A_j, r_j B_j)` family is grouped on the side with fewer
/// distinct points. When the G1 side repeats (one message signed by many
/// parties) a group is `e(H, Σ r_j Y_j)`, a G2 MSM. When the verification
/// keys repeat (n parties across many instances) it is
/// `e(Σ r_j H_j, Y)`, a cheaper G1 MSM, and the Miller loops number the
/// parties rather than the instances. The `e(−H1, δ)` family is always
/// keyed by H1, since every share brings its own δ. So `k` checks cost a
/// handful of MSMs and one Miller loop per group, sharing one
/// multi-Miller loop and one final exponentiation, instead of `2k` full
/// pairings.
fn pairing_subset_holds(bls04: &[(&G1, &G1, &G2)], bz03: &[(&G1, &G2, &G1, &G2)]) -> bool {
    match (bls04.len(), bz03.len()) {
        (0, 0) => return true,
        (1, 0) => {
            let (h, sigma, vk) = bls04[0];
            return pairing_check(sigma, &G2::generator(), h, vk);
        }
        (0, 1) => {
            let (w, vk, h1, delta) = bz03[0];
            return pairing_check(w, vk, h1, delta);
        }
        _ => {}
    }
    // Compressed points: the transcript, and the group keys.
    let bls04_enc: Vec<(G1Bytes, G1Bytes, G2Bytes)> = bls04
        .iter()
        .map(|(h, sigma, vk)| (h.to_compressed(), sigma.to_compressed(), vk.to_compressed()))
        .collect();
    let bz03_enc: Vec<(G1Bytes, G2Bytes, G1Bytes, G2Bytes)> = bz03
        .iter()
        .map(|(w, vk, h1, delta)| {
            (w.to_compressed(), vk.to_compressed(), h1.to_compressed(), delta.to_compressed())
        })
        .collect();

    // Weight seed over the full transcript of both subsets.
    let mut transcript: Vec<Vec<u8>> = Vec::with_capacity(bls04.len() + bz03.len());
    for (h, sigma, vk) in &bls04_enc {
        transcript.push([&[0x01][..], h, sigma, vk].concat());
    }
    for (w, vk, h1, delta) in &bz03_enc {
        transcript.push([&[0x02][..], w, vk, h1, delta].concat());
    }
    let items: Vec<&[u8]> = transcript.iter().map(|t| t.as_slice()).collect();
    let seed = hash_to_key(D_CROSS, &items);
    let weight = |idx: u64| hash_to_fr(D_CROSS, &[&seed, &idx.to_le_bytes()]);

    const BLS04_TERMS: u8 = 1;
    const BZ03_W_TERMS: u8 = 2;
    const BZ03_H1_TERMS: u8 = 3;
    let mut by_g1: Grouped<G1, G2> = Grouped::default();
    let mut by_g2: Grouped<G2, G1> = Grouped::default();
    let mut idx = 0u64;

    // BLS04: e(σ_j, P2) == e(H_j, Y_j) → one weighted σ sum against P2,
    // and the e(H_j, Y_j) terms grouped on their smaller side.
    let mut sigmas: Vec<G1> = Vec::with_capacity(bls04.len());
    let mut sigma_weights: Vec<Fr> = Vec::with_capacity(bls04.len());
    let bls04_by_vk = group_by_g2(bls04_enc.iter().map(|e| (&e.0[..], &e.2[..])));
    for ((h, sigma, vk), enc) in bls04.iter().zip(&bls04_enc) {
        let r = weight(idx);
        idx += 1;
        sigmas.push(**sigma);
        sigma_weights.push(r.clone());
        if bls04_by_vk {
            by_g2.push(BLS04_TERMS, &enc.2, **vk, **h, r);
        } else {
            by_g1.push(BLS04_TERMS, &enc.0, **h, **vk, r);
        }
    }
    // BZ03: e(W_j, Y_j) == e(H1_j, δ_j) → the W terms grouped on their
    // smaller side, the right-hand side negated and keyed by H1.
    let bz03_by_vk = group_by_g2(bz03_enc.iter().map(|e| (&e.0[..], &e.1[..])));
    for ((w, vk, h1, delta), enc) in bz03.iter().zip(&bz03_enc) {
        let r = weight(idx);
        idx += 1;
        if bz03_by_vk {
            by_g2.push(BZ03_W_TERMS, &enc.1, **vk, **w, r.clone());
        } else {
            by_g1.push(BZ03_W_TERMS, &enc.0, **w, **vk, r.clone());
        }
        by_g1.push(BZ03_H1_TERMS, &enc.2, h1.neg(), **delta, r);
    }

    let mut pair_g1: Vec<G1> = Vec::with_capacity(by_g1.groups.len() + by_g2.groups.len() + 1);
    let mut pair_g2: Vec<G2> = Vec::with_capacity(pair_g1.capacity());
    if !sigmas.is_empty() {
        pair_g1.push(weighted_sum(&sigmas, &sigma_weights).neg());
        pair_g2.push(G2::generator());
    }
    for (base, points, weights) in &by_g1.groups {
        pair_g1.push(*base);
        pair_g2.push(weighted_sum(points, weights));
    }
    for (base, points, weights) in &by_g2.groups {
        pair_g1.push(weighted_sum(points, weights));
        pair_g2.push(*base);
    }
    let pairs: Vec<(&G1, &G2)> = pair_g1.iter().zip(pair_g2.iter()).collect();
    multi_pairing(&pairs).is_one()
}

/// True when a family of `e(A_j, B_j)` terms, given as compressed
/// `(A_j, B_j)`, has no more distinct G2 points than G1 points. A tie
/// also keys the groups by the G2 point: both groupings then run as many
/// Miller loops, and this one does its MSMs in the cheaper G1.
fn group_by_g2<'a>(terms: impl Iterator<Item = (&'a [u8], &'a [u8])>) -> bool {
    let mut g1: HashSet<&[u8]> = HashSet::new();
    let mut g2: HashSet<&[u8]> = HashSet::new();
    for (a, b) in terms {
        g1.insert(a);
        g2.insert(b);
    }
    g2.len() <= g1.len()
}

/// `Σ r_j·P_j` as one MSM.
fn weighted_sum<P: CurveGroup>(points: &[P], weights: &[Fr]) -> P {
    let coeffs: Vec<&theta_math::BigUint> = weights.iter().map(|w| w.to_biguint()).collect();
    msm(points, &coeffs)
}

/// Weighted pairing terms `e(base, r_j·point_j)` grouped by base: each
/// group becomes one pair `(base, Σ r_j·point_j)`, so every distinct base
/// costs one Miller loop and its other side one MSM. Keys carry a
/// term-family tag, so a base is only shared within its family.
struct Grouped<B, P> {
    index: HashMap<Vec<u8>, usize>,
    groups: Vec<(B, Vec<P>, Vec<Fr>)>,
}

impl<B, P> Default for Grouped<B, P> {
    fn default() -> Self {
        Grouped { index: HashMap::new(), groups: Vec::new() }
    }
}

impl<B, P> Grouped<B, P> {
    fn push(&mut self, family: u8, key: &[u8], base: B, point: P, weight: Fr) {
        let groups = &mut self.groups;
        let gi = *self.index.entry([&[family][..], key].concat()).or_insert_with(|| {
            groups.push((base, Vec::new(), Vec::new()));
            groups.len() - 1
        });
        groups[gi].1.push(point);
        groups[gi].2.push(weight);
    }
}

/// Settles a mixed cross-instance batch: returns one verdict per check.
///
/// The whole batch is first checked with one combined equation (the
/// common case: everything valid, one MSM + one pairing product). On
/// failure, [`bisect_invalid`] repeatedly isolates the next culprit among
/// the still-alive checks in `O(c·log k)` batch checks for `c` culprits,
/// so a single bad share never fails — or re-verifies — the innocent
/// checks around it.
pub fn settle_mixed(checks: &[&PendingCheck]) -> Vec<bool> {
    let mut verdicts = vec![true; checks.len()];
    let mut alive: Vec<usize> = (0..checks.len()).collect();
    loop {
        let subset: Vec<&PendingCheck> = alive.iter().map(|&i| checks[i]).collect();
        let check = |r: std::ops::Range<usize>| batch_holds(&subset[r]);
        match bisect_invalid(alive.len(), &check) {
            None => break,
            Some(i) => {
                verdicts[alive[i]] = false;
                alive.remove(i);
            }
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ThresholdParams;
    use crate::{bls04, bz03, cks05, sg02};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xba7c)
    }

    /// A mixed batch drawn from 4 instances across all four schemes.
    fn mixed_batch(r: &mut rand::rngs::StdRng) -> Vec<PendingCheck> {
        let params = ThresholdParams::new(1, 4).unwrap();
        let mut checks = Vec::new();
        // SG02 instance.
        let (pk, shares) = sg02::keygen(params, r);
        let ct = sg02::encrypt(&pk, b"l", b"m", r);
        for s in &shares[..3] {
            let ds = sg02::create_decryption_share(s, &ct, r).unwrap();
            checks.push(sg02::pending_check(&pk, &ct, &ds));
        }
        // CKS05 instance (same curve, different DLEQ domain).
        let (pk, shares) = cks05::keygen(params, r);
        for s in &shares[..3] {
            let cs = cks05::create_coin_share(s, b"round-1", r);
            checks.push(cks05::pending_check(&pk, b"round-1", &cs));
        }
        // BLS04 instance.
        let (pk, shares) = bls04::keygen(params, r);
        let h = bls04::hash_message(b"block").unwrap();
        for s in &shares[..3] {
            let ss = bls04::sign_share(s, b"block").unwrap();
            checks.push(bls04::pending_check_with_hash(&pk, &h, &ss));
        }
        // BZ03 instance.
        let (pk, shares) = bz03::keygen(params, r);
        let ct = bz03::encrypt(&pk, b"l", b"m", r);
        for s in &shares[..3] {
            let ds = bz03::create_decryption_share(s, &ct).unwrap();
            checks.push(bz03::pending_check(&pk, &ct, &ds));
        }
        checks
    }

    #[test]
    fn mixed_batch_all_valid() {
        let mut r = rng();
        let checks = mixed_batch(&mut r);
        let refs: Vec<&PendingCheck> = checks.iter().collect();
        assert!(batch_holds(&refs));
        assert!(settle_mixed(&refs).iter().all(|&v| v));
        assert!(batch_holds(&[]));
        assert!(settle_mixed(&[]).is_empty());
    }

    #[test]
    fn every_check_kind_verifies_alone() {
        let mut r = rng();
        for check in mixed_batch(&mut r) {
            assert!(check.holds(), "{check:?}");
            assert!(batch_holds(&[&check]));
        }
        assert!(!PendingCheck::Invalid.holds());
        assert!(!batch_holds(&[&PendingCheck::Invalid]));
    }

    /// The acceptance-criteria test: one bad share injected into a mixed
    /// multi-instance batch fails *only* that share's verdict.
    #[test]
    fn culprit_isolation_across_mixed_instances() {
        let mut r = rng();
        for bad_idx in [0usize, 5, 7, 11] {
            let mut checks = mixed_batch(&mut r);
            // Corrupt one check in place, whatever its kind.
            checks[bad_idx] = match checks[bad_idx].clone() {
                PendingCheck::Dleq { domain, g1, h1, g2, h2, proof } => PendingCheck::Dleq {
                    domain,
                    g1,
                    h1,
                    g2,
                    h2: h2.add(&Point::base()),
                    proof,
                },
                PendingCheck::Bls04 { h, sigma, vk } => {
                    PendingCheck::Bls04 { h, sigma: sigma.double(), vk }
                }
                PendingCheck::Bz03 { w, vk, h1, delta } => {
                    PendingCheck::Bz03 { w, vk, h1, delta: delta.double() }
                }
                PendingCheck::Invalid => PendingCheck::Invalid,
            };
            let refs: Vec<&PendingCheck> = checks.iter().collect();
            assert!(!batch_holds(&refs));
            let verdicts = settle_mixed(&refs);
            for (i, ok) in verdicts.iter().enumerate() {
                assert_eq!(*ok, i != bad_idx, "check {i} with culprit at {bad_idx}");
            }
        }
    }

    #[test]
    fn multiple_culprits_all_isolated() {
        let mut r = rng();
        let mut checks = mixed_batch(&mut r);
        let bad: Vec<usize> = vec![1, 6, 10];
        for &i in &bad {
            checks[i] = PendingCheck::Invalid;
        }
        let refs: Vec<&PendingCheck> = checks.iter().collect();
        let verdicts = settle_mixed(&refs);
        for (i, ok) in verdicts.iter().enumerate() {
            assert_eq!(*ok, !bad.contains(&i), "check {i}");
        }
    }

    #[test]
    fn all_invalid_batch() {
        let checks = vec![PendingCheck::Invalid; 3];
        let refs: Vec<&PendingCheck> = checks.iter().collect();
        assert!(settle_mixed(&refs).iter().all(|&v| !v));
    }

    /// 8 BLS04 instances × 4 parties: the keys are the smaller side.
    fn bls04_instances(r: &mut rand::rngs::StdRng) -> Vec<PendingCheck> {
        let params = ThresholdParams::new(3, 8).unwrap();
        let (pk, keys) = bls04::keygen(params, r);
        let mut checks = Vec::new();
        for i in 0..8 {
            let msg = format!("block {i}").into_bytes();
            let h = bls04::hash_message(&msg).unwrap();
            for k in &keys[..4] {
                let share = bls04::sign_share(k, &msg).unwrap();
                checks.push(bls04::pending_check_with_hash(&pk, &h, &share));
            }
        }
        checks
    }

    #[test]
    fn grouping_follows_the_side_with_fewer_points() {
        let key = |b: u8| [b; 3];
        let terms = |pairs: &[(u8, u8)]| {
            pairs.iter().map(|&(a, b)| (key(a), key(b))).collect::<Vec<_>>()
        };
        let side = |t: &[([u8; 3], [u8; 3])]| {
            group_by_g2(t.iter().map(|(a, b)| (&a[..], &b[..])))
        };
        // One message, four keys: group by the message hash (G1).
        assert!(!side(&terms(&[(0, 1), (0, 2), (0, 3), (0, 4)])));
        // Three messages, two keys: group by the key (G2).
        assert!(side(&terms(&[(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)])));
        // A tie groups by the key, whose MSMs run in G1.
        assert!(side(&terms(&[(0, 1), (1, 2)])));

        let mut r = rng();
        let checks = bls04_instances(&mut r);
        let enc: Vec<([u8; 33], [u8; 65])> = checks
            .iter()
            .map(|c| match c {
                PendingCheck::Bls04 { h, vk, .. } => (h.to_compressed(), vk.to_compressed()),
                _ => unreachable!(),
            })
            .collect();
        assert!(group_by_g2(enc.iter().map(|(h, vk)| (&h[..], &vk[..]))));
    }

    /// One forged share among 8 instances × 4 parties is isolated while
    /// the product is grouped by verification key, and no honest check is
    /// rejected.
    #[test]
    fn forged_share_isolated_under_key_grouping() {
        let mut r = rng();
        let mut checks = bls04_instances(&mut r);
        let refs: Vec<&PendingCheck> = checks.iter().collect();
        assert!(batch_holds(&refs));
        let bad = 13;
        // Block 3, second party: σ replaced by a point that is not its
        // signature share.
        if let PendingCheck::Bls04 { sigma, .. } = &mut checks[bad] {
            *sigma = bls04::hash_message(b"forged").unwrap().mul(&Fr::from_u64(7));
        }
        let refs: Vec<&PendingCheck> = checks.iter().collect();
        assert!(!batch_holds(&refs));
        let verdicts = settle_mixed(&refs);
        for (i, ok) in verdicts.iter().enumerate() {
            assert_eq!(*ok, i != bad, "check {i}");
        }
    }

    #[test]
    fn pairing_product_groups_by_base() {
        // Two BLS04 instances signing *different* messages plus two BZ03
        // instances over *different* ciphertexts: grouping must keep the
        // bases separate (a regression guard against accidentally merging
        // distinct H(m) groups).
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, shares) = bls04::keygen(params, &mut r);
        let mut checks = Vec::new();
        for msg in [b"alpha".as_slice(), b"beta"] {
            let h = bls04::hash_message(msg).unwrap();
            for s in &shares[..2] {
                let ss = bls04::sign_share(s, msg).unwrap();
                checks.push(bls04::pending_check_with_hash(&pk, &h, &ss));
            }
        }
        let (pk, shares) = bz03::keygen(params, &mut r);
        for label in [b"x".as_slice(), b"y"] {
            let ct = bz03::encrypt(&pk, label, b"m", &mut r);
            for s in &shares[..2] {
                let ds = bz03::create_decryption_share(s, &ct).unwrap();
                checks.push(bz03::pending_check(&pk, &ct, &ds));
            }
        }
        let refs: Vec<&PendingCheck> = checks.iter().collect();
        assert!(batch_holds(&refs));
        // Swap two sigmas across messages: both individual checks break
        // even though the swapped pair would cancel in a sum that ignored
        // the per-check weights.
        let (a, b) = (0usize, 2usize);
        let (sig_a, sig_b) = match (&checks[a], &checks[b]) {
            (
                PendingCheck::Bls04 { sigma: sa, .. },
                PendingCheck::Bls04 { sigma: sb, .. },
            ) => (*sa, *sb),
            _ => unreachable!(),
        };
        if let PendingCheck::Bls04 { sigma, .. } = &mut checks[a] {
            *sigma = sig_b;
        }
        if let PendingCheck::Bls04 { sigma, .. } = &mut checks[b] {
            *sigma = sig_a;
        }
        let refs: Vec<&PendingCheck> = checks.iter().collect();
        let verdicts = settle_mixed(&refs);
        assert!(!verdicts[a] && !verdicts[b]);
        for (i, ok) in verdicts.iter().enumerate() {
            if i != a && i != b {
                assert!(*ok, "check {i}");
            }
        }
    }
}
