//! SG02 — the Shoup–Gennaro TDH2 threshold cryptosystem.
//!
//! The first non-interactive threshold cipher provably CCA-secure, over
//! the DDH assumption (paper Table 1: hardness DL, verification ZKP).
//! Instantiated on Ed25519 exactly as the paper does, with the hybrid
//! approach: the threshold layer protects a fresh 32-byte key, the
//! payload is sealed with ChaCha20-Poly1305 under that key.
//!
//! # Example
//!
//! ```
//! use theta_schemes::common::ThresholdParams;
//! use theta_schemes::sg02;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let params = ThresholdParams::new(1, 4).unwrap();
//! let (pk, shares) = sg02::keygen(params, &mut rng);
//! let ct = sg02::encrypt(&pk, b"label", b"front-running protected tx", &mut rng);
//!
//! let d1 = sg02::create_decryption_share(&shares[0], &ct, &mut rng).unwrap();
//! let d2 = sg02::create_decryption_share(&shares[2], &ct, &mut rng).unwrap();
//! let plain = sg02::combine(&pk, &ct, &[d1, d2]).unwrap();
//! assert_eq!(plain, b"front-running protected tx");
//! ```

use crate::common::{
    bisect_invalid, lagrange_at_zero, lagrange_coeffs_at_zero, shamir_share, PartyId,
    ThresholdParams,
};
use crate::dleq::{DleqInstance, DleqProof};
use crate::error::SchemeError;
use crate::hashing::{hash_to_ed25519, hash_to_ed25519_scalar, hash_to_key};
use crate::wire::{get_point, get_scalar, put_point, put_scalar};
use rand::RngCore;
use theta_codec::{Decode, Encode, Reader, Writer};
use theta_math::ed25519::{Point, Scalar};
use theta_primitives::aead;

const D_GBAR: &str = "thetacrypt/sg02/gbar/v1";
const D_MASK: &str = "thetacrypt/sg02/mask/v1";
const D_CHALLENGE: &str = "thetacrypt/sg02/challenge/v1";
const D_SHARE: &str = "thetacrypt/sg02/share-dleq/v1";
const D_NONCE: &str = "thetacrypt/sg02/nonce/v1";

/// The SG02 public key: group element `h = g^x`, the derived second
/// generator `ḡ`, and per-party verification keys `h_i = g^{x_i}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PublicKey {
    params: ThresholdParams,
    h: Point,
    g_bar: Point,
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
        put_point(w, &self.g_bar);
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
        let g_bar = get_point(r)?;
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
        Ok(PublicKey { params, h, g_bar, verification_keys })
    }
}

/// One party's SG02 key share `x_i` plus the common public key.
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

/// A TDH2 ciphertext: the key box `c_k` with its consistency proof
/// `(u, ū, e, f)`, the label, and the AEAD-sealed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ciphertext {
    c_k: [u8; 32],
    label: Vec<u8>,
    u: Point,
    u_bar: Point,
    e: Scalar,
    f: Scalar,
    payload: Vec<u8>,
}

impl Ciphertext {
    /// The ciphertext label (bound by the CCA proof).
    pub fn label(&self) -> &[u8] {
        &self.label
    }

    /// Total serialized payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Stable identifier for protocol instances: hash of the encoding.
    pub fn fingerprint(&self) -> [u8; 32] {
        hash_to_key("thetacrypt/sg02/fingerprint/v1", &[&self.encoded()])
    }
}

impl Encode for Ciphertext {
    fn encode(&self, w: &mut Writer) {
        self.c_k.encode(w);
        self.label.encode(w);
        put_point(w, &self.u);
        put_point(w, &self.u_bar);
        put_scalar(w, &self.e);
        put_scalar(w, &self.f);
        self.payload.encode(w);
    }
}

impl Decode for Ciphertext {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(Ciphertext {
            c_k: <[u8; 32]>::decode(r)?,
            label: Vec::<u8>::decode(r)?,
            u: get_point(r)?,
            u_bar: get_point(r)?,
            e: get_scalar(r)?,
            f: get_scalar(r)?,
            payload: Vec::<u8>::decode(r)?,
        })
    }
}

/// A decryption share `u_i = u^{x_i}` with its DLEQ validity proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecryptionShare {
    id: PartyId,
    u_i: Point,
    proof: DleqProof,
}

impl DecryptionShare {
    /// The producing party.
    pub fn id(&self) -> PartyId {
        self.id
    }
}

impl Encode for DecryptionShare {
    fn encode(&self, w: &mut Writer) {
        self.id.encode(w);
        put_point(w, &self.u_i);
        self.proof.encode(w);
    }
}

impl Decode for DecryptionShare {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        Ok(DecryptionShare {
            id: PartyId::decode(r)?,
            u_i: get_point(r)?,
            proof: DleqProof::decode(r)?,
        })
    }
}

/// Dealer key generation: samples `x`, Shamir-shares it, and publishes
/// `h = g^x` with per-party verification keys.
pub fn keygen(params: ThresholdParams, rng: &mut dyn RngCore) -> (PublicKey, Vec<KeyShare>) {
    let x = Scalar::random(rng);
    let h = Point::mul_base(&x);
    let g_bar = hash_to_ed25519(D_GBAR, &[&h.compress()]);
    let shares = shamir_share(&x, params, rng);
    let verification_keys: Vec<Point> =
        shares.iter().map(|(_, x_i)| Point::mul_base(x_i)).collect();
    let public = PublicKey { params, h, g_bar, verification_keys };
    let key_shares = shares
        .into_iter()
        .map(|(id, x_i)| KeyShare { id, x_i, public: public.clone() })
        .collect();
    (public, key_shares)
}

fn challenge(
    c_k: &[u8; 32],
    label: &[u8],
    u: &Point,
    w: &Point,
    u_bar: &Point,
    w_bar: &Point,
) -> Scalar {
    hash_to_ed25519_scalar(
        D_CHALLENGE,
        &[
            c_k,
            label,
            &u.compress(),
            &w.compress(),
            &u_bar.compress(),
            &w_bar.compress(),
        ],
    )
}

fn payload_nonce(c_k: &[u8; 32], u: &Point) -> [u8; 12] {
    let full = hash_to_key(D_NONCE, &[c_k, &u.compress()]);
    let mut nonce = [0u8; 12];
    nonce.copy_from_slice(&full[..12]);
    nonce
}

/// Encrypts `message` under the threshold public key with a `label`
/// (the label binds context, e.g. a block height, into the CCA proof).
pub fn encrypt(pk: &PublicKey, label: &[u8], message: &[u8], rng: &mut dyn RngCore) -> Ciphertext {
    // Fresh symmetric key, threshold-boxed TDH2-style.
    let mut k = [0u8; 32];
    rng.fill_bytes(&mut k);
    let r = Scalar::random(rng);
    let s = Scalar::random(rng);
    let u = Point::mul_base(&r);
    let w = Point::mul_base(&s);
    let u_bar = pk.g_bar.mul(&r);
    let w_bar = pk.g_bar.mul(&s);
    let mask = hash_to_key(D_MASK, &[&pk.h.mul(&r).compress()]);
    let mut c_k = [0u8; 32];
    for i in 0..32 {
        c_k[i] = k[i] ^ mask[i];
    }
    let e = challenge(&c_k, label, &u, &w, &u_bar, &w_bar);
    let f = s.add(&r.mul(&e));
    let nonce = payload_nonce(&c_k, &u);
    let payload = aead::seal(&k, &nonce, label, message);
    Ciphertext { c_k, label: label.to_vec(), u, u_bar, e, f, payload }
}

/// Publicly checks ciphertext consistency (the TDH2 CCA validity test).
pub fn verify_ciphertext(pk: &PublicKey, ct: &Ciphertext) -> bool {
    // w = g^f · u^{−e},  w̄ = ḡ^f · ū^{−e}
    let w = Point::mul_base(&ct.f).sub(&ct.u.mul(&ct.e));
    let w_bar = pk.g_bar.mul(&ct.f).sub(&ct.u_bar.mul(&ct.e));
    let expect = challenge(&ct.c_k, &ct.label, &ct.u, &w, &ct.u_bar, &w_bar);
    expect == ct.e
}

/// Produces this party's decryption share `u^{x_i}` with a DLEQ proof.
///
/// # Errors
///
/// [`SchemeError::InvalidCiphertext`] when the ciphertext fails its
/// validity check (decrypting invalid ciphertexts would break CCA).
pub fn create_decryption_share(
    key: &KeyShare,
    ct: &Ciphertext,
    rng: &mut dyn RngCore,
) -> Result<DecryptionShare, SchemeError> {
    if !verify_ciphertext(&key.public, ct) {
        return Err(SchemeError::InvalidCiphertext("TDH2 validity check failed".into()));
    }
    let u_i = ct.u.mul(&key.x_i);
    let h_i = key
        .public
        .verification_key(key.id)
        .ok_or_else(|| SchemeError::KeyMismatch("party id outside n".into()))?;
    let proof = DleqProof::prove(D_SHARE, &Point::base(), h_i, &ct.u, &u_i, &key.x_i, rng);
    Ok(DecryptionShare { id: key.id, u_i, proof })
}

/// Verifies another party's decryption share.
pub fn verify_decryption_share(pk: &PublicKey, ct: &Ciphertext, share: &DecryptionShare) -> bool {
    let Some(h_i) = pk.verification_key(share.id) else {
        return false;
    };
    share
        .proof
        .verify(D_SHARE, &Point::base(), h_i, &ct.u, &share.u_i)
}

/// Verifies a batch of decryption shares at once.
///
/// All DLEQ proofs are folded into a single multi-scalar multiplication
/// ([`DleqProof::verify_batch`]); when the batch fails, bisection
/// pinpoints the first invalid share so the error still names the
/// offending party.
///
/// # Errors
///
/// [`SchemeError::InvalidShare`] naming the first party whose share
/// fails its proof (or whose id is out of range).
pub fn verify_decryption_shares_batch(
    pk: &PublicKey,
    ct: &Ciphertext,
    shares: &[DecryptionShare],
) -> Result<(), SchemeError> {
    let base = Point::base();
    let mut instances = Vec::with_capacity(shares.len());
    for share in shares {
        let Some(h_i) = pk.verification_key(share.id) else {
            return Err(SchemeError::InvalidShare { party: share.id.value() });
        };
        instances.push(DleqInstance { g1: &base, h1: h_i, g2: &ct.u, h2: &share.u_i, proof: &share.proof });
    }
    let check = |r: std::ops::Range<usize>| DleqProof::verify_batch(D_SHARE, &instances[r]);
    match bisect_invalid(shares.len(), &check) {
        None => Ok(()),
        Some(i) => Err(SchemeError::InvalidShare { party: shares[i].id.value() }),
    }
}

/// Captures one decryption-share check as a detached
/// [`crate::batch::PendingCheck`] so the orchestration layer can fold it
/// into a cross-instance DLEQ batch.
pub fn pending_check(
    pk: &PublicKey,
    ct: &Ciphertext,
    share: &DecryptionShare,
) -> crate::batch::PendingCheck {
    match pk.verification_key(share.id) {
        Some(h_i) => crate::batch::PendingCheck::Dleq {
            domain: D_SHARE,
            g1: Point::base(),
            h1: *h_i,
            g2: ct.u,
            h2: share.u_i,
            proof: share.proof.clone(),
        },
        None => crate::batch::PendingCheck::Invalid,
    }
}

/// Combines `t+1` verified shares and opens the payload.
///
/// Shares failing verification are rejected (robustness: the protocol
/// succeeds as long as `t+1` honest shares are present). Verification is
/// batched — one MSM for all proofs — and the Lagrange interpolation of
/// `u^x` runs as a single multi-scalar multiplication.
///
/// # Errors
///
/// - [`SchemeError::InvalidCiphertext`] when the ciphertext is invalid or
///   the AEAD layer fails to open.
/// - [`SchemeError::InvalidShare`] when a supplied share fails its proof.
/// - [`SchemeError::NotEnoughShares`] with fewer than `t+1` shares.
pub fn combine(
    pk: &PublicKey,
    ct: &Ciphertext,
    shares: &[DecryptionShare],
) -> Result<Vec<u8>, SchemeError> {
    if !verify_ciphertext(pk, ct) {
        return Err(SchemeError::InvalidCiphertext("TDH2 validity check failed".into()));
    }
    verify_decryption_shares_batch(pk, ct, shares)?;
    combine_preverified(pk, ct, shares)
}

/// Combines shares that were **already verified individually** (e.g. by
/// the cross-instance batch settle) against a ciphertext whose validity
/// check already passed (producing our own share checks it), so only the
/// Lagrange MSM and the AEAD open remain on the combine path.
pub fn combine_preverified(
    pk: &PublicKey,
    ct: &Ciphertext,
    shares: &[DecryptionShare],
) -> Result<Vec<u8>, SchemeError> {
    let need = pk.params.quorum() as usize;
    if shares.len() < need {
        return Err(SchemeError::NotEnoughShares { have: shares.len(), need });
    }
    let quorum = &shares[..need];
    let ids: Vec<PartyId> = quorum.iter().map(|s| s.id).collect();
    // h^r = u^x = Π u_i^{λ_i}, as one MSM over the quorum.
    let lambdas = lagrange_coeffs_at_zero::<Scalar>(&ids)?;
    let points: Vec<Point> = quorum.iter().map(|s| s.u_i).collect();
    let coeffs: Vec<&theta_math::BigUint> = lambdas.iter().map(|l| l.to_biguint()).collect();
    let h_r = theta_math::msm::msm(&points, &coeffs);
    let mask = hash_to_key(D_MASK, &[&h_r.compress()]);
    let mut k = [0u8; 32];
    for i in 0..32 {
        k[i] = ct.c_k[i] ^ mask[i];
    }
    let nonce = payload_nonce(&ct.c_k, &ct.u);
    aead::open(&k, &nonce, &ct.label, &ct.payload)
        .map_err(|_| SchemeError::InvalidCiphertext("payload authentication failed".into()))
}

/// Pre-optimization reference path: per-share DLEQ verification and a
/// serial per-share Lagrange interpolation of `u^x`. Kept (hidden from
/// docs) so benchmarks and property tests can compare the batched
/// kernels against the straightforward implementation they replaced.
#[doc(hidden)]
pub fn combine_serial_baseline(
    pk: &PublicKey,
    ct: &Ciphertext,
    shares: &[DecryptionShare],
) -> Result<Vec<u8>, SchemeError> {
    if !verify_ciphertext(pk, ct) {
        return Err(SchemeError::InvalidCiphertext("TDH2 validity check failed".into()));
    }
    for share in shares {
        if !verify_decryption_share(pk, ct, share) {
            return Err(SchemeError::InvalidShare { party: share.id.value() });
        }
    }
    let need = pk.params.quorum() as usize;
    if shares.len() < need {
        return Err(SchemeError::NotEnoughShares { have: shares.len(), need });
    }
    let quorum = &shares[..need];
    let ids: Vec<PartyId> = quorum.iter().map(|s| s.id).collect();
    let mut h_r = Point::identity();
    for share in quorum {
        let lambda = lagrange_at_zero::<Scalar>(share.id, &ids)?;
        h_r = h_r.add(&share.u_i.mul(&lambda));
    }
    let mask = hash_to_key(D_MASK, &[&h_r.compress()]);
    let mut k = [0u8; 32];
    for i in 0..32 {
        k[i] = ct.c_k[i] ^ mask[i];
    }
    let nonce = payload_nonce(&ct.c_k, &ct.u);
    aead::open(&k, &nonce, &ct.label, &ct.payload)
        .map_err(|_| SchemeError::InvalidCiphertext("payload authentication failed".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x5602)
    }

    fn setup(t: u16, n: u16) -> (PublicKey, Vec<KeyShare>, rand::rngs::StdRng) {
        let mut r = rng();
        let params = ThresholdParams::new(t, n).unwrap();
        let (pk, shares) = keygen(params, &mut r);
        (pk, shares, r)
    }

    #[test]
    fn torsion_shifted_points_verify_and_decrypt() {
        let (pk, shares, mut r) = setup(1, 4);
        let ct = encrypt(&pk, b"label", b"the message", &mut r);
        let dec: Vec<DecryptionShare> = shares[..2]
            .iter()
            .map(|k| create_decryption_share(k, &ct, &mut r).unwrap())
            .collect();
        // Every point of the key, ciphertext and shares moves to another
        // member of its coset; `g_bar`, the nonce and the mask must not move.
        let t = crate::dleq::torsion4();
        let shifted_pk = PublicKey {
            params: pk.params,
            h: pk.h.add(&t),
            g_bar: pk.g_bar.sub(&t),
            verification_keys: pk.verification_keys.iter().map(|v| v.add(&t)).collect(),
        };
        let shifted_ct = Ciphertext { u: ct.u.add(&t), u_bar: ct.u_bar.sub(&t), ..ct.clone() };
        let shifted: Vec<DecryptionShare> = dec
            .iter()
            .map(|d| DecryptionShare { id: d.id, u_i: d.u_i.add(&t), proof: d.proof.shifted(&t) })
            .collect();
        assert!(verify_ciphertext(&shifted_pk, &shifted_ct));
        assert_eq!(shifted_ct.fingerprint(), ct.fingerprint());
        for d in &shifted {
            assert!(verify_decryption_share(&shifted_pk, &shifted_ct, d));
        }
        assert_eq!(combine(&shifted_pk, &shifted_ct, &shifted).unwrap(), b"the message");
        let own = create_decryption_share(&shares[2], &shifted_ct, &mut r).unwrap();
        assert!(verify_decryption_share(&pk, &ct, &own));
    }

    #[test]
    fn roundtrip_exact_quorum() {
        let (pk, shares, mut r) = setup(2, 7);
        let ct = encrypt(&pk, b"label", b"the message", &mut r);
        assert!(verify_ciphertext(&pk, &ct));
        let dec: Vec<DecryptionShare> = shares[..3]
            .iter()
            .map(|s| create_decryption_share(s, &ct, &mut r).unwrap())
            .collect();
        assert_eq!(combine(&pk, &ct, &dec).unwrap(), b"the message");
    }

    #[test]
    fn any_quorum_works() {
        let (pk, shares, mut r) = setup(1, 4);
        let ct = encrypt(&pk, b"l", b"m", &mut r);
        for a in 0..4 {
            for b in (a + 1)..4 {
                let dec = vec![
                    create_decryption_share(&shares[a], &ct, &mut r).unwrap(),
                    create_decryption_share(&shares[b], &ct, &mut r).unwrap(),
                ];
                assert_eq!(combine(&pk, &ct, &dec).unwrap(), b"m");
            }
        }
    }

    #[test]
    fn insufficient_shares_fail() {
        let (pk, shares, mut r) = setup(2, 7);
        let ct = encrypt(&pk, b"l", b"m", &mut r);
        let dec: Vec<DecryptionShare> = shares[..2]
            .iter()
            .map(|s| create_decryption_share(s, &ct, &mut r).unwrap())
            .collect();
        assert!(matches!(
            combine(&pk, &ct, &dec),
            Err(SchemeError::NotEnoughShares { have: 2, need: 3 })
        ));
    }

    #[test]
    fn share_verification_catches_forgery() {
        let (pk, shares, mut r) = setup(1, 4);
        let ct = encrypt(&pk, b"l", b"m", &mut r);
        let good = create_decryption_share(&shares[0], &ct, &mut r).unwrap();
        // Re-tag a share under another party id.
        let forged = DecryptionShare { id: PartyId(2), ..good.clone() };
        assert!(verify_decryption_share(&pk, &ct, &good));
        assert!(!verify_decryption_share(&pk, &ct, &forged));
        let other = create_decryption_share(&shares[2], &ct, &mut r).unwrap();
        assert!(matches!(
            combine(&pk, &ct, &[forged, other]),
            Err(SchemeError::InvalidShare { party: 2 })
        ));
    }

    #[test]
    fn robust_against_bad_share_exclusion() {
        // A corrupted share is detected; combining the honest quorum works.
        let (pk, shares, mut r) = setup(1, 4);
        let ct = encrypt(&pk, b"l", b"m", &mut r);
        let mut bad = create_decryption_share(&shares[0], &ct, &mut r).unwrap();
        bad.u_i = bad.u_i.add(&Point::base()); // corrupt the share value
        assert!(!verify_decryption_share(&pk, &ct, &bad));
        let honest: Vec<_> = shares[1..3]
            .iter()
            .map(|s| create_decryption_share(s, &ct, &mut r).unwrap())
            .collect();
        assert_eq!(combine(&pk, &ct, &honest).unwrap(), b"m");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (pk, shares, mut r) = setup(1, 4);
        let ct = encrypt(&pk, b"l", b"m", &mut r);
        // Flip the key box.
        let mut bad = ct.clone();
        bad.c_k[0] ^= 1;
        assert!(!verify_ciphertext(&pk, &bad));
        assert!(create_decryption_share(&shares[0], &bad, &mut r).is_err());
        // Flip payload only: TDH2 proof still holds, AEAD must catch it.
        let mut bad = ct.clone();
        let last = bad.payload.len() - 1;
        bad.payload[last] ^= 1;
        assert!(verify_ciphertext(&pk, &bad));
        let dec: Vec<_> = shares[..2]
            .iter()
            .map(|s| create_decryption_share(s, &bad, &mut r).unwrap())
            .collect();
        assert!(matches!(
            combine(&pk, &bad, &dec),
            Err(SchemeError::InvalidCiphertext(_))
        ));
    }

    #[test]
    fn label_is_bound() {
        let (pk, _, mut r) = setup(1, 4);
        let ct = encrypt(&pk, b"label-a", b"m", &mut r);
        let mut swapped = ct.clone();
        swapped.label = b"label-b".to_vec();
        assert!(!verify_ciphertext(&pk, &swapped));
    }

    #[test]
    fn wrong_key_cannot_decrypt() {
        let (pk, _, mut r) = setup(1, 4);
        // An unrelated key pair from an *independent* RNG stream.
        let mut r2 = rand::rngs::StdRng::seed_from_u64(0x9999);
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk2, shares2) = keygen(params, &mut r2);
        assert_ne!(pk, pk2);
        let ct = encrypt(&pk, b"l", b"m", &mut r);
        // Shares from an unrelated key: proofs fail against pk.
        let dec = create_decryption_share(&shares2[0], &ct, &mut r);
        // The foreign key's g_bar differs, so even the ciphertext validity
        // check fails from that key's perspective; if it somehow passed,
        // the share proof must still fail against pk.
        if let Ok(d) = dec {
            assert!(!verify_decryption_share(&pk, &ct, &d));
        }
    }

    #[test]
    fn codec_roundtrips() {
        let (pk, shares, mut r) = setup(1, 4);
        assert_eq!(PublicKey::decoded(&pk.encoded()).unwrap(), pk);
        let ks = &shares[0];
        let ks2 = KeyShare::decoded(&ks.encoded()).unwrap();
        assert_eq!(ks2.id(), ks.id());
        assert_eq!(ks2.public(), ks.public());
        let ct = encrypt(&pk, b"l", b"payload", &mut r);
        assert_eq!(Ciphertext::decoded(&ct.encoded()).unwrap(), ct);
        let d = create_decryption_share(ks, &ct, &mut r).unwrap();
        assert_eq!(DecryptionShare::decoded(&d.encoded()).unwrap(), d);
    }

    #[test]
    fn fingerprint_distinguishes_ciphertexts() {
        let (pk, _, mut r) = setup(1, 4);
        let a = encrypt(&pk, b"l", b"m", &mut r);
        let b = encrypt(&pk, b"l", b"m", &mut r);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn empty_message_and_large_message() {
        let (pk, shares, mut r) = setup(1, 4);
        for msg in [Vec::new(), vec![0xabu8; 4096]] {
            let ct = encrypt(&pk, b"l", &msg, &mut r);
            let dec: Vec<_> = shares[..2]
                .iter()
                .map(|s| create_decryption_share(s, &ct, &mut r).unwrap())
                .collect();
            assert_eq!(combine(&pk, &ct, &dec).unwrap(), msg);
        }
    }

    #[test]
    fn batch_verify_accepts_valid_and_names_culprit() {
        let (pk, shares, mut r) = setup(2, 7);
        let ct = encrypt(&pk, b"l", b"m", &mut r);
        let mut ds: Vec<_> = shares
            .iter()
            .map(|s| create_decryption_share(s, &ct, &mut r).unwrap())
            .collect();
        assert!(verify_decryption_shares_batch(&pk, &ct, &ds).is_ok());
        ds[2].u_i = ds[2].u_i.add(&Point::base());
        assert_eq!(
            verify_decryption_shares_batch(&pk, &ct, &ds),
            Err(SchemeError::InvalidShare { party: ds[2].id.value() })
        );
        assert!(matches!(
            combine(&pk, &ct, &ds),
            Err(SchemeError::InvalidShare { .. })
        ));
    }
}
