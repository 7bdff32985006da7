//! Generic TRI implementation for the five non-interactive schemes.
//!
//! A non-interactive threshold protocol has exactly the three-algorithm
//! shape from the paper's §2.2 — create a share, verify a share, combine
//! a quorum — so one state machine serves SG02, BZ03, SH00, BLS04 and
//! CKS05 through the [`OneRoundScheme`] adapter trait. It verifies what
//! the quorum needs and holds the rest unread (see [`OneRoundProtocol`]).

use crate::{
    InboundMessage, OutboundMessage, ProtocolOutput, ProtocolStats, RoundOutput,
    ThresholdRoundProtocol, Transport,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use theta_schemes::batch::PendingCheck;
use theta_schemes::{bls04, bz03, cks05, sg02, sh00, PartyId, SchemeError};

/// Adapter trait: everything a non-interactive scheme needs to expose to
/// run under the generic one-round TRI state machine.
pub trait OneRoundScheme: Send {
    /// The per-party share type.
    type Share: Clone + Send;

    /// This node's party id.
    fn party(&self) -> PartyId;

    /// Shares needed to finalize (`t + 1`).
    fn quorum(&self) -> usize;

    /// Computes this node's share.
    ///
    /// # Errors
    ///
    /// Scheme-level failures (invalid ciphertext, ...) abort the instance.
    fn create_share(&self, rng: &mut dyn rand::RngCore) -> Result<Self::Share, SchemeError>;

    /// Verifies a received share inline. Used only for schemes whose
    /// [`Self::pending_check`] returns `None`.
    fn verify_share(&self, share: &Self::Share) -> bool;

    /// The party a share claims to come from.
    fn share_party(share: &Self::Share) -> PartyId;

    /// Serializes a share for the wire.
    fn encode_share(share: &Self::Share) -> Vec<u8>;

    /// Parses a share from the wire.
    ///
    /// # Errors
    ///
    /// [`SchemeError::Malformed`] on undecodable bytes.
    fn decode_share(&self, bytes: &[u8]) -> Result<Self::Share, SchemeError>;

    /// Captures a received share's validity check as a detached
    /// [`PendingCheck`] for cross-instance batching. Schemes without a
    /// batchable check (SH00's RSA proofs) return `None` and are verified
    /// inline with [`Self::verify_share`].
    fn pending_check(&self, share: &Self::Share) -> Option<PendingCheck> {
        let _ = share;
        None
    }

    /// Combines a quorum of shares that were **already individually
    /// verified**, so implementations may skip per-share re-verification.
    ///
    /// # Errors
    ///
    /// Propagates scheme combination failures.
    fn combine(&self, shares: &[Self::Share]) -> Result<ProtocolOutput, SchemeError>;
}

/// TRI state machine for any [`OneRoundScheme`].
///
/// It verifies what the quorum needs and holds the rest unread. A peer
/// share is decoded and checked only while `verified + pending <
/// quorum`; its check is detached as a [`PendingCheck`] (drained via
/// [`ThresholdRoundProtocol::take_pending_checks`]) so the orchestration
/// layer can settle checks from *many concurrent instances* in one
/// combined equation, and the share counts toward quorum once its
/// verdict arrives through [`ThresholdRoundProtocol::resolve_checks`].
/// Schemes without a detachable check (SH00) verify inline instead.
/// Every share that counts is individually verified, so finalization
/// only pays for the Lagrange combine.
///
/// Any further share is held as its raw payload, keyed by its
/// transport-authenticated sender, in arrival order. When an admitted
/// share fails (a false verdict), the oldest held share is promoted:
/// decoded and checked. When the instance finalizes, the held shares are
/// dropped unread and counted in [`ProtocolStats::shares_unread`]. Every
/// combine result of these schemes is unique given valid shares, so
/// honest nodes agree whichever valid subset each one combines.
///
/// A party whose share fails — a false verdict, a failed inline check,
/// an undecodable payload or a share claiming another party — is
/// excluded for the rest of the instance: its later shares are rejected
/// and its later verdicts ignored. Each party has one share version: a
/// re-delivery must repeat the payload byte for byte. Senders are
/// link-authenticated, so only a faulty party can produce a failing
/// share, and a verdict (keyed by party) can never land on a share other
/// than the one it checked.
pub struct OneRoundProtocol<S: OneRoundScheme> {
    scheme: S,
    round: u16,
    /// Decoded shares, verified or awaiting their verdict.
    shares: BTreeMap<PartyId, Admitted<S::Share>>,
    verified: BTreeSet<PartyId>,
    excluded: BTreeSet<PartyId>,
    /// Shares beyond what the quorum needs, undecoded, oldest first.
    held: VecDeque<(PartyId, Vec<u8>)>,
    outbox: Vec<(PartyId, PendingCheck)>,
    finished: bool,
    stats: ProtocolStats,
}

/// A decoded share with the payload it arrived as, so a re-delivery is
/// compared byte for byte instead of re-encoding the share.
struct Admitted<T> {
    share: T,
    payload: Vec<u8>,
}

impl<S: OneRoundScheme> OneRoundProtocol<S> {
    /// Wraps a scheme adapter into a fresh protocol instance.
    pub fn new_pooled(scheme: S) -> Self {
        OneRoundProtocol {
            scheme,
            round: 0,
            shares: BTreeMap::new(),
            verified: BTreeSet::new(),
            excluded: BTreeSet::new(),
            held: VecDeque::new(),
            outbox: Vec::new(),
            finished: false,
            stats: ProtocolStats::default(),
        }
    }

    /// Number of decoded shares, verified or still awaiting their
    /// verdict. Held shares are not counted.
    pub fn share_count(&self) -> usize {
        self.shares.len()
    }

    /// Drops `party`'s share and excludes it for the rest of the instance.
    fn exclude(&mut self, party: PartyId) {
        self.shares.remove(&party);
        self.verified.remove(&party);
        self.excluded.insert(party);
    }

    /// Decodes `party`'s share and starts its check: detached for a
    /// batch settle, or inline for schemes without a detachable check.
    /// A share that does not decode, claims another party or fails its
    /// inline check excludes `party`.
    fn admit(&mut self, party: PartyId, payload: Vec<u8>) -> Result<(), SchemeError> {
        let decoded = self.scheme.decode_share(&payload).and_then(|share| {
            if S::share_party(&share) == party {
                Ok(share)
            } else {
                Err(SchemeError::InvalidShare { party: party.value() })
            }
        });
        let share = match decoded {
            Ok(share) => share,
            Err(e) => {
                self.excluded.insert(party);
                return Err(e);
            }
        };
        match self.scheme.pending_check(&share) {
            Some(check) => self.outbox.push((party, check)),
            None => {
                self.stats.eager_verifies += 1;
                if !self.scheme.verify_share(&share) {
                    self.excluded.insert(party);
                    return Err(SchemeError::InvalidShare { party: party.value() });
                }
                self.verified.insert(party);
            }
        }
        self.shares.insert(party, Admitted { share, payload });
        Ok(())
    }

    /// Admits held shares, oldest first, until the admitted shares can
    /// complete the quorum again or none is held. A promoted share that
    /// fails at once counts as pruned.
    fn promote(&mut self) {
        while self.shares.len() < self.scheme.quorum() {
            let Some((party, payload)) = self.held.pop_front() else { return };
            if self.admit(party, payload).is_err() {
                self.stats.shares_pruned += 1;
            }
        }
    }
}

impl<S: OneRoundScheme> ThresholdRoundProtocol for OneRoundProtocol<S> {
    fn do_round(&mut self, rng: &mut dyn rand::RngCore) -> Result<RoundOutput, SchemeError> {
        if self.round > 0 {
            return Err(SchemeError::InvalidParameters(
                "one-round protocol has no further rounds".into(),
            ));
        }
        self.round = 1;
        let share = self.scheme.create_share(rng)?;
        let payload = S::encode_share(&share);
        let me = self.scheme.party();
        self.shares.insert(me, Admitted { share, payload: payload.clone() });
        // Own shares are trusted (we just created them).
        self.verified.insert(me);
        Ok(RoundOutput {
            messages: vec![OutboundMessage { transport: Transport::P2p, round: 1, payload }],
        })
    }

    fn update(&mut self, message: &InboundMessage) -> Result<(), SchemeError> {
        let sender = message.sender;
        let conflict = || Err(SchemeError::InvalidShare { party: sender.value() });
        if self.excluded.contains(&sender) {
            return conflict();
        }
        if let Some(admitted) = self.shares.get(&sender) {
            // Only one share version per party, so verdicts are never
            // ambiguous about which share they refer to.
            if admitted.payload != message.payload {
                return conflict();
            }
            if !self.verified.contains(&sender) {
                // A verdict is still outstanding: re-enqueue the check
                // (self-healing if the earlier verdict was dropped).
                if let Some(check) = self.scheme.pending_check(&admitted.share) {
                    self.outbox.push((sender, check));
                }
            }
            return Ok(());
        }
        if let Some((_, held)) = self.held.iter().find(|(party, _)| *party == sender) {
            return if *held == message.payload { Ok(()) } else { conflict() };
        }
        // Nothing is held while the admitted shares fall short of the
        // quorum, so a failed admission here leaves nothing to promote.
        if self.shares.len() < self.scheme.quorum() {
            self.admit(sender, message.payload.clone())
        } else {
            self.held.push_back((sender, message.payload.clone()));
            Ok(())
        }
    }

    fn is_ready_for_next_round(&self) -> bool {
        // Non-interactive: the only transition is into finalization.
        false
    }

    fn is_ready_to_finalize(&self) -> bool {
        // Only verified shares count: unsettled ones may yet fail.
        !self.finished && self.round == 1 && self.verified.len() >= self.scheme.quorum()
    }

    fn finalize(&mut self) -> Result<ProtocolOutput, SchemeError> {
        if !self.is_ready_to_finalize() {
            return Err(SchemeError::NotEnoughShares {
                have: self.verified.len(),
                need: self.scheme.quorum(),
            });
        }
        self.stats.shares_unread += self.held.len() as u64;
        self.held.clear();
        let shares: Vec<S::Share> = self
            .shares
            .iter()
            .filter(|(id, _)| self.verified.contains(id))
            .map(|(_, admitted)| admitted.share.clone())
            .collect();
        let out = self.scheme.combine(&shares)?;
        self.finished = true;
        Ok(out)
    }

    fn current_round(&self) -> u16 {
        self.round
    }

    fn party(&self) -> PartyId {
        self.scheme.party()
    }

    fn stats(&self) -> ProtocolStats {
        self.stats
    }

    fn take_pending_checks(&mut self) -> Vec<(PartyId, PendingCheck)> {
        std::mem::take(&mut self.outbox)
    }

    fn resolve_checks(&mut self, verdicts: &[(PartyId, bool)]) {
        for (party, ok) in verdicts {
            // No admitted share means the verdict is stale: the party was
            // excluded (or never sent a share) since its check was
            // enqueued.
            if !self.shares.contains_key(party) {
                continue;
            }
            if *ok {
                if self.verified.insert(*party) {
                    self.stats.cross_batched += 1;
                }
            } else {
                self.exclude(*party);
                self.stats.shares_pruned += 1;
            }
        }
        self.promote();
    }
}

// ---------------------------------------------------------------------
// Scheme adapters
// ---------------------------------------------------------------------

/// SG02 threshold decryption as a one-round protocol.
pub struct Sg02Decrypt {
    key: sg02::KeyShare,
    ciphertext: sg02::Ciphertext,
}

impl Sg02Decrypt {
    /// Creates the adapter for this node's key share and the ciphertext
    /// being decrypted.
    pub fn new(key: sg02::KeyShare, ciphertext: sg02::Ciphertext) -> Self {
        Sg02Decrypt { key, ciphertext }
    }
}

impl OneRoundScheme for Sg02Decrypt {
    type Share = sg02::DecryptionShare;

    fn party(&self) -> PartyId {
        self.key.id()
    }

    fn quorum(&self) -> usize {
        self.key.public().params().quorum() as usize
    }

    fn create_share(&self, rng: &mut dyn rand::RngCore) -> Result<Self::Share, SchemeError> {
        sg02::create_decryption_share(&self.key, &self.ciphertext, rng)
    }

    fn verify_share(&self, share: &Self::Share) -> bool {
        sg02::verify_decryption_share(self.key.public(), &self.ciphertext, share)
    }

    fn share_party(share: &Self::Share) -> PartyId {
        share.id()
    }

    fn encode_share(share: &Self::Share) -> Vec<u8> {
        theta_codec::Encode::encoded(share)
    }

    fn decode_share(&self, bytes: &[u8]) -> Result<Self::Share, SchemeError> {
        theta_codec::Decode::decoded(bytes).map_err(|e| SchemeError::Malformed(e.to_string()))
    }

    fn pending_check(&self, share: &Self::Share) -> Option<PendingCheck> {
        Some(sg02::pending_check(self.key.public(), &self.ciphertext, share))
    }

    fn combine(&self, shares: &[Self::Share]) -> Result<ProtocolOutput, SchemeError> {
        sg02::combine_preverified(self.key.public(), &self.ciphertext, shares)
            .map(ProtocolOutput::Plaintext)
    }
}

/// BZ03 threshold decryption as a one-round protocol.
pub struct Bz03Decrypt {
    key: bz03::KeyShare,
    ciphertext: bz03::Ciphertext,
}

impl Bz03Decrypt {
    /// Creates the adapter.
    pub fn new(key: bz03::KeyShare, ciphertext: bz03::Ciphertext) -> Self {
        Bz03Decrypt { key, ciphertext }
    }
}

impl OneRoundScheme for Bz03Decrypt {
    type Share = bz03::DecryptionShare;

    fn party(&self) -> PartyId {
        self.key.id()
    }

    fn quorum(&self) -> usize {
        self.key.public().params().quorum() as usize
    }

    fn create_share(&self, _rng: &mut dyn rand::RngCore) -> Result<Self::Share, SchemeError> {
        bz03::create_decryption_share(&self.key, &self.ciphertext)
    }

    fn verify_share(&self, share: &Self::Share) -> bool {
        bz03::verify_decryption_share(self.key.public(), &self.ciphertext, share)
    }

    fn share_party(share: &Self::Share) -> PartyId {
        share.id()
    }

    fn encode_share(share: &Self::Share) -> Vec<u8> {
        theta_codec::Encode::encoded(share)
    }

    fn decode_share(&self, bytes: &[u8]) -> Result<Self::Share, SchemeError> {
        theta_codec::Decode::decoded(bytes).map_err(|e| SchemeError::Malformed(e.to_string()))
    }

    fn pending_check(&self, share: &Self::Share) -> Option<PendingCheck> {
        Some(bz03::pending_check(self.key.public(), &self.ciphertext, share))
    }

    fn combine(&self, shares: &[Self::Share]) -> Result<ProtocolOutput, SchemeError> {
        bz03::combine_preverified(self.key.public(), &self.ciphertext, shares)
            .map(ProtocolOutput::Plaintext)
    }
}

/// SH00 threshold signing as a one-round protocol.
pub struct Sh00Sign {
    key: sh00::KeyShare,
    message: Vec<u8>,
}

impl Sh00Sign {
    /// Creates the adapter for signing `message`.
    pub fn new(key: sh00::KeyShare, message: Vec<u8>) -> Self {
        Sh00Sign { key, message }
    }
}

impl OneRoundScheme for Sh00Sign {
    type Share = sh00::SignatureShare;

    fn party(&self) -> PartyId {
        self.key.id()
    }

    fn quorum(&self) -> usize {
        self.key.public().params().quorum() as usize
    }

    fn create_share(&self, rng: &mut dyn rand::RngCore) -> Result<Self::Share, SchemeError> {
        Ok(sh00::sign_share(&self.key, &self.message, rng))
    }

    fn verify_share(&self, share: &Self::Share) -> bool {
        sh00::verify_share(self.key.public(), &self.message, share)
    }

    fn share_party(share: &Self::Share) -> PartyId {
        share.id()
    }

    fn encode_share(share: &Self::Share) -> Vec<u8> {
        theta_codec::Encode::encoded(share)
    }

    fn decode_share(&self, bytes: &[u8]) -> Result<Self::Share, SchemeError> {
        theta_codec::Decode::decoded(bytes).map_err(|e| SchemeError::Malformed(e.to_string()))
    }

    fn combine(&self, shares: &[Self::Share]) -> Result<ProtocolOutput, SchemeError> {
        sh00::combine(self.key.public(), &self.message, shares)
            .map(|sig| ProtocolOutput::Signature(theta_codec::Encode::encoded(&sig)))
    }
}

/// BLS04 threshold signing as a one-round protocol.
pub struct Bls04Sign {
    key: bls04::KeyShare,
    message: Vec<u8>,
    /// Message hash, computed once on first use: every detached pending
    /// check shares the same `H(m)` point.
    hashed: std::cell::OnceCell<Option<theta_math::bn254::G1>>,
}

impl Bls04Sign {
    /// Creates the adapter for signing `message`.
    pub fn new(key: bls04::KeyShare, message: Vec<u8>) -> Self {
        Bls04Sign { key, message, hashed: std::cell::OnceCell::new() }
    }
}

impl OneRoundScheme for Bls04Sign {
    type Share = bls04::SignatureShare;

    fn party(&self) -> PartyId {
        self.key.id()
    }

    fn quorum(&self) -> usize {
        self.key.public().params().quorum() as usize
    }

    fn create_share(&self, _rng: &mut dyn rand::RngCore) -> Result<Self::Share, SchemeError> {
        bls04::sign_share(&self.key, &self.message)
    }

    fn verify_share(&self, share: &Self::Share) -> bool {
        bls04::verify_share(self.key.public(), &self.message, share)
    }

    fn share_party(share: &Self::Share) -> PartyId {
        share.id()
    }

    fn encode_share(share: &Self::Share) -> Vec<u8> {
        theta_codec::Encode::encoded(share)
    }

    fn decode_share(&self, bytes: &[u8]) -> Result<Self::Share, SchemeError> {
        theta_codec::Decode::decoded(bytes).map_err(|e| SchemeError::Malformed(e.to_string()))
    }

    fn pending_check(&self, share: &Self::Share) -> Option<PendingCheck> {
        match self.hashed.get_or_init(|| bls04::hash_message(&self.message).ok()) {
            Some(h) => Some(bls04::pending_check_with_hash(self.key.public(), h, share)),
            // Hashing the message failed: no valid statement exists, so
            // every share of this instance is unverifiable.
            None => Some(PendingCheck::Invalid),
        }
    }

    fn combine(&self, shares: &[Self::Share]) -> Result<ProtocolOutput, SchemeError> {
        bls04::combine_preverified(self.key.public(), &self.message, shares)
            .map(|sig| ProtocolOutput::Signature(theta_codec::Encode::encoded(&sig)))
    }
}

/// CKS05 coin flipping as a one-round protocol.
pub struct Cks05Coin {
    key: cks05::KeyShare,
    name: Vec<u8>,
}

impl Cks05Coin {
    /// Creates the adapter for the coin called `name`.
    pub fn new(key: cks05::KeyShare, name: Vec<u8>) -> Self {
        Cks05Coin { key, name }
    }
}

impl OneRoundScheme for Cks05Coin {
    type Share = cks05::CoinShare;

    fn party(&self) -> PartyId {
        self.key.id()
    }

    fn quorum(&self) -> usize {
        self.key.public().params().quorum() as usize
    }

    fn create_share(&self, rng: &mut dyn rand::RngCore) -> Result<Self::Share, SchemeError> {
        Ok(cks05::create_coin_share(&self.key, &self.name, rng))
    }

    fn verify_share(&self, share: &Self::Share) -> bool {
        cks05::verify_coin_share(self.key.public(), &self.name, share)
    }

    fn share_party(share: &Self::Share) -> PartyId {
        share.id()
    }

    fn encode_share(share: &Self::Share) -> Vec<u8> {
        theta_codec::Encode::encoded(share)
    }

    fn decode_share(&self, bytes: &[u8]) -> Result<Self::Share, SchemeError> {
        theta_codec::Decode::decoded(bytes).map_err(|e| SchemeError::Malformed(e.to_string()))
    }

    fn pending_check(&self, share: &Self::Share) -> Option<PendingCheck> {
        Some(cks05::pending_check(self.key.public(), &self.name, share))
    }

    fn combine(&self, shares: &[Self::Share]) -> Result<ProtocolOutput, SchemeError> {
        cks05::combine_preverified(self.key.public(), &self.name, shares).map(ProtocolOutput::Coin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use theta_schemes::ThresholdParams;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x0c0)
    }

    /// A round-1 message from `sender` carrying `share`.
    fn share_msg<T: theta_codec::Encode>(sender: PartyId, share: &T) -> InboundMessage {
        InboundMessage { sender, round: 1, payload: theta_codec::Encode::encoded(share) }
    }

    /// Settles an instance's outbox the way the orchestration layer
    /// does: drain the detached checks, settle them as one batch, feed
    /// the verdicts back. Returns the number of verdicts delivered.
    fn settle_outbox<S: OneRoundScheme>(p: &mut OneRoundProtocol<S>) -> usize {
        let pending = p.take_pending_checks();
        let checks: Vec<&PendingCheck> = pending.iter().map(|(_, c)| c).collect();
        let verdicts = theta_schemes::batch::settle_mixed(&checks);
        let resolved: Vec<(PartyId, bool)> =
            pending.iter().zip(verdicts.iter()).map(|((id, _), ok)| (*id, *ok)).collect();
        p.resolve_checks(&resolved);
        resolved.len()
    }

    /// Runs a set of one-round TRI instances to completion by exchanging
    /// their messages all-to-all, settling each receiver's outbox after
    /// every delivery; returns each node's output.
    fn run_all<S: OneRoundScheme>(
        mut protocols: Vec<OneRoundProtocol<S>>,
        r: &mut rand::rngs::StdRng,
    ) -> Vec<ProtocolOutput> {
        let mut outboxes = Vec::new();
        for p in protocols.iter_mut() {
            let out = p.do_round(r).unwrap();
            outboxes.push((p.party(), out));
        }
        for (sender, out) in &outboxes {
            for msg in &out.messages {
                assert_eq!(msg.transport, Transport::P2p);
                for p in protocols.iter_mut() {
                    if p.party() != *sender {
                        p.update(&InboundMessage {
                            sender: *sender,
                            round: msg.round,
                            payload: msg.payload.clone(),
                        })
                        .unwrap();
                        settle_outbox(p);
                    }
                }
            }
        }
        protocols
            .iter_mut()
            .map(|p| {
                assert!(p.is_ready_to_finalize());
                p.finalize().unwrap()
            })
            .collect()
    }

    #[test]
    fn sg02_protocol_all_nodes_agree() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"label", b"tri plaintext", &mut r);
        let protos: Vec<_> = keys
            .into_iter()
            .map(|k| OneRoundProtocol::new_pooled(Sg02Decrypt::new(k, ct.clone())))
            .collect();
        let outputs = run_all(protos, &mut r);
        for out in outputs {
            assert_eq!(out, ProtocolOutput::Plaintext(b"tri plaintext".to_vec()));
        }
    }

    #[test]
    fn bz03_protocol_all_nodes_agree() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = theta_schemes::bz03::keygen(params, &mut r);
        let ct = theta_schemes::bz03::encrypt(&pk, b"label", b"bz03 plaintext", &mut r);
        let protos: Vec<_> = keys
            .into_iter()
            .map(|k| OneRoundProtocol::new_pooled(Bz03Decrypt::new(k, ct.clone())))
            .collect();
        let outputs = run_all(protos, &mut r);
        for out in outputs {
            assert_eq!(out, ProtocolOutput::Plaintext(b"bz03 plaintext".to_vec()));
        }
    }

    #[test]
    fn bls04_protocol_all_nodes_agree() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = theta_schemes::bls04::keygen(params, &mut r);
        let protos: Vec<_> = keys
            .into_iter()
            .map(|k| OneRoundProtocol::new_pooled(Bls04Sign::new(k, b"msg".to_vec())))
            .collect();
        let outputs = run_all(protos, &mut r);
        let first = outputs[0].clone();
        for out in &outputs {
            assert_eq!(*out, first);
        }
        if let ProtocolOutput::Signature(bytes) = first {
            let sig =
                <theta_schemes::bls04::Signature as theta_codec::Decode>::decoded(&bytes).unwrap();
            assert!(theta_schemes::bls04::verify(&pk, b"msg", &sig));
        } else {
            panic!("expected signature output");
        }
    }

    #[test]
    fn cks05_protocol_coin_agreement() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (_pk, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let protos: Vec<_> = keys
            .into_iter()
            .map(|k| OneRoundProtocol::new_pooled(Cks05Coin::new(k, b"epoch-9".to_vec())))
            .collect();
        let outputs = run_all(protos, &mut r);
        let first = outputs[0].clone();
        for out in outputs {
            assert_eq!(out, first);
        }
    }

    #[test]
    fn finalizes_at_exact_quorum_without_all_messages() {
        let mut r = rng();
        let params = ThresholdParams::new(2, 7).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let mut me = OneRoundProtocol::new_pooled(Sg02Decrypt::new(keys[0].clone(), ct.clone()));
        let _ = me.do_round(&mut r).unwrap();
        assert!(!me.is_ready_to_finalize()); // 1 of 3
                                             // Receive shares from parties 2 and 3 only.
        for k in &keys[1..3] {
            let share = theta_schemes::sg02::create_decryption_share(k, &ct, &mut r).unwrap();
            me.update(&share_msg(k.id(), &share)).unwrap();
        }
        settle_outbox(&mut me);
        assert!(me.is_ready_to_finalize());
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Plaintext(b"m".to_vec()));
    }

    #[test]
    fn invalid_share_rejected_but_instance_survives() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let mut me = OneRoundProtocol::new_pooled(Sg02Decrypt::new(keys[0].clone(), ct.clone()));
        let _ = me.do_round(&mut r).unwrap();
        // Garbage payload.
        assert!(me
            .update(&InboundMessage { sender: PartyId(2), round: 1, payload: vec![1, 2, 3] })
            .is_err());
        // Mis-attributed (valid share from 3 claimed as from 2).
        let share3 = theta_schemes::sg02::create_decryption_share(&keys[2], &ct, &mut r).unwrap();
        assert!(me.update(&share_msg(PartyId(2), &share3)).is_err());
        assert_eq!(me.share_count(), 1);
        // The honest share still lands and completes the instance.
        me.update(&share_msg(PartyId(3), &share3)).unwrap();
        settle_outbox(&mut me);
        assert!(me.is_ready_to_finalize());
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Plaintext(b"m".to_vec()));
    }

    #[test]
    fn stats_track_batch_and_prune_outcomes() {
        let mut r = rng();
        let params = ThresholdParams::new(2, 7).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let mut me = OneRoundProtocol::new_pooled(Sg02Decrypt::new(keys[0].clone(), ct.clone()));
        let _ = me.do_round(&mut r).unwrap();
        let other_ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let forged =
            theta_schemes::sg02::create_decryption_share(&keys[1], &other_ct, &mut r).unwrap();
        me.update(&share_msg(keys[1].id(), &forged)).unwrap();
        for k in &keys[2..4] {
            let share = theta_schemes::sg02::create_decryption_share(k, &ct, &mut r).unwrap();
            me.update(&share_msg(k.id(), &share)).unwrap();
        }
        // Quorum 3: own share plus two checks; party 4's share is held.
        assert_eq!(settle_outbox(&mut me), 2);
        let stats = me.stats();
        assert_eq!(stats.shares_pruned, 1, "the forged share must be pruned");
        assert_eq!(stats.cross_batched, 1);
        // The prune promotes the held share, whose check completes the quorum.
        assert_eq!(settle_outbox(&mut me), 1);
        let stats = me.stats();
        assert_eq!(stats.cross_batched, 2, "the honest remainder batch-verifies");
        assert_eq!(stats.eager_verifies, 0, "batchable schemes never verify inline");
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Plaintext(b"m".to_vec()));

        // SH00 has no detachable check: it counts per-share inline
        // checks instead, and a failing one excludes its sender too.
        let (_spk, skeys) =
            theta_schemes::sh00::keygen(ThresholdParams::new(1, 4).unwrap(), 256, &mut r).unwrap();
        let mut sh = OneRoundProtocol::new_pooled(Sh00Sign::new(skeys[0].clone(), b"m".to_vec()));
        let _ = sh.do_round(&mut r).unwrap();
        let bad = theta_schemes::sh00::sign_share(&skeys[1], b"other", &mut r);
        assert!(sh.update(&share_msg(skeys[1].id(), &bad)).is_err());
        let good = theta_schemes::sh00::sign_share(&skeys[1], b"m", &mut r);
        assert!(sh.update(&share_msg(skeys[1].id(), &good)).is_err());
        assert_eq!(sh.stats().eager_verifies, 1);
        let good = theta_schemes::sh00::sign_share(&skeys[2], b"m", &mut r);
        sh.update(&share_msg(skeys[2].id(), &good)).unwrap();
        assert_eq!(sh.stats().eager_verifies, 2);
        assert!(sh.take_pending_checks().is_empty());
        assert!(sh.is_ready_to_finalize());
    }

    #[test]
    fn pooled_mode_matches_verifying_combine_for_every_batchable_scheme() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();

        // SG02 decryption.
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"label", b"pooled", &mut r);
        let mut me = OneRoundProtocol::new_pooled(Sg02Decrypt::new(keys[0].clone(), ct.clone()));
        let _ = me.do_round(&mut r).unwrap();
        for k in &keys[1..3] {
            let share = theta_schemes::sg02::create_decryption_share(k, &ct, &mut r).unwrap();
            me.update(&share_msg(k.id(), &share)).unwrap();
        }
        // Party 2's share is decoded but unverified: quorum only counts
        // verdicts. Party 3's share is beyond the quorum and held unread.
        assert_eq!(me.share_count(), 2);
        assert!(!me.is_ready_to_finalize());
        assert_eq!(settle_outbox(&mut me), 1);
        assert!(me.is_ready_to_finalize());
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Plaintext(b"pooled".to_vec()));
        assert_eq!(me.stats().cross_batched, 1);
        assert_eq!(me.stats().shares_unread, 1);
        assert_eq!(me.stats().eager_verifies, 0);

        // BZ03 decryption (pairing checks ride the same outbox).
        let (zpk, zkeys) = theta_schemes::bz03::keygen(params, &mut r);
        let zct = theta_schemes::bz03::encrypt(&zpk, b"label", b"bz03", &mut r);
        let mut me = OneRoundProtocol::new_pooled(Bz03Decrypt::new(zkeys[0].clone(), zct.clone()));
        let _ = me.do_round(&mut r).unwrap();
        let zshares: Vec<_> = zkeys[1..3]
            .iter()
            .map(|k| theta_schemes::bz03::create_decryption_share(k, &zct).unwrap())
            .collect();
        for share in &zshares {
            me.update(&share_msg(share.id(), share)).unwrap();
        }
        assert!(!me.is_ready_to_finalize());
        settle_outbox(&mut me);
        let expected = theta_schemes::bz03::combine(&zpk, &zct, &zshares).unwrap();
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Plaintext(expected));

        // BLS04 signing.
        let (bpk, bkeys) = theta_schemes::bls04::keygen(params, &mut r);
        let mut me = OneRoundProtocol::new_pooled(Bls04Sign::new(bkeys[0].clone(), b"m".to_vec()));
        let _ = me.do_round(&mut r).unwrap();
        let bshares: Vec<_> =
            bkeys.iter().map(|k| theta_schemes::bls04::sign_share(k, b"m").unwrap()).collect();
        for share in &bshares[1..3] {
            me.update(&share_msg(share.id(), share)).unwrap();
        }
        assert!(!me.is_ready_to_finalize());
        settle_outbox(&mut me);
        assert!(me.is_ready_to_finalize());
        let expected = theta_schemes::bls04::combine(&bpk, b"m", &bshares[..3]).unwrap();
        assert_eq!(
            me.finalize().unwrap(),
            ProtocolOutput::Signature(theta_codec::Encode::encoded(&expected))
        );

        // CKS05 coin.
        let (cpk, ckeys) = theta_schemes::cks05::keygen(params, &mut r);
        let mut me = OneRoundProtocol::new_pooled(Cks05Coin::new(ckeys[0].clone(), b"c".to_vec()));
        let _ = me.do_round(&mut r).unwrap();
        let cshares: Vec<_> = ckeys[2..4]
            .iter()
            .map(|k| theta_schemes::cks05::create_coin_share(k, b"c", &mut r))
            .collect();
        for share in &cshares {
            me.update(&share_msg(share.id(), share)).unwrap();
        }
        settle_outbox(&mut me);
        let expected = theta_schemes::cks05::combine(&cpk, b"c", &cshares).unwrap();
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Coin(expected));
    }

    #[test]
    fn pooled_mode_prunes_bad_share_on_false_verdict() {
        let mut r = rng();
        let params = ThresholdParams::new(2, 7).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let mut me = OneRoundProtocol::new_pooled(Sg02Decrypt::new(keys[0].clone(), ct.clone()));
        let _ = me.do_round(&mut r).unwrap();
        // A forged share: a valid share from party 2 for a *different*
        // ciphertext decodes fine but fails verification.
        let other_ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let forged =
            theta_schemes::sg02::create_decryption_share(&keys[1], &other_ct, &mut r).unwrap();
        me.update(&share_msg(keys[1].id(), &forged)).unwrap();
        let honest = theta_schemes::sg02::create_decryption_share(&keys[2], &ct, &mut r).unwrap();
        me.update(&share_msg(keys[2].id(), &honest)).unwrap();
        settle_outbox(&mut me);
        // The forged share was pruned by its verdict; the honest one
        // verified. 2 of 3 needed.
        assert_eq!(me.share_count(), 2);
        assert!(!me.is_ready_to_finalize());
        assert_eq!(me.stats().shares_pruned, 1);
        assert_eq!(me.stats().cross_batched, 1);
        // The pruned party is excluded: even a valid replacement share
        // from it is rejected and enqueues no check.
        let honest1 = theta_schemes::sg02::create_decryption_share(&keys[1], &ct, &mut r).unwrap();
        assert!(matches!(
            me.update(&share_msg(keys[1].id(), &honest1)),
            Err(SchemeError::InvalidShare { party: 2 })
        ));
        assert!(me.take_pending_checks().is_empty());
        // An honest share from another party recovers the quorum.
        let honest3 = theta_schemes::sg02::create_decryption_share(&keys[3], &ct, &mut r).unwrap();
        me.update(&share_msg(keys[3].id(), &honest3)).unwrap();
        settle_outbox(&mut me);
        assert!(me.is_ready_to_finalize());
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Plaintext(b"m".to_vec()));
    }

    /// A forged share that fills a candidate quorum while its check is
    /// still detached must not let the instance finalize: settling the
    /// batch prunes it, the count drops below quorum, and one more honest
    /// share recovers. (The name predates the removal of the separate
    /// lazy mode; the pooled path now owns this behaviour.)
    #[test]
    fn lazy_mode_prunes_bad_share_at_quorum_and_recovers() {
        let mut r = rng();
        let params = ThresholdParams::new(2, 7).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let mut me = OneRoundProtocol::new_pooled(Sg02Decrypt::new(keys[0].clone(), ct.clone()));
        let _ = me.do_round(&mut r).unwrap();
        let other_ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let forged =
            theta_schemes::sg02::create_decryption_share(&keys[1], &other_ct, &mut r).unwrap();
        me.update(&share_msg(keys[1].id(), &forged)).unwrap();
        let honest = theta_schemes::sg02::create_decryption_share(&keys[2], &ct, &mut r).unwrap();
        me.update(&share_msg(keys[2].id(), &honest)).unwrap();
        // Three shares stored, two of them unverified: a candidate quorum
        // that is not yet ready.
        assert_eq!(me.share_count(), 3);
        assert!(!me.is_ready_to_finalize());
        assert_eq!(settle_outbox(&mut me), 2);
        // The forged share was pruned; the count drops below quorum.
        assert_eq!(me.share_count(), 2);
        assert!(!me.is_ready_to_finalize());
        assert_eq!(me.stats().shares_pruned, 1);
        // One more honest share completes the quorum.
        let honest2 = theta_schemes::sg02::create_decryption_share(&keys[3], &ct, &mut r).unwrap();
        me.update(&share_msg(keys[3].id(), &honest2)).unwrap();
        assert!(!me.is_ready_to_finalize());
        settle_outbox(&mut me);
        assert!(me.is_ready_to_finalize());
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Plaintext(b"m".to_vec()));
    }

    /// A verdict is keyed by party only, so it must never land on a share
    /// other than the one it checked. Byzantine party 2 sends forged F,
    /// F again, its honest H, then F: the late `true` verdict for H must
    /// not mark the re-stored F verified.
    #[test]
    fn stale_verdict_cannot_verify_forged_share() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let mut me = OneRoundProtocol::new_pooled(Cks05Coin::new(keys[0].clone(), b"c".to_vec()));
        let _ = me.do_round(&mut r).unwrap();
        let forged = share_msg(
            keys[1].id(),
            &theta_schemes::cks05::create_coin_share(&keys[1], b"x", &mut r),
        );
        let honest = share_msg(
            keys[1].id(),
            &theta_schemes::cks05::create_coin_share(&keys[1], b"c", &mut r),
        );
        let verdict =
            |p: &mut OneRoundProtocol<Cks05Coin>, ok: bool| p.resolve_checks(&[(PartyId(2), ok)]);

        me.update(&forged).unwrap(); // 1. check cF1 enqueued
        me.update(&forged).unwrap(); // 2. check cF2 enqueued
        verdict(&mut me, false); // 3. cF1 settles false
        let _ = me.update(&honest); // 4. H delivered
        verdict(&mut me, false); // 5. stale cF2 settles false
        let _ = me.update(&forged); // 6. F delivered again
        verdict(&mut me, true); // 7. H's verdict settles true
        assert!(!me.is_ready_to_finalize(), "a stale verdict verified a forged share");
        assert_eq!(me.stats().cross_batched, 0);

        // An honest third party completes the coin every node agrees on.
        let share3 = theta_schemes::cks05::create_coin_share(&keys[2], b"c", &mut r);
        me.update(&share_msg(keys[2].id(), &share3)).unwrap();
        settle_outbox(&mut me);
        let honest_shares = [
            theta_schemes::cks05::create_coin_share(&keys[2], b"c", &mut r),
            theta_schemes::cks05::create_coin_share(&keys[3], b"c", &mut r),
        ];
        let expected = theta_schemes::cks05::combine(&pk, b"c", &honest_shares).unwrap();
        assert_eq!(me.finalize().unwrap(), ProtocolOutput::Coin(expected));
    }

    #[test]
    fn pooled_mode_rejects_conflicting_share_while_verdict_outstanding() {
        let mut r = rng();
        let params = ThresholdParams::new(2, 7).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"m", &mut r);
        let mut me = OneRoundProtocol::new_pooled(Sg02Decrypt::new(keys[0].clone(), ct.clone()));
        let _ = me.do_round(&mut r).unwrap();
        let share = theta_schemes::sg02::create_decryption_share(&keys[1], &ct, &mut r).unwrap();
        let payload = theta_codec::Encode::encoded(&share);
        me.update(&InboundMessage { sender: keys[1].id(), round: 1, payload: payload.clone() })
            .unwrap();
        // A *different* share from the same party while its verdict is
        // outstanding: rejected (one share version in flight per party).
        let share2 = theta_schemes::sg02::create_decryption_share(&keys[1], &ct, &mut r).unwrap();
        assert!(matches!(
            me.update(&InboundMessage {
                sender: keys[1].id(),
                round: 1,
                payload: theta_codec::Encode::encoded(&share2),
            }),
            Err(SchemeError::InvalidShare { party: 2 })
        ));
        // An identical re-delivery re-enqueues the check (self-healing
        // for a dropped verdict)...
        me.update(&InboundMessage { sender: keys[1].id(), round: 1, payload: payload.clone() })
            .unwrap();
        assert_eq!(me.take_pending_checks().len(), 2, "original + re-enqueued check");
        // ...and once the verdict lands, further re-deliveries are no-ops.
        me.resolve_checks(&[(keys[1].id(), true)]);
        me.update(&InboundMessage { sender: keys[1].id(), round: 1, payload }).unwrap();
        assert!(me.take_pending_checks().is_empty());
        // Stale verdict for a party with no admitted share is ignored.
        me.resolve_checks(&[(PartyId(6), false)]);
        assert_eq!(me.stats().shares_pruned, 0);
    }

    #[test]
    fn pooled_sh00_falls_back_to_eager_inline_verification() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = theta_schemes::sh00::keygen(params, 256, &mut r).unwrap();
        let protos: Vec<_> = keys
            .into_iter()
            .map(|k| OneRoundProtocol::new_pooled(Sh00Sign::new(k, b"rsa msg".to_vec())))
            .collect();
        // SH00 has no batchable check: pooled mode verifies inline, so
        // the all-to-all run completes without any settle step.
        let outputs = run_all(protos, &mut r);
        let first = outputs[0].clone();
        for out in &outputs {
            assert_eq!(*out, first);
        }
        if let ProtocolOutput::Signature(bytes) = first {
            let sig =
                <theta_schemes::sh00::Signature as theta_codec::Decode>::decoded(&bytes).unwrap();
            assert!(theta_schemes::sh00::verify(&pk, b"rsa msg", &sig));
        } else {
            panic!("expected signature output");
        }
    }

    #[test]
    fn driver_forwards_pending_checks_and_verdicts() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = theta_schemes::sg02::keygen(params, &mut r);
        let ct = theta_schemes::sg02::encrypt(&pk, b"l", b"driver", &mut r);
        let mut d = crate::ProtocolDriver::new(Box::new(OneRoundProtocol::new_pooled(
            Sg02Decrypt::new(keys[0].clone(), ct.clone()),
        )));
        let _ = d.start(&mut r).unwrap();
        for k in &keys[1..3] {
            let share = theta_schemes::sg02::create_decryption_share(k, &ct, &mut r).unwrap();
            d.deliver(&InboundMessage {
                sender: k.id(),
                round: 1,
                payload: theta_codec::Encode::encoded(&share),
            })
            .unwrap();
        }
        // Quorum 2: party 2's check completes it, party 3's share is held.
        let pending = d.take_pending_checks();
        assert_eq!(pending.len(), 1);
        // No verdicts yet: the instance cannot finalize.
        assert!(d.advance(&mut r).finished.is_none());
        let verdicts: Vec<(PartyId, bool)> = pending.iter().map(|(id, _)| (*id, true)).collect();
        d.resolve_checks(&verdicts);
        let step = d.advance(&mut r);
        match step.finished {
            Some(Ok(ProtocolOutput::Plaintext(p))) => assert_eq!(p, b"driver".to_vec()),
            other => panic!("expected plaintext, got {other:?}"),
        }
        assert!(step.combine_time.is_some());
        assert_eq!(d.stats().shares_unread, 1);
        // Finished: the driver drains and drops any residue.
        assert!(d.take_pending_checks().is_empty());
    }

    /// CKS05 shares of `keys` for the coin `name`, as messages from their
    /// own parties.
    fn coin_msgs(
        keys: &[theta_schemes::cks05::KeyShare],
        name: &[u8],
        r: &mut rand::rngs::StdRng,
    ) -> Vec<InboundMessage> {
        keys.iter()
            .map(|k| share_msg(k.id(), &theta_schemes::cks05::create_coin_share(k, name, r)))
            .collect()
    }

    /// The coin every honest quorum of `keys` combines to.
    fn honest_coin(
        pk: &theta_schemes::cks05::PublicKey,
        keys: &[theta_schemes::cks05::KeyShare],
        name: &[u8],
        r: &mut rand::rngs::StdRng,
    ) -> ProtocolOutput {
        let shares: Vec<_> = keys
            .iter()
            .map(|k| theta_schemes::cks05::create_coin_share(k, name, r))
            .collect();
        ProtocolOutput::Coin(theta_schemes::cks05::combine(pk, name, &shares).unwrap())
    }

    #[test]
    fn held_shares_are_never_decoded_on_the_happy_path() {
        let mut r = rng();
        let (pk, keys) = theta_schemes::cks05::keygen(ThresholdParams::new(1, 4).unwrap(), &mut r);
        let mut me = OneRoundProtocol::new_pooled(Cks05Coin::new(keys[0].clone(), b"c".to_vec()));
        let _ = me.do_round(&mut r).unwrap();
        for msg in coin_msgs(&keys[1..], b"c", &mut r) {
            me.update(&msg).unwrap();
        }
        // Own share plus party 2's completes quorum 2: parties 3 and 4
        // are held, and only party 2's share is decoded and checked.
        assert_eq!(me.share_count(), 2);
        assert_eq!(me.held.len(), 2);
        assert_eq!(settle_outbox(&mut me), 1);
        let expected = honest_coin(&pk, &keys[..2], b"c", &mut r);
        assert_eq!(me.finalize().unwrap(), expected);
        let stats = me.stats();
        assert_eq!((stats.cross_batched, stats.shares_unread), (1, 2));
        assert!(me.held.is_empty(), "held shares are dropped at finalize");
    }

    #[test]
    fn forged_share_among_first_quorum_finalizes_through_held_share() {
        let mut r = rng();
        let (pk, keys) = theta_schemes::cks05::keygen(ThresholdParams::new(1, 4).unwrap(), &mut r);
        let mut me = OneRoundProtocol::new_pooled(Cks05Coin::new(keys[0].clone(), b"c".to_vec()));
        let _ = me.do_round(&mut r).unwrap();
        // Party 2's share is for another coin: it decodes, fills the
        // quorum's last slot and fails its check.
        me.update(&coin_msgs(&keys[1..2], b"other", &mut r)[0]).unwrap();
        for msg in coin_msgs(&keys[2..], b"c", &mut r) {
            me.update(&msg).unwrap();
        }
        assert_eq!(me.held.len(), 2);
        assert_eq!(settle_outbox(&mut me), 1);
        assert!(!me.is_ready_to_finalize());
        assert_eq!(me.stats().shares_pruned, 1, "the forged share must be pruned");
        // The prune promoted party 3's held share; its check settles.
        assert_eq!(me.held.len(), 1);
        assert_eq!(settle_outbox(&mut me), 1);
        assert!(me.is_ready_to_finalize());
        assert_eq!(me.finalize().unwrap(), honest_coin(&pk, &keys[2..], b"c", &mut r));
        assert!(me.excluded.contains(&keys[1].id()));
        assert_eq!(me.stats().shares_unread, 1);
    }

    #[test]
    fn held_party_conflicting_resend_rejected_identical_is_noop() {
        let mut r = rng();
        let (_pk, keys) =
            theta_schemes::cks05::keygen(ThresholdParams::new(1, 4).unwrap(), &mut r);
        let mut me = OneRoundProtocol::new_pooled(Cks05Coin::new(keys[0].clone(), b"c".to_vec()));
        let _ = me.do_round(&mut r).unwrap();
        let first = coin_msgs(&keys[1..3], b"c", &mut r);
        for msg in &first {
            me.update(msg).unwrap();
        }
        // Party 3 is held. Its identical re-send changes nothing...
        me.update(&first[1]).unwrap();
        assert_eq!(me.held.len(), 1);
        assert_eq!(me.take_pending_checks().len(), 1, "party 2's check only");
        // ...but a second share version (fresh proof randomness) is
        // rejected, as it is from party 2, whose verdict is pending.
        let second = coin_msgs(&keys[1..3], b"c", &mut r);
        assert!(matches!(me.update(&second[1]), Err(SchemeError::InvalidShare { party: 3 })));
        assert!(matches!(me.update(&second[0]), Err(SchemeError::InvalidShare { party: 2 })));
        assert_eq!(me.held.front().map(|(_, p)| p), Some(&first[1].payload));
        assert!(me.take_pending_checks().is_empty());
    }

    #[test]
    fn bad_held_share_is_excluded_on_promotion_and_the_next_promoted() {
        let mut r = rng();
        let (pk, keys) = theta_schemes::cks05::keygen(ThresholdParams::new(1, 5).unwrap(), &mut r);
        let mut me = OneRoundProtocol::new_pooled(Cks05Coin::new(keys[0].clone(), b"c".to_vec()));
        let _ = me.do_round(&mut r).unwrap();
        let honest = coin_msgs(&keys[1..], b"c", &mut r);
        let forged = coin_msgs(&keys[1..2], b"other", &mut r).remove(0);
        me.update(&forged).unwrap();
        // Held: party 3 garbled, party 4 carrying party 5's share, party 5.
        me.update(&InboundMessage { sender: keys[2].id(), round: 1, payload: vec![7; 9] })
            .unwrap();
        me.update(&InboundMessage { sender: keys[3].id(), ..honest[3].clone() }).unwrap();
        me.update(&honest[3]).unwrap();
        assert_eq!(me.held.len(), 3);
        // The forged share's prune promotes party 3 (undecodable) and
        // party 4 (mis-attributed): both are excluded, party 5 admitted.
        assert_eq!(settle_outbox(&mut me), 1);
        assert!(me.held.is_empty());
        assert_eq!(me.stats().shares_pruned, 3);
        for party in [2, 3, 4] {
            assert!(matches!(
                me.update(&honest[party - 2]),
                Err(SchemeError::InvalidShare { party: p }) if p == party as u16
            ));
        }
        assert_eq!(settle_outbox(&mut me), 1);
        let expected = honest_coin(&pk, &[keys[0].clone(), keys[4].clone()], b"c", &mut r);
        assert_eq!(me.finalize().unwrap(), expected);
    }

    #[test]
    fn double_do_round_rejected() {
        let mut r = rng();
        let params = ThresholdParams::new(0, 1).unwrap();
        let (_pk, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let mut p = OneRoundProtocol::new_pooled(Cks05Coin::new(keys[0].clone(), b"c".to_vec()));
        let _ = p.do_round(&mut r).unwrap();
        assert!(p.do_round(&mut r).is_err());
    }

    #[test]
    fn finalize_before_quorum_errors() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (_pk, keys) = theta_schemes::cks05::keygen(params, &mut r);
        let mut p = OneRoundProtocol::new_pooled(Cks05Coin::new(keys[0].clone(), b"c".to_vec()));
        let _ = p.do_round(&mut r).unwrap();
        assert!(matches!(p.finalize(), Err(SchemeError::NotEnoughShares { have: 1, need: 2 })));
    }
}
