//! The two-round KG20 / FROST protocol under the TRI.
//!
//! This is the multi-round protocol that motivated the TRI design in the
//! paper (§3.5: "FROST is the first multi-round protocol to have been
//! implemented in Thetacrypt, and served as a model and test case").
//!
//! Round 1 broadcasts nonce commitments over **total-order broadcast**
//! so every party derives the identical signing-set view; round 2 sends
//! responses peer-to-peer. The signing group is fixed a priori to all
//! `n` parties (as in the paper's evaluation), which is why KG20 waits
//! for everyone and is not robust: any misbehaviour aborts the run.
//!
//! The signing set ([`SigningSet`]) is derived once, at the round-1 →
//! round-2 transition, from the first commitment each party delivered;
//! every response is verified against it before it counts, and
//! finalization combines the verified responses without re-verifying.
//!
//! With a precomputed nonce ([`Kg20Sign::with_precomputed_nonce`]) round
//! 1 still exchanges the commitments but needs no fresh randomness —
//! the paper's preprocessing mode.

use crate::{
    InboundMessage, OutboundMessage, ProtocolOutput, ProtocolStats, RoundOutput,
    ThresholdRoundProtocol, Transport,
};
use std::collections::BTreeMap;
use theta_codec::{Decode, Encode};
use theta_schemes::kg20::{
    self, KeyShare, NonceCommitment, SignatureShare, SigningNonce, SigningSet,
};
use theta_schemes::{PartyId, SchemeError};

/// TRI state machine for KG20 threshold Schnorr signing.
pub struct Kg20Sign {
    key: KeyShare,
    message: Vec<u8>,
    round: u16,
    nonce: Option<SigningNonce>,
    /// The first commitment each party delivered; later ones never
    /// replace it.
    commitments: BTreeMap<PartyId, NonceCommitment>,
    /// Derived once from `commitments` when round 2 starts.
    set: Option<SigningSet>,
    /// Verified responses (our own is trusted).
    shares: BTreeMap<PartyId, SignatureShare>,
    stats: ProtocolStats,
    /// Set when a party misbehaved; FROST aborts.
    aborted_by: Option<PartyId>,
    finished: bool,
}

impl Kg20Sign {
    /// Creates a fresh two-round signing instance (nonce generated in
    /// round 1).
    pub fn new(key: KeyShare, message: Vec<u8>) -> Self {
        Kg20Sign {
            key,
            message,
            round: 0,
            nonce: None,
            commitments: BTreeMap::new(),
            set: None,
            shares: BTreeMap::new(),
            stats: ProtocolStats::default(),
            aborted_by: None,
            finished: false,
        }
    }

    /// Creates an instance that consumes a precomputed nonce (the
    /// paper's preprocessing mode — signing needs only one fresh round).
    pub fn with_precomputed_nonce(key: KeyShare, message: Vec<u8>, nonce: SigningNonce) -> Self {
        let mut p = Self::new(key, message);
        p.nonce = Some(nonce);
        p
    }

    /// The fixed signing group size (all `n` parties).
    fn group_size(&self) -> usize {
        self.key.public().params().n() as usize
    }

    /// The party that caused an abort, if any.
    pub fn aborted_by(&self) -> Option<PartyId> {
        self.aborted_by
    }
}

impl ThresholdRoundProtocol for Kg20Sign {
    fn do_round(&mut self, rng: &mut dyn rand::RngCore) -> Result<RoundOutput, SchemeError> {
        match self.round {
            0 => {
                self.round = 1;
                let nonce = match self.nonce.take() {
                    Some(n) => n,
                    None => kg20::generate_nonce(&self.key, rng),
                };
                let commitment = nonce.commitment().clone();
                self.commitments.insert(self.key.id(), commitment.clone());
                self.nonce = Some(nonce);
                Ok(RoundOutput {
                    messages: vec![OutboundMessage {
                        transport: Transport::Tob,
                        round: 1,
                        payload: commitment.encoded(),
                    }],
                })
            }
            1 => {
                if !self.is_ready_for_next_round() {
                    return Err(SchemeError::NotEnoughShares {
                        have: self.commitments.len(),
                        need: self.group_size(),
                    });
                }
                self.round = 2;
                let nonce = self
                    .nonce
                    .take()
                    .ok_or_else(|| SchemeError::InvalidParameters("nonce consumed".into()))?;
                let commitments: Vec<NonceCommitment> =
                    self.commitments.values().cloned().collect();
                let set = SigningSet::new(self.key.public(), &self.message, &commitments)?;
                let share = set.sign_share(&self.key, nonce)?;
                let payload = share.encoded();
                self.shares.insert(self.key.id(), share);
                self.set = Some(set);
                Ok(RoundOutput {
                    messages: vec![OutboundMessage {
                        transport: Transport::P2p,
                        round: 2,
                        payload,
                    }],
                })
            }
            _ => Err(SchemeError::InvalidParameters("protocol already in round 2".into())),
        }
    }

    fn update(&mut self, message: &InboundMessage) -> Result<(), SchemeError> {
        match message.round {
            1 => {
                let commitment = NonceCommitment::decoded(&message.payload)
                    .map_err(|e| SchemeError::Malformed(e.to_string()))?;
                if commitment.id() != message.sender {
                    return Err(SchemeError::InvalidShare { party: message.sender.value() });
                }
                if commitment.id().value() == 0
                    || commitment.id().value() > self.key.public().params().n()
                {
                    return Err(SchemeError::InvalidShareSet("party outside group".into()));
                }
                // First commitment wins. TOB delivers the same order to
                // every node, so honest nodes keep the same one; a later,
                // differing commitment would otherwise rewrite the
                // signing set that responses are checked against.
                match self.commitments.get(&commitment.id()) {
                    None => {
                        self.commitments.insert(commitment.id(), commitment);
                        Ok(())
                    }
                    Some(held) if *held == commitment => Ok(()),
                    Some(_) => Err(SchemeError::InvalidShare { party: message.sender.value() }),
                }
            }
            2 => {
                let share = SignatureShare::decoded(&message.payload)
                    .map_err(|e| SchemeError::Malformed(e.to_string()))?;
                if share.id() != message.sender {
                    self.aborted_by = Some(message.sender);
                    return Err(SchemeError::InvalidShare { party: message.sender.value() });
                }
                if let Some(held) = self.shares.get(&share.id()) {
                    // A re-delivery (P2P retry) is already verified. Only
                    // one response verifies under the set, so a differing
                    // one is invalid; it never replaces the held one.
                    return if *held == share {
                        Ok(())
                    } else {
                        Err(SchemeError::InvalidShare { party: share.id().value() })
                    };
                }
                let Some(set) = &self.set else {
                    return Err(SchemeError::InvalidParameters(
                        "response before the signing set is fixed".into(),
                    ));
                };
                self.stats.eager_verifies += 1;
                if !set.verify_share(self.key.public(), &share) {
                    // Non-robust: a bad response dooms this run.
                    self.aborted_by = Some(share.id());
                    return Err(SchemeError::InvalidShare { party: share.id().value() });
                }
                self.shares.insert(share.id(), share);
                Ok(())
            }
            other => Err(SchemeError::Malformed(format!("unexpected round {other}"))),
        }
    }

    fn is_ready_for_next_round(&self) -> bool {
        self.round == 1 && self.commitments.len() == self.group_size()
    }

    fn is_ready_to_finalize(&self) -> bool {
        // An abort finalizes immediately (to the abort error): FROST is
        // non-robust, so once a party misbehaved the run can never
        // produce a signature and waiting for more shares only turns a
        // crisp failure into an instance timeout.
        !self.finished
            && (self.aborted_by.is_some()
                || (self.round == 2 && self.shares.len() == self.group_size()))
    }

    fn finalize(&mut self) -> Result<ProtocolOutput, SchemeError> {
        if let Some(party) = self.aborted_by {
            return Err(SchemeError::InvalidShare { party: party.value() });
        }
        if !self.is_ready_to_finalize() {
            return Err(SchemeError::NotEnoughShares {
                have: self.shares.len(),
                need: self.group_size(),
            });
        }
        let set = self
            .set
            .as_ref()
            .ok_or_else(|| SchemeError::InvalidParameters("signing set not fixed".into()))?;
        let shares: Vec<SignatureShare> = self.shares.values().cloned().collect();
        let sig = set.combine_preverified(&shares)?;
        self.finished = true;
        Ok(ProtocolOutput::Signature(sig.encoded()))
    }

    fn current_round(&self) -> u16 {
        self.round
    }

    fn party(&self) -> PartyId {
        self.key.id()
    }

    fn stats(&self) -> ProtocolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use theta_schemes::ThresholdParams;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0x6021)
    }

    fn broadcast_round(
        protocols: &mut [Kg20Sign],
        r: &mut rand::rngs::StdRng,
    ) -> Vec<(PartyId, RoundOutput)> {
        let outs: Vec<(PartyId, RoundOutput)> = protocols
            .iter_mut()
            .map(|p| (p.party(), p.do_round(r).unwrap()))
            .collect();
        for (sender, out) in &outs {
            for msg in &out.messages {
                for p in protocols.iter_mut() {
                    if p.party() != *sender {
                        p.update(&InboundMessage {
                            sender: *sender,
                            round: msg.round,
                            payload: msg.payload.clone(),
                        })
                        .unwrap();
                    }
                }
            }
        }
        outs
    }

    #[test]
    fn full_two_round_run() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = kg20::keygen(params, &mut r);
        let mut protos: Vec<Kg20Sign> = keys
            .into_iter()
            .map(|k| Kg20Sign::new(k, b"two-round".to_vec()))
            .collect();

        // Round 1: everyone commits over TOB.
        let outs = broadcast_round(&mut protos, &mut r);
        for (_, out) in &outs {
            assert_eq!(out.messages[0].transport, Transport::Tob);
        }
        for p in &protos {
            assert!(p.is_ready_for_next_round());
            assert!(!p.is_ready_to_finalize());
        }

        // Round 2: responses over P2P.
        let outs = broadcast_round(&mut protos, &mut r);
        for (_, out) in &outs {
            assert_eq!(out.messages[0].transport, Transport::P2p);
        }
        let mut sigs = Vec::new();
        for p in protos.iter_mut() {
            assert!(p.is_ready_to_finalize());
            sigs.push(p.finalize().unwrap());
        }
        // All agree and the signature verifies.
        for s in &sigs {
            assert_eq!(*s, sigs[0]);
        }
        if let ProtocolOutput::Signature(bytes) = &sigs[0] {
            let sig = <theta_schemes::kg20::Signature as Decode>::decoded(bytes).unwrap();
            assert!(kg20::verify(&pk, b"two-round", &sig));
        } else {
            panic!("expected signature");
        }
    }

    #[test]
    fn precomputed_nonce_mode() {
        let mut r = rng();
        let params = ThresholdParams::new(0, 2).unwrap();
        let (pk, keys) = kg20::keygen(params, &mut r);
        let n0 = kg20::precompute_nonces(&keys[0], 1, &mut r).pop().unwrap();
        let n1 = kg20::precompute_nonces(&keys[1], 1, &mut r).pop().unwrap();
        let mut protos = vec![
            Kg20Sign::with_precomputed_nonce(keys[0].clone(), b"pre".to_vec(), n0),
            Kg20Sign::with_precomputed_nonce(keys[1].clone(), b"pre".to_vec(), n1),
        ];
        broadcast_round(&mut protos, &mut r);
        broadcast_round(&mut protos, &mut r);
        for p in protos.iter_mut() {
            let out = p.finalize().unwrap();
            if let ProtocolOutput::Signature(bytes) = out {
                let sig = <theta_schemes::kg20::Signature as Decode>::decoded(&bytes).unwrap();
                assert!(kg20::verify(&pk, b"pre", &sig));
            } else {
                panic!("expected signature");
            }
        }
    }

    #[test]
    fn cannot_advance_before_all_commitments() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (_pk, keys) = kg20::keygen(params, &mut r);
        let mut p = Kg20Sign::new(keys[0].clone(), b"m".to_vec());
        let _ = p.do_round(&mut r).unwrap();
        assert!(!p.is_ready_for_next_round()); // only own commitment
        assert!(p.do_round(&mut r).is_err()); // premature round 2
    }

    #[test]
    fn bad_round2_share_aborts() {
        let mut r = rng();
        let params = ThresholdParams::new(0, 2).unwrap();
        let (_pk, keys) = kg20::keygen(params, &mut r);
        let mut protos = vec![
            Kg20Sign::new(keys[0].clone(), b"m".to_vec()),
            Kg20Sign::new(keys[1].clone(), b"m".to_vec()),
        ];
        broadcast_round(&mut protos, &mut r);
        // Round 2 messages, but party 2's share is corrupted in flight.
        let outs: Vec<(PartyId, RoundOutput)> = protos
            .iter_mut()
            .map(|p| (p.party(), p.do_round(&mut r).unwrap()))
            .collect();
        let (sender2, out2) = &outs[1];
        let mut bad_payload = out2.messages[0].payload.clone();
        let last = bad_payload.len() - 1;
        bad_payload[last] ^= 1;
        let err = protos[0].update(&InboundMessage {
            sender: *sender2,
            round: 2,
            payload: bad_payload,
        });
        assert!(err.is_err());
        assert_eq!(protos[0].aborted_by(), Some(PartyId(2)));
        // The abort makes the run finalize *immediately* — to the abort
        // error, not a signature — instead of idling until timeout.
        assert!(protos[0].is_ready_to_finalize());
        assert!(protos[0].finalize().is_err());
    }

    fn assert_signs(p: &mut Kg20Sign, pk: &kg20::PublicKey) {
        assert!(p.is_ready_to_finalize());
        match p.finalize().unwrap() {
            ProtocolOutput::Signature(bytes) => {
                let sig = <kg20::Signature as Decode>::decoded(&bytes).unwrap();
                assert!(kg20::verify(pk, b"m", &sig));
            }
            other => panic!("expected signature, got {other:?}"),
        }
    }

    #[test]
    fn late_differing_commitment_cannot_rewrite_signing_set() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = kg20::keygen(params, &mut r);
        let mut protos: Vec<Kg20Sign> =
            keys.iter().map(|k| Kg20Sign::new(k.clone(), b"m".to_vec())).collect();
        broadcast_round(&mut protos, &mut r);
        let responses: Vec<(PartyId, RoundOutput)> = protos
            .iter_mut()
            .map(|p| (p.party(), p.do_round(&mut r).unwrap()))
            .collect();
        // Party 2 TOB-submits a second, different commitment; party 1 is
        // already in round 2 and still receives round-1 messages.
        let second = kg20::generate_nonce(&keys[1], &mut r).commitment().encoded();
        let equivocation = InboundMessage { sender: PartyId(2), round: 1, payload: second };
        assert!(matches!(
            protos[0].update(&equivocation),
            Err(SchemeError::InvalidShare { party: 2 })
        ));
        // The first commitment again is a harmless no-op.
        let first = protos[0].commitments[&PartyId(2)].encoded();
        protos[0]
            .update(&InboundMessage { sender: PartyId(2), round: 1, payload: first })
            .unwrap();
        // Every honest response still verifies against the original set.
        for (sender, out) in &responses[1..] {
            protos[0]
                .update(&InboundMessage {
                    sender: *sender,
                    round: 2,
                    payload: out.messages[0].payload.clone(),
                })
                .unwrap();
        }
        assert_eq!(protos[0].aborted_by(), None);
        assert_signs(&mut protos[0], &pk);
    }

    #[test]
    fn redelivered_response_is_not_verified_again() {
        let mut r = rng();
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, keys) = kg20::keygen(params, &mut r);
        let mut protos: Vec<Kg20Sign> =
            keys.into_iter().map(|k| Kg20Sign::new(k, b"m".to_vec())).collect();
        broadcast_round(&mut protos, &mut r);
        let responses = broadcast_round(&mut protos, &mut r);
        assert_eq!(protos[0].stats().eager_verifies, 3, "one check per remote response");
        // A P2P retry of party 2's response: accepted, not re-verified.
        let (sender2, out2) = &responses[1];
        let retry =
            InboundMessage { sender: *sender2, round: 2, payload: out2.messages[0].payload.clone() };
        protos[0].update(&retry).unwrap();
        assert_eq!(protos[0].stats().eager_verifies, 3);
        // A differing response from party 3, whose response is held, is
        // rejected without replacing it (nor aborting the run).
        let (sender3, out3) = &responses[2];
        let mut differing = out3.messages[0].payload.clone();
        let low = differing.len() - 32;
        differing[low] ^= 1;
        assert!(matches!(
            protos[0].update(&InboundMessage { sender: *sender3, round: 2, payload: differing }),
            Err(SchemeError::InvalidShare { party: 3 })
        ));
        assert_eq!(protos[0].stats().eager_verifies, 3);
        assert_eq!(protos[0].aborted_by(), None);
        assert_signs(&mut protos[0], &pk);
    }

    #[test]
    fn mismatched_sender_rejected() {
        let mut r = rng();
        let params = ThresholdParams::new(0, 2).unwrap();
        let (_pk, keys) = kg20::keygen(params, &mut r);
        let mut p0 = Kg20Sign::new(keys[0].clone(), b"m".to_vec());
        let mut p1 = Kg20Sign::new(keys[1].clone(), b"m".to_vec());
        let _ = p0.do_round(&mut r).unwrap();
        let out1 = p1.do_round(&mut r).unwrap();
        // Party 2's commitment claimed to come from... party 2 is fine;
        // spoof it as from the wrong sender.
        let err = p0.update(&InboundMessage {
            sender: PartyId(1),
            round: 1,
            payload: out1.messages[0].payload.clone(),
        });
        assert!(err.is_err());
    }
}
