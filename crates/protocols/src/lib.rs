//! # theta-protocols
//!
//! The paper's *protocols module*: the **Threshold Round Interface (TRI)**
//! that every threshold protocol implements (§3.5), plus the concrete
//! protocol state machines for all six schemes.
//!
//! The TRI models a protocol as a round-based state machine:
//!
//! - [`ThresholdRoundProtocol::do_round`] — local computation at the
//!   start of a round, emitting messages tagged with their transport
//!   ([`Transport::P2p`] or [`Transport::Tob`]);
//! - [`ThresholdRoundProtocol::update`] — absorb one network message;
//! - [`ThresholdRoundProtocol::is_ready_for_next_round`] /
//!   [`ThresholdRoundProtocol::is_ready_to_finalize`] — progression and
//!   termination conditions;
//! - [`ThresholdRoundProtocol::finalize`] — assemble the result.
//!
//! Five schemes are non-interactive (one round, `O(n)` messages); KG20 /
//! FROST is the two-round, `O(n²)` member of the suite and exercised the
//! multi-round features of this interface (as in the paper, §3.5).

pub mod driver;
pub mod kg20_protocol;
pub mod one_round;

pub use driver::{Advance, ProtocolDriver};

use theta_codec::{Decode, Encode, Reader, Writer};
use theta_schemes::{PartyId, SchemeError};

/// How a protocol message must be transported (paper §3.5: each message
/// indicates P2P or total-order broadcast).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Direct delivery to every other party.
    P2p,
    /// Total-order broadcast: all parties see the same sequence.
    Tob,
}

impl Encode for Transport {
    fn encode(&self, w: &mut Writer) {
        (match self {
            Transport::P2p => 0u8,
            Transport::Tob => 1u8,
        })
        .encode(w);
    }
}

impl Decode for Transport {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        match u8::decode(r)? {
            0 => Ok(Transport::P2p),
            1 => Ok(Transport::Tob),
            other => Err(theta_codec::CodecError::InvalidTag(other as u32)),
        }
    }
}

/// A message produced by [`ThresholdRoundProtocol::do_round`], not yet
/// wrapped in a network envelope.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OutboundMessage {
    /// Requested transport.
    pub transport: Transport,
    /// Protocol round that produced this message.
    pub round: u16,
    /// Opaque scheme-specific payload.
    pub payload: Vec<u8>,
}

/// A message received from the network, addressed to one protocol
/// instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InboundMessage {
    /// The sending party.
    pub sender: PartyId,
    /// Protocol round the sender produced it in.
    pub round: u16,
    /// Opaque scheme-specific payload.
    pub payload: Vec<u8>,
}

/// Everything [`ThresholdRoundProtocol::do_round`] hands back to the
/// orchestration layer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundOutput {
    /// Messages to forward to the other parties.
    pub messages: Vec<OutboundMessage>,
}

/// The final result of a protocol instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolOutput {
    /// A decrypted plaintext (SG02, BZ03).
    Plaintext(Vec<u8>),
    /// An encoded signature (SH00, BLS04, KG20).
    Signature(Vec<u8>),
    /// A 32-byte coin value (CKS05).
    Coin([u8; 32]),
}

impl ProtocolOutput {
    /// The raw bytes of the output, whatever its kind.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            ProtocolOutput::Plaintext(b) | ProtocolOutput::Signature(b) => b,
            ProtocolOutput::Coin(c) => c,
        }
    }
}

/// Verification-work statistics a protocol instance accumulates over
/// its lifetime, so the orchestration layer can fold them into the
/// node's metrics when the instance finishes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Shares dropped after they were admitted: their cross-instance
    /// check failed, or a held share failed as it was promoted.
    pub shares_pruned: u64,
    /// Per-share inline verifications (shares without a detachable
    /// check: SH00 shares and KG20 responses).
    pub eager_verifies: u64,
    /// Shares verified by a cross-instance batch settle.
    pub cross_batched: u64,
    /// Peer shares held undecoded, because enough shares were already
    /// admitted to complete the quorum, and dropped unread when the
    /// instance finalized.
    pub shares_unread: u64,
}

/// The Threshold Round Interface (paper §3.5).
///
/// Implementations are single-party state machines: each node runs its
/// own instance and the orchestration layer shuttles messages between
/// them.
pub trait ThresholdRoundProtocol: Send {
    /// Performs this round's local computation and returns the messages
    /// to send. Called once at protocol start and again whenever
    /// [`Self::is_ready_for_next_round`] becomes true.
    ///
    /// # Errors
    ///
    /// Scheme-level failures (e.g. an invalid ciphertext) abort the
    /// instance.
    fn do_round(&mut self, rng: &mut dyn rand::RngCore) -> Result<RoundOutput, SchemeError>;

    /// Records a message received from the network.
    ///
    /// # Errors
    ///
    /// An error marks the *message* as invalid (e.g. a share failing
    /// verification) — the instance remains live and later messages are
    /// still accepted (robust schemes discard the share; KG20 will abort
    /// at finalization instead, since its signing set is fixed).
    fn update(&mut self, message: &InboundMessage) -> Result<(), SchemeError>;

    /// True when the progression condition for the next round holds.
    fn is_ready_for_next_round(&self) -> bool;

    /// True when the termination condition holds.
    fn is_ready_to_finalize(&self) -> bool;

    /// Assembles and returns the final result.
    ///
    /// # Errors
    ///
    /// Fails when called before [`Self::is_ready_to_finalize`] or when
    /// assembly fails.
    fn finalize(&mut self) -> Result<ProtocolOutput, SchemeError>;

    /// The round the protocol is currently in (0 before the first
    /// `do_round`).
    fn current_round(&self) -> u16;

    /// The party running this instance.
    fn party(&self) -> PartyId;

    /// Verification-work statistics accumulated so far. Protocols that
    /// do no share verification keep the default zeros.
    fn stats(&self) -> ProtocolStats {
        ProtocolStats::default()
    }

    /// Drains the share-validity checks this protocol has deferred for
    /// *cross-instance* batch verification (pool-scoped batching).
    ///
    /// Protocols that verify inline — the default — never defer, so the
    /// default returns an empty vector. A protocol that does defer hands
    /// back `(party, check)` pairs and counts on a later
    /// [`Self::resolve_checks`] call with the verdicts; until then the
    /// corresponding shares do not count toward its quorum.
    fn take_pending_checks(&mut self) -> Vec<(PartyId, theta_schemes::batch::PendingCheck)> {
        Vec::new()
    }

    /// Applies the verdicts of a cross-instance batch settle to
    /// previously deferred checks: `true` marks the party's share
    /// verified, `false` prunes it (the share was invalid). Verdicts for
    /// parties whose shares are no longer held are ignored.
    fn resolve_checks(&mut self, verdicts: &[(PartyId, bool)]) {
        let _ = verdicts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_codec() {
        assert_eq!(Transport::decoded(&Transport::P2p.encoded()).unwrap(), Transport::P2p);
        assert_eq!(Transport::decoded(&Transport::Tob.encoded()).unwrap(), Transport::Tob);
        assert!(Transport::decoded(&[7]).is_err());
    }

    #[test]
    fn output_bytes() {
        assert_eq!(ProtocolOutput::Plaintext(vec![1, 2]).as_bytes(), &[1, 2]);
        assert_eq!(ProtocolOutput::Signature(vec![3]).as_bytes(), &[3]);
        assert_eq!(ProtocolOutput::Coin([7; 32]).as_bytes(), &[7u8; 32][..]);
    }
}
