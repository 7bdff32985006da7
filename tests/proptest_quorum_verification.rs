//! Property test for quorum-bounded share verification: a one-round
//! instance decodes and checks only the shares its quorum needs, holds
//! the rest unread, and promotes a held share when an admitted one
//! fails. Whatever the arrival order and whichever faults up to t
//! parties commit, the node still produces exactly one output, the one
//! an all-honest run gives, without counting a faulty share.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use thetacrypt::protocols::one_round::{Cks05Coin, OneRoundProtocol, OneRoundScheme};
use thetacrypt::protocols::{InboundMessage, ProtocolDriver, ProtocolOutput};
use thetacrypt::schemes::batch::{settle_mixed, PendingCheck};
use thetacrypt::schemes::{cks05, PartyId, SchemeError, ThresholdParams};

/// CKS05 under the one-round protocol, counting the shares it decodes
/// and recording which parties' shares it combines.
struct Observed {
    inner: Cks05Coin,
    decoded: Arc<AtomicUsize>,
    combined: Arc<Mutex<Vec<PartyId>>>,
}

impl OneRoundScheme for Observed {
    type Share = cks05::CoinShare;

    fn party(&self) -> PartyId {
        self.inner.party()
    }

    fn quorum(&self) -> usize {
        self.inner.quorum()
    }

    fn create_share(&self, rng: &mut dyn rand::RngCore) -> Result<Self::Share, SchemeError> {
        self.inner.create_share(rng)
    }

    fn verify_share(&self, share: &Self::Share) -> bool {
        self.inner.verify_share(share)
    }

    fn share_party(share: &Self::Share) -> PartyId {
        Cks05Coin::share_party(share)
    }

    fn encode_share(share: &Self::Share) -> Vec<u8> {
        Cks05Coin::encode_share(share)
    }

    fn decode_share(&self, bytes: &[u8]) -> Result<Self::Share, SchemeError> {
        self.decoded.fetch_add(1, Ordering::Relaxed);
        self.inner.decode_share(bytes)
    }

    fn pending_check(&self, share: &Self::Share) -> Option<PendingCheck> {
        self.inner.pending_check(share)
    }

    fn combine(&self, shares: &[Self::Share]) -> Result<ProtocolOutput, SchemeError> {
        self.combined.lock().unwrap().extend(shares.iter().map(Cks05Coin::share_party));
        self.inner.combine(shares)
    }
}

/// Settles every outstanding check as one batch, as the orchestration
/// layer does, until the verdicts promote no further held share.
fn settle(d: &mut ProtocolDriver, queued: &mut Vec<(PartyId, PendingCheck)>) {
    queued.extend(d.take_pending_checks());
    while !queued.is_empty() {
        let checks: Vec<&PendingCheck> = queued.iter().map(|(_, c)| c).collect();
        let verdicts: Vec<(PartyId, bool)> =
            queued.iter().map(|(p, _)| *p).zip(settle_mixed(&checks)).collect();
        queued.clear();
        d.resolve_checks(&verdicts);
        queued.extend(d.take_pending_checks());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quorum_bounded_verification_agrees_with_honest_run(
        wide in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (t, n) = if wide { (2u16, 7u16) } else { (1, 4) };
        let mut r = rand::rngs::StdRng::seed_from_u64(seed);
        let (pk, keys) = cks05::keygen(ThresholdParams::new(t, n).unwrap(), &mut r);
        let name = b"epoch".to_vec();
        let quorum = usize::from(t) + 1;

        // Up to t faulty peers; node 1 runs the instance under test.
        let mut peers: Vec<usize> = (1..usize::from(n)).collect();
        peers.shuffle(&mut r);
        let faulty: Vec<usize> = peers[..r.gen_range(0..=usize::from(t))].to_vec();
        let honest_shares: Vec<cks05::CoinShare> =
            keys.iter().map(|k| cks05::create_coin_share(k, &name, &mut r)).collect();
        let mut messages: Vec<InboundMessage> = Vec::new();
        for i in 1..usize::from(n) {
            let honest = encoded(&honest_shares[i]);
            let payload = if !faulty.contains(&i) {
                honest
            } else {
                match r.gen_range(0..3) {
                    // Forged: a valid share for another coin.
                    0 => encoded(&cks05::create_coin_share(&keys[i], b"other", &mut r)),
                    // Garbled: cut short, so it cannot decode.
                    1 => honest[..r.gen_range(0..honest.len())].to_vec(),
                    // Mis-attributed: another party's valid share.
                    _ => {
                        let other = (i + r.gen_range(1..usize::from(n))) % usize::from(n);
                        encoded(&honest_shares[other])
                    }
                }
            };
            let msg = InboundMessage { sender: keys[i].id(), round: 1, payload };
            // Some messages arrive twice (P2P retries).
            if r.gen_bool(0.3) {
                messages.push(msg.clone());
            }
            messages.push(msg);
        }
        messages.shuffle(&mut r);

        let decoded = Arc::new(AtomicUsize::new(0));
        let combined = Arc::new(Mutex::new(Vec::new()));
        let scheme = Observed {
            inner: Cks05Coin::new(keys[0].clone(), name.clone()),
            decoded: decoded.clone(),
            combined: combined.clone(),
        };
        let mut d = ProtocolDriver::new(Box::new(OneRoundProtocol::new_pooled(scheme)));
        d.start(&mut r).unwrap();
        let mut outputs = Vec::new();
        let mut queued = Vec::new();
        for msg in &messages {
            let delivered = d.deliver(msg);
            if !faulty.contains(&(usize::from(msg.sender.value()) - 1)) {
                prop_assert!(delivered.is_ok(), "honest share rejected: {delivered:?}");
            }
            // Checks settle in batches of random size.
            if r.gen_bool(0.5) {
                settle(&mut d, &mut queued);
            } else {
                queued.extend(d.take_pending_checks());
            }
            outputs.extend(d.advance(&mut r).finished);
        }
        settle(&mut d, &mut queued);
        outputs.extend(d.advance(&mut r).finished);

        prop_assert_eq!(outputs.len(), 1, "exactly one output");
        let all_honest = cks05::combine(&pk, &name, &honest_shares[..quorum]).unwrap();
        prop_assert_eq!(outputs.remove(0).unwrap(), ProtocolOutput::Coin(all_honest));
        let counted = combined.lock().unwrap().clone();
        prop_assert_eq!(counted.len(), quorum);
        for party in &counted {
            prop_assert!(
                !faulty.contains(&(usize::from(party.value()) - 1)),
                "party {}'s faulty share was counted",
                party.value()
            );
        }
        let bound = quorum - 1 + faulty.len();
        let decodes = decoded.load(Ordering::Relaxed);
        prop_assert!(decodes <= bound, "decoded {decodes} peer shares, bound {bound}");
    }
}

fn encoded(share: &cks05::CoinShare) -> Vec<u8> {
    thetacrypt::codec::Encode::encoded(share)
}
