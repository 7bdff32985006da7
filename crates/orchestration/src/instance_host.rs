//! Worker-side host for one protocol instance.
//!
//! An [`InstanceHost`] owns a [`ProtocolDriver`] plus everything a
//! worker needs to run it without consulting the router: the request
//! (for envelope framing), a private RNG, the observability handles and
//! the router's inbox for upcalls. All of an instance's messages
//! are applied here *sequentially* — the worker-pool scheduling
//! handshake guarantees at most one worker runs a given host at a time,
//! so the protocol state needs no lock of its own — while hosts of
//! distinct instances run on different workers in parallel.
//!
//! The host does every `do_round` / `update` / `finalize` and all
//! envelope encoding; the router only moves bytes. A debug assertion
//! enforces that split: protocol crypto on a thread named
//! `theta-router-*` is a bug.

use crate::router::RouterMsg;
use crate::{Envelope, InstanceId, Request};
use std::sync::Arc;
use std::time::Instant;
use theta_codec::Encode;
use theta_metrics::registry::Counter;
use theta_metrics::trace::TraceEventKind;
use theta_metrics::NodeObservability;
use theta_network::NodeId;
use theta_protocols::{InboundMessage, ProtocolDriver, ProtocolOutput, ProtocolStats, RoundOutput};
use theta_schemes::batch::PendingCheck;
use theta_schemes::{PartyId, SchemeError};
use theta_sync::channel::Sender;

/// Work the router forwards to an instance's mailbox.
pub(crate) enum HostMsg {
    /// Run the first round (always the first message a host sees).
    Start,
    /// Apply one verified-source network message.
    Deliver {
        /// Transport-authenticated sending node.
        from: NodeId,
        /// The protocol message.
        inbound: InboundMessage,
    },
    /// Per-party verdicts from a cross-instance batch settle, for
    /// checks this instance previously deferred.
    Verdicts {
        /// `(party, valid)` for each settled check of this instance.
        verdicts: Vec<(PartyId, bool)>,
        /// Total checks in the settled batch (all instances), for the
        /// trace journal.
        batch_size: usize,
        /// Flush-reason label (`"size"` / `"age"` / `"shutdown"`).
        reason: &'static str,
    },
}

/// What a host reports back to the router.
pub(crate) enum Upcall {
    /// Encoded envelopes to put on the wire. The router owns the network
    /// handle and the P2P retransmission history.
    Broadcast {
        /// The emitting instance.
        id: InstanceId,
        /// Envelopes for P2P broadcast (appended to the retry history).
        p2p: Vec<Vec<u8>>,
        /// Envelopes for the total-order channel.
        tob: Vec<Vec<u8>>,
    },
    /// The instance reached a terminal outcome.
    Finished {
        /// The finished instance.
        id: InstanceId,
        /// Result or failure.
        outcome: Result<ProtocolOutput, SchemeError>,
        /// The protocol's accumulated verification-work stats.
        stats: ProtocolStats,
    },
}

/// Guards the router/worker split: protocol crypto must never run on
/// the router thread. Compiled away in release builds.
#[inline]
fn assert_off_router() {
    #[cfg(debug_assertions)]
    if let Some(name) = std::thread::current().name() {
        debug_assert!(
            !name.starts_with("theta-router-"),
            "protocol crypto executed on the router thread ({name})"
        );
    }
}

pub(crate) struct InstanceHost {
    id: InstanceId,
    driver: ProtocolDriver,
    request: Request,
    sender: NodeId,
    rng: rand::rngs::StdRng,
    obs: Arc<NodeObservability>,
    shares_rejected: Arc<Counter>,
    upcalls: Sender<RouterMsg>,
}

impl InstanceHost {
    #[allow(clippy::too_many_arguments)] // construction site is single; a builder would be noise
    pub(crate) fn new(
        id: InstanceId,
        driver: ProtocolDriver,
        request: Request,
        sender: NodeId,
        rng: rand::rngs::StdRng,
        obs: Arc<NodeObservability>,
        shares_rejected: Arc<Counter>,
        upcalls: Sender<RouterMsg>,
    ) -> InstanceHost {
        InstanceHost { id, driver, request, sender, rng, obs, shares_rejected, upcalls }
    }

    /// Applies one mailbox message; returns `true` once the instance is
    /// terminal (the caller drops the host, freeing protocol state).
    ///
    /// Checks the protocol deferred for cross-instance batching are
    /// drained into `checks_out` — the worker submits them to the pool
    /// aggregator *after* releasing this host's slot.
    // theta: worker-only
    pub(crate) fn handle(
        &mut self,
        msg: HostMsg,
        checks_out: &mut Vec<(PartyId, PendingCheck)>,
    ) -> bool {
        assert_off_router();
        match msg {
            HostMsg::Start => self.start(),
            HostMsg::Deliver { from, inbound } => self.deliver(from, &inbound, checks_out),
            HostMsg::Verdicts { verdicts, batch_size, reason } => {
                self.apply_verdicts(&verdicts, batch_size, reason);
            }
        }
        self.drain_checks(checks_out);
        self.driver.is_done()
    }

    /// Moves the driver's deferred checks into `checks_out`, journaling
    /// each hand-off so GetTrace shows the share rode a batch.
    fn drain_checks(&mut self, checks_out: &mut Vec<(PartyId, PendingCheck)>) {
        for (party, check) in self.driver.take_pending_checks() {
            self.obs
                .journal
                .record_peer(self.id.0, TraceEventKind::BatchEnqueued, party.value());
            checks_out.push((party, check));
        }
    }

    fn start(&mut self) {
        let compute_start = Instant::now();
        match self.driver.start(&mut self.rng) {
            Ok(output) => {
                self.obs.phases.share_compute.record(compute_start.elapsed());
                self.obs.journal.record(self.id.0, TraceEventKind::ShareComputed);
                self.emit(vec![output]);
                // Journaled here (hand-off to the router for transmission)
                // so the per-instance lifecycle order ShareSent <
                // QuorumReached holds regardless of router scheduling.
                self.obs.journal.record(self.id.0, TraceEventKind::ShareSent);
                self.advance();
            }
            Err(err) => self.finish(Err(err), self.driver.stats()),
        }
    }

    fn deliver(
        &mut self,
        from: NodeId,
        inbound: &InboundMessage,
        checks_out: &mut Vec<(PartyId, PendingCheck)>,
    ) {
        self.obs.journal.record_peer(self.id.0, TraceEventKind::ShareReceived, from);
        let verify_start = Instant::now();
        let inline_before = self.driver.stats().eager_verifies;
        let verdict = self.driver.deliver(inbound);
        let verify_spent = verify_start.elapsed();
        self.obs.phases.share_verify.record(verify_spent);
        theta_metrics::profiler::record_phase(
            theta_metrics::WorkerPhase::ShareVerify,
            verify_spent,
        );
        match verdict {
            Ok(()) => {
                // A batchable share is *deferred*, not verified: its
                // check surfaces here and the trace shows
                // BatchEnqueued instead of ShareVerified (which arrives
                // later with the batch verdicts). A share beyond what
                // the quorum needs is held unread. Only an inline check
                // verifies a share during delivery.
                self.drain_checks(checks_out);
                if self.driver.stats().eager_verifies > inline_before {
                    self.obs.journal.record_peer(self.id.0, TraceEventKind::ShareVerified, from);
                }
            }
            Err(err) => {
                // Invalid share: logged and dropped, the instance lives on.
                self.shares_rejected.inc();
                self.obs.journal.record_full(
                    self.id.0,
                    TraceEventKind::ShareRejected,
                    from,
                    format!("{err:?}"),
                );
            }
        }
        self.advance();
    }

    /// Applies one batch settle's verdicts for this instance: journals
    /// the settle and each per-party outcome, resolves the deferred
    /// checks and advances (a quorum of verified shares finalizes here).
    fn apply_verdicts(&mut self, verdicts: &[(PartyId, bool)], batch_size: usize, reason: &str) {
        self.obs.journal.record_detail(
            self.id.0,
            TraceEventKind::BatchSettled,
            format!(
                "{} verdict(s) from a {batch_size}-check cross-instance batch ({reason} flush)",
                verdicts.len()
            ),
        );
        for (party, ok) in verdicts {
            if *ok {
                self.obs
                    .journal
                    .record_peer(self.id.0, TraceEventKind::ShareVerified, party.value());
            } else {
                self.shares_rejected.inc();
                self.obs.journal.record_full(
                    self.id.0,
                    TraceEventKind::ShareRejected,
                    party.value(),
                    "failed cross-instance batch verification".into(),
                );
            }
        }
        self.driver.resolve_checks(verdicts);
        self.advance();
    }

    /// Runs rounds while the progression condition holds and finalizes
    /// once the termination condition holds, reporting everything to the
    /// router.
    fn advance(&mut self) {
        let step = self.driver.advance(&mut self.rng);
        for (party, err) in &step.rejects {
            // A buffered future-round message that failed on replay:
            // counted and journaled exactly like a direct-deliver reject.
            self.shares_rejected.inc();
            self.obs.journal.record_detail(
                self.id.0,
                TraceEventKind::ShareRejected,
                format!("replayed round message from party {}: {err:?}", party.value()),
            );
        }
        if !step.outputs.is_empty() {
            self.emit(step.outputs);
        }
        if let Some(outcome) = step.finished {
            if let Some(combine) = step.combine_time {
                self.obs.journal.record(self.id.0, TraceEventKind::QuorumReached);
                self.obs.phases.combine.record(combine);
                theta_metrics::profiler::record_phase(theta_metrics::WorkerPhase::Combine, combine);
                if outcome.is_ok() {
                    self.obs.journal.record(self.id.0, TraceEventKind::Combined);
                }
            }
            self.finish(outcome, self.driver.stats());
        }
    }

    /// Encodes round outputs into envelopes and ships them to the router
    /// for transmission.
    fn emit(&self, outputs: Vec<RoundOutput>) {
        let mut p2p = Vec::new();
        let mut tob = Vec::new();
        for output in outputs {
            for msg in output.messages {
                let envelope = Envelope {
                    instance: self.id,
                    request: self.request.clone(),
                    round: msg.round,
                    sender: self.sender,
                    payload: msg.payload,
                };
                let bytes = envelope.encoded();
                match msg.transport {
                    theta_protocols::Transport::P2p => p2p.push(bytes),
                    theta_protocols::Transport::Tob => tob.push(bytes),
                }
            }
        }
        if p2p.is_empty() && tob.is_empty() {
            return;
        }
        let broadcast = Upcall::Broadcast { id: self.id, p2p, tob };
        let _ = self.upcalls.send(RouterMsg::Upcall(broadcast));
    }

    fn finish(&self, outcome: Result<ProtocolOutput, SchemeError>, stats: ProtocolStats) {
        let finished = Upcall::Finished { id: self.id, outcome, stats };
        let _ = self.upcalls.send(RouterMsg::Upcall(finished));
    }
}
