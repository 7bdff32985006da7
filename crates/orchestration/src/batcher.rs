//! The cross-instance batch aggregator (pool-scoped share verification).
//!
//! Batching inside one instance could fold at most `quorum` checks into
//! one MSM. Under many concurrent instances the bigger win is folding
//! checks *across* instances: every pending DLEQ proof in the pool —
//! whatever instance, whatever Fiat–Shamir domain — verifies as one
//! random-linear-combination MSM, and every pending pairing check as one
//! multi-Miller pairing product, via [`theta_schemes::batch::settle_mixed`].
//!
//! The flow:
//!
//! 1. one-round protocols defer each share's check as a detached
//!    [`PendingCheck`]; the worker that drained the instance submits
//!    them here ([`BatchAggregator::submit`]);
//! 2. the submission that crosses `flush_size` claims the flush duty
//!    (the [`crate::handshake::batch_submit`] handshake — model-checked
//!    under loom) and that same worker settles the batch off the
//!    router thread;
//! 3. checks that never see a size crossing are picked up by the
//!    router's age trigger (`flush_age`), which claims the duty and
//!    injects a [`crate::worker_pool::PoolJob::Flush`] so the crypto
//!    still runs on a worker. The router blocks until the oldest check's
//!    deadline ([`BatchAggregator::next_age_flush`], absent while a
//!    flush is claimed), and the aggregator wakes it whenever that
//!    deadline appears: when a submission makes the list non-empty, and
//!    when a flush hands its claim back with checks left over;
//! 4. verdicts travel back to each instance through its regular
//!    mailbox ([`HostMsg::Verdicts`]) — the same single-writer
//!    scheduling handshake as every other host message, so protocol
//!    state stays lock-free.
//!
//! A failed batch never poisons innocent instances:
//! [`theta_schemes::batch::settle_mixed`] bisects down to the exact
//! culprit checks, and each instance receives only its own per-party
//! verdicts. Verdicts whose mailbox push fails are dropped — the share
//! simply stays unverified and the next P2P retransmission re-enqueues
//! its check (re-deliveries of the identical payload re-enter the
//! outbox), so a lost flush degrades latency, never safety.

use crate::handshake::{
    batch_claim, batch_finish, batch_oldest, batch_submit, batch_take, Finished, Submitted,
};
use crate::instance_host::HostMsg;
use crate::mailbox::PushError;
use crate::worker_pool::{schedule, InstanceSlot, PoolJob};
use std::sync::Arc;
use std::time::{Duration, Instant};
use theta_metrics::PoolMetrics;
use theta_schemes::batch::{settle_mixed, PendingCheck};
use theta_schemes::PartyId;
use theta_sync::atomic::AtomicBool;
use theta_sync::channel::Sender;
use theta_sync::Mutex;

/// Why a batch flush fired (the `reason` label on
/// `theta_batch_flushes_total` and in the per-instance trace journal).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// The pending list reached `flush_size`.
    Size,
    /// The oldest pending check aged past `flush_age`.
    Age,
    /// Node shutdown: settle whatever is pending so draining instances
    /// can still reach quorum.
    Shutdown,
}

impl FlushReason {
    pub(crate) fn label(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Age => "age",
            FlushReason::Shutdown => "shutdown",
        }
    }
}

/// One deferred share check, waiting for a batch settle.
pub(crate) struct PendingVerify {
    /// The instance the verdict goes back to.
    slot: Arc<InstanceSlot>,
    /// The party whose share the check validates.
    party: PartyId,
    /// The detached statement + proof.
    check: PendingCheck,
    /// When the check entered the pool (drives the age flush).
    enqueued: Instant,
}

/// Tells the router to re-read [`BatchAggregator::next_age_flush`].
pub(crate) type WakeFn = Box<dyn Fn() + Send + Sync>;

/// The pool-wide aggregator: one per node, shared by every worker and
/// the router.
pub(crate) struct BatchAggregator {
    pending: Mutex<Vec<PendingVerify>>,
    flush_claimed: AtomicBool,
    flush_size: usize,
    flush_age: Duration,
    wake: WakeFn,
}

impl BatchAggregator {
    pub(crate) fn new(flush_size: usize, flush_age: Duration, wake: WakeFn) -> BatchAggregator {
        BatchAggregator {
            pending: Mutex::new(Vec::new()),
            flush_claimed: AtomicBool::new(false),
            // A zero size would make `batch_finish` re-claim forever on
            // an empty list.
            flush_size: flush_size.max(1),
            flush_age,
            wake,
        }
    }

    /// Adds one instance's drained checks to the pool. Returns `true`
    /// when this submission crossed the size threshold and the caller
    /// (a worker, by construction) must run [`run_flush`]; wakes the
    /// router when the checks are the first pending ones.
    pub(crate) fn submit(
        &self,
        slot: &Arc<InstanceSlot>,
        checks: Vec<(PartyId, PendingCheck)>,
    ) -> bool {
        let now = Instant::now();
        let items = checks.into_iter().map(|(party, check)| PendingVerify {
            slot: slot.clone(),
            party,
            check,
            enqueued: now,
        });
        match batch_submit(&self.pending, &self.flush_claimed, items, self.flush_size) {
            Submitted::Flush => true,
            Submitted::Wake => {
                (self.wake)();
                false
            }
            Submitted::Nothing => false,
        }
    }

    /// When the age-based flush for the oldest pending check is due
    /// (the router folds this into its deadline). `None` while a flush
    /// is claimed: that flush takes the list, and its hand-back wakes
    /// the router if checks are left over.
    pub(crate) fn next_age_flush(&self) -> Option<Instant> {
        batch_oldest(&self.pending, &self.flush_claimed, |v| v.enqueued + self.flush_age)
    }

    /// Router-side age trigger: claims the flush duty iff a pending
    /// check has aged out and no flush is already running. The caller
    /// must then hand a [`PoolJob::Flush`] to the pool — the settle
    /// itself never runs on the router thread.
    pub(crate) fn claim_if_aged(&self, now: Instant) -> bool {
        let due = match self.next_age_flush() {
            Some(t) => t <= now,
            None => false,
        };
        due && batch_claim(&self.flush_claimed)
    }

    /// Unconditional claim for the shutdown flush. `false` means a
    /// flush is already in progress (which will settle the same checks).
    pub(crate) fn claim_for_shutdown(&self) -> bool {
        batch_claim(&self.flush_claimed)
    }

    /// Hands the flush duty back after a settle round. Returns `true`
    /// when the duty was re-claimed and another round is owed; wakes
    /// the router when checks stay pending after the release.
    fn finish_flush(&self) -> bool {
        match batch_finish(&self.pending, &self.flush_claimed, self.flush_size) {
            Finished::Again => true,
            Finished::Wake => {
                (self.wake)();
                false
            }
            Finished::Idle => false,
        }
    }
}

/// Settles batches until the flush duty hands back clean: take the
/// pending list, verify it as one cross-instance equation (bisecting
/// culprits on failure), and mail each instance its own verdicts. Runs
/// on a worker thread; the caller must hold the flush claim (from
/// [`BatchAggregator::submit`], [`BatchAggregator::claim_if_aged`] or
/// [`BatchAggregator::claim_for_shutdown`]).
pub(crate) fn run_flush(
    agg: &BatchAggregator,
    injector: &Sender<PoolJob>,
    metrics: &PoolMetrics,
    reason: FlushReason,
) {
    loop {
        let batch = batch_take(&agg.pending);
        if !batch.is_empty() {
            settle_batch(&batch, injector, metrics, reason);
        }
        if !agg.finish_flush() {
            return;
        }
    }
}

fn settle_batch(
    batch: &[PendingVerify],
    injector: &Sender<PoolJob>,
    metrics: &PoolMetrics,
    reason: FlushReason,
) {
    metrics.batch_size.record_micros(batch.len() as u64);
    match reason {
        FlushReason::Size => metrics.batch_flushes_size.inc(),
        FlushReason::Age => metrics.batch_flushes_age.inc(),
        FlushReason::Shutdown => metrics.batch_flushes_shutdown.inc(),
    }
    let checks: Vec<&PendingCheck> = batch.iter().map(|v| &v.check).collect();
    let verdicts = settle_mixed(&checks);
    // Group verdicts per instance, preserving arrival order within each
    // group. Batches are small (≈flush_size), so a linear scan beats a
    // map here.
    type InstanceVerdicts<'a> = (&'a Arc<InstanceSlot>, Vec<(PartyId, bool)>);
    let mut grouped: Vec<InstanceVerdicts<'_>> = Vec::new();
    for (v, ok) in batch.iter().zip(verdicts) {
        match grouped.iter_mut().find(|(slot, _)| slot.id == v.slot.id) {
            Some((_, list)) => list.push((v.party, ok)),
            None => grouped.push((&v.slot, vec![(v.party, ok)])),
        }
    }
    for (slot, instance_verdicts) in grouped {
        // A Closed push means the instance already finished (its quorum
        // settled in an earlier batch) — the verdicts are moot, the
        // normal residual case. A Full push loses the verdicts, but the
        // next P2P retransmission re-enqueues the affected checks, so
        // count it like any other mailbox drop.
        if let Err(PushError::Full) = schedule(
            slot,
            injector,
            metrics,
            HostMsg::Verdicts {
                verdicts: instance_verdicts,
                batch_size: batch.len(),
                reason: reason.label(),
            },
        ) {
            metrics.mailbox_dropped.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance_host::InstanceHost;
    use crate::Request;
    use rand::SeedableRng;
    use theta_metrics::NodeObservability;
    use theta_protocols::one_round::{Cks05Coin, OneRoundProtocol};
    use theta_protocols::ProtocolDriver;
    use theta_sync::atomic::{AtomicUsize, Ordering};

    /// An aggregator whose router wake only counts.
    fn counting_aggregator(flush_size: usize) -> (BatchAggregator, Arc<AtomicUsize>) {
        let wakes = Arc::new(AtomicUsize::new(0));
        let counter = wakes.clone();
        let agg = BatchAggregator::new(
            flush_size,
            Duration::from_millis(1),
            Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }),
        );
        (agg, wakes)
    }

    /// A slot the submitted checks can point at (the tests never settle).
    fn slot() -> Arc<InstanceSlot> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let params = theta_schemes::ThresholdParams::new(0, 1).unwrap();
        let (_, keys) = theta_schemes::cks05::keygen(params, &mut rng);
        let request = Request::Cks05Coin(b"aggregator".to_vec());
        let coin = Cks05Coin::new(keys[0].clone(), b"aggregator".to_vec());
        let driver = ProtocolDriver::new(Box::new(OneRoundProtocol::new_pooled(coin)));
        let obs = Arc::new(NodeObservability::new());
        let rejected = obs.registry.counter("theta_shares_rejected_total");
        let (upcalls, _) = theta_sync::channel::unbounded();
        let id = request.instance_id();
        let host = InstanceHost::new(id, driver, request, 1, rng, obs, rejected, upcalls);
        Arc::new(InstanceSlot::new(id, 8, host))
    }

    fn check(party: u16) -> Vec<(PartyId, PendingCheck)> {
        vec![(PartyId(party), PendingCheck::Invalid)]
    }

    #[test]
    fn below_size_submit_wakes_the_router_exactly_once() {
        let (agg, wakes) = counting_aggregator(4);
        let slot = slot();
        assert!(!agg.submit(&slot, check(1)), "below the size threshold");
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        assert!(agg.next_age_flush().is_some());
        // Already pending: the deadline the router armed covers it.
        assert!(!agg.submit(&slot, check(2)));
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn claimed_flush_has_no_deadline_and_its_release_wakes_for_leftovers() {
        let (agg, wakes) = counting_aggregator(4);
        let slot = slot();
        agg.submit(&slot, check(1));
        let armed = agg.next_age_flush().expect("pending check is armed");
        assert!(agg.claim_if_aged(armed));
        // A past-due deadline here would fire on every loop iteration
        // until the worker takes the list.
        assert_eq!(agg.next_age_flush(), None);
        assert!(!agg.claim_if_aged(armed + Duration::from_secs(1)));
        // The flush takes the list; a check lands mid-settle.
        assert_eq!(batch_take(&agg.pending).len(), 1);
        agg.submit(&slot, check(2));
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
        assert_eq!(agg.next_age_flush(), None, "still claimed");
        // Releasing the claim with that leftover must re-arm the router.
        assert!(!agg.finish_flush());
        assert_eq!(wakes.load(Ordering::SeqCst), 3);
        assert!(agg.next_age_flush().is_some());
    }

    #[test]
    fn release_with_nothing_left_stays_quiet() {
        let (agg, wakes) = counting_aggregator(4);
        agg.submit(&slot(), check(1));
        assert!(agg.claim_for_shutdown());
        let _ = batch_take(&agg.pending);
        assert!(!agg.finish_flush());
        assert_eq!(wakes.load(Ordering::SeqCst), 1, "only the first submit woke");
        assert_eq!(agg.next_age_flush(), None);
    }
}
