//! The crypto worker pool and its scheduling handshake.
//!
//! Each live instance is wrapped in an [`InstanceSlot`]: its bounded
//! mailbox, a `scheduled` flag and the (worker-owned) [`InstanceHost`].
//! The router is the single producer: it pushes a message and, if the
//! slot was not already scheduled, places the slot on the shared run
//! queue. A worker picks the slot up, drains and applies the whole
//! mailbox, then unschedules. The flag guarantees a slot is never on
//! the run queue twice, which in turn guarantees at most one worker
//! touches a given host at a time — so protocol state needs no lock,
//! while distinct instances run on different workers in parallel.
//!
//! The handshake (push/schedule on the producer side, drain/unschedule
//! on the consumer side) is the only clever part; it lives in
//! [`crate::handshake`] so the loom models and the interleaving test
//! hammer the exact code the pool runs.

use crate::batcher::{run_flush, BatchAggregator, FlushReason};
use crate::handshake::{drain_apply, schedule_core, unschedule};
use crate::instance_host::{HostMsg, InstanceHost};
use crate::mailbox::{Mailbox, PushError};
use crate::InstanceId;
use std::sync::Arc;
use std::time::Instant;
use theta_metrics::{profiler, PoolMetrics, WorkerPhase};
use theta_schemes::batch::PendingCheck;
use theta_schemes::PartyId;
use theta_sync::atomic::AtomicBool;
use theta_sync::channel::{unbounded, Receiver, Sender};
use theta_sync::Mutex;

/// One live instance's scheduling state.
pub(crate) struct InstanceSlot {
    pub(crate) id: InstanceId,
    pub(crate) mailbox: Mailbox<HostMsg>,
    /// True while the slot is on the run queue or being drained.
    scheduled: AtomicBool,
    /// The host, present until the instance finishes. Only the worker
    /// holding the scheduled slot may lock it.
    host: Mutex<Option<InstanceHost>>,
}

impl InstanceSlot {
    pub(crate) fn new(id: InstanceId, capacity: usize, host: InstanceHost) -> InstanceSlot {
        InstanceSlot {
            id,
            mailbox: Mailbox::new(capacity),
            scheduled: AtomicBool::new(false),
            host: Mutex::new(Some(host)),
        }
    }
}

/// A run-queue entry: a scheduled slot, a claimed batch flush (the
/// router's age/shutdown triggers hand the settle to a worker this
/// way), or the shutdown sentinel each worker consumes exactly once
/// (workers hold injector clones for re-injection, so plain channel
/// disconnection can never fire).
pub(crate) enum PoolJob {
    Run(Arc<InstanceSlot>),
    /// Settle the aggregator's pending batch. The sender already holds
    /// the flush claim ([`BatchAggregator::claim_if_aged`] /
    /// [`BatchAggregator::claim_for_shutdown`]); the worker runs
    /// [`run_flush`] to completion.
    Flush(FlushReason),
    Stop,
}

/// Producer-side handshake: enqueue `msg` and, if the slot was idle,
/// hand it to the run queue.
///
/// # Errors
///
/// Propagates the mailbox bound ([`PushError::Full`]) or closure
/// ([`PushError::Closed`]); the message is dropped in either case.
pub(crate) fn schedule(
    slot: &Arc<InstanceSlot>,
    injector: &Sender<PoolJob>,
    metrics: &PoolMetrics,
    msg: HostMsg,
) -> Result<(), PushError> {
    schedule_core(&slot.mailbox, &slot.scheduled, msg, || {
        metrics.runqueue_depth.add(1);
        let _ = injector.send(PoolJob::Run(slot.clone()));
    })
}

/// Drains and applies everything in the slot's mailbox; checks the
/// host deferred for cross-instance batching come back in `checks`
/// (the caller submits them to the aggregator *after* the host lock is
/// released, so a same-worker flush never deadlocks on its own slot).
/// Returns `true` when the slot must be re-injected (messages arrived
/// during the hand-back).
fn run_slot(
    slot: &InstanceSlot,
    scratch: &mut Vec<HostMsg>,
    checks: &mut Vec<(PartyId, PendingCheck)>,
) -> bool {
    {
        let mut host = slot
            .host
            .try_lock()
            .unwrap_or_else(|_| panic!("instance {:?} scheduled on two workers at once", slot.id));
        drain_apply(&slot.mailbox, scratch, |msg| {
            if let Some(h) = host.as_mut() {
                if h.handle(msg, checks) {
                    // Terminal: free the protocol state eagerly; any
                    // residual mailbox traffic is discarded below.
                    *host = None;
                }
            }
        });
        // The guard drops here, before the flag flips, so the next
        // worker to claim the slot can never contend on the lock.
    }
    unschedule(&slot.mailbox, &slot.scheduled)
}

/// The pool: N OS threads eating scheduled slots off one shared run
/// queue. Dropping the pool closes the queue and joins the workers.
pub(crate) struct WorkerPool {
    injector: Sender<PoolJob>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers named `theta-worker-{party}-{i}`, all
    /// sharing the node's cross-instance batch aggregator.
    pub(crate) fn spawn(
        threads: usize,
        party: u16,
        metrics: &PoolMetrics,
        agg: Arc<BatchAggregator>,
    ) -> WorkerPool {
        let (injector, run_queue) = unbounded::<PoolJob>();
        let workers = (0..threads)
            .map(|i| {
                let rx: Receiver<PoolJob> = run_queue.clone();
                let injector = injector.clone();
                let metrics = metrics.clone();
                let busy = metrics.worker_busy[i.min(metrics.worker_busy.len() - 1)].clone();
                let phases =
                    metrics.worker_phases[i.min(metrics.worker_phases.len() - 1)].clone();
                let agg = agg.clone();
                std::thread::Builder::new()
                    .name(format!("theta-worker-{party}-{i}"))
                    .spawn(move || {
                        // This thread's profiling sink: instrumentation
                        // sites below (host verify/combine, batch settle)
                        // attribute into it without knowing the worker.
                        profiler::install_worker_phases(phases);
                        let mut scratch = Vec::new();
                        let mut checks: Vec<(PartyId, PendingCheck)> = Vec::new();
                        // Exits on PoolJob::Stop or a closed queue alike.
                        let mut idle_start = Instant::now();
                        while let Ok(job) = rx.recv() {
                            let busy_start = Instant::now();
                            profiler::record_phase(
                                WorkerPhase::Idle,
                                busy_start.duration_since(idle_start),
                            );
                            match job {
                                PoolJob::Run(slot) => {
                                    metrics.runqueue_depth.add(-1);
                                    let reinject = run_slot(&slot, &mut scratch, &mut checks);
                                    if reinject {
                                        metrics.runqueue_depth.add(1);
                                        let _ = injector.send(PoolJob::Run(slot.clone()));
                                    }
                                    // Submit deferred checks only after the
                                    // host lock is released; the submission
                                    // that crosses the size threshold settles
                                    // the batch right here, overlapping with
                                    // other workers' share processing.
                                    if !checks.is_empty()
                                        && agg.submit(&slot, std::mem::take(&mut checks))
                                    {
                                        let _settle =
                                            profiler::PhaseScope::enter(WorkerPhase::BatchSettle);
                                        run_flush(&agg, &injector, &metrics, FlushReason::Size);
                                    }
                                }
                                PoolJob::Flush(reason) => {
                                    let _settle =
                                        profiler::PhaseScope::enter(WorkerPhase::BatchSettle);
                                    run_flush(&agg, &injector, &metrics, reason);
                                }
                                PoolJob::Stop => break,
                            }
                            let spent = busy_start.elapsed();
                            busy.record(spent);
                            metrics.worker_busy_nanos.add(spent.as_nanos() as u64);
                            idle_start = Instant::now();
                        }
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { injector, workers }
    }

    /// The producer handle the router schedules slots through.
    pub(crate) fn injector(&self) -> &Sender<PoolJob> {
        &self.injector
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // One Stop per worker — each consumes exactly one and exits;
        // join so no worker outlives the node it belongs to.
        for _ in &self.workers {
            let _ = self.injector.send(PoolJob::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use theta_sync::atomic::Ordering;

    /// Repeat-run interleaving harness for the mailbox/run-queue
    /// handoff: one producer races one consumer over a shared slot-like
    /// pair of (mailbox, scheduled flag). Every message must be applied
    /// exactly once, in order, and the consumer must never run
    /// concurrently with itself (asserted via `try_lock`).
    #[test]
    fn handoff_interleaving_never_loses_messages() {
        const MSGS: u64 = 200;
        let rounds: u64 = if cfg!(debug_assertions) { 40 } else { 200 };
        for round in 0..rounds {
            let mailbox: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(usize::MAX));
            let scheduled = Arc::new(AtomicBool::new(false));
            let seen = Arc::new(Mutex::new(Vec::new()));
            let (tx, rx) = unbounded::<()>();

            let producer = {
                let mailbox = mailbox.clone();
                let scheduled = scheduled.clone();
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..MSGS {
                        mailbox.try_push(i).unwrap();
                        if !scheduled.swap(true, Ordering::SeqCst) {
                            tx.send(()).unwrap();
                        }
                        if i % 16 == round % 16 {
                            std::thread::yield_now();
                        }
                    }
                })
            };
            drop(tx);

            let consumer = {
                let mailbox = mailbox.clone();
                let scheduled = scheduled.clone();
                let seen = seen.clone();
                std::thread::spawn(move || {
                    let mut scratch = Vec::new();
                    while let Ok(()) = rx.recv() {
                        loop {
                            {
                                // Mirrors run_slot's exclusive-host claim.
                                let mut out = seen.try_lock().expect("concurrent drain");
                                loop {
                                    mailbox.drain_into(&mut scratch);
                                    if scratch.is_empty() {
                                        break;
                                    }
                                    out.extend(scratch.drain(..));
                                }
                            }
                            if !unschedule(&mailbox, &scheduled) {
                                break;
                            }
                        }
                    }
                })
            };

            producer.join().unwrap();
            consumer.join().unwrap();
            let seen = seen.lock().unwrap();
            assert_eq!(*seen, (0..MSGS).collect::<Vec<_>>(), "round {round}");
            assert!(mailbox.is_empty());
        }
    }
}
