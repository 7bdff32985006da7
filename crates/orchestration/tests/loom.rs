//! Loom models of the worker-pool scheduling handshake.
//!
//! Run with `cargo test -p theta-orchestration --features loom`. Each
//! test wraps a tiny program around the *production* handshake code
//! ([`theta_orchestration::handshake`]) and asks the model checker to
//! try every interleaving (bounded-preemption DFS; the two-thread
//! models with few operations run fully exhaustively via
//! `model_bounded(usize::MAX, ..)`).
//!
//! What is being proven, model by model:
//!
//! 1. no lost wakeups: every message pushed by the router is applied by
//!    some worker pass, even when the push races the worker's
//!    drain/unschedule hand-back;
//! 2. no double scheduling: concurrent producers put a slot on the run
//!    queue exactly once per idle→scheduled transition;
//! 3. exact drop accounting: at capacity, delivered + dropped equals
//!    attempted, with no message both delivered and counted dropped;
//! 4. close wins: a `close()` racing a push never leaves a message
//!    behind or resurrects the slot;
//! 5. terminal delivery is exactly-once: the worker finish path and the
//!    shutdown-drain path can both try to claim an instance's terminal
//!    result, but only one succeeds;
//! 6. the batch-flush handshake settles every submitted check exactly
//!    once: a check enqueued *while* another thread is mid-flush is
//!    neither lost nor double-verified, and the flush duty never leaks;
//!    and no check is stranded: once all threads are quiet, the pending
//!    list is empty or a router wake was sent after the router last
//!    armed its age-flush deadline.

#![cfg(feature = "loom")]

use std::sync::Arc;
use theta_orchestration::handshake::{
    batch_claim, batch_finish, batch_oldest, batch_submit, batch_take, drain_apply,
    schedule_core, unschedule, Finished, Submitted,
};
use theta_orchestration::mailbox::{Mailbox, PushError};
use theta_sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use theta_sync::{model, model_bounded, thread, Condvar, Mutex};

/// Sanity: these tests are meaningless against the std passthrough.
#[test]
fn models_are_actually_model_checked() {
    assert!(theta_sync::LOOM, "tests/loom.rs must run with --features loom");
}

/// Model 1 — the full producer/worker round trip with a blocking run
/// queue: one router thread pushes MSGS messages through
/// `schedule_core`, one worker consumes run-queue tokens, drains with
/// `drain_apply` and hands back with `unschedule` (re-draining when
/// `unschedule` reports a race, exactly as a re-injected slot would).
/// Under every explored schedule the worker must apply every message,
/// in order, exactly once — the no-lost-wakeup theorem.
#[test]
fn handoff_loses_no_message_and_keeps_order() {
    const MSGS: u64 = 2;
    model(|| {
        let mailbox: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(8));
        let scheduled = Arc::new(AtomicBool::new(false));
        // (outstanding run-queue tokens, producer finished)
        let queue = Arc::new((Mutex::new((0usize, false)), Condvar::new()));

        let producer = {
            let mailbox = mailbox.clone();
            let scheduled = scheduled.clone();
            let queue = queue.clone();
            thread::spawn(move || {
                for i in 0..MSGS {
                    schedule_core(&mailbox, &scheduled, i, || {
                        let mut q = queue.0.lock().unwrap();
                        q.0 += 1;
                        queue.1.notify_one();
                    })
                    .expect("mailbox is large enough");
                }
                let mut q = queue.0.lock().unwrap();
                q.1 = true;
                queue.1.notify_one();
            })
        };

        let worker = {
            let mailbox = mailbox.clone();
            let scheduled = scheduled.clone();
            let queue = queue.clone();
            thread::spawn(move || {
                let mut seen = Vec::new();
                let mut scratch = Vec::new();
                loop {
                    let mut q = queue.0.lock().unwrap();
                    while q.0 == 0 && !q.1 {
                        q = queue.1.wait(q).unwrap();
                    }
                    if q.0 == 0 {
                        break; // producer done and queue drained
                    }
                    q.0 -= 1;
                    drop(q);
                    loop {
                        drain_apply(&mailbox, &mut scratch, |m| seen.push(m));
                        // unschedule == true is the reinjection path: in
                        // production the slot goes back on the queue and
                        // some worker re-drains; looping here is the
                        // single-worker equivalent.
                        if !unschedule(&mailbox, &scheduled) {
                            break;
                        }
                    }
                }
                seen
            })
        };

        producer.join().unwrap();
        let seen = worker.join().unwrap();
        assert_eq!(seen, (0..MSGS).collect::<Vec<_>>(), "lost or reordered message");
        assert!(mailbox.is_empty(), "message left behind in the mailbox");
    });
}

/// Model 2 (exhaustive) — two producers race `schedule_core` on an idle
/// slot. Exactly one of them may win the idle→scheduled transition and
/// enqueue the slot; the single resulting drain pass must observe both
/// messages. This is the "a slot is never on the run queue twice"
/// invariant that makes the host lock-free.
#[test]
fn concurrent_producers_enqueue_the_slot_exactly_once() {
    model_bounded(usize::MAX, || {
        let mailbox: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(8));
        let scheduled = Arc::new(AtomicBool::new(false));
        let tokens = Arc::new(AtomicUsize::new(0));

        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let mailbox = mailbox.clone();
                let scheduled = scheduled.clone();
                let tokens = tokens.clone();
                thread::spawn(move || {
                    schedule_core(&mailbox, &scheduled, p, || {
                        tokens.fetch_add(1, Ordering::SeqCst);
                    })
                    .expect("mailbox is large enough");
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }

        assert_eq!(tokens.load(Ordering::SeqCst), 1, "slot enqueued twice (or never)");
        assert_eq!(mailbox.len(), 2);

        // The one scheduled worker pass sees both messages and the
        // hand-back finds nothing left to reclaim.
        let mut seen = Vec::new();
        let mut scratch = Vec::new();
        drain_apply(&mailbox, &mut scratch, |m| seen.push(m));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
        assert!(!unschedule(&mailbox, &scheduled));
    });
}

/// Model 3 (exhaustive) — capacity pressure: a 1-slot mailbox, two
/// racing producers. Under every interleaving exactly one push fits and
/// exactly one is refused `Full`; delivered + dropped always equals
/// attempted and the mailbox never exceeds its bound.
#[test]
fn drop_accounting_is_exact_at_capacity() {
    model_bounded(usize::MAX, || {
        let mailbox: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(1));
        let scheduled = Arc::new(AtomicBool::new(false));
        let tokens = Arc::new(AtomicUsize::new(0));
        let dropped = Arc::new(AtomicUsize::new(0));

        let producers: Vec<_> = (0..2u64)
            .map(|p| {
                let mailbox = mailbox.clone();
                let scheduled = scheduled.clone();
                let tokens = tokens.clone();
                let dropped = dropped.clone();
                thread::spawn(move || {
                    match schedule_core(&mailbox, &scheduled, p, || {
                        tokens.fetch_add(1, Ordering::SeqCst);
                    }) {
                        Ok(()) => {}
                        Err(PushError::Full) => {
                            dropped.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(PushError::Closed) => unreachable!("nobody closes here"),
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }

        let mut delivered = 0usize;
        let mut scratch = Vec::new();
        loop {
            drain_apply(&mailbox, &mut scratch, |_| delivered += 1);
            if !unschedule(&mailbox, &scheduled) {
                break;
            }
        }
        let dropped = dropped.load(Ordering::SeqCst);
        assert_eq!(delivered + dropped, 2, "a message vanished from the accounting");
        assert_eq!(delivered, 1, "the 1-slot mailbox must admit exactly one push");
        assert_eq!(dropped, 1);
        // A rejected push must never have scheduled the slot by itself:
        // the only token comes from the successful one.
        assert_eq!(tokens.load(Ordering::SeqCst), 1);
    });
}

/// Model 4 (exhaustive) — instance teardown: `close()` racing a
/// producer's `schedule_core`. Whichever order the checker picks, after
/// both finish the mailbox is empty and refuses pushes, a drain finds
/// nothing, and the slot cannot be resurrected — and the producer got a
/// run-queue token iff its push was accepted (no token for a message
/// that was never queued).
#[test]
fn close_racing_push_never_resurrects_the_slot() {
    model_bounded(usize::MAX, || {
        let mailbox: Arc<Mailbox<u64>> = Arc::new(Mailbox::new(4));
        let scheduled = Arc::new(AtomicBool::new(false));
        let tokens = Arc::new(AtomicUsize::new(0));

        let producer = {
            let mailbox = mailbox.clone();
            let scheduled = scheduled.clone();
            let tokens = tokens.clone();
            thread::spawn(move || {
                match schedule_core(&mailbox, &scheduled, 7, || {
                    tokens.fetch_add(1, Ordering::SeqCst);
                }) {
                    Ok(()) => true,
                    Err(PushError::Closed) => false,
                    Err(PushError::Full) => unreachable!("capacity 4, one push"),
                }
            })
        };
        let closer = {
            let mailbox = mailbox.clone();
            thread::spawn(move || mailbox.close())
        };

        let push_won = producer.join().unwrap();
        closer.join().unwrap();

        assert!(mailbox.is_empty(), "close must discard anything queued");
        assert_eq!(mailbox.try_push(9), Err(PushError::Closed));
        assert_eq!(tokens.load(Ordering::SeqCst), usize::from(push_won));
        // The worker pass for a token (if any) finds a clean, dead slot.
        let mut scratch = Vec::new();
        drain_apply(&mailbox, &mut scratch, |_: u64| {
            panic!("drained a message from a closed mailbox")
        });
        assert!(!unschedule(&mailbox, &scheduled), "closed slot rescheduled itself");
    });
}

/// Model 5 (exhaustive) — shutdown-drain vs worker-finish: both paths
/// race to claim an instance's terminal result with the same
/// `Mutex<Option<_>>::take` idiom the router/host use. Exactly one
/// claimant may observe `Some`, so a subscriber gets exactly one
/// terminal result — never zero, never two.
#[test]
fn terminal_result_is_claimed_exactly_once() {
    model_bounded(usize::MAX, || {
        let result = Arc::new(Mutex::new(Some(42u64)));
        let deliveries = Arc::new(AtomicUsize::new(0));

        let claimants: Vec<_> = (0..2)
            .map(|_| {
                let result = result.clone();
                let deliveries = deliveries.clone();
                thread::spawn(move || {
                    if let Some(v) = result.lock().unwrap().take() {
                        assert_eq!(v, 42);
                        deliveries.fetch_add(1, Ordering::SeqCst);
                    }
                })
            })
            .collect();
        for h in claimants {
            h.join().unwrap();
        }

        assert_eq!(deliveries.load(Ordering::SeqCst), 1, "terminal result lost or duplicated");
        assert!(result.lock().unwrap().is_none());
    });
}

/// Model 6 — the batch-flush handshake, in two rounds (the size round
/// exhaustive, the three-thread age round preemption-bounded).
///
/// Size flushes: two workers race `batch_submit` on one aggregator.
/// Whoever claims the flush duty runs the production
/// take/settle/finish loop; a check submitted while the other thread is
/// mid-flush must be either swept into that flush's re-claim round or
/// left on the list for the age path — settled exactly once, never
/// lost, never twice. The duty flag must always come back released.
///
/// Age flush: the router has claimed an age flush of one pending check
/// and handed it to a worker; a second check is submitted concurrently,
/// and the router arms its next deadline ([`batch_oldest`], which sees
/// nothing while the flush is claimed). Besides exactly-once, no check
/// may be stranded: at quiescence the list is empty, or the arming read
/// saw it, or a wake (`Submitted::Wake` / `Finished::Wake`) was sent
/// after the read began — otherwise the router would sleep past it.
#[test]
fn batch_flush_settles_every_check_exactly_once() {
    // threshold 1: every submission may claim, so one thread is usually
    // mid-flush when the other's push lands — the enqueue-while-flushing
    // races. threshold 2: only the crossing submission claims — the
    // single-flusher sweep-up races.
    for threshold in [1usize, 2] {
        model_bounded(usize::MAX, move || size_flush_round(threshold));
        // Three threads: an exhaustive search takes minutes, and every
        // strand-or-wake ordering of the arming read against the
        // submit and the hand-back needs at most three preemptions.
        model_bounded(4, move || age_flush_round(threshold));
    }
}

/// Shared state of one batch-flush model run.
#[derive(Clone)]
struct Batch {
    pending: Arc<Mutex<Vec<u64>>>,
    claimed: Arc<AtomicBool>,
    settled: Arc<Mutex<Vec<u64>>>,
    wakes: Arc<AtomicUsize>,
}

impl Batch {
    fn new(pending: Vec<u64>, claimed: bool) -> Batch {
        Batch {
            pending: Arc::new(Mutex::new(pending)),
            claimed: Arc::new(AtomicBool::new(claimed)),
            settled: Arc::new(Mutex::new(Vec::new())),
            wakes: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The production flush loop, run by whoever holds the claim.
    fn flush(&self, threshold: usize) {
        loop {
            let batch = batch_take(&self.pending);
            self.settled.lock().unwrap().extend(batch);
            match batch_finish(&self.pending, &self.claimed, threshold) {
                Finished::Again => {}
                Finished::Wake => {
                    self.wakes.fetch_add(1, Ordering::SeqCst);
                    return;
                }
                Finished::Idle => return,
            }
        }
    }

    /// A worker submitting one check (and flushing if that claims).
    fn submit(&self, item: u64, threshold: usize) {
        match batch_submit(&self.pending, &self.claimed, [item], threshold) {
            Submitted::Flush => self.flush(threshold),
            Submitted::Wake => {
                self.wakes.fetch_add(1, Ordering::SeqCst);
            }
            Submitted::Nothing => {}
        }
    }

    /// The age/shutdown path collects whatever the flushes left behind
    /// (a sub-threshold straggler); then every check must have settled
    /// exactly once and the duty must be free.
    fn sweep_and_check(&self, threshold: usize) {
        if batch_claim(&self.claimed) {
            let batch = batch_take(&self.pending);
            self.settled.lock().unwrap().extend(batch);
            assert_eq!(batch_finish(&self.pending, &self.claimed, threshold), Finished::Idle);
        }
        let mut seen = self.settled.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1], "check lost or double-settled (threshold {threshold})");
        assert!(self.pending.lock().unwrap().is_empty());
        assert!(!self.claimed.load(Ordering::SeqCst), "flush duty leaked");
    }
}

fn size_flush_round(threshold: usize) {
    let b = Batch::new(Vec::new(), false);
    let submitters: Vec<_> = (0..2u64)
        .map(|item| {
            let b = b.clone();
            thread::spawn(move || b.submit(item, threshold))
        })
        .collect();
    for h in submitters {
        h.join().unwrap();
    }
    b.sweep_and_check(threshold);
}

fn age_flush_round(threshold: usize) {
    // Check 0 aged out; the router claimed the flush and a worker runs it.
    let b = Batch::new(vec![0], true);
    let flusher = {
        let b = b.clone();
        thread::spawn(move || b.flush(threshold))
    };
    let submitter = {
        let b = b.clone();
        thread::spawn(move || b.submit(1, threshold))
    };
    // The router re-arms. Wakes counted from here on reach it after
    // this read, so it re-arms again for them.
    let wakes_before = b.wakes.load(Ordering::SeqCst);
    let armed = batch_oldest(&b.pending, &b.claimed, |_| ());
    flusher.join().unwrap();
    submitter.join().unwrap();
    let stranded = !b.pending.lock().unwrap().is_empty()
        && armed.is_none()
        && b.wakes.load(Ordering::SeqCst) == wakes_before;
    assert!(
        !stranded,
        "check stranded: pending at quiescence, unseen by the router's arming read and no wake \
         since (threshold {threshold})"
    );
    b.sweep_and_check(threshold);
}
