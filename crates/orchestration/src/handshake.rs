//! The producer/consumer scheduling handshake, in one place.
//!
//! These three functions are the entire lock-free core of the worker
//! pool: the router runs [`schedule_core`], a worker runs
//! [`drain_apply`] followed by [`unschedule`]. They are extracted from
//! `worker_pool` (which calls them on the real run queue) so that the
//! loom models in `tests/loom.rs` exercise *this exact code* — not a
//! test-only re-implementation — against every interleaving.
//!
//! # The invariant
//!
//! The `scheduled` flag means "the slot is on the run queue or a worker
//! is draining it". The protocol:
//!
//! - **Producer** (`schedule_core`): push the message *first*, then
//!   `swap(true)`. If the swap returned `false` the slot was idle and
//!   the producer owns the duty of enqueueing it — exactly one
//!   enqueuer per idle→scheduled transition.
//! - **Consumer** (`unschedule`): runs only after draining the mailbox
//!   to empty. `store(false)` first, then re-check the mailbox; if a
//!   message is present, try to re-claim with `swap(true)`.
//!
//! Because the producer's push happens before its swap, a message can
//! be missed by both sides only if the consumer's emptiness re-check
//! happened before the push *and* the producer's swap returned `true`
//! (someone scheduled) — but the consumer had already stored `false`,
//! so the swap returns `false` and the producer enqueues. The loom
//! models verify this exhaustively rather than taking the prose on
//! faith.

//! # The batch-flush handshake
//!
//! The cross-instance batch aggregator reuses the same shape with a
//! second flag, `flush_claimed` ("some thread is settling a batch right
//! now"): submitters push under the pending-list lock and the one whose
//! push crosses the size threshold claims the flush duty
//! ([`batch_submit`]); the flusher swaps the list out ([`batch_take`]),
//! settles it, then hands the duty back ([`batch_finish`]) — which,
//! exactly like `unschedule`, re-checks the list *after* releasing the
//! flag and re-claims if submissions crossed the threshold mid-flush.
//! Checks enqueued during a flush below the threshold are not lost
//! either: they stay on the list for the age-based flush to collect.
//!
//! The age flush is armed by the router, which blocks until the oldest
//! pending check's deadline ([`batch_oldest`]). That read returns
//! nothing while a flush is claimed — the claimed flush will take the
//! list, so a deadline for it would only fire again and again. Two
//! transitions can therefore leave the router's deadline stale, and
//! both tell the caller to wake the router: a submission that makes the
//! list non-empty without claiming ([`Submitted::Wake`]), and a
//! hand-back that leaves checks behind ([`Finished::Wake`]). Hence the
//! invariant the loom model checks: once all threads are quiet, the
//! list is empty or a wake was sent after the router last armed.

use crate::mailbox::{Mailbox, PushError};
use theta_sync::atomic::{AtomicBool, Ordering};
use theta_sync::Mutex;

/// Producer-side handshake: enqueue `msg` and, iff the slot was idle,
/// call `enqueue` (which must place the slot on the run queue).
///
/// # Errors
///
/// Propagates the mailbox bound ([`PushError::Full`]) or closure
/// ([`PushError::Closed`]); the message is dropped in either case and
/// the slot is *not* scheduled for it.
pub fn schedule_core<T>(
    mailbox: &Mailbox<T>,
    scheduled: &AtomicBool,
    msg: T,
    enqueue: impl FnOnce(),
) -> Result<(), PushError> {
    mailbox.try_push(msg)?;
    // SeqCst: the push above must be ordered before this swap so that a
    // consumer observing `scheduled == false` in `unschedule` and then
    // re-checking the mailbox cannot miss the message. Under any weaker
    // ordering the push could be reordered past the swap and the
    // handshake's "push-then-flag" argument collapses.
    if !scheduled.swap(true, Ordering::SeqCst) {
        enqueue();
    }
    Ok(())
}

/// Consumer-side handshake, run *after* the mailbox was drained to
/// empty and the host lock released: clears the scheduled flag, then
/// re-claims the slot iff a producer slipped a message in between.
/// Returns `true` when the caller must put the slot back on the run
/// queue.
pub fn unschedule<T>(mailbox: &Mailbox<T>, scheduled: &AtomicBool) -> bool {
    // SeqCst: the store must not sink below the emptiness re-check, or
    // a producer could push + see `scheduled == true` (stale) while we
    // see an empty mailbox (stale) — the lost-wakeup this module
    // exists to prevent.
    scheduled.store(false, Ordering::SeqCst);
    // Producer order is push-then-swap, so either we see its message
    // here, or it saw our store and scheduled the slot itself — a
    // message can be missed by both sides only if it was never pushed.
    !mailbox.is_empty() && !scheduled.swap(true, Ordering::SeqCst)
}

/// Consumer-side drain loop: repeatedly swaps the mailbox contents out
/// and applies them in FIFO order until an observation finds it empty.
/// `scratch` is the caller's reusable buffer (workers keep one per
/// thread to avoid per-drain allocation).
pub fn drain_apply<T>(mailbox: &Mailbox<T>, scratch: &mut Vec<T>, mut apply: impl FnMut(T)) {
    loop {
        mailbox.drain_into(scratch);
        if scratch.is_empty() {
            break;
        }
        for msg in scratch.drain(..) {
            apply(msg);
        }
    }
}

/// What a [`batch_submit`] obliges its caller to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submitted {
    /// The caller claimed the flush duty and must run the flush loop
    /// ([`batch_take`] → settle → [`batch_finish`] until it stops
    /// asking for another round).
    Flush,
    /// The list went from empty to non-empty without a claim: the
    /// router's deadline does not cover it yet, so wake the router.
    Wake,
    /// Nothing: the list was already pending (the router's deadline,
    /// or a claimed flush, covers it).
    Nothing,
}

/// Submitter-side batch handshake: appends `items` to the shared
/// pending list and claims the flush duty iff the list reached
/// `threshold` *and* no flush is in progress.
pub fn batch_submit<T>(
    pending: &Mutex<Vec<T>>,
    flush_claimed: &AtomicBool,
    items: impl IntoIterator<Item = T>,
    threshold: usize,
) -> Submitted {
    let (was_empty, len) = {
        let mut p = pending.lock().expect("batch list poisoned");
        let was_empty = p.is_empty();
        p.extend(items);
        (was_empty, p.len())
    };
    // Push-then-claim, mirroring schedule_core's push-then-swap: a
    // flusher that observes `flush_claimed == false` in `batch_finish`
    // and then re-checks the list cannot miss these items.
    if len >= threshold
        && flush_claimed
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    {
        Submitted::Flush
    } else if was_empty && len > 0 {
        Submitted::Wake
    } else {
        Submitted::Nothing
    }
}

/// Flusher-side: swaps the whole pending list out for settlement. Also
/// the shutdown drain (which takes unconditionally, without a claim,
/// after the workers have stopped).
pub fn batch_take<T>(pending: &Mutex<Vec<T>>) -> Vec<T> {
    std::mem::take(&mut *pending.lock().expect("batch list poisoned"))
}

/// What a [`batch_finish`] hand-back leaves the flusher to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Finished {
    /// Submissions crossed the threshold mid-flush; the duty was
    /// re-claimed, so run another take/settle round.
    Again,
    /// The duty is released with checks left on the list. The router
    /// skipped them while the flush was claimed: wake it to arm their
    /// age flush.
    Wake,
    /// The duty is released and the list is empty.
    Idle,
}

/// Flusher-side hand-back, run *after* the taken batch was settled:
/// releases the flush duty, then re-checks the list; if submissions
/// crossed `threshold` mid-flush (their `batch_submit` saw the flag
/// held and could not claim), re-claims — the no-lost-size-flush
/// guarantee, same argument as [`unschedule`].
pub fn batch_finish<T>(
    pending: &Mutex<Vec<T>>,
    flush_claimed: &AtomicBool,
    threshold: usize,
) -> Finished {
    flush_claimed.store(false, Ordering::SeqCst);
    let len = pending.lock().expect("batch list poisoned").len();
    if len >= threshold
        && flush_claimed
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    {
        Finished::Again
    } else if len > 0 {
        Finished::Wake
    } else {
        Finished::Idle
    }
}

/// Router-side arming read: `key` of the oldest pending item, or `None`
/// when the list is empty or a flush is claimed (that flush will take
/// the list; [`Finished::Wake`] re-arms the router if it leaves any).
/// The flag is read under the list lock, so the read orders against
/// both wake-producing transitions.
pub fn batch_oldest<T, K>(
    pending: &Mutex<Vec<T>>,
    flush_claimed: &AtomicBool,
    key: impl FnOnce(&T) -> K,
) -> Option<K> {
    let p = pending.lock().expect("batch list poisoned");
    if flush_claimed.load(Ordering::SeqCst) {
        return None;
    }
    p.first().map(key)
}

/// Claims the flush duty outside the size path — the router's age-based
/// flush trigger and the shutdown flush use this. Returns `true` when
/// the claim succeeded (a flush is then owed, ending in
/// [`batch_finish`]); `false` means a flush is already in progress.
pub fn batch_claim(flush_claimed: &AtomicBool) -> bool {
    flush_claimed
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_handshake_claims_exactly_at_threshold() {
        let pending: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        let claimed = AtomicBool::new(false);
        assert_eq!(batch_submit(&pending, &claimed, [1], 3), Submitted::Wake, "first pending");
        assert_eq!(batch_submit(&pending, &claimed, [2], 3), Submitted::Nothing);
        assert_eq!(batch_submit(&pending, &claimed, [3], 3), Submitted::Flush, "crossing");
        // While the flush is claimed, further threshold crossings must
        // not claim a second flusher.
        assert_eq!(batch_submit(&pending, &claimed, [4, 5, 6], 3), Submitted::Nothing);
        let batch = batch_take(&pending);
        assert_eq!(batch, vec![1, 2, 3, 4, 5, 6]);
        // Nothing arrived mid-flush: the hand-back releases the duty.
        assert_eq!(batch_finish(&pending, &claimed, 3), Finished::Idle);
        assert!(!claimed.load(Ordering::SeqCst));
    }

    #[test]
    fn batch_finish_reclaims_when_submissions_crossed_mid_flush() {
        let pending: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        let claimed = AtomicBool::new(false);
        assert_eq!(batch_submit(&pending, &claimed, [1, 2], 2), Submitted::Flush);
        let first = batch_take(&pending);
        assert_eq!(first, vec![1, 2]);
        // A whole batch worth of checks lands while we are settling:
        // its submitter saw the flag held and did not claim.
        assert_eq!(batch_submit(&pending, &claimed, [3, 4], 2), Submitted::Wake);
        // The hand-back must pick that duty up — otherwise the size
        // flush is lost and those checks wait for the age fallback.
        assert_eq!(batch_finish(&pending, &claimed, 2), Finished::Again);
        assert_eq!(batch_take(&pending), vec![3, 4]);
        assert_eq!(batch_finish(&pending, &claimed, 2), Finished::Idle);
        // Sub-threshold leftovers do not spin the flush loop...
        assert_eq!(batch_submit(&pending, &claimed, [5], 2), Submitted::Wake);
        assert!(batch_claim(&claimed), "age path can claim an idle duty");
        assert_eq!(batch_take(&pending), vec![5]);
        assert_eq!(batch_finish(&pending, &claimed, 2), Finished::Idle);
        // ...and a claim attempt during a flush is refused.
        assert!(batch_claim(&claimed));
        assert!(!batch_claim(&claimed));
    }

    #[test]
    fn arming_skips_a_claimed_list_and_the_release_asks_for_a_wake() {
        let pending: Mutex<Vec<u32>> = Mutex::new(Vec::new());
        let claimed = AtomicBool::new(false);
        assert_eq!(batch_oldest(&pending, &claimed, |v| *v), None);
        assert_eq!(batch_submit(&pending, &claimed, [7], 4), Submitted::Wake);
        assert_eq!(batch_oldest(&pending, &claimed, |v| *v), Some(7));
        assert!(batch_claim(&claimed));
        // Claimed: no deadline, or the router would fire on it forever.
        assert_eq!(batch_oldest(&pending, &claimed, |v| *v), None);
        let _ = batch_take(&pending);
        assert_eq!(batch_submit(&pending, &claimed, [8], 4), Submitted::Wake);
        assert_eq!(batch_finish(&pending, &claimed, 4), Finished::Wake, "leftover");
        assert_eq!(batch_oldest(&pending, &claimed, |v| *v), Some(8));
    }
}
