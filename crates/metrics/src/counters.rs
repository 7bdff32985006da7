//! Event-loop instrumentation for the orchestration layer.
//!
//! The instance manager exposes one [`EventLoopCounters`] per node so
//! benchmarks (and the service layer's node-stats endpoint) can observe
//! how the router's inbox loop behaves: how often it wakes, how many
//! network events and commands it processed, how aggressively it
//! retried, and how the bounded result cache churns.
//!
//! All counters are monotonically increasing and updated with relaxed
//! atomics — they are statistics, not synchronization points.

use theta_sync::atomic::{AtomicU64, Ordering};

/// Shared, lock-free counters for one instance-manager event loop.
#[derive(Debug, Default)]
pub struct EventLoopCounters {
    /// Times the router's blocking inbox wait returned — for a message
    /// or at its earliest deadline (instance expiry, P2P retry, batch
    /// age flush). One per loop iteration, each at most one thread
    /// wakeup; an idle router with no pending deadline adds none.
    pub wakeups: AtomicU64,
    /// Network events (P2P + TOB deliveries) handled.
    pub events_processed: AtomicU64,
    /// Local commands (submissions, shutdowns) handled.
    pub commands_processed: AtomicU64,
    /// P2P messages re-broadcast by the retry/backoff machinery.
    pub retries_sent: AtomicU64,
    /// Entries evicted from the bounded result cache (capacity or TTL).
    pub cache_evictions: AtomicU64,
    /// Protocol instances started at this node.
    pub instances_started: AtomicU64,
    /// Protocol instances finished (success or failure, incl. timeouts).
    pub instances_completed: AtomicU64,
    /// Instances that hit their deadline before reaching quorum.
    pub instances_timed_out: AtomicU64,
}

impl EventLoopCounters {
    /// Fresh zeroed counters.
    pub fn new() -> EventLoopCounters {
        EventLoopCounters::default()
    }

    /// Adds `n` to `counter`.
    ///
    /// Relaxed is safe because each counter is independently monotone
    /// and nothing synchronizes *through* a counter value: readers only
    /// conclude "at least N events happened", which a fetch_add of any
    /// ordering supports (increments cannot be lost or torn).
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments `counter` by one (relaxed; see [`Self::add`]).
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of every counter.
    ///
    /// Relaxed loads: each field is individually between 0 and its true
    /// final value (per-counter monotonicity); fields are not mutually
    /// consistent while writers are in flight. The loom model verifies
    /// both halves of that contract.
    pub fn snapshot(&self) -> EventLoopSnapshot {
        EventLoopSnapshot {
            wakeups: self.wakeups.load(Ordering::Relaxed),
            events_processed: self.events_processed.load(Ordering::Relaxed),
            commands_processed: self.commands_processed.load(Ordering::Relaxed),
            retries_sent: self.retries_sent.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            instances_started: self.instances_started.load(Ordering::Relaxed),
            instances_completed: self.instances_completed.load(Ordering::Relaxed),
            instances_timed_out: self.instances_timed_out.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`EventLoopCounters`], safe to ship across RPC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventLoopSnapshot {
    /// See [`EventLoopCounters::wakeups`].
    pub wakeups: u64,
    /// See [`EventLoopCounters::events_processed`].
    pub events_processed: u64,
    /// See [`EventLoopCounters::commands_processed`].
    pub commands_processed: u64,
    /// See [`EventLoopCounters::retries_sent`].
    pub retries_sent: u64,
    /// See [`EventLoopCounters::cache_evictions`].
    pub cache_evictions: u64,
    /// See [`EventLoopCounters::instances_started`].
    pub instances_started: u64,
    /// See [`EventLoopCounters::instances_completed`].
    pub instances_completed: u64,
    /// See [`EventLoopCounters::instances_timed_out`].
    pub instances_timed_out: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_updates() {
        let c = EventLoopCounters::new();
        assert_eq!(c.snapshot(), EventLoopSnapshot::default());
        EventLoopCounters::bump(&c.wakeups);
        EventLoopCounters::add(&c.events_processed, 5);
        EventLoopCounters::bump(&c.instances_started);
        let s = c.snapshot();
        assert_eq!(s.wakeups, 1);
        assert_eq!(s.events_processed, 5);
        assert_eq!(s.instances_started, 1);
        assert_eq!(s.retries_sent, 0);
    }

    #[test]
    fn counters_shared_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(EventLoopCounters::new());
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    EventLoopCounters::bump(&c.wakeups);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.snapshot().wakeups, 4000);
    }
}
