//! Loom models of the lock-free metrics primitives.
//!
//! Run with `cargo test -p theta-metrics --features loom`. These pin
//! down the documented `Relaxed` contract of the histogram and the
//! registry counter: every concurrently observed cell is bounded by
//! its true final value (per-cell monotonicity — no torn or
//! out-of-thin-air counts), and once writers join, a snapshot is exact.

#![cfg(feature = "loom")]

use std::sync::Arc;
use theta_metrics::{Counter, Histogram};
use theta_sync::{model, model_bounded, thread};

/// Sanity: these tests are meaningless against the std passthrough.
#[test]
fn models_are_actually_model_checked() {
    assert!(theta_sync::LOOM, "tests/loom.rs must run with --features loom");
}

/// A recorder races a snapshotter. Every snapshot the reader takes —
/// wherever the checker interleaves it — must satisfy the histogram's
/// contract: count between 0 and 2, sum between 0 and the true total,
/// and the two snapshots it takes in sequence must be monotone. After
/// join, the final snapshot is exact.
#[test]
fn histogram_snapshots_are_bounded_and_monotone() {
    // 10 µs and 50 ms land in different buckets, so a torn snapshot
    // that duplicated or invented a count would break the bounds.
    const FAST: u64 = 10;
    const SLOW: u64 = 50_000;
    // Preemption bound 1: every property here (a bounded or torn value,
    // a non-monotone pair of reads) is witnessed by a single preemption
    // of the reader mid-snapshot, and the 54-bucket load loops make the
    // default bound-2 sweep needlessly slow.
    model_bounded(1, || {
        let h = Arc::new(Histogram::new());

        let recorder = {
            let h = h.clone();
            thread::spawn(move || {
                h.record_micros(FAST);
                h.record_micros(SLOW);
            })
        };
        let reader = {
            let h = h.clone();
            thread::spawn(move || {
                let a = h.snapshot();
                let b = h.snapshot();
                for s in [&a, &b] {
                    assert!(s.count() <= 2, "count out of thin air: {}", s.count());
                    assert!(s.sum_micros <= FAST + SLOW, "sum out of thin air");
                    for &c in &s.buckets {
                        assert!(c <= 1, "torn bucket count: {c}");
                    }
                }
                // Monotonicity: a bucket never shrinks between reads.
                for (x, y) in a.buckets.iter().zip(&b.buckets) {
                    assert!(x <= y, "bucket count went backwards");
                }
                assert!(a.sum_micros <= b.sum_micros);
            })
        };

        recorder.join().unwrap();
        reader.join().unwrap();

        let fin = h.snapshot();
        assert_eq!(fin.count(), 2, "quiescent snapshot must be exact");
        assert_eq!(fin.sum_micros, FAST + SLOW);
    });
}

/// Two threads bump the same pair of registry counters; a concurrent
/// read is bounded by the true total, and the post-join read is exact —
/// relaxed increments are never lost.
#[test]
fn counter_increments_are_never_lost() {
    // Default preemption bound (2): with three threads the unbounded
    // schedule space runs to minutes, and both failure modes under test
    // (a lost increment, a torn observation) already appear with one
    // preemption.
    model(|| {
        let wakeups = Arc::new(Counter::default());
        let events = Arc::new(Counter::default());

        let writers: Vec<_> = (0..2)
            .map(|_| {
                let (wakeups, events) = (wakeups.clone(), events.clone());
                thread::spawn(move || {
                    wakeups.inc();
                    events.add(3);
                })
            })
            .collect();
        let observer = {
            let (wakeups, events) = (wakeups.clone(), events.clone());
            thread::spawn(move || {
                let (w, e) = (wakeups.get(), events.get());
                assert!(w <= 2, "wakeups over-counted: {w}");
                assert!(e <= 6);
                assert_eq!(e % 3, 0, "torn add observed");
            })
        };

        for h in writers {
            h.join().unwrap();
        }
        observer.join().unwrap();

        assert_eq!(wakeups.get(), 2, "an increment was lost");
        assert_eq!(events.get(), 6);
    });
}
