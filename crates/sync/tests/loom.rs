//! Loom models of `theta_sync::channel`.
//!
//! Run with `cargo test -p theta-sync --features loom --test loom`. The
//! checker treats a thread parked on a condvar that nobody will ever
//! notify as a deadlock, so every model below also proves the absence
//! of lost wakeups on the path it drives:
//!
//! 1. a bounded channel at capacity: two producers block on the
//!    not-full condvar in turn, and every value reaches the consumer
//!    exactly once;
//! 2. a receiver blocked on an empty channel wakes for the last
//!    sender's disconnect after draining what was queued;
//! 3. a sender blocked on a full channel wakes with its value handed
//!    back when the last receiver leaves.

#![cfg(feature = "loom")]

use theta_sync::channel::{bounded, unbounded, RecvError, SendError};
use theta_sync::{model, model_bounded, thread};

#[test]
fn bounded_channel_delivers_every_value_once_under_backpressure() {
    model(|| {
        let (tx, rx) = bounded::<u32>(1);
        let producers: Vec<_> = (0..2u32)
            .map(|v| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(v).expect("receiver alive"))
            })
            .collect();
        drop(tx);
        let mut got = vec![rx.recv().expect("first"), rx.recv().expect("second")];
        for p in producers {
            p.join().unwrap();
        }
        assert_eq!(rx.recv(), Err(RecvError), "all senders gone");
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    });
}

#[test]
fn blocked_receiver_sees_messages_then_the_disconnect() {
    model_bounded(usize::MAX, || {
        let (tx, rx) = unbounded::<u32>();
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(consumer.join().unwrap(), vec![1, 2]);
    });
}

#[test]
fn blocked_sender_wakes_when_the_receiver_leaves() {
    model_bounded(usize::MAX, || {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(0).unwrap();
        let sender = thread::spawn(move || tx.send(1));
        drop(rx);
        assert_eq!(sender.join().unwrap(), Err(SendError(1)));
    });
}
