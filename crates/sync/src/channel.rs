//! A blocking MPMC channel built on this crate's `Mutex` and `Condvar`.
//!
//! One mutex guards the queue and the endpoint counts. Receivers park
//! on `not_empty`, senders of a bounded channel on `not_full`. A change
//! that can unblock one waiter (a push, a pop) signals with
//! `notify_one`; the last sender or receiver to leave wakes every
//! waiter on the other side so it sees the disconnect. No operation
//! re-polls on a timer: a thread blocked in [`Receiver::recv`] wakes
//! only for a message or a disconnect, and one blocked in
//! [`Receiver::recv_deadline`] additionally at its deadline.
//!
//! Because the primitives come from `theta_sync`, the channel runs on
//! loom's model-checked mirrors under `--features loom` (see
//! `tests/loom.rs`).

use crate::{Arc, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::fmt;
use std::time::{Duration, Instant};

/// The value could not be sent: every receiver is gone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// [`Receiver::recv`] failed: the channel is empty and every sender is
/// gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecvError;

/// Why [`Receiver::try_recv`] returned no message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

/// Why a timed receive returned no message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with nothing queued.
    Timeout,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: Option<usize>,
}

impl<T> Shared<T> {
    /// Every critical section leaves the state valid (a push, a pop or a
    /// count update), so a guard poisoned by a panicking holder is safe
    /// to keep using.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The sending half; clone it for more producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; clone it for more consumers (each message goes
/// to exactly one of them).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State { queue: VecDeque::new(), senders: 1, receivers: 1 }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity,
    });
    (Sender { shared: shared.clone() }, Receiver { shared })
}

/// A channel whose sends never block.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// A channel holding at most `capacity` (at least 1) messages; a send
/// into a full channel blocks until a receiver takes one.
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    channel(Some(capacity.max(1)))
}

impl<T> Sender<T> {
    /// Queues `value`, blocking while a bounded channel is full.
    ///
    /// # Errors
    ///
    /// [`SendError`] hands `value` back when every receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            match self.shared.capacity {
                Some(cap) if st.queue.len() >= cap => {
                    st = self.shared.not_full.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                _ => break,
            }
        }
        st.queue.push_back(value);
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Takes the next message, blocking until one arrives.
    ///
    /// # Errors
    ///
    /// [`RecvError`] once the channel is empty and every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_deadline(None).map_err(|_| RecvError)
    }

    /// Takes the next message if one is queued.
    ///
    /// # Errors
    ///
    /// [`TryRecvError::Empty`] when nothing is queued,
    /// [`TryRecvError::Disconnected`] when additionally every sender is
    /// gone.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.shared.lock();
        match st.queue.pop_front() {
            Some(v) => {
                drop(st);
                self.taken();
                Ok(v)
            }
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Takes the next message, blocking for at most `timeout`.
    ///
    /// # Errors
    ///
    /// As [`Receiver::recv_deadline`].
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_deadline(Instant::now().checked_add(timeout))
    }

    /// Takes the next message, blocking until it arrives or `deadline`
    /// passes; `None` waits without a deadline. A queued message is
    /// returned even when the deadline has already passed.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when the deadline passed with
    /// nothing queued; [`RecvTimeoutError::Disconnected`] when the
    /// channel is empty and every sender is gone.
    pub fn recv_deadline(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut st = self.shared.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                drop(st);
                self.taken();
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            st = match deadline {
                None => self.shared.not_empty.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(t) => {
                    let now = Instant::now();
                    if now >= t {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    let (g, _) = self
                        .shared
                        .not_empty
                        .wait_timeout(st, t - now)
                        .unwrap_or_else(|e| e.into_inner());
                    g
                }
            };
        }
    }

    /// A pop freed one slot of a bounded channel: let one blocked
    /// sender in.
    fn taken(&self) {
        if self.shared.capacity.is_some() {
            self.shared.not_full.notify_one();
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender { shared: self.shared.clone() }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver { shared: self.shared.clone() }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.receivers -= 1;
        // Nobody can take what is still queued: drop it now rather than
        // when the last sender goes, so values whose drop reports
        // something (a reply channel, a completion guard) do so promptly.
        let last = st.receivers == 0;
        let orphaned = if last { std::mem::take(&mut st.queue) } else { VecDeque::new() };
        drop(st);
        drop(orphaned);
        if last {
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn queued_messages_outlive_the_senders() {
        let (tx, rx) = unbounded();
        tx.send("late").unwrap();
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::ZERO), Ok("late"));
        assert_eq!(
            rx.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn deadline_times_out_but_still_returns_a_queued_message() {
        let (tx, rx) = unbounded::<u8>();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(20)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(20));
        tx.send(7).unwrap();
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(rx.recv_deadline(Some(past)), Ok(7));
        assert_eq!(rx.recv_deadline(Some(past)), Err(RecvTimeoutError::Timeout));
    }

    #[test]
    fn last_receiver_drops_what_is_still_queued() {
        let (tx, rx) = unbounded();
        let (reply_tx, reply_rx) = unbounded::<()>();
        tx.send(reply_tx).unwrap();
        drop(rx);
        // The queued reply sender is gone with the receiver, although a
        // sender of the outer channel is still alive.
        assert_eq!(reply_rx.try_recv(), Err(TryRecvError::Disconnected));
        drop(tx);
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn blocked_recv_wakes_on_send_and_on_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        let rx2 = rx.clone();
        let waiter = std::thread::spawn(move || (rx2.recv(), rx2.recv()));
        std::thread::sleep(Duration::from_millis(20));
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(waiter.join().unwrap(), (Ok(9), Err(RecvError)));
        drop(rx);
    }

    #[test]
    fn bounded_send_blocks_until_a_slot_frees() {
        let (tx, rx) = bounded(2);
        let producer = std::thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let got: Vec<u32> = (0..100).map(|_| rx.recv().unwrap()).collect();
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_sender_wakes_when_the_receiver_leaves() {
        let (tx, rx) = bounded(1);
        tx.send(0u8).unwrap();
        let sender = std::thread::spawn(move || tx.send(1));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(sender.join().unwrap(), Err(SendError(1)));
    }

    #[test]
    fn many_producers_many_consumers_deliver_each_message_once() {
        let (tx, rx) = bounded(4);
        let producers: Vec<_> = (0..3u32)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(v) = rx.recv() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<u32> = (0..3)
            .flat_map(|p| (0..200).map(move |i| p * 1000 + i))
            .collect();
        assert_eq!(all, expected);
    }
}
