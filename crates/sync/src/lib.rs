//! # theta-sync
//!
//! The one place the workspace's concurrency-sensitive crates import
//! their synchronization primitives from.
//!
//! - **Default build**: zero-cost re-exports of `std::sync` (and
//!   `std::thread` spawning) — identical types, identical codegen.
//! - **`--features loom`**: the same names resolve to the vendored
//!   loom mirrors, whose operations are scheduling points for the
//!   model checker. [`model`]/[`model_bounded`] then explore every
//!   thread interleaving of a test body (bounded-preemption DFS).
//!
//! Code that must be model-checkable follows two rules:
//!
//! 1. import `Mutex`/`Condvar`/`atomic::*` from `theta_sync`, never
//!    from `std::sync` directly;
//! 2. keep the checked core free of time, randomness and map-iteration
//!    nondeterminism (the checker replays schedules deterministically).
//!
//! The loom mirrors are dual-mode — outside a `model()` call they
//! delegate to `std` — so a crate compiled with the `loom` feature
//! still runs its ordinary unit tests unchanged.
//!
//! [`channel`] is the workspace's one message channel, built on these
//! primitives so the loom models cover it too.

#[cfg(not(feature = "loom"))]
mod imp {
    pub use std::sync::{Arc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    pub mod atomic {
        pub use std::sync::atomic::{
            fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }

    pub mod thread {
        pub use std::thread::{spawn, yield_now, JoinHandle};
    }

    /// Without the `loom` feature a "model" is a single plain run; the
    /// exhaustive exploration only exists under `--features loom`.
    pub fn model<F: Fn() + Send + Sync + 'static>(f: F) {
        f();
    }

    /// See [`model`].
    pub fn model_bounded<F: Fn() + Send + Sync + 'static>(_bound: usize, f: F) {
        f();
    }
}

#[cfg(feature = "loom")]
mod imp {
    pub use loom::sync::{Arc, Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    pub mod atomic {
        pub use loom::sync::atomic::{
            fence, AtomicBool, AtomicI64, AtomicU32, AtomicU64, AtomicUsize, Ordering,
        };
    }

    pub mod thread {
        pub use loom::thread::{spawn, yield_now, JoinHandle};
    }

    pub use loom::{model, model_bounded};
}

pub use imp::*;

pub mod channel;

/// True when this build resolves to the loom mirrors (used by tests to
/// assert they are actually model-checking).
pub const LOOM: bool = cfg!(feature = "loom");

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicU64, Ordering};
    use super::*;

    #[test]
    fn shim_smoke() {
        // Whichever backend is active, the basic API shape holds.
        let m = Mutex::new(0u32);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 1);
        let a = AtomicU64::new(1);
        assert_eq!(a.fetch_add(2, Ordering::Relaxed), 1);
        assert_eq!(a.load(Ordering::Relaxed), 3);
        model(|| {
            let x = Arc::new(AtomicU64::new(0));
            let x2 = x.clone();
            let h = thread::spawn(move || x2.store(5, Ordering::SeqCst));
            h.join().unwrap();
            assert_eq!(x.load(Ordering::SeqCst), 5);
        });
    }
}
