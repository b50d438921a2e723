//! Poison-recovering lock/condvar helpers, one guard per thread.
//!
//! `Mutex::lock().expect(..)` turns one panicked thread into a panic
//! cascade: every other thread touching the same lock dies on the
//! poison error, including shard event loops and writer threads that
//! were nowhere near the original bug. Every runtime lock in this crate
//! goes through these helpers instead, which recover the inner guard —
//! the protected state is either consistent (the panicking thread never
//! got to mutate it) or protocol-level self-correcting (frame queues
//! and timers tolerate lost entries by design, DESIGN §6).
//!
//! No thread ever holds two runtime mutexes, so there is no lock order to
//! get wrong; debug builds check it at every [`lock`].

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};
use std::time::Duration;

#[cfg(debug_assertions)]
thread_local! {
    static HOLDS_GUARD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Clears the thread's held-guard flag when its guard drops.
struct Held;

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HOLDS_GUARD.with(|h| h.set(false));
    }
}

/// A runtime mutex guard: the thread holds no other until it drops.
pub(crate) struct Guard<'a, T>(MutexGuard<'a, T>, Held);

impl<T> Deref for Guard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Acquires `m`, recovering the guard from a poisoned lock.
#[expect(clippy::disallowed_methods, reason = "the one place a runtime mutex is locked")]
pub(crate) fn lock<T>(m: &Mutex<T>) -> Guard<'_, T> {
    #[cfg(debug_assertions)]
    HOLDS_GUARD.with(|h| assert!(!h.replace(true), "a thread took a second runtime lock"));
    // lint: allow(loop-blocking-transitive, reason = "the one sanctioned park point: every runtime mutex guards a short O(1) critical section (no I/O, no allocation loops) and no thread holds two, so waits are bounded by the holder's section, not by the network")
    Guard(m.lock().unwrap_or_else(|p| p.into_inner()), Held)
}

/// Waits on `cv`, recovering the guard from a poisoned lock.
pub(crate) fn cv_wait<'a, T>(cv: &Condvar, Guard(inner, held): Guard<'a, T>) -> Guard<'a, T> {
    Guard(cv.wait(inner).unwrap_or_else(|p| p.into_inner()), held)
}

/// Waits on `cv` with a timeout, recovering the guard from a poisoned
/// lock.
pub(crate) fn cv_wait_timeout<'a, T>(
    cv: &Condvar,
    Guard(inner, held): Guard<'a, T>,
    dur: Duration,
) -> (Guard<'a, T>, WaitTimeoutResult) {
    let (inner, timeout) = cv.wait_timeout(inner, dur).unwrap_or_else(|p| p.into_inner());
    (Guard(inner, held), timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    #[expect(clippy::disallowed_methods, reason = "poisons the lock outside the helper")]
    fn lock_recovers_from_poison() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().expect("first acquire");
            panic!("poison the lock");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7, "guard recovered with state intact");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a thread took a second runtime lock")]
    fn a_second_guard_panics_in_debug_builds() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        let _first = lock(&a);
        let _second = lock(&b);
    }
}
