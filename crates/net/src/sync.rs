//! Poison-recovering locks, one guard per thread, the one condition
//! variable of the crate, [`Signal`], which wakes only a parked thread,
//! and the guard that keeps shard event loops from blocking.
//!
//! `Mutex::lock().expect(..)` turns one panicked thread into a panic
//! cascade: every other thread touching the same lock dies on the
//! poison error, including shard event loops and writer threads that
//! were nowhere near the original bug. Every runtime lock in this crate
//! goes through these helpers instead, which recover the inner guard —
//! the protected state is either consistent (the panicking thread never
//! got to mutate it) or protocol-level self-correcting (frame queues
//! tolerate lost entries by design, DESIGN §6).
//!
//! No thread ever holds two runtime mutexes, so there is no lock order to
//! get wrong; debug builds check it at every [`lock`]. Every runtime
//! mutex guards a short O(1) section (no I/O, no allocation loops), so
//! a shard event loop may take one: its wait is bounded by the holder's
//! section, not by the network.
//!
//! A shard event loop never blocks otherwise (DESIGN §9): one blocked
//! loop stalls every object mapped to its shard. The loop marks its
//! thread with [`mark_loop`], and every call that can park a thread on
//! something other than a runtime mutex — a [`Signal`] wait, [`sleep`],
//! a socket connect, a blocking read or write — first calls
//! [`off_loop`], which panics on a marked thread in debug builds. The
//! loop's one park point, a `ppoll` on its own inbox and sockets when it
//! has nothing to do, waits on no `Signal`.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[cfg(debug_assertions)]
thread_local! {
    static HOLDS_GUARD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static ON_LOOP: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Marks the calling thread as a shard event loop for the rest of its
/// life: [`off_loop`] panics on it from now on, in debug builds.
pub(crate) fn mark_loop() {
    #[cfg(debug_assertions)]
    ON_LOOP.with(|on| on.set(true));
}

/// Asserts, in debug builds, that the caller is not a shard event loop
/// about to block on `what`.
pub(crate) fn off_loop(what: &str) {
    #[cfg(debug_assertions)]
    ON_LOOP.with(|on| assert!(!on.get(), "a shard event loop must not block ({what})"));
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// The crate's only sleep: never on a shard event loop.
#[expect(clippy::disallowed_methods, reason = "the one place a thread sleeps")]
pub(crate) fn sleep(d: Duration) {
    off_loop("sleep");
    std::thread::sleep(d);
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
    Guard(m.lock().unwrap_or_else(|p| p.into_inner()), Held)
}

/// A condition variable that skips the wake-up syscall while no thread
/// is parked on it.
///
/// Contract: the notifier changes the guarded state under the same
/// mutex the waiter checks it under, before it notifies. A waiter raises
/// the parked count under that guard before it parks, so a notifier that
/// changed the state after the check took the mutex after the raise and
/// sees the count; one that changed it before was seen by the check, and
/// the waiter never parked. Either way no wake-up is lost.
#[derive(Default)]
#[expect(clippy::disallowed_types, reason = "the one condvar, behind the parked count")]
pub(crate) struct Signal {
    cv: std::sync::Condvar,
    parked: AtomicUsize,
    /// Wake-ups issued, for the tests that count them.
    #[cfg(test)]
    wakes: AtomicUsize,
}

impl Signal {
    /// Parks until `done` holds of the guarded state or `deadline`
    /// passes; `None` waits for `done` alone. `done` is checked after
    /// every wake-up, the last one too.
    pub(crate) fn wait_until<'a, T>(
        &self,
        mut guard: Guard<'a, T>,
        deadline: Option<Instant>,
        done: impl Fn(&T) -> bool,
    ) -> Guard<'a, T> {
        off_loop("Signal::wait_until");
        while !done(&guard) {
            let left = match deadline.map(|d| d.checked_duration_since(Instant::now())) {
                Some(None) => break,
                left => left.flatten(),
            };
            let Guard(inner, held) = guard;
            self.parked.fetch_add(1, Ordering::Relaxed);
            let inner = match left {
                Some(left) => {
                    self.cv.wait_timeout(inner, left).unwrap_or_else(|p| p.into_inner()).0
                }
                None => self.cv.wait(inner).unwrap_or_else(|p| p.into_inner()),
            };
            self.parked.fetch_sub(1, Ordering::Relaxed);
            guard = Guard(inner, held);
        }
        guard
    }

    /// Wakes one parked waiter, if there is one.
    pub(crate) fn notify_one(&self) {
        if self.any_parked() {
            self.cv.notify_one();
        }
    }

    /// Wakes every parked waiter.
    pub(crate) fn notify_all(&self) {
        if self.any_parked() {
            self.cv.notify_all();
        }
    }

    /// Relaxed suffices: the waiter's raise is ordered before its unlock
    /// inside `wait`, and that unlock before the notifier's lock.
    fn any_parked(&self) -> bool {
        let parked = self.parked.load(Ordering::Relaxed) > 0;
        #[cfg(test)]
        self.wakes.fetch_add(usize::from(parked), Ordering::Relaxed);
        parked
    }

    #[cfg(test)]
    pub(crate) fn wakes(&self) -> usize {
        self.wakes.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }
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

    #[test]
    #[cfg(debug_assertions)]
    fn a_blocking_call_on_a_shard_loop_panics_in_debug_builds() {
        let on_a_loop = |block: fn()| {
            let blocked = std::thread::spawn(move || {
                mark_loop();
                block();
            });
            let err = blocked.join().expect_err("the guard panics");
            let msg = err.downcast::<String>().expect("a formatted message");
            assert!(msg.starts_with("a shard event loop must not block"), "{msg}");
        };
        on_a_loop(|| sleep(Duration::from_micros(1)));
        on_a_loop(|| {
            let (m, signal) = (Mutex::new(()), Signal::default());
            drop(signal.wait_until(lock(&m), Some(Instant::now()), |_| false));
        });
        // Off the loop, the same calls are fine.
        sleep(Duration::from_micros(1));
    }
}
