//! The uniform output of protocol state-machine transitions.
//!
//! Every client-side protocol engine in this reproduction (DAP calls,
//! Paxos proposer, configuration-service actions, ARES operations) is a
//! pure state machine: feeding it an event returns a [`Step`] describing
//! messages to send, an optional timer request, and — when the engine has
//! finished — its output. Keeping engines pure makes each paper algorithm
//! unit-testable without a simulator.

use crate::ids::ProcessId;
use crate::Time;

/// Result of advancing a protocol engine by one event.
#[derive(Debug)]
pub struct Step<M, O> {
    /// Messages to transmit: `(destination, message)` pairs.
    pub sends: Vec<(ProcessId, M)>,
    /// Set when the engine has produced its final output; the engine must
    /// not be fed further events afterwards.
    pub output: Option<O>,
    /// If set, the engine wants to be woken after this delay (e.g. Paxos
    /// backoff, TREAS read retry).
    pub timer_after: Option<Delay>,
}

impl<M, O> Step<M, O> {
    /// A step with no effects.
    pub fn idle() -> Self {
        Step { sends: Vec::new(), output: None, timer_after: None }
    }

    /// A step that only sends messages.
    pub fn sends(sends: Vec<(ProcessId, M)>) -> Self {
        Step { sends, output: None, timer_after: None }
    }

    /// A step that completes with `output` (optionally after sends).
    pub fn done(output: O) -> Self {
        Step { sends: Vec::new(), output: Some(output), timer_after: None }
    }

    /// Adds sends to this step (builder style).
    #[must_use]
    pub fn with_sends(mut self, sends: Vec<(ProcessId, M)>) -> Self {
        self.sends.extend(sends);
        self
    }

    /// Adds a timer request (builder style). The delay must come from a
    /// [`Backoff`]; a bare time does not compile:
    ///
    /// ```compile_fail
    /// let step: ares_types::Step<(), ()> = ares_types::Step::idle().with_timer(200);
    /// ```
    #[must_use]
    pub fn with_timer(mut self, after: Delay) -> Self {
        self.timer_after = Some(after);
        self
    }

    /// True when nothing happened.
    pub fn is_idle(&self) -> bool {
        self.sends.is_empty() && self.output.is_none() && self.timer_after.is_none()
    }

    /// Maps the output type.
    pub fn map<O2>(self, f: impl FnOnce(O) -> O2) -> Step<M, O2> {
        Step { sends: self.sends, output: self.output.map(f), timer_after: self.timer_after }
    }
}

impl<M, O> Default for Step<M, O> {
    fn default() -> Self {
        Step::idle()
    }
}

/// A timer delay; only a [`Backoff`] makes one.
#[derive(Debug, PartialEq, Eq)]
pub struct Delay(Time);

impl Delay {
    /// The delay, in time units.
    pub fn get(&self) -> Time {
        self.0
    }

    /// This delay plus a constant `offset` (a Paxos proposer's tie-break).
    #[must_use]
    pub fn plus(self, offset: Time) -> Delay {
        Delay(self.0 + offset)
    }
}

/// A retry timer's backoff: attempt `r` waits `base << min(r, 6)`, and
/// only [`Backoff::rearm`] advances `r`. The base is passed at every arm,
/// so a moving one (the client's measured RTO) is read afresh.
#[derive(Debug, Default)]
pub struct Backoff {
    attempts: u32,
}

impl Backoff {
    /// The current attempt's delay: a phase's first transmission.
    pub fn arm(&self, base: Time) -> Delay {
        Delay(base << self.attempts.min(6))
    }

    /// Counts one more attempt and returns its delay: a retransmission.
    pub fn rearm(&mut self, base: Time) -> Delay {
        self.attempts += 1;
        self.arm(base)
    }

    /// Attempts counted so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let s: Step<&str, u32> =
            Step::done(7).with_sends(vec![(ProcessId(1), "hello")]).with_timer(Delay(10));
        assert_eq!(s.output, Some(7));
        assert_eq!(s.sends.len(), 1);
        assert_eq!(s.timer_after, Some(Delay(10)));
        assert!(!s.is_idle());
        assert!(Step::<(), ()>::idle().is_idle());
    }

    #[test]
    fn map_transforms_output() {
        let s: Step<(), u32> = Step::done(21);
        let s2 = s.map(|x| x * 2);
        assert_eq!(s2.output, Some(42));
    }

    #[test]
    fn backoff_doubles_per_rearm_up_to_the_cap() {
        let mut b = Backoff::default();
        let grown: Vec<Time> = (0..9).map(|_| b.rearm(1).get()).collect();
        assert_eq!((b.arm(200).get(), grown), (200 << 6, vec![2, 4, 8, 16, 32, 64, 64, 64, 64]));
        assert_eq!((Backoff::default().arm(200), b.rearm(10).plus(3)), (Delay(200), Delay(643)));
    }
}
