//! The uniform output of protocol state-machine transitions.
//!
//! Every client-side protocol engine in this reproduction (DAP calls,
//! Paxos proposer, configuration-service actions, ARES operations) is a
//! pure state machine: feeding it an event returns a [`Step`] describing
//! messages to send, an optional timer request, and — when the engine has
//! finished — its output. Keeping engines pure makes each paper algorithm
//! unit-testable without a simulator.

use crate::ids::{ProcessId, RpcId};
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

/// One quorum phase of a client: a request sent under one rpc id, and
/// the distinct senders of its replies counted against a threshold.
/// Every client phase (the DAPs, `read-next-config`/`put-config`, Paxos
/// Prepare and Accept) is one of these plus its own reply fold.
///
/// The phase keeps its first transmission, so [`QuorumPhase::resend`]
/// re-sends exactly those messages, to the targets not heard from,
/// under the same rpc, and it owns the phase's [`Backoff`]. A step's
/// timer replaces any the engine armed before.
#[derive(Debug)]
pub struct QuorumPhase<M> {
    rpc: RpcId,
    sent: Vec<(ProcessId, M)>,
    heard: Vec<ProcessId>,
    threshold: usize,
    backoff: Backoff,
}

impl<M: Clone> QuorumPhase<M> {
    /// Opens a phase under the next id of the caller's monotone
    /// `rpc_counter`: `build` addresses the request, stamped with that
    /// id, to each target; replies from `threshold` of them complete it.
    pub fn new(
        rpc_counter: &mut u64,
        threshold: usize,
        build: impl FnOnce(RpcId) -> Vec<(ProcessId, M)>,
    ) -> Self {
        *rpc_counter += 1;
        let rpc = RpcId(*rpc_counter);
        QuorumPhase {
            rpc,
            sent: build(rpc),
            heard: Vec::new(),
            threshold,
            backoff: Backoff::default(),
        }
    }

    /// The first transmission, with its retry timer.
    pub fn send<O>(&self, base: Time) -> Step<M, O> {
        Step::sends(self.sent.clone()).with_timer(self.backoff.arm(base))
    }

    /// A retransmission: the first transmission's messages to the
    /// targets not heard from yet, under the same rpc, so replies
    /// already counted keep counting.
    pub fn resend<O>(&mut self, base: Time) -> Step<M, O> {
        let timer = self.backoff.rearm(base);
        let unheard = self.sent.iter().filter(|(to, _)| !self.heard.contains(to));
        Step::sends(unheard.cloned().collect()).with_timer(timer)
    }

    /// Re-opens the phase under a fresh rpc, forgetting every reply; the
    /// attempt count carries on. Only TREAS `get-data` does this.
    pub fn restart<O>(
        &mut self,
        rpc_counter: &mut u64,
        base: Time,
        build: impl FnOnce(RpcId) -> Vec<(ProcessId, M)>,
    ) -> Step<M, O> {
        let backoff = std::mem::take(&mut self.backoff);
        *self = QuorumPhase { backoff, ..QuorumPhase::new(rpc_counter, self.threshold, build) };
        let timer = self.backoff.rearm(base);
        Step::sends(self.sent.clone()).with_timer(timer)
    }

    /// Counts a reply from `from` under `rpc`; true only the first time
    /// a sender is heard under this phase's rpc. Call it once the reply's
    /// body is known to answer this phase.
    pub fn hear(&mut self, from: ProcessId, rpc: RpcId) -> bool {
        let new = rpc == self.rpc && !self.heard.contains(&from);
        if new {
            self.heard.push(from);
        }
        new
    }

    /// Whether the threshold of distinct senders has been heard.
    pub fn complete(&self) -> bool {
        self.heard.len() >= self.threshold
    }

    /// The senders heard, in the order their replies arrived.
    pub fn heard(&self) -> &[ProcessId] {
        &self.heard
    }

    /// The phase's rpc id.
    pub fn rpc(&self) -> RpcId {
        self.rpc
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

    /// A phase to servers 1..=5 whose request to server `s` is
    /// `(rpc, s)`, so every target's message is its own; quorum 4.
    fn phase(rpc_counter: &mut u64) -> QuorumPhase<(RpcId, u32)> {
        QuorumPhase::new(rpc_counter, 4, |rpc| {
            (1..=5).map(|s| (ProcessId(s), (rpc, s * 11))).collect()
        })
    }

    #[test]
    fn a_duplicate_reply_counts_once() {
        let mut p = phase(&mut 0);
        let rpc = p.rpc();
        for s in [1, 2, 3] {
            assert!(p.hear(ProcessId(s), rpc));
        }
        assert!(!p.hear(ProcessId(3), rpc), "a second reply from server 3");
        assert!(!p.complete());
        assert!(p.hear(ProcessId(4), rpc) && p.complete());
        assert_eq!(p.heard(), [1, 2, 3, 4].map(ProcessId));
    }

    #[test]
    fn a_foreign_rpc_is_not_heard() {
        let mut counter = 6;
        let mut p = phase(&mut counter);
        assert_eq!(p.rpc(), RpcId(7));
        assert!(!p.hear(ProcessId(1), RpcId(6)));
        assert!(!p.hear(ProcessId(1), RpcId(8)));
        assert!(p.heard().is_empty());
    }

    #[test]
    fn resend_sends_the_unheard_targets_original_messages() {
        let mut p = phase(&mut 0);
        let first: Step<_, ()> = p.send(100);
        assert_eq!(first.timer_after, Some(Delay(100)));
        p.hear(ProcessId(2), p.rpc());
        p.hear(ProcessId(4), p.rpc());
        let again: Step<_, ()> = p.resend(100);
        let mut silent = first.sends;
        silent.retain(|(s, _)| ![2, 4].contains(&s.0));
        assert_eq!(again.sends, silent, "servers 1, 3, 5, their own messages, same rpc");
        assert_eq!(again.timer_after, Some(Delay(200)));
    }

    #[test]
    fn restart_takes_a_fresh_rpc_forgets_replies_and_keeps_the_attempt_count() {
        let mut counter = 0;
        let mut p = phase(&mut counter);
        p.hear(ProcessId(1), RpcId(1));
        let _: Step<_, ()> = p.resend(100);
        let again: Step<_, ()> = p.restart(&mut counter, 100, |rpc| vec![(ProcessId(9), (rpc, 0))]);
        assert_eq!((p.rpc(), counter), (RpcId(2), 2));
        assert_eq!(again.sends, vec![(ProcessId(9), (RpcId(2), 0))]);
        assert_eq!(again.timer_after, Some(Delay(400)), "third attempt");
        assert!(p.heard().is_empty() && !p.hear(ProcessId(1), RpcId(1)));
        assert!(p.hear(ProcessId(9), RpcId(2)) && !p.complete(), "the threshold stays 4");
    }
}
