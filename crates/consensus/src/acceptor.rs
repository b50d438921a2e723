//! The acceptor (server-side) role of single-decree Paxos.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::{Ballot, ConMsg};
use ares_types::{ConfigId, ProcessId};

/// Per-instance acceptor state, embedded in every server.
///
/// A pure state machine: [`Acceptor::handle`] consumes a message and
/// returns the replies to transmit, so it can be unit-tested without a
/// simulator and composed into the unified server actor of `ares-core`.
#[derive(Debug, Clone, Default)]
pub struct Acceptor {
    promised: Ballot,
    accepted: Option<(Ballot, ConfigId)>,
    decided: Option<ConfigId>,
}

impl Acceptor {
    /// Fresh acceptor state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The decision this acceptor has learned, if any.
    pub fn decided(&self) -> Option<ConfigId> {
        self.decided
    }

    /// Highest ballot promised so far.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// Highest accepted `(ballot, value)` pair.
    pub fn accepted(&self) -> Option<(Ballot, ConfigId)> {
        self.accepted
    }

    /// Rebuilds an acceptor from durable state (checkpoint decode or
    /// WAL replay) — the inverse of the three getters. A promise that
    /// does not survive a crash is not honestly a promise, so crash
    /// recovery must restore `promised` exactly as it stood.
    pub fn from_parts(
        promised: Ballot,
        accepted: Option<(Ballot, ConfigId)>,
        decided: Option<ConfigId>,
    ) -> Self {
        Acceptor { promised, accepted, decided }
    }

    /// Handles a proposer message addressed to this acceptor, returning
    /// replies as `(destination, message)` pairs.
    ///
    /// `Promise`/`Accepted`/nack replies go back to `from`; `Decide`
    /// messages update learned state and produce no reply.
    pub fn handle(&mut self, from: ProcessId, msg: ConMsg) -> Vec<(ProcessId, ConMsg)> {
        match msg {
            ConMsg::Prepare { inst, rpc, ballot, op } => {
                // An equal ballot is the same proposer's resend of the
                // same attempt (ballots carry the session's writer id):
                // it is promised again, as Accept is, not nacked as a
                // preemption.
                if ballot >= self.promised {
                    self.promised = ballot;
                    vec![(
                        from,
                        ConMsg::Promise {
                            inst,
                            rpc,
                            ballot,
                            accepted: self.accepted,
                            decided: self.decided,
                            op,
                        },
                    )]
                } else {
                    vec![(from, ConMsg::NackPrepare { inst, rpc, promised: self.promised, op })]
                }
            }
            ConMsg::Accept { inst, rpc, ballot, value, op } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.accepted = Some((ballot, value));
                    vec![(from, ConMsg::Accepted { inst, rpc, ballot, op })]
                } else {
                    vec![(from, ConMsg::NackAccept { inst, rpc, promised: self.promised, op })]
                }
            }
            ConMsg::Decide { value, .. } => {
                debug_assert!(
                    self.decided.is_none() || self.decided == Some(value),
                    "two different decisions reached an acceptor: agreement violated"
                );
                self.decided = Some(value);
                Vec::new()
            }
            // Proposer-bound messages are never addressed to acceptors.
            ConMsg::Promise { .. }
            | ConMsg::NackPrepare { .. }
            | ConMsg::Accepted { .. }
            | ConMsg::NackAccept { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::{OpId, RpcId};

    fn op() -> OpId {
        OpId { client: ProcessId(9), seq: 0 }
    }

    fn prepare(round: u64, p: u32) -> ConMsg {
        ConMsg::Prepare {
            inst: ConfigId(0),
            rpc: RpcId(round),
            ballot: Ballot { round, proposer: ProcessId(p) },
            op: op(),
        }
    }

    fn accept(round: u64, p: u32, v: u32) -> ConMsg {
        ConMsg::Accept {
            inst: ConfigId(0),
            rpc: RpcId(round),
            ballot: Ballot { round, proposer: ProcessId(p) },
            value: ConfigId(v),
            op: op(),
        }
    }

    #[test]
    fn promises_higher_ballots_only() {
        let mut a = Acceptor::new();
        let r1 = a.handle(ProcessId(1), prepare(2, 1));
        assert!(matches!(r1[0].1, ConMsg::Promise { .. }));
        // Lower ballot now nacked.
        let r2 = a.handle(ProcessId(2), prepare(1, 2));
        match &r2[0].1 {
            ConMsg::NackPrepare { promised, .. } => {
                assert_eq!(*promised, Ballot { round: 2, proposer: ProcessId(1) });
            }
            other => panic!("expected nack, got {other:?}"),
        }
    }

    #[test]
    fn a_repeated_prepare_is_promised_again() {
        let mut a = Acceptor::new();
        a.handle(ProcessId(1), prepare(4, 1));
        a.handle(ProcessId(1), accept(4, 1, 8));
        // The proposer's resend of the same Prepare reaches it again.
        let r = a.handle(ProcessId(1), prepare(4, 1));
        match &r[0].1 {
            ConMsg::Promise { ballot, accepted, .. } => {
                assert_eq!(*ballot, Ballot { round: 4, proposer: ProcessId(1) });
                assert_eq!(accepted.map(|(_, v)| v), Some(ConfigId(8)));
            }
            other => panic!("expected promise, got {other:?}"),
        }
        assert_eq!(a.promised(), Ballot { round: 4, proposer: ProcessId(1) });
    }

    #[test]
    fn accept_requires_promised_ballot() {
        let mut a = Acceptor::new();
        a.handle(ProcessId(1), prepare(5, 1));
        // Stale accept at a lower ballot is nacked.
        let r = a.handle(ProcessId(2), accept(3, 2, 7));
        assert!(matches!(r[0].1, ConMsg::NackAccept { .. }));
        // Accept at the promised ballot succeeds.
        let r = a.handle(ProcessId(1), accept(5, 1, 7));
        assert!(matches!(r[0].1, ConMsg::Accepted { .. }));
        assert_eq!(a.accepted().unwrap().1, ConfigId(7));
    }

    #[test]
    fn promise_reports_previously_accepted_value() {
        let mut a = Acceptor::new();
        a.handle(ProcessId(1), prepare(1, 1));
        a.handle(ProcessId(1), accept(1, 1, 42));
        let r = a.handle(ProcessId(2), prepare(2, 2));
        match &r[0].1 {
            ConMsg::Promise { accepted, .. } => {
                assert_eq!(accepted.unwrap().1, ConfigId(42));
            }
            other => panic!("expected promise, got {other:?}"),
        }
    }

    #[test]
    fn decide_is_sticky_and_reported() {
        let mut a = Acceptor::new();
        assert!(a
            .handle(ProcessId(1), ConMsg::Decide { inst: ConfigId(0), value: ConfigId(9) })
            .is_empty());
        assert_eq!(a.decided(), Some(ConfigId(9)));
        let r = a.handle(ProcessId(2), prepare(9, 2));
        match &r[0].1 {
            ConMsg::Promise { decided, .. } => assert_eq!(*decided, Some(ConfigId(9))),
            other => panic!("expected promise, got {other:?}"),
        }
    }
}
