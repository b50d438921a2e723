//! The proposer (client-side) engine of single-decree Paxos.
//!
//! Drives one `c.Con.propose(value)` call as used by ARES `add-config`
//! (Alg. 5): the decided value is returned, which may differ from the
//! proposal when a concurrent reconfigurer won the instance.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::{Ballot, ConMsg};
use ares_types::{Backoff, ConfigId, OpId, ProcessId, RpcId, Step, Time};

/// Static parameters of one `propose` call.
#[derive(Debug, Clone)]
pub struct ProposerConfig {
    /// The consensus instance (base configuration id).
    pub inst: ConfigId,
    /// The acceptors (`c.Servers` of the base configuration).
    pub servers: Vec<ProcessId>,
    /// Responses needed for a phase (the configuration's quorum size).
    pub quorum: usize,
    /// Backoff unit after a preempted ballot (grows exponentially).
    pub backoff_unit: Time,
}

#[derive(Debug)]
enum Phase {
    Preparing {
        promises: Vec<ProcessId>,
        max_accepted: Option<(Ballot, ConfigId)>,
    },
    Accepting {
        value: ConfigId,
        acks: Vec<ProcessId>,
    },
    /// Waiting out a backoff before retrying with a higher ballot.
    BackedOff {
        next_round: u64,
    },
    Done,
}

/// Client-side engine for one `propose(value)` call.
///
/// Feed it replies with [`Proposer::on_message`] and timer expirations
/// with [`Proposer::on_timer`]; it completes with the decided
/// [`ConfigId`].
#[derive(Debug)]
pub struct Proposer {
    cfg: ProposerConfig,
    me: ProcessId,
    op: OpId,
    my_value: ConfigId,
    ballot: Ballot,
    rpc: RpcId,
    phase: Phase,
    /// Counts preempted-and-retried ballots.
    backoff: Backoff,
}

impl Proposer {
    /// Starts a propose call; returns the engine and the initial
    /// `Prepare` broadcast. `rpc_base` seeds phase ids (the caller's
    /// monotone counter); each internal phase bumps it.
    pub fn start(
        cfg: ProposerConfig,
        me: ProcessId,
        op: OpId,
        value: ConfigId,
        rpc_base: u64,
    ) -> (Self, Step<ConMsg, ConfigId>) {
        assert!(cfg.quorum >= 1 && cfg.quorum <= cfg.servers.len());
        let mut p = Proposer {
            cfg,
            me,
            op,
            my_value: value,
            ballot: Ballot::initial(me),
            rpc: RpcId(rpc_base),
            phase: Phase::Done, // replaced below
            backoff: Backoff::default(),
        };
        let step = p.begin_prepare(p.ballot.round);
        (p, step)
    }

    fn begin_prepare(&mut self, round: u64) -> Step<ConMsg, ConfigId> {
        self.ballot = Ballot { round, proposer: self.me };
        self.rpc = RpcId(self.rpc.0 + 1);
        self.phase = Phase::Preparing { promises: Vec::new(), max_accepted: None };
        let msg = ConMsg::Prepare {
            inst: self.cfg.inst,
            rpc: self.rpc,
            ballot: self.ballot,
            op: self.op,
        };
        Step::sends(self.cfg.servers.iter().map(|&s| (s, msg.clone())).collect())
    }

    fn begin_accept(&mut self, value: ConfigId) -> Step<ConMsg, ConfigId> {
        self.rpc = RpcId(self.rpc.0 + 1);
        self.phase = Phase::Accepting { value, acks: Vec::new() };
        let msg = ConMsg::Accept {
            inst: self.cfg.inst,
            rpc: self.rpc,
            ballot: self.ballot,
            value,
            op: self.op,
        };
        Step::sends(self.cfg.servers.iter().map(|&s| (s, msg.clone())).collect())
    }

    fn preempted(&mut self, promised: Ballot) -> Step<ConMsg, ConfigId> {
        let next_round = promised.round.max(self.ballot.round) + 1;
        self.phase = Phase::BackedOff { next_round };
        // Deterministic exponential backoff with a proposer-id offset to
        // break symmetry; network-delay randomness does the rest.
        let delay = self.backoff.rearm(self.cfg.backoff_unit).plus(self.me.0 as Time % 7 + 1);
        Step::idle().with_timer(delay)
    }

    fn decide(&mut self, value: ConfigId) -> Step<ConMsg, ConfigId> {
        self.phase = Phase::Done;
        let msg = ConMsg::Decide { inst: self.cfg.inst, value };
        Step::done(value).with_sends(self.cfg.servers.iter().map(|&s| (s, msg.clone())).collect())
    }

    /// Handles the backoff timer: retries with a higher ballot.
    pub fn on_timer(&mut self) -> Step<ConMsg, ConfigId> {
        match self.phase {
            Phase::BackedOff { next_round } => self.begin_prepare(next_round),
            _ => Step::idle(),
        }
    }

    /// Feeds a reply; stale or foreign messages are ignored.
    pub fn on_message(&mut self, from: ProcessId, msg: ConMsg) -> Step<ConMsg, ConfigId> {
        if msg.instance() != self.cfg.inst {
            return Step::idle();
        }
        match (&mut self.phase, msg) {
            (
                Phase::Preparing { promises, max_accepted },
                ConMsg::Promise { rpc, accepted, decided, .. },
            ) if rpc == self.rpc => {
                if let Some(v) = decided {
                    // Fast path: somebody already learned the decision.
                    return self.decide(v);
                }
                if !promises.contains(&from) {
                    promises.push(from);
                    if let Some((b, v)) = accepted {
                        if max_accepted.is_none_or(|(mb, _)| b > mb) {
                            *max_accepted = Some((b, v));
                        }
                    }
                }
                if promises.len() >= self.cfg.quorum {
                    let value = max_accepted.map(|(_, v)| v).unwrap_or(self.my_value);
                    self.begin_accept(value)
                } else {
                    Step::idle()
                }
            }
            (Phase::Preparing { .. }, ConMsg::NackPrepare { rpc, promised, .. })
                if rpc == self.rpc =>
            {
                self.preempted(promised)
            }
            (Phase::Accepting { value, acks }, ConMsg::Accepted { rpc, .. }) if rpc == self.rpc => {
                if !acks.contains(&from) {
                    acks.push(from);
                }
                if acks.len() >= self.cfg.quorum {
                    let v = *value;
                    self.decide(v)
                } else {
                    Step::idle()
                }
            }
            (Phase::Accepting { .. }, ConMsg::NackAccept { rpc, promised, .. })
                if rpc == self.rpc =>
            {
                self.preempted(promised)
            }
            _ => Step::idle(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Acceptor;

    fn cfg() -> ProposerConfig {
        ProposerConfig {
            inst: ConfigId(0),
            servers: (1..=3).map(ProcessId).collect(),
            quorum: 2,
            backoff_unit: 10,
        }
    }

    fn op(c: u32) -> OpId {
        OpId { client: ProcessId(c), seq: 0 }
    }

    /// Drives a proposer against in-memory acceptors, synchronously.
    fn drive(
        p: &mut Proposer,
        acceptors: &mut [Acceptor],
        first: Step<ConMsg, ConfigId>,
    ) -> ConfigId {
        let mut inbox: Vec<(ProcessId, ConMsg)> = first.sends;
        if let Some(v) = first.output {
            return v;
        }
        for _round in 0..100 {
            let mut next = Vec::new();
            for (to, msg) in inbox.drain(..) {
                let idx = (to.0 - 1) as usize;
                if idx < acceptors.len() {
                    // message to an acceptor
                    for (back_to, reply) in acceptors[idx].handle(ProcessId(99), msg) {
                        assert_eq!(back_to, ProcessId(99));
                        let step = p.on_message(to, reply);
                        if let Some(v) = step.output {
                            return v;
                        }
                        next.extend(step.sends);
                        if step.timer_after.is_some() {
                            let step = p.on_timer();
                            if let Some(v) = step.output {
                                return v;
                            }
                            next.extend(step.sends);
                        }
                    }
                }
            }
            inbox = next;
            if inbox.is_empty() {
                panic!("proposer stalled");
            }
        }
        panic!("no decision after 100 rounds");
    }

    #[test]
    fn solo_proposer_decides_own_value() {
        let (mut p, first) = Proposer::start(cfg(), ProcessId(99), op(99), ConfigId(7), 0);
        let mut acc = vec![Acceptor::new(); 3];
        let decided = drive(&mut p, &mut acc, first);
        assert_eq!(decided, ConfigId(7));
        assert_eq!(p.backoff.attempts(), 0);
    }

    #[test]
    fn proposer_adopts_previously_accepted_value() {
        // Pre-load acceptors with an accepted value at ballot (1, p50).
        let mut acc = vec![Acceptor::new(); 3];
        let b = Ballot { round: 1, proposer: ProcessId(50) };
        for a in acc.iter_mut().take(2) {
            a.handle(
                ProcessId(50),
                ConMsg::Prepare { inst: ConfigId(0), rpc: RpcId(1), ballot: b, op: op(50) },
            );
            a.handle(
                ProcessId(50),
                ConMsg::Accept {
                    inst: ConfigId(0),
                    rpc: RpcId(2),
                    ballot: b,
                    value: ConfigId(42),
                    op: op(50),
                },
            );
        }
        let (mut p, first) = Proposer::start(cfg(), ProcessId(99), op(99), ConfigId(7), 0);
        // p99's initial ballot (1, p99) > (1, p50), so prepare succeeds and
        // must adopt 42.
        let decided = drive(&mut p, &mut acc, first);
        assert_eq!(decided, ConfigId(42), "validity: adopts the accepted value");
    }

    #[test]
    fn decided_fast_path() {
        let mut acc = vec![Acceptor::new(); 3];
        for a in acc.iter_mut() {
            a.handle(ProcessId(1), ConMsg::Decide { inst: ConfigId(0), value: ConfigId(5) });
        }
        let (mut p, first) = Proposer::start(cfg(), ProcessId(99), op(99), ConfigId(7), 0);
        let decided = drive(&mut p, &mut acc, first);
        assert_eq!(decided, ConfigId(5));
    }

    #[test]
    fn preemption_triggers_backoff_and_retry() {
        let mut acc = vec![Acceptor::new(); 3];
        // Another proposer holds a high promise on all acceptors.
        let high = Ballot { round: 9, proposer: ProcessId(50) };
        for a in acc.iter_mut() {
            a.handle(
                ProcessId(50),
                ConMsg::Prepare { inst: ConfigId(0), rpc: RpcId(1), ballot: high, op: op(50) },
            );
        }
        let (mut p, first) = Proposer::start(cfg(), ProcessId(99), op(99), ConfigId(7), 0);
        let decided = drive(&mut p, &mut acc, first);
        assert_eq!(decided, ConfigId(7), "retries with a higher ballot and wins");
        assert!(p.backoff.attempts() >= 1);
    }

    #[test]
    fn stale_rpc_replies_ignored() {
        let (mut p, _first) = Proposer::start(cfg(), ProcessId(99), op(99), ConfigId(7), 0);
        let stale = ConMsg::Promise {
            inst: ConfigId(0),
            rpc: RpcId(999),
            ballot: Ballot::initial(ProcessId(99)),
            accepted: None,
            decided: None,
            op: op(99),
        };
        assert!(p.on_message(ProcessId(1), stale).is_idle());
        let foreign = ConMsg::Promise {
            inst: ConfigId(55),
            rpc: p.rpc,
            ballot: p.ballot,
            accepted: None,
            decided: None,
            op: op(99),
        };
        assert!(p.on_message(ProcessId(1), foreign).is_idle());
    }
}
