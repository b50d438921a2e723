//! Single-decree Paxos — the consensus service `c.Con` of ARES.
//!
//! Section 4.1 of the paper associates each configuration `c` with "an
//! external consensus service, denoted by `c.Con`, that runs on a subset
//! of servers in the configuration", used by `add-config` to agree on the
//! *next* configuration identifier. Definition 41 requires exactly
//! **Agreement**, **Validity** and **Termination**.
//!
//! This crate implements that service from scratch as single-decree Paxos
//! over the configuration's own quorum system:
//!
//! * [`Acceptor`] — per-instance server state (promised ballot, accepted
//!   pair, learned decision), embedded into every server actor;
//! * [`Proposer`] — the client-side engine driving `propose(c)`: prepare /
//!   promise, accept / accepted, each phase re-sent to the acceptors not
//!   heard from, with deterministic exponential backoff on ballot
//!   preemption and a learned-decision fast path.
//!
//! One instance decides the successor of one configuration, so instances
//! are keyed by the *base* [`ConfigId`]. Values are configuration ids
//! (what `add-config` proposes).
//!
//! Termination holds under the usual partial-synchrony caveat (FLP makes
//! it impossible to guarantee in a purely asynchronous world); the paper
//! acknowledges the same by giving ARES only a *conditional* performance
//! analysis (Section 4.4) with consensus charged as an opaque `T(CN)`.

mod acceptor;
mod proposer;

pub use acceptor::Acceptor;
pub use proposer::{Proposer, ProposerConfig};

use ares_types::{ConfigId, OpId, ProcessId, RpcId};
use std::fmt;

/// A Paxos ballot: totally ordered, unique per proposer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot {
    /// Monotone round counter.
    pub round: u64,
    /// Proposer id (tie-breaker).
    pub proposer: ProcessId,
}

impl Ballot {
    /// The zero ballot (below every real ballot).
    pub const ZERO: Ballot = Ballot { round: 0, proposer: ProcessId(0) };

    /// First ballot of a proposer.
    pub fn initial(proposer: ProcessId) -> Self {
        Ballot { round: 1, proposer }
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.proposer)
    }
}

/// Messages of the consensus sub-protocol.
///
/// All fields are metadata (configuration ids, ballots), so the payload
/// size is 0 under the paper's cost accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConMsg {
    /// Phase-1a: proposer asks acceptors to promise ballot `ballot`.
    Prepare {
        /// Consensus instance (the base configuration).
        inst: ConfigId,
        /// Client phase id for reply matching.
        rpc: RpcId,
        /// The ballot being prepared.
        ballot: Ballot,
        /// Operation attribution.
        op: OpId,
    },
    /// Phase-1b: acceptor promises `ballot`, reporting its
    /// highest accepted pair and any learned decision.
    Promise {
        /// Consensus instance.
        inst: ConfigId,
        /// Echoed phase id.
        rpc: RpcId,
        /// The promised ballot.
        ballot: Ballot,
        /// Highest `(ballot, value)` this acceptor has accepted.
        accepted: Option<(Ballot, ConfigId)>,
        /// A decision this acceptor has already learned, if any.
        decided: Option<ConfigId>,
        /// Operation attribution.
        op: OpId,
    },
    /// Phase-1b negative: acceptor has promised a higher ballot.
    NackPrepare {
        /// Consensus instance.
        inst: ConfigId,
        /// Echoed phase id.
        rpc: RpcId,
        /// The higher ballot the acceptor is bound to.
        promised: Ballot,
        /// Operation attribution.
        op: OpId,
    },
    /// Phase-2a: proposer asks acceptors to accept `(ballot, value)`.
    Accept {
        /// Consensus instance.
        inst: ConfigId,
        /// Client phase id.
        rpc: RpcId,
        /// The ballot.
        ballot: Ballot,
        /// The proposed configuration id.
        value: ConfigId,
        /// Operation attribution.
        op: OpId,
    },
    /// Phase-2b: acceptor accepted `(ballot, value)`.
    Accepted {
        /// Consensus instance.
        inst: ConfigId,
        /// Echoed phase id.
        rpc: RpcId,
        /// The accepted ballot.
        ballot: Ballot,
        /// Operation attribution.
        op: OpId,
    },
    /// Phase-2b negative: a higher ballot superseded this one.
    NackAccept {
        /// Consensus instance.
        inst: ConfigId,
        /// Echoed phase id.
        rpc: RpcId,
        /// The higher promised ballot.
        promised: Ballot,
        /// Operation attribution.
        op: OpId,
    },
    /// Learner broadcast: `value` is decided for `inst` (fire-and-forget;
    /// lets slow acceptors and future proposers short-circuit).
    Decide {
        /// Consensus instance.
        inst: ConfigId,
        /// The decided configuration id.
        value: ConfigId,
    },
}

// Each per-variant fact is one match naming every variant: a new one does
// not compile until classified, and clippy refuses a `_` that absorbs it.
#[deny(clippy::wildcard_enum_match_arm)]
impl ConMsg {
    /// The consensus instance this message belongs to.
    pub fn instance(&self) -> ConfigId {
        match self {
            ConMsg::Prepare { inst, .. }
            | ConMsg::Promise { inst, .. }
            | ConMsg::NackPrepare { inst, .. }
            | ConMsg::Accept { inst, .. }
            | ConMsg::Accepted { inst, .. }
            | ConMsg::NackAccept { inst, .. }
            | ConMsg::Decide { inst, .. } => *inst,
        }
    }

    /// Operation attribution (None for `Decide`).
    pub fn op(&self) -> Option<OpId> {
        match self {
            ConMsg::Prepare { op, .. }
            | ConMsg::Promise { op, .. }
            | ConMsg::NackPrepare { op, .. }
            | ConMsg::Accept { op, .. }
            | ConMsg::Accepted { op, .. }
            | ConMsg::NackAccept { op, .. } => Some(*op),
            ConMsg::Decide { .. } => None,
        }
    }

    /// Every configuration id named: the instance first, then any
    /// proposed, accepted or decided value (at most three).
    pub fn configs(&self) -> [Option<ConfigId>; 3] {
        match self {
            ConMsg::Promise { inst, accepted, decided, .. } => {
                [Some(*inst), accepted.map(|(_, c)| c), *decided]
            }
            ConMsg::Accept { inst, value, .. } | ConMsg::Decide { inst, value } => {
                [Some(*inst), Some(*value), None]
            }
            ConMsg::Prepare { inst, .. }
            | ConMsg::NackPrepare { inst, .. }
            | ConMsg::Accepted { inst, .. }
            | ConMsg::NackAccept { inst, .. } => [Some(*inst), None, None],
        }
    }

    /// Whether this changes an acceptor's durable state, which a host
    /// journals before the handler runs: `Prepare` raises the promised
    /// ballot (a promise that does not survive a crash is not honestly
    /// a promise), `Accept` and `Decide` record a value.
    pub fn journaled(&self) -> bool {
        match self {
            ConMsg::Prepare { .. } | ConMsg::Accept { .. } | ConMsg::Decide { .. } => true,
            ConMsg::Promise { .. }
            | ConMsg::NackPrepare { .. }
            | ConMsg::Accepted { .. }
            | ConMsg::NackAccept { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ballots_order_by_round_then_proposer() {
        let a = Ballot { round: 1, proposer: ProcessId(9) };
        let b = Ballot { round: 2, proposer: ProcessId(1) };
        assert!(b > a);
        let c = Ballot { round: 1, proposer: ProcessId(10) };
        assert!(c > a);
        assert!(Ballot::initial(ProcessId(1)) > Ballot::ZERO);
    }

    #[test]
    fn message_instance_and_op_extraction() {
        let op = OpId { client: ProcessId(5), seq: 1 };
        let m = ConMsg::Prepare {
            inst: ConfigId(3),
            rpc: RpcId(1),
            ballot: Ballot::initial(ProcessId(5)),
            op,
        };
        assert_eq!(m.instance(), ConfigId(3));
        assert_eq!(m.op(), Some(op));
        let d = ConMsg::Decide { inst: ConfigId(3), value: ConfigId(4) };
        assert_eq!(d.op(), None);
    }
}
