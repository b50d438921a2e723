//! Identifier newtypes for processes, objects, operations and RPC phases.

use std::fmt;

/// Identifier of a process (writer, reader, reconfigurer, or server).
///
/// The paper's sets `W ∪ R ∪ G ∪ S` are all drawn from one flat id space;
/// the harness decides which ids play which role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(pub u32);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u32> for ProcessId {
    fn from(v: u32) -> Self {
        ProcessId(v)
    }
}

/// Identifier of a shared atomic object.
///
/// The paper emulates a single object (shared memory is the composition of
/// many such objects); we carry an object id so the key-value example can
/// compose several registers over the same server set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Identifier of a configuration (`c ∈ C`, the set of unique configuration
/// identifiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ConfigId(pub u32);

impl fmt::Display for ConfigId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Identifier of a client *operation* (read / write / reconfig invocation),
/// unique across the execution: the invoking client plus a local sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId {
    /// The invoking client.
    pub client: ProcessId,
    /// Client-local invocation counter.
    pub seq: u64,
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.client, self.seq)
    }
}

/// Identifier of a logical client *session* within one client process.
///
/// The paper models every reader/writer/reconfigurer as a sequential
/// process with at most one outstanding operation. A session is exactly
/// that logical process — but many sessions can be multiplexed over one
/// OS process and one runtime. Well-formedness (one outstanding
/// operation) is enforced *per session*; operations of different
/// sessions of the same process run concurrently.
///
/// Session ids are process-local. Globally unique identities are derived
/// from `(ProcessId, SessionId)` pairs: operation ids partition the
/// `OpId::seq` space by session, and each session writes under its own
/// logical writer id (see `ares_core::store`), so tags minted by
/// concurrent sessions never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SessionId(pub u32);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for SessionId {
    fn from(v: u32) -> Self {
        SessionId(v)
    }
}

/// Identifier of one client-side RPC *phase* (a broadcast plus the quorum
/// of replies it waits for). Replies carry the phase id back so a client
/// can discard stragglers from completed phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RpcId(pub u64);

impl fmt::Display for RpcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rpc{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(ProcessId(7).to_string(), "p7");
        assert_eq!(ObjectId(1).to_string(), "x1");
        assert_eq!(ConfigId(4).to_string(), "c4");
        assert_eq!(OpId { client: ProcessId(2), seq: 9 }.to_string(), "p2#9");
        assert_eq!(RpcId(3).to_string(), "rpc3");
    }

    #[test]
    fn op_ids_order_by_client_then_seq() {
        let a = OpId { client: ProcessId(1), seq: 5 };
        let b = OpId { client: ProcessId(1), seq: 6 };
        let c = OpId { client: ProcessId(2), seq: 0 };
        assert!(a < b && b < c);
    }
}
