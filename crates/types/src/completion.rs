//! Operation completion records — the observable history of an execution.
//!
//! Every client operation (read, write, reconfig) that completes emits an
//! [`OpCompletion`]. The harness's atomicity checker consumes the set of
//! completions of an execution and verifies properties A1–A3 of the
//! atomicity definition in Section 2 of the paper.

use crate::ids::{ConfigId, ObjectId, OpId, ProcessId};
use crate::tag::Tag;
use crate::Time;

/// The kind of a client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A `write(v)` operation.
    Write,
    /// A `read()` operation.
    Read,
    /// A `reconfig(c)` operation.
    Recon,
}

/// A completed client operation, as observed by the external clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpCompletion {
    /// Unique operation id (client + invocation counter).
    pub op: OpId,
    /// What kind of operation this was.
    pub kind: OpKind,
    /// The object the operation accessed (meaningless for reconfigs).
    pub obj: ObjectId,
    /// Invocation time (external clock).
    pub invoked_at: Time,
    /// Response time (external clock).
    pub completed_at: Time,
    /// The tag associated with the operation: the tag a write generated,
    /// or the tag whose value a read returned. `None` for reconfigs.
    pub tag: Option<Tag>,
    /// Digest of the value written (write) or returned (read), for
    /// matching reads to writes without storing payloads.
    pub value_digest: Option<u64>,
    /// For reconfigs: the configuration installed (the consensus decision,
    /// which may differ from the proposal).
    pub installed: Option<ConfigId>,
    /// Number of simulated messages this operation sent/received (filled
    /// by the harness from simulator metrics; 0 when not tracked).
    pub messages: u64,
    /// Payload bytes attributed to this operation (communication cost of
    /// Section 2; metadata excluded).
    pub payload_bytes: u64,
}

impl OpCompletion {
    /// Convenience constructor for the common fields; metrics start at 0.
    pub fn new(op: OpId, kind: OpKind, invoked_at: Time, completed_at: Time) -> Self {
        OpCompletion {
            op,
            kind,
            obj: ObjectId(0),
            invoked_at,
            completed_at,
            tag: None,
            value_digest: None,
            installed: None,
            messages: 0,
            payload_bytes: 0,
        }
    }

    /// The invoking client.
    pub fn client(&self) -> ProcessId {
        self.op.client
    }

    /// Operation latency in simulated time units.
    pub fn latency(&self) -> Time {
        self.completed_at - self.invoked_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(seq: u64) -> OpId {
        OpId { client: ProcessId(1), seq }
    }

    #[test]
    fn latency_and_precedence() {
        let a = OpCompletion::new(op(0), OpKind::Write, 10, 20);
        assert_eq!(a.latency(), 10);
    }
}
