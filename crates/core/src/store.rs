//! The session-multiplexed store API.
//!
//! The paper models every client as a *sequential* process: one
//! outstanding operation, one writer id, one entry in `W ∪ R ∪ G`. The
//! seed reproduction mirrored that 1:1 — driving N concurrent
//! operations cost N actors (and, over TCP, N sockets and N blocked
//! threads). This module inverts the mapping while preserving the
//! model: a [`Store`] hosts many *logical* clients ([sessions](StoreSession)) over
//! one runtime, each session a sequential process in the paper's sense.
//!
//! * [`Store::open_session`] is cheap: a counter bump, no new actors,
//!   sockets or threads.
//! * `session.submit(cmd)` returns an [`OpTicket`] immediately; the
//!   operation runs concurrently with every other session's operations
//!   (*pipelining*), and its completion is routed back to exactly this
//!   ticket by [`OpId`] — there is no FIFO pairing to cross-deliver.
//! * Within one session, operations stay strictly serial: a command
//!   submitted while the session's previous operation is in flight is
//!   queued by the runtime and *invoked* (timestamped) only after the
//!   predecessor completes, so every per-session subhistory is
//!   well-formed and the whole history remains checkable by
//!   `ares_harness::check_atomicity`.
//!
//! Two identity schemes make the multiplexing sound:
//!
//! 1. **Operation ids** partition `OpId::seq` by session
//!    ([`session_op_seq`]): the upper 32 bits carry the session id, the
//!    lower 32 the session-local invocation counter. Completions route
//!    by this id.
//! 2. **Writer ids**: tags are `(z, writer)` pairs and Paxos ballots
//!    are `(round, proposer)` pairs, so two concurrent writes (or
//!    reconfigs) from sessions of one host must not share the host's
//!    `ProcessId`. [`session_writer`] gives each session a logical
//!    writer id — `(session << 16) | host` — that can never collide
//!    with a host id (hosts are restricted to the low 16-bit space
//!    when sessions are in use) nor with another session anywhere in
//!    the deployment. Session 0 keeps the host id itself, so
//!    single-session deployments behave bit-identically to the seed.
//!
//! Backends: `ares_harness::SimStore` runs sessions inside the
//! deterministic simulator; `ares_net::NetStore` runs them over one
//! shared TCP socket set. Both host the *same* multiplexing
//! [`crate::ClientActor`] — the sim-vs-net equivalence argument of
//! DESIGN.md §6 carries over to sessions unchanged.

use crate::msg::ClientCmd;
use ares_types::{ConfigId, ObjectId, OpCompletion, OpId, ProcessId, SessionId, Value};
use std::fmt;

/// Sessions and host processes share the 16-bit-partitioned writer-id
/// space: both must stay below this bound when the session API is used.
pub const MAX_SESSIONS: u32 = 1 << 16;

/// The full `OpId::seq` of session-local invocation `n` of `session`:
/// the session id in the upper 32 bits, the counter in the lower 32.
///
/// # Panics
///
/// Panics if `n` overflows the 32-bit per-session counter space.
pub fn session_op_seq(session: SessionId, n: u64) -> u64 {
    assert!(n < (1 << 32), "session {session} exceeded 2^32 operations");
    ((session.0 as u64) << 32) | n
}

/// The session id encoded in an `OpId::seq` (inverse of
/// [`session_op_seq`]).
pub fn session_of_op(op: OpId) -> SessionId {
    SessionId((op.seq >> 32) as u32)
}

/// The logical writer id of `session` on host `client`: tags minted and
/// ballots proposed by the session carry this id. Session 0 *is* the
/// host (seed-compatible); other sessions occupy the id space above
/// 2^16, which deployment host ids must stay below.
///
/// # Panics
///
/// Panics if a non-zero session is combined with a host id at or above
/// 2^16 (the two would no longer be collision-free).
pub fn session_writer(client: ProcessId, session: SessionId) -> ProcessId {
    if session.0 == 0 {
        return client;
    }
    assert!(
        client.0 < MAX_SESSIONS && session.0 < MAX_SESSIONS,
        "session writer ids require host ids and session ids below 2^16 \
         (host {client}, session {session})"
    );
    ProcessId((session.0 << 16) | client.0)
}

/// Why a ticketed operation failed.
///
/// An error poisons *only its own ticket*: other sessions — and other
/// tickets of the same store — are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// The operation did not complete in time (net: the wall-clock
    /// deadline passed; sim: the world went quiescent without the
    /// completion, i.e. the operation *cannot* finish — typically a
    /// dead quorum). The operation may still be running; its session
    /// stays dedicated to it until it completes, so callers needing
    /// fresh progress should open a new session.
    Timeout {
        /// The operation that timed out.
        op: OpId,
    },
    /// The written value cannot fit a wire frame (net backend only);
    /// rejected at submission, before anything is transmitted.
    ValueTooLarge {
        /// Size of the rejected value.
        len: usize,
        /// The backend's frame limit.
        max: usize,
    },
    /// The store was shut down: at submission, or (net) while the
    /// ticket waited for a completion that can no longer arrive.
    Closed,
}

impl fmt::Display for OpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpError::Timeout { op } => write!(f, "operation {op} timed out"),
            OpError::ValueTooLarge { len, max } => {
                write!(f, "value of {len} bytes exceeds the {max}-byte frame limit")
            }
            OpError::Closed => write!(f, "store is shut down"),
        }
    }
}

impl std::error::Error for OpError {}

/// A claim ticket for one submitted operation.
///
/// The completion is routed to this ticket by [`OpId`] — never by
/// arrival order — so tickets of concurrent sessions can be awaited in
/// any order, from any thread that owns them.
pub trait OpTicket {
    /// The operation this ticket tracks.
    fn op(&self) -> OpId;

    /// Returns the completion if it has already been routed here.
    /// Never blocks and never advances the backend (poll-friendly).
    fn try_wait(&mut self) -> Option<Result<OpCompletion, OpError>>;

    /// Blocks (net) or pumps the simulation (sim) until the operation
    /// completes or the backend's deadline passes.
    ///
    /// # Errors
    ///
    /// [`OpError::Timeout`] when the completion cannot be obtained, and
    /// [`OpError::Closed`] at once when the store has shut down before
    /// the completion arrived (net).
    fn wait(self) -> Result<OpCompletion, OpError>;
}

/// One logical client: a sequential process in the paper's model.
///
/// Submissions return immediately with a ticket. The runtime executes a
/// session's commands strictly in submission order, invoking each only
/// after its predecessor completes, so the session's subhistory is
/// always well-formed — while different sessions' operations pipeline
/// freely through the shared runtime.
pub trait StoreSession {
    /// The ticket type completions are routed to.
    type Ticket: OpTicket;

    /// This session's id.
    fn id(&self) -> SessionId;

    /// The host process this session is multiplexed onto.
    fn client(&self) -> ProcessId;

    /// Submits a command; returns its ticket without waiting.
    ///
    /// # Errors
    ///
    /// [`OpError::ValueTooLarge`] / [`OpError::Closed`] on submission-
    /// time rejection; the command is not enqueued.
    fn submit(&mut self, cmd: ClientCmd) -> Result<Self::Ticket, OpError>;

    /// Submits `write(obj, value)`.
    ///
    /// # Errors
    ///
    /// See [`StoreSession::submit`].
    fn write(&mut self, obj: ObjectId, value: Value) -> Result<Self::Ticket, OpError> {
        self.submit(ClientCmd::Write { obj, value })
    }

    /// Submits `read(obj)`.
    ///
    /// # Errors
    ///
    /// See [`StoreSession::submit`].
    fn read(&mut self, obj: ObjectId) -> Result<Self::Ticket, OpError> {
        self.submit(ClientCmd::Read { obj })
    }

    /// Submits `reconfig(target)`.
    ///
    /// # Errors
    ///
    /// See [`StoreSession::submit`].
    fn reconfig(&mut self, target: ConfigId) -> Result<Self::Ticket, OpError> {
        self.submit(ClientCmd::Recon { target })
    }
}

/// A store frontend: one runtime hosting many logical client sessions.
pub trait Store {
    /// The session handle type.
    type Session: StoreSession;

    /// Opens a new logical session (cheap: no actors, sockets or
    /// threads are created).
    fn open_session(&self) -> Self::Session;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_seq_partitions_by_session() {
        let a = session_op_seq(SessionId(0), 7);
        let b = session_op_seq(SessionId(1), 7);
        assert_ne!(a, b);
        assert_eq!(a, 7, "session 0 keeps the bare counter");
        let op = OpId { client: ProcessId(100), seq: b };
        assert_eq!(session_of_op(op), SessionId(1));
    }

    #[test]
    fn writer_ids_are_collision_free() {
        // Session 0 is the host itself.
        assert_eq!(session_writer(ProcessId(100), SessionId(0)), ProcessId(100));
        // Distinct (host, session) pairs map to distinct writers, and
        // never into the sub-2^16 host space.
        let mut seen = std::collections::HashSet::new();
        for host in [1u32, 100, 65535] {
            for session in [1u32, 2, 65535] {
                let w = session_writer(ProcessId(host), SessionId(session));
                assert!(w.0 >= MAX_SESSIONS, "logical ids live above the host space");
                assert!(seen.insert(w), "collision at host {host} session {session}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "below 2^16")]
    fn big_host_ids_cannot_use_sessions() {
        session_writer(ProcessId(1 << 16), SessionId(1));
    }
}
