//! Shared vocabulary types for the ARES reproduction.
//!
//! This crate defines the model-level objects of Section 2 of the paper:
//! process identifiers, logical [`Tag`]s, object [`Value`]s, quorum systems,
//! and [`Configuration`]s (the tuple `⟨c.Servers, c.Quorums, DAP algorithm,
//! c.Con⟩`), plus the configuration-sequence bookkeeping (`cseq`, `µ`, `ν`,
//! prefix order) that the ARES reconfiguration service manipulates.
//!
//! Protocol crates (`ares-dap`, `ares-consensus`, `ares-core`) build their
//! message types and state machines on top of these definitions; the
//! simulator (`ares-sim`) only needs [`ProcessId`], [`Time`] and the
//! [`OpCompletion`] record.

pub mod completion;
pub mod config;
pub mod ids;
pub mod quorum;
pub mod step;
pub mod tag;
pub mod value;

pub use completion::{OpCompletion, OpKind};
pub use config::{ConfigEntry, ConfigRegistry, ConfigSeq, Configuration, DapKind, Status};
pub use ids::{ConfigId, ObjectId, OpId, ProcessId, RpcId, SessionId};
pub use quorum::QuorumSpec;
pub use step::{Backoff, Delay, QuorumPhase, Step};
pub use tag::Tag;
pub use value::{TagValue, Value, TAG0};

/// Simulated time, in abstract "microseconds" of the external global clock
/// `T` of Section 4.4 (no process reads it; only the harness does).
pub type Time = u64;
