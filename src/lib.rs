//! # `ares` — facade crate for the ARES reproduction workspace
//!
//! Re-exports every sub-crate of the workspace under one roof so that
//! downstream users (and the repo-level integration tests and examples)
//! can depend on a single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `ares-types` | tags, values, quorums, configurations, `cseq` |
//! | [`codes`] | `ares-codes` | GF(256), Reed-Solomon `[n, k]` MDS codes, replication |
//! | [`sim`] | `ares-sim` | deterministic discrete-event simulator |
//! | [`consensus`] | `ares-consensus` | single-decree Paxos (`c.Con`) |
//! | [`dap`] | `ares-dap` | get-tag / get-data / put-data; ABD, TREAS, LDR |
//! | [`core`] | `ares-core` | the ARES client/server actors and reconfiguration |
//! | [`net`] | `ares-net` | real TCP runtime: wire codec, node/client hosts, loopback clusters |
//! | [`harness`] | `ares-harness` | scenarios, workloads, atomicity checkers |
//!
//! See `README.md` for a map of the workspace and `DESIGN.md` for how the
//! crates fit the paper's structure.

pub use ares_codes as codes;
pub use ares_consensus as consensus;
pub use ares_core as core;
pub use ares_dap as dap;
pub use ares_harness as harness;
pub use ares_net as net;
pub use ares_sim as sim;
pub use ares_types as types;

// Convenience re-exports of the entry points most users start from.
pub use ares_core::{ClientActor, ClientCmd, ClientConfig, Msg, ServerActor};
pub use ares_core::{OpError, OpTicket, Store, StoreSession};
pub use ares_harness::{check_atomicity, standard_universe, Scenario, SimStore};
pub use ares_net::NetStore;
pub use ares_types::{ConfigId, Configuration, ProcessId, SessionId, Tag, Value};
