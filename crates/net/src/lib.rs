//! # `ares-net` — a real TCP runtime for the ARES reproduction
//!
//! Everything else in this workspace runs the ARES protocol inside the
//! deterministic simulator (`ares-sim`). This crate deploys the *same*
//! actors — `ares_core::ServerActor` and `ares_core::ClientActor`,
//! untouched — on real sockets:
//!
//! * [`codec`] — a hand-rolled, length-prefixed, versioned binary wire
//!   encoding for the whole `ares_core::Msg` tree, with strict
//!   bounds-checked decoding of untrusted input ([`codec::WireEncode`] /
//!   [`codec::WireDecode`]);
//! * [`ShardedNode`] — a server node hosted on
//!   `S ≥ 1` event-loop shards: per-connection reader threads route
//!   each decoded frame to the shard owning its object (config-wide
//!   traffic serializes on shard 0 — see `ares_core::shard`), per-shard
//!   deadline timer threads deliver `timer_after` wakeups, and outbound
//!   sends go through a reconnecting connection pool whose writers
//!   drain in adaptively-batched writes (one flush per drained batch);
//! * [`wal`] — durability glue to `ares-wal`: per-shard write-ahead
//!   journaling of applied events, periodic checkpoints, and
//!   replay-then-delta-repair crash recovery for [`ShardedNode`]
//!   (opt in per cluster with `testing::ClusterBuilder::durable`);
//! * [`NetStore`] — the client side: one runtime hosting many logical
//!   [`NetSession`]s whose ticketed read / write / reconfig operations
//!   return the same [`ares_types::OpCompletion`] records the harness
//!   checkers consume;
//! * [`testing::LocalCluster`] — boots an n-node cluster on ephemeral
//!   loopback ports in-process, with node kill/restart, for integration
//!   tests and benches;
//! * [`ClusterFault`] / [`FaultScript`] — scriptable live-cluster fault
//!   injection mirroring the simulator's adversarial plane: symmetric
//!   and asymmetric (one-way) partitions, gray (slow-but-alive) nodes,
//!   kill/restart — applied mid-run via `LocalCluster::apply_fault` and
//!   `LocalCluster::run_script`.
//!
//! The sim-vs-net equivalence argument is simple and structural: every
//! protocol engine is a pure state machine emitting
//! `Step { sends, timer_after, output }`, the actors interact with their
//! host only through `ares_sim::Ctx`, and this crate replays the drained
//! [`ares_sim::HostEffect`]s onto sockets and OS timers. No protocol
//! logic is duplicated, so every execution of the TCP runtime is an
//! execution the simulator could have produced (an asynchronous network
//! with crash faults) — the safety arguments carry over unchanged.
//!
//! # Examples
//!
//! A live single-configuration deployment on loopback:
//!
//! ```
//! use ares_core::store::{OpTicket, Store, StoreSession};
//! use ares_net::testing::LocalCluster;
//! use ares_types::{ConfigId, Configuration, ObjectId, ProcessId, Value};
//!
//! let c0 = Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2);
//! let cluster = LocalCluster::start(vec![c0], [100, 101]).unwrap();
//! let mut writer = cluster.store(100).open_session();
//! let mut reader = cluster.store(101).open_session();
//! let value = Value::from_static(b"over real tcp");
//! let w = writer.write(ObjectId(0), value).unwrap().wait().unwrap();
//! let r = reader.read(ObjectId(0)).unwrap().wait().unwrap();
//! assert_eq!(r.tag, w.tag);
//! cluster.shutdown();
//! ```

pub mod codec;
mod faults;
mod host;
mod runtime;
mod sync;
pub mod testing;
pub mod wal;

pub use codec::{DecodeError, WireDecode, WireEncode, MAX_FRAME_LEN, WIRE_VERSION};
pub use faults::{ClusterFault, FaultScript};
pub use host::{NodeStats, PeerOutboundStats, ShardStats};
pub use runtime::{
    AddrBook, NetSession, NetStore, NetTicket, ShardedNode, DEFAULT_OP_TIMEOUT, ENV,
};
pub use wal::{FsyncPolicy, RecoveryReport, WalConfig, WalStats};
