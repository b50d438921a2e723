//! # ARES — Adaptive, Reconfigurable, Erasure-coded atomic Storage
//!
//! A from-scratch reproduction of *"ARES: Adaptive, Reconfigurable,
//! Erasure coded, atomic Storage"* (Cadambe, Nicolaou, Konwar, Prakash,
//! Lynch, Médard — ICDCS 2019 / arXiv:1805.03727): a multi-writer
//! multi-reader atomic register whose server set can be reconfigured
//! while the service stays available, with each configuration free to
//! run its own atomic-memory algorithm (ABD, TREAS, or LDR) expressed
//! through the data-access primitives of `ares-dap`.
//!
//! The crate provides:
//!
//! * [`ServerActor`] — the unified server process: DAP storage per
//!   configuration, Paxos acceptor (`c.Con`), the `nextC` pointer of the
//!   configuration-discovery service (Alg. 6), and the ARES-TREAS
//!   server-to-server state transfer (Alg. 9);
//! * [`ClientActor`] — writers, readers and reconfigurers (Algs. 4, 5
//!   and 7), driven by commands and built from typed sub-protocol
//!   state machines, each owned by its parent;
//! * [`TransferMode`] — plain ARES (the reconfigurer relays data) vs
//!   ARES-TREAS (coded elements flow directly between server sets);
//! * [`cost()`] — the steady-state rounds, messages and bytes of one read
//!   or write, against which the experiment tests check the protocol;
//! * the unified wire [`Msg`] type tying the sub-protocols together.
//!
//! Everything runs inside the deterministic simulator of `ares-sim`,
//! which realizes the asynchronous reliable-channel model of the paper.
//!
//! # Examples
//!
//! ```
//! use ares_core::{ClientActor, ClientConfig, ClientCmd, Invoke, Msg, ServerActor};
//! use ares_sim::{NetworkConfig, World};
//! use ares_types::{
//!     ConfigId, ConfigRegistry, Configuration, ObjectId, ProcessId, SessionId, Value,
//! };
//!
//! // A 5-server TREAS [5,3] genesis configuration.
//! let registry = ConfigRegistry::from_configs([Configuration::treas(
//!     ConfigId(0),
//!     (1..=5).map(ProcessId).collect(),
//!     3,
//!     2,
//! )]);
//! let mut world = World::new(NetworkConfig::uniform(10, 50), 7);
//! for s in 1..=5 {
//!     world.add_actor(ProcessId(s), ServerActor::new(ProcessId(s), registry.clone()));
//! }
//! world.add_actor(
//!     ProcessId(100),
//!     ClientActor::new(registry.clone(), ClientConfig::new(ConfigId(0))),
//! );
//! world.post(0, ProcessId(0), ProcessId(100), Msg::Invoke(Invoke {
//!     session: SessionId(0),
//!     seq: 0,
//!     cmd: ClientCmd::Write { obj: ObjectId(0), value: Value::from_static(b"hello ares") },
//! }));
//! world.run();
//! assert_eq!(world.completions().len(), 1);
//! ```

mod client;
mod cost;
mod frames;
mod msg;
pub mod repair;
mod server;
pub mod shard;
pub mod store;

pub use client::{ClientActor, ClientConfig};
pub use cost::{cost, OpCost};
pub use frames::TransferMode;
pub use msg::{CfgMsg, ClientCmd, Invoke, Msg, XferMsg, ENV};
pub use repair::RepairMsg;
pub use server::{AcceptorSnap, NextCSnap, ServerActor, ServerSnapshot};
pub use store::{OpError, OpTicket, Store, StoreSession};

#[cfg(test)]
mod tests {
    use super::*;
    use ares_sim::{FaultAction, FaultSchedule, NetworkConfig, RunOutcome, World};
    use ares_types::{ConfigId, ConfigRegistry, Configuration, ObjectId, OpKind, ProcessId, Value};
    use std::sync::Arc;

    fn ids(range: std::ops::RangeInclusive<u32>) -> Vec<ProcessId> {
        range.map(ProcessId).collect()
    }

    /// Universe: c0 = ABD on servers 1-3, c1 = TREAS[5,3] on 4-8,
    /// c2 = TREAS[5,4] on 6-10, c3 = LDR(f=1) on 1-5.
    fn registry() -> Arc<ConfigRegistry> {
        ConfigRegistry::from_configs([
            Configuration::abd(ConfigId(0), ids(1..=3)),
            Configuration::treas(ConfigId(1), ids(4..=8), 3, 2),
            Configuration::treas(ConfigId(2), ids(6..=10), 4, 2),
            Configuration::ldr(ConfigId(3), ids(1..=5), 1),
        ])
    }

    fn world_with(
        registry: &Arc<ConfigRegistry>,
        n_servers: u32,
        clients: &[(u32, ClientConfig)],
        seed: u64,
    ) -> World<Msg> {
        let mut w = World::new(NetworkConfig::uniform(10, 50), seed);
        for s in 1..=n_servers {
            w.add_actor(ProcessId(s), ServerActor::new(ProcessId(s), registry.clone()));
        }
        for (pid, cfg) in clients {
            w.add_actor(ProcessId(*pid), ClientActor::new(registry.clone(), cfg.clone()));
        }
        w
    }

    /// Invocation `n` of `session` (its `OpId::seq` is pre-assigned, as
    /// the store frontends do).
    fn invoke(session: u32, n: u64, cmd: ClientCmd) -> Msg {
        let sid = ares_types::SessionId(session);
        Msg::Invoke(Invoke { session: sid, seq: store::session_op_seq(sid, n), cmd })
    }

    // The single-session helpers: command `n` of the target client's
    // session 0.
    fn write(n: u64, obj: u32, v: Value) -> Msg {
        invoke(0, n, ClientCmd::Write { obj: ObjectId(obj), value: v })
    }
    fn read(n: u64, obj: u32) -> Msg {
        invoke(0, n, ClientCmd::Read { obj: ObjectId(obj) })
    }
    fn recon(n: u64, c: u32) -> Msg {
        invoke(0, n, ClientCmd::Recon { target: ConfigId(c) })
    }

    #[test]
    fn write_then_read_single_config() {
        let reg = registry();
        let mut w = world_with(&reg, 10, &[(100, ClientConfig::new(ConfigId(0)))], 1);
        let v = Value::filler(64, 42);
        w.post(0, ENV, ProcessId(100), write(0, 0, v.clone()));
        w.post(1, ENV, ProcessId(100), read(1, 0));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].kind, OpKind::Write);
        assert_eq!(done[1].kind, OpKind::Read);
        assert_eq!(done[1].tag, done[0].tag);
        assert_eq!(done[1].value_digest, Some(v.digest()));
    }

    #[test]
    fn reconfig_abd_to_treas_preserves_value() {
        let reg = registry();
        let clients =
            [(100, ClientConfig::new(ConfigId(0))), (200, ClientConfig::new(ConfigId(0)))];
        let mut w = world_with(&reg, 10, &clients, 2);
        let v = Value::filler(120, 9);
        w.post(0, ENV, ProcessId(100), write(0, 0, v.clone()));
        w.post(2000, ENV, ProcessId(200), recon(0, 1)); // ABD -> TREAS
        w.post(8000, ENV, ProcessId(100), read(1, 0));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 3, "write, recon, read all complete");
        let rec = done.iter().find(|c| c.kind == OpKind::Recon).unwrap();
        assert_eq!(rec.installed, Some(ConfigId(1)));
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        assert_eq!(read.value_digest, Some(v.digest()), "value survives migration");
    }

    #[test]
    fn chain_of_reconfigs_with_concurrent_rw() {
        let reg = registry();
        let clients = [
            (100, ClientConfig::new(ConfigId(0))),
            (101, ClientConfig::new(ConfigId(0))),
            (200, ClientConfig::new(ConfigId(0))),
        ];
        let mut w = world_with(&reg, 10, &clients, 3);
        // Interleave writes/reads with a chain c0 -> c1 -> c2 -> c3.
        for i in 0..6u64 {
            w.post(i * 400, ENV, ProcessId(100), write(i, 0, Value::filler(40, i)));
            w.post(i * 400 + 100, ENV, ProcessId(101), read(i, 0));
        }
        w.post(100, ENV, ProcessId(200), recon(0, 1));
        w.post(150, ENV, ProcessId(200), recon(1, 2));
        w.post(200, ENV, ProcessId(200), recon(2, 3));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 15, "6 writes + 6 reads + 3 recons");
        // The reconfigurer walked the whole chain.
        let installed: Vec<_> = done.iter().filter_map(|c| c.installed).collect();
        assert_eq!(installed, vec![ConfigId(1), ConfigId(2), ConfigId(3)]);
    }

    #[test]
    fn concurrent_reconfigurers_agree_on_sequence() {
        let reg = registry();
        let clients =
            [(200, ClientConfig::new(ConfigId(0))), (201, ClientConfig::new(ConfigId(0)))];
        let mut w = world_with(&reg, 10, &clients, 4);
        // Both propose different configurations at the same time:
        // consensus must order them into a single chain.
        w.post(0, ENV, ProcessId(200), recon(0, 1));
        w.post(0, ENV, ProcessId(201), recon(0, 2));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 2);
        let installed: Vec<_> = done.iter().filter_map(|c| c.installed).collect();
        // Per Alg. 5, a reconfigurer whose proposal loses consensus
        // *adopts* the decision ("entirely ignoring c"), so both may
        // report the same installed configuration; what matters is that
        // both complete and report decisions from the proposed set.
        assert_eq!(installed.len(), 2);
        for c in &installed {
            assert!([ConfigId(1), ConfigId(2)].contains(c));
        }
    }

    #[test]
    fn direct_transfer_mode_migrates_without_client_conduit() {
        let reg = registry();
        let clients = [
            (100, ClientConfig::new(ConfigId(0))),
            (200, ClientConfig::new(ConfigId(0)).with_direct_transfer()),
        ];
        let mut w = world_with(&reg, 10, &clients, 5);
        let v = Value::filler(90, 17);
        w.post(0, ENV, ProcessId(100), write(0, 0, v.clone()));
        w.post(2000, ENV, ProcessId(200), recon(0, 1)); // ABD -> TREAS, direct
        w.post(9000, ENV, ProcessId(100), read(1, 0));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 3);
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        assert_eq!(read.value_digest, Some(v.digest()));
        // The reconfig op itself must not have carried the object bytes:
        // its payload is only tags + the forwarded fragments server-to-
        // server... which are charged to the op. What the *client link*
        // carried is 0 for direct mode; here we simply check the recon
        // completed and data is intact (detailed byte accounting is
        // exercised in the bench harness).
        let rec = done.iter().find(|c| c.kind == OpKind::Recon).unwrap();
        assert_eq!(rec.installed, Some(ConfigId(1)));
    }

    #[test]
    fn treas_to_treas_direct_transfer_re_encodes() {
        // c1 = TREAS[5,3] on 4..8; c2 = TREAS[5,4] on 6..10 (different k!)
        let reg = registry();
        let clients = [
            (100, ClientConfig::new(ConfigId(0))),
            (200, ClientConfig::new(ConfigId(0)).with_direct_transfer()),
        ];
        let mut w = world_with(&reg, 10, &clients, 6);
        let v = Value::filler(200, 3);
        w.post(0, ENV, ProcessId(200), recon(0, 1));
        w.post(4000, ENV, ProcessId(100), write(0, 0, v.clone()));
        w.post(8000, ENV, ProcessId(200), recon(1, 2));
        w.post(16000, ENV, ProcessId(100), read(1, 0));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 4);
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        assert_eq!(
            read.value_digest,
            Some(v.digest()),
            "value re-encoded from [5,3] to [5,4] survives"
        );
    }

    #[test]
    fn read_write_survive_server_crashes_within_bounds() {
        let reg = registry();
        let mut w = world_with(&reg, 10, &[(100, ClientConfig::new(ConfigId(0)))], 7);
        // c0 is ABD over 3 servers: tolerate 1 crash.
        w.install_faults(&FaultSchedule::new().at(0, FaultAction::Crash { pid: ProcessId(3) }));
        let v = Value::filler(32, 1);
        w.post(1, ENV, ProcessId(100), write(0, 0, v.clone()));
        w.post(2, ENV, ProcessId(100), read(1, 0));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        assert_eq!(w.completions().len(), 2);
    }

    #[test]
    fn multiple_objects_are_independent() {
        let reg = registry();
        let mut w = world_with(&reg, 10, &[(100, ClientConfig::new(ConfigId(0)))], 8);
        let va = Value::filler(16, 100);
        let vb = Value::filler(16, 200);
        w.post(0, ENV, ProcessId(100), write(0, 1, va.clone()));
        w.post(1, ENV, ProcessId(100), write(1, 2, vb.clone()));
        w.post(2, ENV, ProcessId(100), read(2, 1));
        w.post(3, ENV, ProcessId(100), read(3, 2));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 4);
        assert_eq!(done[2].value_digest, Some(va.digest()));
        assert_eq!(done[3].value_digest, Some(vb.digest()));
    }

    #[test]
    fn sessions_of_one_actor_run_concurrently() {
        let reg = registry();
        let mut w = world_with(&reg, 10, &[(100, ClientConfig::new(ConfigId(0)))], 11);
        // Two sessions, one multiplexing actor: both writes are injected
        // at t=0 and must overlap in simulated time (the serial seed
        // queue could never produce overlapping ops on one client).
        let va = Value::filler(64, 1);
        let vb = Value::filler(64, 2);
        w.post(
            0,
            ENV,
            ProcessId(100),
            invoke(1, 0, ClientCmd::Write { obj: ObjectId(0), value: va }),
        );
        w.post(
            0,
            ENV,
            ProcessId(100),
            invoke(2, 0, ClientCmd::Write { obj: ObjectId(0), value: vb }),
        );
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 2);
        let overlap =
            done[0].invoked_at < done[1].completed_at && done[1].invoked_at < done[0].completed_at;
        assert!(overlap, "sessions pipeline through one actor: {done:?}");
        // Concurrent writes from distinct sessions mint distinct tags
        // (each session writes under its own logical writer id).
        assert_ne!(done[0].tag, done[1].tag, "session writer ids keep tags unique");
    }

    #[test]
    fn one_session_stays_serial_under_pipelined_submission() {
        let reg = registry();
        let mut w = world_with(&reg, 10, &[(100, ClientConfig::new(ConfigId(0)))], 12);
        // Three commands queued up-front on ONE session: execution must
        // be serial (well-formedness) and in submission order.
        for n in 0..3u64 {
            let v = Value::filler(32, 10 + n);
            w.post(
                0,
                ENV,
                ProcessId(100),
                invoke(1, n, ClientCmd::Write { obj: ObjectId(0), value: v }),
            );
        }
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 3);
        for pair in done.windows(2) {
            assert!(pair[0].op.seq < pair[1].op.seq, "submission order preserved");
            assert!(
                pair[0].completed_at <= pair[1].invoked_at,
                "per-session ops must not overlap: {pair:?}"
            );
        }
    }

    #[test]
    fn concurrent_session_reconfigs_and_writes_converge() {
        let reg = registry();
        let mut w = world_with(&reg, 10, &[(100, ClientConfig::new(ConfigId(0)))], 13);
        let v = Value::filler(48, 7);
        // One actor: session 1 writes, session 2 reconfigures, session 3
        // reads — all concurrently (three logical clients of the paper).
        w.post(
            0,
            ENV,
            ProcessId(100),
            invoke(1, 0, ClientCmd::Write { obj: ObjectId(0), value: v.clone() }),
        );
        w.post(0, ENV, ProcessId(100), invoke(2, 0, ClientCmd::Recon { target: ConfigId(1) }));
        w.post(4000, ENV, ProcessId(100), invoke(3, 0, ClientCmd::Read { obj: ObjectId(0) }));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        let done = w.completions();
        assert_eq!(done.len(), 3);
        let rec = done.iter().find(|c| c.kind == OpKind::Recon).unwrap();
        assert_eq!(rec.installed, Some(ConfigId(1)));
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        assert_eq!(read.value_digest, Some(v.digest()), "value survives the migration");
    }

    #[test]
    fn deterministic_execution_given_seed() {
        let run = |seed: u64| {
            let reg = registry();
            let mut w = world_with(&reg, 10, &[(100, ClientConfig::new(ConfigId(0)))], seed);
            w.post(0, ENV, ProcessId(100), write(0, 0, Value::filler(24, 5)));
            w.post(1, ENV, ProcessId(100), read(1, 0));
            w.run();
            (w.now(), w.metrics().messages_sent)
        };
        assert_eq!(run(42), run(42));
    }
}
