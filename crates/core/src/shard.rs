//! Shard routing for a multi-core server host.
//!
//! The paper's server is a sequential process, and every piece of
//! mutable [`crate::ServerActor`] state is keyed accordingly:
//!
//! * **object-scoped** — DAP storage, the ARES-TREAS transfer `D`/
//!   `Recons` sets and in-flight repairs are all keyed by
//!   `(ConfigId, ObjectId, …)`, and no handler of an object-scoped
//!   message ever reads state of another object;
//! * **config-wide** — the Paxos acceptors (`c.Con`) and the `nextC`
//!   successor pointers (Alg. 6) are keyed by `ConfigId` alone, and are
//!   only ever touched by consensus / configuration-service messages.
//!
//! That partition is what makes a node hostable on many cores without
//! changing the protocol: a host may run `S` independent copies of the
//! server state machine — one per shard, each a sequential process —
//! and route every message by this module's classification. Traffic for
//! one object always lands on one shard (so per-object execution is
//! exactly the paper's single-process server), and all config-wide
//! traffic serializes on **shard 0** (so quorum membership, ballot
//! ordering and the `nextC` chain behave exactly as on a one-core
//! node). The immutable [`ares_types::ConfigRegistry`] is shared by all
//! shards; there is no mutable state that both classes touch, which is
//! the whole argument — see `DESIGN.md` §9.

use crate::msg::Msg;
use ares_types::ObjectId;

/// Where a message must execute on a sharded server host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRoute {
    /// Object-scoped: must run on the shard owning this object.
    Object(ObjectId),
    /// Config-wide: must serialize on shard 0.
    ConfigWide,
}

/// Classifies `msg` for shard dispatch (see the module docs for why
/// this classification is sound). The client-command envelope names an
/// object but classifies as config-wide: it is only ever injected into
/// *client* hosts, which are single-sharded, and keeping it on shard 0
/// preserves the session lanes' serial order.
#[deny(clippy::wildcard_enum_match_arm)]
pub fn route(msg: &Msg) -> ShardRoute {
    match msg {
        Msg::Dap(_) | Msg::Con(_) | Msg::Cfg(_) | Msg::Xfer(_) | Msg::Repair(_) => {
            msg.object().map_or(ShardRoute::ConfigWide, ShardRoute::Object)
        }
        Msg::Invoke(_) => ShardRoute::ConfigWide,
    }
}

/// The shard owning `obj` on a host running `shards` shards: a
/// Fibonacci-multiplicative mix of the id, so both sequential and
/// strided object-id patterns spread evenly.
pub fn object_shard(obj: ObjectId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mixed = (obj.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (mixed as usize) % shards
}

/// The shard index `msg` dispatches to on a host with `shards` shards
/// ([`route`] composed with [`object_shard`]; config-wide ⇒ 0).
pub fn shard_of(msg: &Msg, shards: usize) -> usize {
    match route(msg) {
        ShardRoute::Object(obj) => object_shard(obj, shards),
        ShardRoute::ConfigWide => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CfgMsg, ClientCmd, Invoke, RepairMsg, XferMsg};
    use ares_consensus::{Ballot, ConMsg};
    use ares_dap::{DapBody, DapMsg, Hdr};
    use ares_types::{ConfigId, OpId, ProcessId, RpcId, SessionId, Tag};

    fn op() -> OpId {
        OpId { client: ProcessId(9), seq: 0 }
    }

    #[test]
    fn object_traffic_routes_by_object_config_traffic_to_zero() {
        let dap = Msg::Dap(DapMsg::new(
            Hdr { cfg: ConfigId(0), obj: ObjectId(7), rpc: RpcId(1), op: op() },
            DapBody::AbdQueryTag,
        ));
        assert_eq!(route(&dap), ShardRoute::Object(ObjectId(7)));
        let xfer = Msg::Xfer(XferMsg::XferAck {
            dst: ConfigId(1),
            obj: ObjectId(3),
            tag: Tag::new(1, ProcessId(2)),
            rpc: RpcId(1),
            op: op(),
        });
        assert_eq!(route(&xfer), ShardRoute::Object(ObjectId(3)));
        let repair = Msg::Repair(RepairMsg::Trigger { cfg: ConfigId(0), obj: ObjectId(5) });
        assert_eq!(route(&repair), ShardRoute::Object(ObjectId(5)));
        let con = Msg::Con(ConMsg::Prepare {
            inst: ConfigId(0),
            rpc: RpcId(1),
            ballot: Ballot::initial(ProcessId(9)),
            op: op(),
        });
        assert_eq!(route(&con), ShardRoute::ConfigWide);
        assert_eq!(shard_of(&con, 8), 0);
        let cfg = Msg::Cfg(CfgMsg::ReadConfig { base: ConfigId(0), rpc: RpcId(1), op: op() });
        assert_eq!(shard_of(&cfg, 8), 0);
        let cmd = Msg::Invoke(Invoke {
            session: SessionId(0),
            seq: 0,
            cmd: ClientCmd::Read { obj: ObjectId(9) },
        });
        assert_eq!(shard_of(&cmd, 8), 0, "client commands keep their serial lane");
    }

    #[test]
    fn same_object_always_same_shard_and_in_range() {
        for shards in [1usize, 2, 3, 4, 7, 16] {
            for id in 0..256u32 {
                let s = object_shard(ObjectId(id), shards);
                assert!(s < shards);
                assert_eq!(s, object_shard(ObjectId(id), shards), "stable");
            }
        }
    }

    #[test]
    fn sequential_object_ids_spread_over_all_shards() {
        for shards in [2usize, 4, 8] {
            let mut hit = vec![0usize; shards];
            for id in 0..64u32 {
                hit[object_shard(ObjectId(id), shards)] += 1;
            }
            for (s, &n) in hit.iter().enumerate() {
                assert!(n > 0, "shard {s} of {shards} never hit by 64 sequential ids");
            }
        }
    }
}
