//! The unified wire-message type of an ARES deployment.
//!
//! One simulated network carries four protocol families — DAP traffic
//! (reads/writes inside a configuration), consensus (`c.Con`), the
//! configuration-discovery service (`READ-CONFIG` / `WRITE-CONFIG` of
//! Alg. 6), and the ARES-TREAS state-transfer messages of Alg. 9 — plus
//! the environment's envelope that invokes client operations.

use crate::repair::RepairMsg;
use ares_codes::Fragment;
use ares_consensus::ConMsg;
use ares_dap::DapMsg;
use ares_sim::SimMessage;
use ares_types::{ConfigEntry, ConfigId, ObjectId, OpId, ProcessId, RpcId, SessionId, Tag, Value};

/// Configuration-service messages (Alg. 4 / Alg. 6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CfgMsg {
    /// `READ-CONFIG`: ask a server of configuration `base` for its
    /// `nextC` pointer.
    ReadConfig {
        /// The configuration whose successor pointer is read.
        base: ConfigId,
        /// Phase id.
        rpc: RpcId,
        /// Operation attribution.
        op: OpId,
    },
    /// Reply to `ReadConfig`: the server's `nextC` (or `⊥`).
    NextC {
        /// The configuration whose pointer this is.
        base: ConfigId,
        /// Echoed phase id.
        rpc: RpcId,
        /// The successor entry, `None` for `⊥`.
        next: Option<ConfigEntry>,
        /// Operation attribution.
        op: OpId,
    },
    /// `WRITE-CONFIG`: install `entry` as the successor of `base`.
    WriteConfig {
        /// The configuration whose pointer is written.
        base: ConfigId,
        /// The successor entry `⟨cfg, status⟩`.
        entry: ConfigEntry,
        /// Phase id.
        rpc: RpcId,
        /// Operation attribution.
        op: OpId,
    },
    /// Ack of `WriteConfig`.
    CfgAck {
        /// The configuration whose pointer was written.
        base: ConfigId,
        /// Echoed phase id.
        rpc: RpcId,
        /// Operation attribution.
        op: OpId,
    },
}

impl CfgMsg {
    /// Operation attribution.
    pub fn op(&self) -> OpId {
        match self {
            CfgMsg::ReadConfig { op, .. }
            | CfgMsg::NextC { op, .. }
            | CfgMsg::WriteConfig { op, .. }
            | CfgMsg::CfgAck { op, .. } => *op,
        }
    }
}

/// ARES-TREAS direct state-transfer messages (Section 5, Algs. 8–9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XferMsg {
    /// `REQ-FW-CODE-ELEM` delivered to the servers of the source
    /// configuration via the `md-primitive` (modelled as an atomic
    /// broadcast: the reconfigurer emits all copies in one step, so
    /// either every live source server receives it or — if the client
    /// crashed before that step — none does).
    ReqFwd {
        /// The tag whose coded elements must be forwarded.
        tag: Tag,
        /// Source configuration `C`.
        src: ConfigId,
        /// Destination configuration `C'`.
        dst: ConfigId,
        /// The object.
        obj: ObjectId,
        /// The reconfiguration client to ack.
        rc: ProcessId,
        /// Phase id (for the reconfigurer's ack collection).
        rpc: RpcId,
        /// Operation attribution.
        op: OpId,
    },
    /// `FWD-CODE-ELEM`: a source server forwards its coded element for
    /// `tag` to a destination server.
    FwdElem {
        /// The tag.
        tag: Tag,
        /// The forwarded coded element (under the *source* code).
        frag: Fragment,
        /// Source configuration (defines the decoder).
        src: ConfigId,
        /// Destination configuration (defines the re-encoder).
        dst: ConfigId,
        /// The object.
        obj: ObjectId,
        /// The reconfiguration client to ack.
        rc: ProcessId,
        /// Phase id.
        rpc: RpcId,
        /// Operation attribution.
        op: OpId,
    },
    /// Destination-server ack to the reconfiguration client, sent once
    /// the tag is in its `List`.
    XferAck {
        /// Destination configuration.
        dst: ConfigId,
        /// The object.
        obj: ObjectId,
        /// The tag that is now locally stored.
        tag: Tag,
        /// Echoed phase id.
        rpc: RpcId,
        /// Operation attribution.
        op: OpId,
    },
}

impl XferMsg {
    /// Operation attribution.
    pub fn op(&self) -> OpId {
        match self {
            XferMsg::ReqFwd { op, .. }
            | XferMsg::FwdElem { op, .. }
            | XferMsg::XferAck { op, .. } => *op,
        }
    }
}

/// Client operations the environment can invoke (carried by
/// [`Invoke`], not part of the protocol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientCmd {
    /// Invoke `write(value)` on `obj`.
    Write {
        /// Target object.
        obj: ObjectId,
        /// Value to write.
        value: Value,
    },
    /// Invoke `read()` on `obj`.
    Read {
        /// Target object.
        obj: ObjectId,
    },
    /// Invoke `reconfig(target)`.
    Recon {
        /// The configuration id to propose.
        target: ConfigId,
    },
}

/// A session-attributed client invocation (the command envelope of the
/// store frontends and of scheduled scenarios; injected by the
/// environment, never protocol traffic).
///
/// `seq` is the full [`OpId::seq`] value chosen by the submitting store
/// (see `crate::store::session_op_seq`), so the ticket that routes the
/// eventual completion knows its `OpId` at submission time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Invoke {
    /// The logical session this invocation belongs to.
    pub session: SessionId,
    /// The operation's `OpId::seq`, pre-assigned by the submitter.
    pub seq: u64,
    /// The command.
    pub cmd: ClientCmd,
}

/// The environment pseudo-process: the `from` of every [`Invoke`] and
/// every other event the environment injects (repair triggers,
/// scheduled commands), never a real host.
pub const ENV: ProcessId = ProcessId(0);

/// The unified message type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// DAP traffic.
    Dap(DapMsg),
    /// Consensus traffic.
    Con(ConMsg),
    /// Configuration-service traffic.
    Cfg(CfgMsg),
    /// State-transfer traffic.
    Xfer(XferMsg),
    /// Fragment-repair traffic (this reproduction's future-work
    /// extension; see `crate::repair`).
    Repair(RepairMsg),
    /// Session-attributed client invocation.
    Invoke(Invoke),
}

// Each per-variant fact is one match naming every variant — in place for
// the families this file declares, by the family's own method for those
// declared elsewhere — so a new variant does not compile until it is
// classified, and clippy refuses the `_` arm that would absorb it.
#[deny(clippy::wildcard_enum_match_arm)]
impl Msg {
    /// Whether a frame carrying this message may be accepted from a
    /// network peer.
    ///
    /// Protocol families (DAP, consensus, configuration service, state
    /// transfer, repair) are network traffic; the command envelope
    /// ([`Msg::Invoke`]) is environment-injected only — accepting it
    /// from the wire would let any peer invoke client operations. This
    /// is the single network-admission surface.
    pub fn network_admissible(&self) -> bool {
        match self {
            Msg::Dap(_) | Msg::Con(_) | Msg::Cfg(_) | Msg::Xfer(_) | Msg::Repair(_) => true,
            Msg::Invoke(_) => false,
        }
    }

    /// Whether a delivered message mutates durable server state and
    /// must therefore be journaled to the shard's write-ahead log
    /// *before* the handler runs.
    ///
    /// Journaled: the mutating requests — DAP puts and the
    /// acceptor-bound consensus messages (named, with the reasons, by
    /// `DapBody::journaled` and `ConMsg::journaled`), `WriteConfig`
    /// installs of `nextC` pointers, and `FwdElem` state-transfer
    /// elements.
    ///
    /// Not journaled: queries and replies (they mutate nothing),
    /// repair traffic (recovery re-derives it — the delta-repair pass
    /// after replay re-fetches anything a lost `Lists` merge would
    /// have contributed), and the client-only command envelope.
    pub fn journaled(&self) -> bool {
        match self {
            Msg::Dap(m) => m.body.journaled(),
            Msg::Con(m) => m.journaled(),
            Msg::Cfg(CfgMsg::WriteConfig { .. }) | Msg::Xfer(XferMsg::FwdElem { .. }) => true,
            Msg::Cfg(CfgMsg::ReadConfig { .. } | CfgMsg::NextC { .. } | CfgMsg::CfgAck { .. })
            | Msg::Xfer(XferMsg::ReqFwd { .. } | XferMsg::XferAck { .. })
            | Msg::Repair(_)
            | Msg::Invoke(_) => false,
        }
    }

    /// Whether a shard whose write-ahead log has failed must refuse
    /// this message — drop it unapplied and unanswered — rather than
    /// acknowledge it from memory.
    ///
    /// Refused: the acceptor-bound consensus messages (`Prepare`,
    /// `Accept`, `Decide`) and `WriteConfig`. They set acceptor records
    /// and `nextC` pointers, state that only the log carries across a
    /// restart: repair rebuilds neither, and an acceptor that forgets a
    /// promise it gave lets consensus decide twice.
    ///
    /// Served: everything else. DAP puts and forwarded elements merge
    /// into lists that repair restores from a quorum; the rest mutate
    /// nothing durable.
    pub fn needs_log(&self) -> bool {
        match self {
            Msg::Con(ConMsg::Prepare { .. } | ConMsg::Accept { .. } | ConMsg::Decide { .. })
            | Msg::Cfg(CfgMsg::WriteConfig { .. }) => true,
            Msg::Con(
                ConMsg::Promise { .. }
                | ConMsg::NackPrepare { .. }
                | ConMsg::Accepted { .. }
                | ConMsg::NackAccept { .. },
            )
            | Msg::Cfg(CfgMsg::ReadConfig { .. } | CfgMsg::NextC { .. } | CfgMsg::CfgAck { .. })
            | Msg::Dap(_)
            | Msg::Xfer(_)
            | Msg::Repair(_)
            | Msg::Invoke(_) => false,
        }
    }

    /// The object id this message names, if any (`None` for consensus
    /// and configuration-service traffic, which is per-configuration).
    /// A listener with a declared object universe drops traffic for
    /// fabricated objects by it, and [`crate::shard::route`] hashes it.
    pub fn object(&self) -> Option<ObjectId> {
        match self {
            Msg::Dap(m) => Some(m.hdr.obj),
            Msg::Con(_) | Msg::Cfg(_) => None,
            Msg::Xfer(
                XferMsg::ReqFwd { obj, .. }
                | XferMsg::FwdElem { obj, .. }
                | XferMsg::XferAck { obj, .. },
            ) => Some(*obj),
            Msg::Repair(m) => Some(m.object()),
            Msg::Invoke(inv) => match &inv.cmd {
                ClientCmd::Write { obj, .. } | ClientCmd::Read { obj } => Some(*obj),
                ClientCmd::Recon { .. } => None,
            },
        }
    }

    /// Every configuration id this message names (at most three, the
    /// primary one first), without allocating. Network-facing dispatch
    /// checks each against [`ares_types::ConfigRegistry::try_get`] to
    /// drop messages naming unregistered configurations *before* they
    /// reach the protocol state machines, whose internal lookups treat
    /// unknown ids as bugs and panic.
    pub fn configs(&self) -> impl Iterator<Item = ConfigId> {
        let ids = match self {
            Msg::Dap(m) => {
                let next =
                    if let ares_dap::DapBody::Retired(e) = &m.body { Some(e.cfg) } else { None };
                [Some(m.hdr.cfg), next, None]
            }
            Msg::Con(m) => m.configs(),
            Msg::Cfg(m) => match m {
                CfgMsg::ReadConfig { base, .. } | CfgMsg::CfgAck { base, .. } => {
                    [Some(*base), None, None]
                }
                CfgMsg::NextC { base, next, .. } => [Some(*base), next.map(|e| e.cfg), None],
                CfgMsg::WriteConfig { base, entry, .. } => [Some(*base), Some(entry.cfg), None],
            },
            Msg::Xfer(m) => match m {
                XferMsg::ReqFwd { src, dst, .. } | XferMsg::FwdElem { src, dst, .. } => {
                    [Some(*src), Some(*dst), None]
                }
                XferMsg::XferAck { dst, .. } => [Some(*dst), None, None],
            },
            Msg::Repair(m) => [Some(m.config()), None, None],
            Msg::Invoke(inv) => match &inv.cmd {
                ClientCmd::Recon { target } => [Some(*target), None, None],
                ClientCmd::Write { .. } | ClientCmd::Read { .. } => [None; 3],
            },
        };
        ids.into_iter().flatten()
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
impl SimMessage for Msg {
    fn payload_bytes(&self) -> u64 {
        match self {
            Msg::Dap(m) => m.payload_bytes(),
            Msg::Xfer(XferMsg::FwdElem { frag, .. }) => frag.data.len() as u64,
            Msg::Repair(m) => m.payload_bytes(),
            Msg::Xfer(XferMsg::ReqFwd { .. } | XferMsg::XferAck { .. })
            | Msg::Con(_)
            | Msg::Cfg(_)
            | Msg::Invoke(_) => 0,
        }
    }

    fn op(&self) -> Option<OpId> {
        match self {
            Msg::Dap(m) => m.op(),
            Msg::Con(m) => m.op(),
            Msg::Cfg(m) => Some(m.op()),
            Msg::Xfer(m) => Some(m.op()),
            Msg::Repair(m) => m.op(),
            Msg::Invoke(_) => None,
        }
    }

    fn label(&self) -> String {
        match self {
            Msg::Dap(m) => m.label(),
            Msg::Con(m) => {
                format!("CON.{m:?}").split([' ', '{']).next().unwrap_or("CON").to_string()
            }
            Msg::Cfg(CfgMsg::ReadConfig { base, .. }) => format!("READ-CONFIG[{base}]"),
            Msg::Cfg(CfgMsg::NextC { base, next, .. }) => match next {
                Some(e) => format!("NEXT-C[{base}]={e}"),
                None => format!("NEXT-C[{base}]=⊥"),
            },
            Msg::Cfg(CfgMsg::WriteConfig { base, entry, .. }) => {
                format!("WRITE-CONFIG[{base}]={entry}")
            }
            Msg::Cfg(CfgMsg::CfgAck { base, .. }) => format!("CFG-ACK[{base}]"),
            Msg::Xfer(XferMsg::ReqFwd { tag, src, dst, .. }) => {
                format!("REQ-FW-CODE-ELEM[{src}->{dst}]@{tag}")
            }
            Msg::Xfer(XferMsg::FwdElem { tag, src, dst, .. }) => {
                format!("FWD-CODE-ELEM[{src}->{dst}]@{tag}")
            }
            Msg::Xfer(XferMsg::XferAck { dst, tag, .. }) => format!("XFER-ACK[{dst}]@{tag}"),
            Msg::Repair(RepairMsg::Trigger { cfg, .. }) => format!("REPAIR-TRIGGER[{cfg}]"),
            Msg::Repair(RepairMsg::Query { cfg, .. }) => format!("REPAIR-QUERY[{cfg}]"),
            Msg::Repair(RepairMsg::Lists { cfg, .. }) => format!("REPAIR-LISTS[{cfg}]"),
            Msg::Invoke(inv) => {
                let what = match &inv.cmd {
                    ClientCmd::Write { .. } => "WRITE",
                    ClientCmd::Read { .. } => "READ",
                    ClientCmd::Recon { .. } => "RECON",
                };
                format!("INVOKE-{what}[{}]", inv.session)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn op() -> OpId {
        OpId { client: ProcessId(1), seq: 0 }
    }

    #[test]
    fn payload_bytes_counts_fragments_only() {
        let m = Msg::Xfer(XferMsg::FwdElem {
            tag: Tag::ZERO,
            frag: Fragment { index: 0, value_len: 30, data: Bytes::from(vec![0; 10]) },
            src: ConfigId(0),
            dst: ConfigId(1),
            obj: ObjectId(0),
            rc: ProcessId(9),
            rpc: RpcId(1),
            op: op(),
        });
        assert_eq!(m.payload_bytes(), 10);
        let m = Msg::Cfg(CfgMsg::ReadConfig { base: ConfigId(0), rpc: RpcId(1), op: op() });
        assert_eq!(m.payload_bytes(), 0);
        assert_eq!(m.op(), Some(op()));
    }

    #[test]
    fn referenced_configs_cover_nested_ids() {
        let next = Some(ConfigEntry::pending(ConfigId(9)));
        let m = Msg::Cfg(CfgMsg::NextC { base: ConfigId(1), rpc: RpcId(2), next, op: op() });
        assert_eq!(m.configs().collect::<Vec<_>>(), [ConfigId(1), ConfigId(9)]);
        let m = Msg::Con(ConMsg::Decide { inst: ConfigId(0), value: ConfigId(3) });
        assert_eq!(m.configs().collect::<Vec<_>>(), [ConfigId(0), ConfigId(3)]);
        let hdr = ares_dap::Hdr { cfg: ConfigId(4), obj: ObjectId(0), rpc: RpcId(1), op: op() };
        let body = ares_dap::DapBody::Retired(ConfigEntry::finalized(ConfigId(5)));
        let m = Msg::Dap(ares_dap::DapMsg::new(hdr, body));
        assert_eq!(m.configs().collect::<Vec<_>>(), [ConfigId(4), ConfigId(5)]);
    }

    #[test]
    fn labels_are_informative() {
        let m = Msg::Cfg(CfgMsg::WriteConfig {
            base: ConfigId(2),
            entry: ConfigEntry::pending(ConfigId(3)),
            rpc: RpcId(4),
            op: op(),
        });
        assert_eq!(m.label(), "WRITE-CONFIG[c2]=⟨c3,P⟩");
    }
}
