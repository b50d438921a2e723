//! Server-side fragment repair — the extension the paper's conclusion
//! lists as future work ("adding efficient repair ... using regenerating
//! codes").
//!
//! When a server of a TREAS configuration loses its state (disk
//! replacement, process restart on a blank machine), the whole
//! configuration does not need to be abandoned: the replacement can
//! rebuild the coded elements *for its own codeword position* from any
//! `k` live peers, exactly as a reader would decode, then re-encode the
//! single fragment `Φ_i(v)`. This is MDS repair (bandwidth `k · |v|/k =
//! |v|` per tag); true regenerating codes would lower the repair
//! bandwidth further and remain future work here too.
//!
//! Protocol (one round):
//!
//! 1. the repairing server broadcasts `REPAIR-QUERY` to its peers in the
//!    configuration, carrying the tags it already holds coded elements
//!    for (so a node recovering from its write-ahead log only fetches
//!    the *delta* written while it was down, not its whole prefix);
//! 2. peers reply with their `List` (tags + coded elements) minus the
//!    announced already-held tags;
//! 3. once `⌈(n+k)/2⌉` lists arrive, every tag that is decodable (≥ k
//!    distinct coded elements) is decoded and re-encoded for the
//!    repairer's own index; tags seen but not decodable are recorded as
//!    `⊥` (their tag metadata still participates in `get-tag`/GC);
//! 4. the rebuilt entries are merged into the local `List` (never
//!    overwriting fresher local state) with the usual `δ`-bounded GC.
//!
//! Safety: repair only *adds* entries a read quorum already stores, so
//! every DAP property (C1/C2) is preserved; it is equivalent to a slow
//! `put-data` replay. Liveness: needs `⌈(n+k)/2⌉` live peers — the same
//! condition as every other TREAS operation.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::msg::Msg;
use ares_codes::{build_code, Fragment};
use ares_dap::ListEntry;
use ares_types::{ConfigId, Configuration, ObjectId, OpId, ProcessId, RpcId, Tag};
use std::collections::HashMap;
use std::sync::Arc;

/// Messages of the repair sub-protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairMsg {
    /// Environment/operator command: rebuild `(cfg, obj)` on the
    /// receiving server. Injected on that server's host, never accepted
    /// from a peer ([`crate::Role::Local`]).
    Trigger {
        /// Configuration to repair within.
        cfg: ConfigId,
        /// Object to rebuild.
        obj: ObjectId,
    },
    /// Repairer → peer: send me your `List`, minus the tags I already
    /// hold coded elements for.
    Query {
        /// Configuration.
        cfg: ConfigId,
        /// Object.
        obj: ObjectId,
        /// Phase id.
        rpc: RpcId,
        /// Tags the repairer already holds its own coded element for
        /// (ascending); peers omit them from their reply, making the
        /// repair bandwidth proportional to what was actually lost.
        known: Vec<Tag>,
        /// Attribution (repairs are charged like an operation of the
        /// repairing server).
        op: OpId,
    },
    /// Peer → repairer: its `List`.
    Lists {
        /// Configuration.
        cfg: ConfigId,
        /// Object.
        obj: ObjectId,
        /// Echoed phase id.
        rpc: RpcId,
        /// The peer's list.
        list: Vec<ListEntry>,
        /// Attribution.
        op: OpId,
    },
}

// Each per-variant fact is one match naming every variant: a new one does
// not compile until classified, and clippy refuses a `_` that absorbs it.
#[deny(clippy::wildcard_enum_match_arm)]
impl RepairMsg {
    /// Payload bytes (coded elements in `Lists`).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            RepairMsg::Lists { list, .. } => list.iter().map(ListEntry::payload_bytes).sum(),
            RepairMsg::Trigger { .. } | RepairMsg::Query { .. } => 0,
        }
    }

    /// The configuration repaired within.
    pub fn config(&self) -> ConfigId {
        match self {
            RepairMsg::Trigger { cfg, .. }
            | RepairMsg::Query { cfg, .. }
            | RepairMsg::Lists { cfg, .. } => *cfg,
        }
    }

    /// The object rebuilt.
    pub fn object(&self) -> ObjectId {
        match self {
            RepairMsg::Trigger { obj, .. }
            | RepairMsg::Query { obj, .. }
            | RepairMsg::Lists { obj, .. } => *obj,
        }
    }

    /// Operation attribution.
    pub fn op(&self) -> Option<OpId> {
        match self {
            RepairMsg::Query { op, .. } | RepairMsg::Lists { op, .. } => Some(*op),
            RepairMsg::Trigger { .. } => None,
        }
    }
}

/// One in-flight repair on a server.
#[derive(Debug)]
pub struct RepairTask {
    cfg: Arc<Configuration>,
    obj: ObjectId,
    rpc: RpcId,
    lists: HashMap<ProcessId, Vec<ListEntry>>,
}

/// Outcome of feeding a message to a [`RepairTask`].
#[derive(Debug)]
pub enum RepairProgress {
    /// Still collecting lists.
    Pending,
    /// Enough lists: `entries` are the rebuilt `(tag, element)` pairs for
    /// the repairer's codeword position (`None` = tag known, data not
    /// recoverable right now).
    Done {
        /// Rebuilt entries to merge into the local `List`.
        entries: Vec<(Tag, Option<Fragment>)>,
    },
}

impl RepairTask {
    /// Starts a repair of `(cfg, obj)` for server `me`; returns the task
    /// and the `Query` broadcast. `known` lists the tags `me` already
    /// holds its own coded element for — peers omit those from their
    /// replies, so a log-recovered node only pays for its delta.
    pub fn start(
        cfg: Arc<Configuration>,
        obj: ObjectId,
        me: ProcessId,
        rpc: RpcId,
        known: Vec<Tag>,
    ) -> (Self, Vec<(ProcessId, Msg)>) {
        let op = OpId { client: me, seq: rpc.0 };
        let msg = RepairMsg::Query { cfg: cfg.id, obj, rpc, known, op };
        let sends = cfg
            .servers
            .iter()
            .filter(|&&s| s != me)
            .map(|&s| (s, Msg::Repair(msg.clone())))
            .collect();
        (RepairTask { cfg, obj, rpc, lists: HashMap::new() }, sends)
    }

    /// The object being repaired.
    pub fn object(&self) -> ObjectId {
        self.obj
    }

    /// The configuration being repaired within.
    pub fn config(&self) -> ConfigId {
        self.cfg.id
    }

    /// Feeds a `Lists` reply; `me` is the repairing server (its own
    /// position defines the fragment to re-encode).
    pub fn on_lists(&mut self, from: ProcessId, msg: &RepairMsg, me: ProcessId) -> RepairProgress {
        let RepairMsg::Lists { cfg, obj, rpc, list, .. } = msg else {
            return RepairProgress::Pending;
        };
        if *cfg != self.cfg.id || *obj != self.obj || *rpc != self.rpc {
            return RepairProgress::Pending;
        }
        self.lists.insert(from, list.clone());
        // Quorum counts the repairer itself (it is a member), so peers
        // needed = quorum − 1.
        if self.lists.len() + 1 < self.cfg.quorum_size() {
            return RepairProgress::Pending;
        }
        // Gather fragments per tag (distinct codeword indices).
        let mut per_tag: HashMap<Tag, Vec<Fragment>> = HashMap::new();
        for list in self.lists.values() {
            for e in list {
                let frags = per_tag.entry(e.tag).or_default();
                if let Some(f) = &e.frag {
                    if !frags.iter().any(|g| g.index == f.index) {
                        frags.push(f.clone());
                    }
                }
            }
        }
        let params = self.cfg.code_params();
        // Registry-vetted configurations always build valid codes and
        // contain the repairer; if either invariant ever breaks, report
        // every tag unrepaired (the periodic trigger retries) instead of
        // dying inside a handler fed by network replies.
        let (Ok(code), Some(my_index)) = (build_code(params), self.cfg.server_index(me)) else {
            let mut entries: Vec<(Tag, Option<Fragment>)> =
                per_tag.into_keys().map(|t| (t, None)).collect();
            entries.sort_by_key(|(t, _)| *t);
            return RepairProgress::Done { entries };
        };
        let mut entries: Vec<(Tag, Option<Fragment>)> = Vec::new();
        for (tag, frags) in per_tag {
            if frags.len() >= params.k {
                if let Ok(value) = code.decode(&frags) {
                    entries.push((tag, Some(code.encode_fragment(&value, my_index))));
                    continue;
                }
            }
            entries.push((tag, None));
        }
        entries.sort_by_key(|(t, _)| *t);
        RepairProgress::Done { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::{Value, TAG0};

    fn cfg() -> Arc<Configuration> {
        Arc::new(Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2))
    }

    fn lists_for(value: &Value, tag: Tag, holders: &[u32]) -> Vec<(ProcessId, Vec<ListEntry>)> {
        let code = build_code(cfg().code_params()).unwrap();
        let frags = code.encode(value.as_bytes());
        holders
            .iter()
            .map(|&h| {
                (ProcessId(h), vec![ListEntry { tag, frag: Some(frags[(h - 1) as usize].clone()) }])
            })
            .collect()
    }

    #[test]
    fn repair_rebuilds_own_fragment() {
        let cfg = cfg();
        let me = ProcessId(5);
        let (mut task, sends) =
            RepairTask::start(cfg.clone(), ObjectId(0), me, RpcId(1), Vec::new());
        assert_eq!(sends.len(), 4, "queries every peer");

        let v = Value::filler(90, 3);
        let tag = Tag::new(4, ProcessId(9));
        let mut done = None;
        for (from, list) in lists_for(&v, tag, &[1, 2, 3]) {
            let msg = RepairMsg::Lists {
                cfg: ConfigId(0),
                obj: ObjectId(0),
                rpc: RpcId(1),
                list,
                op: OpId { client: me, seq: 1 },
            };
            if let RepairProgress::Done { entries } = task.on_lists(from, &msg, me) {
                done = Some(entries);
            }
        }
        let entries = done.expect("quorum of 4 (self + 3 peers) reached");
        let (t, frag) = entries.iter().find(|(t, _)| *t == tag).expect("tag rebuilt");
        assert_eq!(*t, tag);
        let frag = frag.as_ref().expect("decodable from 3 = k fragments");
        assert_eq!(frag.index, 4, "re-encoded for the repairer's position");
        // The rebuilt fragment matches a fresh encode.
        let code = build_code(cfg.code_params()).unwrap();
        assert_eq!(*frag, code.encode_fragment(v.as_bytes(), 4));
    }

    #[test]
    fn undecodable_tags_keep_metadata_only() {
        let cfg = cfg();
        let me = ProcessId(5);
        let (mut task, _) = RepairTask::start(cfg, ObjectId(0), me, RpcId(2), Vec::new());
        let v = Value::filler(30, 1);
        let tag = Tag::new(2, ProcessId(9));
        // Only 2 < k = 3 peers hold elements; third peer knows the tag
        // with ⊥.
        let mut replies = lists_for(&v, tag, &[1, 2]);
        replies.push((ProcessId(3), vec![ListEntry { tag, frag: None }]));
        let mut done = None;
        for (from, list) in replies {
            let msg = RepairMsg::Lists {
                cfg: ConfigId(0),
                obj: ObjectId(0),
                rpc: RpcId(2),
                list,
                op: OpId { client: me, seq: 2 },
            };
            if let RepairProgress::Done { entries } = task.on_lists(from, &msg, me) {
                done = Some(entries);
            }
        }
        let entries = done.expect("quorum reached");
        let (_, frag) = entries.iter().find(|(t, _)| *t == tag).unwrap();
        assert!(frag.is_none(), "tag retained, element unrecoverable");
    }

    #[test]
    fn stale_and_foreign_replies_ignored() {
        let cfg = cfg();
        let me = ProcessId(5);
        let (mut task, _) = RepairTask::start(cfg, ObjectId(0), me, RpcId(3), Vec::new());
        let msg = RepairMsg::Lists {
            cfg: ConfigId(0),
            obj: ObjectId(0),
            rpc: RpcId(99), // wrong phase
            list: vec![ListEntry { tag: TAG0, frag: None }],
            op: OpId { client: me, seq: 3 },
        };
        assert!(matches!(task.on_lists(ProcessId(1), &msg, me), RepairProgress::Pending));
        assert!(task.lists.is_empty());
    }
}
