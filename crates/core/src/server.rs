//! The unified ARES server actor.
//!
//! One server process plays every server-side role of the paper at once:
//!
//! * DAP storage for each configuration it belongs to (Alg. 3 / Alg. 12 /
//!   Alg. 13 state, via [`ares_dap::server::DapServer`]);
//! * Paxos acceptor for the consensus instance of each configuration
//!   (`c.Con`);
//! * the `nextC` successor pointer of the configuration-discovery
//!   service (Alg. 6);
//! * the ARES-TREAS state-transfer protocol (Alg. 9): forwarding its own
//!   coded elements on `REQ-FW-CODE-ELEM`, and accumulating / decoding /
//!   re-encoding forwarded elements in the `D` set when it is a member of
//!   the destination configuration.

use crate::msg::{CfgMsg, Msg, XferMsg};
use crate::repair::{RepairMsg, RepairProgress, RepairTask};
use ares_codes::{build_code, Fragment};
use ares_consensus::{Acceptor, Ballot};
use ares_dap::server::DapServer;
use ares_sim::{Actor, Ctx};
use ares_types::{
    ConfigEntry, ConfigId, ConfigRegistry, DapKind, ObjectId, ProcessId, Status, Tag,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Upper bound on concurrently pending transfer *tags per (dst, obj)*
/// in the `D` set; beyond it the least-advanced entry for that object
/// is evicted. Honest executions pend at most δ+1 tags per object per
/// reconfigurer, so 64 is generous headroom — the cap exists so an
/// open listener cannot be grown without limit by fabricated tags, and
/// keying it per object keeps hostile floods from evicting *other*
/// objects' genuine in-progress transfers.
const MAX_PENDING_TAGS_PER_OBJECT: usize = 64;

/// Upper bound on distinct claimed value lengths collected for one
/// transfer tag (honest traffic has exactly one); beyond it the
/// smallest, most recently started group is evicted.
const MAX_VALUE_LEN_GROUPS: usize = 8;

/// One Paxos acceptor's durable state, keyed by consensus instance —
/// part of a [`ServerSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcceptorSnap {
    /// The consensus instance (base configuration).
    pub inst: ConfigId,
    /// Highest promised ballot.
    pub promised: Ballot,
    /// Highest accepted `(ballot, value)`.
    pub accepted: Option<(Ballot, ConfigId)>,
    /// Learned decision, if any.
    pub decided: Option<ConfigId>,
}

/// One installed `nextC` pointer — part of a [`ServerSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextCSnap {
    /// The configuration whose successor pointer this is.
    pub base: ConfigId,
    /// The pointer (Pending or Finalized).
    pub entry: ConfigEntry,
}

/// A point-in-time image of the state a [`ServerActor`] must carry
/// across a crash: DAP object state, acceptor promises/accepts, and
/// `nextC` pointers. This is the payload of a WAL checkpoint.
///
/// Deliberately *not* captured — transient state that recovery
/// re-derives: the ARES-TREAS `D` sets and `Recons` acks (a transfer
/// interrupted by the crash is re-driven by the reconfigurer's retry,
/// and the post-replay delta-repair pass re-fetches any fragment a
/// lost `FwdElem` accumulation would have decoded) and in-flight
/// [`RepairTask`]s (their `Lists` replies are stale after a restart;
/// a recovered node simply re-triggers repair).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerSnapshot {
    /// Per-`(cfg, obj)` DAP state.
    pub dap: ares_dap::server::DapSnapshot,
    /// Per-instance acceptor state, sorted by instance.
    pub acceptors: Vec<AcceptorSnap>,
    /// Installed `nextC` pointers, sorted by base config.
    pub nextc: Vec<NextCSnap>,
}

/// The ARES server process.
pub struct ServerActor {
    me: ProcessId,
    registry: Arc<ConfigRegistry>,
    /// DAP state for every configuration/object this server serves.
    pub dap: DapServer,
    /// One Paxos acceptor per consensus instance (keyed by base config).
    acceptors: HashMap<ConfigId, Acceptor>,
    /// `nextC` per configuration this server belongs to (`⊥` = absent).
    nextc: HashMap<ConfigId, ConfigEntry>,
    /// ARES-TREAS `D` sets: forwarded elements not yet in the `List`,
    /// keyed by (destination config, object, tag).
    dset: HashMap<(ConfigId, ObjectId, Tag), Vec<Fragment>>,
    /// ARES-TREAS `Recons` sets: reconfigurers already acked, keyed by
    /// (destination config, object).
    recons: HashMap<(ConfigId, ObjectId), HashSet<ProcessId>>,
    /// In-flight fragment repairs (one per (cfg, obj)).
    repairs: HashMap<(ConfigId, ObjectId), RepairTask>,
    repair_rpc: u64,
}

impl ServerActor {
    /// Creates a server.
    pub fn new(me: ProcessId, registry: Arc<ConfigRegistry>) -> Self {
        ServerActor {
            me,
            registry: registry.clone(),
            dap: DapServer::new(me, registry),
            acceptors: HashMap::new(),
            nextc: HashMap::new(),
            dset: HashMap::new(),
            recons: HashMap::new(),
            repairs: HashMap::new(),
            repair_rpc: 0,
        }
    }

    /// This server's id.
    pub fn pid(&self) -> ProcessId {
        self.me
    }

    /// The `nextC` pointer for `base` (test/inspection hook).
    pub fn next_config(&self, base: ConfigId) -> Option<ConfigEntry> {
        self.nextc.get(&base).copied()
    }

    /// Bytes of object payload stored (DAP lists/replicas plus pending
    /// transfer elements) — the per-server storage cost.
    pub fn storage_bytes(&self) -> u64 {
        let pending: u64 =
            self.dset.values().map(|v| v.iter().map(|f| f.data.len() as u64).sum::<u64>()).sum();
        self.dap.storage_bytes() + pending
    }

    /// Captures the durable state as a [`ServerSnapshot`], sorted for
    /// deterministic encoding.
    pub fn snapshot(&self) -> ServerSnapshot {
        let mut acceptors: Vec<AcceptorSnap> = self
            .acceptors
            .iter()
            .map(|(&inst, a)| AcceptorSnap {
                inst,
                promised: a.promised(),
                accepted: a.accepted(),
                decided: a.decided(),
            })
            .collect();
        acceptors.sort_by_key(|a| a.inst);
        let mut nextc: Vec<NextCSnap> =
            self.nextc.iter().map(|(&base, &entry)| NextCSnap { base, entry }).collect();
        nextc.sort_by_key(|e| e.base);
        ServerSnapshot { dap: self.dap.snapshot(), acceptors, nextc }
    }

    /// Rebuilds a server from a recovered [`ServerSnapshot`]. The
    /// caller (the WAL recovery path) replays the journal tail on top
    /// of this state and then triggers delta repair for anything
    /// written while the node was down.
    pub fn from_snapshot(
        me: ProcessId,
        registry: Arc<ConfigRegistry>,
        snap: ServerSnapshot,
    ) -> Self {
        let mut s = ServerActor::new(me, registry);
        s.dap.restore(snap.dap);
        for a in snap.acceptors {
            s.acceptors.insert(a.inst, Acceptor::from_parts(a.promised, a.accepted, a.decided));
        }
        for e in snap.nextc {
            s.nextc.insert(e.base, e.entry);
        }
        s
    }

    fn handle_cfg(&mut self, from: ProcessId, msg: CfgMsg) -> Vec<(ProcessId, Msg)> {
        match msg {
            CfgMsg::ReadConfig { base, rpc, op } => {
                let next = self.nextc.get(&base).copied();
                vec![(from, Msg::Cfg(CfgMsg::NextC { base, rpc, next, op }))]
            }
            CfgMsg::WriteConfig { base, entry, rpc, op } => {
                // A configuration can never be its own successor: the
                // consensus service only ever decides a *new* chain
                // entry, so a self-loop write is a protocol-violation
                // artifact (buggy or hostile client) — installing it
                // would make every future `read-config` walk follow the
                // loop forever. Drop without acking.
                if entry.cfg == base {
                    return Vec::new();
                }
                // Alg. 6: update if nextC = ⊥ or nextC.status = P; once
                // F, the pointer never changes (Lemma 46).
                match self.nextc.get_mut(&base) {
                    None => {
                        self.nextc.insert(base, entry);
                    }
                    Some(cur) if cur.status == Status::Pending => {
                        debug_assert_eq!(
                            cur.cfg, entry.cfg,
                            "consensus guarantees a unique successor per configuration"
                        );
                        *cur = entry;
                    }
                    Some(_) => {}
                }
                vec![(from, Msg::Cfg(CfgMsg::CfgAck { base, rpc, op }))]
            }
            CfgMsg::NextC { .. } | CfgMsg::CfgAck { .. } => Vec::new(),
        }
    }

    fn handle_xfer(&mut self, _from: ProcessId, msg: XferMsg) -> Vec<(ProcessId, Msg)> {
        match msg {
            // Source side (Alg. 9 top): if (t, e) ∈ List, forward e to
            // every destination server.
            XferMsg::ReqFwd { tag, src, dst, obj, rc, rpc, op } => {
                let Some(dst_cfg) = self.registry.try_get(dst).cloned() else {
                    return Vec::new();
                };
                let (tag, frag) = match self.registry.try_get(src).map(|c| c.dap) {
                    Some(DapKind::Treas { .. }) => {
                        let list = &self.dap.treas_state(src, obj).list;
                        match list.get(&tag).cloned().flatten() {
                            Some(f) => (tag, Some(f)),
                            None => {
                                // The requested tag's element was garbage-
                                // collected (δ newer writes overtook it):
                                // forward the newest element we still hold
                                // with tag' > tag — it carries an at least
                                // as recent value, so the destination
                                // quorum still ends up ≥ the requested tag.
                                match list.iter().rev().find(|(t, f)| **t > tag && f.is_some()) {
                                    Some((t, f)) => (*t, f.clone()),
                                    None => (tag, None),
                                }
                            }
                        }
                    }
                    Some(DapKind::Abd) | Some(DapKind::Ldr { .. }) => {
                        // Replicated source: the "coded element" is the
                        // full value under the [n, 1] code, if this
                        // server's replica is at least as recent.
                        let st = self.dap.abd_state(src, obj);
                        if st.tag >= tag {
                            let tag = st.tag;
                            let idx = self.registry.get(src).server_index(self.me).unwrap_or(0);
                            (
                                tag,
                                Some(Fragment {
                                    index: idx,
                                    value_len: st.value.len(),
                                    data: st.value.bytes().clone(),
                                }),
                            )
                        } else {
                            (tag, None)
                        }
                    }
                    None => (tag, None),
                };
                let Some(frag) = frag else { return Vec::new() };
                dst_cfg
                    .servers
                    .iter()
                    .map(|&s| {
                        (
                            s,
                            Msg::Xfer(XferMsg::FwdElem {
                                tag,
                                frag: frag.clone(),
                                src,
                                dst,
                                obj,
                                rc,
                                rpc,
                                op,
                            }),
                        )
                    })
                    .collect()
            }
            // Destination side (Alg. 9 bottom).
            XferMsg::FwdElem { tag, frag, src, dst, obj, rc, rpc, op } => {
                let Some(dst_cfg) = self.registry.try_get(dst).cloned() else {
                    return Vec::new();
                };
                let DapKind::Treas { delta, .. } = dst_cfg.dap else {
                    // Replicated destination: a forwarded element under a
                    // [n,1] source code *is* the value; seed the replica.
                    if src_is_replicated(&self.registry, src) {
                        self.dap.seed_abd(
                            dst,
                            obj,
                            ares_types::TagValue::new(
                                tag,
                                ares_types::Value::new(frag.data.clone()),
                            ),
                        );
                        return vec![(rc, Msg::Xfer(XferMsg::XferAck { dst, obj, tag, rpc, op }))];
                    }
                    return Vec::new();
                };
                if self.recons.get(&(dst, obj)).is_some_and(|s| s.contains(&rc)) {
                    return Vec::new(); // rc already served
                }
                // An untrusted peer may name an unregistered source
                // configuration, or a destination this server is not a
                // member of — drop rather than panic (the simulator never
                // produces such traffic, but a real listener can).
                let Some(src_params) = self.registry.try_get(src).map(|c| c.code_params()) else {
                    return Vec::new();
                };
                let Some(my_index) = dst_cfg.server_index(self.me) else {
                    return Vec::new();
                };
                // Shape-check the forwarded element *before* touching any
                // state: a hostile fragment with an out-of-range codeword
                // index or the wrong shard length for the source code
                // must not even create a D-set entry. Accepted fragments
                // are grouped by their claimed value length when testing
                // decodability, groups are individually small (≤ n
                // distinct indices) and bounded in number with
                // least-progress eviction, and the total number of
                // pending (dst, obj, tag) entries is capped the same way
                // — so a *bounded* burst of hostile-but-self-consistent
                // fragments can neither wedge a genuine transfer nor
                // grow memory without limit. (Fabricating k mutually
                // consistent fragments is Byzantine forgery, outside the
                // crash-fault model.)
                let expected_len = if src_params.k == 1 {
                    frag.value_len // replication: a fragment is the value
                } else {
                    frag.value_len.div_ceil(src_params.k).max(1) // RS shard
                };
                if frag.index >= src_params.n || frag.data.len() != expected_len {
                    return Vec::new();
                }
                let frag_value_len = frag.value_len;
                let in_list = self.dap.treas_state(dst, obj).contains(tag);
                if !in_list {
                    if !self.dset.contains_key(&(dst, obj, tag))
                        && self.dset.keys().filter(|(d, o, _)| *d == dst && *o == obj).count()
                            >= MAX_PENDING_TAGS_PER_OBJECT
                    {
                        // Evict this object's least-advanced pending
                        // transfer (fewest fragments, then fewest
                        // bytes): junk entries are typically
                        // single-fragment and go first; a genuine
                        // transfer re-accumulates from retried forwards
                        // if it is ever the victim.
                        let victim = self
                            .dset
                            .iter()
                            .filter(|((d, o, _), _)| *d == dst && *o == obj)
                            .min_by_key(|(_, v)| {
                                (v.len(), v.iter().map(|f| f.data.len()).sum::<usize>())
                            })
                            .map(|(k, _)| *k);
                        if let Some(k) = victim {
                            self.dset.remove(&k);
                        }
                    }
                    // D ← D ∪ {⟨t, e_i⟩}
                    let d = self.dset.entry((dst, obj, tag)).or_default();
                    if !d.iter().any(|f| f.index == frag.index && f.value_len == frag_value_len) {
                        let group_exists = d.iter().any(|f| f.value_len == frag_value_len);
                        let mut groups: Vec<usize> = d.iter().map(|f| f.value_len).collect();
                        groups.sort_unstable();
                        groups.dedup();
                        if !group_exists && groups.len() >= MAX_VALUE_LEN_GROUPS {
                            // Too many claimed value lengths for one tag:
                            // evict the smallest (preferring the most
                            // recently started) so the new group can form.
                            let victim = groups
                                .iter()
                                .map(|&vl| {
                                    let size = d.iter().filter(|f| f.value_len == vl).count();
                                    let first =
                                        d.iter().position(|f| f.value_len == vl).unwrap_or(0);
                                    (size, std::cmp::Reverse(first), vl)
                                })
                                .min()
                                .map(|(_, _, vl)| vl);
                            if let Some(vl) = victim {
                                d.retain(|f| f.value_len != vl);
                            }
                        }
                        d.push(frag);
                    }
                    // isDecodable(D, t)? — tested per value_len group.
                    let group: Vec<Fragment> =
                        d.iter().filter(|f| f.value_len == frag_value_len).cloned().collect();
                    if group.len() >= src_params.k {
                        // Registry-vetted parameters always build valid
                        // codes; if that invariant ever breaks, dropping
                        // this transfer is recoverable (retried forwards
                        // re-accumulate the D-set) — dying on a frame
                        // that named the config is not.
                        if let (Ok(decoder), Ok(enc)) =
                            (build_code(src_params), build_code(dst_cfg.code_params()))
                        {
                            if let Ok(value) = decoder.decode(&group) {
                                // Re-encode with the destination code and
                                // store own element; D keeps the tag only.
                                self.dset.remove(&(dst, obj, tag));
                                let my_elem = enc.encode_fragment(&value, my_index);
                                self.dap.treas_state(dst, obj).insert_and_gc(tag, my_elem, delta);
                            }
                        }
                    }
                }
                // If (t, *) ∈ List now: serve rc and ack.
                if self.dap.treas_state(dst, obj).contains(tag) {
                    self.recons.entry((dst, obj)).or_default().insert(rc);
                    vec![(rc, Msg::Xfer(XferMsg::XferAck { dst, obj, tag, rpc, op }))]
                } else {
                    Vec::new()
                }
            }
            XferMsg::XferAck { .. } => Vec::new(),
        }
    }
}

impl ServerActor {
    fn handle_repair(&mut self, from: ProcessId, msg: RepairMsg) -> Vec<(ProcessId, Msg)> {
        match msg {
            RepairMsg::Trigger { cfg, obj } => {
                let Some(config) = self.registry.try_get(cfg).cloned() else {
                    return Vec::new();
                };
                if config.server_index(self.me).is_none() {
                    return Vec::new(); // not a member: nothing to repair
                }
                self.repair_rpc += 1;
                // Tags this server already holds its own coded element
                // for (ascending — BTreeMap order): peers skip them, so
                // repair traffic covers only the lost delta.
                let known: Vec<ares_types::Tag> = self
                    .dap
                    .treas_state(cfg, obj)
                    .list
                    .iter()
                    .filter_map(|(t, f)| f.is_some().then_some(*t))
                    .collect();
                let (task, sends) = RepairTask::start(
                    config,
                    obj,
                    self.me,
                    ares_types::RpcId(self.repair_rpc),
                    known,
                );
                self.repairs.insert((cfg, obj), task);
                sends
            }
            RepairMsg::Query { cfg, obj, rpc, known, op } => {
                let mut list = self.dap.treas_state(cfg, obj).to_entries();
                // `known` is sorted by the honest sender; a hostile
                // unsorted list only misfilters the reply to the sender's
                // own detriment (repair merges are add-only either way).
                list.retain(|e| known.binary_search(&e.tag).is_err());
                vec![(from, Msg::Repair(RepairMsg::Lists { cfg, obj, rpc, list, op }))]
            }
            lists @ RepairMsg::Lists { .. } => {
                let key = (lists.config(), lists.object());
                let Some(task) = self.repairs.get_mut(&key) else {
                    return Vec::new();
                };
                if let RepairProgress::Done { entries } = task.on_lists(from, &lists, self.me) {
                    let delta = self.registry.get(key.0).delta().unwrap_or(usize::MAX / 2);
                    let st = self.dap.treas_state(key.0, key.1);
                    for (tag, frag) in entries {
                        match frag {
                            Some(f) => st.insert_and_gc(tag, f, delta),
                            None => st.note_tag(tag),
                        }
                    }
                    self.repairs.remove(&key);
                }
                Vec::new()
            }
        }
    }
}

fn src_is_replicated(registry: &ConfigRegistry, src: ConfigId) -> bool {
    matches!(registry.try_get(src).map(|c| c.dap), Some(DapKind::Abd) | Some(DapKind::Ldr { .. }))
}

impl Actor<Msg> for ServerActor {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        let replies = match msg {
            Msg::Dap(m) => {
                self.dap.handle(from, m).into_iter().map(|(to, m)| (to, Msg::Dap(m))).collect()
            }
            Msg::Con(m) => {
                let inst = m.instance();
                self.acceptors
                    .entry(inst)
                    .or_default()
                    .handle(from, m)
                    .into_iter()
                    .map(|(to, m)| (to, Msg::Con(m)))
                    .collect()
            }
            Msg::Cfg(m) => self.handle_cfg(from, m),
            Msg::Xfer(m) => self.handle_xfer(from, m),
            Msg::Repair(m) => self.handle_repair(from, m),
            Msg::Invoke(_) => Vec::new(), // commands are for clients
        };
        for (to, m) in replies {
            ctx.send(to, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::{Configuration, ObjectId, OpId, RpcId, TagValue, Value};

    fn registry() -> Arc<ConfigRegistry> {
        ConfigRegistry::from_configs([
            Configuration::abd(ConfigId(0), (1..=3).map(ProcessId).collect()),
            Configuration::treas(ConfigId(1), (4..=8).map(ProcessId).collect(), 3, 2),
            Configuration::treas(ConfigId(2), (6..=10).map(ProcessId).collect(), 4, 2),
        ])
    }

    fn op() -> OpId {
        OpId { client: ProcessId(200), seq: 0 }
    }

    fn wc(base: u32, entry: ConfigEntry) -> CfgMsg {
        CfgMsg::WriteConfig { base: ConfigId(base), entry, rpc: RpcId(1), op: op() }
    }

    #[test]
    fn next_config_pointer_is_monotone_p_to_f() {
        let mut s = ServerActor::new(ProcessId(1), registry());
        // ⊥ -> P
        s.handle_cfg(ProcessId(200), wc(0, ConfigEntry::pending(ConfigId(1))));
        assert_eq!(s.next_config(ConfigId(0)), Some(ConfigEntry::pending(ConfigId(1))));
        // P -> F
        s.handle_cfg(ProcessId(200), wc(0, ConfigEntry::finalized(ConfigId(1))));
        assert_eq!(s.next_config(ConfigId(0)), Some(ConfigEntry::finalized(ConfigId(1))));
        // F -> P is refused (Lemma 46)
        s.handle_cfg(ProcessId(200), wc(0, ConfigEntry::pending(ConfigId(1))));
        assert_eq!(s.next_config(ConfigId(0)), Some(ConfigEntry::finalized(ConfigId(1))));
    }

    #[test]
    fn self_loop_write_config_is_refused() {
        // A configuration must never become its own successor: a
        // self-loop in `nextC` would make every `read-config` walk
        // cycle forever. Such a write is dropped without an ack.
        let mut s = ServerActor::new(ProcessId(1), registry());
        let out = s.handle_cfg(ProcessId(200), wc(0, ConfigEntry::pending(ConfigId(0))));
        assert!(out.is_empty(), "no ack for a self-loop write-config");
        assert_eq!(s.next_config(ConfigId(0)), None, "pointer stays ⊥");
        // A legitimate successor still installs afterwards.
        s.handle_cfg(ProcessId(200), wc(0, ConfigEntry::pending(ConfigId(1))));
        assert_eq!(s.next_config(ConfigId(0)), Some(ConfigEntry::pending(ConfigId(1))));
    }

    #[test]
    fn read_config_returns_bottom_then_pointer() {
        let mut s = ServerActor::new(ProcessId(1), registry());
        let q = CfgMsg::ReadConfig { base: ConfigId(0), rpc: RpcId(9), op: op() };
        let r = s.handle_cfg(ProcessId(200), q.clone());
        match &r[0].1 {
            Msg::Cfg(CfgMsg::NextC { next, .. }) => assert!(next.is_none()),
            other => panic!("unexpected {other:?}"),
        }
        s.handle_cfg(ProcessId(200), wc(0, ConfigEntry::pending(ConfigId(1))));
        let r = s.handle_cfg(ProcessId(200), q);
        match &r[0].1 {
            Msg::Cfg(CfgMsg::NextC { next, .. }) => {
                assert_eq!(*next, Some(ConfigEntry::pending(ConfigId(1))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn repair_query_carries_held_tags_and_peers_reply_only_the_delta() {
        let frag = |i: usize| ares_codes::Fragment {
            index: i,
            value_len: 30,
            data: bytes::Bytes::from(vec![0xCD; 10]),
        };
        let t_old = Tag::new(1, ProcessId(200));
        let t_new = Tag::new(2, ProcessId(200));

        // The recovering server (4) replayed t_old from its log but
        // missed t_new: its repair Query must announce t_old as known.
        let mut recovering = ServerActor::new(ProcessId(4), registry());
        recovering.dap.treas_state(ConfigId(1), ObjectId(0)).list.insert(t_old, Some(frag(0)));
        let sends = recovering
            .handle_repair(ProcessId(0), RepairMsg::Trigger { cfg: ConfigId(1), obj: ObjectId(0) });
        assert_eq!(sends.len(), 4, "queries every peer");
        let Msg::Repair(query) = sends[0].1.clone() else {
            panic!("expected a repair query, got {:?}", sends[0].1);
        };
        let RepairMsg::Query { ref known, .. } = query else {
            panic!("expected a repair query, got {query:?}");
        };
        assert_eq!(
            known,
            &vec![ares_types::TAG0, t_old],
            "announces the seed tag and the replayed tag, not the missing one"
        );

        // A peer (5) holding both tags replies with only the delta.
        let mut peer = ServerActor::new(ProcessId(5), registry());
        let st = peer.dap.treas_state(ConfigId(1), ObjectId(0));
        st.list.insert(t_old, Some(frag(1)));
        st.list.insert(t_new, Some(frag(1)));
        let out = peer.handle_repair(ProcessId(4), query);
        let Msg::Repair(RepairMsg::Lists { list, .. }) = &out[0].1 else {
            panic!("expected a lists reply, got {:?}", out[0].1);
        };
        assert_eq!(list.len(), 1, "known tag filtered out");
        assert_eq!(list[0].tag, t_new);
    }

    #[test]
    fn abd_source_forwards_newer_value_when_requested_tag_superseded() {
        // Server 1 (ABD member of c0) holds tag (3, p9); a transfer asks
        // for tag (2, p9): the server must forward its newer state.
        let mut s = ServerActor::new(ProcessId(1), registry());
        let newer = Tag::new(3, ProcessId(9));
        s.dap.seed_abd(ConfigId(0), ObjectId(0), TagValue::new(newer, Value::filler(30, 1)));
        let req = XferMsg::ReqFwd {
            tag: Tag::new(2, ProcessId(9)),
            src: ConfigId(0),
            dst: ConfigId(1),
            obj: ObjectId(0),
            rc: ProcessId(200),
            rpc: RpcId(1),
            op: op(),
        };
        let out = s.handle_xfer(ProcessId(200), req);
        assert_eq!(out.len(), 5, "forwards to every destination server");
        match &out[0].1 {
            Msg::Xfer(XferMsg::FwdElem { tag, frag, .. }) => {
                assert_eq!(*tag, newer, "forwards the newer tag");
                assert_eq!(frag.data.len(), 30, "full replica as [n,1] fragment");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn abd_source_with_stale_state_stays_silent() {
        let mut s = ServerActor::new(ProcessId(1), registry());
        // Holds only (1, p9) but the transfer wants (2, p9).
        s.dap.seed_abd(
            ConfigId(0),
            ObjectId(0),
            TagValue::new(Tag::new(1, ProcessId(9)), Value::filler(10, 1)),
        );
        let req = XferMsg::ReqFwd {
            tag: Tag::new(2, ProcessId(9)),
            src: ConfigId(0),
            dst: ConfigId(1),
            obj: ObjectId(0),
            rc: ProcessId(200),
            rpc: RpcId(1),
            op: op(),
        };
        assert!(s.handle_xfer(ProcessId(200), req).is_empty());
    }

    #[test]
    fn destination_decodes_after_k_fragments_and_acks_once() {
        // Destination server 6 (member of c1=[5,3] and c2=[5,4]) receives
        // fragments of a [5,3]-coded value one by one.
        let reg = registry();
        let mut s = ServerActor::new(ProcessId(6), reg.clone());
        let v = Value::filler(90, 5);
        let src_code = build_code(reg.get(ConfigId(1)).code_params()).unwrap();
        let frags = src_code.encode(v.as_bytes());
        let tag = Tag::new(7, ProcessId(9));
        let fwd = |i: usize| XferMsg::FwdElem {
            tag,
            frag: frags[i].clone(),
            src: ConfigId(1),
            dst: ConfigId(2),
            obj: ObjectId(0),
            rc: ProcessId(200),
            rpc: RpcId(4),
            op: op(),
        };
        assert!(s.handle_xfer(ProcessId(4), fwd(0)).is_empty(), "1 < k: no ack yet");
        assert!(s.handle_xfer(ProcessId(5), fwd(1)).is_empty(), "2 < k: no ack yet");
        let out = s.handle_xfer(ProcessId(6), fwd(2));
        assert_eq!(out.len(), 1, "k-th fragment decodes and acks");
        match &out[0].1 {
            Msg::Xfer(XferMsg::XferAck { tag: t, .. }) => assert_eq!(*t, tag),
            other => panic!("unexpected {other:?}"),
        }
        // The server re-encoded its own element under c2's [5,4] code.
        let st = s.dap.treas_state_ref(ConfigId(2), ObjectId(0)).unwrap();
        let elem = st.list.get(&tag).cloned().flatten().expect("element stored");
        let dst_code = build_code(reg.get(ConfigId(2)).code_params()).unwrap();
        let my_index = reg.get(ConfigId(2)).server_index(ProcessId(6)).unwrap();
        assert_eq!(elem, dst_code.encode_fragment(v.as_bytes(), my_index));
        // A duplicate forward for the same rc is ignored (Recons set).
        assert!(s.handle_xfer(ProcessId(7), fwd(3)).is_empty());
        // ...but a different reconfigurer still gets an ack.
        let other_rc = XferMsg::FwdElem {
            tag,
            frag: frags[3].clone(),
            src: ConfigId(1),
            dst: ConfigId(2),
            obj: ObjectId(0),
            rc: ProcessId(201),
            rpc: RpcId(8),
            op: op(),
        };
        let out = s.handle_xfer(ProcessId(7), other_rc);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, ProcessId(201));
    }

    #[test]
    fn hostile_fragment_shapes_are_rejected_and_do_not_wedge_transfer() {
        // A hostile peer forwards malformed coded elements (out-of-range
        // codeword index, wrong shard length) before the real ones: they
        // must be dropped, and the genuine k fragments must still decode
        // — a poisoned D set would fail decoding forever.
        use bytes::Bytes;
        let reg = registry();
        let mut s = ServerActor::new(ProcessId(6), reg.clone());
        let v = Value::filler(90, 5);
        let src_code = build_code(reg.get(ConfigId(1)).code_params()).unwrap();
        let frags = src_code.encode(v.as_bytes());
        let tag = Tag::new(7, ProcessId(9));
        let fwd = |frag: Fragment| XferMsg::FwdElem {
            tag,
            frag,
            src: ConfigId(1),
            dst: ConfigId(2),
            obj: ObjectId(0),
            rc: ProcessId(200),
            rpc: RpcId(4),
            op: op(),
        };
        let poison = Fragment { index: 99, value_len: 90, data: frags[0].data.clone() };
        assert!(s.handle_xfer(ProcessId(4), fwd(poison)).is_empty());
        let short = Fragment { index: 4, value_len: 90, data: Bytes::from(vec![0u8; 5]) };
        assert!(s.handle_xfer(ProcessId(4), fwd(short)).is_empty());
        // A burst of *self-consistent* hostile fragments (valid shape
        // for their own claimed value_len, many distinct value_lens)
        // arriving first must not wedge the genuine group either:
        // decodability is tested per value_len group, and excess groups
        // are evicted rather than blocking new ones.
        for vl in 1..=12usize {
            let wedge = Fragment {
                index: 0,
                value_len: 4000 + vl,
                data: Bytes::from(vec![7u8; (4000 + vl).div_ceil(3)]),
            };
            assert!(s.handle_xfer(ProcessId(4), fwd(wedge)).is_empty());
        }
        assert!(s.handle_xfer(ProcessId(4), fwd(frags[0].clone())).is_empty());
        assert!(s.handle_xfer(ProcessId(5), fwd(frags[1].clone())).is_empty());
        let out = s.handle_xfer(ProcessId(6), fwd(frags[2].clone()));
        assert_eq!(out.len(), 1, "transfer completes despite hostile fragments");
    }

    #[test]
    fn pending_transfer_state_is_bounded_under_fabricated_tags() {
        // A hostile peer streaming forwards under fresh fabricated tags
        // must not grow the D set without bound, and rejected shapes
        // must not even create entries.
        use bytes::Bytes;
        let reg = registry();
        let mut s = ServerActor::new(ProcessId(6), reg.clone());
        // Shape-invalid fragments create nothing.
        let bad = XferMsg::FwdElem {
            tag: Tag::new(1, ProcessId(9)),
            frag: Fragment { index: 99, value_len: 30, data: Bytes::from(vec![0u8; 10]) },
            src: ConfigId(1),
            dst: ConfigId(2),
            obj: ObjectId(0),
            rc: ProcessId(200),
            rpc: RpcId(1),
            op: op(),
        };
        assert!(s.handle_xfer(ProcessId(4), bad).is_empty());
        assert!(s.dset.is_empty(), "rejected fragments must not create D-set entries");
        // Shape-valid fragments under many fabricated tags stay capped.
        for z in 0..(4 * MAX_PENDING_TAGS_PER_OBJECT as u64) {
            let fwd = XferMsg::FwdElem {
                tag: Tag::new(z + 1, ProcessId(9)),
                frag: Fragment { index: 0, value_len: 30, data: Bytes::from(vec![1u8; 10]) },
                src: ConfigId(1),
                dst: ConfigId(2),
                obj: ObjectId(0),
                rc: ProcessId(200),
                rpc: RpcId(1),
                op: op(),
            };
            s.handle_xfer(ProcessId(4), fwd);
        }
        assert!(
            s.dset.len() <= MAX_PENDING_TAGS_PER_OBJECT,
            "D set stays bounded per object, has {} entries",
            s.dset.len()
        );
    }

    #[test]
    fn storage_accounting_includes_pending_transfer_elements() {
        let reg = registry();
        let mut s = ServerActor::new(ProcessId(6), reg.clone());
        let src_code = build_code(reg.get(ConfigId(1)).code_params()).unwrap();
        let frags = src_code.encode(Value::filler(90, 5).as_bytes());
        let fwd = XferMsg::FwdElem {
            tag: Tag::new(1, ProcessId(9)),
            frag: frags[0].clone(),
            src: ConfigId(1),
            dst: ConfigId(2),
            obj: ObjectId(0),
            rc: ProcessId(200),
            rpc: RpcId(1),
            op: op(),
        };
        s.handle_xfer(ProcessId(4), fwd);
        assert_eq!(s.storage_bytes(), 30, "1 pending fragment of ceil(90/3) bytes");
    }
}
