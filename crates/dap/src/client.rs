//! Client-side engines for the three DAP implementations.
//!
//! A [`DapCall`] executes one primitive (`get-tag`, `get-data` or
//! `put-data`) against one configuration, as a pure state machine: the
//! caller transmits the [`Step`] sends, feeds replies back through
//! [`DapCall::on_message`] and timer expirations through
//! [`DapCall::on_timer`], and receives a [`DapOutput`] when the quorum
//! condition of the underlying algorithm is met.
//!
//! * **ABD** (Alg. 12): majority queries / writes of full replicas.
//! * **TREAS** (Alg. 2): `⌈(n+k)/2⌉`-threshold phases over coded
//!   elements; `get-data` returns the highest tag that is seen in at
//!   least `k` lists *and* whose value is decodable from at least `k`
//!   lists (`t^*_max = t^{dec}_max`), retrying otherwise — the case the
//!   paper describes as "the read does not complete" until enough
//!   elements appear, which Theorem 9 bounds by `δ`.
//! * **LDR** (Alg. 13): directory majority for metadata, `f + 1` of
//!   `2f + 1` replicas for data.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::{DapAction, DapBody, DapMsg, DapOutput, Hdr, ListEntry};
use ares_codes::{build_code, Fragment};
use ares_types::{
    Backoff, Configuration, DapKind, ObjectId, OpId, ProcessId, RpcId, Step, Tag, TagValue, Time,
    Value, TAG0,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Static context of a DAP call.
#[derive(Debug, Clone)]
pub struct DapCtx {
    /// The configuration the primitive runs in.
    pub cfg: Arc<Configuration>,
    /// The target object.
    pub obj: ObjectId,
    /// The invoking process.
    pub me: ProcessId,
    /// The client operation this call belongs to.
    pub op: OpId,
    /// Base retransmission timeout of every phase (TREAS `get-data`
    /// additionally uses it for its wait condition); retry `r` waits
    /// `retry_interval · 2^min(r,6)`. `ares-core` threads its
    /// round-trip estimate here (`srtt + 4·rttvar`, floored at
    /// `4 · ClientConfig::backoff_unit`), so a phase that is merely
    /// slow under load is not retransmitted and only a lost frame is;
    /// the exponential growth stays as the guard for when the estimate
    /// is stale (DESIGN.md §12).
    pub retry_interval: Time,
}

impl DapCtx {
    /// Creates a context with the default retry interval (tuned for the
    /// simulator's `[d, D] = [10, 50]` delay scale).
    pub fn new(cfg: Arc<Configuration>, obj: ObjectId, me: ProcessId, op: OpId) -> Self {
        DapCtx { cfg, obj, me, op, retry_interval: 200 }
    }
}

type DapStep = Step<DapMsg, DapOutput>;

enum Inner {
    AbdGetTag { replies: Vec<ProcessId>, max: Tag },
    AbdGetData { replies: Vec<ProcessId>, best: TagValue },
    AbdPut { acks: Vec<ProcessId> },
    TreasGetTag { replies: Vec<ProcessId>, max: Tag },
    TreasGetData { lists: HashMap<ProcessId, Vec<ListEntry>> },
    TreasPut { acks: Vec<ProcessId> },
    LdrGetTag { replies: Vec<ProcessId>, max: Tag },
    LdrPutData { tag: Tag, acks: Vec<ProcessId> },
    LdrPutMeta { tag: Tag, locs: Vec<ProcessId>, acks: Vec<ProcessId> },
    LdrReadQuery { replies: Vec<ProcessId>, best: (Tag, Vec<ProcessId>) },
    LdrReadMeta { best: (Tag, Vec<ProcessId>), acks: Vec<ProcessId> },
    LdrReadFetch { tag: Tag, targets: Vec<ProcessId> },
    Done,
}

/// One in-flight DAP primitive call.
pub struct DapCall {
    ctx: DapCtx,
    rpc: RpcId,
    inner: Inner,
    /// Pending `put-data` pair (kept for retransmission, and across
    /// LDR's two phases).
    put: Option<TagValue>,
    /// Retry rounds performed so far (all phases; exponential backoff).
    backoff: Backoff,
}

impl DapCall {
    /// Starts a primitive call. `rpc_counter` is the caller's monotone
    /// phase-id counter (bumped for every broadcast phase).
    pub fn start(ctx: DapCtx, action: DapAction, rpc_counter: &mut u64) -> (Self, DapStep) {
        let mut call = DapCall {
            ctx,
            rpc: RpcId(0),
            inner: Inner::Done,
            put: None,
            backoff: Backoff::default(),
        };
        let step = match (&call.ctx.cfg.dap, action) {
            (DapKind::Abd, DapAction::GetTag) => {
                call.inner = Inner::AbdGetTag { replies: Vec::new(), max: TAG0 };
                call.broadcast_all(DapBody::AbdQueryTag, rpc_counter)
            }
            (DapKind::Abd, DapAction::GetData) => {
                call.inner = Inner::AbdGetData { replies: Vec::new(), best: TagValue::initial() };
                call.broadcast_all(DapBody::AbdQuery, rpc_counter)
            }
            (DapKind::Abd, DapAction::PutData(tv)) => {
                call.inner = Inner::AbdPut { acks: Vec::new() };
                call.put = Some(tv.clone());
                call.broadcast_all(DapBody::AbdWrite(tv.tag, tv.value), rpc_counter)
            }
            (DapKind::Treas { .. }, DapAction::GetTag) => {
                call.inner = Inner::TreasGetTag { replies: Vec::new(), max: TAG0 };
                call.broadcast_all(DapBody::TreasQueryTag, rpc_counter)
            }
            (DapKind::Treas { .. }, DapAction::GetData) => {
                call.inner = Inner::TreasGetData { lists: HashMap::new() };
                call.broadcast_all(DapBody::TreasQueryList, rpc_counter)
            }
            (DapKind::Treas { .. }, DapAction::PutData(tv)) => {
                call.inner = Inner::TreasPut { acks: Vec::new() };
                call.treas_put_broadcast(tv, rpc_counter)
            }
            (DapKind::Ldr { .. }, DapAction::GetTag) => {
                call.inner = Inner::LdrGetTag { replies: Vec::new(), max: TAG0 };
                call.broadcast_all(DapBody::LdrQueryTagLoc, rpc_counter)
            }
            (DapKind::Ldr { .. }, DapAction::GetData) => {
                call.inner = Inner::LdrReadQuery { replies: Vec::new(), best: (TAG0, Vec::new()) };
                call.broadcast_all(DapBody::LdrQueryTagLoc, rpc_counter)
            }
            (DapKind::Ldr { .. }, DapAction::PutData(tv)) => {
                call.put = Some(tv.clone());
                call.inner = Inner::LdrPutData { tag: tv.tag, acks: Vec::new() };
                call.broadcast_to(
                    call.ctx.cfg.ldr_replicas().to_vec(),
                    DapBody::LdrPutData(tv.tag, tv.value),
                    rpc_counter,
                )
            }
        };
        (call, step)
    }

    fn hdr(&self) -> Hdr {
        Hdr { cfg: self.ctx.cfg.id, obj: self.ctx.obj, rpc: self.rpc, op: self.ctx.op }
    }

    fn broadcast_all(&mut self, body: DapBody, rpc_counter: &mut u64) -> DapStep {
        self.broadcast_to(self.ctx.cfg.servers.clone(), body, rpc_counter)
    }

    fn broadcast_to(
        &mut self,
        targets: Vec<ProcessId>,
        body: DapBody,
        rpc_counter: &mut u64,
    ) -> DapStep {
        *rpc_counter += 1;
        self.rpc = RpcId(*rpc_counter);
        let hdr = self.hdr();
        // Every phase broadcast arms a retransmit timer: quorum messages
        // travel over channels that faults may cut, so a phase whose
        // requests (or replies) are lost must re-send rather than wait
        // forever (see `on_timer`). The delay is exponential in the
        // rounds already retried, capped.
        Step::sends(targets.into_iter().map(|s| (s, DapMsg::new(hdr, body.clone()))).collect())
            .with_timer(self.backoff.arm(self.ctx.retry_interval))
    }

    fn treas_put_broadcast(&mut self, tv: TagValue, rpc_counter: &mut u64) -> DapStep {
        *rpc_counter += 1;
        self.rpc = RpcId(*rpc_counter);
        let hdr = self.hdr();
        let sends = self.treas_put_sends(hdr, &tv);
        self.put = Some(tv);
        Step::sends(sends).with_timer(self.backoff.arm(self.ctx.retry_interval))
    }

    /// The per-server coded fan-out of a TREAS `put-data`.
    fn treas_put_sends(&self, hdr: Hdr, tv: &TagValue) -> Vec<(ProcessId, DapMsg)> {
        #[expect(clippy::expect_used, reason = "registry-vetted configurations build their code")]
        let code = build_code(self.ctx.cfg.code_params())
            .expect("configuration carries valid code parameters");
        // Zero-copy fan-out: systematic fragments are views of the
        // value's own allocation (see `ErasureCode::encode_value`).
        let frags = code.encode_value(tv.value.bytes());
        self.ctx
            .cfg
            .servers
            .iter()
            .zip(frags)
            .map(|(&s, f)| (s, DapMsg::new(hdr, DapBody::TreasWrite(tv.tag, f))))
            .collect()
    }

    /// The quorum size of the configuration's own quorum system.
    fn quorum(&self) -> usize {
        self.ctx.cfg.quorum_size()
    }

    /// Feeds a reply. Messages from other phases/configs are ignored.
    pub fn on_message(&mut self, from: ProcessId, msg: &DapMsg, rpc_counter: &mut u64) -> DapStep {
        if msg.hdr.rpc != self.rpc || msg.hdr.cfg != self.ctx.cfg.id || msg.hdr.obj != self.ctx.obj
        {
            return Step::idle();
        }
        let quorum = self.quorum();
        match (&mut self.inner, &msg.body) {
            (Inner::AbdGetTag { replies, max }, DapBody::AbdTag(t)) => {
                if !replies.contains(&from) {
                    replies.push(from);
                    *max = (*max).max(*t);
                }
                if replies.len() >= quorum {
                    let out = *max;
                    self.inner = Inner::Done;
                    Step::done(DapOutput::Tag(out))
                } else {
                    Step::idle()
                }
            }
            (Inner::AbdGetData { replies, best }, DapBody::AbdTagValue(t, v)) => {
                if !replies.contains(&from) {
                    replies.push(from);
                    if *t > best.tag {
                        *best = TagValue::new(*t, v.clone());
                    }
                }
                if replies.len() >= quorum {
                    let out = best.clone();
                    self.inner = Inner::Done;
                    Step::done(DapOutput::TagValue(out))
                } else {
                    Step::idle()
                }
            }
            (Inner::AbdPut { acks }, DapBody::AbdAck) => {
                if collect_ack(acks, from, quorum) {
                    self.inner = Inner::Done;
                    Step::done(DapOutput::Ack)
                } else {
                    Step::idle()
                }
            }
            (Inner::TreasGetTag { replies, max }, DapBody::TreasTag(t)) => {
                if !replies.contains(&from) {
                    replies.push(from);
                    *max = (*max).max(*t);
                }
                if replies.len() >= quorum {
                    let out = *max;
                    self.inner = Inner::Done;
                    Step::done(DapOutput::Tag(out))
                } else {
                    Step::idle()
                }
            }
            (Inner::TreasPut { acks }, DapBody::TreasAck) => {
                if collect_ack(acks, from, quorum) {
                    self.inner = Inner::Done;
                    Step::done(DapOutput::Ack)
                } else {
                    Step::idle()
                }
            }
            (Inner::TreasGetData { lists }, DapBody::TreasList(l)) => {
                lists.insert(from, l.clone());
                if lists.len() < quorum {
                    return Step::idle();
                }
                let k = self.ctx.cfg.code_params().k;
                match treas_evaluate(lists, k, &self.ctx.cfg) {
                    Some(tv) => {
                        self.inner = Inner::Done;
                        Step::done(DapOutput::TagValue(tv))
                    }
                    // Not yet decodable: keep waiting for stragglers. The
                    // retry timer armed by the phase broadcast is still
                    // pending and triggers the re-query (exponential in
                    // the retry count — see `DapCtx::retry_interval`).
                    None => Step::idle(),
                }
            }
            (Inner::LdrGetTag { replies, max }, DapBody::LdrTagLoc(t, _)) => {
                if !replies.contains(&from) {
                    replies.push(from);
                    *max = (*max).max(*t);
                }
                if replies.len() >= quorum {
                    let out = *max;
                    self.inner = Inner::Done;
                    Step::done(DapOutput::Tag(out))
                } else {
                    Step::idle()
                }
            }
            (Inner::LdrPutData { tag, acks }, DapBody::LdrPutDataAck(t)) if t == tag => {
                let DapKind::Ldr { f } = self.ctx.cfg.dap else { return Step::idle() };
                if !acks.contains(&from) {
                    acks.push(from);
                }
                if acks.len() > f {
                    // Phase 2: PUT-METADATA(τ, U) to all directories.
                    let tag = *tag;
                    let locs = acks.clone();
                    self.inner = Inner::LdrPutMeta { tag, locs: locs.clone(), acks: Vec::new() };
                    self.broadcast_to(
                        self.ctx.cfg.ldr_directories().to_vec(),
                        DapBody::LdrPutMeta(tag, locs),
                        rpc_counter,
                    )
                } else {
                    Step::idle()
                }
            }
            (Inner::LdrPutMeta { acks, .. }, DapBody::LdrPutMetaAck) => {
                if collect_ack(acks, from, quorum) {
                    self.inner = Inner::Done;
                    Step::done(DapOutput::Ack)
                } else {
                    Step::idle()
                }
            }
            (Inner::LdrReadQuery { replies, best }, DapBody::LdrTagLoc(t, locs)) => {
                if !replies.contains(&from) {
                    replies.push(from);
                    if *t > best.0 {
                        *best = (*t, locs.clone());
                    }
                }
                if replies.len() >= quorum {
                    // Phase 2: propagate the chosen metadata.
                    let best = best.clone();
                    self.inner = Inner::LdrReadMeta { best: best.clone(), acks: Vec::new() };
                    self.broadcast_to(
                        self.ctx.cfg.ldr_directories().to_vec(),
                        DapBody::LdrPutMeta(best.0, best.1),
                        rpc_counter,
                    )
                } else {
                    Step::idle()
                }
            }
            (Inner::LdrReadMeta { best, acks }, DapBody::LdrPutMetaAck) => {
                if !acks.contains(&from) {
                    acks.push(from);
                }
                if acks.len() >= quorum {
                    let (tag, locs) = best.clone();
                    if tag == TAG0 {
                        // Nothing written yet: the initial pair.
                        self.inner = Inner::Done;
                        return Step::done(DapOutput::TagValue(TagValue::initial()));
                    }
                    let DapKind::Ldr { f } = self.ctx.cfg.dap else { return Step::idle() };
                    let targets: Vec<ProcessId> = locs.into_iter().take(f + 1).collect();
                    self.inner = Inner::LdrReadFetch { tag, targets: targets.clone() };
                    self.broadcast_to(targets, DapBody::LdrGetData(tag), rpc_counter)
                } else {
                    Step::idle()
                }
            }
            (Inner::LdrReadFetch { tag, .. }, DapBody::LdrData(t, v)) if t == tag => {
                let out = TagValue::new(*t, v.clone());
                self.inner = Inner::Done;
                Step::done(DapOutput::TagValue(out))
            }
            _ => Step::idle(),
        }
    }

    /// Handles the retry timer of the current phase.
    ///
    /// * **TREAS `get-data`** re-broadcasts the `QUERY-LIST` under a
    ///   *fresh* phase id, discarding the partial quorum: its wait
    ///   condition evaluates whole list-sets, and a stale snapshot can
    ///   pin `t^*_max` above what is decodable.
    /// * **Every other phase** retransmits its request under the *same*
    ///   phase id to the servers that have not answered — collected
    ///   replies keep counting, duplicate requests are answered
    ///   idempotently by the servers and duplicate replies are
    ///   deduplicated by sender — so quorum progress is never
    ///   discarded. Without this, a single lost frame (cut link, gray
    ///   node, crashed-then-healed route) stalls the operation forever:
    ///   quorum phases otherwise assume reliable channels.
    pub fn on_timer(&mut self, rpc_counter: &mut u64) -> DapStep {
        match &self.inner {
            Inner::Done => Step::idle(),
            Inner::TreasGetData { .. } => {
                let timer = self.backoff.rearm(self.ctx.retry_interval);
                self.inner = Inner::TreasGetData { lists: HashMap::new() };
                self.broadcast_all(DapBody::TreasQueryList, rpc_counter).with_timer(timer)
            }
            _ => {
                let timer = self.backoff.rearm(self.ctx.retry_interval);
                Step::sends(self.resend()).with_timer(timer)
            }
        }
    }

    /// Rebuilds the current phase's outbound messages (same phase id)
    /// for the targets that have not replied: a loss-recovery
    /// retransmission re-sends what may have been lost, nothing else.
    fn resend(&self) -> Vec<(ProcessId, DapMsg)> {
        let hdr = self.hdr();
        let servers = &self.ctx.cfg.servers;
        let msgs = |targets: &[ProcessId], heard: &[ProcessId], body: DapBody| {
            targets
                .iter()
                .filter(|s| !heard.contains(s))
                .map(|&s| (s, DapMsg::new(hdr, body.clone())))
                .collect::<Vec<_>>()
        };
        #[expect(clippy::expect_used, reason = "put phases store their pair at start()")]
        let put = || self.put.as_ref().expect("put phase retains its pair");
        match &self.inner {
            Inner::AbdGetTag { replies, .. } => msgs(servers, replies, DapBody::AbdQueryTag),
            Inner::AbdGetData { replies, .. } => msgs(servers, replies, DapBody::AbdQuery),
            Inner::AbdPut { acks } => {
                let tv = put();
                msgs(servers, acks, DapBody::AbdWrite(tv.tag, tv.value.clone()))
            }
            Inner::TreasGetTag { replies, .. } => msgs(servers, replies, DapBody::TreasQueryTag),
            Inner::TreasPut { acks } => {
                let mut sends = self.treas_put_sends(hdr, put());
                sends.retain(|(s, _)| !acks.contains(s));
                sends
            }
            Inner::LdrGetTag { replies, .. } | Inner::LdrReadQuery { replies, .. } => {
                msgs(servers, replies, DapBody::LdrQueryTagLoc)
            }
            Inner::LdrPutData { tag, acks } => msgs(
                self.ctx.cfg.ldr_replicas(),
                acks,
                DapBody::LdrPutData(*tag, put().value.clone()),
            ),
            Inner::LdrPutMeta { tag, locs, acks } => {
                msgs(self.ctx.cfg.ldr_directories(), acks, DapBody::LdrPutMeta(*tag, locs.clone()))
            }
            Inner::LdrReadMeta { best, acks } => msgs(
                self.ctx.cfg.ldr_directories(),
                acks,
                DapBody::LdrPutMeta(best.0, best.1.clone()),
            ),
            // The first reply completes a fetch: nobody has answered yet.
            Inner::LdrReadFetch { tag, targets } => msgs(targets, &[], DapBody::LdrGetData(*tag)),
            Inner::TreasGetData { .. } | Inner::Done => Vec::new(),
        }
    }
}

fn collect_ack(acks: &mut Vec<ProcessId>, from: ProcessId, quorum: usize) -> bool {
    if !acks.contains(&from) {
        acks.push(from);
    }
    acks.len() >= quorum
}

/// Evaluates the TREAS read condition (Alg. 2 lines 11-17) over the lists
/// received so far. Returns the decoded pair when
/// `t^*_max = t^{dec}_max` and the value decodes; `None` otherwise.
///
/// Servers fold their garbage-collected prefix into one floor entry
/// (see `TreasState`), so a list *holds* `t` iff `t` is explicit in it
/// or `t ≤` its floor — its minimum-tag entry, when that entry is `⊥`.
/// Candidates are the explicit tags, floors included; coded elements
/// are never folded, so `t^{dec}_max` is computed as in the paper.
fn treas_evaluate(
    lists: &HashMap<ProcessId, Vec<ListEntry>>,
    k: usize,
    cfg: &Configuration,
) -> Option<TagValue> {
    let floor = |l: &[ListEntry]| {
        l.iter().min_by_key(|e| e.tag).filter(|e| e.frag.is_none()).map(|e| e.tag)
    };
    let holds =
        |l: &[ListEntry], t: Tag| l.iter().any(|e| e.tag == t) || floor(l).is_some_and(|w| t <= w);
    let codes = |l: &[ListEntry], t: Tag| l.iter().any(|e| e.tag == t && e.frag.is_some());
    // Highest first, so the first candidate that passes is the maximum.
    let mut candidates: Vec<Tag> = lists.values().flatten().map(|e| e.tag).collect();
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    candidates.dedup();
    let max_in_k_lists = |pred: &dyn Fn(&[ListEntry], Tag) -> bool| {
        candidates.iter().copied().find(|&t| lists.values().filter(|l| pred(l, t)).count() >= k)
    };
    let t_star_max = max_in_k_lists(&holds)?;
    let t_dec_max = max_in_k_lists(&codes)?;
    if t_star_max != t_dec_max {
        return None;
    }
    if t_dec_max == TAG0 {
        return Some(TagValue::initial());
    }
    // Collect distinct-index fragments for the chosen tag and decode.
    let mut frags: Vec<Fragment> = Vec::new();
    for list in lists.values() {
        for e in list {
            if e.tag == t_dec_max {
                if let Some(f) = &e.frag {
                    if !frags.iter().any(|g| g.index == f.index) {
                        frags.push(f.clone());
                    }
                }
            }
        }
    }
    #[expect(clippy::expect_used, reason = "registry-vetted configurations build their code")]
    let code = build_code(cfg.code_params()).expect("valid code params");
    match code.decode(&frags) {
        Ok(bytes) => Some(TagValue::new(t_dec_max, Value::new(bytes))),
        Err(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::DapServer;
    use ares_types::{ConfigId, ConfigRegistry};

    fn registry() -> Arc<ConfigRegistry> {
        ConfigRegistry::from_configs([
            Configuration::abd(ConfigId(0), (1..=3).map(ProcessId).collect()),
            Configuration::treas(ConfigId(1), (1..=5).map(ProcessId).collect(), 3, 2),
            Configuration::ldr(ConfigId(2), (1..=5).map(ProcessId).collect(), 1),
            Configuration::abd(ConfigId(3), (1..=5).map(ProcessId).collect()),
        ])
    }

    fn op() -> OpId {
        OpId { client: ProcessId(9), seq: 0 }
    }

    /// Synchronously runs a DAP call against in-memory servers.
    fn run_call(
        servers: &mut HashMap<ProcessId, DapServer>,
        cfg: Arc<Configuration>,
        action: DapAction,
        rpc: &mut u64,
    ) -> DapOutput {
        let ctx = DapCtx::new(cfg, ObjectId(0), ProcessId(9), op());
        let (mut call, step) = DapCall::start(ctx, action, rpc);
        let mut inbox = step.sends;
        for _ in 0..64 {
            let mut next = Vec::new();
            for (to, m) in inbox.drain(..) {
                let srv = servers.get_mut(&to).expect("server exists");
                for (_back, reply) in srv.handle(ProcessId(9), m) {
                    let s = call.on_message(to, &reply, rpc);
                    if let Some(out) = s.output {
                        return out;
                    }
                    next.extend(s.sends);
                }
            }
            assert!(!next.is_empty(), "call stalled");
            inbox = next;
        }
        panic!("no completion in 64 rounds");
    }

    fn make_servers(reg: &Arc<ConfigRegistry>, n: u32) -> HashMap<ProcessId, DapServer> {
        (1..=n).map(|i| (ProcessId(i), DapServer::new(ProcessId(i), reg.clone()))).collect()
    }

    #[test]
    fn abd_write_then_read_roundtrip() {
        let reg = registry();
        let cfg = reg.get(ConfigId(0)).clone();
        let mut servers = make_servers(&reg, 5);
        let mut rpc = 0;
        let t = Tag::new(1, ProcessId(9));
        let v = Value::new(vec![1, 2, 3]);
        let out = run_call(
            &mut servers,
            cfg.clone(),
            DapAction::PutData(TagValue::new(t, v.clone())),
            &mut rpc,
        );
        assert_eq!(out, DapOutput::Ack);
        let out = run_call(&mut servers, cfg.clone(), DapAction::GetData, &mut rpc);
        assert_eq!(out, DapOutput::TagValue(TagValue::new(t, v)));
        let out = run_call(&mut servers, cfg, DapAction::GetTag, &mut rpc);
        assert_eq!(out, DapOutput::Tag(t));
    }

    #[test]
    fn treas_write_then_read_roundtrip() {
        let reg = registry();
        let cfg = reg.get(ConfigId(1)).clone();
        let mut servers = make_servers(&reg, 5);
        let mut rpc = 0;
        let t = Tag::new(1, ProcessId(9));
        let v = Value::filler(64, 7);
        let out = run_call(
            &mut servers,
            cfg.clone(),
            DapAction::PutData(TagValue::new(t, v.clone())),
            &mut rpc,
        );
        assert_eq!(out, DapOutput::Ack);
        // At least a quorum of servers processed the write (the driver
        // returns as soon as ⌈(n+k)/2⌉ = 4 acks arrive).
        let holders = servers
            .values()
            .filter_map(|s| s.treas_state_ref(ConfigId(1), ObjectId(0)))
            .filter(|st| st.max_tag() == t)
            .count();
        assert!(holders >= 4, "quorum of servers stored the write, got {holders}");
        let out = run_call(&mut servers, cfg.clone(), DapAction::GetData, &mut rpc);
        assert_eq!(out, DapOutput::TagValue(TagValue::new(t, v)));
        let out = run_call(&mut servers, cfg, DapAction::GetTag, &mut rpc);
        assert_eq!(out, DapOutput::Tag(t));
    }

    #[test]
    fn treas_read_of_initial_state_returns_t0_v0() {
        let reg = registry();
        let cfg = reg.get(ConfigId(1)).clone();
        let mut servers = make_servers(&reg, 5);
        let mut rpc = 0;
        let out = run_call(&mut servers, cfg, DapAction::GetData, &mut rpc);
        assert_eq!(out, DapOutput::TagValue(TagValue::initial()));
    }

    #[test]
    fn ldr_write_then_read_roundtrip() {
        let reg = registry();
        let cfg = reg.get(ConfigId(2)).clone();
        let mut servers = make_servers(&reg, 5);
        let mut rpc = 0;
        let t = Tag::new(4, ProcessId(9));
        let v = Value::new(vec![7; 10]);
        let out = run_call(
            &mut servers,
            cfg.clone(),
            DapAction::PutData(TagValue::new(t, v.clone())),
            &mut rpc,
        );
        assert_eq!(out, DapOutput::Ack);
        let out = run_call(&mut servers, cfg.clone(), DapAction::GetData, &mut rpc);
        assert_eq!(out, DapOutput::TagValue(TagValue::new(t, v)));
        let out = run_call(&mut servers, cfg, DapAction::GetTag, &mut rpc);
        assert_eq!(out, DapOutput::Tag(t));
    }

    #[test]
    fn ldr_read_of_initial_state() {
        let reg = registry();
        let cfg = reg.get(ConfigId(2)).clone();
        let mut servers = make_servers(&reg, 5);
        let mut rpc = 0;
        let out = run_call(&mut servers, cfg, DapAction::GetData, &mut rpc);
        assert_eq!(out, DapOutput::TagValue(TagValue::initial()));
    }

    #[test]
    fn stale_replies_are_ignored() {
        let reg = registry();
        let cfg = reg.get(ConfigId(0)).clone();
        let ctx = DapCtx::new(cfg, ObjectId(0), ProcessId(9), op());
        let mut rpc = 0;
        let (mut call, _step) = DapCall::start(ctx, DapAction::GetTag, &mut rpc);
        // Reply with a wrong rpc id.
        let bad = DapMsg::new(
            Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(999), op: op() },
            DapBody::AbdTag(Tag::new(9, ProcessId(1))),
        );
        assert!(call.on_message(ProcessId(1), &bad, &mut rpc).is_idle());
        // Reply from the wrong config.
        let bad = DapMsg::new(
            Hdr { cfg: ConfigId(1), obj: ObjectId(0), rpc: RpcId(1), op: op() },
            DapBody::AbdTag(Tag::new(9, ProcessId(1))),
        );
        assert!(call.on_message(ProcessId(1), &bad, &mut rpc).is_idle());
    }

    #[test]
    fn duplicate_replies_do_not_count_twice() {
        let reg = registry();
        let cfg = reg.get(ConfigId(0)).clone(); // quorum = 2 of 3
        let ctx = DapCtx::new(cfg, ObjectId(0), ProcessId(9), op());
        let mut rpc = 0;
        let (mut call, step) = DapCall::start(ctx, DapAction::GetTag, &mut rpc);
        let rpc_id = step.sends[0].1.hdr.rpc;
        let mk = |z| {
            DapMsg::new(
                Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: rpc_id, op: op() },
                DapBody::AbdTag(Tag::new(z, ProcessId(1))),
            )
        };
        assert!(call.on_message(ProcessId(1), &mk(1), &mut rpc).output.is_none());
        // duplicate from the same server
        assert!(call.on_message(ProcessId(1), &mk(1), &mut rpc).output.is_none());
        // second distinct server completes the quorum
        let out = call.on_message(ProcessId(2), &mk(5), &mut rpc).output.unwrap();
        assert_eq!(out, DapOutput::Tag(Tag::new(5, ProcessId(1))));
    }

    #[test]
    fn treas_get_data_waits_when_latest_tag_not_decodable() {
        // 5 servers, k=3. Simulate a partial write: only 2 servers hold
        // tag t1's fragments, but all 5 know the tag (e.g. via lists).
        let reg = registry();
        let cfg = reg.get(ConfigId(1)).clone();
        let t1 = Tag::new(1, ProcessId(8));
        let code = build_code(cfg.code_params()).unwrap();
        let frags = code.encode(Value::filler(30, 1).as_bytes());

        let mut lists: HashMap<ProcessId, Vec<ListEntry>> = HashMap::new();
        for i in 1..=5u32 {
            let mut l = vec![ListEntry {
                tag: TAG0,
                frag: Some(Fragment { index: 0, value_len: 0, data: bytes::Bytes::new() }),
            }];
            // every server knows the tag; only servers 1,2 kept elements
            l.push(ListEntry {
                tag: t1,
                frag: if i <= 2 { Some(frags[(i - 1) as usize].clone()) } else { None },
            });
            lists.insert(ProcessId(i), l);
        }
        // t*_max = t1 (5 lists) but t_dec_max = t0: condition fails.
        assert!(treas_evaluate(&lists, 3, &cfg).is_none());

        // Give a third server its element: now decodable.
        lists.get_mut(&ProcessId(3)).unwrap()[1].frag = Some(frags[2].clone());
        let tv = treas_evaluate(&lists, 3, &cfg).expect("now decodable");
        assert_eq!(tv.tag, t1);
        assert_eq!(tv.value, Value::filler(30, 1));
    }

    #[test]
    fn put_broadcast_performs_zero_deep_value_copies() {
        let reg = registry();
        let mut rpc = 0;
        // ABD put: every per-target message views the one value buffer.
        let cfg = reg.get(ConfigId(0)).clone();
        let v = Value::filler(1 << 20, 9);
        let ctx = DapCtx::new(cfg, ObjectId(0), ProcessId(9), op());
        let t = Tag::new(1, ProcessId(9));
        let (_call, step) =
            DapCall::start(ctx, DapAction::PutData(TagValue::new(t, v.clone())), &mut rpc);
        assert_eq!(step.sends.len(), 3);
        for (_, m) in &step.sends {
            let DapBody::AbdWrite(_, val) = &m.body else { panic!("expected AbdWrite") };
            assert!(
                bytes::Bytes::shares_allocation(v.bytes(), val.bytes()),
                "broadcast must not deep-copy the value"
            );
        }

        // TREAS put: the systematic fragments of the fan-out are
        // zero-copy views of the value's own allocation (full shards);
        // only padding-tail and parity fragments own buffers.
        let cfg = reg.get(ConfigId(1)).clone(); // [5, 3]
        let len = 3 * 4096; // divisible by k: all systematic shards full
        let v = Value::filler(len, 10);
        let ctx = DapCtx::new(cfg, ObjectId(0), ProcessId(9), op());
        let (_call, step) =
            DapCall::start(ctx, DapAction::PutData(TagValue::new(t, v.clone())), &mut rpc);
        assert_eq!(step.sends.len(), 5);
        let mut shared = 0;
        for (_, m) in &step.sends {
            let DapBody::TreasWrite(_, f) = &m.body else { panic!("expected TreasWrite") };
            if bytes::Bytes::shares_allocation(v.bytes(), &f.data) {
                shared += 1;
            }
        }
        assert_eq!(shared, 3, "all k systematic fragments view the value allocation");
    }

    #[test]
    fn a_decoded_value_adopts_the_decoders_buffer() {
        // What `treas_evaluate` does with a decode: the `Vec` the code
        // stitched the value into *becomes* the value — no second copy.
        let code = build_code(registry().get(ConfigId(1)).code_params()).unwrap();
        let original = Value::filler(64 * 1024, 5);
        let decoded = code.decode(&code.encode_value(original.bytes())).unwrap();
        let at = decoded.as_ptr();
        let value = Value::new(decoded);
        assert_eq!(value.as_bytes().as_ptr(), at);
        assert_eq!(value, original);
    }

    #[test]
    fn floor_counts_as_holding_every_tag_below_it() {
        // The interleaving a floor-blind reader gets wrong (δ = 1):
        // write t2 completed — servers 1-4 inserted it — then three
        // newer writes reached server 3, which folded t2 under its
        // floor t3. Server 5 still holds t1. From lists 1, 2, 3 and 5,
        // t1 is explicit in three lists and decodable while t2 is
        // explicit in only two: counting explicit entries alone returns
        // t1 < t2. Server 3's floor holds t2 as well, so t*max = t2 ≠
        // t_dec_max and the read must wait.
        let reg = registry();
        let cfg = reg.get(ConfigId(1)).clone();
        let tag = |z| Tag::new(z, ProcessId(8));
        let code = build_code(cfg.code_params()).unwrap();
        let coded = |z: u64, i: usize| {
            let frags = code.encode(Value::filler(30, z).as_bytes());
            ListEntry { tag: tag(z), frag: Some(frags[i - 1].clone()) }
        };
        let bottom = |tag| ListEntry { tag, frag: None };
        let mut lists: HashMap<ProcessId, Vec<ListEntry>> = HashMap::new();
        lists.insert(ProcessId(1), vec![coded(1, 1), coded(2, 1)]);
        lists.insert(ProcessId(2), vec![coded(1, 2), coded(2, 2)]);
        lists.insert(ProcessId(3), vec![bottom(tag(3)), coded(4, 3), coded(5, 3)]);
        lists.insert(ProcessId(5), vec![bottom(TAG0), coded(1, 5)]);
        assert!(treas_evaluate(&lists, 3, &cfg).is_none(), "t1 is below the completed t2");

        // Server 4 saw one of the newer writes: its list brings the
        // third element of t2, so t*max = t_dec_max = t2.
        lists.insert(ProcessId(4), vec![bottom(tag(1)), coded(2, 4), coded(3, 4)]);
        let tv = treas_evaluate(&lists, 3, &cfg).expect("t2 is decodable now");
        assert_eq!((tv.tag, tv.value), (tag(2), Value::filler(30, 2)));
    }

    type Sends = Vec<(ProcessId, DapMsg)>;

    /// Starts `action` on the five-server configuration `cfg`, answers
    /// from the first `heard` targets with `reply`, fires the retry
    /// timer, and returns (first transmission, retransmission).
    fn retransmission(
        cfg: ConfigId,
        action: DapAction,
        reply: DapBody,
        heard: usize,
    ) -> (Sends, Sends) {
        let ctx = DapCtx::new(registry().get(cfg).clone(), ObjectId(0), ProcessId(9), op());
        let mut rpc = 0;
        let (mut call, first) = DapCall::start(ctx, action, &mut rpc);
        assert_eq!(first.sends.len(), 5);
        for (from, m) in &first.sends[..heard] {
            let step = call.on_message(*from, &DapMsg::new(m.hdr, reply.clone()), &mut rpc);
            assert!(step.output.is_none(), "{heard} replies are short of a quorum");
        }
        let again = call.on_timer(&mut rpc);
        assert!(again.timer_after.is_some(), "the retransmission re-arms the timer");
        (first.sends, again.sends)
    }

    #[test]
    fn timer_resends_only_to_servers_that_have_not_answered() {
        let tv = TagValue::new(Tag::new(1, ProcessId(9)), Value::filler(90, 4));
        // TREAS put-data, 3 of 5 acked (quorum 4): the other two get
        // their own coded elements again, under the same phase id.
        let (first, again) =
            retransmission(ConfigId(1), DapAction::PutData(tv.clone()), DapBody::TreasAck, 3);
        assert_eq!(again, first[3..]);
        // TREAS get-tag, 3 of 5 answered.
        let (first, again) =
            retransmission(ConfigId(1), DapAction::GetTag, DapBody::TreasTag(TAG0), 3);
        assert_eq!(again, first[3..]);
        // ABD put-data on five replicas, 2 of 5 acked (majority 3).
        let (first, again) =
            retransmission(ConfigId(3), DapAction::PutData(tv), DapBody::AbdAck, 2);
        assert_eq!(again, first[2..]);
    }

    #[test]
    fn treas_timer_rebroadcasts_with_fresh_rpc() {
        let reg = registry();
        let cfg = reg.get(ConfigId(1)).clone();
        let ctx = DapCtx::new(cfg, ObjectId(0), ProcessId(9), op());
        let mut rpc = 0;
        let (mut call, step) = DapCall::start(ctx, DapAction::GetData, &mut rpc);
        let first_rpc = step.sends[0].1.hdr.rpc;
        let s = call.on_timer(&mut rpc);
        assert_eq!(s.sends.len(), 5);
        assert_ne!(s.sends[0].1.hdr.rpc, first_rpc);
        assert_eq!(call.backoff.attempts(), 1);
    }
}
