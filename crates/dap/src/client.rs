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
    Configuration, DapKind, ObjectId, OpId, ProcessId, QuorumPhase, RpcId, Status, Step, Tag,
    TagValue, Time, Value, TAG0,
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

    /// This call's header; the phase id is stamped by [`with_rpc`] when
    /// a phase opens.
    fn hdr(&self) -> Hdr {
        Hdr { cfg: self.cfg.id, obj: self.obj, rpc: RpcId(0), op: self.op }
    }

    /// `body` to each of `targets`.
    fn to_each(&self, targets: &[ProcessId], body: DapBody) -> Vec<(ProcessId, DapMsg)> {
        let hdr = self.hdr();
        targets.iter().map(|&s| (s, DapMsg::new(hdr, body.clone()))).collect()
    }
}

type DapStep = Step<DapMsg, DapOutput>;

/// What the current phase folds its replies into. Each phase accepts
/// only its own reply kind.
enum Fold {
    AbdTag(Tag),
    AbdPair(TagValue),
    AbdPut,
    TreasTag(Tag),
    /// Each server's list: the read condition evaluates whole list-sets.
    TreasLists(HashMap<ProcessId, Vec<ListEntry>>),
    TreasPut,
    LdrTag(Tag),
    /// Replica acks; the ackers become the locations of phase 2.
    LdrPutData(Tag),
    LdrPutMeta,
    /// The highest `(tag, locations)` of the directories.
    LdrQuery(Tag, Vec<ProcessId>),
    /// Propagating the chosen metadata before the fetch.
    LdrPropagate(Tag, Vec<ProcessId>),
    /// The first replica to answer supplies the value.
    LdrFetch(TagValue),
    Done,
}

/// One in-flight DAP primitive call.
pub struct DapCall {
    ctx: DapCtx,
    phase: QuorumPhase<DapMsg>,
    fold: Fold,
}

impl DapCall {
    /// Starts a primitive call. `rpc_counter` is the caller's monotone
    /// phase-id counter (bumped for every broadcast phase).
    pub fn start(ctx: DapCtx, action: DapAction, rpc_counter: &mut u64) -> (Self, DapStep) {
        let cfg = ctx.cfg.clone();
        let all = |body| ctx.to_each(&cfg.servers, body);
        let quorum = cfg.quorum_size();
        let (fold, requests, threshold) = match (&cfg.dap, action) {
            (DapKind::Abd, DapAction::GetTag) => {
                (Fold::AbdTag(TAG0), all(DapBody::AbdQueryTag), quorum)
            }
            (DapKind::Abd, DapAction::GetData) => {
                (Fold::AbdPair(TagValue::initial()), all(DapBody::AbdQuery), quorum)
            }
            (DapKind::Abd, DapAction::PutData(tv)) => {
                (Fold::AbdPut, all(DapBody::AbdWrite(tv.tag, tv.value)), quorum)
            }
            (DapKind::Treas { .. }, DapAction::GetTag) => {
                (Fold::TreasTag(TAG0), all(DapBody::TreasQueryTag), quorum)
            }
            (DapKind::Treas { .. }, DapAction::GetData) => {
                (Fold::TreasLists(HashMap::new()), all(DapBody::TreasQueryList), quorum)
            }
            (DapKind::Treas { .. }, DapAction::PutData(tv)) => {
                (Fold::TreasPut, treas_put(&ctx, &tv), quorum)
            }
            (DapKind::Ldr { .. }, DapAction::GetTag) => {
                (Fold::LdrTag(TAG0), all(DapBody::LdrQueryTagLoc), quorum)
            }
            (DapKind::Ldr { .. }, DapAction::GetData) => {
                (Fold::LdrQuery(TAG0, Vec::new()), all(DapBody::LdrQueryTagLoc), quorum)
            }
            (DapKind::Ldr { f }, DapAction::PutData(tv)) => (
                Fold::LdrPutData(tv.tag),
                ctx.to_each(cfg.ldr_replicas(), DapBody::LdrPutData(tv.tag, tv.value)),
                f + 1,
            ),
        };
        let phase = QuorumPhase::new(rpc_counter, threshold, |rpc| with_rpc(requests, rpc));
        let step = phase.send(ctx.retry_interval);
        (DapCall { ctx, phase, fold }, step)
    }

    /// Opens the call's next phase under a fresh phase id.
    fn open(
        &mut self,
        fold: Fold,
        requests: Vec<(ProcessId, DapMsg)>,
        threshold: usize,
        rpc_counter: &mut u64,
    ) -> DapStep {
        self.fold = fold;
        self.phase = QuorumPhase::new(rpc_counter, threshold, |rpc| with_rpc(requests, rpc));
        self.phase.send(self.ctx.retry_interval)
    }

    /// Feeds a reply. Messages from other phases/configs, and replies of
    /// another kind than the phase asked for, are ignored.
    pub fn on_message(&mut self, from: ProcessId, msg: &DapMsg, rpc_counter: &mut u64) -> DapStep {
        if msg.hdr.cfg != self.ctx.cfg.id || msg.hdr.obj != self.ctx.obj {
            return Step::idle();
        }
        let rpc = msg.hdr.rpc;
        // One server that retired the configuration ends the call, in
        // any phase: it holds no state for it, only the finalized
        // successor the caller continues at.
        if let DapBody::Retired(next) = &msg.body {
            let live = !matches!(self.fold, Fold::Done) && rpc == self.phase.rpc();
            if live && next.status == Status::Finalized && next.cfg != self.ctx.cfg.id {
                self.fold = Fold::Done;
                return Step::done(DapOutput::Retired(*next));
            }
            return Step::idle();
        }
        match (&mut self.fold, &msg.body) {
            (Fold::AbdTag(max), DapBody::AbdTag(t))
            | (Fold::TreasTag(max), DapBody::TreasTag(t))
            | (Fold::LdrTag(max), DapBody::LdrTagLoc(t, _))
                if self.phase.hear(from, rpc) =>
            {
                *max = (*max).max(*t);
            }
            (Fold::AbdPair(best), DapBody::AbdTagValue(t, v)) if self.phase.hear(from, rpc) => {
                if *t > best.tag {
                    *best = TagValue::new(*t, v.clone());
                }
            }
            (Fold::AbdPut, DapBody::AbdAck)
            | (Fold::TreasPut, DapBody::TreasAck)
            | (Fold::LdrPutMeta | Fold::LdrPropagate(..), DapBody::LdrPutMetaAck)
                if self.phase.hear(from, rpc) => {}
            (Fold::TreasLists(lists), DapBody::TreasList(l)) if self.phase.hear(from, rpc) => {
                lists.insert(from, l.clone());
            }
            (Fold::LdrPutData(tag), DapBody::LdrPutDataAck(t))
                if t == tag && self.phase.hear(from, rpc) => {}
            (Fold::LdrQuery(tag, locs), DapBody::LdrTagLoc(t, l)) if self.phase.hear(from, rpc) => {
                if *t > *tag {
                    (*tag, *locs) = (*t, l.clone());
                }
            }
            (Fold::LdrFetch(tv), DapBody::LdrData(t, v))
                if *t == tv.tag && self.phase.hear(from, rpc) =>
            {
                tv.value = v.clone();
            }
            _ => return Step::idle(),
        }
        if self.phase.complete() {
            self.advance(rpc_counter)
        } else {
            Step::idle()
        }
    }

    /// The current phase has its replies: completes the call, or opens
    /// the algorithm's next phase.
    fn advance(&mut self, rpc_counter: &mut u64) -> DapStep {
        let cfg = self.ctx.cfg.clone();
        match std::mem::replace(&mut self.fold, Fold::Done) {
            Fold::AbdTag(t) | Fold::TreasTag(t) | Fold::LdrTag(t) => Step::done(DapOutput::Tag(t)),
            Fold::AbdPair(tv) | Fold::LdrFetch(tv) => Step::done(DapOutput::TagValue(tv)),
            Fold::AbdPut | Fold::TreasPut | Fold::LdrPutMeta => Step::done(DapOutput::Ack),
            Fold::TreasLists(lists) => match treas_evaluate(&lists, cfg.code_params().k, &cfg) {
                Some(tv) => Step::done(DapOutput::TagValue(tv)),
                // Not yet decodable: keep waiting for stragglers. The
                // phase's retry timer is still pending and triggers the
                // re-query (exponential in the retry count — see
                // `DapCtx::retry_interval`).
                None => {
                    self.fold = Fold::TreasLists(lists);
                    Step::idle()
                }
            },
            Fold::LdrPutData(tag) => {
                // Phase 2: PUT-METADATA(τ, U) to all directories.
                let locs = self.phase.heard().to_vec();
                let requests =
                    self.ctx.to_each(cfg.ldr_directories(), DapBody::LdrPutMeta(tag, locs));
                self.open(Fold::LdrPutMeta, requests, cfg.quorum_size(), rpc_counter)
            }
            Fold::LdrQuery(tag, locs) => {
                // Phase 2: propagate the chosen metadata.
                let body = DapBody::LdrPutMeta(tag, locs.clone());
                let requests = self.ctx.to_each(cfg.ldr_directories(), body);
                self.open(Fold::LdrPropagate(tag, locs), requests, cfg.quorum_size(), rpc_counter)
            }
            // Nothing written yet: the initial pair.
            Fold::LdrPropagate(TAG0, _) => Step::done(DapOutput::TagValue(TagValue::initial())),
            Fold::LdrPropagate(tag, locs) => {
                let DapKind::Ldr { f } = cfg.dap else { return Step::idle() };
                let targets: Vec<ProcessId> = locs.into_iter().take(f + 1).collect();
                let requests = self.ctx.to_each(&targets, DapBody::LdrGetData(tag));
                let fetch = Fold::LdrFetch(TagValue::new(tag, Value::default()));
                self.open(fetch, requests, 1, rpc_counter)
            }
            Fold::Done => Step::idle(),
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
        let base = self.ctx.retry_interval;
        match &mut self.fold {
            Fold::Done => Step::idle(),
            Fold::TreasLists(lists) => {
                lists.clear();
                let ctx = &self.ctx;
                let query =
                    |rpc| with_rpc(ctx.to_each(&ctx.cfg.servers, DapBody::TreasQueryList), rpc);
                self.phase.restart(rpc_counter, base, query)
            }
            _ => self.phase.resend(base),
        }
    }
}

/// `msgs` under phase id `rpc`.
fn with_rpc(mut msgs: Vec<(ProcessId, DapMsg)>, rpc: RpcId) -> Vec<(ProcessId, DapMsg)> {
    for (_, m) in &mut msgs {
        m.hdr.rpc = rpc;
    }
    msgs
}

/// The per-server coded fan-out of a TREAS `put-data`.
fn treas_put(ctx: &DapCtx, tv: &TagValue) -> Vec<(ProcessId, DapMsg)> {
    let (cfg, hdr) = (&ctx.cfg, ctx.hdr());
    #[expect(clippy::expect_used, reason = "registry-vetted configurations build their code")]
    let code = build_code(cfg.code_params()).expect("configuration carries valid code parameters");
    // Zero-copy fan-out: systematic fragments are views of the value's
    // own allocation (see `ErasureCode::encode_value`).
    let frags = code.encode_value(tv.value.bytes());
    cfg.servers
        .iter()
        .zip(frags)
        .map(|(&s, f)| (s, DapMsg::new(hdr, DapBody::TreasWrite(tv.tag, f))))
        .collect()
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
        run_call_reaching(servers, |_, _| true, cfg, action, rpc).expect("call stalled")
    }

    /// Like [`run_call`], but a request reaches server `to` only if
    /// `reach(to, request)`; `None` once the call stalls for replies.
    fn run_call_reaching(
        servers: &mut HashMap<ProcessId, DapServer>,
        reach: impl Fn(ProcessId, &DapMsg) -> bool,
        cfg: Arc<Configuration>,
        action: DapAction,
        rpc: &mut u64,
    ) -> Option<DapOutput> {
        let ctx = DapCtx::new(cfg, ObjectId(0), ProcessId(9), op());
        let (mut call, step) = DapCall::start(ctx, action, rpc);
        let mut inbox = step.sends;
        for _ in 0..64 {
            if inbox.is_empty() {
                return None;
            }
            let mut next = Vec::new();
            for (to, m) in inbox.drain(..).filter(|(to, m)| reach(*to, m)) {
                let srv = servers.get_mut(&to).expect("server exists");
                for (_back, reply) in srv.handle(ProcessId(9), m) {
                    let s = call.on_message(to, &reply, rpc);
                    if let Some(out) = s.output {
                        return Some(out);
                    }
                    next.extend(s.sends);
                }
            }
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
    fn ldr_get_data_satisfies_c3_across_disjoint_quorums() {
        // C3 (Definition 31): of two get-datas that do not overlap, the
        // second returns a tag ≥ the first's, even when they are answered
        // by different quorums and the put-data behind the first reached
        // only part of the servers. LDR's get-data writes the metadata it
        // chose back to a directory quorum before it fetches (Alg. 13).
        let reg = registry();
        let cfg = reg.get(ConfigId(2)).clone(); // LDR f = 1: replicas 1–3
        let mut servers = make_servers(&reg, 5);
        let mut rpc = 0;
        let within = |set: [u32; 3]| move |to: ProcessId, _: &DapMsg| set.contains(&to.0);
        let t = Tag::new(1, ProcessId(9));
        let v = Value::filler(24, 3);
        // The put-data stalls: its data reaches replicas 1 and 2, its
        // metadata only directory 1.
        let partial = |to: ProcessId, m: &DapMsg| match m.body {
            DapBody::LdrPutData(..) => to.0 <= 2,
            _ => to.0 == 1,
        };
        let put = DapAction::PutData(TagValue::new(t, v.clone()));
        assert_eq!(run_call_reaching(&mut servers, partial, cfg.clone(), put, &mut rpc), None);
        // Directories 2, 3 and 5 have not heard of `t` yet.
        let before = run_call_reaching(
            &mut servers,
            within([2, 3, 5]),
            cfg.clone(),
            DapAction::GetTag,
            &mut rpc,
        );
        assert_eq!(before, Some(DapOutput::Tag(TAG0)));
        // The first get-data is answered by {1, 3, 4} and sees `t`.
        let first = run_call_reaching(
            &mut servers,
            within([1, 3, 4]),
            cfg.clone(),
            DapAction::GetData,
            &mut rpc,
        );
        assert_eq!(first, Some(DapOutput::TagValue(TagValue::new(t, v.clone()))));
        // The second, by {2, 3, 5}, meets it only at directory 3.
        let second =
            run_call_reaching(&mut servers, within([2, 3, 5]), cfg, DapAction::GetData, &mut rpc)
                .expect("replica 2 holds the value");
        assert!(second.tag() >= t, "C3: {:?} < {t:?}", second.tag());
        assert_eq!(second, DapOutput::TagValue(TagValue::new(t, v)));
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
    fn one_retired_reply_ends_the_call_with_the_successor() {
        use ares_types::ConfigEntry;
        let reg = registry();
        let cfg = reg.get(ConfigId(1)).clone(); // TREAS, quorum 4 of 5
        let ctx = DapCtx::new(cfg, ObjectId(0), ProcessId(9), op());
        let mut rpc = 0;
        let (mut call, step) = DapCall::start(ctx, DapAction::GetData, &mut rpc);
        let rpc_id = step.sends[0].1.hdr.rpc;
        let retired = |rpc, next| {
            DapMsg::new(Hdr { cfg: ConfigId(1), obj: ObjectId(0), rpc, op: op() }, next)
        };
        let next = ConfigEntry::finalized(ConfigId(3));
        // Another phase's, a pending and a self-pointing one are ignored.
        let stale = retired(RpcId(999), DapBody::Retired(next));
        assert!(call.on_message(ProcessId(1), &stale, &mut rpc).is_idle());
        let pending = DapBody::Retired(ConfigEntry::pending(ConfigId(3)));
        assert!(call.on_message(ProcessId(1), &retired(rpc_id, pending), &mut rpc).is_idle());
        let looped = DapBody::Retired(ConfigEntry::finalized(ConfigId(1)));
        assert!(call.on_message(ProcessId(1), &retired(rpc_id, looped), &mut rpc).is_idle());
        // One server's redirect ends the call, whatever the others say.
        let out = call.on_message(ProcessId(2), &retired(rpc_id, DapBody::Retired(next)), &mut rpc);
        assert_eq!(out.output, Some(DapOutput::Retired(next)));
        assert!(out.sends.is_empty());
        assert!(call.on_timer(&mut rpc).is_idle(), "a finished call re-sends nothing");
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
        assert_eq!(s.timer_after.map(|d| d.get()), Some(400), "one retry counted");
    }
}
