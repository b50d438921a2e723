//! The client-side protocol engine of ARES, as a stack of frames.
//!
//! Every ARES client operation is a nest of sub-protocols: a `write`
//! (Alg. 7) performs a `read-config` (Alg. 4), which performs
//! `read-next-config` and `put-config` quorum phases; a `reconfig`
//! (Alg. 5) additionally runs a consensus proposal and — in the
//! ARES-TREAS variant (Alg. 8) — a direct state transfer. Each of those
//! is a [`Frame`]; frames push sub-frames like a call stack and hand
//! their result ([`FrameOut`]) to their parent when they complete, which
//! keeps every algorithm of the paper recognizable line-by-line.
//!
//! Only the top frame ever has messages in flight (a frame starts its
//! children only between its own quorum phases), so the client actor
//! routes incoming replies and timers to the top frame exclusively.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::msg::{CfgMsg, Msg, XferMsg};
use ares_consensus::{Proposer, ProposerConfig};
use ares_dap::client::{DapCall, DapCtx};
use ares_dap::{DapAction, DapOutput};
use ares_types::{
    Backoff, ConfigEntry, ConfigId, ConfigRegistry, ConfigSeq, Delay, ObjectId, OpId, ProcessId,
    RpcId, Status, Tag, TagValue, Time, Value, TAG0,
};
use std::sync::Arc;

/// How `update-config` migrates object state into a new configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransferMode {
    /// Plain ARES (Alg. 5): the reconfigurer reads the value
    /// (`get-data`) and writes it into the new configuration
    /// (`put-data`) — the client is the data conduit.
    #[default]
    Plain,
    /// ARES-TREAS (Section 5, Algs. 8–9): the reconfigurer only reads
    /// tags; coded elements flow directly from the old configuration's
    /// servers to the new one's, which decode and re-encode.
    Direct,
}

/// Mutable environment threaded through frame transitions.
pub(crate) struct Env<'a> {
    /// The *host* process id: the network-routable identity replies and
    /// direct sends (e.g. `XferAck`) are addressed to.
    pub me: ProcessId,
    /// The *logical* writer id of the invoking session. Tags and Paxos
    /// ballots are minted under this id, so concurrent sessions
    /// multiplexed over one host never collide on either (the paper's
    /// model gives every sequential client its own id; a session is that
    /// client). Equal to `me` for the default session.
    pub writer: ProcessId,
    pub registry: &'a Arc<ConfigRegistry>,
    pub rpc: &'a mut u64,
    pub op: OpId,
    pub obj: ObjectId,
    pub mode: TransferMode,
    pub backoff_unit: Time,
    /// The client's current retransmission timeout: its round-trip
    /// estimate clamped to `[4, 4 << 6] × backoff_unit` (the floor
    /// before any sample). The base every quorum phase grows its retry
    /// delay from.
    pub rto: Time,
}

impl Env<'_> {
    fn fresh_rpc(&mut self) -> RpcId {
        *self.rpc += 1;
        RpcId(*self.rpc)
    }

    fn cfg(&self, id: ConfigId) -> Arc<ares_types::Configuration> {
        self.registry.get(id).clone()
    }
}

/// Result a frame hands to its parent on completion.
#[derive(Debug, Clone)]
pub(crate) enum FrameOut {
    /// `read-config` finished with this (possibly extended) sequence.
    Seq(ConfigSeq),
    /// `read-next-config` finished.
    Next(Option<ConfigEntry>),
    /// `put-config` / state transfer finished.
    Ack,
    /// A DAP primitive finished.
    Dap(DapOutput),
    /// Consensus decided this configuration.
    Decided(ConfigId),
    /// Top-level `write` finished: the written tag plus the final local
    /// configuration sequence.
    WriteDone(Tag, ConfigSeq),
    /// Top-level `read` finished.
    ReadDone(TagValue, ConfigSeq),
    /// Top-level `reconfig` finished: the installed configuration.
    ReconDone(ConfigId, ConfigSeq),
}

/// Effects of one frame transition.
pub(crate) struct FStep {
    pub sends: Vec<(ProcessId, Msg)>,
    pub timer: Option<Delay>,
    pub out: Option<FrameOut>,
    pub push: Option<Frame>,
}

impl FStep {
    fn idle() -> Self {
        FStep { sends: Vec::new(), timer: None, out: None, push: None }
    }
    fn sends(sends: Vec<(ProcessId, Msg)>) -> Self {
        FStep { sends, timer: None, out: None, push: None }
    }
    fn out(out: FrameOut) -> Self {
        FStep { sends: Vec::new(), timer: None, out: Some(out), push: None }
    }
    pub(crate) fn push(frame: Frame) -> Self {
        FStep { sends: Vec::new(), timer: None, out: None, push: Some(frame) }
    }
}

// ---------------------------------------------------------------------
// Leaf frames: quorum phases of the configuration service
// ---------------------------------------------------------------------

/// `read-next-config(c)` (Alg. 4): query a quorum of `c.Servers` for
/// their `nextC` pointers; prefer a finalized reply over a pending one.
pub(crate) struct ReadNextFrame {
    base: Arc<ares_types::Configuration>,
    rpc: RpcId,
    replies: Vec<ProcessId>,
    best: Option<ConfigEntry>,
    backoff: Backoff,
}

impl ReadNextFrame {
    fn new(base: Arc<ares_types::Configuration>) -> Self {
        ReadNextFrame {
            base,
            rpc: RpcId(0),
            replies: Vec::new(),
            best: None,
            backoff: Backoff::default(),
        }
    }

    /// The request, addressed to every server that has not answered.
    fn sends(&self, env: &Env<'_>) -> Vec<(ProcessId, Msg)> {
        let msg = CfgMsg::ReadConfig { base: self.base.id, rpc: self.rpc, op: env.op };
        let unheard = self.base.servers.iter().filter(|s| !self.replies.contains(s));
        unheard.map(|&s| (s, Msg::Cfg(msg.clone()))).collect()
    }

    fn start(&mut self, env: &mut Env<'_>) -> FStep {
        self.rpc = env.fresh_rpc();
        let mut step = FStep::sends(self.sends(env));
        // A quorum phase over lossy channels: retransmit under the same
        // rpc until replies assemble (servers answer read-config
        // idempotently, duplicate replies are deduplicated above).
        step.timer = Some(self.backoff.arm(env.rto));
        step
    }

    fn on_timer(&mut self, env: &mut Env<'_>) -> FStep {
        let mut step = FStep::sends(self.sends(env));
        step.timer = Some(self.backoff.rearm(env.rto));
        step
    }

    fn on_msg(&mut self, from: ProcessId, msg: &Msg) -> FStep {
        let Msg::Cfg(CfgMsg::NextC { base, rpc, next, .. }) = msg else {
            return FStep::idle();
        };
        if *base != self.base.id || *rpc != self.rpc || self.replies.contains(&from) {
            return FStep::idle();
        }
        self.replies.push(from);
        // A pointer naming its own configuration is corrupt (servers
        // refuse to install self-loops, but an old or hostile server
        // could still reply with one): treat it as ⊥ rather than walk
        // a cycle forever.
        let next = match next {
            Some(e) if e.cfg == self.base.id => &None,
            other => other,
        };
        if let Some(e) = next {
            // Prefer F over P (Alg. 4 lines 16-19); consensus guarantees
            // the cfg ids agree.
            match &self.best {
                Some(b) if b.status == Status::Finalized => {}
                _ => {
                    let better = match &self.best {
                        None => true,
                        Some(_) => e.status == Status::Finalized,
                    };
                    if better {
                        self.best = Some(*e);
                    }
                }
            }
        }
        if self.replies.len() >= self.base.quorum_size() {
            FStep::out(FrameOut::Next(self.best))
        } else {
            FStep::idle()
        }
    }
}

/// `put-config(c, entry)` (Alg. 4): write the successor pointer to a
/// quorum of `c.Servers`.
pub(crate) struct PutConfigFrame {
    base: Arc<ares_types::Configuration>,
    entry: ConfigEntry,
    rpc: RpcId,
    acks: Vec<ProcessId>,
    backoff: Backoff,
}

impl PutConfigFrame {
    fn new(base: Arc<ares_types::Configuration>, entry: ConfigEntry) -> Self {
        PutConfigFrame { base, entry, rpc: RpcId(0), acks: Vec::new(), backoff: Backoff::default() }
    }

    /// The request, addressed to every server that has not acked.
    fn sends(&self, env: &Env<'_>) -> Vec<(ProcessId, Msg)> {
        let msg = CfgMsg::WriteConfig {
            base: self.base.id,
            entry: self.entry,
            rpc: self.rpc,
            op: env.op,
        };
        let unacked = self.base.servers.iter().filter(|s| !self.acks.contains(s));
        unacked.map(|&s| (s, Msg::Cfg(msg.clone()))).collect()
    }

    fn start(&mut self, env: &mut Env<'_>) -> FStep {
        self.rpc = env.fresh_rpc();
        let mut step = FStep::sends(self.sends(env));
        // Same retransmission discipline as read-next-config: nextC
        // writes are idempotent (servers keep the max), so resending
        // under the same rpc is safe and survives lossy links.
        step.timer = Some(self.backoff.arm(env.rto));
        step
    }

    fn on_timer(&mut self, env: &mut Env<'_>) -> FStep {
        let mut step = FStep::sends(self.sends(env));
        step.timer = Some(self.backoff.rearm(env.rto));
        step
    }

    fn on_msg(&mut self, from: ProcessId, msg: &Msg) -> FStep {
        let Msg::Cfg(CfgMsg::CfgAck { base, rpc, .. }) = msg else {
            return FStep::idle();
        };
        if *base != self.base.id || *rpc != self.rpc || self.acks.contains(&from) {
            return FStep::idle();
        }
        self.acks.push(from);
        if self.acks.len() >= self.base.quorum_size() {
            FStep::out(FrameOut::Ack)
        } else {
            FStep::idle()
        }
    }
}

/// `read-config(seq)` (Alg. 4): walk the global configuration sequence
/// from the last finalized entry, propagating each discovered pointer
/// back to the previous configuration.
pub(crate) struct ReadConfigFrame {
    seq: ConfigSeq,
    cur: usize,
    awaiting_put: bool,
}

impl ReadConfigFrame {
    pub(crate) fn new(seq: ConfigSeq) -> Self {
        ReadConfigFrame { seq, cur: 0, awaiting_put: false }
    }

    fn start(&mut self, env: &mut Env<'_>) -> FStep {
        self.cur = self.seq.mu(); // µ: last finalized entry
        let base = env.cfg(self.seq.get(self.cur).cfg);
        FStep::push(Frame::ReadNext(ReadNextFrame::new(base)))
    }

    fn on_child(&mut self, out: FrameOut, env: &mut Env<'_>) -> FStep {
        match out {
            FrameOut::Next(Some(entry)) => {
                debug_assert!(!self.awaiting_put);
                self.seq.absorb(self.cur + 1, entry);
                self.awaiting_put = true;
                // put-config(seq[µ−1].cfg, seq[µ]): inform the previous
                // configuration about the (possibly upgraded) successor.
                let base = env.cfg(self.seq.get(self.cur).cfg);
                let entry = self.seq.get(self.cur + 1);
                FStep::push(Frame::PutConfig(PutConfigFrame::new(base, entry)))
            }
            FrameOut::Next(None) => FStep::out(FrameOut::Seq(self.seq.clone())),
            FrameOut::Ack => {
                debug_assert!(self.awaiting_put);
                self.awaiting_put = false;
                self.cur += 1;
                let base = env.cfg(self.seq.get(self.cur).cfg);
                FStep::push(Frame::ReadNext(ReadNextFrame::new(base)))
            }
            #[expect(clippy::unreachable, reason = "a child returns what this frame pushed it for")]
            other => unreachable!("read-config got unexpected child result {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------
// Leaf frames: DAP, consensus, state transfer
// ---------------------------------------------------------------------

/// One DAP primitive executed in a given configuration.
pub(crate) struct DapFrame {
    cfg: Arc<ares_types::Configuration>,
    obj: ObjectId,
    action: Option<DapAction>,
    call: Option<DapCall>,
}

impl DapFrame {
    fn new(cfg: Arc<ares_types::Configuration>, obj: ObjectId, action: DapAction) -> Self {
        DapFrame { cfg, obj, action: Some(action), call: None }
    }

    fn start(&mut self, env: &mut Env<'_>) -> FStep {
        let mut ctx = DapCtx::new(self.cfg.clone(), self.obj, env.me, env.op);
        ctx.retry_interval = env.rto;
        let Some(action) = self.action.take() else { return FStep::idle() };
        let (call, step) = DapCall::start(ctx, action, env.rpc);
        self.call = Some(call);
        wrap_dap(step)
    }

    fn on_msg(&mut self, from: ProcessId, msg: &Msg, env: &mut Env<'_>) -> FStep {
        let Msg::Dap(m) = msg else { return FStep::idle() };
        let Some(call) = self.call.as_mut() else { return FStep::idle() };
        wrap_dap(call.on_message(from, m, env.rpc))
    }

    fn on_timer(&mut self, env: &mut Env<'_>) -> FStep {
        let Some(call) = self.call.as_mut() else { return FStep::idle() };
        wrap_dap(call.on_timer(env.rpc))
    }
}

fn wrap_dap(step: ares_types::Step<ares_dap::DapMsg, DapOutput>) -> FStep {
    FStep {
        sends: step.sends.into_iter().map(|(to, m)| (to, Msg::Dap(m))).collect(),
        timer: step.timer_after,
        out: step.output.map(FrameOut::Dap),
        push: None,
    }
}

/// One `c.Con.propose(value)` call (Paxos proposer).
pub(crate) struct ProposeFrame {
    base: Arc<ares_types::Configuration>,
    value: ConfigId,
    proposer: Option<Proposer>,
}

impl ProposeFrame {
    fn new(base: Arc<ares_types::Configuration>, value: ConfigId) -> Self {
        ProposeFrame { base, value, proposer: None }
    }

    fn start(&mut self, env: &mut Env<'_>) -> FStep {
        let cfg = ProposerConfig {
            inst: self.base.id,
            servers: self.base.servers.clone(),
            quorum: self.base.quorum_size(),
            backoff_unit: env.backoff_unit,
        };
        // Ballots are ordered by (round, proposer id): concurrent
        // reconfig sessions of one host propose under their distinct
        // logical writer ids so their ballots stay unique.
        let (p, step) = Proposer::start(cfg, env.writer, env.op, self.value, *env.rpc);
        *env.rpc += 2; // prepare + accept phase ids
        self.proposer = Some(p);
        wrap_con(step, env)
    }

    fn on_msg(&mut self, from: ProcessId, msg: &Msg, env: &mut Env<'_>) -> FStep {
        let Msg::Con(m) = msg else { return FStep::idle() };
        let Some(p) = self.proposer.as_mut() else { return FStep::idle() };
        let step = p.on_message(from, m.clone());
        wrap_con(step, env)
    }

    fn on_timer(&mut self, env: &mut Env<'_>) -> FStep {
        let Some(p) = self.proposer.as_mut() else { return FStep::idle() };
        let step = p.on_timer();
        *env.rpc += 2; // a retry consumes two more phase ids
        wrap_con(step, env)
    }
}

fn wrap_con(step: ares_types::Step<ares_consensus::ConMsg, ConfigId>, _env: &mut Env<'_>) -> FStep {
    FStep {
        sends: step.sends.into_iter().map(|(to, m)| (to, Msg::Con(m))).collect(),
        timer: step.timer_after,
        out: step.output.map(FrameOut::Decided),
        push: None,
    }
}

/// `forward-code-element(τ, C, C')` (Alg. 8): ask the source servers to
/// forward their elements for `τ` directly to the destination servers,
/// then await acks from a destination quorum.
pub(crate) struct TransferFrame {
    tag: Tag,
    src: ConfigId,
    dst: Arc<ares_types::Configuration>,
    obj: ObjectId,
    rpc: RpcId,
    acks: Vec<ProcessId>,
    /// Grows the rebroadcast delay, so a transfer stalled by load backs
    /// off instead of re-amplifying the ×(src · dst) forward fan-out.
    backoff: Backoff,
}

impl TransferFrame {
    fn new(tag: Tag, src: ConfigId, dst: Arc<ares_types::Configuration>, obj: ObjectId) -> Self {
        TransferFrame {
            tag,
            src,
            dst,
            obj,
            rpc: RpcId(0),
            acks: Vec::new(),
            backoff: Backoff::default(),
        }
    }

    fn start(&mut self, env: &mut Env<'_>) -> FStep {
        self.rpc = env.fresh_rpc();
        self.broadcast(env, self.backoff.arm(env.backoff_unit * 8))
    }

    /// (Re-)issues the `REQ-FW-CODE-ELEM` broadcast. The phase id stays
    /// fixed across retries: destination servers ack a reconfigurer at
    /// most once (the `Recons` set of Alg. 9), so collected acks must
    /// keep counting. Retries matter when source-side garbage collection
    /// races the transfer — once the write burst subsides the sources
    /// converge on a common newest element and the destination decodes.
    fn broadcast(&self, env: &Env<'_>, timer: Delay) -> FStep {
        let src_cfg = env.cfg(self.src);
        let msg = XferMsg::ReqFwd {
            tag: self.tag,
            src: self.src,
            dst: self.dst.id,
            obj: self.obj,
            rc: env.me,
            rpc: self.rpc,
            op: env.op,
        };
        // md-primitive: one atomic broadcast step (see DESIGN.md).
        let mut step =
            FStep::sends(src_cfg.servers.iter().map(|&s| (s, Msg::Xfer(msg.clone()))).collect());
        step.timer = Some(timer);
        step
    }

    fn on_timer(&mut self, env: &mut Env<'_>) -> FStep {
        let timer = self.backoff.rearm(env.backoff_unit * 8);
        self.broadcast(env, timer)
    }

    fn on_msg(&mut self, from: ProcessId, msg: &Msg) -> FStep {
        let Msg::Xfer(XferMsg::XferAck { dst, rpc, tag, .. }) = msg else {
            return FStep::idle();
        };
        // Replicated sources may forward a newer tag (see ServerActor);
        // any tag ≥ the requested one carries at least as recent a value.
        if *dst != self.dst.id || *rpc != self.rpc || *tag < self.tag || self.acks.contains(&from) {
            return FStep::idle();
        }
        self.acks.push(from);
        if self.acks.len() >= self.dst.quorum_size() {
            FStep::out(FrameOut::Ack)
        } else {
            FStep::idle()
        }
    }
}

// ---------------------------------------------------------------------
// Top-level operation frames (Alg. 7 and Alg. 5)
// ---------------------------------------------------------------------

enum RwPhase {
    /// Awaiting the initial `read-config`.
    Discover,
    /// Querying `get-tag`/`get-data` in configurations `µ..=ν`.
    QueryLoop,
    /// Propagating with `put-data` in the last configuration.
    Propagate,
    /// Re-reading the configuration sequence after a `put-data`.
    Confirm,
}

/// A `write(val)` operation (Alg. 7, left column).
pub(crate) struct WriteFrame {
    value: Value,
    phase: RwPhase,
    seq: ConfigSeq,
    i: usize,
    tau_max: Tag,
    tag: Tag,
}

impl WriteFrame {
    pub(crate) fn new(value: Value, cseq: ConfigSeq) -> Self {
        WriteFrame { value, phase: RwPhase::Discover, seq: cseq, i: 0, tau_max: TAG0, tag: TAG0 }
    }

    fn start(&mut self, _env: &mut Env<'_>) -> FStep {
        FStep::push(Frame::ReadConfig(ReadConfigFrame::new(self.seq.clone())))
    }

    fn on_child(&mut self, out: FrameOut, env: &mut Env<'_>) -> FStep {
        match (&self.phase, out) {
            (RwPhase::Discover, FrameOut::Seq(seq)) => {
                self.seq = seq;
                self.i = self.seq.mu();
                self.phase = RwPhase::QueryLoop;
                let cfg = env.cfg(self.seq.get(self.i).cfg);
                FStep::push(Frame::Dap(DapFrame::new(cfg, env.obj, DapAction::GetTag)))
            }
            (RwPhase::QueryLoop, FrameOut::Dap(out)) => {
                self.tau_max = self.tau_max.max(out.tag());
                self.i += 1;
                if self.i <= self.seq.nu() {
                    let cfg = env.cfg(self.seq.get(self.i).cfg);
                    FStep::push(Frame::Dap(DapFrame::new(cfg, env.obj, DapAction::GetTag)))
                } else {
                    // ⟨τ, v⟩ ← ⟨(τ_max.ts + 1, ω_i), val⟩ — ω_i is the
                    // *session's* writer id: concurrent sessions of one
                    // host must mint distinct tags.
                    self.tag = self.tau_max.increment(env.writer);
                    self.phase = RwPhase::Propagate;
                    self.put_last(env)
                }
            }
            (RwPhase::Propagate, FrameOut::Dap(DapOutput::Ack)) => {
                self.phase = RwPhase::Confirm;
                FStep::push(Frame::ReadConfig(ReadConfigFrame::new(self.seq.clone())))
            }
            (RwPhase::Confirm, FrameOut::Seq(seq)) => {
                if seq.len() == self.seq.len() {
                    FStep::out(FrameOut::WriteDone(self.tag, seq))
                } else {
                    self.seq = seq;
                    self.phase = RwPhase::Propagate;
                    self.put_last(env)
                }
            }
            #[expect(clippy::unreachable, reason = "a child returns what this frame pushed it for")]
            (_, other) => unreachable!("write got unexpected child result {other:?}"),
        }
    }

    fn put_last(&mut self, env: &mut Env<'_>) -> FStep {
        let cfg = env.cfg(self.seq.last().cfg);
        let tv = TagValue::new(self.tag, self.value.clone());
        FStep::push(Frame::Dap(DapFrame::new(cfg, env.obj, DapAction::PutData(tv))))
    }
}

/// A `read()` operation (Alg. 7, right column).
pub(crate) struct ReadFrame {
    phase: RwPhase,
    seq: ConfigSeq,
    i: usize,
    best: TagValue,
}

impl ReadFrame {
    pub(crate) fn new(cseq: ConfigSeq) -> Self {
        ReadFrame { phase: RwPhase::Discover, seq: cseq, i: 0, best: TagValue::initial() }
    }

    fn start(&mut self, _env: &mut Env<'_>) -> FStep {
        FStep::push(Frame::ReadConfig(ReadConfigFrame::new(self.seq.clone())))
    }

    fn on_child(&mut self, out: FrameOut, env: &mut Env<'_>) -> FStep {
        match (&self.phase, out) {
            (RwPhase::Discover, FrameOut::Seq(seq)) => {
                self.seq = seq;
                self.i = self.seq.mu();
                self.phase = RwPhase::QueryLoop;
                let cfg = env.cfg(self.seq.get(self.i).cfg);
                FStep::push(Frame::Dap(DapFrame::new(cfg, env.obj, DapAction::GetData)))
            }
            (RwPhase::QueryLoop, FrameOut::Dap(DapOutput::TagValue(tv))) => {
                if tv.tag > self.best.tag {
                    self.best = tv;
                }
                self.i += 1;
                if self.i <= self.seq.nu() {
                    let cfg = env.cfg(self.seq.get(self.i).cfg);
                    FStep::push(Frame::Dap(DapFrame::new(cfg, env.obj, DapAction::GetData)))
                } else {
                    self.phase = RwPhase::Propagate;
                    self.put_last(env)
                }
            }
            (RwPhase::Propagate, FrameOut::Dap(DapOutput::Ack)) => {
                self.phase = RwPhase::Confirm;
                FStep::push(Frame::ReadConfig(ReadConfigFrame::new(self.seq.clone())))
            }
            (RwPhase::Confirm, FrameOut::Seq(seq)) => {
                if seq.len() == self.seq.len() {
                    FStep::out(FrameOut::ReadDone(self.best.clone(), seq))
                } else {
                    self.seq = seq;
                    self.phase = RwPhase::Propagate;
                    self.put_last(env)
                }
            }
            #[expect(clippy::unreachable, reason = "a child returns what this frame pushed it for")]
            (_, other) => unreachable!("read got unexpected child result {other:?}"),
        }
    }

    fn put_last(&mut self, env: &mut Env<'_>) -> FStep {
        let cfg = env.cfg(self.seq.last().cfg);
        FStep::push(Frame::Dap(DapFrame::new(cfg, env.obj, DapAction::PutData(self.best.clone()))))
    }
}

enum ReconPhase {
    Discover,
    Propose,
    AddPut,
    UpdateLoop,
    UpdatePut,
    Transfer,
    FinalizePut,
}

/// A `reconfig(c)` operation (Alg. 5; Alg. 8 when
/// [`TransferMode::Direct`]).
///
/// The paper emulates a single object; this reproduction composes many
/// registers over one configuration chain (the key-value example), so
/// `update-config` runs once per managed object — matching the paper's
/// observation that "during the migration ... it is highly likely that
/// all stored objects are moved to the newer configuration almost at
/// the same time".
pub(crate) struct ReconFrame {
    target: ConfigId,
    phase: ReconPhase,
    seq: ConfigSeq,
    /// Objects still to migrate during `update-config`.
    objs: std::vec::IntoIter<ObjectId>,
    /// The object currently being migrated.
    obj: ObjectId,
    i: usize,
    /// Plain mode: max tag-value pair gathered by `get-data`.
    best: TagValue,
    /// Direct mode: max tag and the configuration holding it.
    best_src: (Tag, ConfigId),
    decided: ConfigId,
}

impl ReconFrame {
    pub(crate) fn new(target: ConfigId, cseq: ConfigSeq, objs: Vec<ObjectId>) -> Self {
        ReconFrame {
            target,
            phase: ReconPhase::Discover,
            seq: cseq,
            objs: objs.into_iter(),
            obj: ObjectId(0),
            i: 0,
            best: TagValue::initial(),
            best_src: (TAG0, ConfigId(0)),
            decided: ConfigId(0),
        }
    }

    fn start(&mut self, _env: &mut Env<'_>) -> FStep {
        FStep::push(Frame::ReadConfig(ReadConfigFrame::new(self.seq.clone())))
    }

    fn on_child(&mut self, out: FrameOut, env: &mut Env<'_>) -> FStep {
        match (&self.phase, out) {
            (ReconPhase::Discover, FrameOut::Seq(seq)) => {
                self.seq = seq;
                // If the discovered chain already contains the target —
                // a rival reconfigurer won the race for the same
                // configuration — add-config must be SKIPPED: proposing
                // `c` on the consensus object of a chain that already
                // ends with `c` would install `nextC(c) = c`, a
                // self-loop every future `read-config` walk re-absorbs
                // and re-propagates forever (a permanent livelock of
                // the whole discovery service, observed as a Cfg-message
                // storm on the live runtime). The recon instead adopts
                // the chain end as the decision and still runs
                // update-config + finalize-config, so state handover
                // and finalization complete even if the rival crashed
                // mid-reconfiguration.
                if self.seq.contains(self.target) {
                    self.decided = self.seq.last().cfg;
                    if self.seq.nu() == 0 {
                        // The chain is just the genesis configuration
                        // (necessarily the target): there is no older
                        // configuration to migrate from or to write a
                        // finalize pointer to — reconfig(c0) completes
                        // as a no-op. (finalize() would index seq[ν−1].)
                        return FStep::out(FrameOut::ReconDone(self.decided, self.seq.clone()));
                    }
                    return self.next_object_or_finalize(env);
                }
                // add-config: propose on the consensus object of the last
                // configuration in the sequence.
                self.phase = ReconPhase::Propose;
                let base = env.cfg(self.seq.last().cfg);
                FStep::push(Frame::Propose(ProposeFrame::new(base, self.target)))
            }
            (ReconPhase::Propose, FrameOut::Decided(d)) => {
                // Adopt the decision (which may not be our proposal) and
                // propagate ⟨d, P⟩ to the previous configuration.
                self.decided = d;
                let prev = env.cfg(self.seq.last().cfg);
                self.seq.push(ConfigEntry::pending(d));
                self.phase = ReconPhase::AddPut;
                FStep::push(Frame::PutConfig(PutConfigFrame::new(prev, ConfigEntry::pending(d))))
            }
            (ReconPhase::AddPut, FrameOut::Ack) => {
                // update-config, object by object.
                self.next_object_or_finalize(env)
            }
            (ReconPhase::UpdateLoop, FrameOut::Dap(out)) => {
                match (env.mode, &out) {
                    (TransferMode::Plain, DapOutput::TagValue(tv)) => {
                        if tv.tag > self.best.tag {
                            self.best = tv.clone();
                        }
                    }
                    (TransferMode::Direct, DapOutput::Tag(t)) => {
                        if *t > self.best_src.0 || self.i == self.seq.mu() {
                            self.best_src = (*t, self.seq.get(self.i).cfg);
                        }
                    }
                    #[expect(clippy::unreachable, reason = "queries are pushed for env.mode")]
                    _ => unreachable!("update-config DAP result mismatch"),
                }
                self.i += 1;
                if self.i <= self.seq.nu() {
                    self.query(env)
                } else {
                    let obj = self.obj;
                    match env.mode {
                        TransferMode::Plain => {
                            // seq[ν].put-data(⟨τ_max, v_max⟩)
                            self.phase = ReconPhase::UpdatePut;
                            let dst = env.cfg(self.seq.last().cfg);
                            FStep::push(Frame::Dap(DapFrame::new(
                                dst,
                                obj,
                                DapAction::PutData(self.best.clone()),
                            )))
                        }
                        TransferMode::Direct => {
                            let (tag, src) = self.best_src;
                            if tag == TAG0 || src == self.seq.last().cfg {
                                // Nothing written yet (or the newest data
                                // is already in the target): skip.
                                self.next_object_or_finalize(env)
                            } else {
                                self.phase = ReconPhase::Transfer;
                                let dst = env.cfg(self.seq.last().cfg);
                                FStep::push(Frame::Transfer(TransferFrame::new(tag, src, dst, obj)))
                            }
                        }
                    }
                }
            }
            (ReconPhase::UpdatePut, FrameOut::Dap(DapOutput::Ack)) => {
                self.next_object_or_finalize(env)
            }
            (ReconPhase::Transfer, FrameOut::Ack) => self.next_object_or_finalize(env),
            (ReconPhase::FinalizePut, FrameOut::Ack) => {
                FStep::out(FrameOut::ReconDone(self.decided, self.seq.clone()))
            }
            #[expect(clippy::unreachable, reason = "a child returns what this frame pushed it for")]
            (_, other) => unreachable!("reconfig got unexpected child result {other:?}"),
        }
    }

    /// Starts the `update-config` query loop for the next object, or
    /// `finalize-config` once every object has migrated (at once, when
    /// the client manages none).
    fn next_object_or_finalize(&mut self, env: &mut Env<'_>) -> FStep {
        let Some(obj) = self.objs.next() else { return self.finalize(env) };
        self.obj = obj;
        self.i = self.seq.mu();
        self.best = TagValue::initial();
        self.best_src = (TAG0, ConfigId(0));
        self.phase = ReconPhase::UpdateLoop;
        self.query(env)
    }

    fn query(&mut self, env: &mut Env<'_>) -> FStep {
        let cfg = env.cfg(self.seq.get(self.i).cfg);
        let action = match env.mode {
            TransferMode::Plain => DapAction::GetData,
            TransferMode::Direct => DapAction::GetTag,
        };
        FStep::push(Frame::Dap(DapFrame::new(cfg, self.obj, action)))
    }

    fn finalize(&mut self, env: &mut Env<'_>) -> FStep {
        // finalize-config: seq[ν].status ← F, then put-config to the
        // previous configuration's servers.
        self.seq.finalize_last();
        self.phase = ReconPhase::FinalizePut;
        let nu = self.seq.nu();
        let prev = env.cfg(self.seq.get(nu - 1).cfg);
        FStep::push(Frame::PutConfig(PutConfigFrame::new(
            prev,
            ConfigEntry::finalized(self.decided),
        )))
    }
}

// ---------------------------------------------------------------------
// The frame enum and dispatcher
// ---------------------------------------------------------------------

/// One entry of the client's protocol call stack.
pub(crate) enum Frame {
    Write(WriteFrame),
    Read(ReadFrame),
    Recon(ReconFrame),
    ReadConfig(ReadConfigFrame),
    ReadNext(ReadNextFrame),
    PutConfig(PutConfigFrame),
    Dap(DapFrame),
    Propose(ProposeFrame),
    Transfer(TransferFrame),
}

impl Frame {
    /// Short action name used in traces (enables the latency-analysis
    /// experiments to time individual actions like `read-config`).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Frame::Write(_) => "write",
            Frame::Read(_) => "read",
            Frame::Recon(_) => "reconfig",
            Frame::ReadConfig(_) => "read-config",
            Frame::ReadNext(_) => "read-next-config",
            Frame::PutConfig(_) => "put-config",
            Frame::Dap(_) => "dap",
            Frame::Propose(_) => "propose",
            Frame::Transfer(_) => "forward-code-element",
        }
    }

    pub(crate) fn start(&mut self, env: &mut Env<'_>) -> FStep {
        match self {
            Frame::Write(f) => f.start(env),
            Frame::Read(f) => f.start(env),
            Frame::Recon(f) => f.start(env),
            Frame::ReadConfig(f) => f.start(env),
            Frame::ReadNext(f) => f.start(env),
            Frame::PutConfig(f) => f.start(env),
            Frame::Dap(f) => f.start(env),
            Frame::Propose(f) => f.start(env),
            Frame::Transfer(f) => f.start(env),
        }
    }

    pub(crate) fn on_msg(&mut self, from: ProcessId, msg: &Msg, env: &mut Env<'_>) -> FStep {
        match self {
            Frame::ReadNext(f) => f.on_msg(from, msg),
            Frame::PutConfig(f) => f.on_msg(from, msg),
            Frame::Dap(f) => f.on_msg(from, msg, env),
            Frame::Propose(f) => f.on_msg(from, msg, env),
            Frame::Transfer(f) => f.on_msg(from, msg),
            // Composite frames never have messages in flight themselves.
            _ => FStep::idle(),
        }
    }

    pub(crate) fn on_child(&mut self, out: FrameOut, env: &mut Env<'_>) -> FStep {
        match self {
            Frame::Write(f) => f.on_child(out, env),
            Frame::Read(f) => f.on_child(out, env),
            Frame::Recon(f) => f.on_child(out, env),
            Frame::ReadConfig(f) => f.on_child(out, env),
            #[expect(clippy::unreachable, reason = "only composite frames push children")]
            _ => unreachable!("leaf frames have no children"),
        }
    }

    pub(crate) fn on_timer(&mut self, env: &mut Env<'_>) -> FStep {
        match self {
            Frame::Dap(f) => f.on_timer(env),
            Frame::Propose(f) => f.on_timer(env),
            Frame::Transfer(f) => f.on_timer(env),
            Frame::ReadNext(f) => f.on_timer(env),
            Frame::PutConfig(f) => f.on_timer(env),
            _ => FStep::idle(),
        }
    }
}
