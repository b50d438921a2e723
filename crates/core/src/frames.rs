//! The client-side protocol engine of ARES, as typed sub-protocols.
//!
//! Every ARES client operation is a nest of sub-protocols: a `write`
//! (Alg. 7) performs a `read-config` (Alg. 4), which performs
//! `read-next-config` and `put-config` quorum phases; a `reconfig`
//! (Alg. 5) additionally runs a consensus proposal and — in the
//! ARES-TREAS variant (Alg. 8) — a direct state transfer. Each of those
//! is a state machine with its own result type. A parent keeps its
//! current child inside its phase enum, feeds it every [`Input`] and
//! reads the child's typed result, which keeps every algorithm of the
//! paper recognizable line-by-line.
//!
//! Only the leaves send: [`ReadNext`], [`PutConfig`], [`Dap`],
//! [`Propose`] and [`Transfer`]. Each returns the [`Step`] of the engine
//! below it, and an [`Armed`] leaf emits that step and keeps the timer
//! token it armed. A reply reaches a leaf's state only through the
//! leaf's own rpc check, and a timer only through that token, so the
//! leaves under one operation never see each other's traffic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::client::{ClientConfig, RttEstimator};
use crate::msg::{CfgMsg, Msg, XferMsg};
use ares_consensus::{Proposer, ProposerConfig};
use ares_dap::client::{DapCall, DapCtx};
use ares_dap::{DapAction, DapBody, DapMsg, DapOutput};
use ares_sim::Ctx;
use ares_types::{
    Backoff, ConfigEntry, ConfigId, ConfigRegistry, ConfigSeq, Configuration, DapKind, Delay,
    ObjectId, OpId, ProcessId, QuorumPhase, RpcId, Status, Step, Tag, TagValue, Time, Value, TAG0,
};
use std::collections::{BTreeSet, HashMap};
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

/// What the operations of one client share.
pub(crate) struct Shared {
    pub registry: Arc<ConfigRegistry>,
    pub config: ClientConfig,
    /// The monotone counter every quorum phase takes its rpc id from.
    pub rpc: u64,
    pub next_token: u64,
    /// Armed timer tokens → the operation they belong to.
    pub timer_ops: HashMap<u64, OpId>,
    /// One estimate for all sessions: they share the host's links.
    pub rtt: RttEstimator,
}

/// One transition's environment: who acts, and where its effects go.
pub(crate) struct Env<'a, 'c> {
    /// The *host* process id: the network-routable identity replies and
    /// direct sends (e.g. `XferAck`) are addressed to.
    pub me: ProcessId,
    /// The *logical* writer id of the invoking session. Tags and Paxos
    /// ballots are minted under this id, so concurrent sessions
    /// multiplexed over one host never collide on either (the paper's
    /// model gives every sequential client its own id; a session is that
    /// client). Equal to `me` for the default session.
    pub writer: ProcessId,
    pub op: OpId,
    pub shared: &'a mut Shared,
    /// Sends, timers and notes, in the order they happen.
    pub ctx: &'a mut Ctx<'c, Msg>,
}

impl Env<'_, '_> {
    fn fresh_rpc(&mut self) -> RpcId {
        self.shared.rpc += 1;
        RpcId(self.shared.rpc)
    }

    fn cfg(&self, id: ConfigId) -> Arc<Configuration> {
        self.shared.registry.get(id).clone()
    }

    /// The client's current retransmission timeout: its round-trip
    /// estimate clamped to `[4, 4 << 6] × backoff_unit` (the floor
    /// before any sample). The base every quorum phase grows its retry
    /// delay from.
    fn rto(&self) -> Time {
        self.shared.rtt.rto(4 * self.shared.config.backoff_unit)
    }

    /// Opens a configuration-service phase: `msg(rpc)` to every server
    /// of `cfg`, completed by a quorum of replies.
    fn phase(&mut self, cfg: &Configuration, msg: impl Fn(RpcId) -> CfgMsg) -> QuorumPhase<Msg> {
        QuorumPhase::new(&mut self.shared.rpc, cfg.quorum_size(), |rpc| {
            let msg = Msg::Cfg(msg(rpc));
            cfg.servers.iter().map(|&s| (s, msg.clone())).collect()
        })
    }

    /// Sets a timer for this operation; returns its token.
    fn arm(&mut self, after: Delay) -> u64 {
        let token = self.shared.next_token;
        self.shared.next_token += 1;
        self.shared.timer_ops.insert(token, self.op);
        self.ctx.set_timer(after.get(), token);
        token
    }

    /// Marks an action's start (`+name`) or end (`-name`) in the trace,
    /// which lets the latency experiments time individual actions.
    fn note(&mut self, sign: char, name: &str) {
        if self.ctx.tracing() {
            self.ctx.note(format!("{sign}{name}"));
        }
    }

    /// Whether a server's pointer `next` can name `base`'s successor: a
    /// configuration other than `base` that the registry holds. Servers
    /// install no other, but an old or hostile one could still send it.
    fn names_successor(&self, base: ConfigId, next: &ConfigEntry) -> bool {
        next.cfg != base && self.shared.registry.try_get(next.cfg).is_some()
    }

    /// A leaf met a server that retired `base`: traces the redirect and
    /// hands it to the parent.
    fn redirect(&mut self, base: ConfigId, next: ConfigEntry) -> Redirect {
        if self.ctx.tracing() {
            self.ctx.note(format!("{} redirected {base} -> {next}", self.op));
        }
        Redirect { base, next }
    }
}

/// A server's answer that the configuration a leaf ran in is retired:
/// `base`'s finalized successor is `next` (DESIGN.md §2). The parent
/// takes it as `read-config` discovering `next` after `base`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Redirect {
    base: ConfigId,
    next: ConfigEntry,
}

impl Redirect {
    /// Absorbs the successor into `seq` right after `base`; returns its
    /// index, where the operation continues.
    fn absorb(self, seq: &mut ConfigSeq) -> usize {
        let at = seq.iter().position(|e| e.cfg == self.base).map_or(seq.len(), |i| i + 1);
        seq.absorb(at, self.next);
        at
    }
}

/// What reaches an operation: a reply, or one of its timers.
#[derive(Clone, Copy)]
pub(crate) enum Input<'m> {
    Reply(ProcessId, &'m Msg),
    Timer(u64),
}

// ---------------------------------------------------------------------
// Leaves: the sub-protocols that send
// ---------------------------------------------------------------------

/// A sub-protocol that sends: one engine, which completes with `Out`.
pub(crate) trait Leaf {
    type Out;
    /// The action name of its trace notes.
    const NAME: &'static str;
    /// Whether it is one request/reply round, so the time from its last
    /// transmission to its completion is a round-trip sample. Consensus
    /// (two rounds) and state transfer (three hops and a decode) are not,
    /// and would only inflate the estimate.
    const ROUND_TRIP: bool;
    fn on_msg(&mut self, from: ProcessId, msg: &Msg, env: &mut Env<'_, '_>)
        -> Step<Msg, Self::Out>;
    fn on_timer(&mut self, env: &mut Env<'_, '_>) -> Step<Msg, Self::Out>;
}

/// A leaf in flight: it emits the leaf's steps, and it holds the one
/// timer token the leaf accepts and when the leaf's current phase left.
pub(crate) struct Armed<L> {
    leaf: L,
    token: Option<u64>,
    /// `None` once the phase retransmitted (Karn's rule).
    sent_at: Option<Time>,
}

impl<L: Leaf> Armed<L> {
    /// Starts `leaf` with its first transmission. A first transmission
    /// completes nothing: every leaf waits for at least one reply.
    fn start(leaf: L, first: Step<Msg, L::Out>, env: &mut Env<'_, '_>) -> Self {
        env.note('+', L::NAME);
        let mut armed = Armed { leaf, token: None, sent_at: None };
        armed.emit(first, env);
        armed
    }

    /// Feeds one input; returns the leaf's result once it completes.
    pub(crate) fn on(&mut self, input: Input<'_>, env: &mut Env<'_, '_>) -> Option<L::Out> {
        let out = match input {
            Input::Reply(from, msg) => {
                let step = self.leaf.on_msg(from, msg, env);
                self.emit(step, env)
            }
            Input::Timer(token) if self.token == Some(token) => {
                let step = self.leaf.on_timer(env);
                let out = self.emit(step, env);
                // Karn's rule: a reply to this phase could now answer
                // either copy of the request, so it yields no sample.
                self.sent_at = None;
                out
            }
            Input::Timer(_) => None,
        }?;
        env.note('-', L::NAME);
        if let Some(t0) = self.sent_at.filter(|_| L::ROUND_TRIP) {
            env.shared.rtt.sample(env.ctx.now() - t0);
        }
        Some(out)
    }

    /// Sends a step's messages, then arms its timer, which replaces the
    /// one this leaf held.
    fn emit(&mut self, step: Step<Msg, L::Out>, env: &mut Env<'_, '_>) -> Option<L::Out> {
        for (to, msg) in step.sends {
            env.ctx.send(to, msg);
        }
        if let Some(after) = step.timer_after {
            self.token = Some(env.arm(after));
            self.sent_at = Some(env.ctx.now());
        }
        step.output
    }
}

/// `read-next-config(c)` (Alg. 4): query a quorum of `c.Servers` for
/// their `nextC` pointers; prefer a finalized reply over a pending one.
pub(crate) struct ReadNext {
    base: ConfigId,
    phase: QuorumPhase<Msg>,
    best: Option<ConfigEntry>,
}

impl ReadNext {
    fn start(base: &Configuration, env: &mut Env<'_, '_>) -> Armed<Self> {
        let op = env.op;
        let phase = env.phase(base, |rpc| CfgMsg::ReadConfig { base: base.id, rpc, op });
        let first = phase.send(env.rto());
        Armed::start(ReadNext { base: base.id, phase, best: None }, first, env)
    }
}

impl Leaf for ReadNext {
    type Out = Option<ConfigEntry>;
    const NAME: &'static str = "read-next-config";
    const ROUND_TRIP: bool = true;

    fn on_msg(
        &mut self,
        from: ProcessId,
        msg: &Msg,
        env: &mut Env<'_, '_>,
    ) -> Step<Msg, Self::Out> {
        let Msg::Cfg(CfgMsg::NextC { base, rpc, next, .. }) = msg else {
            return Step::idle();
        };
        if *base != self.base || !self.phase.hear(from, *rpc) {
            return Step::idle();
        }
        // A pointer naming its own configuration, or one the registry
        // does not hold, is corrupt: treat it as ⊥ rather than walk a
        // cycle forever or into nothing.
        if let Some(e) = next.filter(|e| env.names_successor(self.base, e)) {
            // Prefer F over P (Alg. 4 lines 16-19); consensus guarantees
            // the cfg ids agree.
            if self
                .best
                .is_none_or(|b| b.status != Status::Finalized && e.status == Status::Finalized)
            {
                self.best = Some(e);
            }
        }
        if self.phase.complete() {
            Step::done(self.best)
        } else {
            Step::idle()
        }
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>) -> Step<Msg, Self::Out> {
        self.phase.resend(env.rto())
    }
}

/// `put-config(c, entry)` (Alg. 4): write the successor pointer to a
/// quorum of `c.Servers`.
pub(crate) struct PutConfig {
    base: ConfigId,
    phase: QuorumPhase<Msg>,
}

impl PutConfig {
    fn start(base: &Configuration, entry: ConfigEntry, env: &mut Env<'_, '_>) -> Armed<Self> {
        let op = env.op;
        let phase = env.phase(base, |rpc| CfgMsg::WriteConfig { base: base.id, entry, rpc, op });
        let first = phase.send(env.rto());
        Armed::start(PutConfig { base: base.id, phase }, first, env)
    }
}

impl Leaf for PutConfig {
    type Out = ();
    const NAME: &'static str = "put-config";
    const ROUND_TRIP: bool = true;

    fn on_msg(&mut self, from: ProcessId, msg: &Msg, _env: &mut Env<'_, '_>) -> Step<Msg, ()> {
        let Msg::Cfg(CfgMsg::CfgAck { base, rpc, .. }) = msg else {
            return Step::idle();
        };
        if *base == self.base && self.phase.hear(from, *rpc) && self.phase.complete() {
            Step::done(())
        } else {
            Step::idle()
        }
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>) -> Step<Msg, ()> {
        self.phase.resend(env.rto())
    }
}

/// One DAP primitive executed in a given configuration.
pub(crate) struct Dap(DapCall);

impl Dap {
    fn start(
        cfg: Arc<Configuration>,
        obj: ObjectId,
        action: DapAction,
        env: &mut Env<'_, '_>,
    ) -> Armed<Self> {
        let mut ctx = DapCtx::new(cfg, obj, env.me, env.op);
        ctx.retry_interval = env.rto();
        let (call, first) = DapCall::start(ctx, action, &mut env.shared.rpc);
        Armed::start(Dap(call), lift(first, Msg::Dap).map(Ok), env)
    }
}

impl Leaf for Dap {
    type Out = Result<DapOutput, Redirect>;
    const NAME: &'static str = "dap";
    const ROUND_TRIP: bool = true;

    fn on_msg(
        &mut self,
        from: ProcessId,
        msg: &Msg,
        env: &mut Env<'_, '_>,
    ) -> Step<Msg, Self::Out> {
        let Msg::Dap(m) = msg else { return Step::idle() };
        if let DapBody::Retired(next) = &m.body {
            if !env.names_successor(m.hdr.cfg, next) {
                return Step::idle();
            }
        }
        let step = lift(self.0.on_message(from, m, &mut env.shared.rpc), Msg::Dap);
        step.map(|out| match out {
            DapOutput::Retired(next) => Err(env.redirect(m.hdr.cfg, next)),
            out => Ok(out),
        })
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>) -> Step<Msg, Self::Out> {
        lift(self.0.on_timer(&mut env.shared.rpc), Msg::Dap).map(Ok)
    }
}

/// An engine's step, its messages wrapped as [`Msg`]s.
fn lift<M, O>(step: Step<M, O>, wrap: fn(M) -> Msg) -> Step<Msg, O> {
    Step {
        sends: step.sends.into_iter().map(|(to, m)| (to, wrap(m))).collect(),
        output: step.output,
        timer_after: step.timer_after,
    }
}

/// One `c.Con.propose(value)` call (Paxos proposer).
pub(crate) struct Propose(Proposer);

impl Propose {
    fn start(base: &Configuration, value: ConfigId, env: &mut Env<'_, '_>) -> Armed<Self> {
        let cfg = ProposerConfig {
            inst: base.id,
            servers: base.servers.clone(),
            quorum: base.quorum_size(),
            backoff_unit: env.shared.config.backoff_unit,
            retry_interval: env.rto(),
        };
        // Ballots are ordered by (round, proposer id): concurrent
        // reconfig sessions of one host propose under their distinct
        // logical writer ids so their ballots stay unique.
        let (p, first) = Proposer::start(cfg, env.writer, env.op, value, &mut env.shared.rpc);
        Armed::start(Propose(p), lift(first, Msg::Con), env)
    }
}

impl Leaf for Propose {
    type Out = ConfigId;
    const NAME: &'static str = "propose";
    const ROUND_TRIP: bool = false;

    fn on_msg(&mut self, from: ProcessId, msg: &Msg, env: &mut Env<'_, '_>) -> Step<Msg, ConfigId> {
        let Msg::Con(m) = msg else { return Step::idle() };
        lift(self.0.on_message(from, m.clone(), &mut env.shared.rpc), Msg::Con)
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>) -> Step<Msg, ConfigId> {
        lift(self.0.on_timer(&mut env.shared.rpc), Msg::Con)
    }
}

/// `forward-code-element(τ, C, C')` (Alg. 8): ask the source servers to
/// forward their elements for `τ` directly to the destination servers,
/// then await acks from a destination quorum.
pub(crate) struct Transfer {
    tag: Tag,
    src: ConfigId,
    dst: Arc<Configuration>,
    obj: ObjectId,
    rpc: RpcId,
    acks: BTreeSet<ProcessId>,
    /// Grows the rebroadcast delay, so a transfer stalled by load backs
    /// off instead of re-amplifying the ×(src · dst) forward fan-out.
    backoff: Backoff,
}

impl Transfer {
    fn start(
        tag: Tag,
        src: ConfigId,
        dst: Arc<Configuration>,
        obj: ObjectId,
        env: &mut Env<'_, '_>,
    ) -> Armed<Self> {
        let rpc = env.fresh_rpc();
        let t = Transfer {
            tag,
            src,
            dst,
            obj,
            rpc,
            acks: BTreeSet::new(),
            backoff: Backoff::default(),
        };
        let first = t.broadcast(env, t.backoff.arm(env.shared.config.backoff_unit * 8));
        Armed::start(t, first.map(Ok), env)
    }

    /// (Re-)issues the `REQ-FW-CODE-ELEM` broadcast. The phase id stays
    /// fixed across retries: destination servers ack a reconfigurer at
    /// most once (the `Recons` set of Alg. 9), so collected acks must
    /// keep counting. Retries matter when source-side garbage collection
    /// races the transfer — once the write burst subsides the sources
    /// converge on a common newest element and the destination decodes.
    fn broadcast(&self, env: &Env<'_, '_>, timer: Delay) -> Step<Msg, ()> {
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
        let sends =
            env.cfg(self.src).servers.iter().map(|&s| (s, Msg::Xfer(msg.clone()))).collect();
        Step::sends(sends).with_timer(timer)
    }
}

impl Leaf for Transfer {
    type Out = Result<(), Redirect>;
    const NAME: &'static str = "forward-code-element";
    const ROUND_TRIP: bool = false;

    fn on_msg(
        &mut self,
        from: ProcessId,
        msg: &Msg,
        env: &mut Env<'_, '_>,
    ) -> Step<Msg, Self::Out> {
        match msg {
            Msg::Xfer(XferMsg::XferAck { dst, rpc, tag, .. }) => {
                // Replicated sources may forward a newer tag (see
                // ServerActor); any tag ≥ the requested one carries at
                // least as recent a value.
                if *dst != self.dst.id
                    || *rpc != self.rpc
                    || *tag < self.tag
                    || !self.acks.insert(from)
                {
                    return Step::idle();
                }
                if self.acks.len() >= self.dst.quorum_size() {
                    Step::done(Ok(()))
                } else {
                    Step::idle()
                }
            }
            // A source server retired `src`, or a destination server
            // retired `dst`: the transfer ends at the successor.
            Msg::Dap(DapMsg { hdr, body: DapBody::Retired(next) })
                if hdr.rpc == self.rpc
                    && hdr.obj == self.obj
                    && (hdr.cfg == self.src || hdr.cfg == self.dst.id)
                    && next.status == Status::Finalized
                    && env.names_successor(hdr.cfg, next) =>
            {
                Step::done(Err(env.redirect(hdr.cfg, *next)))
            }
            _ => Step::idle(),
        }
    }

    fn on_timer(&mut self, env: &mut Env<'_, '_>) -> Step<Msg, Self::Out> {
        let timer = self.backoff.rearm(env.shared.config.backoff_unit * 8);
        self.broadcast(env, timer).map(Ok)
    }
}

// ---------------------------------------------------------------------
// Composites: sub-protocols built from others
// ---------------------------------------------------------------------

/// `read-config(seq)` (Alg. 4): walk the global configuration sequence
/// from the last finalized entry, propagating each discovered pointer
/// back to the previous configuration.
pub(crate) struct ReadConfig {
    seq: ConfigSeq,
    cur: usize,
    walk: Walk,
}

enum Walk {
    Next(Armed<ReadNext>),
    Put(Armed<PutConfig>),
}

impl ReadConfig {
    fn start(seq: ConfigSeq, env: &mut Env<'_, '_>) -> Self {
        env.note('+', "read-config");
        let cur = seq.mu(); // µ: last finalized entry
        let walk = Walk::Next(ReadNext::start(&env.cfg(seq.get(cur).cfg), env));
        ReadConfig { seq, cur, walk }
    }

    /// Returns the (possibly extended) sequence once the walk ends.
    fn on(&mut self, input: Input<'_>, env: &mut Env<'_, '_>) -> Option<ConfigSeq> {
        match &mut self.walk {
            Walk::Next(next) => {
                let Some(entry) = next.on(input, env)? else {
                    env.note('-', "read-config");
                    return Some(self.seq.clone());
                };
                self.seq.absorb(self.cur + 1, entry);
                // put-config(seq[µ−1].cfg, seq[µ]): inform the previous
                // configuration about the (possibly upgraded) successor.
                let base = env.cfg(self.seq.get(self.cur).cfg);
                self.walk = Walk::Put(PutConfig::start(&base, self.seq.get(self.cur + 1), env));
            }
            Walk::Put(put) => {
                put.on(input, env)?;
                self.cur += 1;
                let base = env.cfg(self.seq.get(self.cur).cfg);
                self.walk = Walk::Next(ReadNext::start(&base, env));
            }
        }
        None
    }
}

/// What a finished operation reports: its completion record's fields,
/// and the configuration sequence it ended with.
pub(crate) struct Done {
    pub seq: ConfigSeq,
    pub tag: Option<Tag>,
    pub value_digest: Option<u64>,
    pub installed: Option<ConfigId>,
}

/// A client operation in flight.
pub(crate) enum Operation {
    ReadWrite(ReadWrite),
    Recon(Recon),
}

impl Operation {
    pub(crate) fn on(&mut self, input: Input<'_>, env: &mut Env<'_, '_>) -> Option<Done> {
        match self {
            Operation::ReadWrite(op) => op.on(input, env),
            Operation::Recon(op) => op.on(input, env),
        }
    }
}

enum RwPhase {
    /// The initial `read-config`.
    Discover(ReadConfig),
    /// `get-tag`/`get-data` in configuration `i` of `µ..=ν`.
    Query(Armed<Dap>),
    /// `put-data` in the last configuration.
    Propagate(Armed<Dap>),
    /// Re-reading the configuration sequence after a `put-data`.
    Confirm(ReadConfig),
}

/// A `write(val)` or a `read()` operation (Alg. 7): the two columns
/// differ only in what the query phase asks for and what is propagated.
pub(crate) struct ReadWrite {
    /// The value a write writes; `None` for a read.
    value: Option<Value>,
    obj: ObjectId,
    seq: ConfigSeq,
    i: usize,
    /// The highest tag queried so far and, for a read, its value; then
    /// the pair `put-data` propagates.
    best: TagValue,
    phase: RwPhase,
}

impl ReadWrite {
    pub(crate) fn start(
        value: Option<Value>,
        obj: ObjectId,
        seq: ConfigSeq,
        env: &mut Env<'_, '_>,
    ) -> Self {
        env.note('+', if value.is_some() { "write" } else { "read" });
        let phase = RwPhase::Discover(ReadConfig::start(seq.clone(), env));
        ReadWrite { value, obj, seq, i: 0, best: TagValue::initial(), phase }
    }

    fn on(&mut self, input: Input<'_>, env: &mut Env<'_, '_>) -> Option<Done> {
        match &mut self.phase {
            RwPhase::Discover(rc) => {
                self.seq = rc.on(input, env)?;
                self.i = self.seq.mu();
                self.query(env);
            }
            RwPhase::Query(dap) => {
                match dap.on(input, env)? {
                    Ok(DapOutput::TagValue(tv)) if tv.tag > self.best.tag => self.best = tv,
                    Ok(DapOutput::TagValue(_)) => {}
                    Ok(out) => self.best.tag = self.best.tag.max(out.tag()),
                    // Continue at the successor, keeping what the
                    // configurations before it gave.
                    Err(redirect) => {
                        self.i = redirect.absorb(&mut self.seq);
                        self.query(env);
                        return None;
                    }
                }
                self.i += 1;
                if self.i <= self.seq.nu() {
                    self.query(env);
                    return None;
                }
                if let Some(value) = &self.value {
                    // ⟨τ, v⟩ ← ⟨(τ_max.ts + 1, ω_i), val⟩ — ω_i is the
                    // *session's* writer id: concurrent sessions of one
                    // host must mint distinct tags.
                    self.best = TagValue::new(self.best.tag.increment(env.writer), value.clone());
                }
                self.propagate(env);
            }
            RwPhase::Propagate(dap) => {
                if let Err(redirect) = dap.on(input, env)? {
                    // The last configuration retired: put-data moves to
                    // its successor, the new last one.
                    redirect.absorb(&mut self.seq);
                    self.propagate(env);
                    return None;
                }
                self.phase = RwPhase::Confirm(ReadConfig::start(self.seq.clone(), env));
            }
            RwPhase::Confirm(rc) => {
                let seq = rc.on(input, env)?;
                if seq.len() == self.seq.len() {
                    env.note('-', if self.value.is_some() { "write" } else { "read" });
                    return Some(Done {
                        seq,
                        tag: Some(self.best.tag),
                        value_digest: Some(self.best.value.digest()),
                        installed: None,
                    });
                }
                self.seq = seq;
                self.propagate(env);
            }
        }
        None
    }

    fn query(&mut self, env: &mut Env<'_, '_>) {
        let cfg = env.cfg(self.seq.get(self.i).cfg);
        let action = if self.value.is_some() { DapAction::GetTag } else { DapAction::GetData };
        self.phase = RwPhase::Query(Dap::start(cfg, self.obj, action, env));
    }

    fn propagate(&mut self, env: &mut Env<'_, '_>) {
        let cfg = env.cfg(self.seq.last().cfg);
        let put = DapAction::PutData(self.best.clone());
        self.phase = RwPhase::Propagate(Dap::start(cfg, self.obj, put, env));
    }
}

enum ReconPhase {
    Discover(ReadConfig),
    /// add-config's consensus.
    Propose(Armed<Propose>),
    /// add-config's `put-config` of ⟨d, P⟩.
    AddPut(Armed<PutConfig>),
    /// update-config's query of configuration `i` for the current object.
    Query(Armed<Dap>),
    /// Plain update-config's `put-data` into the new configuration.
    Migrate(Armed<Dap>),
    /// Direct update-config's transfer into the new configuration.
    Transfer(Armed<Transfer>),
    /// finalize-config's `put-config` of ⟨d, F⟩.
    FinalizePut(Armed<PutConfig>),
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
pub(crate) struct Recon {
    target: ConfigId,
    mode: TransferMode,
    /// How the current object migrates: `mode`, or `Plain` for a direct
    /// hop the destination cannot take.
    obj_mode: TransferMode,
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
    phase: ReconPhase,
}

impl Recon {
    pub(crate) fn start(
        target: ConfigId,
        seq: ConfigSeq,
        objs: Vec<ObjectId>,
        mode: TransferMode,
        env: &mut Env<'_, '_>,
    ) -> Self {
        env.note('+', "reconfig");
        let phase = ReconPhase::Discover(ReadConfig::start(seq.clone(), env));
        Recon {
            target,
            mode,
            obj_mode: mode,
            seq,
            objs: objs.into_iter(),
            obj: ObjectId(0),
            i: 0,
            best: TagValue::initial(),
            best_src: (TAG0, ConfigId(0)),
            decided: ConfigId(0),
            phase,
        }
    }

    fn on(&mut self, input: Input<'_>, env: &mut Env<'_, '_>) -> Option<Done> {
        match &mut self.phase {
            ReconPhase::Discover(rc) => {
                self.seq = rc.on(input, env)?;
                return self.discovered(env);
            }
            ReconPhase::Propose(propose) => {
                // Adopt the decision (which may not be our proposal) and
                // propagate ⟨d, P⟩ to the previous configuration.
                self.decided = propose.on(input, env)?;
                let prev = env.cfg(self.seq.last().cfg);
                self.seq.push(ConfigEntry::pending(self.decided));
                let entry = ConfigEntry::pending(self.decided);
                self.phase = ReconPhase::AddPut(PutConfig::start(&prev, entry, env));
            }
            // update-config, object by object.
            ReconPhase::AddPut(put) => {
                put.on(input, env)?;
                self.next_object_or_finalize(env);
            }
            ReconPhase::Query(dap) => match dap.on(input, env)? {
                Ok(out) => self.queried(out, env),
                Err(redirect) => self.redirected(redirect, env),
            },
            ReconPhase::Migrate(dap) => match dap.on(input, env)? {
                Ok(_) => self.next_object_or_finalize(env),
                Err(redirect) => self.redirected(redirect, env),
            },
            ReconPhase::Transfer(transfer) => match transfer.on(input, env)? {
                Ok(()) => self.next_object_or_finalize(env),
                Err(redirect) => self.redirected(redirect, env),
            },
            ReconPhase::FinalizePut(put) => {
                put.on(input, env)?;
                return Some(self.done(env));
            }
        }
        None
    }

    fn discovered(&mut self, env: &mut Env<'_, '_>) -> Option<Done> {
        // If the discovered chain already contains the target — a rival
        // reconfigurer won the race for the same configuration —
        // add-config must be SKIPPED: proposing `c` on the consensus
        // object of a chain that already ends with `c` would install
        // `nextC(c) = c`, a self-loop every future `read-config` walk
        // re-absorbs and re-propagates forever (a permanent livelock of
        // the whole discovery service, observed as a Cfg-message storm
        // on the live runtime). The recon instead adopts the chain end
        // as the decision and still runs update-config +
        // finalize-config, so state handover and finalization complete
        // even if the rival crashed mid-reconfiguration.
        if self.seq.contains(self.target) {
            self.decided = self.seq.last().cfg;
            if self.seq.nu() == 0 {
                // The chain is just the genesis configuration
                // (necessarily the target): there is no older
                // configuration to migrate from or to write a finalize
                // pointer to — reconfig(c0) completes as a no-op.
                // (finalize() would index seq[ν−1].)
                return Some(self.done(env));
            }
            self.next_object_or_finalize(env);
            return None;
        }
        // add-config: propose on the consensus object of the last
        // configuration in the sequence.
        let base = env.cfg(self.seq.last().cfg);
        self.phase = ReconPhase::Propose(Propose::start(&base, self.target, env));
        None
    }

    fn queried(&mut self, out: DapOutput, env: &mut Env<'_, '_>) {
        match out {
            // Plain: get-data's pair.
            DapOutput::TagValue(tv) => {
                if tv.tag > self.best.tag {
                    self.best = tv;
                }
            }
            // Direct: get-tag's tag, and where it was found.
            out => {
                let t = out.tag();
                if t > self.best_src.0 || self.i == self.seq.mu() {
                    self.best_src = (t, self.seq.get(self.i).cfg);
                }
            }
        }
        self.i += 1;
        if self.i <= self.seq.nu() {
            return self.query(env);
        }
        let dst = env.cfg(self.seq.last().cfg);
        match self.obj_mode {
            TransferMode::Plain => {
                // seq[ν].put-data(⟨τ_max, v_max⟩)
                let put = DapAction::PutData(self.best.clone());
                self.phase = ReconPhase::Migrate(Dap::start(dst, self.obj, put, env));
            }
            TransferMode::Direct => {
                let (tag, src) = self.best_src;
                if tag == TAG0 || src == dst.id {
                    // Nothing written yet (or the newest data is already
                    // in the target): skip.
                    return self.next_object_or_finalize(env);
                }
                let coded = |cfg: &Configuration| matches!(cfg.dap, DapKind::Treas { .. });
                if coded(&env.cfg(src)) && !coded(&dst) {
                    // A replicated destination stores values, and one
                    // forwarded coded element is not the value: this hop
                    // migrates by plain get-data / put-data instead.
                    self.obj_mode = TransferMode::Plain;
                    self.i = self.seq.mu();
                    return self.query(env);
                }
                let transfer = Transfer::start(tag, src, dst, self.obj, env);
                self.phase = ReconPhase::Transfer(transfer);
            }
        }
    }

    /// A configuration this object's update-config reached is retired:
    /// its queries restart at the successor, which then starts the
    /// object's `µ..=ν`. A plain migration keeps the pair it gathered; a
    /// direct one re-picks its source at the successor and after (a
    /// retired source can forward nothing).
    fn redirected(&mut self, redirect: Redirect, env: &mut Env<'_, '_>) {
        self.i = redirect.absorb(&mut self.seq);
        self.best_src = (TAG0, ConfigId(0));
        self.query(env);
    }

    /// Starts the `update-config` query loop for the next object, or
    /// `finalize-config` once every object has migrated (at once, when
    /// the client manages none).
    fn next_object_or_finalize(&mut self, env: &mut Env<'_, '_>) {
        let Some(obj) = self.objs.next() else { return self.finalize(env) };
        self.obj = obj;
        self.obj_mode = self.mode;
        self.i = self.seq.mu();
        self.best = TagValue::initial();
        self.best_src = (TAG0, ConfigId(0));
        self.query(env);
    }

    fn query(&mut self, env: &mut Env<'_, '_>) {
        let cfg = env.cfg(self.seq.get(self.i).cfg);
        let action = match self.obj_mode {
            TransferMode::Plain => DapAction::GetData,
            TransferMode::Direct => DapAction::GetTag,
        };
        self.phase = ReconPhase::Query(Dap::start(cfg, self.obj, action, env));
    }

    fn finalize(&mut self, env: &mut Env<'_, '_>) {
        // finalize-config: seq[ν].status ← F, then put-config to the
        // previous configuration's servers. seq[ν] is the decision unless
        // a redirect extended the chain past it.
        self.seq.finalize_last();
        let prev = env.cfg(self.seq.get(self.seq.nu() - 1).cfg);
        let entry = ConfigEntry::finalized(self.seq.last().cfg);
        self.phase = ReconPhase::FinalizePut(PutConfig::start(&prev, entry, env));
    }

    fn done(&self, env: &mut Env<'_, '_>) -> Done {
        env.note('-', "reconfig");
        Done { seq: self.seq.clone(), tag: None, value_digest: None, installed: Some(self.decided) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_sim::HostEffect;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const CLIENT: ProcessId = ProcessId(100);

    /// Messages a transition sent.
    type Sent = Vec<(ProcessId, Msg)>;

    /// Configurations c0, c1 and c2, each a TREAS `[5, 3]` over servers
    /// 1..=5 (quorum 4).
    fn shared() -> Shared {
        let servers: Vec<ProcessId> = (1..=5).map(ProcessId).collect();
        let registry = ConfigRegistry::from_configs(
            (0..3).map(|c| Configuration::treas(ConfigId(c), servers.clone(), 3, 2)),
        );
        Shared {
            registry,
            config: ClientConfig::new(ConfigId(0)),
            rpc: 0,
            next_token: 0,
            timer_ops: HashMap::new(),
            rtt: RttEstimator::default(),
        }
    }

    /// One transition of operation 0: returns `f`'s result, the
    /// messages sent and the timer tokens armed.
    fn transition<T>(
        shared: &mut Shared,
        f: impl FnOnce(&mut Env<'_, '_>) -> T,
    ) -> (T, Sent, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ctx = Ctx::detached(CLIENT, 0, &mut rng);
        let op = OpId { client: CLIENT, seq: 0 };
        let out = f(&mut Env { me: CLIENT, writer: CLIENT, op, shared, ctx: &mut ctx });
        let (mut sends, mut tokens) = (Vec::new(), Vec::new());
        for effect in ctx.take_effects() {
            match effect {
                HostEffect::Send { to, msg } => sends.push((to, msg)),
                HostEffect::SetTimer { token, .. } => tokens.push(token),
                HostEffect::Complete(_) | HostEffect::Note(_) => {}
            }
        }
        (out, sends, tokens)
    }

    /// `read-next-config` on c0 and on c1, both under operation 0:
    /// their first transmissions (c0's five requests, then c1's) and
    /// their timer tokens.
    fn two_walks(shared: &mut Shared) -> ([Armed<ReadNext>; 2], Sent, Vec<u64>) {
        transition(shared, |env| {
            [
                ReadNext::start(&env.cfg(ConfigId(0)), env),
                ReadNext::start(&env.cfg(ConfigId(1)), env),
            ]
        })
    }

    /// The server's reply to a `read-next-config` request: c0 points at
    /// c1, c1 has no successor yet.
    fn reply(request: &Msg) -> Msg {
        let Msg::Cfg(CfgMsg::ReadConfig { base, rpc, op }) = *request else {
            panic!("{request:?}")
        };
        let next = (base == ConfigId(0)).then_some(ConfigEntry::pending(ConfigId(1)));
        Msg::Cfg(CfgMsg::NextC { base, rpc, next, op })
    }

    #[test]
    fn two_leaves_in_flight_each_complete_with_their_own_result() {
        let c1 = ConfigEntry::pending(ConfigId(1));
        // c0's replies then c1's; and the two interleaved, c1's first.
        for order in [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [5, 0, 6, 1, 7, 2, 8, 3, 9, 4]] {
            let mut shared = shared();
            let (mut leaves, sends, _) = two_walks(&mut shared);
            let mut results = [None, None];
            for i in order {
                let (from, request) = &sends[i];
                let reply = reply(request);
                let (_, sent, armed) = transition(&mut shared, |env| {
                    for (leaf, result) in leaves.iter_mut().zip(&mut results) {
                        if result.is_none() {
                            *result = leaf.on(Input::Reply(*from, &reply), env);
                        }
                    }
                });
                assert!(sent.is_empty() && armed.is_empty(), "a reply completes, never sends");
            }
            assert_eq!(results, [Some(Some(c1)), Some(None)], "order {order:?}");
        }
    }

    #[test]
    fn a_timer_token_reaches_only_the_leaf_that_armed_it() {
        let mut shared = shared();
        let (mut leaves, sends, tokens) = two_walks(&mut shared);
        assert_eq!(tokens.len(), 2);
        // Servers 1–3 answer both walks; 4 and 5 stay silent.
        for (from, request) in sends.iter().filter(|(s, _)| s.0 <= 3) {
            let reply = reply(request);
            let (results, _, _) = transition(&mut shared, |env| {
                leaves.each_mut().map(|leaf| leaf.on(Input::Reply(*from, &reply), env))
            });
            assert_eq!(results, [None, None], "three replies of quorum 4");
        }
        for (fired, mine) in tokens.into_iter().zip([&sends[3..5], &sends[8..10]]) {
            let (results, sent, armed) = transition(&mut shared, |env| {
                leaves.each_mut().map(|leaf| leaf.on(Input::Timer(fired), env))
            });
            assert_eq!(results, [None, None]);
            assert_eq!(sent, mine, "its own request to servers 4 and 5, under its own rpc");
            assert_eq!(armed.len(), 1, "one leaf re-armed");
        }
    }
}
