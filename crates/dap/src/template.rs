//! The generic atomic-register templates A1 and A2 (Algs. 10–11) and
//! standalone simulator actors for *static* (single-configuration)
//! registers.
//!
//! Template **A1**: `read = get-data; put-data`, `write = get-tag; inc;
//! put-data`. Atomic whenever the DAP satisfies C1 and C2 (Theorem 32).
//! Template **A2**: like A1 but the read skips the propagation phase;
//! requires the additional property C3 (Theorem 33) — LDR is the paper's
//! example.
//!
//! Instantiating A1 over the TREAS DAP **is** the TREAS algorithm of
//! Section 3; over the ABD DAP it is multi-writer ABD. The standalone
//! [`StaticClientActor`] / [`StaticServerActor`] pair runs these in the
//! simulator without any reconfiguration machinery, which is how the
//! paper's static-cost claims (Theorem 3) are measured.

use crate::client::{DapCall, DapCtx};
use crate::server::DapServer;
use crate::{DapAction, DapMsg, DapOutput};
use ares_sim::{Actor, Ctx, SimMessage};
use ares_types::{
    Configuration, DapKind, ObjectId, OpCompletion, OpId, OpKind, ProcessId, Step, TagValue, Time,
    Value,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Which template drives the read protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateKind {
    /// Alg. 10: reads propagate the pair before returning.
    A1,
    /// Alg. 11: reads return right after `get-data` (needs DAP property
    /// C3, e.g. LDR).
    A2,
}

impl TemplateKind {
    /// The template the paper pairs with each DAP implementation.
    pub fn for_dap(dap: &DapKind) -> TemplateKind {
        match dap {
            DapKind::Abd | DapKind::Treas { .. } => TemplateKind::A1,
            DapKind::Ldr { .. } => TemplateKind::A2,
        }
    }
}

/// A client-level register operation.
#[derive(Debug, Clone)]
pub enum RegisterOp {
    /// `write(v)`
    Write(Value),
    /// `read()`
    Read,
}

/// Result of a completed register operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterOutput {
    /// The write completed with this (fresh) tag.
    Wrote(ares_types::Tag),
    /// The read returned this pair.
    ReadValue(TagValue),
}

enum RegPhase {
    WriteGetTag { value: Value },
    WritePut { tag: ares_types::Tag },
    ReadGetData,
    ReadPut { tv: TagValue },
    Done,
}

/// One register operation (A1/A2) running over a DAP.
pub struct RegisterCall {
    cfg: Arc<Configuration>,
    obj: ObjectId,
    me: ProcessId,
    op: OpId,
    kind: TemplateKind,
    phase: RegPhase,
    call: DapCall,
}

type RegStep = Step<DapMsg, RegisterOutput>;

impl RegisterCall {
    /// Starts a register operation.
    pub fn start(
        cfg: Arc<Configuration>,
        obj: ObjectId,
        me: ProcessId,
        op: OpId,
        kind: TemplateKind,
        operation: RegisterOp,
        rpc_counter: &mut u64,
    ) -> (Self, RegStep) {
        let ctx = DapCtx::new(cfg.clone(), obj, me, op);
        let (phase, action) = match operation {
            RegisterOp::Write(value) => (RegPhase::WriteGetTag { value }, DapAction::GetTag),
            RegisterOp::Read => (RegPhase::ReadGetData, DapAction::GetData),
        };
        let (call, step) = DapCall::start(ctx, action, rpc_counter);
        let rc = RegisterCall { cfg, obj, me, op, kind, phase, call };
        (rc, step.map(|_| unreachable!("first DAP phase cannot finish synchronously")))
    }

    fn advance(&mut self, out: DapOutput, rpc_counter: &mut u64) -> RegStep {
        match std::mem::replace(&mut self.phase, RegPhase::Done) {
            RegPhase::WriteGetTag { value } => {
                let t = out.tag();
                let tw = t.increment(self.me); // t_w = inc(t) = (t.z + 1, w)
                let ctx = DapCtx::new(self.cfg.clone(), self.obj, self.me, self.op);
                let (call, step) =
                    DapCall::start(ctx, DapAction::PutData(TagValue::new(tw, value)), rpc_counter);
                self.call = call;
                self.phase = RegPhase::WritePut { tag: tw };
                step.map(|_| unreachable!())
            }
            RegPhase::WritePut { tag } => Step::done(RegisterOutput::Wrote(tag)),
            RegPhase::ReadGetData => {
                let tv = out.tag_value().expect("get-data returns a pair").clone();
                match self.kind {
                    TemplateKind::A2 => Step::done(RegisterOutput::ReadValue(tv)),
                    TemplateKind::A1 => {
                        let ctx = DapCtx::new(self.cfg.clone(), self.obj, self.me, self.op);
                        let (call, step) =
                            DapCall::start(ctx, DapAction::PutData(tv.clone()), rpc_counter);
                        self.call = call;
                        self.phase = RegPhase::ReadPut { tv };
                        step.map(|_| unreachable!())
                    }
                }
            }
            RegPhase::ReadPut { tv } => Step::done(RegisterOutput::ReadValue(tv)),
            RegPhase::Done => Step::idle(),
        }
    }

    /// Feeds a DAP reply.
    pub fn on_message(&mut self, from: ProcessId, msg: &DapMsg, rpc_counter: &mut u64) -> RegStep {
        let step = self.call.on_message(from, msg, rpc_counter);
        let timer = step.timer_after;
        let mut out = match step.output {
            Some(o) => self.advance(o, rpc_counter),
            None => Step::sends(step.sends),
        };
        if out.timer_after.is_none() {
            out.timer_after = timer;
        }
        out
    }

    /// Feeds a timer expiration (phase retransmission).
    pub fn on_timer(&mut self, rpc_counter: &mut u64) -> RegStep {
        let step = self.call.on_timer(rpc_counter);
        let mut out = Step::sends(step.sends);
        out.timer_after = step.timer_after;
        out
    }
}

/// Wrapper message for static (non-reconfigurable) register simulations:
/// either DAP traffic or a client invocation injected by the harness.
#[derive(Debug, Clone)]
pub enum StaticMsg {
    /// DAP protocol traffic.
    Dap(DapMsg),
    /// Harness command: invoke an operation on the receiving client.
    Invoke(RegisterOp),
}

impl SimMessage for StaticMsg {
    fn payload_bytes(&self) -> u64 {
        match self {
            StaticMsg::Dap(m) => m.payload_bytes(),
            StaticMsg::Invoke(_) => 0,
        }
    }
    fn op(&self) -> Option<OpId> {
        match self {
            StaticMsg::Dap(m) => m.op(),
            StaticMsg::Invoke(_) => None,
        }
    }
    fn label(&self) -> String {
        match self {
            StaticMsg::Dap(m) => m.label(),
            StaticMsg::Invoke(RegisterOp::Read) => "INVOKE-READ".into(),
            StaticMsg::Invoke(RegisterOp::Write(_)) => "INVOKE-WRITE".into(),
        }
    }
}

/// Server actor for static register simulations.
pub struct StaticServerActor {
    dap: DapServer,
}

impl StaticServerActor {
    /// Creates the actor.
    pub fn new(dap: DapServer) -> Self {
        StaticServerActor { dap }
    }

    /// Bytes of object data stored (for storage-cost experiments).
    pub fn storage_bytes(&self) -> u64 {
        self.dap.storage_bytes()
    }
}

impl Actor<StaticMsg> for StaticServerActor {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_message(&mut self, from: ProcessId, msg: StaticMsg, ctx: &mut Ctx<'_, StaticMsg>) {
        if let StaticMsg::Dap(m) = msg {
            for (to, reply) in self.dap.handle(from, m) {
                ctx.send(to, StaticMsg::Dap(reply));
            }
        }
    }
}

/// Client actor for static register simulations: executes invocations
/// (queued FIFO) using template A1/A2 over the configuration's DAP and
/// reports [`OpCompletion`]s.
pub struct StaticClientActor {
    cfg: Arc<Configuration>,
    obj: ObjectId,
    kind: TemplateKind,
    rpc_counter: u64,
    op_seq: u64,
    queue: VecDeque<RegisterOp>,
    current: Option<Running>,
}

struct Running {
    call: RegisterCall,
    op: OpId,
    op_kind: OpKind,
    invoked_at: Time,
    digest: Option<u64>,
}

impl StaticClientActor {
    /// Creates a client over `cfg`, using the template the paper pairs
    /// with the configuration's DAP.
    pub fn new(cfg: Arc<Configuration>, obj: ObjectId) -> Self {
        let kind = TemplateKind::for_dap(&cfg.dap);
        StaticClientActor {
            cfg,
            obj,
            kind,
            rpc_counter: 0,
            op_seq: 0,
            queue: VecDeque::new(),
            current: None,
        }
    }

    fn start_next(&mut self, ctx: &mut Ctx<'_, StaticMsg>) {
        if self.current.is_some() {
            return;
        }
        let Some(op_cmd) = self.queue.pop_front() else {
            return;
        };
        let op = OpId { client: ctx.pid(), seq: self.op_seq };
        self.op_seq += 1;
        let (op_kind, digest) = match &op_cmd {
            RegisterOp::Write(v) => (OpKind::Write, Some(v.digest())),
            RegisterOp::Read => (OpKind::Read, None),
        };
        let (call, step) = RegisterCall::start(
            self.cfg.clone(),
            self.obj,
            ctx.pid(),
            op,
            self.kind,
            op_cmd,
            &mut self.rpc_counter,
        );
        self.current = Some(Running { call, op, op_kind, invoked_at: ctx.now(), digest });
        self.emit(step, ctx);
    }

    fn emit(&mut self, step: RegStep, ctx: &mut Ctx<'_, StaticMsg>) {
        for (to, m) in step.sends {
            ctx.send(to, StaticMsg::Dap(m));
        }
        if let Some(after) = step.timer_after {
            ctx.set_timer(after.get(), 0);
        }
        if let Some(out) = step.output {
            let r = self.current.take().expect("an operation was running");
            let mut c = OpCompletion::new(r.op, r.op_kind, r.invoked_at, ctx.now());
            c.obj = self.obj;
            match out {
                RegisterOutput::Wrote(tag) => {
                    c.tag = Some(tag);
                    c.value_digest = r.digest;
                }
                RegisterOutput::ReadValue(tv) => {
                    c.tag = Some(tv.tag);
                    c.value_digest = Some(tv.value.digest());
                }
            }
            ctx.complete(c);
            self.start_next(ctx);
        }
    }
}

impl Actor<StaticMsg> for StaticClientActor {
    fn on_message(&mut self, from: ProcessId, msg: StaticMsg, ctx: &mut Ctx<'_, StaticMsg>) {
        match msg {
            StaticMsg::Invoke(cmd) => {
                self.queue.push_back(cmd);
                self.start_next(ctx);
            }
            StaticMsg::Dap(m) => {
                if let Some(r) = self.current.as_mut() {
                    let step = r.call.on_message(from, &m, &mut self.rpc_counter);
                    self.emit(step, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_, StaticMsg>) {
        if let Some(r) = self.current.as_mut() {
            let step = r.call.on_timer(&mut self.rpc_counter);
            self.emit(step, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_sim::{FaultAction, FaultSchedule, NetworkConfig, World};
    use ares_types::{ConfigId, ConfigRegistry, Tag};

    fn setup(
        cfg: Configuration,
        n_servers: u32,
        n_clients: u32,
        seed: u64,
    ) -> (World<StaticMsg>, Arc<Configuration>) {
        let id = cfg.id;
        let reg = ConfigRegistry::from_configs([cfg]);
        let cfg = reg.get(id).clone();
        let mut world = World::new(NetworkConfig::uniform(10, 50), seed);
        for i in 1..=n_servers {
            world.add_actor(
                ProcessId(i),
                StaticServerActor::new(DapServer::new(ProcessId(i), reg.clone())),
            );
        }
        for c in 0..n_clients {
            world.add_actor(ProcessId(100 + c), StaticClientActor::new(cfg.clone(), ObjectId(0)));
        }
        (world, cfg)
    }

    const ENV: ProcessId = ProcessId(0);

    #[test]
    fn treas_write_read_in_simulation() {
        let cfg = Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2);
        let (mut world, _) = setup(cfg, 5, 1, 1);
        let v = Value::filler(48, 3);
        world.post(0, ENV, ProcessId(100), StaticMsg::Invoke(RegisterOp::Write(v.clone())));
        world.post(1, ENV, ProcessId(100), StaticMsg::Invoke(RegisterOp::Read));
        world.run();
        let done = world.completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].kind, OpKind::Write);
        assert_eq!(done[1].kind, OpKind::Read);
        assert_eq!(done[1].tag, done[0].tag);
        assert_eq!(done[1].value_digest, Some(v.digest()));
    }

    #[test]
    fn abd_two_writers_one_reader() {
        let cfg = Configuration::abd(ConfigId(0), (1..=3).map(ProcessId).collect());
        let (mut world, _) = setup(cfg, 3, 3, 7);
        world.post(
            0,
            ENV,
            ProcessId(100),
            StaticMsg::Invoke(RegisterOp::Write(Value::filler(8, 1))),
        );
        world.post(
            0,
            ENV,
            ProcessId(101),
            StaticMsg::Invoke(RegisterOp::Write(Value::filler(8, 2))),
        );
        world.post(500, ENV, ProcessId(102), StaticMsg::Invoke(RegisterOp::Read));
        world.run();
        let done = world.completions();
        assert_eq!(done.len(), 3);
        let read = done.iter().find(|c| c.kind == OpKind::Read).unwrap();
        // Read follows both writes in real time, so returns the max tag.
        let max_write_tag =
            done.iter().filter(|c| c.kind == OpKind::Write).map(|c| c.tag.unwrap()).max();
        assert_eq!(read.tag, max_write_tag);
    }

    #[test]
    fn ldr_uses_a2_and_round_trips() {
        let cfg = Configuration::ldr(ConfigId(0), (1..=5).map(ProcessId).collect(), 1);
        assert_eq!(TemplateKind::for_dap(&cfg.dap), TemplateKind::A2);
        let (mut world, _) = setup(cfg, 5, 1, 3);
        let v = Value::filler(16, 9);
        world.post(0, ENV, ProcessId(100), StaticMsg::Invoke(RegisterOp::Write(v.clone())));
        world.post(1, ENV, ProcessId(100), StaticMsg::Invoke(RegisterOp::Read));
        world.run();
        let done = world.completions();
        assert_eq!(done.len(), 2);
        assert_eq!(done[1].value_digest, Some(v.digest()));
    }

    #[test]
    fn treas_tolerates_f_crashes() {
        // n=5, k=3: f = (n-k)/2 = 1 crash tolerated.
        let cfg = Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2);
        let (mut world, _) = setup(cfg, 5, 1, 11);
        world.install_faults(&FaultSchedule::new().at(0, FaultAction::Crash { pid: ProcessId(5) }));
        let v = Value::filler(32, 4);
        world.post(1, ENV, ProcessId(100), StaticMsg::Invoke(RegisterOp::Write(v.clone())));
        world.post(2, ENV, ProcessId(100), StaticMsg::Invoke(RegisterOp::Read));
        world.run();
        let done = world.completions();
        assert_eq!(done.len(), 2, "operations complete despite one crash");
        assert_eq!(done[1].value_digest, Some(v.digest()));
    }

    #[test]
    fn write_tags_strictly_increase_per_writer() {
        let cfg = Configuration::abd(ConfigId(0), (1..=3).map(ProcessId).collect());
        let (mut world, _) = setup(cfg, 3, 1, 5);
        for i in 0..5u64 {
            world.post(
                i,
                ENV,
                ProcessId(100),
                StaticMsg::Invoke(RegisterOp::Write(Value::filler(4, i))),
            );
        }
        world.run();
        let tags: Vec<Tag> = world.completions().iter().map(|c| c.tag.unwrap()).collect();
        assert_eq!(tags.len(), 5);
        for w in tags.windows(2) {
            assert!(w[1] > w[0], "sequential writes get increasing tags");
        }
    }
}
