//! Simulator-level tests of the consensus service: many contending
//! proposers over lossy timing, acceptor crashes within bounds —
//! Agreement, Validity and (practical) Termination of Definition 41.

use ares_consensus::{Acceptor, ConMsg, Proposer, ProposerConfig};
use ares_sim::{
    Actor, Ctx, FaultAction, FaultSchedule, NetworkConfig, RunOutcome, SimMessage, World,
};
use ares_types::{ConfigId, OpCompletion, OpId, OpKind, ProcessId};

#[derive(Clone, Debug)]
struct PaxMsg(ConMsg);

impl SimMessage for PaxMsg {
    fn op(&self) -> Option<OpId> {
        self.0.op()
    }
}

struct AcceptorActor {
    acc: Acceptor,
}

impl Actor<PaxMsg> for AcceptorActor {
    fn on_message(&mut self, from: ProcessId, msg: PaxMsg, ctx: &mut Ctx<'_, PaxMsg>) {
        for (to, m) in self.acc.handle(from, msg.0) {
            ctx.send(to, PaxMsg(m));
        }
    }
}

struct ProposerActor {
    servers: Vec<ProcessId>,
    quorum: usize,
    value: ConfigId,
    engine: Option<Proposer>,
    started: bool,
    invoked_at: u64,
    rpc: u64,
    /// The token of the one timer the engine currently wants: a step's
    /// timer replaces the one armed before it.
    timer: u64,
}

impl ProposerActor {
    fn emit(&mut self, step: ares_types::Step<ConMsg, ConfigId>, ctx: &mut Ctx<'_, PaxMsg>) {
        for (to, m) in step.sends {
            ctx.send(to, PaxMsg(m));
        }
        if let Some(after) = step.timer_after {
            self.timer += 1;
            ctx.set_timer(after.get(), self.timer);
        }
        if let Some(decided) = step.output {
            let mut c = OpCompletion::new(
                OpId { client: ctx.pid(), seq: 0 },
                OpKind::Recon,
                self.invoked_at,
                ctx.now(),
            );
            c.installed = Some(decided);
            ctx.complete(c);
            self.engine = None;
        }
    }
}

impl Actor<PaxMsg> for ProposerActor {
    fn on_message(&mut self, from: ProcessId, msg: PaxMsg, ctx: &mut Ctx<'_, PaxMsg>) {
        if !self.started {
            // First delivery is the harness "go" signal.
            self.started = true;
            self.invoked_at = ctx.now();
            let cfg = ProposerConfig {
                inst: ConfigId(0),
                servers: self.servers.clone(),
                quorum: self.quorum,
                backoff_unit: 20,
                retry_interval: 200,
            };
            let op = OpId { client: ctx.pid(), seq: 0 };
            let (p, step) = Proposer::start(cfg, ctx.pid(), op, self.value, &mut self.rpc);
            self.engine = Some(p);
            self.emit(step, ctx);
            return;
        }
        // Stray replies after completion are dropped.
        let Some(engine) = self.engine.as_mut() else { return };
        let step = engine.on_message(from, msg.0, &mut self.rpc);
        self.emit(step, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, PaxMsg>) {
        if token != self.timer {
            return;
        }
        if let Some(p) = self.engine.as_mut() {
            let step = p.on_timer(&mut self.rpc);
            self.emit(step, ctx);
        }
    }
}

fn run_contention(n_acceptors: u32, n_proposers: u32, crashes: &[u32], seed: u64) -> Vec<ConfigId> {
    run_with_faults(n_acceptors, n_proposers, crashes, seed, &FaultSchedule::new())
}

fn run_with_faults(
    n_acceptors: u32,
    n_proposers: u32,
    crashes: &[u32],
    seed: u64,
    faults: &FaultSchedule,
) -> Vec<ConfigId> {
    let servers: Vec<ProcessId> = (1..=n_acceptors).map(ProcessId).collect();
    let quorum = n_acceptors as usize / 2 + 1;
    let mut world = World::new(NetworkConfig::uniform(5, 60), seed);
    world.install_faults(faults);
    for &s in &servers {
        world.add_actor(s, AcceptorActor { acc: Acceptor::new() });
    }
    for p in 0..n_proposers {
        let pid = ProcessId(100 + p);
        world.add_actor(
            pid,
            ProposerActor {
                servers: servers.clone(),
                quorum,
                value: ConfigId(10 + p),
                engine: None,
                started: false,
                invoked_at: 0,
                rpc: 0,
                timer: 0,
            },
        );
        // Kick: any message wakes the proposer; use a self-addressed
        // Prepare-shaped noop from the environment.
        world.post(
            p as u64, // slight stagger
            ProcessId(0),
            pid,
            PaxMsg(ConMsg::NackPrepare {
                inst: ConfigId(0),
                rpc: ares_types::RpcId(0),
                promised: ares_consensus::Ballot::ZERO,
                op: OpId { client: pid, seq: 0 },
            }),
        );
    }
    let crash = |s: FaultSchedule, &c| s.at(0, FaultAction::Crash { pid: ProcessId(c) });
    world.install_faults(&crashes.iter().fold(FaultSchedule::new(), crash));
    assert_eq!(world.run(), RunOutcome::Quiescent);
    world.completions().iter().map(|c| c.installed.expect("proposer decided")).collect()
}

#[test]
fn contending_proposers_agree() {
    for seed in 0..15u64 {
        let decisions = run_contention(5, 4, &[], seed);
        assert_eq!(decisions.len(), 4, "seed {seed}: termination");
        assert!(
            decisions.windows(2).all(|w| w[0] == w[1]),
            "seed {seed}: agreement violated: {decisions:?}"
        );
        // Validity: the decision is one of the proposals.
        assert!((10..14).map(ConfigId).any(|v| v == decisions[0]), "seed {seed}");
    }
}

#[test]
fn survives_minority_acceptor_crashes() {
    for seed in 0..10u64 {
        let decisions = run_contention(5, 3, &[4, 5], seed);
        assert_eq!(decisions.len(), 3, "seed {seed}: lives with 2 of 5 down");
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
    }
}

#[test]
fn single_proposer_decides_own_value_in_simulation() {
    for seed in 0..5u64 {
        let decisions = run_contention(3, 1, &[], seed);
        assert_eq!(decisions, vec![ConfigId(10)], "seed {seed}");
    }
}

#[test]
fn heavy_contention_still_terminates() {
    // 8 proposers slamming 3 acceptors: backoff must break the symmetry.
    for seed in 0..5u64 {
        let decisions = run_contention(3, 8, &[], seed);
        assert_eq!(decisions.len(), 8, "seed {seed}");
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "seed {seed}");
    }
}

#[test]
fn a_proposer_cut_off_from_the_acceptors_decides_after_the_heal() {
    // Proposer 100's links to all three acceptors are down for its first
    // 1,000 time units: the Prepare broadcast and the resends at 200 and
    // 600 are lost. The resend after the heal reaches the acceptors, and
    // the instance decides the proposal.
    let acceptors: Vec<ProcessId> = (1..=3).map(ProcessId).collect();
    let faults = FaultSchedule::new()
        .at(0, FaultAction::Partition { groups: vec![vec![ProcessId(100)], acceptors] })
        .at(1_000, FaultAction::HealAll);
    for seed in 0..5u64 {
        let decisions = run_with_faults(3, 1, &[], seed, &faults);
        assert_eq!(decisions, vec![ConfigId(10)], "seed {seed}");
    }
}
