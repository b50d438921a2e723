//! The simulation world: actors, event queue, clock, fault injection.

use crate::faults::{FaultAction, FaultSchedule, FaultTrigger};
use crate::metrics::Metrics;
use crate::network::NetworkConfig;
use crate::trace::{TraceEvent, TraceKind};
use crate::SimMessage;
use ares_types::{OpCompletion, ProcessId, Time};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A protocol participant hosted by the [`World`].
///
/// Actors are single-threaded state machines: the world calls exactly one
/// handler at a time, in deterministic event order. Handlers interact with
/// the outside exclusively through the [`Ctx`].
pub trait Actor<M: SimMessage> {
    /// Delivers a message.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M>);

    /// Fires a timer previously set with [`Ctx::set_timer`].
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, M>) {
        let _ = (token, ctx);
    }

    /// Optional downcast hook so harnesses can inspect actor state after
    /// a run (e.g. per-server storage). Return `Some(self)` to opt in.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// Handler-side view of the world: lets an actor read the clock, send
/// messages, set timers, emit trace notes and report completed operations.
///
/// Effects are buffered and applied by the world after the handler
/// returns, preserving determinism.
pub struct Ctx<'a, M: SimMessage> {
    /// This actor's process id.
    pid: ProcessId,
    now: Time,
    tracing: bool,
    rng: &'a mut StdRng,
    effects: Vec<HostEffect<M>>,
}

/// One effect buffered by a [`Ctx`] while an actor handler runs.
///
/// The simulator applies these internally; the enum is public so that
/// *external* runtimes (e.g. a real TCP host) can create a detached
/// context with [`Ctx::detached`], run the very same actors, and apply
/// the drained effects to real sockets, real timers and a real
/// completion log.
#[derive(Debug)]
pub enum HostEffect<M> {
    /// Transmit `msg` to `to` over the (simulated or real) channel.
    Send {
        /// Destination process.
        to: ProcessId,
        /// The message.
        msg: M,
    },
    /// Wake the actor with `on_timer(token)` after `delay` time units.
    SetTimer {
        /// Relative delay.
        delay: Time,
        /// Token handed back to `on_timer`.
        token: u64,
    },
    /// A client operation completed.
    Complete(OpCompletion),
    /// Free-form trace note (dropped unless tracing is enabled).
    Note(String),
}

impl<'a, M: SimMessage> Ctx<'a, M> {
    /// Creates a context for hosting an actor *outside* the simulator.
    ///
    /// External runtimes build one per delivered event, invoke the actor
    /// handler, then apply the effects returned by
    /// [`Ctx::take_effects`]. `now` is whatever clock the host maintains
    /// (the actors only ever compare and stamp it).
    pub fn detached(pid: ProcessId, now: Time, rng: &'a mut StdRng) -> Self {
        Ctx { pid, now, tracing: false, rng, effects: Vec::new() }
    }

    /// Drains the effects buffered so far, in emission order.
    pub fn take_effects(&mut self) -> Vec<HostEffect<M>> {
        std::mem::take(&mut self.effects)
    }
}

impl<M: SimMessage> Ctx<'_, M> {
    /// This actor's process id.
    pub fn pid(&self) -> ProcessId {
        self.pid
    }

    /// Current simulated time. (Protocol logic must not branch on this —
    /// the paper's processes cannot read the global clock — but clients
    /// stamp operation invocation/response times for the history.)
    pub fn now(&self) -> Time {
        self.now
    }

    /// Deterministic per-world RNG (for randomized backoff etc.).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Sends `msg` to `to` over the asynchronous reliable channel.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.effects.push(HostEffect::Send { to, msg });
    }

    /// Broadcasts `msg` to every process in `targets`.
    pub fn broadcast<'t>(&mut self, targets: impl IntoIterator<Item = &'t ProcessId>, msg: &M) {
        for &t in targets {
            self.send(t, msg.clone());
        }
    }

    /// Schedules `on_timer(token)` to fire after `delay` time units.
    pub fn set_timer(&mut self, delay: Time, token: u64) {
        self.effects.push(HostEffect::SetTimer { delay, token });
    }

    /// Reports a completed client operation into the execution history.
    pub fn complete(&mut self, completion: OpCompletion) {
        self.effects.push(HostEffect::Complete(completion));
    }

    /// Whether structured tracing is enabled (lets actors skip building
    /// expensive note strings).
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Emits a free-form trace note (dropped unless tracing is enabled).
    pub fn note(&mut self, text: impl Into<String>) {
        if self.tracing {
            self.effects.push(HostEffect::Note(text.into()));
        }
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver { from: ProcessId, to: ProcessId, msg: M },
    Timer { pid: ProcessId, token: u64 },
    Fault { action: FaultAction },
}

struct Event<M> {
    at: Time,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Why [`World::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained: the execution is quiescent.
    Quiescent,
    /// The configured time horizon was reached.
    TimeLimit,
    /// The configured event budget was exhausted (possible livelock).
    EventLimit,
}

/// The simulation world.
///
/// Owns the clock, the event queue, the network model, all actors, the
/// metrics and the completion history. Executions are deterministic
/// functions of (actor set, injected events, seed).
pub struct World<M: SimMessage> {
    now: Time,
    seq: u64,
    queue: BinaryHeap<Reverse<Event<M>>>,
    actors: HashMap<ProcessId, Box<dyn Actor<M>>>,
    crashed: HashMap<ProcessId, Time>,
    net: NetworkConfig,
    rng: StdRng,
    metrics: Metrics,
    completions: Vec<OpCompletion>,
    trace: Option<Vec<TraceEvent>>,
    /// Stop processing events scheduled after this time.
    pub time_limit: Time,
    /// Stop after this many processed events.
    pub event_limit: u64,
    events_processed: u64,
    /// Step-triggered faults, sorted by step ascending; fired (and
    /// drained) once `events_processed` reaches their step.
    step_faults: Vec<(u64, FaultAction)>,
}

impl<M: SimMessage> World<M> {
    /// Creates a world with the given network model and RNG seed.
    pub fn new(net: NetworkConfig, seed: u64) -> Self {
        World {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            actors: HashMap::new(),
            crashed: HashMap::new(),
            net,
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::default(),
            completions: Vec::new(),
            trace: None,
            time_limit: Time::MAX,
            event_limit: 50_000_000,
            events_processed: 0,
            step_faults: Vec::new(),
        }
    }

    /// Enables structured tracing (see [`TraceEvent`]).
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Vec::new());
        }
    }

    /// The trace collected so far (empty if tracing is disabled).
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_deref().unwrap_or(&[])
    }

    /// Registers an actor under `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is already registered.
    pub fn add_actor(&mut self, pid: ProcessId, actor: impl Actor<M> + 'static) {
        let prev = self.actors.insert(pid, Box::new(actor));
        assert!(prev.is_none(), "duplicate actor {pid}");
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Execution metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Completed client operations, in completion order.
    pub fn completions(&self) -> &[OpCompletion] {
        &self.completions
    }

    /// Takes ownership of the completion history.
    pub fn take_completions(&mut self) -> Vec<OpCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Whether `pid` has crashed.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.crashed.contains_key(&pid)
    }

    /// Downcasts an actor that opted into [`Actor::as_any`].
    pub fn actor_as<A: 'static>(&self, pid: ProcessId) -> Option<&A> {
        self.actors.get(&pid)?.as_any()?.downcast_ref::<A>()
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Injects a message from the environment (or any process) to `to`,
    /// delivered exactly at time `at` (no network delay added). This is
    /// how the harness invokes client operations.
    pub fn post(&mut self, at: Time, from: ProcessId, to: ProcessId, msg: M) {
        let seq = self.next_seq();
        self.queue.push(Reverse(Event { at, seq, kind: EventKind::Deliver { from, to, msg } }));
    }

    /// Schedules `FaultAction::Crash { pid }` at time `at`.
    pub fn schedule_crash(&mut self, at: Time, pid: ProcessId) {
        self.schedule_fault(at, FaultAction::Crash { pid });
    }

    /// Schedules a recovery of `pid` at time `at`: the process resumes
    /// taking steps with whatever state it had when it crashed. The
    /// paper's model has no recoveries (a crashed process stays crashed;
    /// longevity comes from reconfiguration) — this hook exists for the
    /// *repair* extension, modelling a replacement process that reuses
    /// the id and then rebuilds its lost updates.
    pub fn schedule_recover(&mut self, at: Time, pid: ProcessId) {
        self.schedule_fault(at, FaultAction::Recover { pid });
    }

    /// Schedules a fault-plane action at simulated time `at`.
    pub fn schedule_fault(&mut self, at: Time, action: FaultAction) {
        let seq = self.next_seq();
        self.queue.push(Reverse(Event { at, seq, kind: EventKind::Fault { action } }));
    }

    /// Schedules a fault-plane action to fire once `step` events have
    /// been processed (checked before each event is popped).
    pub fn schedule_fault_at_step(&mut self, step: u64, action: FaultAction) {
        self.step_faults.push((step, action));
        self.step_faults.sort_by_key(|(s, _)| *s);
    }

    /// Installs a whole [`FaultSchedule`] (time- and step-triggered).
    pub fn install_faults(&mut self, schedule: &FaultSchedule) {
        for ev in &schedule.events {
            match ev.trigger {
                FaultTrigger::AtTime(at) => self.schedule_fault(at, ev.action.clone()),
                FaultTrigger::AtStep(step) => self.schedule_fault_at_step(step, ev.action.clone()),
            }
        }
    }

    /// The network fault plane (read-only view; mutate via faults).
    pub fn net(&self) -> &NetworkConfig {
        &self.net
    }

    /// Mutable access to the network fault plane, for harnesses that
    /// drive faults directly instead of through a schedule.
    pub fn net_mut(&mut self) -> &mut NetworkConfig {
        &mut self.net
    }

    fn apply_fault(&mut self, action: FaultAction) {
        self.metrics.faults_applied += 1;
        if let Some(t) = self.trace.as_mut() {
            let kind = match action {
                FaultAction::Crash { pid } => TraceKind::Crash { pid },
                _ => TraceKind::Note { pid: ProcessId(0), text: format!("fault: {action}") },
            };
            t.push(TraceEvent { at: self.now, kind });
        }
        match action {
            FaultAction::Crash { pid } => {
                self.crashed.insert(pid, self.now);
            }
            FaultAction::Recover { pid } => {
                self.crashed.remove(&pid);
            }
            other => self.net.apply(&other),
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Runs until quiescence or a limit; returns why it stopped.
    pub fn run(&mut self) -> RunOutcome {
        loop {
            match self.step() {
                Some(outcome) => return outcome,
                None => continue,
            }
        }
    }

    /// Processes exactly one event. Returns `None` while the run can
    /// continue, `Some(outcome)` once it cannot (quiescent or a limit).
    ///
    /// This is the incremental driver external *store* frontends use: a
    /// ticketed operation's `wait` pumps events one at a time until its
    /// completion appears, instead of running the world to quiescence
    /// past it.
    pub fn step_one(&mut self) -> Option<RunOutcome> {
        self.step()
    }

    /// Runs until `deadline` (inclusive) or quiescence.
    pub fn run_until(&mut self, deadline: Time) -> RunOutcome {
        let saved = self.time_limit;
        self.time_limit = deadline;
        let out = self.run();
        self.time_limit = saved;
        out
    }

    /// Processes a single event. Returns `Some(outcome)` when the run
    /// should stop, `None` to continue.
    fn step(&mut self) -> Option<RunOutcome> {
        if self.events_processed >= self.event_limit {
            return Some(RunOutcome::EventLimit);
        }
        while self.step_faults.first().is_some_and(|(s, _)| *s <= self.events_processed) {
            let (_, action) = self.step_faults.remove(0);
            self.apply_fault(action);
        }
        let Some(Reverse(ev)) = self.queue.pop() else {
            return Some(RunOutcome::Quiescent);
        };
        if ev.at > self.time_limit {
            // Push back so a later run() with a larger limit resumes.
            self.queue.push(Reverse(ev));
            return Some(RunOutcome::TimeLimit);
        }
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.events_processed += 1;

        match ev.kind {
            EventKind::Fault { action } => {
                self.apply_fault(action);
            }
            EventKind::Timer { pid, token } => {
                if self.crashed.contains_key(&pid) {
                    return None;
                }
                self.dispatch(pid, |actor, ctx| actor.on_timer(token, ctx));
            }
            EventKind::Deliver { from, to, msg } => {
                if self.crashed.contains_key(&to) {
                    return None;
                }
                // Delivery-time partition check: a link cut while the
                // message was in flight still kills it.
                if self.net.is_blocked(from, to) {
                    self.metrics.partition_drops += 1;
                    return None;
                }
                self.metrics.record_delivery();
                if let Some(t) = self.trace.as_mut() {
                    t.push(TraceEvent {
                        at: self.now,
                        kind: TraceKind::Deliver {
                            from,
                            to,
                            label: msg.label(),
                            bytes: msg.payload_bytes(),
                        },
                    });
                }
                self.dispatch(to, |actor, ctx| actor.on_message(from, msg, ctx));
            }
        }
        None
    }

    fn dispatch(
        &mut self,
        pid: ProcessId,
        f: impl FnOnce(&mut Box<dyn Actor<M>>, &mut Ctx<'_, M>),
    ) {
        let Some(mut actor) = self.actors.remove(&pid) else {
            // Message to an unknown process: dropped (models an address
            // that never joined; useful for retired configurations).
            return;
        };
        let tracing = self.trace.is_some();
        let mut ctx = Ctx { pid, now: self.now, tracing, rng: &mut self.rng, effects: Vec::new() };
        f(&mut actor, &mut ctx);
        let effects = ctx.effects;
        self.actors.insert(pid, actor);
        self.apply_effects(pid, effects);
    }

    fn apply_effects(&mut self, pid: ProcessId, effects: Vec<HostEffect<M>>) {
        for e in effects {
            match e {
                HostEffect::Send { to, msg } => {
                    self.metrics.record_send(msg.op(), msg.payload_bytes());
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent {
                            at: self.now,
                            kind: TraceKind::Send {
                                from: pid,
                                to,
                                label: msg.label(),
                                bytes: msg.payload_bytes(),
                            },
                        });
                    }
                    // Send-time partition check: a cut link drops the
                    // message as it enters the channel.
                    if self.net.is_blocked(pid, to) {
                        self.metrics.partition_drops += 1;
                        continue;
                    }
                    let copies = if self.net.duplicate_per_mille > 0
                        && self.rng.random_range(0..1000u32) < self.net.duplicate_per_mille
                    {
                        self.metrics.duplicated += 1;
                        2
                    } else {
                        1
                    };
                    let op_client = msg.op().map(|o| o.client);
                    for _ in 0..copies {
                        let mut delay = self.net.delay_for(pid, to, op_client, &mut self.rng);
                        if self.net.reorder_per_mille > 0
                            && self.net.reorder_extra_max > 0
                            && self.rng.random_range(0..1000u32) < self.net.reorder_per_mille
                        {
                            self.metrics.reordered += 1;
                            delay = delay.saturating_add(
                                self.rng.random_range(1..=self.net.reorder_extra_max),
                            );
                        }
                        let at = self.now.saturating_add(delay);
                        let seq = self.next_seq();
                        self.queue.push(Reverse(Event {
                            at,
                            seq,
                            kind: EventKind::Deliver { from: pid, to, msg: msg.clone() },
                        }));
                    }
                }
                HostEffect::SetTimer { delay, token } => {
                    // A gray node's timers stretch too: slow-but-alive
                    // means slow processing, not just slow links.
                    let gray = self.net.gray_factor(pid) as Time;
                    let at = self.now.saturating_add(delay.saturating_mul(gray));
                    let seq = self.next_seq();
                    self.queue.push(Reverse(Event {
                        at,
                        seq,
                        kind: EventKind::Timer { pid, token },
                    }));
                }
                HostEffect::Complete(mut c) => {
                    let m = self.metrics.op(c.op);
                    c.messages = m.messages;
                    c.payload_bytes = m.payload_bytes;
                    self.completions.push(c);
                }
                HostEffect::Note(text) => {
                    if let Some(t) = self.trace.as_mut() {
                        t.push(TraceEvent { at: self.now, kind: TraceKind::Note { pid, text } });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::{OpId, OpKind};

    #[derive(Clone, Debug)]
    enum TestMsg {
        Ping(u32),
        Payload(u64, OpId),
    }

    impl SimMessage for TestMsg {
        fn payload_bytes(&self) -> u64 {
            match self {
                TestMsg::Ping(_) => 0,
                TestMsg::Payload(b, _) => *b,
            }
        }
        fn op(&self) -> Option<OpId> {
            match self {
                TestMsg::Ping(_) => None,
                TestMsg::Payload(_, op) => Some(*op),
            }
        }
    }

    struct Bouncer {
        bounces: u32,
        timer_fired: bool,
    }

    impl Actor<TestMsg> for Bouncer {
        fn on_message(&mut self, from: ProcessId, msg: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
            match msg {
                TestMsg::Ping(n) => {
                    self.bounces += 1;
                    if n > 0 {
                        ctx.send(from, TestMsg::Ping(n - 1));
                    } else {
                        ctx.complete(OpCompletion::new(
                            OpId { client: ctx.pid(), seq: 0 },
                            OpKind::Read,
                            0,
                            ctx.now(),
                        ));
                    }
                }
                TestMsg::Payload(..) => {
                    self.bounces += 1;
                }
            }
        }
        fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx<'_, TestMsg>) {
            self.timer_fired = true;
        }
    }

    fn two_bouncers(seed: u64) -> World<TestMsg> {
        let mut w = World::new(NetworkConfig::uniform(5, 15), seed);
        w.add_actor(ProcessId(1), Bouncer { bounces: 0, timer_fired: false });
        w.add_actor(ProcessId(2), Bouncer { bounces: 0, timer_fired: false });
        w
    }

    #[test]
    fn ping_pong_terminates_within_delay_bounds() {
        let mut w = two_bouncers(3);
        w.post(0, ProcessId(1), ProcessId(2), TestMsg::Ping(9));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        // 9 network hops after the injected delivery: between 9d and 9D.
        assert!(w.now() >= 9 * 5 && w.now() <= 9 * 15, "now = {}", w.now());
        assert_eq!(w.completions().len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut w = two_bouncers(seed);
            w.post(0, ProcessId(1), ProcessId(2), TestMsg::Ping(20));
            w.run();
            w.now()
        };
        assert_eq!(run(11), run(11));
        // Different seeds virtually always give different delays.
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn crashed_actor_stops_responding() {
        let mut w = two_bouncers(5);
        w.schedule_crash(0, ProcessId(2));
        w.post(1, ProcessId(1), ProcessId(2), TestMsg::Ping(9));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        assert!(w.completions().is_empty());
        assert!(w.is_crashed(ProcessId(2)));
    }

    #[test]
    fn payload_bytes_attributed_to_op() {
        let mut w = two_bouncers(5);
        let op = OpId { client: ProcessId(1), seq: 3 };
        w.post(0, ProcessId(1), ProcessId(2), TestMsg::Ping(0)); // injected: not a send
        w.post(0, ProcessId(1), ProcessId(2), TestMsg::Payload(0, op));
        w.run();
        // Only the reply Ping(0->none) counts as a send... the Ping(0) posts
        // are deliveries; p2 replies nothing for Payload. Charge manually:
        let mut w2 = World::<TestMsg>::new(NetworkConfig::constant(1), 0);
        struct Sender;
        impl Actor<TestMsg> for Sender {
            fn on_message(&mut self, _f: ProcessId, m: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
                if let TestMsg::Ping(_) = m {
                    let op = OpId { client: ctx.pid(), seq: 7 };
                    ctx.send(ProcessId(99), TestMsg::Payload(128, op));
                    ctx.send(ProcessId(99), TestMsg::Payload(64, op));
                }
            }
        }
        w2.add_actor(ProcessId(1), Sender);
        w2.post(0, ProcessId(0), ProcessId(1), TestMsg::Ping(0));
        w2.run();
        let op = OpId { client: ProcessId(1), seq: 7 };
        assert_eq!(w2.metrics().op(op).payload_bytes, 192);
        assert_eq!(w2.metrics().op(op).messages, 2);
    }

    #[test]
    fn time_limit_pauses_and_resumes() {
        let mut w = two_bouncers(9);
        w.post(0, ProcessId(1), ProcessId(2), TestMsg::Ping(50));
        assert_eq!(w.run_until(30), RunOutcome::TimeLimit);
        let t = w.now();
        assert!(t <= 30);
        assert_eq!(w.run(), RunOutcome::Quiescent);
        assert!(w.now() > t);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerActor {
            fired: Vec<u64>,
        }
        impl Actor<TestMsg> for TimerActor {
            fn on_message(&mut self, _f: ProcessId, _m: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.set_timer(30, 3);
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
            fn on_timer(&mut self, token: u64, _ctx: &mut Ctx<'_, TestMsg>) {
                self.fired.push(token);
            }
        }
        let mut w = World::<TestMsg>::new(NetworkConfig::constant(1), 0);
        w.add_actor(ProcessId(1), TimerActor { fired: vec![] });
        w.post(0, ProcessId(0), ProcessId(1), TestMsg::Ping(0));
        w.run();
        // Inspect by re-dispatching: actors are private; assert via events.
        assert_eq!(w.events_processed(), 4); // 1 deliver + 3 timers
    }

    #[test]
    fn messages_to_unknown_processes_are_dropped() {
        let mut w = two_bouncers(1);
        w.post(0, ProcessId(1), ProcessId(77), TestMsg::Ping(5));
        assert_eq!(w.run(), RunOutcome::Quiescent);
    }

    #[test]
    fn asymmetric_cut_drops_one_direction_only() {
        // p1 pings p2 which pings back; cut p2->p1 before the reply.
        let mut w = two_bouncers(4);
        w.schedule_fault(0, crate::FaultAction::CutLink { from: ProcessId(2), to: ProcessId(1) });
        w.post(1, ProcessId(1), ProcessId(2), TestMsg::Ping(9));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        // p2 received the ping (p1->p2 alive) but its reply died.
        assert_eq!(w.metrics().partition_drops, 1);
        assert!(w.completions().is_empty());
    }

    #[test]
    fn heal_restores_flow() {
        let mut w = two_bouncers(4);
        w.schedule_fault(0, crate::FaultAction::CutBoth { a: ProcessId(1), b: ProcessId(2) });
        w.schedule_fault(500, crate::FaultAction::HealAll);
        // Sent during the cut: dropped. Sent after heal: bounces through.
        w.post(1, ProcessId(1), ProcessId(2), TestMsg::Ping(3));
        w.post(600, ProcessId(1), ProcessId(2), TestMsg::Ping(0));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        assert_eq!(w.completions().len(), 1);
        assert!(w.metrics().partition_drops >= 1);
    }

    #[test]
    fn duplication_delivers_copies() {
        let mut w = two_bouncers(8);
        w.net_mut().duplicate_per_mille = 1000; // every send duplicated
        w.post(0, ProcessId(1), ProcessId(2), TestMsg::Ping(1));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        // Every protocol send spawned two deliveries.
        assert!(w.metrics().duplicated > 0);
        assert!(w.metrics().messages_delivered > w.metrics().messages_sent);
    }

    #[test]
    fn gray_node_slows_messages_without_crashing() {
        let run = |factor: u32| {
            let mut w = two_bouncers(6);
            if factor > 1 {
                w.schedule_fault(0, crate::FaultAction::Grayify { pid: ProcessId(2), factor });
            }
            w.post(1, ProcessId(1), ProcessId(2), TestMsg::Ping(9));
            assert_eq!(w.run(), RunOutcome::Quiescent);
            assert_eq!(w.completions().len(), 1, "gray node must stay alive");
            w.now()
        };
        let healthy = run(1);
        let gray = run(40);
        assert!(gray > healthy * 10, "gray run {gray} vs healthy {healthy}");
    }

    #[test]
    fn step_trigger_fires_mid_run() {
        let mut w = two_bouncers(2);
        w.schedule_fault_at_step(
            3,
            crate::FaultAction::CutBoth { a: ProcessId(1), b: ProcessId(2) },
        );
        w.post(0, ProcessId(1), ProcessId(2), TestMsg::Ping(20));
        assert_eq!(w.run(), RunOutcome::Quiescent);
        // The bounce chain dies shortly after the third event.
        assert!(w.metrics().partition_drops >= 1);
        assert!(w.events_processed() < 10);
        assert_eq!(w.metrics().faults_applied, 1);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = |seed| {
            let mut w = two_bouncers(seed);
            let sched = crate::FaultSchedule::new()
                .at(50, crate::FaultAction::Grayify { pid: ProcessId(2), factor: 12 })
                .at(900, crate::FaultAction::Ungray { pid: ProcessId(2) })
                .at_step(20, crate::FaultAction::SetDuplication { per_mille: 300 });
            w.install_faults(&sched);
            w.post(0, ProcessId(1), ProcessId(2), TestMsg::Ping(30));
            w.run();
            (w.now(), w.events_processed(), w.metrics().duplicated)
        };
        assert_eq!(run(13), run(13));
    }

    #[test]
    fn event_limit_detects_livelock() {
        struct Loop;
        impl Actor<TestMsg> for Loop {
            fn on_message(&mut self, from: ProcessId, _m: TestMsg, ctx: &mut Ctx<'_, TestMsg>) {
                ctx.send(from, TestMsg::Ping(0));
            }
        }
        let mut w = World::<TestMsg>::new(NetworkConfig::constant(1), 0);
        w.event_limit = 1000;
        w.add_actor(ProcessId(1), Loop);
        w.add_actor(ProcessId(2), Loop);
        w.post(0, ProcessId(1), ProcessId(2), TestMsg::Ping(0));
        assert_eq!(w.run(), RunOutcome::EventLimit);
    }
}
