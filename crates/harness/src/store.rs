//! [`SimStore`] — the session-multiplexed store over the deterministic
//! simulator.
//!
//! A [`crate::Scenario`] posts a fixed schedule up front, one session
//! per client actor. `SimStore` is the interactive counterpart, the
//! `ares_core::store` API: one multiplexing `ClientActor` hosts many
//! logical sessions, and ticketed operations *pump the world on demand*
//! — `ticket.wait()` steps events until exactly that operation's
//! completion appears, so closed-loop drivers interleave submissions
//! and executions deterministically.
//!
//! Everything is single-threaded and deterministic given the seed:
//! tickets and sessions are `Rc`-backed handles onto one shared world.

use ares_core::store::{session_op_seq, Store, StoreSession};
use ares_core::{ClientActor, ClientCmd, Invoke, Msg, OpError, OpTicket, ServerActor};
use ares_sim::{FaultAction, FaultSchedule, LatencyModel, NetworkConfig, RunOutcome, World};
use ares_types::{
    ConfigRegistry, Configuration, ObjectId, OpCompletion, OpId, ProcessId, SessionId, Time,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// The environment pseudo-process used as the source of injections.
use crate::scenario::ENV;

/// Builder for a [`SimStore`].
pub struct SimStoreBuilder {
    configs: Vec<Configuration>,
    objects: Vec<ObjectId>,
    client: ProcessId,
    seed: u64,
    d: Time,
    big_d: Time,
    latency_model: Option<LatencyModel>,
    faults: FaultSchedule,
    event_limit: Option<u64>,
}

impl SimStoreBuilder {
    /// Starts describing a simulated deployment; the first configuration
    /// is the genesis configuration `c_0`.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<Configuration>) -> Self {
        assert!(!configs.is_empty(), "a deployment needs at least c_0");
        SimStoreBuilder {
            configs,
            objects: vec![ObjectId(0)],
            client: ProcessId(100),
            seed: 0,
            d: 10,
            big_d: 50,
            latency_model: None,
            faults: FaultSchedule::new(),
            event_limit: None,
        }
    }

    /// Declares the objects reconfigurations must migrate (defaults to
    /// object 0).
    #[must_use]
    pub fn objects(mut self, objs: impl IntoIterator<Item = u32>) -> Self {
        self.objects = objs.into_iter().map(ObjectId).collect();
        assert!(!self.objects.is_empty(), "a deployment manages at least one object");
        self
    }

    /// The host process id all sessions multiplex onto (default 100).
    #[must_use]
    pub fn client_pid(mut self, pid: u32) -> Self {
        self.client = ProcessId(pid);
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the network delay bounds `[d, D]`.
    #[must_use]
    pub fn delays(mut self, d: Time, big_d: Time) -> Self {
        self.d = d;
        self.big_d = big_d;
        self
    }

    /// Replaces the default uniform `[d, D]` link with an arbitrary
    /// latency model (e.g. [`LatencyModel::wan`]).
    #[must_use]
    pub fn latency_model(mut self, model: LatencyModel) -> Self {
        self.latency_model = Some(model);
        self
    }

    /// Installs a fault schedule, fired deterministically mid-run.
    #[must_use]
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.faults.events.extend(schedule.events);
        self
    }

    /// Caps the number of simulator events (livelock guard).
    #[must_use]
    pub fn event_limit(mut self, limit: u64) -> Self {
        self.event_limit = Some(limit);
        self
    }

    /// Builds the world: every server of every configuration plus one
    /// multiplexing client actor.
    ///
    /// # Panics
    ///
    /// Panics if the client host id is at or above 2^16 (that space is
    /// reserved for session writer ids).
    pub fn build(self) -> SimStore {
        assert!(
            self.client.0 < ares_core::store::MAX_SESSIONS,
            "client host id {} is reserved for session writer ids (hosts must stay below 2^16)",
            self.client
        );
        let c0 = self.configs[0].id;
        let servers: BTreeSet<ProcessId> =
            self.configs.iter().flat_map(|c| c.servers.iter().copied()).collect();
        let registry = ConfigRegistry::from_configs(self.configs);
        let model = self
            .latency_model
            .unwrap_or(LatencyModel::Uniform(ares_sim::DelayBounds::new(self.d, self.big_d)));
        let mut world: World<Msg> = World::new(NetworkConfig::with_model(model), self.seed);
        world.install_faults(&self.faults);
        if let Some(l) = self.event_limit {
            world.event_limit = l;
        }
        for &s in &servers {
            world.add_actor(s, ServerActor::new(s, registry.clone()));
        }
        let mut cfg = ares_core::ClientConfig::new(c0).with_objects(self.objects);
        // Keep the first retransmission (4× the unit) above the worst-case
        // round trip 2D so healthy-but-slow phases are never restarted.
        cfg.backoff_unit = cfg.backoff_unit.max(self.big_d);
        world.add_actor(self.client, ClientActor::new(registry, cfg));
        SimStore {
            inner: Rc::new(RefCell::new(SimInner {
                world,
                client: self.client,
                next_session: 0,
                done: HashMap::new(),
                history: Vec::new(),
            })),
        }
    }
}

struct SimInner {
    world: World<Msg>,
    client: ProcessId,
    next_session: u32,
    /// Completions routed by `OpId`, awaiting their ticket.
    done: HashMap<OpId, OpCompletion>,
    /// Every completion ever produced, in completion order (the run's
    /// history for atomicity checking).
    history: Vec<OpCompletion>,
}

impl SimInner {
    /// Moves newly produced completions into the routing map.
    fn drain(&mut self) {
        for c in self.world.take_completions() {
            self.history.push(c.clone());
            self.done.insert(c.op, c);
        }
    }
}

/// The session-multiplexed store over the deterministic simulator.
///
/// Handles are `Rc`-backed and single-threaded; executions are
/// deterministic functions of (configs, schedule of submissions, seed).
pub struct SimStore {
    inner: Rc<RefCell<SimInner>>,
}

impl SimStore {
    /// Builder entry point.
    pub fn builder(configs: Vec<Configuration>) -> SimStoreBuilder {
        SimStoreBuilder::new(configs)
    }

    /// Current simulated time (µs).
    pub fn now(&self) -> Time {
        self.inner.borrow().world.now()
    }

    /// Schedules a server crash at simulated time `at`.
    pub fn schedule_crash(&self, at: Time, pid: u32) {
        self.inner.borrow_mut().world.schedule_crash(at, ProcessId(pid));
    }

    /// Schedules a server recovery at simulated time `at`.
    pub fn schedule_recover(&self, at: Time, pid: u32) {
        self.inner.borrow_mut().world.schedule_recover(at, ProcessId(pid));
    }

    /// Schedules a fault-plane action at simulated time `at`.
    pub fn schedule_fault(&self, at: Time, action: FaultAction) {
        self.inner.borrow_mut().world.schedule_fault(at, action);
    }

    /// Fault-plane interference events so far (drops + duplicates +
    /// reorders + schedule actions).
    pub fn faults_injected(&self) -> u64 {
        self.inner.borrow().world.metrics().faults_injected()
    }

    /// Replaces the event budget (livelock guard) on the running world.
    /// A driver that deliberately ran into the limit — e.g. proving an
    /// operation cannot finish while its quorum is dead — can extend
    /// the budget and keep the world going after repairing the fault.
    pub fn set_event_limit(&self, limit: u64) {
        self.inner.borrow_mut().world.event_limit = limit;
    }

    /// Runs the world until quiescence (or a limit); completions keep
    /// routing to their tickets.
    pub fn run_to_quiescence(&self) -> RunOutcome {
        let mut inner = self.inner.borrow_mut();
        let out = inner.world.run();
        inner.drain();
        out
    }

    /// Processes one pending event, if any (`false` once the world
    /// cannot continue).
    pub fn step(&self) -> bool {
        let mut inner = self.inner.borrow_mut();
        let stopped = inner.world.step_one().is_some();
        inner.drain();
        !stopped
    }

    /// The complete history so far, in completion order.
    pub fn history(&self) -> Vec<OpCompletion> {
        self.inner.borrow().history.clone()
    }
}

impl Store for SimStore {
    type Session = SimSession;

    fn open_session(&self) -> SimSession {
        let mut inner = self.inner.borrow_mut();
        let id = SessionId(inner.next_session);
        inner.next_session += 1;
        SimSession { inner: self.inner.clone(), id, next: 0 }
    }
}

/// A logical client session of a [`SimStore`].
pub struct SimSession {
    inner: Rc<RefCell<SimInner>>,
    id: SessionId,
    next: u64,
}

impl StoreSession for SimSession {
    type Ticket = SimTicket;

    fn id(&self) -> SessionId {
        self.id
    }

    fn client(&self) -> ProcessId {
        self.inner.borrow().client
    }

    fn submit(&mut self, cmd: ClientCmd) -> Result<SimTicket, OpError> {
        let mut inner = self.inner.borrow_mut();
        let seq = session_op_seq(self.id, self.next);
        self.next += 1;
        let client = inner.client;
        let now = inner.world.now();
        inner.world.post(now, ENV, client, Msg::Invoke(Invoke { session: self.id, seq, cmd }));
        Ok(SimTicket { inner: self.inner.clone(), op: OpId { client, seq } })
    }
}

/// Claim ticket for one simulated operation.
pub struct SimTicket {
    inner: Rc<RefCell<SimInner>>,
    op: OpId,
}

impl OpTicket for SimTicket {
    fn op(&self) -> OpId {
        self.op
    }

    fn try_wait(&mut self) -> Option<Result<OpCompletion, OpError>> {
        let mut inner = self.inner.borrow_mut();
        inner.drain();
        inner.done.remove(&self.op).map(Ok)
    }

    /// Pumps the world one event at a time until this operation
    /// completes. Quiescence (or an event limit) without the completion
    /// means the operation *cannot* finish — e.g. its quorum is crashed
    /// — which surfaces as [`OpError::Timeout`] and poisons only this
    /// ticket: the world, the session set and every other ticket stay
    /// usable.
    fn wait(self) -> Result<OpCompletion, OpError> {
        let mut inner = self.inner.borrow_mut();
        loop {
            inner.drain();
            if let Some(c) = inner.done.remove(&self.op) {
                return Ok(c);
            }
            if inner.world.step_one().is_some() {
                inner.drain();
                return match inner.done.remove(&self.op) {
                    Some(c) => Ok(c),
                    None => Err(OpError::Timeout { op: self.op }),
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_atomicity;
    use ares_types::{ConfigId, Value};

    fn treas53() -> Vec<Configuration> {
        vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)]
    }

    #[test]
    fn tickets_route_by_op_id_across_sessions() {
        let store = SimStore::builder(treas53()).seed(3).build();
        let mut a = store.open_session();
        let mut b = store.open_session();
        let va = Value::filler(64, 1);
        let vb = Value::filler(64, 2);
        let ta = a.write(ObjectId(0), va.clone()).unwrap();
        let tb = b.write(ObjectId(0), vb.clone()).unwrap();
        // Wait in the *reverse* of submission order: routing is by op
        // id, not FIFO.
        let cb = tb.wait().unwrap();
        let ca = ta.wait().unwrap();
        assert_eq!(ca.value_digest, Some(va.digest()));
        assert_eq!(cb.value_digest, Some(vb.digest()));
        assert_ne!(ca.tag, cb.tag);
        check_atomicity(&store.history()).assert_atomic();
    }

    #[test]
    fn dead_quorum_times_out_only_its_ticket() {
        // A modest event budget: the write below retransmits forever
        // against the dead quorum, so the world hits the budget (rather
        // than quiescing) and the ticket surfaces a typed timeout.
        let store = SimStore::builder(treas53()).seed(4).event_limit(100_000).build();
        let mut a = store.open_session();
        // Crash 2 of 5 servers: the TREAS [5,3] quorum ⌈(5+3)/2⌉ = 4 is
        // unreachable, so the write can never gather its acks.
        store.schedule_crash(0, 4);
        store.schedule_crash(0, 5);
        let t = a.write(ObjectId(0), Value::filler(32, 9)).unwrap();
        let err = t.wait().unwrap_err();
        assert!(matches!(err, OpError::Timeout { .. }), "typed timeout, got {err:?}");
        // The store is not poisoned: recover the servers, extend the
        // budget, and a fresh session completes normally.
        store.schedule_recover(store.now() + 1, 4);
        store.schedule_recover(store.now() + 1, 5);
        store.set_event_limit(1_000_000);
        let mut b = store.open_session();
        let t = b.write(ObjectId(0), Value::filler(32, 10)).unwrap();
        t.wait().expect("store usable after a ticket timeout");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let store = SimStore::builder(treas53()).seed(7).build();
            let mut sessions: Vec<SimSession> = (0..3).map(|_| store.open_session()).collect();
            let tickets: Vec<SimTicket> = sessions
                .iter_mut()
                .enumerate()
                .map(|(i, s)| s.write(ObjectId(0), Value::filler(64, i as u64)).unwrap())
                .collect();
            for t in tickets {
                t.wait().unwrap();
            }
            store.run_to_quiescence();
            store.history().iter().map(|c| (c.op, c.invoked_at, c.completed_at)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
