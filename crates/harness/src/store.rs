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
use ares_core::{ClientCmd, Invoke, Msg, OpError, OpTicket};
use ares_sim::{FaultSchedule, RunOutcome, World};
use ares_types::{Configuration, ObjectId, OpCompletion, OpId, ProcessId, SessionId, Time};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::scenario::{WorldSpec, ENV};

/// The host process all sessions multiplex onto.
const HOST: ProcessId = ProcessId(100);

/// Builder for a [`SimStore`].
pub struct SimStoreBuilder {
    world: WorldSpec,
    objects: Vec<ObjectId>,
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
        SimStoreBuilder { world: WorldSpec::new(configs), objects: vec![ObjectId(0)] }
    }

    /// Declares the objects reconfigurations must migrate (defaults to
    /// object 0).
    #[must_use]
    pub fn objects(mut self, objs: impl IntoIterator<Item = u32>) -> Self {
        self.objects = objs.into_iter().map(ObjectId).collect();
        assert!(!self.objects.is_empty(), "a deployment manages at least one object");
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.world.seed = seed;
        self
    }

    /// Caps the number of simulator events (livelock guard).
    #[must_use]
    pub fn event_limit(mut self, limit: u64) -> Self {
        self.world.event_limit = Some(limit);
        self
    }

    /// Builds the world: every server of every configuration plus one
    /// multiplexing client actor, with uniform delays in `[10, 50]`.
    pub fn build(self) -> SimStore {
        let c0 = self.world.configs[0].id;
        let cfg = ares_core::ClientConfig::new(c0).with_objects(self.objects);
        let (world, _) = self.world.build(vec![(HOST, cfg)]);
        SimStore {
            inner: Rc::new(RefCell::new(SimInner {
                world,
                next_session: 0,
                done: HashMap::new(),
                history: Vec::new(),
            })),
        }
    }
}

struct SimInner {
    world: World<Msg>,
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

    /// Installs `schedule` into the running world: its times are
    /// absolute simulated times, as [`SimStore::now`] reads them.
    pub fn install_faults(&self, schedule: &FaultSchedule) {
        self.inner.borrow_mut().world.install_faults(schedule);
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
        HOST
    }

    fn submit(&mut self, cmd: ClientCmd) -> Result<SimTicket, OpError> {
        let mut inner = self.inner.borrow_mut();
        let seq = session_op_seq(self.id, self.next);
        self.next += 1;
        let now = inner.world.now();
        inner.world.post(now, ENV, HOST, Msg::Invoke(Invoke { session: self.id, seq, cmd }));
        Ok(SimTicket { inner: self.inner.clone(), op: OpId { client: HOST, seq } })
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
            if inner.world.step().is_some() {
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
    use ares_sim::FaultAction;
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
        let crash = |pid| FaultAction::Crash { pid: ProcessId(pid) };
        store.install_faults(&FaultSchedule::new().at(0, crash(4)).at(0, crash(5)));
        let t = a.write(ObjectId(0), Value::filler(32, 9)).unwrap();
        let err = t.wait().unwrap_err();
        assert!(matches!(err, OpError::Timeout { .. }), "typed timeout, got {err:?}");
        // The store is not poisoned: recover the servers, extend the
        // budget, and a fresh session completes normally.
        let recover = |pid| FaultAction::Recover { pid: ProcessId(pid) };
        let at = store.now() + 1;
        store.install_faults(&FaultSchedule::new().at(at, recover(4)).at(at, recover(5)));
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
