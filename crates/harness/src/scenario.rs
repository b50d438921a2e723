//! Declarative scenario construction and execution.
//!
//! A [`Scenario`] describes an ARES universe (the registered
//! configurations), the clients and their roles, the network delay
//! bounds `[d, D]`, a schedule of client invocations, and a
//! [`FaultSchedule`]. Running it yields a [`ScenarioResult`] with the
//! completion history, metrics and (optionally) the structured trace —
//! everything the tests, experiments and benches consume.

use ares_core::store::session_op_seq;
use ares_core::{
    ClientActor, ClientCmd, ClientConfig, Invoke, Msg, ServerActor, TransferMode, ENV,
};
use ares_sim::{
    DelayBounds, FaultSchedule, LatencyModel, NetworkConfig, RunOutcome, TraceEvent, World,
};
use ares_types::{
    ConfigId, ConfigRegistry, Configuration, ObjectId, OpCompletion, ProcessId, SessionId, Time,
    Value,
};
use std::collections::{BTreeSet, HashMap};

/// One scheduled client invocation.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// When to inject.
    pub at: Time,
    /// Which client executes it.
    pub client: ProcessId,
    /// The command.
    pub cmd: ClientCmd,
}

/// What every simulated deployment is built from: the configurations,
/// the network and its faults, the seed, tracing and the event budget.
/// Shared by [`Scenario`] and [`crate::SimStoreBuilder`].
pub(crate) struct WorldSpec {
    pub(crate) configs: Vec<Configuration>,
    pub(crate) seed: u64,
    pub(crate) d: Time,
    pub(crate) big_d: Time,
    pub(crate) latency_model: Option<LatencyModel>,
    pub(crate) client_bounds: Vec<(ProcessId, DelayBounds)>,
    pub(crate) faults: FaultSchedule,
    pub(crate) trace: bool,
    pub(crate) event_limit: Option<u64>,
}

impl WorldSpec {
    /// The defaults: seed 0, uniform delays in `[10, 50]`, no faults.
    pub(crate) fn new(configs: Vec<Configuration>) -> Self {
        WorldSpec {
            configs,
            seed: 0,
            d: 10,
            big_d: 50,
            latency_model: None,
            client_bounds: Vec::new(),
            faults: FaultSchedule::new(),
            trace: false,
            event_limit: None,
        }
    }

    /// All server ids across all configurations, ascending.
    pub(crate) fn servers(&self) -> Vec<ProcessId> {
        let set: BTreeSet<ProcessId> =
            self.configs.iter().flat_map(|c| c.servers.iter().copied()).collect();
        set.into_iter().collect()
    }

    /// Builds the world: the network (the latency model, or uniform
    /// `[d, D]`, then the per-client bounds), the fault schedule, tracing,
    /// the event limit, one server actor per server of any configuration,
    /// then the clients. Returns the world and its servers.
    pub(crate) fn build(
        self,
        clients: Vec<(ProcessId, ClientConfig)>,
    ) -> (World<Msg>, Vec<ProcessId>) {
        let servers = self.servers();
        let registry = ConfigRegistry::from_configs(self.configs);
        let model = self
            .latency_model
            .unwrap_or(LatencyModel::Uniform(DelayBounds::new(self.d, self.big_d)));
        let mut net = NetworkConfig::with_model(model);
        for &(pid, bounds) in &self.client_bounds {
            net = net.with_client_bounds(pid, bounds);
        }
        let mut world: World<Msg> = World::new(net, self.seed);
        world.install_faults(&self.faults);
        if self.trace {
            world.enable_trace();
        }
        if let Some(l) = self.event_limit {
            world.event_limit = l;
        }
        for &s in &servers {
            world.add_actor(s, ServerActor::new(s, registry.clone()));
        }
        for (pid, mut cfg) in clients {
            // The retransmit timer (first fire at 4× the unit) must sit
            // above the worst-case round trip 2D, or a slow-but-healthy
            // quorum phase gets spuriously restarted and the Lemma 23/55
            // action bounds no longer hold.
            cfg.backoff_unit = cfg.backoff_unit.max(self.big_d);
            world.add_actor(pid, ClientActor::new(registry.clone(), cfg));
        }
        (world, servers)
    }
}

/// A declarative ARES scenario.
pub struct Scenario {
    world: WorldSpec,
    clients: Vec<(ProcessId, ClientConfig)>,
    invocations: Vec<Invocation>,
    repairs: Vec<(Time, ProcessId, ObjectId, ConfigId)>,
    transfer_mode: TransferMode,
}

impl Scenario {
    /// Creates a scenario over the given configurations; the first one is
    /// the genesis configuration `c_0`.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<Configuration>) -> Self {
        assert!(!configs.is_empty(), "a scenario needs at least c_0");
        Scenario {
            world: WorldSpec::new(configs),
            clients: Vec::new(),
            invocations: Vec::new(),
            repairs: Vec::new(),
            transfer_mode: TransferMode::Plain,
        }
    }

    /// Sets the network delay bounds `[d, D]`.
    #[must_use]
    pub fn delays(mut self, d: Time, big_d: Time) -> Self {
        self.world.d = d;
        self.world.big_d = big_d;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.world.seed = seed;
        self
    }

    /// Enables structured tracing.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.world.trace = true;
        self
    }

    /// Uses the ARES-TREAS direct state transfer for all reconfigurers.
    #[must_use]
    pub fn direct_transfer(mut self) -> Self {
        self.transfer_mode = TransferMode::Direct;
        self
    }

    /// Caps the number of simulator events (livelock guard in sweeps).
    #[must_use]
    pub fn event_limit(mut self, limit: u64) -> Self {
        self.world.event_limit = Some(limit);
        self
    }

    /// Replaces the default uniform `[d, D]` link with an arbitrary
    /// latency model (e.g. [`LatencyModel::wan`] for a heavy-tailed WAN
    /// profile). Per-client overrides still apply on top.
    #[must_use]
    pub fn latency_model(mut self, model: LatencyModel) -> Self {
        self.world.latency_model = Some(model);
        self
    }

    /// Adds `schedule`'s faults — link and gray actions, crashes,
    /// recoveries, duplication and reorder rates — to the run, merged in
    /// time order after any added before. A fault fires before an
    /// invocation scheduled for the same time.
    #[must_use]
    pub fn fault_schedule(mut self, schedule: FaultSchedule) -> Self {
        for ev in schedule.events() {
            self.world.faults = std::mem::take(&mut self.world.faults).at(ev.at, ev.action.clone());
        }
        self
    }

    /// Adds a client process. (The transfer mode and object set are
    /// applied uniformly at [`Scenario::run`] time, so builder-call order
    /// does not matter.)
    #[must_use]
    pub fn client(mut self, pid: ProcessId) -> Self {
        let c0 = self.world.configs[0].id;
        self.clients.push((pid, ClientConfig::new(c0)));
        self
    }

    /// Adds several clients at once.
    #[must_use]
    pub fn clients(mut self, pids: impl IntoIterator<Item = u32>) -> Self {
        for p in pids {
            self = self.client(ProcessId(p));
        }
        self
    }

    /// Overrides the delay bounds for messages of one client's operations
    /// (the worst-case constructions of Section 4.4 give reconfigurers
    /// `d` while readers/writers suffer `D`).
    #[must_use]
    pub fn client_delays(mut self, pid: ProcessId, min: Time, max: Time) -> Self {
        self.world.client_bounds.push((pid, DelayBounds::new(min, max)));
        self
    }

    /// Schedules `write(value)` on `obj` at `client`.
    #[must_use]
    pub fn write_at(mut self, at: Time, client: u32, obj: u32, value: Value) -> Self {
        self.invocations.push(Invocation {
            at,
            client: ProcessId(client),
            cmd: ClientCmd::Write { obj: ObjectId(obj), value },
        });
        self
    }

    /// Schedules `read()` on `obj` at `client`.
    #[must_use]
    pub fn read_at(mut self, at: Time, client: u32, obj: u32) -> Self {
        self.invocations.push(Invocation {
            at,
            client: ProcessId(client),
            cmd: ClientCmd::Read { obj: ObjectId(obj) },
        });
        self
    }

    /// Schedules `reconfig(target)` at `client`.
    #[must_use]
    pub fn recon_at(mut self, at: Time, client: u32, target: u32) -> Self {
        self.invocations.push(Invocation {
            at,
            client: ProcessId(client),
            cmd: ClientCmd::Recon { target: ConfigId(target) },
        });
        self
    }

    /// Schedules many raw invocations.
    #[must_use]
    pub fn invocations(mut self, invs: impl IntoIterator<Item = Invocation>) -> Self {
        self.invocations.extend(invs);
        self
    }

    /// Schedules a fragment repair of `(cfg, obj)` on server `pid` (the
    /// repair extension; see `ares_core::repair`).
    #[must_use]
    pub fn repair_at(mut self, at: Time, pid: u32, cfg: u32, obj: u32) -> Self {
        self.repairs.push((at, ProcessId(pid), ObjectId(obj), ConfigId(cfg)));
        self
    }

    /// The set of objects touched by the schedule (always includes 0) —
    /// what reconfigurations must migrate.
    pub fn all_objects(&self) -> Vec<ObjectId> {
        let mut set: BTreeSet<ObjectId> = BTreeSet::new();
        set.insert(ObjectId(0));
        for inv in &self.invocations {
            match &inv.cmd {
                ClientCmd::Write { obj, .. } | ClientCmd::Read { obj } => {
                    set.insert(*obj);
                }
                ClientCmd::Recon { .. } => {}
            }
        }
        set.into_iter().collect()
    }

    /// Builds the world and runs it to quiescence (or a limit).
    pub fn run(self) -> ScenarioResult {
        let objects = self.all_objects();
        let clients = self
            .clients
            .iter()
            .map(|(pid, cfg)| {
                let mut cfg = cfg.clone().with_objects(objects.clone());
                cfg.transfer_mode = self.transfer_mode;
                (*pid, cfg)
            })
            .collect();
        let (mut world, servers) = self.world.build(clients);
        for (at, pid, obj, cfg) in &self.repairs {
            world.post(
                *at,
                ENV,
                *pid,
                Msg::Repair(ares_core::RepairMsg::Trigger { cfg: *cfg, obj: *obj }),
            );
        }
        // Each client is one sequential process: its invocations run on
        // session 0, numbered in the order the world delivers them —
        // `World::post` orders by `(at, post order)`.
        let mut delivery: Vec<usize> = (0..self.invocations.len()).collect();
        delivery.sort_by_key(|&i| self.invocations[i].at);
        let mut seqs = vec![0u64; self.invocations.len()];
        let mut issued: HashMap<ProcessId, u64> = HashMap::new();
        for i in delivery {
            let n = issued.entry(self.invocations[i].client).or_default();
            seqs[i] = session_op_seq(SessionId(0), *n);
            *n += 1;
        }
        for (inv, seq) in self.invocations.iter().zip(seqs) {
            let invoke = Invoke { session: SessionId(0), seq, cmd: inv.cmd.clone() };
            world.post(inv.at, ENV, inv.client, Msg::Invoke(invoke));
        }
        let outcome = world.run();
        let completions = world.take_completions();
        let storage: Vec<(ProcessId, u64)> = servers
            .iter()
            .filter_map(|&s| world.actor_as::<ServerActor>(s).map(|a| (s, a.storage_bytes())))
            .collect();
        ScenarioResult {
            outcome,
            completions,
            finished_at: world.now(),
            messages_sent: world.metrics().messages_sent,
            payload_bytes: world.metrics().payload_bytes,
            storage_bytes: storage,
            trace: world.trace().to_vec(),
            scheduled_ops: self.invocations.len(),
            faults_injected: world.metrics().faults_injected(),
            events_processed: world.events_processed(),
        }
    }
}

/// Outcome of a scenario run.
#[derive(Debug)]
pub struct ScenarioResult {
    /// Why the simulation stopped.
    pub outcome: RunOutcome,
    /// Completed operations (the history).
    pub completions: Vec<OpCompletion>,
    /// Simulated time at the end.
    pub finished_at: Time,
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total payload bytes sent.
    pub payload_bytes: u64,
    /// Per-server stored object bytes at the end.
    pub storage_bytes: Vec<(ProcessId, u64)>,
    /// Structured trace (empty unless enabled).
    pub trace: Vec<TraceEvent>,
    /// Number of operations that were scheduled.
    pub scheduled_ops: usize,
    /// Fault-plane interference events (drops + duplicates + reorders +
    /// schedule actions).
    pub faults_injected: u64,
    /// Simulator events processed (for event-budget assertions).
    pub events_processed: u64,
}

impl ScenarioResult {
    /// Asserts that every scheduled operation completed and the history
    /// is atomic; returns the history for further inspection.
    ///
    /// # Panics
    ///
    /// Panics if operations are missing or atomicity is violated.
    pub fn assert_complete_and_atomic(&self) -> &[OpCompletion] {
        assert_eq!(
            self.completions.len(),
            self.scheduled_ops,
            "operations missing: {} of {} completed (outcome {:?})",
            self.completions.len(),
            self.scheduled_ops,
            self.outcome,
        );
        crate::atomicity::check_atomicity(&self.completions).assert_atomic();
        &self.completions
    }

    /// Object bytes stored at the end of the run, summed over all
    /// servers: the paper's *total* storage cost.
    pub fn total_storage_bytes(&self) -> u64 {
        self.storage_bytes.iter().map(|(_, b)| *b).sum()
    }
}

/// A reusable standard universe used by tests and experiments:
/// `c0` ABD on servers 1–3, `c1` TREAS `[5,3]` on 4–8, `c2` TREAS `[5,4]`
/// on 6–10, `c3` LDR(f=1) on 1–5, `c4` TREAS `[7,5]` on 2–8.
pub fn standard_universe() -> Vec<Configuration> {
    let ids = |r: std::ops::RangeInclusive<u32>| r.map(ProcessId).collect::<Vec<_>>();
    vec![
        Configuration::abd(ConfigId(0), ids(1..=3)),
        Configuration::treas(ConfigId(1), ids(4..=8), 3, 2),
        Configuration::treas(ConfigId(2), ids(6..=10), 4, 2),
        Configuration::ldr(ConfigId(3), ids(1..=5), 1),
        Configuration::treas(ConfigId(4), ids(2..=8), 5, 3),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_sim::FaultAction;

    #[test]
    fn builder_runs_and_checks() {
        let res = Scenario::new(standard_universe())
            .clients([100, 101])
            .seed(5)
            .write_at(0, 100, 0, Value::filler(32, 1))
            .read_at(500, 101, 0)
            .run();
        assert_eq!(res.outcome, RunOutcome::Quiescent);
        let h = res.assert_complete_and_atomic();
        assert_eq!(h.len(), 2);
        assert!(res.messages_sent > 0);
        assert!(!res.storage_bytes.is_empty());
    }

    #[test]
    fn crash_schedule_applies() {
        let res = Scenario::new(standard_universe())
            .clients([100])
            .fault_schedule(FaultSchedule::new().at(0, FaultAction::Crash { pid: ProcessId(3) }))
            .write_at(1, 100, 0, Value::filler(16, 2))
            .run();
        res.assert_complete_and_atomic();
    }

    #[test]
    fn a_crash_fires_before_a_write_at_the_same_time() {
        // TREAS [5, 3] tolerates one server crash. At t = 100 server 5
        // and client 101 crash and clients 100 and 101 each invoke a
        // write; every crash fires before every invocation.
        let treas5 =
            vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)];
        let crashes = FaultSchedule::new()
            .at(100, FaultAction::Crash { pid: ProcessId(5) })
            .at(100, FaultAction::Crash { pid: ProcessId(101) });
        let res = Scenario::new(treas5)
            .clients([100, 101])
            .write_at(100, 100, 0, Value::filler(60, 1))
            .write_at(100, 101, 0, Value::filler(60, 2))
            .fault_schedule(crashes)
            .run();
        assert_eq!(res.completions.len(), 1, "client 101 crashed before its write began");
        assert_eq!(res.completions[0].op.client, ProcessId(100));
        let stored = |pid| res.storage_bytes.iter().find(|(p, _)| *p == ProcessId(pid)).unwrap().1;
        assert_eq!(stored(5), 0, "server 5 crashed before the write reached it");
        assert_eq!(stored(4), 20, "one coded element of ⌈60 / 3⌉ bytes: one write stored");
    }
}
