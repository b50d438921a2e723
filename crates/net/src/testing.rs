//! In-process loopback deployments for integration tests and benches.
//!
//! [`LocalCluster`] boots every server of a configuration universe as a
//! real [`ShardedNode`] on an ephemeral `127.0.0.1` port (optionally
//! partitioned over multiple event-loop shards via
//! [`ClusterBuilder::shards`]), wires the address book, and hands out
//! each client's [`NetStore`] — all inside one test process, so `cargo
//! test` can exercise the full TCP stack (codec, listeners, reconnects,
//! timers) without any external orchestration. Nodes can be killed and
//! restarted mid-run to exercise fault paths, and their runtime
//! counters snapshot via [`LocalCluster::node_stats`].

use crate::faults::{ClusterFault, FaultControls, FaultScript};
use crate::runtime::{AddrBook, NetStore, ShardedNode, ENV};
use crate::wal::{RecoveryReport, WalConfig};
use ares_core::{ClientConfig, Msg, RepairMsg};
use ares_types::{ConfigId, ConfigRegistry, Configuration, ObjectId, ProcessId};
use ares_wal::TempDir;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builder for a [`LocalCluster`].
pub struct ClusterBuilder {
    configs: Vec<Configuration>,
    clients: Vec<ProcessId>,
    objects: Vec<ObjectId>,
    direct_transfer: bool,
    shards: usize,
    wal: Option<WalConfig>,
}

impl ClusterBuilder {
    /// Starts describing a deployment; the first configuration is the
    /// genesis configuration `c_0`.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(configs: Vec<Configuration>) -> Self {
        assert!(!configs.is_empty(), "a deployment needs at least c_0");
        ClusterBuilder {
            configs,
            clients: Vec::new(),
            objects: vec![ObjectId(0)],
            direct_transfer: false,
            shards: 1,
            wal: None,
        }
    }

    /// Gives every server node durable state: per-shard write-ahead
    /// logs under an automatically created temp dir
    /// (`<root>/node-<pid>/shard-<i>/`), removed when the
    /// [`LocalCluster`] drops. Killed nodes can then come back via
    /// [`LocalCluster::restart_recovered`] — replay the local log,
    /// repair only the delta — instead of the blank-restart path that
    /// refetches everything.
    #[must_use]
    pub fn durable(mut self, wal: WalConfig) -> Self {
        self.wal = Some(wal);
        self
    }

    /// Partitions every server node over `shards` event-loop shards
    /// (object-scoped traffic by object hash, config-wide traffic on
    /// shard 0 — see `ares_core::shard`). Default 1, the seed's
    /// single-loop host.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        assert!(shards >= 1, "a node runs at least one shard");
        self.shards = shards;
        self
    }

    /// Adds client processes.
    #[must_use]
    pub fn clients(mut self, pids: impl IntoIterator<Item = u32>) -> Self {
        self.clients.extend(pids.into_iter().map(ProcessId));
        self
    }

    /// Declares the objects reconfigurations must migrate (defaults to
    /// object 0).
    #[must_use]
    pub fn objects(mut self, objs: impl IntoIterator<Item = u32>) -> Self {
        self.objects = objs.into_iter().map(ObjectId).collect();
        assert!(!self.objects.is_empty(), "a deployment manages at least one object");
        self
    }

    /// Uses the ARES-TREAS direct state transfer for reconfigurations.
    #[must_use]
    pub fn direct_transfer(mut self) -> Self {
        self.direct_transfer = true;
        self
    }

    /// Binds every port, starts every node, connects every client.
    pub fn start(self) -> io::Result<LocalCluster> {
        // lint: allow(net-panic, reason = "documented harness contract: builder requires at least one configuration, local input only")
        let c0 = self.configs[0].id;
        let server_pids: BTreeSet<ProcessId> =
            self.configs.iter().flat_map(|c| c.servers.iter().copied()).collect();
        let registry = ConfigRegistry::from_configs(self.configs);

        // Bind all listeners first so the address book is complete
        // before any runtime starts sending.
        let mut book = AddrBook::new();
        let mut listeners: HashMap<ProcessId, TcpListener> = HashMap::new();
        for &pid in server_pids.iter().chain(&self.clients) {
            let l = TcpListener::bind("127.0.0.1:0")?;
            book.insert(pid, l.local_addr()?);
            listeners.insert(pid, l);
        }
        let book = Arc::new(book);
        let epoch = Instant::now();

        // When the deployment is durable, every node gets its own data
        // dir under one temp root; the root's [`TempDir`] guard lives in
        // the cluster so dropping it cleans the logs up.
        let wal_root = match self.wal {
            Some(_) => Some(TempDir::new("ares-cluster")?),
            None => None,
        };

        let mut nodes = HashMap::new();
        for &pid in &server_pids {
            // lint: allow(net-panic, reason = "infallible: every server pid was bound into `listeners` in the loop above")
            let l = listeners.remove(&pid).expect("bound above");
            let durable = self
                .wal
                .zip(wal_root.as_ref())
                .map(|(wal, root)| (root.path().join(format!("node-{}", pid.0)), wal));
            let node = ShardedNode::serve_sharded(
                pid,
                registry.clone(),
                book.clone(),
                l,
                epoch,
                Some(&self.objects),
                self.shards,
                durable,
            )?;
            nodes.insert(pid, node);
        }
        let mut clients = HashMap::new();
        for &pid in &self.clients {
            let mut cfg = ClientConfig::new(c0).with_objects(self.objects.clone());
            if self.direct_transfer {
                cfg = cfg.with_direct_transfer();
            }
            // lint: allow(net-panic, reason = "infallible: every client pid was bound into `listeners` in the loop above")
            let l = listeners.remove(&pid).expect("bound above");
            clients
                .insert(pid, NetStore::serve(pid, registry.clone(), cfg, book.clone(), l, epoch)?);
        }
        Ok(LocalCluster {
            registry,
            book,
            nodes,
            clients,
            objects: self.objects,
            _wal_root: wal_root,
        })
    }
}

/// A live n-node ARES cluster on loopback TCP, plus its clients.
pub struct LocalCluster {
    registry: Arc<ConfigRegistry>,
    book: Arc<AddrBook>,
    nodes: HashMap<ProcessId, ShardedNode>,
    clients: HashMap<ProcessId, NetStore>,
    objects: Vec<ObjectId>,
    /// Keeps the durable deployment's temp root alive (and deletes it on
    /// drop); `None` for in-memory deployments.
    _wal_root: Option<TempDir>,
}

impl LocalCluster {
    /// Builder entry point.
    pub fn builder(configs: Vec<Configuration>) -> ClusterBuilder {
        ClusterBuilder::new(configs)
    }

    /// Convenience: boots `configs` with the given clients and default
    /// object 0.
    pub fn start(
        configs: Vec<Configuration>,
        clients: impl IntoIterator<Item = u32>,
    ) -> io::Result<Self> {
        ClusterBuilder::new(configs).clients(clients).start()
    }

    /// The shared configuration registry.
    pub fn registry(&self) -> &Arc<ConfigRegistry> {
        &self.registry
    }

    /// The deployment's address book.
    pub fn addr_book(&self) -> &Arc<AddrBook> {
        &self.book
    }

    /// The session-multiplexed store of client `pid`: open sessions on
    /// it to drive many concurrent logical clients over one socket set.
    ///
    /// # Panics
    ///
    /// Panics if `pid` was not declared as a client.
    pub fn store(&self, pid: u32) -> &NetStore {
        // lint: allow(net-panic, reason = "documented panic contract (# Panics): harness lookup of a locally declared client")
        self.clients.get(&ProcessId(pid)).expect("declared client")
    }

    /// Server `pid`'s node.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster — the contract
    /// every per-server method below documents.
    fn node(&self, pid: u32) -> &ShardedNode {
        // lint: allow(net-panic, reason = "documented panic contract (# Panics): harness lookup of a locally declared server")
        self.nodes.get(&ProcessId(pid)).expect("server pid")
    }

    /// Server process ids, ascending.
    pub fn server_pids(&self) -> Vec<ProcessId> {
        let mut v: Vec<ProcessId> = self.nodes.keys().copied().collect();
        v.sort();
        v
    }

    /// Number of shards each server node runs.
    pub fn shard_count(&self, pid: u32) -> usize {
        self.node(pid).shard_count()
    }

    /// Snapshot of server `pid`'s runtime counters (per-shard routing
    /// and apply counts, outbound batching/eviction totals).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn node_stats(&self, pid: u32) -> crate::NodeStats {
        self.node(pid).stats()
    }

    /// The listener address of server `pid` (e.g. to aim raw hostile
    /// bytes at it in tests).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn server_addr(&self, pid: u32) -> std::net::SocketAddr {
        self.node(pid).local_addr()
    }

    /// Crash-stops server `pid`: frames and timers are dropped and its
    /// inbound connections severed until [`LocalCluster::restart`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn kill(&self, pid: u32) {
        self.node(pid).pause();
    }

    /// Restarts a killed server with its retained state (a crash whose
    /// stable storage survived — `ares-sim`'s recover semantics).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn restart(&self, pid: u32) {
        self.node(pid).resume();
    }

    /// Restarts a killed server from *blank* state (lost disk); callers
    /// normally follow up with [`LocalCluster::trigger_repair`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn restart_blank(&self, pid: u32) {
        let node = self.node(pid);
        node.replace_blank();
        node.resume();
    }

    /// Restarts a killed *durable* server from its write-ahead logs:
    /// replays checkpoint + tail into fresh actors, resumes the node,
    /// and then triggers fragment repair for every `(cfg, obj)` the
    /// node serves so the delta written while it was down — and any
    /// suffix a torn or corrupt log lost — is refetched from live
    /// peers. Returns the per-shard replay reports.
    ///
    /// The node must have been [`LocalCluster::kill`]ed first: recovery
    /// swaps the actors out from under the event loops, which is only
    /// safe while they are paused and journaling nothing.
    ///
    /// # Errors
    ///
    /// Fails if the node was started without [`ClusterBuilder::durable`]
    /// or its logs cannot be reopened.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn restart_recovered(&self, pid: u32) -> io::Result<Vec<RecoveryReport>> {
        let node = self.node(pid);
        self.quiesce(node);
        let reports = node.replace_recovered()?;
        node.resume();
        for cfg in self.registry.ids() {
            if self.registry.get(cfg).server_index(ProcessId(pid)).is_none() {
                continue;
            }
            for &obj in &self.objects {
                self.trigger_repair(pid, cfg.0, obj.0);
            }
        }
        Ok(reports)
    }

    /// Waits until `node`'s event loops stop making progress, so that
    /// in-flight deliveries racing a [`LocalCluster::kill`] have either
    /// been journaled or discarded before recovery reads the logs.
    fn quiesce(&self, node: &ShardedNode) {
        let fingerprint = |s: &crate::NodeStats| {
            (s.events_applied(), s.wal.map(|w| w.records_appended).unwrap_or(0))
        };
        let mut last = fingerprint(&node.stats());
        loop {
            std::thread::sleep(Duration::from_millis(5));
            let cur = fingerprint(&node.stats());
            if cur == last {
                return;
            }
            last = cur;
        }
    }

    /// The durable data dir of server `pid` (hostile-crash tests reach
    /// in here to tear, corrupt, or delete log files between a kill and
    /// a recovery); `None` for in-memory deployments.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn data_dir(&self, pid: u32) -> Option<PathBuf> {
        self.node(pid).data_dir().map(Path::to_path_buf)
    }

    /// Asks server `pid` to rebuild its coded elements for `(cfg, obj)`
    /// from live peers (the fragment-repair extension).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn trigger_repair(&self, pid: u32, cfg: u32, obj: u32) {
        self.node(pid).inject(
            ENV,
            Msg::Repair(RepairMsg::Trigger { cfg: ConfigId(cfg), obj: ObjectId(obj) }),
        );
    }

    /// The fault switchboard of process `pid` — a server's or a
    /// client's; `None` if the pid is unknown (or its store shut down).
    fn controls_for(&self, pid: ProcessId) -> Option<Arc<FaultControls>> {
        if let Some(node) = self.nodes.get(&pid) {
            return Some(node.faults());
        }
        self.clients.get(&pid).and_then(NetStore::fault_controls)
    }

    /// Every live fault switchboard in the deployment (servers, then
    /// clients).
    fn all_controls(&self) -> Vec<Arc<FaultControls>> {
        self.nodes
            .values()
            .map(ShardedNode::faults)
            .chain(self.clients.values().filter_map(NetStore::fault_controls))
            .collect()
    }

    /// Cuts every link between groups `a` and `b`, both directions —
    /// pids may be servers or clients. Frames racing the cut may still
    /// land; frames sent after it are dropped at both ends. Unknown
    /// pids are ignored (they have no links to cut).
    pub fn partition(&self, a: &[u32], b: &[u32]) {
        self.partition_oneway(a, b);
        self.partition_oneway(b, a);
    }

    /// Cuts only the `from → to` direction: senders in `from` cannot
    /// reach receivers in `to`, while replies `to → from` still flow —
    /// an asymmetric (gray) partition. Enforced at both ends: `from`
    /// hosts drop the frames outbound and `to` hosts drop any that
    /// slip through a connection established before the cut.
    pub fn partition_oneway(&self, from: &[u32], to: &[u32]) {
        let to_pids: Vec<ProcessId> = to.iter().copied().map(ProcessId).collect();
        let from_pids: Vec<ProcessId> = from.iter().copied().map(ProcessId).collect();
        for &f in &from_pids {
            if let Some(c) = self.controls_for(f) {
                c.cut_outbound(to_pids.iter().copied());
            }
        }
        for &t in &to_pids {
            if let Some(c) = self.controls_for(t) {
                c.cut_inbound(from_pids.iter().copied());
            }
        }
    }

    /// Restores every cut link on every host (servers and clients).
    /// Slow-downs injected with [`LocalCluster::slow`] are separate and
    /// survive a heal.
    pub fn heal(&self) {
        for c in self.all_controls() {
            c.heal();
        }
    }

    /// Makes process `pid` gray: every frame it reads or writes pays an
    /// extra `delay` of injected latency, but it keeps serving — the
    /// slow-but-alive failure mode that defeats binary failure
    /// detectors. No-op for unknown pids.
    pub fn slow(&self, pid: u32, delay: Duration) {
        if let Some(c) = self.controls_for(ProcessId(pid)) {
            c.set_slow(delay.as_micros() as u64);
        }
    }

    /// Restores `pid` to full speed.
    pub fn unslow(&self, pid: u32) {
        if let Some(c) = self.controls_for(ProcessId(pid)) {
            c.set_slow(0);
        }
    }

    /// Total frames dropped by injected link cuts across the
    /// deployment (both directions, servers and clients).
    pub fn faults_dropped(&self) -> u64 {
        self.all_controls().iter().map(|c| c.frames_cut()).sum()
    }

    /// Applies one scripted fault action.
    ///
    /// # Panics
    ///
    /// `Kill`/`Restart` panic if their pid is not a server of this
    /// cluster (same contract as [`LocalCluster::kill`]).
    pub fn apply_fault(&self, fault: &ClusterFault) {
        match fault {
            ClusterFault::Partition { a, b } => self.partition(a, b),
            ClusterFault::OneWay { from, to } => self.partition_oneway(from, to),
            ClusterFault::Heal => self.heal(),
            ClusterFault::Slow { pid, delay_micros } => {
                self.slow(*pid, Duration::from_micros(*delay_micros));
            }
            ClusterFault::Unslow { pid } => self.unslow(*pid),
            ClusterFault::Kill { pid } => self.kill(*pid),
            ClusterFault::Restart { pid } => self.restart(*pid),
        }
    }

    /// Runs a fault script against the live cluster, **blocking** until
    /// the last step has been applied: each step sleeps until its
    /// offset from the call instant, then applies. Drive it from a
    /// scoped thread (`std::thread::scope`) to overlap the faults with
    /// a running workload.
    ///
    /// # Panics
    ///
    /// As [`LocalCluster::apply_fault`], for `Kill`/`Restart` steps
    /// naming a non-server pid.
    pub fn run_script(&self, script: &FaultScript) {
        let start = Instant::now();
        for (offset, fault) in &script.steps {
            let elapsed = start.elapsed();
            if *offset > elapsed {
                std::thread::sleep(*offset - elapsed);
            }
            self.apply_fault(fault);
        }
    }

    /// Tears the whole deployment down.
    pub fn shutdown(self) {
        for (_, c) in self.clients {
            c.shutdown();
        }
        for (_, n) in self.nodes {
            n.shutdown();
        }
    }
}
