//! In-process loopback deployments for integration tests and benches.
//!
//! [`LocalCluster`] boots every server of a configuration universe as a
//! real [`ShardedNode`] on an ephemeral `127.0.0.1` port (optionally
//! partitioned over multiple event-loop shards via
//! [`ClusterBuilder::shards`]), wires the address book, and hands out
//! each client's [`NetStore`] — all inside one test process, so `cargo
//! test` can exercise the full TCP stack (codec, listeners, reconnects,
//! timers) without any external orchestration. Nodes can be killed and
//! restarted mid-run, the simulator's fault schedules play against the
//! live deployment ([`LocalCluster::run_schedule`]), and runtime
//! counters snapshot via [`LocalCluster::node_stats`].
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::faults::FaultControls;
use crate::runtime::{AddrBook, NetStore, ShardedNode};
use crate::wal::{RecoveryReport, WalConfig};
use ares_core::{ClientConfig, Msg, RepairMsg, ENV};
use ares_sim::{FaultAction, FaultSchedule, NetworkConfig};
use ares_types::{ConfigId, ConfigRegistry, Configuration, ObjectId, ProcessId};
use ares_wal::TempDir;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-frame delay in µs per unit of gray factor: the maximum message
/// delay `D` the simulator's scenarios default to.
const GRAY_UNIT_MICROS: u64 = 50;

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
        let c0 = self.configs.first().map(|c| c.id);
        let c0 = c0.ok_or_else(|| io::Error::other("a deployment needs at least c_0"))?;
        let server_pids: BTreeSet<ProcessId> =
            self.configs.iter().flat_map(|c| c.servers.iter().copied()).collect();
        let registry = ConfigRegistry::from_configs(self.configs);

        // Bind all listeners first so the address book is complete
        // before any runtime starts sending.
        let mut book = AddrBook::new();
        let mut listeners: Vec<TcpListener> = Vec::new();
        for &pid in server_pids.iter().chain(&self.clients) {
            let l = TcpListener::bind("127.0.0.1:0")?;
            book.insert(pid, l.local_addr()?);
            listeners.push(l);
        }
        let mut listeners = listeners.into_iter();
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
        for (&pid, l) in server_pids.iter().zip(listeners.by_ref()) {
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
        for (&pid, l) in self.clients.iter().zip(listeners) {
            let mut cfg = ClientConfig::new(c0).with_objects(self.objects.clone());
            if self.direct_transfer {
                cfg = cfg.with_direct_transfer();
            }
            clients
                .insert(pid, NetStore::serve(pid, registry.clone(), cfg, book.clone(), l, epoch)?);
        }
        Ok(LocalCluster {
            registry,
            book,
            nodes,
            clients,
            objects: self.objects,
            net: Mutex::new(NetworkConfig::constant(1)),
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
    /// The deployment's cut links and gray factors, as the simulator
    /// models them (its delays are unused: TCP supplies real ones).
    net: Mutex<NetworkConfig>,
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
    #[expect(clippy::expect_used, reason = "documented panic: an undeclared client")]
    pub fn store(&self, pid: u32) -> &NetStore {
        self.clients.get(&ProcessId(pid)).expect("declared client")
    }

    /// Server `pid`'s node.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster — the contract
    /// every per-server method below documents.
    #[expect(clippy::expect_used, reason = "documented panic: an undeclared server")]
    fn node(&self, pid: u32) -> &ShardedNode {
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

    /// Crash-stops server `pid` ([`ShardedNode::kill`]): returns once
    /// its host has shut down, its state kept for
    /// [`LocalCluster::restart`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn kill(&self, pid: u32) {
        self.node(pid).kill();
    }

    /// Restarts a killed server with its retained state (a crash whose
    /// stable storage survived — `ares-sim`'s recover semantics).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn restart(&self, pid: u32) {
        self.node(pid).restart();
    }

    /// Restarts a killed server from *blank* state (lost disk); callers
    /// normally follow up with [`LocalCluster::trigger_repair`].
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a server of this cluster.
    pub fn restart_blank(&self, pid: u32) {
        self.node(pid).restart_blank();
    }

    /// Restarts a killed *durable* server from its write-ahead logs
    /// ([`ShardedNode::restart_recovered`]), then triggers fragment
    /// repair for every `(cfg, obj)` the node serves so the delta
    /// written while it was down — and any suffix a torn or corrupt log
    /// lost — is refetched from live peers. Returns the per-shard
    /// replay reports.
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
        let reports = self.node(pid).restart_recovered()?;
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

    /// Every host's fault switchboard, with its pid (a killed server's
    /// included: its switchboard outlives the kill).
    fn controls(&self) -> Vec<(ProcessId, Arc<FaultControls>)> {
        let servers = self.nodes.iter().map(|(&pid, n)| (pid, n.faults()));
        let clients = self.clients.iter().filter_map(|(&pid, s)| Some((pid, s.fault_controls()?)));
        servers.chain(clients).collect()
    }

    /// Total frames dropped by injected link cuts across the
    /// deployment (both directions, servers and clients).
    pub fn faults_dropped(&self) -> u64 {
        self.controls().iter().map(|(_, c)| c.frames_cut()).sum()
    }

    /// Injects one fault of the simulator's vocabulary now: a one-event
    /// [`LocalCluster::run_schedule`]. `Crash`/`Recover` are `kill` /
    /// `restart` (and panic on a non-server pid). Link and gray actions
    /// update the simulator's own [`NetworkConfig`], held by the cluster;
    /// then each host `me` drops frames to each `p` with
    /// `is_blocked(me, p)` before its writer queue and frames from each
    /// `p` with `is_blocked(p, me)` after decode, and holds each frame
    /// `gray_factor(me)` × 50 µs while gray.
    pub fn apply(&self, action: &FaultAction) -> io::Result<()> {
        self.run_schedule(&FaultSchedule::new().at(0, action.clone()))
    }

    /// Plays `schedule` against the deployment as [`LocalCluster::apply`]
    /// describes, blocking until its last fault is applied: an event at
    /// `t` fires `t` µs of wall clock after the call, in time order as
    /// the simulator fires it. Run it on a scoped thread to overlap a
    /// load.
    ///
    /// # Errors
    ///
    /// `ErrorKind::Unsupported`, before anything is applied, for
    /// `SetDuplication` or `SetReorder`: TCP neither duplicates nor
    /// reorders.
    pub fn run_schedule(&self, schedule: &FaultSchedule) -> io::Result<()> {
        let sim_only = |a: &FaultAction| {
            matches!(a, FaultAction::SetDuplication { .. } | FaultAction::SetReorder { .. })
        };
        if let Some(ev) = schedule.events().iter().find(|ev| sim_only(&ev.action)) {
            return Err(io::Error::new(io::ErrorKind::Unsupported, ev.to_string()));
        }
        let start = Instant::now();
        for ev in schedule.events() {
            if let Some(wait) = Duration::from_micros(ev.at).checked_sub(start.elapsed()) {
                crate::sync::sleep(wait);
            }
            match &ev.action {
                FaultAction::Crash { pid } => self.kill(pid.0),
                FaultAction::Recover { pid } => self.restart(pid.0),
                link_or_gray => self.project(link_or_gray),
            }
        }
        Ok(())
    }

    /// Applies a link or gray action to the model, then sets every host's
    /// controls from it after the guard drops (one runtime lock a thread).
    fn project(&self, action: &FaultAction) {
        let hosts = self.controls();
        let pids: Vec<ProcessId> = hosts.iter().map(|h| h.0).collect();
        let projected: Vec<(HashSet<ProcessId>, HashSet<ProcessId>, u32)> = {
            let mut net = crate::sync::lock(&self.net);
            net.apply(action);
            let to = |me| pids.iter().copied().filter(|&p| net.is_blocked(me, p)).collect();
            let from = |me| pids.iter().copied().filter(|&p| net.is_blocked(p, me)).collect();
            pids.iter().map(|&me| (to(me), from(me), net.gray_factor(me))).collect()
        };
        for ((_, c), (outbound, inbound, gray)) in hosts.iter().zip(projected) {
            c.set_cuts(outbound, inbound);
            c.set_slow(if gray > 1 { u64::from(gray) * GRAY_UNIT_MICROS } else { 0 });
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

#[cfg(test)]
mod tests {
    use super::*;
    use ares_core::store::{OpTicket, Store, StoreSession};

    fn treas5() -> io::Result<LocalCluster> {
        let servers = (1..=5).map(ProcessId).collect();
        LocalCluster::start(vec![Configuration::treas(ConfigId(0), servers, 3, 2)], [100])
    }

    /// The links the hosts enforce as cut: as each sender's outbound
    /// controls see them, and as each receiver's inbound controls do.
    fn enforced(cluster: &LocalCluster) -> [BTreeSet<(u32, u32)>; 2] {
        let hosts = cluster.controls();
        let mut cut = [BTreeSet::new(), BTreeSet::new()];
        for ((me, c), (p, _)) in hosts.iter().flat_map(|a| hosts.iter().map(move |b| (a, b))) {
            c.drop_outbound(*p).then(|| cut[0].insert((me.0, p.0)));
            c.drop_inbound(*p).then(|| cut[1].insert((p.0, me.0)));
        }
        cut
    }

    #[test]
    fn a_schedule_fires_in_time_order_and_heals_one_link() -> io::Result<()> {
        let cluster = treas5()?;
        let (from, to) = (ProcessId(100), ProcessId(1));
        // Inserted heal-first: in insertion order both cuts would stay.
        let schedule = FaultSchedule::new()
            .at(20_000, FaultAction::HealLink { from, to })
            .at(0, FaultAction::CutLink { from, to })
            .at(0, FaultAction::CutLink { from, to: ProcessId(2) });
        cluster.run_schedule(&schedule)?;
        let only = BTreeSet::from([(100, 2)]);
        assert_eq!(enforced(&cluster), [only.clone(), only]);
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn partition_cuts_across_groups_and_gray_slows_one_host() -> io::Result<()> {
        let cluster = treas5()?;
        let groups = vec![vec![ProcessId(1), ProcessId(2)], vec![ProcessId(3), ProcessId(100)]];
        cluster.apply(&FaultAction::Partition { groups })?;
        cluster.apply(&FaultAction::Grayify { pid: ProcessId(3), factor: 40 })?;
        let across =
            [(1, 3), (1, 100), (2, 3), (2, 100)].into_iter().flat_map(|(a, b)| [(a, b), (b, a)]);
        let across: BTreeSet<_> = across.collect();
        assert_eq!(enforced(&cluster), [across.clone(), across]);
        for (pid, c) in cluster.controls() {
            assert_eq!(c.slow_micros(), if pid == ProcessId(3) { 2_000 } else { 0 });
        }
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn simulator_only_faults_are_refused_before_anything_applies() -> io::Result<()> {
        let cluster = treas5()?;
        let refused = |r: io::Result<()>| r.is_err_and(|e| e.kind() == io::ErrorKind::Unsupported);
        assert!(refused(cluster.apply(&FaultAction::SetDuplication { per_mille: 100 })));
        // A TCP-injectable cut, refused for the reorder beside it.
        let cut = FaultAction::CutLink { from: ProcessId(100), to: ProcessId(1) };
        let reorder = FaultAction::SetReorder { per_mille: 100, extra_max: 40 };
        let schedule = FaultSchedule::new().at(0, cut).at(5, reorder);
        assert!(refused(cluster.run_schedule(&schedule)));
        let mut session = cluster.store(100).open_session();
        let ticket = session.write(ObjectId(0), ares_types::Value::filler(64, 1));
        ticket.expect("submitted").wait().expect("completed");
        assert_eq!(cluster.faults_dropped(), 0);
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn a_cut_link_outlives_a_kill_and_restart() -> io::Result<()> {
        let cluster = treas5()?;
        cluster.apply(&FaultAction::CutLink { from: ProcessId(1), to: ProcessId(100) })?;
        let cut = enforced(&cluster);
        cluster.kill(1);
        cluster.restart(1);
        assert_eq!(enforced(&cluster), cut, "the restart kept the cut sets");
        // Server 1's replies to the write die at its own outbound pool.
        let dropped = cluster.node_stats(1).faults_dropped;
        let mut session = cluster.store(100).open_session();
        let ticket = session.write(ObjectId(0), ares_types::Value::filler(64, 1));
        ticket.expect("submitted").wait().expect("completed");
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.node_stats(1).faults_dropped == dropped {
            assert!(Instant::now() < deadline, "the restarted node sent across the cut link");
            crate::sync::sleep(Duration::from_millis(1));
        }
        cluster.shutdown();
        Ok(())
    }

    #[test]
    fn a_kill_severs_the_connections_its_life_accepted() -> io::Result<()> {
        use ares_dap::{DapBody, DapMsg, Hdr};
        use ares_types::{OpId, RpcId};
        use std::io::{Read, Write};
        let cluster = treas5()?;
        let op = OpId { client: ProcessId(100), seq: 0 };
        let hdr = Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(1), op };
        let query = Msg::Dap(DapMsg::new(hdr, DapBody::TreasQueryTag));
        let mut peer = std::net::TcpStream::connect(cluster.server_addr(1))?;
        peer.write_all(&crate::codec::encode_frame(ProcessId(100), &query))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.node_stats(1).frames_routed() == 0 {
            assert!(Instant::now() < deadline, "the node never read the frame");
            crate::sync::sleep(Duration::from_millis(1));
        }
        cluster.kill(1);
        peer.set_read_timeout(Some(Duration::from_secs(10)))?;
        assert_eq!(peer.read(&mut [0u8; 1])?, 0, "the killed node closed the connection");
        cluster.shutdown();
        Ok(())
    }

    /// Every counter `s` reports, in a fixed order.
    fn counters(s: &crate::NodeStats) -> Vec<u64> {
        let shards = s
            .shards
            .iter()
            .flat_map(|c| [c.frames_routed, c.events_applied, c.inbox_high_water as u64]);
        let w = s.wal.unwrap_or_default();
        let totals = [
            s.batches_flushed,
            s.frames_sent,
            s.frames_abandoned,
            s.outbound_dropped,
            s.faults_dropped,
            w.records_appended,
            w.bytes_logged,
            w.fsyncs,
            w.checkpoints,
            w.replay_records,
            w.torn_tail_truncations,
            w.corrupt_records_dropped,
            w.append_errors,
        ];
        shards.chain(totals).collect()
    }

    #[test]
    fn kill_returns_once_no_shard_journals() -> io::Result<()> {
        use ares_dap::{DapBody, DapMsg, Hdr};
        use ares_types::{OpId, RpcId, Tag, Value};
        const BACKLOG: u64 = 2_000;
        let servers = (1..=3).map(ProcessId).collect();
        let cluster = LocalCluster::builder(vec![Configuration::abd(ConfigId(0), servers)])
            .durable(WalConfig::default())
            .start()?;
        let client = ProcessId(100);
        for seq in 1..=BACKLOG {
            let hdr = Hdr {
                cfg: ConfigId(0),
                obj: ObjectId(0),
                rpc: RpcId(seq),
                op: OpId { client, seq },
            };
            let body = DapBody::AbdWrite(Tag::new(seq, client), Value::filler(8, seq));
            cluster.node(1).inject(client, Msg::Dap(DapMsg::new(hdr, body)));
        }
        cluster.kill(1);
        let progress = || {
            let s = cluster.node_stats(1);
            (s.events_applied(), s.wal.map_or(0, |w| w.records_appended))
        };
        let at_kill = progress();
        assert!(at_kill.1 >= BACKLOG, "the backlog queued before the kill was journaled");
        crate::sync::sleep(Duration::from_millis(50));
        assert_eq!(progress(), at_kill, "a killed node applied or journaled after kill returned");
        let killed = counters(&cluster.node_stats(1));
        cluster.restart_recovered(1)?;
        let restarted = counters(&cluster.node_stats(1));
        for (i, (now, then)) in restarted.iter().zip(&killed).enumerate() {
            assert!(now >= then, "counter {i} fell from {then} to {now} across the restart");
        }
        cluster.shutdown();
        Ok(())
    }
}
