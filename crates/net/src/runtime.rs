//! Threaded TCP hosts for the ARES actors.
//!
//! The protocol engines in this workspace are pure state machines — the
//! simulator drives them with virtual events; this module drives the
//! *same* `ServerActor` / `ClientActor` types with real sockets, via the
//! sharded hosting layer of [`crate::host`]:
//!
//! * `S ≥ 1` **shard event-loop threads** each own one sequential actor
//!   instance. A [`ShardedNode`] partitions the server by object
//!   ([`ares_core::shard`]): per-object traffic executes on the shard
//!   owning that object, config-wide traffic (consensus, configuration
//!   service) serializes on shard 0 — so per-object and per-config
//!   execution stay exactly the paper's single-process server. Client
//!   hosts ([`NetStore`]) run a single shard, whose completions reach
//!   their tickets through one table of in-flight operations. Shard 0's
//!   loop also owns the listener and reads every connection it accepts,
//!   decoding length-prefixed frames ([`crate::codec`]) and routing
//!   `(from, Msg)` events to their shards. Each loop keeps its shard's
//!   `timer_after` deadlines in a heap and parks, in one `ppoll` on its
//!   inbox and its sockets, only until the earliest one;
//! * outbound sends go through a **peer pool**: one writer thread per
//!   destination, connecting on demand, reconnecting after failures,
//!   and draining its queue in adaptively-batched writes (one write per
//!   drained batch).
//!
//! Wall-clock time is reported to actors as microseconds since a shared
//! epoch ([`ares_types::Time`] is documented as abstract microseconds),
//! so completion records from different hosts of one deployment are
//! mutually comparable and feed the usual atomicity checker.
//!
//! A crash is the end of a host's life: [`ShardedNode::kill`] shuts the
//! node's host down, so its threads, inboxes, timers, outbound queues
//! and accepted connections die, and every restart boots a new host on
//! the node's own listener — from the shards the kill kept
//! ([`ShardedNode::restart`], the semantics of `ares-sim`'s
//! crash/recover schedule), from blank state
//! ([`ShardedNode::restart_blank`], which composes with the
//! fragment-repair protocol) or from the node's logs
//! ([`ShardedNode::restart_recovered`]).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::codec;
use crate::host::{Admission, CompletionSink, HostBase, NodeStats, ShardState, ShardedHost};
use crate::sync::Signal;
use crate::wal::{recover_server, RecoveryReport, WalConfig};
use ares_core::store::{session_op_seq, Store, StoreSession};
use ares_core::{
    ClientActor, ClientCmd, ClientConfig, Invoke, Msg, OpError, OpTicket, ServerActor, ENV,
};
use ares_sim::{FaultAction, NetworkConfig};
use ares_types::{ConfigRegistry, ObjectId, OpCompletion, OpId, ProcessId, SessionId, Time};
use ares_wal::{WalCounters, WalStats};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// A shard inbox slot is as large as the largest `Event` variant, and
// every delivery takes one (DESIGN.md §9): no variant may outgrow a
// delivery. A slot is 112 B.
const _: () = {
    assert!(std::mem::size_of::<crate::host::Event>() <= 128, "an inbox slot outgrew 128 B");
};

/// The default deadline of [`OpTicket::wait`] on a [`NetStore`] (see
/// [`NetStore::set_op_timeout`]); a test deployment that exceeds it has
/// a liveness failure.
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(60);

/// Per-frame delay in µs per unit of gray factor: the maximum message
/// delay `D` the simulator's scenarios default to.
const GRAY_UNIT_MICROS: u64 = 50;

/// Maps process ids to socket addresses — the deployment's static view
/// of "who listens where" (the paper's known universe of processes) —
/// and holds the deployment's one fault model: the simulator's own
/// [`NetworkConfig`], whose cut links and gray factors every host of
/// the deployment reads in place (its delays are unused: TCP supplies
/// real ones). Every fault it holds is a loss or a delay, which the
/// asynchronous model already allows.
#[derive(Debug)]
pub struct AddrBook {
    map: HashMap<ProcessId, SocketAddr>,
    net: Mutex<NetworkConfig>,
    /// Set while a link among the book's pids is cut or one is gray, so
    /// a fault-free frame pays one atomic load and no lock.
    faulty: AtomicBool,
}

impl Default for AddrBook {
    fn default() -> Self {
        Self::from_entries([])
    }
}

impl Clone for AddrBook {
    /// A copy of the addresses and of the fault model as it stands now.
    fn clone(&self) -> Self {
        let net = crate::sync::lock(&self.net);
        let faulty = AtomicBool::new(self.faulty.load(Ordering::SeqCst));
        AddrBook { map: self.map.clone(), net: Mutex::new(net.clone()), faulty }
    }
}

impl AddrBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a book from `(pid, addr)` pairs.
    pub fn from_entries(entries: impl IntoIterator<Item = (ProcessId, SocketAddr)>) -> Self {
        AddrBook {
            map: entries.into_iter().collect(),
            net: Mutex::new(NetworkConfig::constant(1)),
            faulty: AtomicBool::new(false),
        }
    }

    /// Registers (or replaces) a process address.
    pub fn insert(&mut self, pid: ProcessId, addr: SocketAddr) {
        self.map.insert(pid, addr);
    }

    /// The address of `pid`, if known.
    pub fn addr(&self, pid: ProcessId) -> Option<SocketAddr> {
        self.map.get(&pid).copied()
    }

    /// Applies a link or gray action to the model; every host sees it
    /// at its next frame.
    pub(crate) fn apply(&self, action: &FaultAction) {
        let mut net = crate::sync::lock(&self.net);
        net.apply(action);
        let pids = || self.map.keys().copied();
        let faulty = pids().any(|a| net.gray_factor(a) > 1 || pids().any(|b| net.is_blocked(a, b)));
        self.faulty.store(faulty, Ordering::SeqCst);
    }

    /// Whether the link `from → to` is cut: the sender's pool drops a
    /// frame on it before its writer queue, the receiver's reader after
    /// decode.
    pub(crate) fn is_cut(&self, from: ProcessId, to: ProcessId) -> bool {
        self.faulty.load(Ordering::SeqCst) && crate::sync::lock(&self.net).is_blocked(from, to)
    }

    /// How long gray host `me` holds each frame it reads and each batch
    /// it writes: `gray_factor(me)` × 50 µs, 0 while it is healthy.
    pub(crate) fn gray_micros(&self, me: ProcessId) -> u64 {
        if !self.faulty.load(Ordering::SeqCst) {
            return 0;
        }
        match crate::sync::lock(&self.net).gray_factor(me) {
            1 => 0,
            factor => u64::from(factor) * GRAY_UNIT_MICROS,
        }
    }
}

// ---------------------------------------------------------------------
// The sharded server node
// ---------------------------------------------------------------------

/// A live ARES server node hosted on `S ≥ 1` core-parallel shards: `S`
/// independent [`ServerActor`] event loops behind one TCP listener.
///
/// Messages route by the [`ares_core::shard`] classification — traffic
/// for one object always executes on one shard (the paper's sequential
/// server, per object), config-wide traffic (Paxos, configuration
/// service) serializes on shard 0 (the paper's sequential server, per
/// configuration). `S = 1` is bit-compatible with the seed's single
/// event loop.
///
/// The node outlives its host: [`ShardedNode::kill`] ends the host's
/// life and each restart boots a new one, while the node keeps its
/// listener and counters. Dropping the node stops it as
/// [`ShardedNode::shutdown`] does.
pub struct ShardedNode {
    base: Arc<HostBase>,
    /// Present when the node was started with a data dir: everything a
    /// recovered restart needs to reopen the per-shard logs.
    durability: Option<Durability>,
    life: Mutex<Life>,
}

/// The node's current life.
enum Life {
    Up(ShardedHost<ServerActor>),
    /// Killed, keeping the shards its last life stopped with for
    /// [`ShardedNode::restart`].
    Down(Vec<ShardState<ServerActor>>),
}

/// A durable node's recovery anchor.
struct Durability {
    data_dir: PathBuf,
    config: WalConfig,
    /// One counter set per shard, handed to every reopen of that
    /// shard's log so WAL stats stay monotone across recoveries.
    counters: Vec<Arc<WalCounters>>,
}

/// Builds a node's shards, one way for boot and both restarts: each
/// shard blank and unlogged without `log`, else rebuilt from its own
/// log under `shard-<i>/` of the data dir (each shard journals
/// independently — its deliveries are already a serialized stream).
/// On an empty data dir that is the recovery of nothing, so first boot
/// and crash recovery are one code path. Returns the shards and what
/// each one's recovery found.
fn build_shards(
    base: &HostBase,
    log: Option<&Durability>,
) -> io::Result<(Vec<ShardState<ServerActor>>, Vec<RecoveryReport>)> {
    let (me, registry) = (base.pid, &base.admission.registry);
    let Some(d) = log else {
        let blank = || ((ServerActor::new(me, registry.clone()), None), RecoveryReport::default());
        return Ok((0..base.shards.len()).map(|_| blank()).unzip());
    };
    let recover = |(si, counters): (usize, &Arc<WalCounters>)| {
        let dir = d.data_dir.join(format!("shard-{si}"));
        let (actor, wal, report) =
            recover_server(me, registry.clone(), &dir, &d.config, counters.clone())?;
        Ok(((actor, Some(wal)), report))
    };
    let built: io::Result<Vec<_>> = d.counters.iter().enumerate().map(recover).collect();
    Ok(built?.into_iter().unzip())
}

impl ShardedNode {
    /// Starts a node partitioned over `shards` event-loop shards on an
    /// already-bound listener (a deployment binds every port first and
    /// shares one completion-timestamp `epoch`; see the type docs for
    /// the routing rules).
    ///
    /// `objects` declares the object universe this deployment serves;
    /// when given, listener traffic for any other object is dropped
    /// before it can create per-object server state (an open listener
    /// would otherwise let fabricated object ids grow memory without
    /// limit). `None` admits any object.
    ///
    /// With `durable = Some((data_dir, wal))` each shard owns a
    /// write-ahead log under `data_dir/shard-<i>/`, journals every
    /// state-mutating delivery before applying it, and periodically
    /// compacts the log into a checkpoint. If `data_dir` already holds
    /// logs from a previous life, the node **recovers** them before
    /// serving — checkpoint first, then journal-tail replay — so first
    /// boot and crash recovery are one code path. (What recovery cannot
    /// restore — a torn or corrupt suffix, updates journaled with
    /// batched fsync but lost to a power cut — is exactly the delta the
    /// repair protocol fetches from live peers; see
    /// [`ShardedNode::restart_recovered`].)
    ///
    /// # Errors
    ///
    /// Propagates socket errors from host bring-up and I/O errors from
    /// opening the logs.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[allow(clippy::too_many_arguments, reason = "one argument per independent deployment choice")]
    pub fn serve_sharded(
        me: ProcessId,
        registry: Arc<ConfigRegistry>,
        book: Arc<AddrBook>,
        listener: TcpListener,
        epoch: Instant,
        objects: Option<&[ObjectId]>,
        shards: usize,
        durable: Option<(PathBuf, WalConfig)>,
    ) -> io::Result<Self> {
        assert!(shards >= 1, "a node runs at least one shard");
        let durability = durable.map(|(data_dir, config)| Durability {
            data_dir,
            config,
            counters: (0..shards).map(|_| Arc::default()).collect(),
        });
        let admission =
            Admission { registry, objects: objects.map(|o| o.iter().copied().collect()) };
        let base = HostBase::new(me, listener, admission, book, epoch, shards)?;
        let (built, _) = build_shards(&base, durability.as_ref())?;
        let host = ShardedHost::start(base.clone(), built, None)?;
        Ok(ShardedNode { base, durability, life: Mutex::new(Life::Up(host)) })
    }

    /// This node's process id.
    pub fn pid(&self) -> ProcessId {
        self.base.pid
    }

    /// The listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.base.local_addr
    }

    /// Number of shards this node runs.
    pub fn shard_count(&self) -> usize {
        self.base.shards.len()
    }

    /// Snapshot of the node's runtime counters: per-shard routing/apply
    /// counts and inbox high-water marks, the outbound writer's
    /// batch/flush/eviction totals, and — on a durable node — the WAL
    /// counters summed over all shards. Answers on a killed node too;
    /// every counter is monotone across kills and restarts.
    pub fn stats(&self) -> NodeStats {
        let pool = match &*crate::sync::lock(&self.life) {
            Life::Up(host) => Some(host.pool.clone()),
            Life::Down(_) => None,
        };
        let mut stats = self.base.stats(pool.as_deref());
        if let Some(d) = &self.durability {
            let mut w = WalStats::default();
            for c in &d.counters {
                w.merge(&c.snapshot());
            }
            stats.wal = Some(w);
        }
        stats
    }

    /// The directory this node's per-shard logs live under, when it
    /// was started durably (hostile-recovery tests use this to tear,
    /// corrupt, or delete specific log files between a kill and a
    /// restart).
    pub fn data_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.data_dir.as_path())
    }

    /// Injects a message as if delivered from `from` (environment
    /// commands such as repair triggers), routed to the shard the
    /// message's object lives on. A killed node drops it.
    pub fn inject(&self, from: ProcessId, msg: Msg) {
        let injector = match &*crate::sync::lock(&self.life) {
            Life::Up(host) => Some(host.injector()),
            _ => None,
        };
        if let Some(inject) = injector {
            inject(from, msg);
        }
    }

    /// Crash-stops the node: its host shuts down, and this returns once
    /// every shard loop has applied what was queued before the call
    /// (journaled it, on a durable node) and ended. Its timers, inboxes,
    /// outbound queues and accepted connections die; frames sent to it
    /// from now on wait in the listener's backlog until a restart. The
    /// shards keep their state for [`ShardedNode::restart`]. A no-op on
    /// a killed node.
    pub fn kill(&self) {
        let shards = self.stop();
        *crate::sync::lock(&self.life) = Life::Down(shards);
    }

    /// Boots a new life from the shards [`ShardedNode::kill`] kept (a
    /// crash whose state survived — `ares-sim`'s recover semantics). A
    /// node still up is killed first.
    pub fn restart(&self) {
        let shards = self.stop();
        self.boot(shards);
    }

    /// Boots a new life from *blank* state (a crash that lost its
    /// disk): every shard gets a fresh blank [`ServerActor`], and no
    /// log. Combine with a `RepairMsg::Trigger` injection to rebuild
    /// coded elements from live peers. A node still up is killed first.
    pub fn restart_blank(&self) {
        drop(self.stop());
        // Blank shards open no log, so building them cannot fail.
        if let Ok((built, _)) = build_shards(&self.base, None) {
            self.boot(built);
        }
    }

    /// Boots a new life from what the per-shard logs recover from the
    /// data dir — the recovered-restart path of a durable node. Each
    /// shard's checkpoint is loaded and its journal tail replayed, and
    /// the reopened log journals on in the new life. Combine with
    /// `RepairMsg::Trigger` injections to fetch the **delta** written
    /// while the node was down (recovery restores everything journaled
    /// locally; repair fills only the rest — this is what makes
    /// recovery cheaper than a blank restart repairing from zero). A
    /// node still up is killed first: the logs are read only after the
    /// life that wrote them has closed them.
    ///
    /// Returns one [`RecoveryReport`] per shard.
    ///
    /// # Errors
    ///
    /// Fails if the node was started without a data dir, or on I/O
    /// errors reopening the logs; the node then stays down, holding no
    /// state.
    pub fn restart_recovered(&self) -> io::Result<Vec<RecoveryReport>> {
        let d = self
            .durability
            .as_ref()
            .ok_or_else(|| io::Error::other("node was started without a data dir"))?;
        drop(self.stop());
        let (built, reports) = build_shards(&self.base, Some(d))?;
        self.boot(built);
        Ok(reports)
    }

    /// Ends the current life, if any, and returns its shards. The host
    /// is shut down after the guard drops: that joins threads.
    fn stop(&self) -> Vec<ShardState<ServerActor>> {
        let life = std::mem::replace(&mut *crate::sync::lock(&self.life), Life::Down(Vec::new()));
        match life {
            Life::Up(host) => host.shutdown(),
            Life::Down(shards) => shards,
        }
    }

    /// Starts a new life on `shards`. Without one shard per loop (a
    /// failed recovery, or a shard thread that panicked) or without the
    /// sockets a life needs, the node stays down.
    fn boot(&self, shards: Vec<ShardState<ServerActor>>) {
        if shards.len() != self.shard_count() {
            return;
        }
        if let Ok(host) = ShardedHost::start(self.base.clone(), shards, None) {
            *crate::sync::lock(&self.life) = Life::Up(host);
        }
    }

    /// Stops all threads and closes the listener.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ShardedNode {
    fn drop(&mut self) {
        drop(self.stop());
    }
}

// ---------------------------------------------------------------------
// The session-multiplexed client store
// ---------------------------------------------------------------------

/// A store's completion table, and the one signal that wakes whoever
/// waits on it. Fill, take and removal share its one lock.
#[derive(Default)]
struct Completions {
    table: Mutex<Table>,
    changed: Signal,
}

#[derive(Default)]
struct Table {
    /// One entry per live ticket, empty until its completion is routed;
    /// boxed, as a burst of submissions sizes the table for good.
    slots: HashMap<OpId, Option<Box<OpCompletion>>>,
    /// Completions routed so far, those whose ticket went included.
    routed: u64,
    /// Set once the store has shut down: no completion can arrive.
    closed: bool,
}

impl Completions {
    /// The sink: fills `c`'s slot while its ticket lives, and counts `c`.
    fn route(&self, c: OpCompletion) {
        let mut t = crate::sync::lock(&self.table);
        t.slots.entry(c.op).and_modify(|slot| *slot = Some(Box::new(c)));
        t.routed += 1;
        self.changed.notify_all();
    }
}

struct StoreInner {
    pid: ProcessId,
    epoch: Instant,
    /// `None` once shut down; submissions then fail with
    /// [`OpError::Closed`].
    host: Mutex<Option<ShardedHost<ClientActor>>>,
    completions: Arc<Completions>,
    next_session: AtomicU32,
    /// [`OpTicket::wait`]'s deadline, in nanoseconds.
    op_timeout: AtomicU64,
}

/// A session-multiplexed ARES client store over TCP: one
/// [`ClientActor`], one reply listener and one outbound socket set,
/// shared by every logical [`NetSession`] opened on it.
///
/// A process serving N concurrent logical clients opens N sessions on
/// one `NetStore` and drives them with ticketed, pipelined operations —
/// completions are routed back to their tickets by [`OpId`], never by
/// arrival order.
pub struct NetStore {
    inner: Arc<StoreInner>,
}

impl NetStore {
    /// Starts a store on an already-bound reply listener with a shared
    /// timestamp `epoch`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from host bring-up.
    pub fn serve(
        me: ProcessId,
        registry: Arc<ConfigRegistry>,
        config: ClientConfig,
        book: Arc<AddrBook>,
        listener: TcpListener,
        epoch: Instant,
    ) -> io::Result<Self> {
        assert!(
            me.0 < ares_core::store::MAX_SESSIONS,
            "client host id {me} is reserved for session writer ids (hosts must stay below 2^16)"
        );
        let actor = ClientActor::new(registry.clone(), config);
        let admission = Admission { registry, objects: None };
        let base = HostBase::new(me, listener, admission, book, epoch, 1)?;
        let completions = Arc::new(Completions::default());
        let routes = completions.clone();
        let sink: CompletionSink = Box::new(move |c| routes.route(c));
        // Client hosts are single-sharded (so `shard_of` routes every
        // message to shard 0): one multiplexer actor, one loop — the
        // session lanes and completion routing live inside
        // the actor, which core-parallelizes by adding *stores*, not
        // shards.
        let host = ShardedHost::start(base, vec![(actor, None)], Some(sink))?;
        Ok(NetStore {
            inner: Arc::new(StoreInner {
                pid: me,
                epoch,
                host: Mutex::new(Some(host)),
                completions,
                next_session: AtomicU32::new(0),
                op_timeout: AtomicU64::new(DEFAULT_OP_TIMEOUT.as_nanos() as u64),
            }),
        })
    }

    /// This store's host process id.
    pub fn pid(&self) -> ProcessId {
        self.inner.pid
    }

    /// Sets the default deadline [`OpTicket::wait`] applies.
    pub fn set_op_timeout(&self, timeout: Duration) {
        let nanos = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        self.inner.op_timeout.store(nanos, Ordering::Relaxed);
    }

    /// Microseconds since this deployment's timestamp epoch — the clock
    /// [`OpCompletion`] records are stamped with, so frontends can put
    /// their own marks (e.g. open-loop arrival times) on the same axis.
    pub fn now_micros(&self) -> Time {
        self.inner.epoch.elapsed().as_micros() as Time
    }

    /// Number of completions routed so far (progress counter).
    pub fn completions_routed(&self) -> u64 {
        crate::sync::lock(&self.inner.completions.table).routed
    }

    /// Frames this store's host dropped on cut links; 0 once shut down.
    pub(crate) fn faults_dropped(&self) -> u64 {
        crate::sync::lock(&self.inner.host).as_ref().map_or(0, ShardedHost::faults_dropped)
    }

    /// Blocks until the progress counter exceeds `seen` (returning the
    /// new value), or `timeout` passes or the store shuts down
    /// (returning the current value); a `timeout` past the end of time,
    /// such as `Duration::MAX`, waits without a deadline. Closed-loop
    /// drivers sweep their tickets with [`OpTicket::try_wait`] after
    /// each wakeup.
    pub fn wait_progress(&self, seen: u64, timeout: Duration) -> u64 {
        let (c, deadline) = (&self.inner.completions, Instant::now().checked_add(timeout));
        let moved = |t: &Table| t.routed > seen || t.closed;
        c.changed.wait_until(crate::sync::lock(&c.table), deadline, moved).routed
    }

    /// Stops all threads and closes the reply listener. Outstanding
    /// tickets fail with [`OpError::Closed`] unless their completion
    /// was already routed, and so do subsequent submissions. Dropping
    /// the store, its last session and its last ticket does the same.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }
}

impl StoreInner {
    /// Takes the host out of its guard, shuts it down (that joins
    /// threads, so every completion it will route is routed), then
    /// closes the table; a no-op once shut down.
    fn shutdown(&self) {
        let host = crate::sync::lock(&self.host).take();
        drop(host.map(ShardedHost::shutdown));
        crate::sync::lock(&self.completions.table).closed = true;
        self.completions.changed.notify_all();
    }
}

impl Drop for StoreInner {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Store for NetStore {
    type Session = NetSession;

    fn open_session(&self) -> NetSession {
        let id = SessionId(self.inner.next_session.fetch_add(1, Ordering::SeqCst));
        assert!(id.0 < ares_core::store::MAX_SESSIONS, "session id space exhausted");
        NetSession { inner: self.inner.clone(), id, next: 0 }
    }
}

/// A logical client session of a [`NetStore`]. Cheap to open (a counter
/// bump), safe to move to another thread; the runtime executes its
/// commands strictly in submission order.
pub struct NetSession {
    inner: Arc<StoreInner>,
    id: SessionId,
    next: u64,
}

impl StoreSession for NetSession {
    type Ticket = NetTicket;

    fn id(&self) -> SessionId {
        self.id
    }

    fn client(&self) -> ProcessId {
        self.inner.pid
    }

    fn submit(&mut self, cmd: ClientCmd) -> Result<NetTicket, OpError> {
        if let ClientCmd::Write { value, .. } = &cmd {
            // Reject on the submitting thread: an impossible-to-transmit
            // value must be an immediate, attributable error, not a dead
            // event loop and a timeout.
            let max = codec::MAX_FRAME_LEN - 1024;
            if value.len() > max {
                return Err(OpError::ValueTooLarge { len: value.len(), max });
            }
        }
        let seq = session_op_seq(self.id, self.next);
        self.next += 1;
        let op = OpId { client: self.inner.pid, seq };
        // Open the slot *before* injecting: the completion can never
        // arrive unrouted. On a closed store the ticket drops (after the
        // host guard) and removes the slot.
        crate::sync::lock(&self.inner.completions.table).slots.insert(op, None);
        let ticket = NetTicket { op, inner: self.inner.clone() };
        let injector = crate::sync::lock(&self.inner.host).as_ref().map(ShardedHost::injector);
        let Some(inject) = injector else { return Err(OpError::Closed) };
        inject(ENV, Msg::Invoke(Invoke { session: self.id, seq, cmd }));
        Ok(ticket)
    }
}

/// Claim ticket for one operation submitted to a [`NetStore`]: it owns
/// its operation's entry in the store's completion table, which it
/// removes when it takes the completion, times out or drops.
pub struct NetTicket {
    op: OpId,
    inner: Arc<StoreInner>,
}

impl std::fmt::Debug for NetTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetTicket").field("op", &self.op).finish_non_exhaustive()
    }
}

impl NetTicket {
    /// Waits up to `timeout` for the routed completion; a `timeout`
    /// past the end of time, such as `Duration::MAX`, waits until the
    /// completion is routed or the store shuts down.
    ///
    /// On timeout the ticket removes its entry, so the completion —
    /// should the operation still finish later — is dropped instead of
    /// leaking; the error poisons *only this ticket*. The operation's
    /// session stays dedicated to the stuck operation until the runtime
    /// completes it (per-session commands are strictly serial); callers
    /// needing fresh progress open a new session.
    ///
    /// # Errors
    ///
    /// [`OpError::Timeout`] if no completion is routed in time, and
    /// [`OpError::Closed`] at once if the store shut down before it was.
    pub fn wait_for(self, timeout: Duration) -> Result<OpCompletion, OpError> {
        let (c, deadline) = (&self.inner.completions, Instant::now().checked_add(timeout));
        let ready = |t: &Table| t.closed || t.slots.get(&self.op).is_none_or(Option::is_some);
        let mut t = c.changed.wait_until(crate::sync::lock(&c.table), deadline, ready);
        match t.slots.remove(&self.op) {
            Some(Some(done)) => Ok(*done),
            _ if t.closed => Err(OpError::Closed),
            _ => Err(OpError::Timeout { op: self.op }),
        }
    }
}

impl Drop for NetTicket {
    fn drop(&mut self) {
        crate::sync::lock(&self.inner.completions.table).slots.remove(&self.op);
    }
}

impl OpTicket for NetTicket {
    fn op(&self) -> OpId {
        self.op
    }

    /// Non-blocking poll. Returns the completion at most once.
    fn try_wait(&mut self) -> Option<Result<OpCompletion, OpError>> {
        let mut t = crate::sync::lock(&self.inner.completions.table);
        let done = t.slots.get_mut(&self.op)?.take()?;
        t.slots.remove(&self.op);
        Some(Ok(*done))
    }

    fn wait(self) -> Result<OpCompletion, OpError> {
        let timeout = Duration::from_nanos(self.inner.op_timeout.load(Ordering::Relaxed));
        self.wait_for(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::{ConfigId, Configuration};

    /// A store whose servers never start: its operations stay in flight
    /// until their tickets go.
    fn store() -> NetStore {
        let servers = (1..=3).map(ProcessId).collect();
        let registry = ConfigRegistry::from_configs([Configuration::abd(ConfigId(0), servers)]);
        let (config, book) = (ClientConfig::new(ConfigId(0)), Arc::new(AddrBook::new()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        NetStore::serve(ProcessId(100), registry, config, book, listener, Instant::now()).unwrap()
    }

    #[test]
    fn the_book_reads_the_simulators_model_in_place() {
        let pids = [1, 2, 3, 100].map(ProcessId);
        let book = AddrBook::from_entries(pids.map(|p| (p, "127.0.0.1:9".parse().unwrap())));
        let mut model = NetworkConfig::constant(1);
        let (p1, p2, p3, client) = (pids[0], pids[1], pids[2], pids[3]);
        // Each action, and what gray server 3 pays per frame after it.
        let steps = [
            (FaultAction::Partition { groups: vec![vec![p1, p2], vec![p3, client]] }, 0),
            (FaultAction::CutLink { from: p2, to: p1 }, 0),
            (FaultAction::Grayify { pid: p3, factor: 40 }, 2_000),
            (FaultAction::HealAll, 2_000),
            (FaultAction::Ungray { pid: p3 }, 0),
        ];
        for (action, gray) in &steps {
            book.apply(action);
            model.apply(action);
            for (a, b) in pids.iter().flat_map(|&a| pids.map(|b| (a, b))) {
                assert_eq!(book.is_cut(a, b), model.is_blocked(a, b), "{action}: {a} → {b}");
            }
            for p in pids {
                assert_eq!(book.gray_micros(p), if p == p3 { *gray } else { 0 }, "{action}");
            }
        }
        assert!(!book.faulty.load(Ordering::SeqCst), "healed: a frame pays one load again");
    }

    /// The number of entries in `store`'s completion table.
    fn entries(store: &NetStore) -> usize {
        crate::sync::lock(&store.inner.completions.table).slots.len()
    }

    /// Routes a completion for `op` as the shard loop's sink does.
    fn complete(store: &NetStore, op: OpId) {
        store.inner.completions.route(OpCompletion::new(op, ares_types::OpKind::Read, 0, 0));
    }

    fn read(store: &NetStore) -> NetTicket {
        store.open_session().submit(ClientCmd::Read { obj: ObjectId(0) }).unwrap()
    }

    #[test]
    fn a_dropped_ticket_and_a_closed_store_leave_no_route() {
        let store = store();
        let ticket = read(&store);
        assert_eq!(entries(&store), 1);
        drop(ticket);
        assert_eq!(entries(&store), 0, "an unwaited ticket withdraws its route");
        store.shutdown();
        let submitted = store.open_session().submit(ClientCmd::Read { obj: ObjectId(0) });
        assert!(matches!(submitted, Err(OpError::Closed)), "{submitted:?}");
        assert_eq!(entries(&store), 0, "a failed submit withdraws its route");
    }

    #[test]
    fn a_closed_store_fails_its_waiting_tickets_at_once() {
        let store = store();
        let (waited, routed) = (read(&store), read(&store));
        complete(&store, routed.op());
        store.shutdown();
        let start = Instant::now();
        let got = waited.wait_for(Duration::from_secs(5));
        assert!(matches!(got, Err(OpError::Closed)), "{got:?}");
        assert!(start.elapsed() < Duration::from_secs(1), "no completion can arrive: no wait");
        assert!(routed.wait_for(Duration::ZERO).is_ok(), "a completion routed before stays");
        assert_eq!(entries(&store), 0);
    }

    #[test]
    fn a_completion_whose_ticket_went_still_counts_and_wakes_progress() {
        let store = store();
        let (dropped, timed_out) = (read(&store), read(&store));
        let ops = [dropped.op(), timed_out.op()];
        drop(dropped);
        let got = timed_out.wait_for(Duration::from_millis(1));
        assert!(matches!(got, Err(OpError::Timeout { op }) if op == ops[1]), "{got:?}");
        for (seen, op) in (0..).zip(ops) {
            let progress = std::thread::scope(|s| {
                let waiter = s.spawn(|| store.wait_progress(seen, Duration::from_secs(10)));
                let deadline = Instant::now() + Duration::from_secs(10);
                while store.inner.completions.changed.parked() == 0 {
                    assert!(Instant::now() < deadline, "the waiter never parked");
                    std::thread::yield_now();
                }
                complete(&store, op);
                waiter.join().unwrap()
            });
            assert_eq!(progress, seen + 1, "the completion of {op} counts");
            assert_eq!(store.completions_routed(), seen + 1);
            assert_eq!(entries(&store), 0, "the completion of {op} leaves no entry");
        }
    }

    /// Runs `wait` on a thread of its own, and `then` once it has parked
    /// on `store`'s completion table; returns what `wait` returned.
    fn once_parked<R: Send>(
        store: &NetStore,
        wait: impl FnOnce() -> R + Send,
        then: impl FnOnce(),
    ) -> R {
        std::thread::scope(|s| {
            let waiter = s.spawn(wait);
            let deadline = Instant::now() + Duration::from_secs(10);
            while store.inner.completions.changed.parked() == 0 {
                assert!(Instant::now() < deadline, "the waiter never parked");
                std::thread::yield_now();
            }
            then();
            waiter.join().unwrap()
        })
    }

    #[test]
    fn a_wait_for_without_a_deadline_returns_the_routed_completion() {
        let store = store();
        let ticket = read(&store);
        let op = ticket.op();
        let got = once_parked(&store, || ticket.wait_for(Duration::MAX), || complete(&store, op));
        assert!(matches!(&got, Ok(c) if c.op == op), "{got:?}");
    }

    #[test]
    fn a_wait_for_without_a_deadline_ends_at_the_shutdown() {
        let store = store();
        let ticket = read(&store);
        let got = once_parked(&store, || ticket.wait_for(Duration::MAX), || store.shutdown());
        assert!(matches!(got, Err(OpError::Closed)), "{got:?}");
    }

    #[test]
    fn a_wait_for_progress_without_a_deadline_returns_at_the_next_completion() {
        let store = store();
        let op = read(&store).op();
        let got =
            once_parked(&store, || store.wait_progress(0, Duration::MAX), || complete(&store, op));
        assert_eq!(got, 1, "progress returns once a completion is routed");
    }

    #[test]
    fn a_routed_completion_is_returned_once() {
        let store = store();
        let mut ticket = read(&store);
        assert!(ticket.try_wait().is_none(), "nothing routed yet");
        complete(&store, ticket.op());
        assert!(matches!(ticket.try_wait(), Some(Ok(c)) if c.op == ticket.op()));
        assert_eq!(entries(&store), 0, "a take removes the entry");
        assert!(ticket.try_wait().is_none(), "returned once");
        complete(&store, ticket.op());
        assert!(ticket.try_wait().is_none(), "a second completion finds no slot");
        assert_eq!(entries(&store), 0);
    }

    #[test]
    fn a_ticket_dropped_after_its_completion_arrived_leaves_no_entry() {
        let store = store();
        let ticket = read(&store);
        complete(&store, ticket.op());
        assert_eq!(entries(&store), 1, "the filled slot waits for its ticket");
        drop(ticket);
        assert_eq!(entries(&store), 0);
    }
}
