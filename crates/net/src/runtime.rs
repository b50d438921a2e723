//! Threaded TCP hosts for the ARES actors.
//!
//! The protocol engines in this workspace are pure state machines — the
//! simulator drives them with virtual events; this module drives the
//! *same* `ServerActor` / `ClientActor` types with real sockets, via the
//! sharded hosting layer of [`crate::host`]:
//!
//! * one **listener thread** accepts connections; each connection gets a
//!   **reader thread** that decodes length-prefixed frames
//!   ([`crate::codec`]) and routes `(from, Msg)` events to a shard;
//! * `S ≥ 1` **shard event-loop threads** each own one sequential actor
//!   instance. A [`ShardedNode`] partitions the server by object
//!   ([`ares_core::shard`]): per-object traffic executes on the shard
//!   owning that object, config-wide traffic (consensus, configuration
//!   service) serializes on shard 0 — so per-object and per-config
//!   execution stay exactly the paper's single-process server. Client
//!   hosts ([`NetStore`]) run a single shard;
//! * per-shard **timer threads** turn `timer_after` requests into
//!   deadline-based wakeups delivered back into the owning shard;
//! * outbound sends go through a **peer pool**: one writer thread per
//!   destination, connecting on demand, reconnecting after failures,
//!   and draining its queue in adaptively-batched writes (one flush per
//!   drained batch).
//!
//! Wall-clock time is reported to actors as microseconds since a shared
//! epoch ([`ares_types::Time`] is documented as abstract microseconds),
//! so completion records from different hosts of one deployment are
//! mutually comparable and feed the usual atomicity checker.
//!
//! Crash-stop faults are modelled at the host boundary: [`ShardedNode::pause`]
//! makes the node drop every delivered frame and pending timer (peers
//! see their connections close and must reconnect), and
//! [`ShardedNode::resume`] lets the retained state rejoin — the
//! semantics of `ares-sim`'s crash/recover schedule. A blank-state
//! restart composes with the fragment-repair protocol via
//! [`ShardedNode::replace_blank`].

use crate::codec;
use crate::host::{Admission, CompletionSink, NodeStats, ShardedHost};
use crate::wal::{recover_server, RecoveryReport, ShardWal, WalConfig};
use ares_core::store::{session_op_seq, Store, StoreSession};
use ares_core::{
    ClientActor, ClientCmd, ClientConfig, Invoke, Msg, OpError, OpTicket, ServerActor,
};
use ares_types::{ConfigRegistry, ObjectId, OpCompletion, OpId, ProcessId, SessionId, Time};
use ares_wal::{WalCounters, WalStats};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The environment pseudo-process used as the `from` of injected events
/// (mirrors `ares_harness::ENV`).
pub const ENV: ProcessId = ProcessId(0);

/// The default deadline of [`OpTicket::wait`] on a [`NetStore`] (see
/// [`NetStore::set_op_timeout`]); a test deployment that exceeds it has
/// a liveness failure.
pub const DEFAULT_OP_TIMEOUT: Duration = Duration::from_secs(60);

/// Maps process ids to socket addresses — the deployment's static view
/// of "who listens where" (the paper's known universe of processes).
#[derive(Debug, Clone, Default)]
pub struct AddrBook {
    map: HashMap<ProcessId, SocketAddr>,
}

impl AddrBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a book from `(pid, addr)` pairs.
    pub fn from_entries(entries: impl IntoIterator<Item = (ProcessId, SocketAddr)>) -> Self {
        AddrBook { map: entries.into_iter().collect() }
    }

    /// Registers (or replaces) a process address.
    pub fn insert(&mut self, pid: ProcessId, addr: SocketAddr) {
        self.map.insert(pid, addr);
    }

    /// The address of `pid`, if known.
    pub fn addr(&self, pid: ProcessId) -> Option<SocketAddr> {
        self.map.get(&pid).copied()
    }

    /// All registered processes.
    pub fn pids(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.map.keys().copied()
    }
}

/// The constant-zero router of single-sharded (client) hosts.
fn single_shard(_: &Msg, _: usize) -> usize {
    0
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
pub struct ShardedNode {
    host: ShardedHost<ServerActor>,
    registry: Arc<ConfigRegistry>,
    /// Present when the node was started with a data dir: everything a
    /// recovered restart needs to reopen the per-shard logs.
    durability: Option<Durability>,
}

/// A durable node's recovery anchor.
struct Durability {
    data_dir: PathBuf,
    config: WalConfig,
    /// One counter set per shard, handed to every reopen of that
    /// shard's log so WAL stats stay monotone across recoveries.
    counters: Vec<Arc<WalCounters>>,
}

/// The directory one shard's log lives in (each shard journals
/// independently — its deliveries are already a serialized stream).
fn shard_dir(data_dir: &Path, shard: usize) -> PathBuf {
    data_dir.join(format!("shard-{shard}"))
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
    /// [`ShardedNode::replace_recovered`].)
    ///
    /// # Errors
    ///
    /// Propagates socket errors from host bring-up and I/O errors from
    /// opening the logs.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[allow(clippy::too_many_arguments)]
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
        let mut durability = None;
        let actors: Vec<(ServerActor, Option<ShardWal<ServerActor>>)> = match durable {
            None => (0..shards).map(|_| (ServerActor::new(me, registry.clone()), None)).collect(),
            Some((data_dir, config)) => {
                let counters: Vec<Arc<WalCounters>> =
                    (0..shards).map(|_| Arc::new(WalCounters::default())).collect();
                let mut actors = Vec::with_capacity(shards);
                for (si, c) in counters.iter().enumerate() {
                    let (actor, wal, _report) = recover_server(
                        me,
                        registry.clone(),
                        &shard_dir(&data_dir, si),
                        &config,
                        c.clone(),
                    )?;
                    actors.push((actor, Some(wal)));
                }
                durability = Some(Durability { data_dir, config, counters });
                actors
            }
        };
        let admission = Admission {
            registry: registry.clone(),
            objects: objects.map(|o| o.iter().copied().collect()),
        };
        let host = ShardedHost::start(
            me,
            actors,
            ares_core::shard::shard_of,
            admission,
            book,
            listener,
            epoch,
            None,
        )?;
        Ok(ShardedNode { host, registry, durability })
    }

    /// This node's process id.
    pub fn pid(&self) -> ProcessId {
        self.host.pid
    }

    /// The listener address.
    pub fn local_addr(&self) -> SocketAddr {
        self.host.local_addr
    }

    /// Number of shards this node runs.
    pub fn shard_count(&self) -> usize {
        self.host.shard_count()
    }

    /// Snapshot of the node's runtime counters: per-shard routing/apply
    /// counts and inbox high-water marks, the outbound writer's
    /// batch/flush/eviction totals, and — on a durable node — the WAL
    /// counters summed over all shards (monotone across recoveries).
    pub fn stats(&self) -> NodeStats {
        let mut stats = self.host.stats();
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
    /// message's object lives on.
    pub fn inject(&self, from: ProcessId, msg: Msg) {
        self.host.inject(from, msg);
    }

    /// Crash-stops the node: every received frame and pending timer is
    /// dropped on every shard, and inbound connections are severed,
    /// until [`ShardedNode::resume`]. State is retained (crash with
    /// stable storage).
    pub fn pause(&self) {
        self.host.pause();
    }

    /// Ends a [`ShardedNode::pause`] window; the retained state rejoins.
    pub fn resume(&self) {
        self.host.resume();
    }

    /// This node's fault-injection switchboard (link cuts, gray slow-
    /// downs); `testing::LocalCluster` drives it via `apply_fault`.
    pub(crate) fn faults(&self) -> Arc<crate::faults::FaultControls> {
        self.host.faults().clone()
    }

    /// Replaces the hosted server state with a blank restart (a crash
    /// that lost its disk): every shard gets a fresh blank
    /// [`ServerActor`]. Combine with a `RepairMsg::Trigger` injection
    /// to rebuild coded elements from live peers. (The pre-shard
    /// runtime took an actor argument here; with S shards a single
    /// caller-built actor cannot represent a node's state, and the only
    /// restart the crash model needs is the blank one.)
    pub fn replace_blank(&self) {
        let actors = (0..self.host.shard_count())
            .map(|_| ServerActor::new(self.host.pid, self.registry.clone()))
            .collect();
        self.host.replace_all(actors);
    }

    /// Replaces the hosted server state with what the per-shard logs
    /// recover from the data dir — the recovered-restart path of a
    /// durable node. Each shard's checkpoint is loaded, its journal
    /// tail replayed, and the reopened log swapped in alongside the
    /// rebuilt actor, so journaling continues seamlessly. Combine with
    /// [`ShardedNode::resume`] and `RepairMsg::Trigger` injections to
    /// fetch the **delta** written while the node was down (recovery
    /// restores everything journaled locally; repair fills only the
    /// rest — this is what makes recovery cheaper than a blank restart
    /// repairing from zero).
    ///
    /// Call this only while the node is paused and quiesced (its event
    /// loops drain deliveries queued before the pause *through the
    /// journal*, and the logs must not be read mid-append).
    ///
    /// Returns one [`RecoveryReport`] per shard.
    ///
    /// # Errors
    ///
    /// Fails if the node was started without a data dir, or on I/O
    /// errors reopening the logs.
    pub fn replace_recovered(&self) -> io::Result<Vec<RecoveryReport>> {
        let d = self
            .durability
            .as_ref()
            .ok_or_else(|| io::Error::other("node was started without a data dir"))?;
        let mut pairs = Vec::with_capacity(self.host.shard_count());
        let mut reports = Vec::with_capacity(self.host.shard_count());
        for (si, c) in d.counters.iter().enumerate() {
            let (actor, wal, report) = recover_server(
                self.host.pid,
                self.registry.clone(),
                &shard_dir(&d.data_dir, si),
                &d.config,
                c.clone(),
            )?;
            pairs.push((actor, Some(wal)));
            reports.push(report);
        }
        self.host.replace_all_with(pairs);
        Ok(reports)
    }

    /// Stops all threads and closes the listener.
    pub fn shutdown(self) {
        self.host.shutdown();
    }
}

// ---------------------------------------------------------------------
// The session-multiplexed client store
// ---------------------------------------------------------------------

/// Routing state shared between the event-loop completion sink and the
/// store frontend.
struct RouteShared {
    /// In-flight operations → the ticket cell awaiting each completion.
    router: Mutex<HashMap<OpId, Arc<TicketCell>>>,
    /// Completions routed so far (progress counter) + its condvar, so a
    /// driver with many outstanding tickets sleeps on one signal instead
    /// of polling every ticket.
    progress: Mutex<u64>,
    progress_cv: Condvar,
}

impl RouteShared {
    fn new() -> Arc<Self> {
        Arc::new(RouteShared {
            router: Mutex::new(HashMap::new()),
            progress: Mutex::new(0),
            progress_cv: Condvar::new(),
        })
    }

    /// The event-loop side: route `c` to its ticket (if still claimed)
    /// and bump the progress counter.
    fn route(&self, c: OpCompletion) {
        let cell = crate::sync::lock(&self.router).remove(&c.op);
        if let Some(cell) = cell {
            *crate::sync::lock(&cell.slot) = Some(c);
            cell.cv.notify_all();
        }
        // A timed-out (withdrawn) ticket's completion still counts as
        // progress: the session it unblocks may now start its next op.
        let mut n = crate::sync::lock(&self.progress);
        *n += 1;
        self.progress_cv.notify_all();
    }
}

struct TicketCell {
    slot: Mutex<Option<OpCompletion>>,
    cv: Condvar,
}

impl TicketCell {
    fn new() -> Arc<Self> {
        Arc::new(TicketCell { slot: Mutex::new(None), cv: Condvar::new() })
    }
}

struct StoreInner {
    pid: ProcessId,
    epoch: Instant,
    /// `None` once shut down; submissions then fail with
    /// [`OpError::Closed`].
    host: Mutex<Option<ShardedHost<ClientActor>>>,
    shared: Arc<RouteShared>,
    next_session: AtomicU32,
    op_timeout: Mutex<Duration>,
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
        let shared = RouteShared::new();
        let sink: CompletionSink = {
            let shared = shared.clone();
            Box::new(move |c| shared.route(c))
        };
        // Client hosts are single-sharded: one multiplexer actor, one
        // loop — the session lanes and completion routing live inside
        // the actor, which core-parallelizes by adding *stores*, not
        // shards.
        let host = ShardedHost::start(
            me,
            vec![(actor, None)],
            single_shard,
            admission,
            book,
            listener,
            epoch,
            Some(sink),
        )?;
        Ok(NetStore {
            inner: Arc::new(StoreInner {
                pid: me,
                epoch,
                host: Mutex::new(Some(host)),
                shared,
                next_session: AtomicU32::new(0),
                op_timeout: Mutex::new(DEFAULT_OP_TIMEOUT),
            }),
        })
    }

    /// This store's host process id.
    pub fn pid(&self) -> ProcessId {
        self.inner.pid
    }

    /// Sets the default deadline [`OpTicket::wait`] applies.
    pub fn set_op_timeout(&self, timeout: Duration) {
        *crate::sync::lock(&self.inner.op_timeout) = timeout;
    }

    /// Microseconds since this deployment's timestamp epoch — the clock
    /// [`OpCompletion`] records are stamped with, so frontends can put
    /// their own marks (e.g. open-loop arrival times) on the same axis.
    pub fn now_micros(&self) -> Time {
        self.inner.epoch.elapsed().as_micros() as Time
    }

    /// Number of completions routed so far (progress counter).
    pub fn completions_routed(&self) -> u64 {
        *crate::sync::lock(&self.inner.shared.progress)
    }

    /// This store's fault-injection switchboard; `None` once shut down.
    pub(crate) fn fault_controls(&self) -> Option<Arc<crate::faults::FaultControls>> {
        crate::sync::lock(&self.inner.host).as_ref().map(|h| h.faults().clone())
    }

    /// Blocks until the progress counter exceeds `seen` (returning the
    /// new value) or `timeout` passes (returning the current value).
    /// Closed-loop drivers sweep their tickets with
    /// [`OpTicket::try_wait`] after each wakeup.
    pub fn wait_progress(&self, seen: u64, timeout: Duration) -> u64 {
        let deadline = Instant::now() + timeout;
        let mut n = crate::sync::lock(&self.inner.shared.progress);
        while *n <= seen {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) =
                crate::sync::cv_wait_timeout(&self.inner.shared.progress_cv, n, deadline - now);
            n = guard;
        }
        *n
    }

    /// Stops all threads and closes the reply listener. Outstanding
    /// tickets time out; subsequent submissions fail with
    /// [`OpError::Closed`].
    pub fn shutdown(&self) {
        let host = crate::sync::lock(&self.inner.host).take();
        if let Some(h) = host {
            h.shutdown();
        }
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
        let cell = TicketCell::new();
        // Claim the route *before* injecting: the completion can never
        // arrive unrouted.
        crate::sync::lock(&self.inner.shared.router).insert(op, cell.clone());
        {
            let host = crate::sync::lock(&self.inner.host);
            let Some(h) = host.as_ref() else {
                crate::sync::lock(&self.inner.shared.router).remove(&op);
                return Err(OpError::Closed);
            };
            h.inject(ENV, Msg::Invoke(Invoke { session: self.id, seq, cmd }));
        }
        Ok(NetTicket { op, cell, inner: self.inner.clone() })
    }
}

/// Claim ticket for one operation submitted to a [`NetStore`].
pub struct NetTicket {
    op: OpId,
    cell: Arc<TicketCell>,
    inner: Arc<StoreInner>,
}

impl std::fmt::Debug for NetTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetTicket").field("op", &self.op).finish_non_exhaustive()
    }
}

impl NetTicket {
    /// Waits until `deadline`-ish (`timeout` from now) for the routed
    /// completion.
    ///
    /// On timeout the ticket withdraws its route, so the completion —
    /// should the operation still finish later — is dropped instead of
    /// leaking; the error poisons *only this ticket*. The operation's
    /// session stays dedicated to the stuck operation until the runtime
    /// completes it (per-session commands are strictly serial); callers
    /// needing fresh progress open a new session.
    ///
    /// # Errors
    ///
    /// [`OpError::Timeout`] if no completion is routed in time.
    pub fn wait_for(self, timeout: Duration) -> Result<OpCompletion, OpError> {
        let deadline = Instant::now() + timeout;
        let mut slot = crate::sync::lock(&self.cell.slot);
        loop {
            if let Some(c) = slot.take() {
                return Ok(c);
            }
            let now = Instant::now();
            if now >= deadline {
                drop(slot);
                // Withdraw the route; if the sink already claimed it the
                // fill is imminent — take it after all.
                let withdrawn =
                    crate::sync::lock(&self.inner.shared.router).remove(&self.op).is_some();
                if withdrawn {
                    return Err(OpError::Timeout { op: self.op });
                }
                slot = crate::sync::lock(&self.cell.slot);
                loop {
                    // Predicate first: Condvar can report timed_out even
                    // when the sink filled the slot during the wait, and
                    // an imminent fill must not be dropped.
                    if let Some(c) = slot.take() {
                        return Ok(c);
                    }
                    let (guard, t) =
                        crate::sync::cv_wait_timeout(&self.cell.cv, slot, Duration::from_secs(1));
                    slot = guard;
                    if t.timed_out() {
                        if let Some(c) = slot.take() {
                            return Ok(c);
                        }
                        return Err(OpError::Timeout { op: self.op });
                    }
                }
            }
            let (guard, _) = crate::sync::cv_wait_timeout(&self.cell.cv, slot, deadline - now);
            slot = guard;
        }
    }
}

impl OpTicket for NetTicket {
    fn op(&self) -> OpId {
        self.op
    }

    /// Non-blocking poll. Returns the completion at most once.
    fn try_wait(&mut self) -> Option<Result<OpCompletion, OpError>> {
        crate::sync::lock(&self.cell.slot).take().map(Ok)
    }

    fn wait(self) -> Result<OpCompletion, OpError> {
        let timeout = *crate::sync::lock(&self.inner.op_timeout);
        self.wait_for(timeout)
    }
}
