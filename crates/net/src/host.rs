//! The sharded actor-hosting layer: listeners, shard event loops,
//! timers, and the batching outbound writer pool.
//!
//! A host runs `S ≥ 1` **shards**, each an independent sequential event
//! loop owning one actor instance — the multi-core generalization of
//! the single event loop the paper's sequential server implies. One
//! listener accepts all connections; each connection's reader thread
//! decodes frames and routes every message to a shard with the
//! [`ares_core::shard`] classification (object-scoped traffic to the
//! shard owning that object, config-wide traffic to shard 0). Outbound
//! frames from all shards funnel into one per-peer writer pool whose
//! writer threads drain their queue in batches: one `write`+`flush`
//! pair per drained batch, not per frame — latency-neutral when idle
//! (an empty queue flushes immediately), syscall-collapsing under load.
//!
//! Clients ([`crate::NetStore`]) use the same machinery with `S = 1`:
//! their command lanes and completion routing assume one loop.

use crate::codec::{self, read_frame};
use crate::faults::FaultControls;
use crate::wal::ShardWal;
use ares_core::Msg;
use ares_sim::{Actor, Ctx, HostEffect};
use ares_types::{ConfigRegistry, ObjectId, OpCompletion, ProcessId, Time};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, BufReader, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Timer thread
// ---------------------------------------------------------------------

struct TimerState {
    heap: BinaryHeap<Reverse<(Instant, u64)>>,
    shutdown: bool,
}

pub(crate) struct Timers {
    state: Mutex<TimerState>,
    cv: Condvar,
}

impl Timers {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Timers {
            state: Mutex::new(TimerState { heap: BinaryHeap::new(), shutdown: false }),
            cv: Condvar::new(),
        })
    }

    fn arm(&self, deadline: Instant, token: u64) {
        crate::sync::lock(&self.state).heap.push(Reverse((deadline, token)));
        self.cv.notify_one();
    }

    fn clear(&self) {
        crate::sync::lock(&self.state).heap.clear();
    }

    fn shutdown(&self) {
        crate::sync::lock(&self.state).shutdown = true;
        self.cv.notify_one();
    }

    /// Runs until shutdown, delivering due tokens through `fire`.
    pub(crate) fn run(&self, fire: impl Fn(u64)) {
        let mut st = crate::sync::lock(&self.state);
        loop {
            if st.shutdown {
                return;
            }
            let now = Instant::now();
            match st.heap.peek().copied() {
                None => {
                    st = crate::sync::cv_wait(&self.cv, st);
                }
                Some(Reverse((deadline, token))) if deadline <= now => {
                    st.heap.pop();
                    drop(st);
                    fire(token);
                    st = crate::sync::lock(&self.state);
                }
                Some(Reverse((deadline, _))) => {
                    let (guard, _) = crate::sync::cv_wait_timeout(&self.cv, st, deadline - now);
                    st = guard;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Outbound peer pool
// ---------------------------------------------------------------------

/// Per-peer bound on queued outbound frames. A crashed or unreachable
/// peer must not accumulate frames (and the shared payload allocations
/// they pin) without limit while its writer retries: past this mark the
/// queue drops its *oldest* frame — loss to a dead peer is already in
/// the model (DESIGN §6: the asynchronous channels the protocols assume
/// tolerate message loss, and quorum logic never waits on a dead
/// destination), and the newest frames are the ones a recovering peer
/// can still act on. Evictions are counted and surface in
/// [`NodeStats::outbound_dropped`] — never silent.
pub(crate) const OUTBOUND_HIGH_WATER: usize = 1024;

/// A bounded MPSC frame queue with drop-oldest overflow semantics.
/// Frames are [`Bytes`] — the encoder's own buffer behind a refcount —
/// so a broadcast enqueues n refcounts of one encoded buffer, not n
/// copies.
pub(crate) struct FrameQueue {
    state: Mutex<FrameQueueState>,
    cv: Condvar,
}

struct FrameQueueState {
    queue: std::collections::VecDeque<Bytes>,
    closed: bool,
    dropped: u64,
    /// When the oldest queued frame was enqueued; `None` while empty.
    /// A growing age means the writer is stalled (dead or throttled
    /// peer) — surfaced per peer in [`PeerOutboundStats`].
    oldest_since: Option<Instant>,
}

impl FrameQueue {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(FrameQueue {
            state: Mutex::new(FrameQueueState {
                queue: std::collections::VecDeque::new(),
                closed: false,
                dropped: 0,
                oldest_since: None,
            }),
            cv: Condvar::new(),
        })
    }

    /// Enqueues a frame, evicting the oldest queued frame beyond the
    /// high-water mark. Never blocks the sending (event-loop) thread.
    pub(crate) fn push(&self, frame: Bytes) {
        let mut st = crate::sync::lock(&self.state);
        if st.closed {
            return;
        }
        if st.queue.len() >= OUTBOUND_HIGH_WATER {
            st.queue.pop_front();
            st.dropped += 1;
        }
        if st.queue.is_empty() {
            st.oldest_since = Some(Instant::now());
        }
        st.queue.push_back(frame);
        drop(st);
        self.cv.notify_one();
    }

    /// Blocks for the next frame(s), draining **everything queued** into
    /// `out` in one go; `false` once closed and drained. This is what
    /// the writer batches on: one flush per drained batch.
    pub(crate) fn pop_batch(&self, out: &mut Vec<Bytes>) -> bool {
        let mut st = crate::sync::lock(&self.state);
        loop {
            if !st.queue.is_empty() {
                out.extend(st.queue.drain(..));
                st.oldest_since = None;
                return true;
            }
            if st.closed {
                return false;
            }
            st = crate::sync::cv_wait(&self.cv, st);
        }
    }

    pub(crate) fn close(&self) {
        crate::sync::lock(&self.state).closed = true;
        self.cv.notify_all();
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        crate::sync::lock(&self.state).queue.len()
    }

    pub(crate) fn dropped(&self) -> u64 {
        crate::sync::lock(&self.state).dropped
    }

    /// `(queued frames, µs the oldest has waited)` — `(0, 0)` when the
    /// writer is keeping up.
    fn depth_and_stall(&self) -> (usize, u64) {
        let st = crate::sync::lock(&self.state);
        let stalled = st.oldest_since.map_or(0, |t| t.elapsed().as_micros() as u64);
        (st.queue.len(), stalled)
    }
}

/// Outbound-writer counters, shared by every writer thread of one pool.
#[derive(Default)]
pub(crate) struct WriterCounters {
    batches_flushed: AtomicU64,
    frames_sent: AtomicU64,
    frames_abandoned: AtomicU64,
}

pub(crate) struct PeerPool {
    book: Arc<crate::runtime::AddrBook>,
    queues: Mutex<HashMap<ProcessId, Arc<FrameQueue>>>,
    counters: Arc<WriterCounters>,
    faults: Arc<FaultControls>,
}

impl PeerPool {
    pub(crate) fn new(
        book: Arc<crate::runtime::AddrBook>,
        faults: Arc<FaultControls>,
    ) -> Arc<Self> {
        Arc::new(PeerPool {
            book,
            queues: Mutex::new(HashMap::new()),
            counters: Arc::new(WriterCounters::default()),
            faults,
        })
    }

    /// Enqueues an encoded frame for `to`, spawning its writer thread on
    /// first use. The pool lock is held only for the map lookup/insert —
    /// never across `thread::spawn` or the queue push — so one sender
    /// making first contact with a new peer cannot stall every
    /// concurrent sender behind the OS thread-creation latency.
    pub(crate) fn send(&self, to: ProcessId, frame: Bytes) {
        if self.faults.drop_outbound(to) {
            return; // injected link cut: the frame dies entering the wire
        }
        let Some(addr) = self.book.addr(to) else {
            return; // unknown destination: drop, like the simulator does
        };
        let (queue, spawn) = {
            let mut queues = crate::sync::lock(&self.queues);
            match queues.get(&to) {
                Some(q) => (q.clone(), false),
                None => {
                    let q = FrameQueue::new();
                    queues.insert(to, q.clone());
                    (q, true)
                }
            }
        };
        if spawn {
            let writer_queue = queue.clone();
            let counters = self.counters.clone();
            let faults = self.faults.clone();
            std::thread::spawn(move || writer_loop(addr, writer_queue, counters, faults));
        }
        queue.push(frame);
    }

    /// Per-peer outbound queue depth and stalled-writer age, sorted by
    /// peer id so the snapshot is stable across calls.
    pub(crate) fn peer_stats(&self) -> Vec<PeerOutboundStats> {
        let mut out: Vec<PeerOutboundStats> = crate::sync::lock(&self.queues)
            .iter()
            .map(|(pid, q)| {
                let (queue_depth, stalled_micros) = q.depth_and_stall();
                PeerOutboundStats { peer: *pid, queue_depth, stalled_micros, dropped: q.dropped() }
            })
            .collect();
        out.sort_by_key(|s| s.peer);
        out
    }

    /// `(batches_flushed, frames_sent, frames_abandoned, evictions)`.
    ///
    /// Loads `batches_flushed` *before* `frames_sent` (both `SeqCst`,
    /// matching the writer's frames-then-batches increment order), so a
    /// snapshot can never observe `frames_sent < batches_flushed` —
    /// every counted batch carried ≥ 1 frame.
    pub(crate) fn stats(&self) -> (u64, u64, u64, u64) {
        let dropped = crate::sync::lock(&self.queues).values().map(|q| q.dropped()).sum::<u64>();
        let batches = self.counters.batches_flushed.load(Ordering::SeqCst);
        let frames = self.counters.frames_sent.load(Ordering::SeqCst);
        (batches, frames, self.counters.frames_abandoned.load(Ordering::Relaxed), dropped)
    }

    #[cfg(test)]
    fn queue_len(&self, to: ProcessId) -> usize {
        crate::sync::lock(&self.queues).get(&to).map_or(0, |q| q.len())
    }

    #[cfg(test)]
    fn queue_dropped(&self, to: ProcessId) -> u64 {
        crate::sync::lock(&self.queues).get(&to).map_or(0, |q| q.dropped())
    }
}

impl Drop for PeerPool {
    fn drop(&mut self) {
        // Wake and retire every writer thread (they hold only their own
        // queue Arc, so closing is what ends them).
        for q in crate::sync::lock(&self.queues).values() {
            q.close();
        }
    }
}

/// Whether the peer has closed this connection (a FIN is pending): a
/// nonblocking one-byte peek returns `Ok(0)` exactly then. Without this
/// check, a frame written into a connection the peer tore down during a
/// crash window is buffered locally, "succeeds", and is silently lost —
/// violating the reliable-channel model for messages sent *after* the
/// peer recovered. (Peers never send data on inbound connections, so
/// `Ok(n > 0)` does not occur; replies travel over the peer's own
/// outbound pool.)
fn peer_closed(s: &TcpStream) -> bool {
    if s.set_nonblocking(true).is_err() {
        return true;
    }
    let dead = matches!(s.peek(&mut [0u8; 1]), Ok(0));
    dead | s.set_nonblocking(false).is_err()
}

/// A drained batch of at most this many bytes is coalesced into the
/// writer's scratch buffer and leaves in one `write(2)`; a larger one —
/// any batch holding a coded element of a bulk value — is written by
/// reference. That bounds the scratch buffer too.
const COALESCE_MAX: usize = 16 * 1024;

/// Writes every frame of `batch` to `w`, in order, and flushes once.
///
/// Small batches are copied into `scratch` (reused across batches, grown
/// on demand up to [`COALESCE_MAX`]) so they cost one write; large ones
/// go out with `write_vectored` straight from the shared frame buffers,
/// resuming after short writes.
fn write_batch(w: &mut impl Write, batch: &[Bytes], scratch: &mut Vec<u8>) -> io::Result<()> {
    if batch.iter().map(Bytes::len).sum::<usize>() <= COALESCE_MAX {
        scratch.clear();
        batch.iter().for_each(|f| scratch.extend_from_slice(f));
        w.write_all(scratch)?;
    } else {
        let mut slices: Vec<IoSlice<'_>> = batch.iter().map(|f| IoSlice::new(f)).collect();
        let mut left = slices.as_mut_slice();
        while !left.is_empty() {
            match w.write_vectored(left) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut left, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
    w.flush()
}

/// One outbound connection: drains the queue in batches, (re)connects
/// on demand, writes every frame of the batch, flushes **once**.
///
/// Batching is adaptive with no knobs: an idle connection's queue holds
/// one frame when the writer wakes, so that frame is written and
/// flushed immediately (latency-neutral); under load the queue grows
/// while the previous batch is in `write_all`, and the whole backlog
/// drains under a single flush (syscall-collapsing).
///
/// A batch that cannot be written after one reconnect attempt is
/// dropped (and counted) — the asynchronous-channel abstraction the
/// protocols assume tolerates loss to crashed peers, and quorum logic
/// never waits on a dead destination. A mid-batch failure retries the
/// *whole* batch on the fresh connection: the peer tore the old
/// connection down, so partially-delivered frames vanished with it, and
/// a duplicated frame is harmless (quorum phases are idempotent and
/// deduplicate by rpc/op id).
pub(crate) fn writer_loop(
    addr: SocketAddr,
    queue: Arc<FrameQueue>,
    counters: Arc<WriterCounters>,
    faults: Arc<FaultControls>,
) {
    let mut stream: Option<TcpStream> = None;
    let connect = |addr: SocketAddr| -> Option<TcpStream> {
        for backoff_ms in [0u64, 20, 100] {
            if backoff_ms > 0 {
                std::thread::sleep(Duration::from_millis(backoff_ms));
            }
            if let Ok(s) = TcpStream::connect(addr) {
                let _ = s.set_nodelay(true);
                return Some(s);
            }
        }
        None
    };
    // Peer-close detection is amortized off the hot path: a FIN racing
    // an active burst surfaces as a write error anyway (handled below);
    // the silent-loss window needs the connection to have been *idle*
    // across a crash window, so only the first batch after an idle gap
    // pays the peek syscalls.
    const IDLE_BEFORE_PEEK: Duration = Duration::from_millis(2);
    let mut last_write: Option<Instant> = None;
    let mut batch: Vec<Bytes> = Vec::new();
    let mut scratch = Vec::new();
    while queue.pop_batch(&mut batch) {
        // Gray-node throttle: a slowed host pays the injected latency
        // once per drained batch before it touches the socket, so its
        // traffic still flows — late, like a wheezing NIC, not never.
        let slow = faults.slow_micros();
        if slow > 0 {
            std::thread::sleep(Duration::from_micros(slow));
        }
        let mut sent = false;
        for _attempt in 0..2 {
            let idle = last_write.is_none_or(|t| t.elapsed() >= IDLE_BEFORE_PEEK);
            if idle && stream.as_ref().is_some_and(peer_closed) {
                // The peer hung up (e.g. a crash window severed us):
                // writing would buffer into a dead socket and lose the
                // batch without an error. Reconnect first.
                stream = None;
            }
            if stream.is_none() {
                stream = connect(addr);
            }
            let Some(s) = stream.as_mut() else { break };
            if write_batch(s, &batch, &mut scratch).is_ok() {
                last_write = Some(Instant::now());
                // Frames before batches, both SeqCst (and the snapshot
                // loads them in the opposite order): a concurrent
                // stats() must never observe frames_sent <
                // batches_flushed — every batch carries ≥ 1 frame, and
                // Relaxed increments of distinct atomics could be seen
                // reordered on weakly-ordered hardware.
                counters.frames_sent.fetch_add(batch.len() as u64, Ordering::SeqCst);
                counters.batches_flushed.fetch_add(1, Ordering::SeqCst);
                sent = true;
                break;
            }
            stream = None; // write failed: reconnect once, then give up
        }
        if !sent {
            counters.frames_abandoned.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        batch.clear();
    }
}

// ---------------------------------------------------------------------
// The generic sharded actor host
// ---------------------------------------------------------------------

/// How a host surfaces completed client operations to its frontend.
/// Called on the event-loop thread; implementations must be quick and
/// non-blocking (the store frontend routes by `OpId` into ticket cells).
pub(crate) type CompletionSink = Box<dyn Fn(OpCompletion) + Send + 'static>;

/// Maps a message to the shard index it must execute on (`shards` is
/// the host's shard count). Server hosts pass [`ares_core::shard::shard_of`];
/// single-sharded client hosts pass a constant-zero router.
pub(crate) type ShardRouter = fn(&Msg, usize) -> usize;

pub(crate) enum Event<A> {
    Deliver {
        from: ProcessId,
        msg: Msg,
        /// True for network-sourced events, which count against the
        /// inbound high-water mark (local loopback/injections do not).
        counted: bool,
    },
    Timer {
        token: u64,
    },
    Pause,
    Resume,
    /// Swap in a replacement actor, and with it the shard's journaling
    /// state: a blank restart carries `None` (its durability died with
    /// its disk), a recovered restart carries the reopened log.
    Replace(A, Option<ShardWal<A>>),
    Shutdown,
}

/// What the listener admits: used to drop traffic for fabricated ids
/// before it can create per-object or per-config actor state.
pub(crate) struct Admission {
    pub(crate) registry: Arc<ConfigRegistry>,
    /// When set, only these objects are served; `None` admits any
    /// object (a deployment with an open object universe).
    pub(crate) objects: Option<std::collections::HashSet<ObjectId>>,
}

impl Admission {
    fn admits(&self, msg: &Msg) -> bool {
        msg.configs().all(|c| self.registry.try_get(c).is_some())
            && match (&self.objects, msg.object()) {
                (Some(set), Some(obj)) => set.contains(&obj),
                _ => true,
            }
    }
}

/// Backpressure threshold for each shard's inbound event queue: reader
/// threads stall (propagating TCP backpressure to the peer) while this
/// many network events are waiting on one shard, so a fast or hostile
/// peer cannot grow the unbounded mpsc queue — and the decoded frames
/// it holds — without limit. Local events (timers, self-sends,
/// injections) bypass the gate; they are intrinsically bounded.
const INBOUND_HIGH_WATER: usize = 4096;

/// Live counters of one shard (atomics shared between the reader
/// threads, the shard's event loop, and [`ShardedHost::stats`]).
#[derive(Default)]
struct ShardCounters {
    frames_routed: AtomicU64,
    events_applied: AtomicU64,
    inbox_high_water: AtomicUsize,
}

/// Snapshot of one shard's counters (see [`NodeStats`]).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Network frames routed to this shard, counted as their delivery
    /// is applied (so `frames_routed ≤ events_applied` at every
    /// observation point; frames dropped in a crash window count
    /// nowhere).
    pub frames_routed: u64,
    /// Events (deliveries + timer fires) the shard's actor processed.
    pub events_applied: u64,
    /// Peak backlog of the shard's inbox (network events only).
    pub inbox_high_water: usize,
}

/// One peer's outbound health as seen from this host: how much is
/// queued toward it and how long the queue's oldest frame has waited.
/// A stalled age in the tens of milliseconds flags a dead, partitioned,
/// or gray peer long before protocol timeouts fire.
#[derive(Debug, Clone)]
pub struct PeerOutboundStats {
    /// The destination peer.
    pub peer: ProcessId,
    /// Frames currently queued toward the peer.
    pub queue_depth: usize,
    /// Microseconds the oldest queued frame has waited (0 = keeping up).
    pub stalled_micros: u64,
    /// Frames evicted from this peer's queue (drop-oldest policy).
    pub dropped: u64,
}

/// Snapshot of a node's runtime counters, from
/// [`crate::ShardedNode::stats`]. Cheap to take (atomic loads); numbers
/// are monotone since host start.
#[derive(Debug, Clone, Default)]
pub struct NodeStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Outbound batches flushed (one `flush` syscall path per batch).
    pub batches_flushed: u64,
    /// Outbound frames written inside those batches.
    pub frames_sent: u64,
    /// Frames dropped after a failed write + reconnect (dead peer).
    pub frames_abandoned: u64,
    /// Frames evicted from full outbound queues (drop-oldest policy).
    pub outbound_dropped: u64,
    /// Per-peer outbound queue depth / stalled-writer age, sorted by
    /// peer id.
    pub peers: Vec<PeerOutboundStats>,
    /// Frames dropped by injected link cuts (fault harness), both
    /// directions.
    pub faults_dropped: u64,
    /// Write-ahead-log counters summed over the node's shards; `None`
    /// when the node runs without durability (no data dir).
    pub wal: Option<ares_wal::WalStats>,
}

impl NodeStats {
    /// Total network frames routed across all shards.
    pub fn frames_routed(&self) -> u64 {
        self.shards.iter().map(|s| s.frames_routed).sum()
    }

    /// Total events applied across all shards.
    pub fn events_applied(&self) -> u64 {
        self.shards.iter().map(|s| s.events_applied).sum()
    }

    /// Mean frames coalesced per flush (1.0 = the unbatched baseline).
    pub fn frames_per_flush(&self) -> f64 {
        self.frames_sent as f64 / (self.batches_flushed.max(1)) as f64
    }
}

/// One shard's handles held by the host.
struct ShardHandle<A> {
    tx: Sender<Event<A>>,
    timers: Arc<Timers>,
    inbound: Arc<AtomicUsize>,
    counters: Arc<ShardCounters>,
}

/// Per-connection routing targets handed to each reader thread.
struct RouteTargets<A> {
    txs: Vec<Sender<Event<A>>>,
    inbounds: Vec<Arc<AtomicUsize>>,
    counters: Vec<Arc<ShardCounters>>,
    router: ShardRouter,
}

impl<A> Clone for RouteTargets<A> {
    fn clone(&self) -> Self {
        RouteTargets {
            txs: self.txs.clone(),
            inbounds: self.inbounds.clone(),
            counters: self.counters.clone(),
            router: self.router,
        }
    }
}

/// A sharded actor host: `S` event loops behind one listener and one
/// outbound pool. `S = 1` reproduces the seed's single-loop host
/// exactly (one inbox, every message to shard 0).
pub(crate) struct ShardedHost<A: Actor<Msg> + Send + 'static> {
    pub(crate) pid: ProcessId,
    pub(crate) local_addr: SocketAddr,
    shards: Vec<ShardHandle<A>>,
    router: ShardRouter,
    /// Shared with reader threads: while set, every received frame is
    /// dropped and its connection closed (crash window).
    paused: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    pool: Arc<PeerPool>,
    /// Injected-fault switchboard shared with the pool, writers and
    /// readers; reachable through [`Self::faults`] for the test harness.
    faults: Arc<FaultControls>,
    /// A clone of the listening socket, kept so shutdown can flip it
    /// nonblocking (belt to the throwaway-connection braces).
    listener: TcpListener,
    threads: Vec<JoinHandle<()>>,
    /// The accept thread is not joined: if its `accept()` cannot be
    /// unblocked (e.g. fd exhaustion defeats the wake-up connection),
    /// shutdown must still return; the thread exits with the process.
    _accept_thread: JoinHandle<()>,
}

impl<A: Actor<Msg> + Send + 'static> ShardedHost<A> {
    /// Starts a host with one shard per element of `actors`, routing
    /// messages between them with `router`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        pid: ProcessId,
        actors: Vec<(A, Option<ShardWal<A>>)>,
        router: ShardRouter,
        admission: Admission,
        book: Arc<crate::runtime::AddrBook>,
        listener: TcpListener,
        epoch: Instant,
        completions: Option<CompletionSink>,
    ) -> io::Result<Self> {
        assert!(!actors.is_empty(), "a host needs at least one shard");
        let local_addr = listener.local_addr()?;
        let listener_clone = listener.try_clone()?;
        let paused = Arc::new(AtomicBool::new(false));
        let shutdown = Arc::new(AtomicBool::new(false));
        let faults = FaultControls::new();
        let pool = PeerPool::new(book, faults.clone());
        let mut threads = Vec::new();

        // Build every shard's channel first so each event loop can be
        // handed the full tx set (cross-shard self-sends route through
        // it: a server forwarding a coded element to itself must land
        // on the *object's* shard, which may not be its own).
        let n = actors.len();
        let mut shards: Vec<ShardHandle<A>> = Vec::with_capacity(n);
        let mut rxs: Vec<Receiver<Event<A>>> = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel::<Event<A>>();
            shards.push(ShardHandle {
                tx,
                timers: Timers::new(),
                inbound: Arc::new(AtomicUsize::new(0)),
                counters: Arc::new(ShardCounters::default()),
            });
            rxs.push(rx);
        }
        let txs: Vec<Sender<Event<A>>> = shards.iter().map(|s| s.tx.clone()).collect();

        // One event loop + one timer thread per shard.
        let mut completions = completions;
        for (si, (((actor, wal), rx), shard)) in
            actors.into_iter().zip(rxs).zip(shards.iter()).enumerate()
        {
            let loopbacks = txs.clone();
            let pool = pool.clone();
            let timers = shard.timers.clone();
            let inbound = shard.inbound.clone();
            let counters = shard.counters.clone();
            // Completions only ever come from client actors, which are
            // single-sharded; hand the sink to shard 0.
            let sink = if si == 0 { completions.take() } else { None };
            threads.push(std::thread::spawn(move || {
                event_loop(
                    pid, si, actor, wal, rx, loopbacks, router, pool, timers, epoch, sink, inbound,
                    counters,
                );
            }));
            let tx = shard.tx.clone();
            let timers = shard.timers.clone();
            threads.push(std::thread::spawn(move || {
                timers.run(|token| {
                    let _ = tx.send(Event::Timer { token });
                });
            }));
        }

        // Listener.
        let targets = RouteTargets {
            txs,
            inbounds: shards.iter().map(|s| s.inbound.clone()).collect(),
            counters: shards.iter().map(|s| s.counters.clone()).collect(),
            router,
        };
        let accept_thread = {
            let paused = paused.clone();
            let shutdown = shutdown.clone();
            let faults = faults.clone();
            std::thread::spawn(move || {
                accept_loop(listener, Arc::new(admission), targets, paused, shutdown, faults);
            })
        };
        Ok(ShardedHost {
            pid,
            local_addr,
            shards,
            router,
            paused,
            shutdown,
            pool,
            faults,
            listener: listener_clone,
            threads,
            _accept_thread: accept_thread,
        })
    }

    /// Number of shards this host runs.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// This host's fault-injection switchboard.
    pub(crate) fn faults(&self) -> &Arc<FaultControls> {
        &self.faults
    }

    /// Injects a message as if delivered from `from`, routed like any
    /// other traffic (an environment repair trigger for object `o`
    /// lands on `o`'s shard).
    pub(crate) fn inject(&self, from: ProcessId, msg: Msg) {
        let si = (self.router)(&msg, self.shards.len());
        if let Some(shard) = self.shards.get(si) {
            let _ = shard.tx.send(Event::Deliver { from, msg, counted: false });
        }
    }

    pub(crate) fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
        for s in &self.shards {
            s.timers.clear();
            let _ = s.tx.send(Event::Pause);
        }
    }

    pub(crate) fn resume(&self) {
        for s in &self.shards {
            let _ = s.tx.send(Event::Resume);
        }
        self.paused.store(false, Ordering::SeqCst);
    }

    /// Replaces every shard's actor (a restart that lost its state —
    /// and, with it, any journaling: the replacement runs without a
    /// log); `actors` must supply one replacement per shard.
    pub(crate) fn replace_all(&self, actors: Vec<A>) {
        self.replace_all_with(actors.into_iter().map(|a| (a, None)).collect());
    }

    /// Replaces every shard's actor together with its journaling
    /// state — the recovered-restart path, where each shard gets the
    /// actor its log rebuilt plus the reopened log itself.
    pub(crate) fn replace_all_with(&self, actors: Vec<(A, Option<ShardWal<A>>)>) {
        assert_eq!(actors.len(), self.shards.len(), "one replacement actor per shard");
        for (s, (a, w)) in self.shards.iter().zip(actors) {
            let _ = s.tx.send(Event::Replace(a, w));
        }
    }

    /// Snapshot of the per-shard and outbound-writer counters.
    pub(crate) fn stats(&self) -> NodeStats {
        let (batches_flushed, frames_sent, frames_abandoned, outbound_dropped) = self.pool.stats();
        NodeStats {
            shards: self
                .shards
                .iter()
                .map(|s| {
                    // frames_routed loads before events_applied (both
                    // SeqCst, matching the event loop's events-then-
                    // routed increment order), so a snapshot can never
                    // observe frames_routed > events_applied.
                    let frames_routed = s.counters.frames_routed.load(Ordering::SeqCst);
                    ShardStats {
                        frames_routed,
                        events_applied: s.counters.events_applied.load(Ordering::SeqCst),
                        inbox_high_water: s.counters.inbox_high_water.load(Ordering::Relaxed),
                    }
                })
                .collect(),
            batches_flushed,
            frames_sent,
            frames_abandoned,
            outbound_dropped,
            peers: self.pool.peer_stats(),
            faults_dropped: self.faults.frames_cut(),
            // The host is actor-agnostic; the node runtime owns the
            // per-shard WAL counters and fills this in.
            wal: None,
        }
    }

    pub(crate) fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for s in &self.shards {
            s.timers.shutdown();
            let _ = s.tx.send(Event::Shutdown);
        }
        // Unblock the accept loop: flip the shared socket nonblocking
        // (future accepts return immediately) and poke it with a
        // throwaway connection (wakes an already-blocked accept). The
        // accept thread is deliberately not joined — see its field doc.
        let _ = self.listener.set_nonblocking(true);
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Accepts inbound connections and spawns a frame-reader per connection.
fn accept_loop<A: Actor<Msg> + Send + 'static>(
    listener: TcpListener,
    admission: Arc<Admission>,
    targets: RouteTargets<A>,
    paused: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    faults: Arc<FaultControls>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                let targets = targets.clone();
                let admission = admission.clone();
                let paused = paused.clone();
                let shutdown = shutdown.clone();
                let faults = faults.clone();
                // Reader threads are daemons: they exit on EOF, on any
                // read/decode error, and on pause/shutdown.
                std::thread::spawn(move || {
                    reader_loop(stream, admission, targets, paused, shutdown, faults);
                });
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept failures (e.g. fd exhaustion under a
                // connection flood) must not hot-spin a core.
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Decodes frames off one connection and routes them to shard inboxes.
///
/// Malformed input — a hostile length prefix, truncated frame, unknown
/// variant byte, or a message naming an unregistered configuration —
/// tears down *this connection only*; the node keeps serving everyone
/// else. Nothing on this path can panic the host.
fn reader_loop<A: Actor<Msg> + Send + 'static>(
    stream: TcpStream,
    admission: Arc<Admission>,
    targets: RouteTargets<A>,
    paused: Arc<AtomicBool>,
    shutdown: Arc<AtomicBool>,
    faults: Arc<FaultControls>,
) {
    let mut reader = BufReader::with_capacity(codec::FRAME_READ_BUF, stream);
    loop {
        match read_frame(&mut reader) {
            Ok(Some((from, msg))) => {
                if shutdown.load(Ordering::SeqCst) || paused.load(Ordering::SeqCst) {
                    return; // crash window: drop frame, sever connection
                }
                // Injected asymmetric cut: this host cannot *hear* the
                // peer, though the reverse direction may still flow. The
                // connection survives (a link fault is not a crash) and
                // heals instantly when the cut is lifted.
                if faults.drop_inbound(from) {
                    continue;
                }
                // Gray-node throttle, inbound side: a slowed host is
                // slow to *process* what it hears, one frame at a time.
                let slow = faults.slow_micros();
                if slow > 0 {
                    std::thread::sleep(Duration::from_micros(slow));
                }
                // Command/invoke frames are environment-injected, never
                // protocol traffic: a peer must not be able to drive a
                // host's client sessions over the network. The trusted
                // local path is `inject()`. The classification lives in
                // `Msg::network_admissible` (an exhaustive match, so a
                // future variant cannot default into admission the way
                // a `matches!` deny-list would allow).
                if !msg.network_admissible() {
                    continue;
                }
                // Network-facing dispatch guard: a stale or hostile
                // configuration id must not reach the actors, whose
                // internal registry lookups treat unknown ids as
                // protocol bugs (`try_get` makes the check total), and
                // a deployment with a declared object universe drops
                // traffic for fabricated objects before it can create
                // per-object state.
                if admission.admits(&msg) {
                    let si = (targets.router)(&msg, targets.txs.len());
                    // A router returning an out-of-range shard is a host
                    // misconfiguration; drop the frame rather than die.
                    let (Some(inbound), Some(shard_counters), Some(tx)) =
                        (targets.inbounds.get(si), targets.counters.get(si), targets.txs.get(si))
                    else {
                        continue;
                    };
                    // Backpressure: stall this connection (and, through
                    // TCP, its peer) while the shard's event queue is
                    // saturated instead of letting it grow without
                    // bound. Per-shard gates keep one slow shard from
                    // stalling traffic bound for the others — unless it
                    // shares a connection, which is TCP's own
                    // head-of-line constraint.
                    while inbound.load(Ordering::SeqCst) >= INBOUND_HIGH_WATER {
                        if shutdown.load(Ordering::SeqCst) || paused.load(Ordering::SeqCst) {
                            return;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let backlog = inbound.fetch_add(1, Ordering::SeqCst) + 1;
                    shard_counters.inbox_high_water.fetch_max(backlog, Ordering::Relaxed);
                    // frames_routed is counted by the shard as it
                    // *applies* the delivery, not here: a snapshot must
                    // never observe a routed frame that has not yet
                    // been applied (events_applied ≥ frames_routed is
                    // an invariant tests rely on).
                    if tx.send(Event::Deliver { from, msg, counted: true }).is_err() {
                        inbound.fetch_sub(1, Ordering::SeqCst);
                        return;
                    }
                }
            }
            Ok(None) | Err(_) => return,
        }
    }
}

/// One shard's sequential actor driver: applies events in arrival order
/// and maps the drained [`HostEffect`]s onto sockets, timers and the
/// completion log.
///
/// When the shard carries a [`ShardWal`], every delivery is journaled
/// **before** it is applied (write-ahead), and the pending group-commit
/// batch is fsynced as the loop goes idle — so under batched fsync the
/// durability lag is bounded by the busy burst, not by wall clock.
#[allow(clippy::too_many_arguments)]
fn event_loop<A: Actor<Msg> + Send + 'static>(
    pid: ProcessId,
    shard: usize,
    mut actor: A,
    mut wal: Option<ShardWal<A>>,
    rx: Receiver<Event<A>>,
    loopbacks: Vec<Sender<Event<A>>>,
    router: ShardRouter,
    pool: Arc<PeerPool>,
    timers: Arc<Timers>,
    epoch: Instant,
    completions: Option<CompletionSink>,
    inbound: Arc<AtomicUsize>,
    counters: Arc<ShardCounters>,
) {
    let mut rng = StdRng::seed_from_u64(pid.0 as u64 ^ 0xA1E5_0000 ^ ((shard as u64) << 40));
    let mut paused = false;
    loop {
        let ev = match rx.try_recv() {
            Ok(ev) => ev,
            Err(TryRecvError::Empty) => {
                // Going idle: flush the journal's group-commit batch
                // before parking, so batched fsync never leaves
                // acknowledged records unsynced across an idle gap.
                if let Some(w) = wal.as_mut() {
                    w.idle_sync();
                }
                // lint: allow(loop-blocking, reason = "the loop's own park point: blocking here means the shard is idle, not stalled mid-event")
                match rx.recv() {
                    Ok(ev) => ev,
                    Err(_) => return,
                }
            }
            Err(TryRecvError::Disconnected) => return,
        };
        match ev {
            Event::Shutdown => return,
            Event::Pause => paused = true,
            Event::Resume => paused = false,
            Event::Replace(a, w) => {
                actor = a;
                wal = w;
            }
            Event::Deliver { from, msg, counted } => {
                if counted {
                    inbound.fetch_sub(1, Ordering::SeqCst);
                }
                if paused {
                    continue;
                }
                // Write-ahead: journal the delivery against the
                // pre-application actor state (a due checkpoint then
                // excludes `msg`, and the appended record re-applies
                // it on replay).
                if let Some(w) = wal.as_mut() {
                    w.journal(from, &msg, &actor);
                }
                counters.events_applied.fetch_add(1, Ordering::SeqCst);
                if counted {
                    // Counted at apply time (see the reader), events
                    // before routed, both SeqCst (the snapshot loads
                    // them in the opposite order): events_applied ≥
                    // frames_routed holds at every observation point
                    // on any hardware; frames dropped in a crash
                    // window are routed nowhere.
                    counters.frames_routed.fetch_add(1, Ordering::SeqCst);
                }
                let now: Time = epoch.elapsed().as_micros() as Time;
                let mut ctx = Ctx::detached(pid, now, &mut rng);
                actor.on_message(from, msg, &mut ctx);
                let effects = ctx.take_effects();
                apply(pid, effects, &loopbacks, router, &pool, &timers, &completions);
            }
            Event::Timer { token } => {
                if paused {
                    continue;
                }
                counters.events_applied.fetch_add(1, Ordering::SeqCst);
                let now: Time = epoch.elapsed().as_micros() as Time;
                let mut ctx = Ctx::detached(pid, now, &mut rng);
                actor.on_timer(token, &mut ctx);
                let effects = ctx.take_effects();
                apply(pid, effects, &loopbacks, router, &pool, &timers, &completions);
            }
        }
    }
}

fn apply<A>(
    pid: ProcessId,
    effects: Vec<HostEffect<Msg>>,
    loopbacks: &[Sender<Event<A>>],
    router: ShardRouter,
    pool: &PeerPool,
    timers: &Timers,
    completions: &Option<CompletionSink>,
) {
    // Encode-once/send-many: a quorum broadcast arrives here as a run of
    // `Send` effects whose messages are clones sharing one payload
    // allocation (equality between them short-circuits on the shared
    // `Bytes`), so one wire encode serves every destination — the frame
    // buffer moves into a `Bytes` (no copy) that the per-peer queues
    // refcount.
    let mut last_frame: Option<(Msg, Bytes)> = None;
    for eff in effects {
        match eff {
            HostEffect::Send { to, msg } => {
                if to == pid {
                    // Self-sends (e.g. a server forwarding a coded
                    // element to itself) short-circuit the socket —
                    // routed like network traffic, because the object's
                    // shard may not be the sending shard.
                    let si = router(&msg, loopbacks.len());
                    if let Some(tx) = loopbacks.get(si) {
                        let _ = tx.send(Event::Deliver { from: pid, msg, counted: false });
                    }
                    continue;
                }
                let frame = match &last_frame {
                    Some((m, f)) if *m == msg => f.clone(),
                    _ => match codec::try_encode_frame(pid, &msg) {
                        Ok(f) => {
                            let f = Bytes::from(f);
                            last_frame = Some((msg, f.clone()));
                            f
                        }
                        // An over-limit frame (e.g. a TreasList reply
                        // whose δ+1 coded elements together exceed
                        // MAX_FRAME_LEN) is dropped: every receiver
                        // would reject it anyway, and a long-running
                        // host must not die over one reply. Quorum
                        // logic treats it as a lost message.
                        Err(_) => continue,
                    },
                };
                pool.send(to, frame);
            }
            HostEffect::SetTimer { delay, token } => {
                timers.arm(Instant::now() + Duration::from_micros(delay), token);
            }
            HostEffect::Complete(c) => {
                if let Some(sink) = completions {
                    sink(c);
                }
            }
            HostEffect::Note(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::AddrBook;
    use ares_core::shard::shard_of;
    use ares_core::ServerActor;
    use ares_dap::{DapBody, DapMsg, Hdr};
    use ares_types::{ConfigId, OpId, RpcId, Tag, Value};
    use std::io::Read;

    fn write_msg(value: Value) -> Msg {
        Msg::Dap(DapMsg::new(
            Hdr {
                cfg: ConfigId(0),
                obj: ObjectId(0),
                rpc: RpcId(1),
                op: OpId { client: ProcessId(9), seq: 0 },
            },
            DapBody::AbdWrite(Tag::new(1, ProcessId(9)), value),
        ))
    }

    fn frame_of(i: u32) -> Bytes {
        Bytes::from(i.to_be_bytes().to_vec())
    }

    #[test]
    fn frame_queue_drops_oldest_beyond_high_water() {
        let q = FrameQueue::new();
        for i in 0..(OUTBOUND_HIGH_WATER as u32 + 5) {
            q.push(frame_of(i));
        }
        assert_eq!(q.len(), OUTBOUND_HIGH_WATER, "queue is bounded");
        assert_eq!(q.dropped(), 5, "excess frames dropped");
        // Drop-oldest: the first frame still queued is frame 5.
        let mut batch = Vec::new();
        assert!(q.pop_batch(&mut batch));
        assert_eq!(batch.len(), OUTBOUND_HIGH_WATER, "one drain takes the whole backlog");
        assert_eq!(batch[0].as_ref(), &5u32.to_be_bytes());
        q.close();
        // Closed queues drain what they hold, then end.
        batch.clear();
        assert!(!q.pop_batch(&mut batch));
        q.push(frame_of(0)); // push-after-close is a no-op
        assert!(!q.pop_batch(&mut batch));
        assert!(batch.is_empty());
    }

    #[test]
    fn burst_of_frames_flushes_once() {
        // The writer-batching regression gate: B frames queued before
        // the writer runs must drain under ONE flush, not B write+flush
        // pairs (the seed flushed per frame).
        const B: usize = 256;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let drain = std::thread::spawn(move || -> usize {
            let (mut s, _) = listener.accept().unwrap();
            let mut total = 0;
            let mut buf = [0u8; 4096];
            loop {
                match s.read(&mut buf) {
                    Ok(0) | Err(_) => return total,
                    Ok(n) => total += n,
                }
            }
        });
        let q = FrameQueue::new();
        for i in 0..B as u32 {
            q.push(frame_of(i));
        }
        q.close();
        let counters = Arc::new(WriterCounters::default());
        writer_loop(addr, q, counters.clone(), FaultControls::new()); // runs to completion: queue closed
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), B as u64);
        assert_eq!(
            counters.batches_flushed.load(Ordering::Relaxed),
            1,
            "a ready backlog of {B} frames must coalesce into one flushed batch"
        );
        assert_eq!(counters.frames_abandoned.load(Ordering::Relaxed), 0);
        assert_eq!(drain.join().unwrap(), B * 4, "every frame byte arrived");
    }

    /// A sink that accepts 1–7,000 bytes per call, across slice
    /// boundaries when offered several, and counts flushes.
    #[derive(Default)]
    struct Choppy {
        got: Vec<u8>,
        calls: usize,
        flushes: usize,
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let accept = 1 + self.calls * 2_654_435_761 % 7_000;
            let before = self.got.len();
            for b in bufs {
                let room = accept - (self.got.len() - before);
                self.got.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.got.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_batch_arrives_byte_identical_through_short_writes() {
        let frame = |len: usize, seed: u64| Value::filler(len, seed).bytes().clone();
        let mixed =
            vec![frame(100, 1), frame(50_000, 2), frame(9, 3), frame(66_000, 4), frame(1, 5)];
        let small = vec![frame(100, 6), frame(9_000, 7), frame(7_000, 8)];
        let mut scratch = Vec::new();
        for batch in [mixed, small, vec![frame(1 << 20, 9)], vec![frame(40, 10)]] {
            let mut sink = Choppy::default();
            write_batch(&mut sink, &batch, &mut scratch).unwrap();
            assert_eq!(sink.got, batch.concat(), "batch of {} frames", batch.len());
            assert_eq!(sink.flushes, 1, "one flush per drained batch");
            assert!(scratch.capacity() <= 2 * COALESCE_MAX, "a large batch bypasses the scratch");
        }
    }

    #[test]
    fn a_batch_cut_mid_write_is_retried_whole_on_a_fresh_connection() {
        // 24 MiB cannot sit in loopback socket buffers: the first
        // connection is torn down with most of the batch unwritten, and
        // the writer must deliver all of it, from the top, on a second.
        let batch: Vec<Bytes> =
            (0..24).map(|i| Value::filler(1 << 20, i).bytes().clone()).collect();
        let expected = batch.concat();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || -> Vec<u8> {
            let (mut first, _) = listener.accept().unwrap();
            first.read_exact(&mut [0u8; 1000]).unwrap();
            drop(first); // unread data pending: the writer sees a reset
            let (mut second, _) = listener.accept().unwrap();
            let mut got = Vec::new();
            second.read_to_end(&mut got).unwrap();
            got
        });
        let q = FrameQueue::new();
        batch.into_iter().for_each(|f| q.push(f));
        q.close();
        let counters = Arc::new(WriterCounters::default());
        writer_loop(addr, q, counters.clone(), FaultControls::new());
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 24);
        assert_eq!(counters.batches_flushed.load(Ordering::Relaxed), 1);
        assert_eq!(counters.frames_abandoned.load(Ordering::Relaxed), 0);
        assert!(peer.join().unwrap() == expected, "the retry resent the whole batch");
    }

    #[test]
    fn idle_frames_flush_immediately_per_frame() {
        // Latency neutrality: with the queue never holding more than one
        // frame (an idle connection), every frame is its own batch.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let drain = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            while s.read(&mut buf).map(|n| n > 0).unwrap_or(false) {}
        });
        let q = FrameQueue::new();
        let counters = Arc::new(WriterCounters::default());
        let writer = {
            let q = q.clone();
            let counters = counters.clone();
            std::thread::spawn(move || writer_loop(addr, q, counters, FaultControls::new()))
        };
        for i in 0..5u32 {
            q.push(frame_of(i));
            // Wait until the writer drained and flushed this frame
            // before offering the next: each must be its own batch.
            let deadline = Instant::now() + Duration::from_secs(10);
            while counters.frames_sent.load(Ordering::Relaxed) < (i + 1) as u64 {
                assert!(Instant::now() < deadline, "writer stalled");
                std::thread::yield_now();
            }
        }
        q.close();
        writer.join().unwrap();
        assert_eq!(counters.frames_sent.load(Ordering::Relaxed), 5);
        assert_eq!(
            counters.batches_flushed.load(Ordering::Relaxed),
            5,
            "an idle connection flushes every frame immediately"
        );
        drain.join().unwrap();
    }

    #[test]
    fn dead_peer_queue_stays_bounded_and_evictions_surface_in_stats() {
        // A book entry pointing at a port nothing listens on: the writer
        // thread burns reconnect backoffs while the event loop keeps
        // sending. The per-peer queue must never exceed the high-water
        // mark no matter how fast frames arrive — and the evictions must
        // show up in the pool's stats, not vanish silently.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
            // listener dropped: connections now refused
        };
        let book = Arc::new(AddrBook::from_entries([(ProcessId(2), dead)]));
        let pool = PeerPool::new(book, FaultControls::new());
        let frame = Bytes::from(vec![0u8; 64]);
        for _ in 0..(3 * OUTBOUND_HIGH_WATER) {
            pool.send(ProcessId(2), frame.clone());
        }
        assert!(
            pool.queue_len(ProcessId(2)) <= OUTBOUND_HIGH_WATER,
            "unreachable peer must not accumulate frames past the high-water mark"
        );
        assert!(pool.queue_dropped(ProcessId(2)) > 0, "overflow drops, not growth");
        let (_, _, _, evicted) = pool.stats();
        assert!(evicted > 0, "drop-oldest evictions must surface in the stats snapshot");
    }

    #[test]
    fn quorum_broadcast_encodes_exactly_once() {
        // Five Send effects carrying clones of one 1 MiB write (what a
        // DapCall broadcast emits) must serialize once: the per-peer
        // queues then share the single encoded frame by refcount.
        let me = ProcessId(9);
        let value = Value::filler(1 << 20, 7);
        let effects: Vec<HostEffect<Msg>> = (1..=5u32)
            .map(|s| HostEffect::Send { to: ProcessId(s), msg: write_msg(value.clone()) })
            .collect();
        let (tx, _rx) = mpsc::channel::<Event<ServerActor>>();
        let loopbacks = vec![tx];
        let pool = PeerPool::new(Arc::new(AddrBook::new()), FaultControls::new());
        let timers = Timers::new();
        let before = codec::frames_encoded();
        apply(me, effects, &loopbacks, shard_of, &pool, &timers, &None);
        assert_eq!(
            codec::frames_encoded() - before,
            1,
            "a 5-target quorum broadcast must perform exactly one wire encode"
        );

        // Distinct payloads (a TREAS fragment fan-out) still encode
        // per destination — the cache keys on message equality.
        let effects: Vec<HostEffect<Msg>> = (1..=5u32)
            .map(|s| HostEffect::Send {
                to: ProcessId(s),
                msg: write_msg(Value::filler(64, s as u64)),
            })
            .collect();
        let (tx, _rx) = mpsc::channel::<Event<ServerActor>>();
        let before = codec::frames_encoded();
        apply(me, effects, &[tx], shard_of, &pool, &timers, &None);
        assert_eq!(codec::frames_encoded() - before, 5);
    }

    #[test]
    fn broadcast_performs_zero_deep_value_copies() {
        // The message clones a broadcast fans out must all view the one
        // value allocation; the only copy on the wire path is the single
        // frame encode (pinned above).
        let value = Value::filler(1 << 20, 3);
        let msgs: Vec<Msg> = (0..5).map(|_| write_msg(value.clone())).collect();
        for m in &msgs {
            let Msg::Dap(d) = m else { unreachable!() };
            let DapBody::AbdWrite(_, v) = &d.body else { unreachable!() };
            assert!(
                bytes::Bytes::shares_allocation(value.bytes(), v.bytes()),
                "broadcast clone must share the value allocation"
            );
        }
        // 1 original + 5 clones, zero new allocations.
        assert_eq!(value.bytes().ref_count(), 6);
    }
}
