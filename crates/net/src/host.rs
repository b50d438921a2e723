//! The sharded actor-hosting layer: listeners, shard event loops that
//! own their timers, and the batching outbound writer pool.
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
//! A thread is woken only when it sleeps: a shard loop parks on its
//! inbox until its earliest timer, and a writer is woken once per
//! idle→busy transition of its queue, not once per frame.
//!
//! Clients ([`crate::NetStore`]) use the same machinery with `S = 1`:
//! their command lanes and completion routing assume one loop.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::codec::{self, read_frame};
use crate::runtime::AddrBook;
use crate::sync::Signal;
use crate::wal::ShardWal;
use ares_core::shard::{route, shard_of, ShardRoute};
use ares_core::{Msg, Role};
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
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

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
    ready: Signal,
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
            ready: Signal::default(),
        })
    }

    /// Enqueues a frame, evicting the oldest queued frame beyond the
    /// high-water mark; `true` if it evicted one. Never blocks the
    /// sending (event-loop) thread.
    pub(crate) fn push(&self, frame: Bytes) -> bool {
        let mut st = crate::sync::lock(&self.state);
        if st.closed {
            return false;
        }
        let evict = st.queue.len() >= OUTBOUND_HIGH_WATER;
        if evict {
            st.queue.pop_front();
            st.dropped += 1;
        }
        if st.queue.is_empty() {
            st.oldest_since = Some(Instant::now());
        }
        st.queue.push_back(frame);
        drop(st);
        // A syscall only while the writer is parked: a busy writer finds
        // the frame when it next drains.
        self.ready.notify_one();
        evict
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
            st = self.ready.wait(st);
        }
    }

    pub(crate) fn close(&self) {
        crate::sync::lock(&self.state).closed = true;
        self.ready.notify_all();
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

/// Outbound-writer counters, shared by every writer thread of a host's
/// every life.
#[derive(Default)]
pub(crate) struct WriterCounters {
    batches_flushed: AtomicU64,
    frames_sent: AtomicU64,
    frames_abandoned: AtomicU64,
    /// Frames evicted from full per-peer queues.
    evicted: AtomicU64,
    /// Frames dropped on cut links, by the pool and by the host's
    /// readers.
    frames_cut: AtomicU64,
}

impl WriterCounters {
    /// Whether the book has the link `from → to` cut; counts the frame
    /// dropped if so.
    fn cut(&self, book: &AddrBook, from: ProcessId, to: ProcessId) -> bool {
        let cut = book.is_cut(from, to);
        if cut {
            self.frames_cut.fetch_add(1, Ordering::Relaxed);
        }
        cut
    }
}

pub(crate) struct PeerPool {
    me: ProcessId,
    book: Arc<AddrBook>,
    queues: Mutex<HashMap<ProcessId, Arc<FrameQueue>>>,
    counters: Arc<WriterCounters>,
}

impl PeerPool {
    pub(crate) fn new(
        me: ProcessId,
        book: Arc<AddrBook>,
        counters: Arc<WriterCounters>,
    ) -> Arc<Self> {
        Arc::new(PeerPool { me, book, queues: Mutex::new(HashMap::new()), counters })
    }

    /// Enqueues an encoded frame for `to`, spawning its writer thread on
    /// first use. The pool lock is held only for the map lookup/insert —
    /// never across `thread::spawn` or the queue push — so one sender
    /// making first contact with a new peer cannot stall every
    /// concurrent sender behind the OS thread-creation latency.
    pub(crate) fn send(&self, to: ProcessId, frame: Bytes) {
        if self.counters.cut(&self.book, self.me, to) {
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
            let (me, book) = (self.me, self.book.clone());
            let (writer_queue, counters) = (queue.clone(), self.counters.clone());
            std::thread::spawn(move || writer_loop(me, &book, addr, writer_queue, counters));
        }
        if queue.push(frame) {
            self.counters.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The per-peer queues, copied out so no queue lock nests in the pool's.
    fn queues(&self) -> Vec<(ProcessId, Arc<FrameQueue>)> {
        crate::sync::lock(&self.queues).iter().map(|(pid, q)| (*pid, q.clone())).collect()
    }

    /// Per-peer outbound queue depth and stalled-writer age, sorted by
    /// peer id so the snapshot is stable across calls.
    pub(crate) fn peer_stats(&self) -> Vec<PeerOutboundStats> {
        let mut out: Vec<PeerOutboundStats> = self
            .queues()
            .into_iter()
            .map(|(pid, q)| {
                let (queue_depth, stalled_micros) = q.depth_and_stall();
                PeerOutboundStats { peer: pid, queue_depth, stalled_micros, dropped: q.dropped() }
            })
            .collect();
        out.sort_by_key(|s| s.peer);
        out
    }

    #[cfg(test)]
    fn queue(&self, to: ProcessId) -> Arc<FrameQueue> {
        crate::sync::lock(&self.queues).get(&to).cloned().expect("a queue toward the peer")
    }
}

impl Drop for PeerPool {
    fn drop(&mut self) {
        // Wake and retire every writer thread (they hold only their own
        // queue Arc, so closing is what ends them).
        for (_, q) in self.queues() {
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
    crate::sync::off_loop("socket write");
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
    me: ProcessId,
    book: &AddrBook,
    addr: SocketAddr,
    queue: Arc<FrameQueue>,
    counters: Arc<WriterCounters>,
) {
    let mut stream: Option<TcpStream> = None;
    let connect = |addr: SocketAddr| -> Option<TcpStream> {
        crate::sync::off_loop("socket connect");
        for backoff_ms in [0u64, 20, 100] {
            if backoff_ms > 0 {
                crate::sync::sleep(Duration::from_millis(backoff_ms));
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
        let slow = book.gray_micros(me);
        if slow > 0 {
            crate::sync::sleep(Duration::from_micros(slow));
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
/// non-blocking (the store frontend routes by `OpId` into its completion table).
pub(crate) type CompletionSink = Box<dyn Fn(OpCompletion) + Send + 'static>;

pub(crate) enum Event {
    Deliver {
        from: ProcessId,
        msg: Msg,
        /// True for network-sourced events, which count against the
        /// inbound high-water mark (local loopback/injections do not).
        counted: bool,
        /// A copy of an every-shard message ([`ShardRoute::EveryShard`])
        /// for a shard other than the one that answers it: journaled and
        /// applied like any delivery, its replies dropped.
        mirror: bool,
    },
    /// Ends the shard's life once every delivery queued ahead of it is
    /// applied; its timers die with the loop.
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
/// it holds — without limit. Local events (self-sends, injections)
/// bypass the gate; they are intrinsically bounded.
const INBOUND_HIGH_WATER: usize = 4096;

/// Live counters of one shard (atomics shared between the reader
/// threads, the shard's event loop, and [`HostBase::stats`]).
#[derive(Default)]
pub(crate) struct ShardCounters {
    frames_routed: AtomicU64,
    events_applied: AtomicU64,
    inbox_high_water: AtomicUsize,
}

/// Snapshot of one shard's counters (see [`NodeStats`]).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Network frames routed to this shard, counted as their delivery
    /// is applied (so `frames_routed ≤ events_applied` at every
    /// observation point; frames a killed node never applied count
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
/// [`crate::ShardedNode::stats`]. Cheap to take (atomic loads); the
/// counters are monotone from the node's start, across its kills and
/// restarts.
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
    /// Per-peer outbound queue depth / stalled-writer age of the live
    /// host's queues, sorted by peer id; empty while the node is killed.
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

/// A shard's actor and, on a durable node, its journaling side-car:
/// what each life of a host starts from and hands back.
pub(crate) type ShardState<A> = (A, Option<ShardWal<A>>);

/// What a host keeps from one life to the next: who it is, the
/// listener it serves, what it admits, the deployment's book it sends
/// by and reads its faults from, and the counters its stats read. A
/// server node boots every life of its host from one base (DESIGN.md
/// §6), so its counters stay monotone; a fault injected before a kill
/// still holds after the restart because it lives in the book.
pub(crate) struct HostBase {
    pub(crate) pid: ProcessId,
    pub(crate) local_addr: SocketAddr,
    /// Never closed while the base lives: frames sent to a killed node
    /// wait in its backlog for the next life's accept thread.
    pub(crate) listener: TcpListener,
    pub(crate) admission: Arc<Admission>,
    book: Arc<AddrBook>,
    epoch: Instant,
    /// One per shard.
    pub(crate) shards: Vec<Arc<ShardCounters>>,
    writers: Arc<WriterCounters>,
}

impl HostBase {
    pub(crate) fn new(
        pid: ProcessId,
        listener: TcpListener,
        admission: Admission,
        book: Arc<AddrBook>,
        epoch: Instant,
        shards: usize,
    ) -> io::Result<Arc<Self>> {
        Ok(Arc::new(HostBase {
            pid,
            local_addr: listener.local_addr()?,
            listener,
            admission: Arc::new(admission),
            book,
            epoch,
            shards: (0..shards).map(|_| Arc::default()).collect(),
            writers: Arc::default(),
        }))
    }

    /// Snapshot of the per-shard and outbound-writer counters, with the
    /// per-peer queues of `pool`, the live host's, when there is one.
    ///
    /// Loads `frames_routed` before `events_applied` and
    /// `batches_flushed` before `frames_sent` (all `SeqCst`, the
    /// reverse of their increment order), so a snapshot never observes
    /// `frames_routed > events_applied` or `frames_sent <
    /// batches_flushed`.
    pub(crate) fn stats(&self, pool: Option<&PeerPool>) -> NodeStats {
        let w = &self.writers;
        let batches_flushed = w.batches_flushed.load(Ordering::SeqCst);
        NodeStats {
            shards: self
                .shards
                .iter()
                .map(|c| {
                    let frames_routed = c.frames_routed.load(Ordering::SeqCst);
                    ShardStats {
                        frames_routed,
                        events_applied: c.events_applied.load(Ordering::SeqCst),
                        inbox_high_water: c.inbox_high_water.load(Ordering::Relaxed),
                    }
                })
                .collect(),
            batches_flushed,
            frames_sent: w.frames_sent.load(Ordering::SeqCst),
            frames_abandoned: w.frames_abandoned.load(Ordering::Relaxed),
            outbound_dropped: w.evicted.load(Ordering::Relaxed),
            peers: pool.map(PeerPool::peer_stats).unwrap_or_default(),
            faults_dropped: w.frames_cut.load(Ordering::Relaxed),
            // The host is actor-agnostic; the node runtime owns the
            // per-shard WAL counters and fills this in.
            wal: None,
        }
    }
}

/// One shard's handles: its inbox, the network deliveries waiting in
/// it, and its counters. One life's host, reader threads and event
/// loops share one slice of them, indexed by shard.
struct Shard {
    tx: Sender<Event>,
    inbound: AtomicUsize,
    counters: Arc<ShardCounters>,
}

/// One life of a sharded actor host: `S` event loops behind the base's
/// listener and one outbound pool, every message routed by
/// [`shard_of`]. `S = 1` reproduces the seed's single-loop host exactly
/// (one inbox, every message to shard 0), which is how client hosts
/// run. A life ends at [`ShardedHost::shutdown`]; a server node's next
/// life is a new host on the same base.
pub(crate) struct ShardedHost<A: Actor<Msg> + Send + 'static> {
    base: Arc<HostBase>,
    shards: Arc<[Shard]>,
    shutdown: Arc<AtomicBool>,
    pub(crate) pool: Arc<PeerPool>,
    /// A handle on each accepted connection a reader still reads, by
    /// accept order, so shutdown can sever them.
    conns: Conns,
    /// Each returns its shard's actor and log when the loop ends.
    threads: Vec<JoinHandle<ShardState<A>>>,
    /// Disconnects when the accept thread ends.
    accept_ended: Receiver<()>,
}

type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

impl<A: Actor<Msg> + Send + 'static> ShardedHost<A> {
    /// Starts a life of `base` with one shard per element of `actors`.
    pub(crate) fn start(
        base: Arc<HostBase>,
        actors: Vec<ShardState<A>>,
        completions: Option<CompletionSink>,
    ) -> Self {
        assert_eq!(actors.len(), base.shards.len(), "one actor per shard");
        let shutdown = Arc::new(AtomicBool::new(false));
        let pool = PeerPool::new(base.pid, base.book.clone(), base.writers.clone());

        // Build every shard's channel first so each event loop can be
        // handed the whole table (cross-shard self-sends route through
        // it: a server forwarding a coded element to itself must land
        // on the *object's* shard, which may not be its own).
        let (txs, rxs): (Vec<_>, Vec<_>) = actors.iter().map(|_| mpsc::channel()).unzip();
        let shards: Arc<[Shard]> = txs
            .into_iter()
            .zip(&base.shards)
            .map(|(tx, counters)| Shard {
                tx,
                inbound: AtomicUsize::new(0),
                counters: counters.clone(),
            })
            .collect();

        // One event loop per shard.
        let mut completions = completions;
        let mut threads = Vec::new();
        for (si, ((actor, wal), rx)) in actors.into_iter().zip(rxs).enumerate() {
            let (pid, epoch) = (base.pid, base.epoch);
            let shards = shards.clone();
            let pool = pool.clone();
            // Completions only ever come from client actors, which are
            // single-sharded; hand the sink to shard 0.
            let sink = if si == 0 { completions.take() } else { None };
            threads.push(std::thread::spawn(move || {
                event_loop(pid, si, actor, wal, rx, shards, pool, epoch, sink)
            }));
        }

        let conns = Conns::default();
        let (ending, accept_ended) = mpsc::channel();
        {
            let (base, shards, shutdown) = (base.clone(), shards.clone(), shutdown.clone());
            let conns = conns.clone();
            std::thread::spawn(move || {
                accept_loop(&base, shards, &shutdown, &conns);
                // The base goes first: once a dropped node's shutdown
                // returns, its listener is closed.
                drop(base);
                drop::<Sender<()>>(ending);
            });
        }
        ShardedHost { base, shards, shutdown, pool, conns, threads, accept_ended }
    }

    /// Frames this host's base has dropped on cut links.
    pub(crate) fn faults_dropped(&self) -> u64 {
        self.base.writers.frames_cut.load(Ordering::Relaxed)
    }

    /// Injects a message as if delivered from `from`, routed like any
    /// other traffic (an environment repair trigger for object `o`
    /// lands on `o`'s shard).
    pub(crate) fn inject(&self, from: ProcessId, msg: Msg) {
        route_delivery(&self.shards, from, msg, None);
    }

    /// Ends this life and returns each shard's actor and log once its
    /// loop has applied every delivery queued before the call. The
    /// loops' timers, the inboxes, the outbound queues and the accepted
    /// connections die with it. The listener is left nonblocking (that
    /// wakes the accept thread); a next life on the same base makes it
    /// blocking again.
    pub(crate) fn shutdown(self) -> Vec<ShardState<A>> {
        self.shutdown.store(true, Ordering::SeqCst);
        for s in self.shards.iter() {
            let _ = s.tx.send(Event::Shutdown);
        }
        // Unblock the accept loop: flip the shared socket nonblocking
        // (future accepts return immediately) and poke it with a
        // throwaway connection (wakes an already-blocked accept). Waiting
        // for it to end keeps it from taking a connection meant for the
        // next life; the wait is bounded because fd exhaustion can defeat
        // the poke, and shutdown must still return.
        let _ = self.base.listener.set_nonblocking(true);
        let _ = TcpStream::connect_timeout(&self.base.local_addr, Duration::from_millis(200));
        let _ = self.accept_ended.recv_timeout(Duration::from_secs(1));
        // Peers see the FIN now, not at their next frame, and reconnect
        // into the backlog of the node's next life.
        for (_, c) in crate::sync::lock(&self.conns).drain() {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        self.threads.into_iter().filter_map(|t| t.join().ok()).collect()
    }
}

/// Accepts inbound connections and spawns a frame-reader per connection.
fn accept_loop(base: &HostBase, shards: Arc<[Shard]>, shutdown: &Arc<AtomicBool>, conns: &Conns) {
    crate::sync::off_loop("socket accept");
    for id in 0u64.. {
        match base.listener.accept() {
            Ok((stream, _)) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(handle) = stream.try_clone() else { continue };
                crate::sync::lock(conns).insert(id, handle);
                let _ = stream.set_nodelay(true);
                let (shards, conns) = (shards.clone(), conns.clone());
                let admission = base.admission.clone();
                let shutdown = shutdown.clone();
                let (me, book, counters) = (base.pid, base.book.clone(), base.writers.clone());
                // Reader threads are daemons: they exit on EOF (which
                // shutdown causes) and on any read/decode error. They
                // hold no base, so the listener closes with its node.
                std::thread::spawn(move || {
                    reader_loop(stream, &admission, &shards, &shutdown, me, &book, &counters);
                    crate::sync::lock(&conns).remove(&id);
                });
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept failures (e.g. fd exhaustion under a
                // connection flood) must not hot-spin a core.
                crate::sync::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Decodes frames off one connection and routes them to shard inboxes.
///
/// Malformed input — a hostile length prefix, truncated frame, unknown
/// variant byte, or a message naming an unregistered configuration —
/// tears down *this connection only*; the node keeps serving everyone
/// else. Nothing on this path can panic the host. A well-formed frame
/// carrying an environment command ([`Role::Local`]) is dropped.
fn reader_loop(
    stream: TcpStream,
    admission: &Admission,
    shards: &[Shard],
    shutdown: &AtomicBool,
    me: ProcessId,
    book: &AddrBook,
    counters: &WriterCounters,
) {
    let stop = || shutdown.load(Ordering::SeqCst);
    let mut reader = BufReader::with_capacity(codec::FRAME_READ_BUF, stream);
    loop {
        match read_frame(&mut reader) {
            Ok(Some((from, msg))) => {
                if stop() {
                    return; // the life is over: drop frame, sever connection
                }
                // Injected asymmetric cut: this host cannot *hear* the
                // peer, though the reverse direction may still flow. The
                // connection survives (a link fault is not a crash) and
                // heals instantly when the cut is lifted.
                if counters.cut(book, from, me) {
                    continue;
                }
                // Gray-node throttle, inbound side: a slowed host is
                // slow to *process* what it hears, one frame at a time.
                let slow = book.gray_micros(me);
                if slow > 0 {
                    crate::sync::sleep(Duration::from_micros(slow));
                }
                // Environment commands (client invocations, repair
                // triggers) are never protocol traffic: a peer must not
                // drive a host's client sessions or start its repairs.
                // The trusted local path is `inject()`.
                if msg.role() == Role::Local {
                    continue;
                }
                // Network-facing dispatch guard: a stale or hostile
                // configuration id must not reach the actors, whose
                // internal registry lookups treat unknown ids as
                // protocol bugs (`try_get` makes the check total), and
                // a deployment with a declared object universe drops
                // traffic for fabricated objects before it can create
                // per-object state.
                if admission.admits(&msg) && !route_delivery(shards, from, msg, Some(&stop)) {
                    return;
                }
            }
            Ok(None) | Err(_) => return,
        }
    }
}

/// A shard's armed timers, earliest deadline on top.
type TimerHeap = BinaryHeap<Reverse<(Instant, u64)>>;

/// One shard's sequential actor driver: applies events in arrival order,
/// fires the shard's timers, and maps the drained [`HostEffect`]s onto
/// sockets, the timer heap and the completion log.
///
/// A due timer fires behind the deliveries already queued when it fell
/// due, and is never starved by a busy inbox: the loop notes the
/// shard's inbound backlog at that moment, and every timer due by then
/// fires after that many more deliveries or once the inbox empties,
/// whichever comes first.
///
/// When the shard carries a [`ShardWal`], every [`Role::Logged`] and
/// [`Role::Synced`] delivery is journaled **before** it is applied
/// (write-ahead), a `Synced` one synced too, and the pending
/// group-commit batch is fsynced as the loop goes idle — so under
/// batched fsync the durability lag is bounded by the busy burst, not
/// by wall clock.
///
/// Returns the actor and its log when the shard's life ends.
#[allow(clippy::too_many_arguments, reason = "the shard thread's whole context, moved in once")]
fn event_loop<A: Actor<Msg> + Send + 'static>(
    pid: ProcessId,
    shard: usize,
    mut actor: A,
    mut wal: Option<ShardWal<A>>,
    rx: Receiver<Event>,
    shards: Arc<[Shard]>,
    pool: Arc<PeerPool>,
    epoch: Instant,
    completions: Option<CompletionSink>,
) -> ShardState<A> {
    crate::sync::mark_loop();
    let Some(Shard { inbound, counters, .. }) = shards.get(shard) else { return (actor, wal) };
    let mut rng = StdRng::seed_from_u64(pid.0 as u64 ^ 0xA1E5_0000 ^ ((shard as u64) << 40));
    let mut timers = TimerHeap::new();
    // Once the earliest timer is due: when that was noticed, and the
    // counted deliveries still to apply before the timers due by then.
    let mut due: Option<(Instant, usize)> = None;
    loop {
        if let (None, Some(&Reverse((deadline, _)))) = (due, timers.peek()) {
            let now = Instant::now();
            if deadline <= now {
                due = Some((now, inbound.load(Ordering::SeqCst)));
            }
        }
        let next = match due {
            Some((_, 0)) => Err(TryRecvError::Empty),
            _ => rx.try_recv(),
        };
        let ev = match next {
            Ok(ev) => ev,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                if let Some((noticed, _)) = due.take() {
                    while let Some(&Reverse((deadline, token))) = timers.peek() {
                        if deadline > noticed {
                            break;
                        }
                        timers.pop();
                        counters.events_applied.fetch_add(1, Ordering::SeqCst);
                        let now: Time = epoch.elapsed().as_micros() as Time;
                        let mut ctx = Ctx::detached(pid, now, &mut rng);
                        actor.on_timer(token, &mut ctx);
                        let effects = ctx.take_effects();
                        apply(pid, effects, &shards, &pool, &mut timers, &completions);
                    }
                    continue;
                }
                // Going idle: flush the journal's group-commit batch
                // before parking, so batched fsync never leaves
                // acknowledged records unsynced across an idle gap.
                if let Some(w) = wal.as_mut() {
                    w.idle_sync();
                }
                // Until the earliest deadline; `Duration::MAX` (no timer
                // armed) waits like `recv`.
                let park_for = timers.peek().map_or(Duration::MAX, |Reverse((deadline, _))| {
                    deadline.saturating_duration_since(Instant::now())
                });
                // The loop's own park point, and its only inbox receive:
                // it owns the one `Receiver`.
                match rx.recv_timeout(park_for) {
                    Ok(ev) => ev,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        match ev {
            Event::Shutdown => break,
            Event::Deliver { from, msg, counted, mirror } => {
                if counted {
                    inbound.fetch_sub(1, Ordering::SeqCst);
                    if let Some((_, owed)) = due.as_mut() {
                        *owed = owed.saturating_sub(1);
                    }
                }
                // Write-ahead: journal the delivery against the
                // pre-application actor state (a due checkpoint then
                // excludes `msg`, and the appended record re-applies
                // it on replay). A shard whose log has failed refuses
                // `Role::Synced` deliveries (DESIGN.md §11).
                if wal.as_mut().is_some_and(|w| !w.journal(from, &msg, &actor)) {
                    continue;
                }
                counters.events_applied.fetch_add(1, Ordering::SeqCst);
                if counted {
                    // Counted at apply time (see the reader), events
                    // before routed, both SeqCst (the snapshot loads
                    // them in the opposite order): events_applied ≥
                    // frames_routed holds at every observation point
                    // on any hardware; frames a killed node never
                    // applied are routed nowhere.
                    counters.frames_routed.fetch_add(1, Ordering::SeqCst);
                }
                let now: Time = epoch.elapsed().as_micros() as Time;
                let mut ctx = Ctx::detached(pid, now, &mut rng);
                actor.on_message(from, msg, &mut ctx);
                let mut effects = ctx.take_effects();
                if mirror {
                    effects.retain(|e| !matches!(e, HostEffect::Send { .. }));
                }
                apply(pid, effects, &shards, &pool, &mut timers, &completions);
            }
        }
    }
    (actor, wal)
}

/// Puts one delivery in the inbox of the shard [`shard_of`] names, and
/// a copy of an every-shard message ([`ShardRoute::EveryShard`]) in
/// every other shard's, flagged `mirror`: journaled and applied there
/// like any delivery, its replies dropped, because only the routed
/// shard (shard 0, which alone serves `ReadConfig`) may answer a
/// pointer write (DESIGN.md §9). The listener, [`ShardedHost::inject`]
/// and a loopback self-send all deliver through here.
///
/// A network frame (`stop` set) is `counted`: it waits while the routed
/// shard's inbox holds [`INBOUND_HIGH_WATER`] of them, stalling its
/// connection and, through TCP, the peer, and gives up once `stop`
/// holds. Returns `false` if it gave up or the routed shard is gone.
fn route_delivery(
    shards: &[Shard],
    from: ProcessId,
    msg: Msg,
    stop: Option<&dyn Fn() -> bool>,
) -> bool {
    let si = shard_of(&msg, shards.len());
    // `shard_of` is always in range; `get` keeps this network path free
    // of panicking indexing.
    let Some(shard) = shards.get(si) else { return true };
    if let Some(stop) = stop {
        // Per-shard gates keep one slow shard from stalling traffic
        // bound for the others — unless it shares a connection, which
        // is TCP's own head-of-line constraint.
        while shard.inbound.load(Ordering::SeqCst) >= INBOUND_HIGH_WATER {
            if stop() {
                return false;
            }
            crate::sync::sleep(Duration::from_millis(1));
        }
        let backlog = shard.inbound.fetch_add(1, Ordering::SeqCst) + 1;
        shard.counters.inbox_high_water.fetch_max(backlog, Ordering::Relaxed);
    }
    if route(&msg) == ShardRoute::EveryShard {
        for (_, other) in shards.iter().enumerate().filter(|(i, _)| *i != si) {
            let copy = Event::Deliver { from, msg: msg.clone(), counted: false, mirror: true };
            let _ = other.tx.send(copy);
        }
    }
    // frames_routed is counted by the shard as it *applies* the
    // delivery, not here: a snapshot must never observe a routed frame
    // that has not yet been applied (events_applied ≥ frames_routed is
    // an invariant tests rely on).
    let counted = stop.is_some();
    if shard.tx.send(Event::Deliver { from, msg, counted, mirror: false }).is_err() {
        if counted {
            shard.inbound.fetch_sub(1, Ordering::SeqCst);
        }
        return false;
    }
    true
}

fn apply(
    pid: ProcessId,
    effects: Vec<HostEffect<Msg>>,
    shards: &[Shard],
    pool: &PeerPool,
    timers: &mut TimerHeap,
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
                    route_delivery(shards, pid, msg, None);
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
                timers.push(Reverse((Instant::now() + Duration::from_micros(delay), token)));
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
        writer_loop(ME, &AddrBook::new(), addr, q, counters.clone()); // runs to completion: queue closed
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
        for f in batch {
            q.push(f);
        }
        q.close();
        let counters = Arc::new(WriterCounters::default());
        writer_loop(ME, &AddrBook::new(), addr, q, counters.clone());
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
            std::thread::spawn(move || writer_loop(ME, &AddrBook::new(), addr, q, counters))
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
        let pool = PeerPool::new(ME, book, Arc::default());
        let frame = Bytes::from(vec![0u8; 64]);
        for _ in 0..(3 * OUTBOUND_HIGH_WATER) {
            pool.send(ProcessId(2), frame.clone());
        }
        assert!(
            pool.queue(ProcessId(2)).len() <= OUTBOUND_HIGH_WATER,
            "unreachable peer must not accumulate frames past the high-water mark"
        );
        assert!(pool.queue(ProcessId(2)).dropped() > 0, "overflow drops, not growth");
        let evicted = pool.counters.evicted.load(Ordering::Relaxed);
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
        // No effect is a self-send, so no shard is needed.
        let shards: [Shard; 0] = [];
        let pool = PeerPool::new(me, Arc::new(AddrBook::new()), Arc::default());
        let mut timers = TimerHeap::new();
        let before = codec::frames_encoded();
        apply(me, effects, &shards, &pool, &mut timers, &None);
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
        let before = codec::frames_encoded();
        apply(me, effects, &shards, &pool, &mut timers, &None);
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
            let Msg::Dap(DapMsg { body: DapBody::AbdWrite(_, v), .. }) = m else {
                panic!("write_msg builds an ABD write")
            };
            assert!(
                bytes::Bytes::shares_allocation(value.bytes(), v.bytes()),
                "broadcast clone must share the value allocation"
            );
        }
        // 1 original + 5 clones, zero new allocations.
        assert_eq!(value.bytes().ref_count(), 6);
    }

    #[test]
    fn a_burst_to_a_busy_writer_wakes_it_at_most_once() {
        const B: u32 = 256;
        let q = FrameQueue::new();
        let (drained_tx, drained) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let writer = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                while q.pop_batch(&mut batch) {
                    drained_tx.send(batch.len()).unwrap();
                    batch.clear();
                    let _ = released.recv(); // busy writing the batch
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while q.ready.parked() == 0 {
            assert!(Instant::now() < deadline, "the writer never parked");
            std::thread::yield_now();
        }
        q.push(frame_of(0)); // idle → busy: the one wake
        assert_eq!(drained.recv().unwrap(), 1);
        for i in 1..=B {
            q.push(frame_of(i));
        }
        assert_eq!(q.ready.wakes(), 1, "a burst behind a busy writer must not wake it again");
        release.send(()).unwrap();
        assert_eq!(drained.recv().unwrap(), B as usize, "the burst drains as one batch");
        q.close();
        release.send(()).unwrap();
        writer.join().unwrap();
    }

    #[test]
    fn a_parked_waiter_is_always_woken() {
        const PRODUCERS: u32 = 4;
        const FRAMES: u32 = 5_000;
        let q = FrameQueue::new();
        let got = Arc::new(AtomicU64::new(0));
        let writer = {
            let (q, got) = (q.clone(), got.clone());
            std::thread::spawn(move || {
                let mut batch = Vec::new();
                while q.pop_batch(&mut batch) {
                    got.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    batch.clear();
                }
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..FRAMES {
                        q.push(frame_of(i));
                        if i % 8 == p {
                            std::thread::yield_now(); // let the writer drain and park
                        }
                    }
                })
            })
            .collect();
        producers.into_iter().for_each(|p| p.join().unwrap());
        let total = u64::from(PRODUCERS * FRAMES);
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.load(Ordering::Relaxed) + q.dropped() < total {
            assert!(Instant::now() < deadline, "frames sat queued behind a writer nobody woke");
            crate::sync::sleep(Duration::from_millis(1));
        }
        q.close();
        writer.join().unwrap();
        assert_eq!(got.load(Ordering::Relaxed) + q.dropped(), total);
    }

    #[test]
    fn a_full_inbox_holds_network_deliveries_back_but_never_local_ones() {
        let (tx, rx) = mpsc::channel();
        let shards: Arc<[Shard]> =
            Arc::new([Shard { tx, inbound: AtomicUsize::new(0), counters: Arc::default() }]);
        let shard = &shards[0];
        let (never, always) = (|| false, || true);
        let msg = || write_msg(Value::from_static(b"x"));
        for _ in 0..INBOUND_HIGH_WATER {
            assert!(route_delivery(&shards, ProcessId(1), msg(), Some(&never)));
        }
        assert_eq!(shard.inbound.load(Ordering::SeqCst), INBOUND_HIGH_WATER);
        // One more network delivery waits for the shard to consume one.
        let held = {
            let shards = shards.clone();
            std::thread::spawn(move || route_delivery(&shards, ProcessId(1), msg(), Some(&never)))
        };
        crate::sync::sleep(Duration::from_millis(50));
        assert!(!held.is_finished(), "a full inbox holds the reader back");
        assert_eq!(shard.inbound.load(Ordering::SeqCst), INBOUND_HIGH_WATER);
        // Consume one as the shard loop does.
        assert!(matches!(rx.recv().unwrap(), Event::Deliver { counted: true, .. }));
        shard.inbound.fetch_sub(1, Ordering::SeqCst);
        assert!(held.join().unwrap(), "the held delivery went in once there was room");
        assert_eq!(shard.inbound.load(Ordering::SeqCst), INBOUND_HIGH_WATER);
        // A reader told to stop gives up instead of waiting.
        assert!(!route_delivery(&shards, ProcessId(1), msg(), Some(&always)));
        // A local delivery is never held back, and is not counted.
        assert!(route_delivery(&shards, ProcessId(1), msg(), None));
        assert_eq!(shard.inbound.load(Ordering::SeqCst), INBOUND_HIGH_WATER);
        let queued: Vec<_> = rx.try_iter().collect();
        let counted = queued.iter().filter(|e| matches!(e, Event::Deliver { counted: true, .. }));
        assert_eq!(counted.count(), INBOUND_HIGH_WATER, "the stopped delivery never went in");
        assert!(matches!(queued[..], [.., Event::Deliver { counted: false, .. }]), "local last");
        assert_eq!(
            shard.counters.inbox_high_water.load(Ordering::Relaxed),
            INBOUND_HIGH_WATER,
            "the peak backlog is recorded"
        );
    }

    /// Logs each delivery's sender, and `None` per timer fire. Its first
    /// delivery arms one timer `delay` µs out; until the timer fires,
    /// each delivery sends the actor another while `echoes` last, so
    /// the inbox never empties.
    struct Recorder {
        delay: Time,
        echoes: u32,
        armed: bool,
        fired: bool,
        log: Sender<Option<ProcessId>>,
    }

    impl Actor<Msg> for Recorder {
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            self.log.send(Some(from)).unwrap();
            if !std::mem::replace(&mut self.armed, true) {
                ctx.set_timer(self.delay, 7);
            }
            if !self.fired && self.echoes > 0 {
                self.echoes -= 1;
                ctx.send(ctx.pid(), msg);
            }
        }

        fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, Msg>) {
            self.fired = true;
            self.log.send(None).unwrap();
        }
    }

    fn deliver(from: u32, counted: bool) -> Event {
        let msg = write_msg(Value::from_static(b"x"));
        Event::Deliver { from: ProcessId(from), msg, counted, mirror: false }
    }

    /// The pid of every test shard below.
    const ME: ProcessId = ProcessId(99);

    /// Runs the real shard loop of `ME` for `actor` on its own thread,
    /// sending through a pool over `book`; its inbox, holding `inbound`
    /// network deliveries, loops back to itself.
    fn run_shard<A: Actor<Msg> + Send + 'static>(
        actor: A,
        wal: Option<ShardWal<A>>,
        (tx, rx): (Sender<Event>, Receiver<Event>),
        inbound: usize,
        book: AddrBook,
        completions: Option<CompletionSink>,
    ) -> JoinHandle<ShardState<A>> {
        let pool = PeerPool::new(ME, Arc::new(book), Arc::default());
        let inbound = AtomicUsize::new(inbound);
        let shards = Arc::new([Shard { tx, inbound, counters: Arc::default() }]);
        std::thread::spawn(move || {
            event_loop(ME, 0, actor, wal, rx, shards, pool, Instant::now(), completions)
        })
    }

    /// Starts a shard loop for a [`Recorder`] whose inbox already holds
    /// `queued`; returns the inbox, the loop thread and the log.
    fn recorder_shard(
        delay: Time,
        echoes: u32,
        queued: Vec<Event>,
    ) -> (Sender<Event>, JoinHandle<ShardState<Recorder>>, Receiver<Option<ProcessId>>) {
        let (log, logged) = mpsc::channel();
        let actor = Recorder { delay, echoes, armed: false, fired: false, log };
        let (tx, rx) = mpsc::channel();
        let mut inbound = 0;
        for ev in queued {
            inbound += usize::from(matches!(ev, Event::Deliver { counted: true, .. }));
            tx.send(ev).unwrap();
        }
        let shard = run_shard(actor, None, (tx.clone(), rx), inbound, AddrBook::new(), None);
        (tx, shard, logged)
    }

    /// A timer armed at once by the first of `1 + backlog` queued
    /// deliveries: the log up to its fire.
    fn log_until_timer(backlog: u32, echoes: u32) -> Vec<Option<ProcessId>> {
        let queued =
            std::iter::once(deliver(0, false)).chain((1..=backlog).map(|i| deliver(i, true)));
        let (tx, shard, logged) = recorder_shard(0, echoes, queued.collect());
        let mut log = Vec::new();
        while log.last() != Some(&None) {
            log.push(logged.recv_timeout(Duration::from_secs(10)).expect("the due timer fired"));
        }
        tx.send(Event::Shutdown).unwrap();
        shard.join().unwrap();
        log
    }

    fn senders_then_fire(backlog: u32) -> Vec<Option<ProcessId>> {
        (0..=backlog).map(|i| Some(ProcessId(i))).chain([None]).collect()
    }

    #[test]
    fn a_due_timer_waits_for_deliveries_already_queued() {
        assert_eq!(
            log_until_timer(32, 0),
            senders_then_fire(32),
            "the timer fell due behind 32 queued deliveries and fires after them"
        );
    }

    #[test]
    fn a_due_timer_is_not_starved_by_a_busy_inbox() {
        // Every delivery queues another behind it, so the inbox is never
        // empty: the timer must still fire once the 32 deliveries queued
        // when it fell due are applied, ahead of the echoes after them.
        assert_eq!(log_until_timer(32, 10_000), senders_then_fire(32));
    }

    #[test]
    fn a_restarted_shard_never_fires_a_timer_of_its_last_life() {
        // The arming delivery is queued ahead of the shutdown, so the
        // timer is armed in the first life and must die with it.
        let (_, first, logged) =
            recorder_shard(50_000, 0, vec![deliver(0, false), Event::Shutdown]);
        let (actor, wal) = first.join().unwrap();
        let (tx, rx) = mpsc::channel();
        let second = run_shard(actor, wal, (tx.clone(), rx), 0, AddrBook::new(), None);
        crate::sync::sleep(Duration::from_millis(200)); // well past the deadline
        tx.send(deliver(1, false)).unwrap();
        tx.send(Event::Shutdown).unwrap();
        second.join().unwrap();
        let log: Vec<_> = logged.try_iter().collect();
        assert_eq!(log, vec![Some(ProcessId(0)), Some(ProcessId(1))], "no fire in the next life");
    }

    #[test]
    fn a_shard_whose_log_failed_refuses_a_prepare_and_still_serves_dap() {
        use crate::wal::{recover_server, WalConfig};
        use ares_consensus::{Ballot, ConMsg};
        use ares_types::Configuration;
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let book = AddrBook::from_entries([(ProcessId(2), peer.local_addr().unwrap())]);
        let registry = ares_types::ConfigRegistry::from_configs(vec![Configuration::abd(
            ConfigId(0),
            vec![ME, ProcessId(2), ProcessId(3)],
        )]);
        // A zero write quota: the first journaled delivery fails the log.
        let dir = ares_wal::TempDir::new("net-host-failed-log").unwrap();
        let config = WalConfig { write_quota: Some(0), ..WalConfig::default() };
        let (actor, mut wal, _) =
            recover_server(ME, registry, dir.path(), &config, Arc::default()).unwrap();
        let put = write_msg(Value::filler(8, 1));
        assert!(wal.journal(ProcessId(2), &put, &actor), "a DAP put is served from memory");
        let (tx, rx) = mpsc::channel();
        let shard = run_shard(actor, Some(wal), (tx.clone(), rx), 0, book, None);
        let op = OpId { client: ProcessId(2), seq: 1 };
        let ballot = Ballot { round: 1, proposer: ProcessId(2) };
        let prepare = Msg::Con(ConMsg::Prepare { inst: ConfigId(0), rpc: RpcId(1), ballot, op });
        let hdr = Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(2), op };
        let query = Msg::Dap(DapMsg::new(hdr, DapBody::AbdQuery));
        for msg in [prepare, query] {
            tx.send(Event::Deliver { from: ProcessId(2), msg, counted: false, mirror: false })
                .unwrap();
        }
        // One writer carries both replies in order: the first frame is
        // the query's, so the Prepare before it was never answered.
        let mut from_shard = BufReader::new(peer.accept().unwrap().0);
        let (_, reply) = read_frame(&mut from_shard).unwrap().expect("a reply");
        assert!(
            matches!(&reply, Msg::Dap(m) if m.hdr.rpc == RpcId(2)),
            "a failed log must not promise, got {reply:?}"
        );
        tx.send(Event::Shutdown).unwrap();
        shard.join().unwrap();
    }

    /// Logs each delivery's sender, and `None` per timer fire, and runs
    /// `script` on each delivery.
    struct Scripted {
        script: fn(ProcessId, &mut Ctx<'_, Msg>),
        log: Sender<Option<ProcessId>>,
    }

    impl Actor<Msg> for Scripted {
        fn on_message(&mut self, from: ProcessId, _: Msg, ctx: &mut Ctx<'_, Msg>) {
            let _ = self.log.send(Some(from));
            (self.script)(from, ctx);
        }

        fn on_timer(&mut self, _: u64, _: &mut Ctx<'_, Msg>) {
            let _ = self.log.send(None);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_shard_loop_that_sleeps_panics_in_debug_builds() {
        let (log, _logged) = mpsc::channel();
        let actor = Scripted { script: |_, _| crate::sync::sleep(Duration::from_micros(1)), log };
        let (tx, rx) = mpsc::channel();
        let shard = run_shard(actor, None, (tx.clone(), rx), 0, AddrBook::new(), None);
        tx.send(Event::Deliver {
            from: ProcessId(1),
            msg: write_msg(Value::filler(8, 1)),
            counted: false,
            mirror: false,
        })
        .unwrap();
        tx.send(Event::Shutdown).unwrap();
        let Err(err) = shard.join() else { panic!("the guard stops the loop at its first sleep") };
        let msg = err.downcast::<String>().expect("the guard's formatted message");
        assert!(msg.starts_with("a shard event loop must not block"), "{msg}");
    }

    #[test]
    fn every_effect_applies_without_blocking_the_loop() {
        // A send to a known peer, to itself and to an unknown pid, a
        // timer and a completion: none may block the loop, whose guard
        // is live in debug builds.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let book = AddrBook::from_entries([(ProcessId(2), peer.local_addr().unwrap())]);
        let script = |from: ProcessId, ctx: &mut Ctx<'_, Msg>| {
            if from == ME {
                return; // the self-send arriving
            }
            let msg = write_msg(Value::filler(8, 1));
            ctx.send(ProcessId(2), msg.clone());
            ctx.send(ME, msg.clone());
            ctx.send(ProcessId(77), msg);
            ctx.set_timer(0, 1);
            let op = OpId { client: ME, seq: u64::from(from.0) };
            ctx.complete(OpCompletion::new(op, ares_types::OpKind::Write, 0, 0));
        };
        let (log, logged) = mpsc::channel();
        let (done, completed) = mpsc::channel();
        let sink: CompletionSink = Box::new(move |c| done.send(c.op.seq).unwrap());
        let (tx, rx) = mpsc::channel();
        let actor = Scripted { script, log };
        let shard = run_shard(actor, None, (tx.clone(), rx), 0, book, Some(sink));
        let within = Duration::from_secs(10);
        for round in 1..=2 {
            let msg = write_msg(Value::filler(8, 1));
            tx.send(Event::Deliver { from: ProcessId(round), msg, counted: false, mirror: false })
                .unwrap();
            let mut got: Vec<_> =
                (0..3).map(|_| logged.recv_timeout(within).expect("the loop serves")).collect();
            got.sort();
            assert_eq!(got, [None, Some(ProcessId(round)), Some(ME)], "timer, delivery, self-send");
            assert_eq!(completed.recv_timeout(within).unwrap(), u64::from(round));
        }
        let mut from_peer = BufReader::new(peer.accept().unwrap().0);
        for _ in 1..=2 {
            assert_eq!(read_frame(&mut from_peer).unwrap().expect("a frame").0, ME);
        }
        tx.send(Event::Shutdown).unwrap();
        shard.join().expect("no effect blocked the loop");
    }
}
