//! The sharded actor-hosting layer: shard event loops that own their
//! timers and read their own sockets, and the batching outbound writer
//! pool.
//!
//! A host runs `S ≥ 1` **shards**, each an independent sequential event
//! loop owning one actor instance — the multi-core generalization of
//! the single event loop the paper's sequential server implies. No
//! thread only reads: shard 0's loop, the network loop, owns the
//! listener and every connection it accepts, reads each readable one
//! into its one buffer, decodes it with a resumable
//! [`codec::read_frame`] decoder and routes every message to a shard
//! with the [`ares_core::shard`] classification (object-scoped traffic
//! to the shard owning that object, config-wide traffic to shard 0). A
//! shard loop takes its inbox whole and, only when it has nothing to
//! do, parks in one `ppoll` on its inbox's wake socket and, on the
//! network loop, its sockets; what that poll reads is applied as one
//! batch.
//!
//! Every socket a host owns is nonblocking from the moment it is made,
//! and nothing switches one back: the loops' never-block rule rests on
//! that alone.
//!
//! Who writes a frame: a shard loop with nothing else queued writes it
//! itself, with one `write` on the writer's connection, when the peer's
//! queue is empty, nobody writes to the peer, the connection carried a
//! write within [`IDLE_BEFORE_PEEK`] and the host is not gray. Every
//! other frame, and the rest of a partial write, goes to the peer's
//! writer thread, which alone connects, peeks for a FIN and pays a gray
//! host's delay, and drains its queue in batches: one write per drained
//! batch, syscall-collapsing under load, waiting in `ppoll` while the
//! send buffer is full. So an idle hop wakes one thread, the receiving
//! loop, and a writer is woken once per idle→busy transition of its
//! queue.
//!
//! Clients ([`crate::NetStore`]) use the same machinery with `S = 1`:
//! their command lanes and completion routing assume one loop.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::codec;
use crate::runtime::AddrBook;
use crate::sync::Signal;
use crate::sys::PollFd;
use crate::wal::ShardWal;
use ares_core::shard::{route, shard_of, ShardRoute};
use ares_core::{Msg, Role};
use ares_sim::{Actor, Ctx, HostEffect};
use ares_types::{ConfigRegistry, ObjectId, OpCompletion, ProcessId, Time};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// Where an inline send counts its `write`, before making it: the
    /// peer cannot read a frame whose write is not counted yet.
    counters: Arc<WriterCounters>,
}

#[derive(Default)]
struct FrameQueueState {
    queue: VecDeque<Bytes>,
    closed: bool,
    dropped: u64,
    /// When the oldest queued frame was enqueued; `None` while empty.
    /// A growing age means the writer is stalled (dead or throttled
    /// peer) — surfaced per peer in [`PeerOutboundStats`].
    oldest_since: Option<Instant>,
    /// Set while the writer or an inline send writes to the peer, so
    /// at most one of them touches the connection at a time.
    busy: bool,
    /// The writer's connection and when it last carried a write, by
    /// the writer or inline; `None` while the writer has none.
    conn: Option<(Arc<TcpStream>, Instant)>,
    /// The unsent rest of a frame an inline send began: the writer
    /// finishes it on `conn`, before anything else, or abandons it.
    tail: Option<Bytes>,
}

impl FrameQueue {
    fn counting(counters: Arc<WriterCounters>) -> Arc<Self> {
        Arc::new(FrameQueue { state: Mutex::default(), ready: Signal::default(), counters })
    }

    #[cfg(test)]
    pub(crate) fn new() -> Arc<Self> {
        Self::counting(Arc::default())
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

    /// The writer's one call per batch: publishes its connection `conn`
    /// with its last write and frees the peer for inline sends, then
    /// blocks until there is work and no inline send is writing, and
    /// drains **everything queued** into `out` in one go. Returns the
    /// tail to finish first and when the connection last carried a
    /// write, or `None` once closed and drained. This is what the writer
    /// batches on: one write per drained batch.
    pub(crate) fn pop_batch(
        &self,
        out: &mut Vec<Bytes>,
        conn: Option<(Arc<TcpStream>, Instant)>,
    ) -> Option<(Option<Bytes>, Option<Instant>)> {
        let mut st = crate::sync::lock(&self.state);
        // Only the writer's own claim can be held here: an inline send
        // claims a free peer, and the writer has held it since its drain.
        st.busy = false;
        st.conn = conn;
        let work = |st: &FrameQueueState| !st.queue.is_empty() || st.tail.is_some();
        let mut st = self.ready.wait_until(st, None, |st| !st.busy && (st.closed || work(st)));
        if !work(&st) {
            st.conn = None; // the writer's end: its connection closes with it
            return None;
        }
        st.busy = true;
        out.extend(st.queue.drain(..));
        st.oldest_since = None;
        Some((st.tail.take(), st.conn.as_ref().map(|(_, at)| *at)))
    }

    /// A shard loop's write of `frame` to an idle peer, without waking
    /// its writer: one `write` on the writer's nonblocking connection,
    /// made only while nothing is queued or being written to the peer
    /// and the connection carried a write within [`IDLE_BEFORE_PEEK`],
    /// so it needs no FIN peek. `Err(frame)` if it was not made, else
    /// the bytes sent. A partly sent frame's rest is left to the writer
    /// (its `tail`), and an unsent one queues first, whole.
    fn send_inline(&self, frame: Bytes) -> Result<usize, Bytes> {
        let mut st = crate::sync::lock(&self.state);
        let free = !st.busy && st.queue.is_empty() && st.tail.is_none();
        let fresh = st.conn.as_ref().filter(|(_, at)| free && at.elapsed() < IDLE_BEFORE_PEEK);
        let Some(conn) = fresh.map(|(s, _)| s.clone()) else { return Err(frame) };
        st.busy = true;
        drop(st);
        self.counters.socket_writes.fetch_add(1, Ordering::Relaxed);
        let sent = (&*conn).write(&frame).unwrap_or(0);
        let mut st = crate::sync::lock(&self.state);
        st.busy = false;
        if sent == 0 {
            // A full or failed socket: the writer sends the frame, and
            // replaces a broken connection first.
            st.oldest_since.get_or_insert_with(Instant::now);
            st.queue.push_front(frame);
        } else {
            if let Some((_, at)) = st.conn.as_mut() {
                *at = Instant::now();
            }
            st.tail = (sent < frame.len()).then(|| frame.slice(sent..));
        }
        // Frames queued behind the claim, or this one, wait for a writer
        // that may have parked while the peer was busy.
        let work = !st.queue.is_empty() || st.tail.is_some();
        drop(st);
        if work {
            self.ready.notify_one();
        }
        Ok(sent)
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

/// Socket counters, shared by every writer thread, inline send and
/// network loop of a host's every life.
#[derive(Default)]
pub(crate) struct WriterCounters {
    batches_flushed: AtomicU64,
    frames_sent: AtomicU64,
    frames_abandoned: AtomicU64,
    /// Frames evicted from full per-peer queues.
    evicted: AtomicU64,
    /// Frames dropped on cut links, by the pool and by the network loop.
    frames_cut: AtomicU64,
    /// `read` calls on connections, by the network loop.
    socket_reads: AtomicU64,
    /// `write` and `write_vectored` calls on connections.
    socket_writes: AtomicU64,
}

impl WriterCounters {
    /// Counts one flushed batch of `frames` frames. Frames before
    /// batches, both SeqCst (and the snapshot loads them in the opposite
    /// order): a concurrent stats() must never observe frames_sent <
    /// batches_flushed — every batch carries ≥ 1 frame, and Relaxed
    /// increments of distinct atomics could be seen reordered on
    /// weakly-ordered hardware.
    fn flushed(&self, frames: usize) {
        self.frames_sent.fetch_add(frames as u64, Ordering::SeqCst);
        self.batches_flushed.fetch_add(1, Ordering::SeqCst);
    }

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

    /// Sends an encoded frame to `to`, spawning its writer thread on
    /// first use. A shard loop that is `idle` (nothing else queued) on a
    /// host that is not gray writes the frame itself if the peer's
    /// connection is free ([`FrameQueue::send_inline`]), counted as a
    /// flushed batch of one frame; otherwise the frame is queued for the
    /// writer. The pool lock is held only for the map lookup/insert —
    /// never across `thread::spawn` or the queue push — so one sender
    /// making first contact with a new peer cannot stall every
    /// concurrent sender behind the OS thread-creation latency.
    pub(crate) fn send(&self, to: ProcessId, mut frame: Bytes, idle: bool) {
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
                    let q = FrameQueue::counting(self.counters.clone());
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
        if idle && self.book.gray_micros(self.me) == 0 {
            let len = frame.len();
            match queue.send_inline(frame) {
                Ok(sent) if sent == len => return self.counters.flushed(1),
                Ok(_) => return, // the writer finishes or sends it
                Err(unsent) => frame = unsent,
            }
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

/// Whether the peer has closed or reset this connection: a one-byte
/// peek on it, nonblocking like every connection of a host, that finds
/// no `WouldBlock`. Without this check, a frame written into a
/// connection the peer tore down during a crash window is buffered
/// locally, "succeeds", and is silently lost — violating the
/// reliable-channel model for messages sent *after* the peer recovered.
/// (Peers never send data on inbound connections, so `Ok(n > 0)` does
/// not occur; replies travel over the peer's own outbound pool.)
fn peer_closed(s: &TcpStream) -> bool {
    match s.peek(&mut [0u8; 1]) {
        Ok(n) => n == 0,
        Err(e) => e.kind() != io::ErrorKind::WouldBlock,
    }
}

/// A connection that carried no write for this long is peeked for a
/// FIN before its next write ([`peer_closed`]), by the writer only.
/// Peer-close detection is amortized off the hot path this way: a FIN
/// racing an active burst surfaces as a write error anyway, and the
/// silent-loss window needs the connection to have been *idle* across
/// a crash window.
const IDLE_BEFORE_PEEK: Duration = Duration::from_millis(2);

/// The writer's one way to write: every frame of `frames` to `s`, in
/// order, each call counted in `writes`. Resumes after a short write,
/// and waits in `ppoll` while the connection's send buffer is full.
/// One `write_vectored` from the frames' own buffers takes a batch the
/// buffer has room for: a paired `small_sat` batch found copying small
/// batches into one buffer first no faster (CHANGES.md).
fn write_frames(s: &TcpStream, frames: &[Bytes], writes: &AtomicU64) -> io::Result<()> {
    crate::sync::off_loop("socket write");
    let mut slices: Vec<IoSlice<'_>> = frames.iter().map(|f| IoSlice::new(f)).collect();
    let mut left = slices.as_mut_slice();
    while !left.is_empty() {
        writes.fetch_add(1, Ordering::Relaxed);
        match (&*s).write_vectored(left) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                crate::sys::ppoll(&mut [PollFd::writable(s)], None)?;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One outbound connection: drains the queue in batches, (re)connects
/// on demand, writes every frame of the batch with **one** write when
/// the send buffer takes it.
///
/// Batching is adaptive with no knobs: an idle connection's queue holds
/// one frame when the writer wakes, so that frame is written
/// immediately (latency-neutral); under load the queue grows while the
/// previous batch is being written, and the whole backlog drains in a
/// single write (syscall-collapsing).
///
/// A batch that cannot be written after one reconnect attempt is
/// dropped (and counted) — the asynchronous-channel abstraction the
/// protocols assume tolerates loss to crashed peers, and quorum logic
/// never waits on a dead destination. A mid-batch failure retries the
/// *whole* batch on the fresh connection: the peer tore the old
/// connection down, so partially-delivered frames vanished with it, and
/// a duplicated frame is harmless (quorum phases are idempotent and
/// deduplicate by rpc/op id). The rest of a frame an inline write began
/// goes out first, on the same connection or not at all: on a fresh
/// one its bytes would not start a frame.
pub(crate) fn writer_loop(
    me: ProcessId,
    book: &AddrBook,
    addr: SocketAddr,
    queue: Arc<FrameQueue>,
    counters: Arc<WriterCounters>,
) {
    let mut stream: Option<Arc<TcpStream>> = None;
    let connect = |addr: SocketAddr| -> Option<Arc<TcpStream>> {
        crate::sync::off_loop("socket connect");
        for backoff_ms in [0u64, 20, 100] {
            if backoff_ms > 0 {
                crate::sync::sleep(Duration::from_millis(backoff_ms));
            }
            // Nonblocking from here on: the loops write to it inline.
            match TcpStream::connect(addr) {
                Ok(s) if s.set_nonblocking(true).is_ok() => {
                    let _ = s.set_nodelay(true);
                    return Some(Arc::new(s));
                }
                _ => {}
            }
        }
        None
    };
    let mut last_write: Option<Instant> = None;
    let mut batch: Vec<Bytes> = Vec::new();
    let writes = &counters.socket_writes;
    while let Some((tail, at)) = queue.pop_batch(&mut batch, stream.clone().zip(last_write)) {
        last_write = at;
        // Gray-node throttle: a slowed host pays the injected latency
        // once per drained batch before it touches the socket, so its
        // traffic still flows — late, like a wheezing NIC, not never.
        let slow = book.gray_micros(me);
        if slow > 0 {
            crate::sync::sleep(Duration::from_micros(slow));
        }
        if let Some(tail) = tail {
            let tail = std::slice::from_ref(&tail);
            match stream.as_deref().map(|s| write_frames(s, tail, writes)) {
                Some(Ok(())) => {
                    last_write = Some(Instant::now());
                    counters.flushed(1);
                }
                _ => {
                    counters.frames_abandoned.fetch_add(1, Ordering::Relaxed);
                    stream = None;
                }
            }
        }
        if batch.is_empty() {
            continue; // a tail alone
        }
        let mut sent = false;
        for _attempt in 0..2 {
            let idle = last_write.is_none_or(|t| t.elapsed() >= IDLE_BEFORE_PEEK);
            if idle && stream.as_deref().is_some_and(peer_closed) {
                // The peer hung up (e.g. a crash window severed us):
                // writing would buffer into a dead socket and lose the
                // batch without an error. Reconnect first.
                stream = None;
            }
            if stream.is_none() {
                stream = connect(addr);
            }
            let Some(s) = stream.as_deref() else { break };
            if write_frames(s, &batch, writes).is_ok() {
                last_write = Some(Instant::now());
                counters.flushed(batch.len());
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

/// Backpressure threshold for each shard's inbound event queue: the
/// network loop holds a connection's next frame (propagating TCP
/// backpressure to the peer) while this many network events are waiting
/// on its shard, so a fast or hostile peer cannot grow the unbounded
/// inbox — and the decoded frames it holds — without limit. Local
/// events (self-sends, injections) bypass the gate; they are
/// intrinsically bounded.
const INBOUND_HIGH_WATER: usize = 4096;

/// Live counters of one shard (atomics shared between the network
/// loop, the shard's event loop, and [`HostBase::stats`]).
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
    /// Outbound batches written (one write per batch, resumed while the
    /// send buffer is full).
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
    /// `read` calls the node made on its connections.
    pub socket_reads: u64,
    /// `write` and `write_vectored` calls the node made on its
    /// connections, inline sends and writer threads together.
    pub socket_writes: u64,
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
    /// wait in its backlog for the next life's network loop. Nonblocking
    /// for the base's whole life.
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
        listener.set_nonblocking(true)?;
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
            socket_reads: w.socket_reads.load(Ordering::Relaxed),
            socket_writes: w.socket_writes.load(Ordering::Relaxed),
            // The host is actor-agnostic; the node runtime owns the
            // per-shard WAL counters and fills this in.
            wal: None,
        }
    }
}

/// One shard's handles: its inbox, the network deliveries waiting in
/// it, and its counters. One life's host and event loops share one
/// slice of them, indexed by shard.
struct Shard {
    inbox: Inbox,
    inbound: AtomicUsize,
    counters: Arc<ShardCounters>,
}

/// A shard's inbox: any thread pushes, and only the shard's loop takes,
/// always everything queued at once. A push writes to the wake socket
/// the loop polls only while the loop is parked, so a push to a busy
/// loop makes no system call.
struct Inbox {
    /// The queued events, and whether the loop is parked.
    state: Mutex<(VecDeque<Event>, bool)>,
    /// Written by a push that finds the loop parked; the loop's `ppoll`
    /// watches the other end.
    wake: (UnixStream, UnixStream),
}

impl Inbox {
    fn new() -> io::Result<Self> {
        let wake = UnixStream::pair()?;
        wake.0.set_nonblocking(true)?;
        wake.1.set_nonblocking(true)?;
        Ok(Inbox { state: Mutex::default(), wake })
    }

    fn push(&self, ev: Event) {
        let mut st = crate::sync::lock(&self.state);
        st.0.push_back(ev);
        let parked = std::mem::take(&mut st.1);
        drop(st);
        if parked {
            // A full socket already holds a wake-up.
            let _ = (&self.wake.0).write(&[0]);
        }
    }

    /// Moves everything queued into the loop's empty `batch`; `false` if
    /// nothing was, and then, if `park`, the next push wakes the loop.
    fn take(&self, batch: &mut VecDeque<Event>, park: bool) -> bool {
        let mut st = crate::sync::lock(&self.state);
        std::mem::swap(&mut st.0, batch);
        st.1 = park && batch.is_empty();
        !batch.is_empty()
    }

    /// Ends a park: pushes stop writing, and a wake-up that came is read.
    fn unpark(&self, woken: bool) {
        crate::sync::lock(&self.state).1 = false;
        if woken {
            let _ = (&self.wake.1).read(&mut [0; 64]);
        }
    }
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
    pub(crate) pool: Arc<PeerPool>,
    /// Each returns its shard's actor and log when the loop ends.
    threads: Vec<JoinHandle<ShardState<A>>>,
}

impl<A: Actor<Msg> + Send + 'static> ShardedHost<A> {
    /// Starts a life of `base` with one shard per element of `actors`.
    ///
    /// # Errors
    ///
    /// An inbox's wake socket cannot be made; the actors are dropped.
    pub(crate) fn start(
        base: Arc<HostBase>,
        actors: Vec<ShardState<A>>,
        completions: Option<CompletionSink>,
    ) -> io::Result<Self> {
        assert_eq!(actors.len(), base.shards.len(), "one actor per shard");
        let pool = PeerPool::new(base.pid, base.book.clone(), base.writers.clone());

        // Build every shard's inbox first so each event loop can be
        // handed the whole table (cross-shard self-sends route through
        // it: a server forwarding a coded element to itself must land
        // on the *object's* shard, which may not be its own).
        let shards = (base.shards.iter())
            .map(|counters| {
                let (inbound, counters) = (AtomicUsize::new(0), counters.clone());
                Ok(Shard { inbox: Inbox::new()?, inbound, counters })
            })
            .collect::<io::Result<Arc<[Shard]>>>()?;

        // One event loop per shard.
        let mut completions = completions;
        let mut threads = Vec::new();
        for (si, (actor, wal)) in actors.into_iter().enumerate() {
            let (base, shards, pool) = (base.clone(), shards.clone(), pool.clone());
            // Completions only ever come from client actors, which are
            // single-sharded; hand the sink to shard 0.
            let sink = if si == 0 { completions.take() } else { None };
            threads.push(std::thread::spawn(move || {
                event_loop(base, si, actor, wal, shards, pool, sink)
            }));
        }
        Ok(ShardedHost { base, shards, pool, threads })
    }

    /// Frames this host's base has dropped on cut links.
    pub(crate) fn faults_dropped(&self) -> u64 {
        self.base.writers.frames_cut.load(Ordering::Relaxed)
    }

    /// Injects a message as if delivered from `from`, routed like any
    /// other traffic (an environment repair trigger for object `o`
    /// lands on `o`'s shard). A handle, so a caller's guard on the host
    /// is released before it takes an inbox lock.
    pub(crate) fn injector(&self) -> impl Fn(ProcessId, Msg) {
        let shards = self.shards.clone();
        move |from, msg| route_delivery(&shards, from, msg, false)
    }

    /// Ends this life and returns each shard's actor and log once its
    /// loop has applied every delivery queued before the call. The
    /// loops' timers, the inboxes, the outbound queues and the accepted
    /// connections die with it; the listener stays open, its backlog
    /// kept for the next life.
    pub(crate) fn shutdown(self) -> Vec<ShardState<A>> {
        for s in self.shards.iter() {
            s.inbox.push(Event::Shutdown);
        }
        self.threads.into_iter().filter_map(|t| t.join().ok()).collect()
    }
}

/// The shard whose loop reads the network: it owns the listener and
/// every connection it accepts. Shard 0, which carries the config-wide
/// traffic too, so most frames go in without crossing threads (DESIGN.md
/// §9).
const NET_SHARD: usize = 0;

/// A connection the network loop accepted, and what it read from it.
struct Conn {
    stream: TcpStream,
    decoder: codec::FrameDecoder,
    /// Frames read and admitted that are not in their shard's inbox yet:
    /// a full inbox or a gray host's delay holds the first, and the
    /// connection is not read again until all have gone in.
    pending: VecDeque<(ProcessId, Msg)>,
    /// While the host is gray: when the first pending frame may go in.
    not_before: Option<Instant>,
    /// Closed by the peer, or torn down over a read or decode error.
    done: bool,
}

/// What one shard loop polls besides its inbox: on the network loop
/// ([`NET_SHARD`]), the base's listener and the connections it accepted
/// this life; on every other, nothing.
struct Net {
    base: Arc<HostBase>,
    listens: bool,
    conns: Vec<Conn>,
    /// The one buffer every connection is read into: one page at first,
    /// doubled by each read that fills it, up to
    /// [`codec::FRAME_READ_BUF`].
    buf: Vec<u8>,
    /// The poll set, rebuilt at each poll.
    fds: Vec<PollFd>,
    /// After a failed accept (e.g. out of descriptors), the listener is
    /// not polled before this, so a listener that stays readable is not
    /// spun on.
    accept_after: Option<Instant>,
}

impl Net {
    fn new(base: Arc<HostBase>, listens: bool) -> Self {
        let buf = vec![0; usize::from(listens) * 4096];
        Net { base, listens, conns: Vec::new(), buf, fds: Vec::new(), accept_after: None }
    }

    /// Puts what each connection holds in its shard's inbox, as far as
    /// room and a gray host's delay allow; returns when to try again, if
    /// anything is held or the listener rests.
    fn release(&mut self, shards: &[Shard]) -> Option<Instant> {
        let now = Instant::now();
        let held = self.conns.iter_mut().filter_map(|c| c.release(&self.base, shards, now));
        let retry = held.chain(self.accept_after.filter(|t| *t > now)).min();
        self.conns.retain(|c| !(c.done && c.pending.is_empty()));
        retry
    }

    /// Waits in one `ppoll` until `wake`'s socket, the listener or a
    /// connection holding nothing is readable, or `timeout` passes;
    /// then accepts what the listener holds, reads every readable
    /// connection and puts what it read in.
    fn poll(&mut self, shards: &[Shard], wake: Option<&Inbox>, timeout: Option<Duration>) {
        let listen = self.listens && self.accept_after.is_none_or(|t| t <= Instant::now());
        let fds = &mut self.fds;
        fds.clear();
        fds.extend(wake.map(|w| PollFd::readable(&w.wake.1)));
        fds.extend(listen.then(|| PollFd::readable(&self.base.listener)));
        fds.extend(self.conns.iter().filter(|c| c.open()).map(|c| PollFd::readable(&c.stream)));
        let polled = crate::sys::ppoll(fds, timeout).is_ok();
        let mut ready = fds.iter().map(|fd| polled && fd.ready());
        if let Some(inbox) = wake {
            inbox.unpark(ready.next() == Some(true));
        }
        let accept = listen && ready.next() == Some(true);
        let (base, buf) = (&self.base, &mut self.buf);
        for (c, _) in self.conns.iter_mut().filter(|c| c.open()).zip(ready).filter(|(_, r)| *r) {
            c.read(buf, base, shards);
        }
        if accept {
            self.accept(shards);
        }
    }

    /// Accepts every connection the listener holds, and reads each at
    /// once.
    fn accept(&mut self, shards: &[Shard]) {
        loop {
            match self.base.listener.accept() {
                // A connection that would block the loop is refused.
                Ok((stream, _)) if stream.set_nonblocking(true).is_ok() => {
                    let _ = stream.set_nodelay(true);
                    let (decoder, pending) = (codec::FrameDecoder::default(), VecDeque::new());
                    let mut c = Conn { stream, decoder, pending, not_before: None, done: false };
                    c.read(&mut self.buf, &self.base, shards);
                    self.conns.push(c);
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => {
                    self.accept_after = Some(Instant::now() + Duration::from_millis(20));
                    return;
                }
            }
        }
    }
}

impl Conn {
    /// Whether the connection is polled: it is up and holds nothing.
    fn open(&self) -> bool {
        !self.done && self.pending.is_empty()
    }

    /// Reads the connection once into `buf`, decodes what came and puts
    /// it in; reads again only if that read filled `buf` and nothing is
    /// held, and then into a `buf` twice as long, up to
    /// [`codec::FRAME_READ_BUF`]. Malformed input tears down *this
    /// connection only*, and nothing on this path can panic the host.
    fn read(&mut self, buf: &mut Vec<u8>, base: &HostBase, shards: &[Shard]) {
        loop {
            base.writers.socket_reads.fetch_add(1, Ordering::Relaxed);
            let n = match (&self.stream).read(buf) {
                Ok(n) if n > 0 => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                _ => break, // closed, or failed
            };
            let mut input = buf.get(..n).unwrap_or_default();
            while let Some(frame) = self.decoder.feed(&mut input) {
                let Ok((from, msg)) = frame else {
                    self.done = true; // what it sent before still goes in
                    return;
                };
                if admitted(base, from, &msg) {
                    self.pending.push_back((from, msg));
                }
            }
            if self.release(base, shards, Instant::now()).is_some() || n < buf.len() {
                return;
            }
            buf.resize((2 * n).min(codec::FRAME_READ_BUF), 0);
        }
        self.done = true;
    }

    /// Puts the pending frames in, in order, up to the first one held;
    /// returns when to try that one again. A frame waits while its
    /// shard's inbox holds [`INBOUND_HIGH_WATER`] network deliveries,
    /// stalling this connection and, through TCP, the peer; and a gray
    /// host puts one in per `gray_micros` at most.
    fn release(&mut self, base: &HostBase, shards: &[Shard], now: Instant) -> Option<Instant> {
        while let Some((_, msg)) = self.pending.front() {
            let slow = Duration::from_micros(base.book.gray_micros(base.pid));
            let due = (!slow.is_zero()).then(|| *self.not_before.get_or_insert(now + slow));
            if let Some(due) = due.filter(|due| *due > now) {
                return Some(due);
            }
            let shard = shards.get(shard_of(msg, shards.len()));
            if shard.is_some_and(|s| s.inbound.load(Ordering::SeqCst) >= INBOUND_HIGH_WATER) {
                return Some(now + Duration::from_millis(1));
            }
            self.not_before = None;
            if let Some((from, msg)) = self.pending.pop_front() {
                route_delivery(shards, from, msg, true);
            }
        }
        None
    }
}

/// Whether a frame read off the network goes in: its link is not cut
/// (counted if it is), it is no environment command, and the host
/// admits it.
fn admitted(base: &HostBase, from: ProcessId, msg: &Msg) -> bool {
    // Injected asymmetric cut: this host cannot *hear* the peer, though
    // the reverse direction may still flow. The connection survives (a
    // link fault is not a crash) and heals when the cut is lifted.
    !base.writers.cut(&base.book, from, base.pid)
        // Environment commands (client invocations, repair triggers) are
        // never protocol traffic: a peer must not drive a host's client
        // sessions or start its repairs. The trusted local path is the
        // injector.
        && msg.role() != Role::Local
        // A stale or hostile configuration id must not reach the actors,
        // whose registry lookups treat unknown ids as protocol bugs, and
        // a deployment with a declared object universe drops traffic for
        // fabricated objects before it can create per-object state.
        && base.admission.admits(msg)
}

/// A shard's armed timers, earliest deadline on top.
type TimerHeap = BinaryHeap<Reverse<(Instant, u64)>>;

/// One shard's sequential actor driver: applies events in arrival order,
/// fires the shard's timers, and maps the drained [`HostEffect`]s onto
/// sockets, the timer heap and the completion log. The network loop
/// ([`NET_SHARD`]) also reads every connection of its life, and closes
/// them as it ends.
///
/// The loop takes its inbox whole and applies what it took before it
/// looks again, so it knows an event with nothing queued behind it is
/// `idle`: its frames may be written inline ([`PeerPool::send`]). With
/// nothing to apply it parks in [`Net::poll`], and applies what that
/// read as one batch.
///
/// A due timer fires behind the deliveries already waiting when it fell
/// due, read off the sockets by one zero-timeout poll first, and is
/// never starved by a busy inbox: the loop notes the shard's inbound
/// backlog at that moment, and every timer due by then fires after that
/// many more deliveries or once the inbox empties, whichever comes
/// first.
///
/// When the shard carries a [`ShardWal`], every [`Role::Logged`] and
/// [`Role::Synced`] delivery is journaled **before** it is applied
/// (write-ahead), a `Synced` one synced too, and the pending
/// group-commit batch is fsynced as the loop goes idle — so under
/// batched fsync the durability lag is bounded by the busy burst, not
/// by wall clock.
///
/// Returns the actor and its log when the shard's life ends.
fn event_loop<A: Actor<Msg> + Send + 'static>(
    base: Arc<HostBase>,
    shard: usize,
    mut actor: A,
    mut wal: Option<ShardWal<A>>,
    shards: Arc<[Shard]>,
    pool: Arc<PeerPool>,
    completions: Option<CompletionSink>,
) -> ShardState<A> {
    crate::sync::mark_loop();
    let Some(Shard { inbox, inbound, counters }) = shards.get(shard) else { return (actor, wal) };
    let (pid, epoch) = (base.pid, base.epoch);
    let listens = shard == NET_SHARD;
    let mut net = Net::new(base, listens);
    let mut rng = StdRng::seed_from_u64(pid.0 as u64 ^ 0xA1E5_0000 ^ ((shard as u64) << 40));
    let mut timers = TimerHeap::new();
    // What the loop took from its inbox and has not applied yet.
    let mut batch = VecDeque::new();
    // Once the earliest timer is due: when that was noticed, and the
    // counted deliveries still to apply before the timers due by then.
    let mut due: Option<(Instant, usize)> = None;
    loop {
        if let (None, Some(&Reverse((deadline, _)))) = (due, timers.peek()) {
            let now = Instant::now();
            if deadline <= now {
                if listens {
                    net.poll(&shards, None, Some(Duration::ZERO));
                }
                due = Some((now, inbound.load(Ordering::SeqCst)));
            }
        }
        if batch.is_empty() {
            inbox.take(&mut batch, false);
        }
        let next = match due {
            Some((_, 0)) => None,
            _ => batch.pop_front(),
        };
        let Some(ev) = next else {
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
                    let idle = batch.is_empty();
                    apply(pid, effects, &shards, &pool, &mut timers, &completions, idle);
                }
                continue;
            }
            // Going idle: flush the journal's group-commit batch
            // before parking, so batched fsync never leaves
            // acknowledged records unsynced across an idle gap. What
            // already waits in the sockets is still the busy burst.
            if let Some(w) = wal.as_mut() {
                if listens {
                    net.poll(&shards, None, Some(Duration::ZERO));
                    if inbox.take(&mut batch, false) {
                        continue;
                    }
                }
                w.idle_sync();
            }
            // The one park point: what the connections hold goes in
            // first, and nothing queued means a wait.
            let retry = net.release(&shards);
            if !inbox.take(&mut batch, true) {
                let timer = timers.peek().map(|Reverse((deadline, _))| *deadline);
                let deadline = timer.into_iter().chain(retry).min();
                let timeout = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                net.poll(&shards, Some(inbox), timeout);
                inbox.take(&mut batch, false);
            }
            continue;
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
                    // Counted at apply time (see `route_delivery`),
                    // events before routed, both SeqCst (the snapshot
                    // loads them in the opposite order): events_applied
                    // ≥ frames_routed holds at every observation point
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
                let idle = batch.is_empty();
                apply(pid, effects, &shards, &pool, &mut timers, &completions, idle);
            }
        }
    }
    // Peers see the FIN now, not at their next frame, and reconnect into
    // the backlog of the node's next life.
    for c in &net.conns {
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
    }
    (actor, wal)
}

/// Puts one delivery in the inbox of the shard [`shard_of`] names, and
/// a copy of an every-shard message ([`ShardRoute::EveryShard`]) in
/// every other shard's, flagged `mirror`: journaled and applied there
/// like any delivery, its replies dropped, because only the routed
/// shard (shard 0, which alone serves `ReadConfig`) may answer a
/// pointer write (DESIGN.md §9). A network frame, the injector and a
/// loopback self-send all deliver through here.
///
/// A network frame is `counted` against the shard's
/// [`INBOUND_HIGH_WATER`] until the shard applies it; the network loop
/// checks for room first.
fn route_delivery(shards: &[Shard], from: ProcessId, msg: Msg, counted: bool) {
    let si = shard_of(&msg, shards.len());
    // `shard_of` is always in range; `get` keeps this network path free
    // of panicking indexing.
    let Some(shard) = shards.get(si) else { return };
    if counted {
        let backlog = shard.inbound.fetch_add(1, Ordering::SeqCst) + 1;
        shard.counters.inbox_high_water.fetch_max(backlog, Ordering::Relaxed);
    }
    if route(&msg) == ShardRoute::EveryShard {
        for (_, other) in shards.iter().enumerate().filter(|(i, _)| *i != si) {
            let copy = Event::Deliver { from, msg: msg.clone(), counted: false, mirror: true };
            other.inbox.push(copy);
        }
    }
    // frames_routed is counted by the shard as it *applies* the
    // delivery, not here: a snapshot must never observe a routed frame
    // that has not yet been applied (events_applied ≥ frames_routed is
    // an invariant tests rely on).
    shard.inbox.push(Event::Deliver { from, msg, counted, mirror: false });
}

fn apply(
    pid: ProcessId,
    effects: Vec<HostEffect<Msg>>,
    shards: &[Shard],
    pool: &PeerPool,
    timers: &mut TimerHeap,
    completions: &Option<CompletionSink>,
    idle: bool,
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
                    route_delivery(shards, pid, msg, false);
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
                pool.send(to, frame, idle);
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
    use ares_core::shard::object_shard;
    use ares_dap::{DapBody, DapMsg, Hdr};
    use ares_types::{ConfigId, OpId, RpcId, Tag, Value};
    use std::sync::mpsc::{self, Receiver, Sender};

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
        assert!(q.pop_batch(&mut batch, None).is_some());
        assert_eq!(batch.len(), OUTBOUND_HIGH_WATER, "one drain takes the whole backlog");
        assert_eq!(batch[0].as_ref(), &5u32.to_be_bytes());
        q.close();
        // Closed queues drain what they hold, then end.
        batch.clear();
        assert!(q.pop_batch(&mut batch, None).is_none());
        q.push(frame_of(0)); // push-after-close is a no-op
        assert!(q.pop_batch(&mut batch, None).is_none());
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

    /// A loopback listener and a peer thread that accepts one
    /// connection and reads it to the end in 1–7,000-byte chunks,
    /// pausing 1 ms after every eighth read; returns what it read.
    fn choppy_peer() -> (SocketAddr, JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let (mut got, mut chunk, mut calls) = (Vec::new(), vec![0u8; 7_000], 0usize);
            loop {
                calls += 1;
                let want = 1 + calls * 2_654_435_761 % 7_000;
                match s.read(&mut chunk[..want]) {
                    Ok(0) => return got,
                    Ok(n) => got.extend_from_slice(&chunk[..n]),
                    Err(e) => panic!("read failed: {e}"),
                }
                if calls % 8 == 0 {
                    crate::sync::sleep(Duration::from_millis(1));
                }
            }
        });
        (addr, peer)
    }

    #[test]
    fn a_batch_arrives_byte_identical_through_short_writes() {
        // A peer that reads in odd-sized chunks with pauses: the writer
        // meets short writes and a full send buffer on the large batches.
        let frame = |len: usize, seed: u64| Value::filler(len, seed).bytes().clone();
        let mixed =
            vec![frame(100, 1), frame(50_000, 2), frame(9, 3), frame(66_000, 4), frame(1, 5)];
        let small = vec![frame(100, 6), frame(9_000, 7), frame(7_000, 8)];
        // 8 MiB is more than a loopback connection buffers (≈ 4 MiB).
        for batch in [mixed, small, vec![frame(8 << 20, 9)], vec![frame(40, 10)]] {
            let (addr, peer) = choppy_peer();
            let q = FrameQueue::new();
            for f in &batch {
                q.push(f.clone());
            }
            q.close();
            let counters = Arc::new(WriterCounters::default());
            writer_loop(ME, &AddrBook::new(), addr, q, counters.clone());
            assert!(peer.join().unwrap() == batch.concat(), "batch of {} frames", batch.len());
            assert_eq!(counters.batches_flushed.load(Ordering::Relaxed), 1, "one drained batch");
            assert_eq!(counters.frames_sent.load(Ordering::Relaxed), batch.len() as u64);
            if batch.iter().map(Bytes::len).sum::<usize>() == 8 << 20 {
                let writes = counters.socket_writes.load(Ordering::Relaxed);
                assert!(writes > 1, "8 MiB met no short write ({writes} writes)");
            }
        }
    }

    #[test]
    fn a_writer_behind_a_full_socket_parks_instead_of_spinning() {
        // 8 MiB to a peer that reads nothing for 100 ms: the writer fills
        // the send buffer, then waits in `ppoll` rather than retrying.
        let (peer, pool) = pool_to_peer(false);
        let big = Value::filler(8 << 20, 3).bytes().clone();
        pool.send(PEER, big.clone(), false);
        let mut conn = accept_within(&peer);
        let writes = || pool.counters.socket_writes.load(Ordering::Relaxed);
        let deadline = Instant::now() + Duration::from_secs(10);
        while writes() == 0 {
            assert!(Instant::now() < deadline, "the writer never wrote");
            crate::sync::sleep(Duration::from_millis(1));
        }
        crate::sync::sleep(Duration::from_millis(10));
        let before = writes();
        crate::sync::sleep(Duration::from_millis(100));
        let spent = writes() - before;
        assert!(spent <= 3, "{spent} writes while the peer read nothing");
        let mut got = vec![0u8; big.len()];
        conn.read_exact(&mut got).unwrap();
        assert!(big == got, "every byte arrived once the peer read");
        assert_eq!(pool.counters.frames_abandoned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn the_fin_peek_tells_a_live_connection_from_a_closed_or_reset_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // A nonblocking connection, as the writer holds it, and its peer.
        let pair = || {
            let s = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            s.set_nonblocking(true).unwrap();
            (s, listener.accept().unwrap().0)
        };
        // Waits until `s` reads as readable (a FIN or a reset counts)
        // without reading it, so the peek after sees what came first.
        let arrived = |s: &TcpStream, within: Duration| {
            let mut fds = [PollFd::readable(s)];
            crate::sys::ppoll(&mut fds, Some(within)).unwrap();
            fds[0].ready()
        };
        let (live, _peer) = pair();
        assert!(!arrived(&live, Duration::from_millis(20)));
        assert!(!peer_closed(&live), "an idle live connection");
        let (closed, peer) = pair();
        drop(peer);
        assert!(arrived(&closed, Duration::from_secs(10)));
        assert!(peer_closed(&closed), "a connection the peer closed");
        let (reset, peer) = pair();
        (&reset).write_all(b"unread").unwrap();
        peer.peek(&mut [0u8; 1]).unwrap(); // the byte is there, unread
        drop(peer); // closing with unread data resets the connection
        assert!(arrived(&reset, Duration::from_secs(10)));
        assert!(peer_closed(&reset), "a connection the peer reset");
    }

    #[test]
    fn the_read_buffer_grows_only_for_frames_that_fill_it() {
        let base = base(AddrBook::new());
        let shards = shard_table(1, vec![]);
        let mut net = Net::new(base.clone(), true);
        let mut peer = TcpStream::connect(base.local_addr).unwrap();
        // Polls until `n` more deliveries are in shard 0's inbox.
        let delivered = |net: &mut Net, n: usize| {
            let (mut got, mut taken) = (0, VecDeque::new());
            let deadline = Instant::now() + Duration::from_secs(10);
            while got < n {
                assert!(Instant::now() < deadline, "{got} of {n} frames went in");
                net.poll(&shards, None, Some(Duration::from_millis(10)));
                shards[0].inbox.take(&mut taken, false);
                shards[0].inbound.fetch_sub(taken.len(), Ordering::SeqCst);
                got += taken.drain(..).count();
            }
        };
        for i in 0..20 {
            peer.write_all(&codec::encode_frame(PEER, &write_msg(Value::filler(64, i)))).unwrap();
            delivered(&mut net, 1);
        }
        assert_eq!(net.buf.len(), 4096, "small frames keep one page");
        // δ + 1 = 3 coded elements of a 64 KiB value under [5, 3].
        let reply = |seed: u64| {
            let elem = (1usize << 16).div_ceil(3);
            let list = (0..3).map(|z| ares_dap::ListEntry {
                tag: Tag::new(z + 1, PEER),
                frag: Some(ares_codes::Fragment {
                    index: 4,
                    value_len: 1 << 16,
                    data: Value::filler(elem, seed + z).bytes().clone(),
                }),
            });
            let hdr = Hdr {
                cfg: ConfigId(0),
                obj: ObjectId(2),
                rpc: RpcId(3),
                op: OpId { client: ME, seq: 0 },
            };
            codec::encode_frame(
                PEER,
                &Msg::Dap(DapMsg::new(hdr, DapBody::TreasList(list.collect()))),
            )
        };
        peer.write_all(&reply(0)).unwrap();
        delivered(&mut net, 1);
        assert_eq!(net.buf.len(), codec::FRAME_READ_BUF, "a 64 KiB reply grows it to the cap");
        let writer = std::thread::spawn(move || {
            peer.write_all(&[reply(10), reply(20), reply(30)].concat()).unwrap();
            peer
        });
        delivered(&mut net, 3);
        assert_eq!(net.buf.len(), codec::FRAME_READ_BUF, "and no further");
        drop(writer.join().unwrap());
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
            pool.send(ProcessId(2), frame.clone(), true);
        }
        assert!(
            pool.queue(ProcessId(2)).len() <= OUTBOUND_HIGH_WATER,
            "unreachable peer must not accumulate frames past the high-water mark"
        );
        assert!(pool.queue(ProcessId(2)).dropped() > 0, "overflow drops, not growth");
        let evicted = pool.counters.evicted.load(Ordering::Relaxed);
        assert!(evicted > 0, "drop-oldest evictions must surface in the stats snapshot");
    }

    /// The peer every inline-send test writes to.
    const PEER: ProcessId = ProcessId(2);

    /// A listener for [`PEER`] and `ME`'s pool toward it, `ME` gray
    /// if `gray`.
    fn pool_to_peer(gray: bool) -> (TcpListener, Arc<PeerPool>) {
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = peer.local_addr().unwrap();
        let book = AddrBook::from_entries([(PEER, addr), (ME, addr)]);
        if gray {
            book.apply(&ares_sim::FaultAction::Grayify { pid: ME, factor: 2 });
        }
        (peer, pool(book))
    }

    /// Waits until `q`'s writer has parked with nothing left to do, its
    /// connection published.
    fn until_parked(q: &FrameQueue) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let st = crate::sync::lock(&q.state);
            if !st.busy && st.queue.is_empty() && st.tail.is_none() && q.ready.parked() > 0 {
                return;
            }
            drop(st);
            assert!(Instant::now() < deadline, "the writer never parked");
            std::thread::yield_now();
        }
    }

    /// Marks `q`'s connection as written just now, so a test of what an
    /// inline send writes does not hang on the scheduler.
    fn touch(q: &FrameQueue) {
        let mut st = crate::sync::lock(&q.state);
        let (_, at) = st.conn.as_mut().expect("a published connection");
        *at = Instant::now();
    }

    /// Accepts the next connection within 10 s.
    fn accept_within(listener: &TcpListener) -> TcpStream {
        listener.set_nonblocking(true).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match listener.accept() {
                Ok((s, _)) => {
                    s.set_nonblocking(false).unwrap();
                    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    return s;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "no connection came");
                    crate::sync::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("accept failed: {e}"),
            }
        }
    }

    #[test]
    fn an_idle_request_and_reply_wake_no_writer() {
        // The gate for both directions of an idle hop, over two real
        // hosts: `ME` asks `PEER` on every injected delivery and `PEER`
        // answers. Each loop reads the frame it is sent with one `read`
        // and writes its own frame itself, so no writer wakes.
        let bind = || TcpListener::bind("127.0.0.1:0").unwrap();
        let (me, peer) = (bind(), bind());
        let book = AddrBook::from_entries([
            (ME, me.local_addr().unwrap()),
            (PEER, peer.local_addr().unwrap()),
        ]);
        let book = Arc::new(book);
        let script = |from, ctx: &mut Ctx<'_, Msg>| match ctx.pid() {
            ME if from == PEER => {}
            ME => ctx.send(PEER, write_msg(Value::filler(8, 1))),
            _ => ctx.send(ME, write_msg(Value::filler(8, 2))),
        };
        let host = |pid, listener| {
            let base = HostBase::new(pid, listener, admission(), book.clone(), Instant::now(), 1);
            let base = base.unwrap();
            let (log, logged) = mpsc::channel();
            let actor = (Scripted { script, log }, None);
            (base.clone(), ShardedHost::start(base, vec![actor], None).unwrap(), logged)
        };
        let (a_base, a, replies) = host(ME, me);
        let (b_base, b, _) = host(PEER, peer);
        let ask = a.injector();
        let round = || {
            ask(ProcessId(0), write_msg(Value::filler(8, 3)));
            let within = Duration::from_secs(10);
            while replies.recv_timeout(within).expect("a reply") != Some(PEER) {}
        };
        // When the last round's frame was pushed: the connections' last
        // writes are later.
        let (mut last_push, mut idle_rounds) = (Instant::now(), 0);
        round(); // each host's writer connects and writes the first frame
        let (qa, qb) = (a.pool.queue(PEER), b.pool.queue(ME));
        let sockets = || {
            let (a, b) = (a_base.stats(None), b_base.stats(None));
            [a.socket_reads, b.socket_reads, a.socket_writes, b.socket_writes]
        };
        for _ in 0..200 {
            until_parked(&qa);
            until_parked(&qb);
            let (wakes, before) = ((qa.ready.wakes(), qb.ready.wakes()), sockets());
            let pushed = Instant::now();
            round();
            // A round the scheduler stretched past the window is not
            // idle by the rule, and proves nothing either way.
            if last_push.elapsed() < IDLE_BEFORE_PEEK {
                assert_eq!(
                    (qa.ready.wakes(), qb.ready.wakes()),
                    wakes,
                    "an idle hop woke a writer"
                );
                let spent: Vec<u64> = sockets().iter().zip(before).map(|(n, b)| n - b).collect();
                assert_eq!(spent, [1, 1, 1, 1], "reads at each end, then writes at each end");
                idle_rounds += 1;
            }
            last_push = pushed;
            if idle_rounds == 5 {
                break;
            }
        }
        assert_eq!(idle_rounds, 5, "five idle rounds within 200");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn a_connection_idle_past_the_peek_window_is_never_written_inline() {
        // The peer closes a connection that then sits idle: a frame
        // written into it would be lost without an error, so the next
        // one must go through the writer's FIN peek and a reconnection.
        let (peer, pool) = pool_to_peer(false);
        pool.send(PEER, frame_of(1), true);
        let mut first = accept_within(&peer);
        first.read_exact(&mut [0u8; 4]).unwrap();
        until_parked(&pool.queue(PEER));
        drop(first);
        crate::sync::sleep(2 * IDLE_BEFORE_PEEK);
        pool.send(PEER, frame_of(2), true);
        let mut got = [0u8; 4];
        accept_within(&peer).read_exact(&mut got).unwrap();
        assert_eq!(got, 2u32.to_be_bytes(), "the next frame arrives on the reconnection");
    }

    #[test]
    fn inline_and_queued_frames_arrive_in_order_through_a_partial_send() {
        let (peer, pool) = pool_to_peer(false);
        // More than a loopback connection buffers while nobody reads:
        // the inline send takes what fits, and the writer the rest.
        let big = Value::filler(8 << 20, 1).bytes().clone();
        let frames = [frame_of(0), big.clone(), frame_of(2), frame_of(3), frame_of(4), frame_of(5)];
        pool.send(PEER, frames[0].clone(), true); // no connection yet: the writer's
        let q = pool.queue(PEER);
        let mut conn = accept_within(&peer);
        until_parked(&q);
        touch(&q);
        let sent = q.send_inline(big).expect("a free, fresh connection is written inline");
        assert!(0 < sent && sent < frames[1].len(), "a partial send: {sent} bytes");
        pool.send(PEER, frames[2].clone(), true); // queued behind the tail
        pool.send(PEER, frames[3].clone(), false);
        let expected: Vec<u8> = frames.concat();
        let reader = std::thread::spawn(move || {
            let mut got = vec![0u8; expected.len()];
            conn.read_exact(&mut got).unwrap();
            assert!(got == expected, "every frame arrived whole and in order");
        });
        until_parked(&q);
        assert!(crate::sync::lock(&q.state).tail.is_none(), "the writer finished the tail");
        touch(&q);
        assert_eq!(q.send_inline(frames[4].clone()), Ok(4), "a whole inline send");
        pool.send(PEER, frames[5].clone(), false);
        reader.join().unwrap();
        assert_eq!(pool.counters.frames_abandoned.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_gray_host_writes_nothing_inline() {
        let (peer, pool) = pool_to_peer(true);
        pool.send(PEER, frame_of(1), true);
        let mut conn = accept_within(&peer);
        let q = pool.queue(PEER);
        for i in 2..5u32 {
            until_parked(&q);
            touch(&q);
            let wakes = q.ready.wakes();
            pool.send(PEER, frame_of(i), true);
            assert_eq!(q.ready.wakes(), wakes + 1, "a gray host's frame goes to the writer");
        }
        let mut got = [0u8; 16];
        conn.read_exact(&mut got).unwrap();
        assert_eq!(got.to_vec(), (1..5u32).flat_map(u32::to_be_bytes).collect::<Vec<_>>());
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
        apply(me, effects, &shards, &pool, &mut timers, &None, false);
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
        apply(me, effects, &shards, &pool, &mut timers, &None, false);
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
                while q.pop_batch(&mut batch, None).is_some() {
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
                while q.pop_batch(&mut batch, None).is_some() {
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
        // Shard 1 of a two-shard table runs no loop: the test consumes
        // its inbox. Shard 0's loop, the network loop, reads two peers.
        let shards = shard_table(2, vec![]);
        let full = &shards[1];
        let on = |s| (0..).map(ObjectId).find(|&o| object_shard(o, 2) == s).unwrap();
        let frame = |from, s| codec::encode_frame(ProcessId(from), &put(on(s)));
        for _ in 0..INBOUND_HIGH_WATER {
            route_delivery(&shards, ProcessId(7), put(on(1)), true);
        }
        let base = base(AddrBook::new());
        let (log, logged) = mpsc::channel();
        let actor = Scripted { script: |_, _| {}, log };
        let net = run_shard(base.clone(), actor, None, shards.clone(), None);
        let reads = || base.stats(None).socket_reads;
        let settle = || crate::sync::sleep(Duration::from_millis(50));
        let mut held = TcpStream::connect(base.local_addr).unwrap();
        held.write_all(&frame(1, 1)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reads() == 0 {
            assert!(Instant::now() < deadline, "the loop never read the frame");
            crate::sync::sleep(Duration::from_millis(1));
        }
        settle();
        assert_eq!(full.inbound.load(Ordering::SeqCst), INBOUND_HIGH_WATER, "the frame is held");
        // The held connection is not read: what the peer sends behind
        // the held frame stays in TCP, even for a shard with room.
        let read_before = reads();
        held.write_all(&frame(2, 0)).unwrap();
        settle();
        assert_eq!(reads(), read_before, "a held connection was read");
        assert!(logged.try_recv().is_err(), "a frame behind the held one went in");
        // Every other connection still flows.
        TcpStream::connect(base.local_addr).unwrap().write_all(&frame(3, 0)).unwrap();
        assert_eq!(logged.recv_timeout(Duration::from_secs(10)), Ok(Some(ProcessId(3))));
        // A local delivery is never held back, and is not counted.
        route_delivery(&shards, ProcessId(7), put(on(1)), false);
        assert_eq!(full.inbound.load(Ordering::SeqCst), INBOUND_HIGH_WATER);
        // Consume one as the shard loop does: the held frame goes in,
        // and the connection is read again behind it.
        let mut taken = VecDeque::new();
        full.inbox.take(&mut taken, false);
        full.inbound.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(logged.recv_timeout(Duration::from_secs(10)), Ok(Some(ProcessId(2))));
        assert_eq!(full.inbound.load(Ordering::SeqCst), INBOUND_HIGH_WATER);
        let counted = taken.iter().filter(|e| matches!(e, Event::Deliver { counted: true, .. }));
        assert_eq!(counted.count(), INBOUND_HIGH_WATER, "nothing went in past the mark");
        assert!(matches!(taken.back(), Some(Event::Deliver { counted: false, .. })), "local last");
        let mut rest = VecDeque::new();
        full.inbox.take(&mut rest, false);
        let went_in =
            |e: &Event| matches!(e, Event::Deliver { from, counted: true, .. } if from.0 == 1);
        assert!(
            matches!(&rest.iter().collect::<Vec<_>>()[..], [e] if went_in(e)),
            "the held frame"
        );
        assert_eq!(
            full.counters.inbox_high_water.load(Ordering::Relaxed),
            INBOUND_HIGH_WATER,
            "the peak backlog is recorded"
        );
        // A frame held when the life ends does not keep the loop alive.
        held.write_all(&frame(4, 1)).unwrap();
        settle();
        shards[0].inbox.push(Event::Shutdown);
        net.join().unwrap();
        assert_eq!(full.inbound.load(Ordering::SeqCst), INBOUND_HIGH_WATER, "it never went in");
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

    /// A put of `b"x"` to `obj`.
    fn put(obj: ObjectId) -> Msg {
        let hdr = Hdr { cfg: ConfigId(0), obj, rpc: RpcId(1), op: OpId { client: PEER, seq: 0 } };
        let body = DapBody::AbdWrite(Tag::new(1, PEER), Value::from_static(b"x"));
        Msg::Dap(DapMsg::new(hdr, body))
    }

    /// The pid of every test shard below.
    const ME: ProcessId = ProcessId(99);

    /// A table of `n` shards, shard 0's inbox already holding `queued`,
    /// its network deliveries counted.
    fn shard_table(n: usize, queued: Vec<Event>) -> Arc<[Shard]> {
        let shard = || Shard {
            inbox: Inbox::new().unwrap(),
            inbound: AtomicUsize::new(0),
            counters: Arc::default(),
        };
        let shards: Arc<[Shard]> = (0..n).map(|_| shard()).collect();
        for ev in queued {
            let counted = matches!(ev, Event::Deliver { counted: true, .. });
            shards[0].inbound.fetch_add(usize::from(counted), Ordering::SeqCst);
            shards[0].inbox.push(ev);
        }
        shards
    }

    fn one_shard(queued: Vec<Event>) -> Arc<[Shard]> {
        shard_table(1, queued)
    }

    /// `ME`'s outbound pool over `book`.
    fn pool(book: AddrBook) -> Arc<PeerPool> {
        PeerPool::new(ME, Arc::new(book), Arc::default())
    }

    /// Admits configuration 0 and any object.
    fn admission() -> Admission {
        let c0 = ares_types::Configuration::abd(ConfigId(0), vec![ME, PEER]);
        Admission { registry: ConfigRegistry::from_configs([c0]), objects: None }
    }

    /// `ME`'s base on a fresh loopback listener, reading `book`.
    fn base(book: AddrBook) -> Arc<HostBase> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        HostBase::new(ME, listener, admission(), Arc::new(book), Instant::now(), 1).unwrap()
    }

    /// Runs the real shard loop of `ME` for `actor` on its own thread:
    /// the network loop of `base`, serving shard 0 of `shards` (its
    /// self-sends loop back to it) and sending through a pool over the
    /// base's book.
    fn run_shard<A: Actor<Msg> + Send + 'static>(
        base: Arc<HostBase>,
        actor: A,
        wal: Option<ShardWal<A>>,
        shards: Arc<[Shard]>,
        completions: Option<CompletionSink>,
    ) -> JoinHandle<ShardState<A>> {
        let pool = PeerPool::new(ME, base.book.clone(), base.writers.clone());
        std::thread::spawn(move || event_loop(base, 0, actor, wal, shards, pool, completions))
    }

    /// What a [`Recorder`] logged: each delivery's sender, `None` per
    /// timer fire.
    type Logged = Receiver<Option<ProcessId>>;

    /// Starts a shard loop on `base` for a [`Recorder`] whose inbox
    /// already holds `queued`; returns the shard, the loop thread and
    /// the log.
    fn recorder_shard(
        base: Arc<HostBase>,
        delay: Time,
        echoes: u32,
        queued: Vec<Event>,
    ) -> (Arc<[Shard]>, JoinHandle<ShardState<Recorder>>, Logged) {
        let (log, logged) = mpsc::channel();
        let actor = Recorder { delay, echoes, armed: false, fired: false, log };
        let shards = one_shard(queued);
        let shard = run_shard(base, actor, None, shards.clone(), None);
        (shards, shard, logged)
    }

    /// A timer armed at once by a first local delivery with `backlog`
    /// network deliveries behind it, already in the inbox or, if
    /// `in_socket`, still in a connection to the loop: the log up to
    /// the timer's fire.
    fn log_until_timer(backlog: u32, echoes: u32, in_socket: bool) -> Vec<Option<ProcessId>> {
        let base = base(AddrBook::new());
        let mut queued = vec![deliver(0, false)];
        if in_socket {
            let mut peer = TcpStream::connect(base.local_addr).unwrap();
            for i in 1..=backlog {
                peer.write_all(&codec::encode_frame(ProcessId(i), &write_msg(Value::filler(1, 0))))
                    .unwrap();
            }
        } else {
            queued.extend((1..=backlog).map(|i| deliver(i, true)));
        }
        let (shards, shard, logged) = recorder_shard(base, 0, echoes, queued);
        let mut log = Vec::new();
        while log.last() != Some(&None) {
            log.push(logged.recv_timeout(Duration::from_secs(10)).expect("the due timer fired"));
        }
        shards[0].inbox.push(Event::Shutdown);
        shard.join().unwrap();
        log
    }

    fn senders_then_fire(backlog: u32) -> Vec<Option<ProcessId>> {
        (0..=backlog).map(|i| Some(ProcessId(i))).chain([None]).collect()
    }

    #[test]
    fn a_due_timer_waits_for_deliveries_already_queued() {
        // The deliveries sit in the socket, unread, when the timer falls
        // due: the loop reads them before it fires the timer.
        assert_eq!(
            log_until_timer(32, 0, true),
            senders_then_fire(32),
            "the timer fell due behind 32 waiting deliveries and fires after them"
        );
    }

    #[test]
    fn a_due_timer_is_not_starved_by_a_busy_inbox() {
        // Every delivery queues another behind it, so the inbox is never
        // empty: the timer must still fire once the 32 deliveries queued
        // when it fell due are applied, ahead of the echoes after them.
        assert_eq!(log_until_timer(32, 10_000, false), senders_then_fire(32));
    }

    #[test]
    fn a_restarted_shard_never_fires_a_timer_of_its_last_life() {
        // The arming delivery is queued ahead of the shutdown, so the
        // timer is armed in the first life and must die with it.
        let (_, first, logged) = recorder_shard(
            base(AddrBook::new()),
            50_000,
            0,
            vec![deliver(0, false), Event::Shutdown],
        );
        let (actor, wal) = first.join().unwrap();
        let shards = one_shard(vec![]);
        let second = run_shard(base(AddrBook::new()), actor, wal, shards.clone(), None);
        crate::sync::sleep(Duration::from_millis(200)); // well past the deadline
        shards[0].inbox.push(deliver(1, false));
        shards[0].inbox.push(Event::Shutdown);
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
        let shards = one_shard(vec![]);
        let shard = run_shard(base(book), actor, Some(wal), shards.clone(), None);
        let op = OpId { client: ProcessId(2), seq: 1 };
        let ballot = Ballot { round: 1, proposer: ProcessId(2) };
        let prepare = Msg::Con(ConMsg::Prepare { inst: ConfigId(0), rpc: RpcId(1), ballot, op });
        let hdr = Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(2), op };
        let query = Msg::Dap(DapMsg::new(hdr, DapBody::AbdQuery));
        for msg in [prepare, query] {
            shards[0].inbox.push(Event::Deliver {
                from: ProcessId(2),
                msg,
                counted: false,
                mirror: false,
            });
        }
        // One writer carries both replies in order: the first frame is
        // the query's, so the Prepare before it was never answered.
        let mut from_shard = std::io::BufReader::new(peer.accept().unwrap().0);
        let (_, reply) = codec::read_frame(&mut from_shard).unwrap().expect("a reply");
        assert!(
            matches!(&reply, Msg::Dap(m) if m.hdr.rpc == RpcId(2)),
            "a failed log must not promise, got {reply:?}"
        );
        shards[0].inbox.push(Event::Shutdown);
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
        let shards = one_shard(vec![deliver(1, false), Event::Shutdown]);
        let shard = run_shard(base(AddrBook::new()), actor, None, shards, None);
        let Err(err) = shard.join() else { panic!("the guard stops the loop at its first sleep") };
        let msg = err.downcast::<String>().expect("the guard's formatted message");
        assert!(msg.starts_with("a shard event loop must not block"), "{msg}");
    }

    #[test]
    fn a_gray_host_applies_frames_no_faster_than_its_delay() {
        // Gray factor 40: 2 ms per frame read. Ten frames sent at once
        // go in one per 2 ms at most, the first one included.
        const FRAMES: u32 = 10;
        let book = AddrBook::from_entries([(ME, "127.0.0.1:1".parse().unwrap())]);
        book.apply(&ares_sim::FaultAction::Grayify { pid: ME, factor: 40 });
        let slow = Duration::from_micros(book.gray_micros(ME));
        assert_eq!(slow, Duration::from_millis(2));
        let base = base(book);
        let (log, logged) = mpsc::channel();
        let shards = one_shard(vec![]);
        let actor = Scripted { script: |_, _| {}, log };
        let shard = run_shard(base.clone(), actor, None, shards.clone(), None);
        let frames: Vec<u8> = (1..=FRAMES)
            .flat_map(|i| codec::encode_frame(ProcessId(i), &write_msg(Value::filler(8, 1))))
            .collect();
        let sent = Instant::now();
        TcpStream::connect(base.local_addr).unwrap().write_all(&frames).unwrap();
        for i in 1..=FRAMES {
            let got =
                logged.recv_timeout(Duration::from_secs(10)).expect("a gray host still serves");
            assert_eq!(got, Some(ProcessId(i)), "in order");
        }
        let took = sent.elapsed();
        assert!(took >= slow * FRAMES, "{FRAMES} frames went in within {took:?}");
        shards[0].inbox.push(Event::Shutdown);
        shard.join().unwrap();
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
        let shards = one_shard(vec![]);
        let actor = Scripted { script, log };
        let shard = run_shard(base(book), actor, None, shards.clone(), Some(sink));
        let within = Duration::from_secs(10);
        for round in 1..=2 {
            shards[0].inbox.push(deliver(round, false));
            let mut got: Vec<_> =
                (0..3).map(|_| logged.recv_timeout(within).expect("the loop serves")).collect();
            got.sort();
            assert_eq!(got, [None, Some(ProcessId(round)), Some(ME)], "timer, delivery, self-send");
            assert_eq!(completed.recv_timeout(within).unwrap(), u64::from(round));
        }
        let mut from_peer = std::io::BufReader::new(peer.accept().unwrap().0);
        for _ in 1..=2 {
            assert_eq!(codec::read_frame(&mut from_peer).unwrap().expect("a frame").0, ME);
        }
        shards[0].inbox.push(Event::Shutdown);
        shard.join().expect("no effect blocked the loop");
    }
}
