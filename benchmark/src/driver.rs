//! The load driver: one thread that submits generated commands to one
//! `NetStore`, polls their tickets, and records what it saw.
//!
//! One loop serves both load models. Open loop: an arrival is submitted
//! when it falls due — to session `i mod sessions`, whether or not that
//! session's previous operation has completed (the runtime queues it;
//! the generator never waits on a slow predecessor) — and its latency
//! is timed from the *scheduled* arrival. Closed loop: each session
//! submits its next command when its previous ticket completes, and
//! latency is timed from the submission.

use crate::gen::{value_seed, Arrivals, CommandStream, GenOp, PRELOAD_STREAM};
use crate::procfs::{self, ProcSample};
use crate::spec::{Load, Spec, CHURN_CHAIN, CHURN_PAUSE_US, CLIENT_PID};
use crate::stats::{sub_window_of, SLICES, SUB_WINDOWS};
use ares_core::store::{Store, StoreSession};
use ares_core::{ClientCmd, OpTicket};
use ares_net::testing::LocalCluster;
use ares_net::{NetSession, NetStore, NetTicket, NodeStats, WalConfig};
use ares_types::{ConfigId, OpCompletion, OpId, OpKind, Time};
use std::collections::BTreeSet;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// An operation that has not completed this long after its submission
/// is failed (and its session, in a closed loop, retired).
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// How long the drain after a window waits for stragglers.
pub const DRAIN: Duration = Duration::from_secs(2);
/// Longest sleep of the driver loop: bounds how late it notices a
/// timed-out operation or a phase edge when nothing completes.
const MAX_NAP_US: u64 = 50_000;
/// Spacing of the outbound-queue gauge samples in a traced window.
const GAUGE_EVERY_US: u64 = 100_000;

/// The ids of the operations currently in flight, shared with the
/// watchdog so a hung run can say what it was waiting for.
pub type Outstanding = Arc<Mutex<BTreeSet<OpId>>>;

/// What one timed window should do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untimed lead-in under the same load.
    pub warmup: Duration,
    /// The timed window (cut into [`SLICES`] slices).
    pub window: Duration,
    /// Trace the first and the last sub-window (see [`traced_sub_window`]).
    pub traced: bool,
}

/// Whether a traced window records spans in sub-window `i`: the outer
/// two of the four are traced, the inner two are not. Tracing overhead
/// is then a paired comparison inside one window on one deployment,
/// and a throughput that drifts steadily over the window cancels out
/// of it.
pub fn traced_sub_window(i: usize) -> bool {
    i == 0 || i == SUB_WINDOWS - 1
}

/// Every timestamp of one traced operation, µs on the store's
/// `now_micros()` clock. The four spans of the trace file are the gaps
/// between consecutive fields.
#[derive(Debug, Clone, Copy)]
pub struct OpSpans {
    /// The operation.
    pub op: OpId,
    /// Read or write.
    pub kind: OpKind,
    /// Scheduled arrival (open loop) or the submission (closed loop).
    pub due: Time,
    /// The driver called `submit`.
    pub submit: Time,
    /// The runtime invoked the operation (its session was free).
    pub invoked: Time,
    /// The runtime completed it.
    pub completed: Time,
    /// The driver's poll saw the completion.
    pub observed: Time,
}

/// Server-node counters at one instant.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    /// When, µs on the store clock.
    pub at: Time,
    /// `(server pid, counters)`, ascending by pid.
    pub nodes: Vec<(u32, NodeStats)>,
}

/// What a timed window produced.
#[derive(Debug, Default)]
pub struct WindowResult {
    /// Length of the timed window, seconds.
    pub secs: f64,
    /// Read latencies (µs) by slice of completion.
    pub reads: [Vec<u64>; SLICES],
    /// Write latencies (µs) by slice of completion.
    pub writes: [Vec<u64>; SLICES],
    /// Process CPU time (user + system, µs) at each of the
    /// `SLICES + 1` slice edges.
    pub cpu_at_edges: Vec<f64>,
    /// Latencies (µs) of the reconfigurations completed in the window.
    pub recons: Vec<u64>,
    /// Reads and writes submitted inside the window.
    pub attempted: u64,
    /// Of those, the ones that errored, timed out or were still
    /// outstanding after the drain.
    pub failed: u64,
    /// Operations submitted outside the window (warm-up) that failed.
    pub failed_outside: u64,
    /// Open loop: submission time minus due time (µs) of the window's
    /// arrivals.
    pub late: Vec<u64>,
    /// Completion instants (µs) of the window's reads and writes.
    pub completion_times: Vec<Time>,
    /// Process counters at the window's start and end.
    pub proc: (ProcSample, ProcSample),
    /// Peak resident set at the window's end, MiB.
    pub peak_rss_mib: f64,
    /// Each server node's counters at the window's `(start, end)`.
    pub nodes: Vec<(NodeStats, NodeStats)>,
    /// Traced: node counters at every sub-window edge (first and last
    /// included).
    pub edges: Vec<NodeSnapshot>,
    /// Traced: deepest per-peer outbound queue the gauge saw in the
    /// traced sub-windows.
    pub peer_queue_depth_max: u64,
    /// Traced: the spans of every read and write completed in a traced
    /// sub-window.
    pub spans: Vec<OpSpans>,
}

impl WindowResult {
    /// Reads and writes completed inside the window.
    pub fn completed(&self) -> u64 {
        self.reads.iter().chain(&self.writes).map(|s| s.len() as u64).sum()
    }

    /// Writes completed inside the window.
    pub fn writes_completed(&self) -> u64 {
        self.writes.iter().map(|s| s.len() as u64).sum()
    }

    /// Completions of reads and writes in slice `i`.
    pub fn completed_in_slice(&self, i: usize) -> u64 {
        (self.reads[i].len() + self.writes[i].len()) as u64
    }

    /// Completions of reads and writes in sub-window `i`.
    pub fn completed_in(&self, i: usize) -> u64 {
        (0..SLICES).filter(|&s| sub_window_of(s) == i).map(|s| self.completed_in_slice(s)).sum()
    }
}

/// The instants that delimit a run's phases, µs on the store clock.
#[derive(Debug, Clone, Copy)]
struct Edges {
    /// Warm-up ends, the timed window starts.
    warm_end: Time,
    /// The timed window ends (`warm_end + SLICES * slice_us`).
    win_end: Time,
    /// Length of one slice.
    slice_us: Time,
}

impl Edges {
    fn in_window(&self, at: Time) -> bool {
        (self.warm_end..self.win_end).contains(&at)
    }
}

/// One submitted, not yet completed read or write.
struct Pending {
    ticket: NetTicket,
    session: usize,
    /// Scheduled arrival (open loop) or submission (closed loop).
    due: Time,
    submit: Time,
}

/// The reconfiguring session of a churn workload.
struct Walker {
    next_target: u32,
    not_before: Time,
    ticket: Option<(NetTicket, Time)>,
}

/// A started deployment plus everything the run learns about it.
pub struct Driver<'a> {
    spec: &'a Spec,
    seed: u64,
    cluster: LocalCluster,
    sessions: Vec<NetSession>,
    recon_session: NetSession,
    outstanding: Outstanding,
    /// Every completion observed so far, for the atomicity check.
    pub history: Vec<OpCompletion>,
    /// Every read and write submitted so far, with the command it ran.
    pub issued: Vec<(OpId, GenOp)>,
    /// Seconds [`Driver::set_up`] took.
    pub setup_secs: f64,
}

impl<'a> Driver<'a> {
    /// Sets the workload up: starts the cluster, opens the sessions and
    /// writes every object once, so reads return real values. The time
    /// this takes is the run's set-up time.
    ///
    /// # Errors
    ///
    /// Socket or log-directory errors from cluster bring-up, or a
    /// preload write that does not complete.
    pub fn set_up(spec: &'a Spec, seed: u64, outstanding: Outstanding) -> io::Result<Self> {
        let started = Instant::now();
        let mut builder = LocalCluster::builder(spec.configs())
            .clients([CLIENT_PID])
            .objects(0..spec.objects)
            .shards(spec.shards);
        if spec.durable {
            builder = builder.durable(WalConfig::default());
        }
        let cluster = builder.start()?;
        let store = cluster.store(CLIENT_PID);
        store.set_op_timeout(OP_TIMEOUT);
        let sessions = (0..spec.sessions).map(|_| store.open_session()).collect();
        let recon_session = store.open_session();
        let mut driver = Driver {
            spec,
            seed,
            cluster,
            sessions,
            recon_session,
            outstanding,
            history: Vec::new(),
            issued: Vec::new(),
            setup_secs: 0.0,
        };
        driver.preload()?;
        driver.setup_secs = started.elapsed().as_secs_f64();
        Ok(driver)
    }

    fn store(&self) -> &NetStore {
        self.cluster.store(CLIENT_PID)
    }

    /// Tears the deployment down, returning the history it produced.
    pub fn shut_down(self) -> (Vec<OpCompletion>, Vec<(OpId, GenOp)>) {
        self.cluster.shutdown();
        (self.history, self.issued)
    }

    fn note_in_flight(&self, op: OpId) {
        self.outstanding.lock().unwrap_or_else(PoisonError::into_inner).insert(op);
    }

    fn note_done(&self, op: OpId) {
        self.outstanding.lock().unwrap_or_else(PoisonError::into_inner).remove(&op);
    }

    /// Submits `op` on session `session`, logging it for the checks.
    fn submit(&mut self, session: usize, op: GenOp) -> Option<NetTicket> {
        let ticket = self.sessions[session].submit(op.to_cmd(self.spec.value_size)).ok()?;
        self.issued.push((ticket.op(), op));
        self.note_in_flight(ticket.op());
        Some(ticket)
    }

    /// Submits `ops` spread over the sessions and waits for all of
    /// them (used outside timed windows: preload, recovery filler).
    fn run_batch(&mut self, ops: impl Iterator<Item = GenOp>) -> io::Result<()> {
        let mut tickets = Vec::new();
        for (i, op) in ops.enumerate() {
            let session = i % self.sessions.len();
            let ticket = self
                .submit(session, op)
                .ok_or_else(|| io::Error::other("store refused a command"))?;
            tickets.push(ticket);
        }
        for ticket in tickets {
            let op = ticket.op();
            let done = ticket.wait().map_err(|e| io::Error::other(e.to_string()))?;
            self.note_done(op);
            self.history.push(done);
        }
        Ok(())
    }

    fn preload(&mut self) -> io::Result<()> {
        let seed = self.seed;
        let ops = (0..self.spec.objects).map(move |obj| GenOp::Write {
            obj,
            value_seed: value_seed(seed, PRELOAD_STREAM, obj as u64),
        });
        self.run_batch(ops)
    }

    fn node_snapshot(&self) -> NodeSnapshot {
        let nodes = self
            .cluster
            .server_pids()
            .iter()
            .map(|p| (p.0, self.cluster.node_stats(p.0)))
            .collect();
        NodeSnapshot { at: self.store().now_micros(), nodes }
    }

    /// Runs warm-up, timed window and drain under the workload's load.
    pub fn run_window(&mut self, plan: Plan) -> WindowResult {
        let spec = self.spec;
        let slice_us = (plan.window.as_micros() as Time / SLICES as Time).max(1);
        let sub_us = slice_us * (SLICES / SUB_WINDOWS) as Time;
        let begin = self.store().now_micros();
        let warm_end = begin + plan.warmup.as_micros() as Time;
        let win_end = warm_end + slice_us * SLICES as Time;
        let edges = Edges { warm_end, win_end, slice_us };

        let mut out = WindowResult { secs: plan.window.as_secs_f64(), ..WindowResult::default() };
        let mut pending: Vec<Pending> = Vec::with_capacity(spec.sessions * 2);
        // Closed loop: one command stream per session, and which
        // sessions may submit. Open loop: one stream, one schedule.
        let closed = spec.load == Load::Closed;
        let mut streams: Vec<CommandStream> = (0..if closed { spec.sessions } else { 1 })
            .map(|s| CommandStream::new(self.seed, s as u32, spec.objects))
            .collect();
        let mut idle: Vec<usize> = if closed { (0..spec.sessions).rev().collect() } else { vec![] };
        let mut arrivals = match spec.load {
            Load::Open { rate_per_s } => Some(Arrivals::new(self.seed, rate_per_s)),
            Load::Closed => None,
        };
        let mut next_due = arrivals.as_mut().map(|a| begin + a.next_due_us());
        let mut arrival_no = 0usize;
        let mut walker =
            spec.churn.then_some(Walker { next_target: 1, not_before: begin, ticket: None });

        let mut in_window = false;
        let mut start_proc = ProcSample::default();
        let mut start_nodes = None;
        let mut next_slice = warm_end;
        let mut next_edge = warm_end;
        let mut next_gauge = warm_end;
        let mut seen = self.store().completions_routed();

        loop {
            let now = self.store().now_micros();
            if !in_window && now >= warm_end {
                in_window = true;
                start_proc = ProcSample::now();
                start_nodes = Some(self.node_snapshot());
            }
            // `while`: a loop that overslept an edge still records one
            // reading per edge, so readings and slices stay aligned.
            while in_window && now >= next_slice && out.cpu_at_edges.len() < SLICES {
                out.cpu_at_edges.push(ProcSample::cpu_us_now());
                next_slice += slice_us;
            }
            if plan.traced && in_window && now >= next_edge {
                out.edges.push(self.node_snapshot());
                next_edge += sub_us;
            }
            if plan.traced && in_window && now >= next_gauge {
                if traced_sub_window(sub_window_of(((now - warm_end) / slice_us) as usize)) {
                    out.peer_queue_depth_max =
                        out.peer_queue_depth_max.max(self.peer_queue_depth());
                }
                next_gauge += GAUGE_EVERY_US;
            }
            if now >= win_end {
                break;
            }

            self.sweep(&mut pending, &mut idle, plan.traced, edges, &mut out);
            if let Some(w) = walker.as_mut() {
                self.step_walker(w, now, edges, &mut out);
            }

            // Submissions falling due now.
            while let Some(due) = next_due.filter(|due| *due <= now) {
                let session = arrival_no % spec.sessions;
                arrival_no += 1;
                let op = streams[0].next_op();
                let submit = self.store().now_micros();
                self.offer(session, op, due, submit, edges, &mut pending, &mut out);
                if due >= warm_end {
                    out.late.push(submit.saturating_sub(due));
                }
                next_due = arrivals.as_mut().map(|a| begin + a.next_due_us());
            }
            while let Some(session) = idle.pop() {
                let op = streams[session].next_op();
                let submit = self.store().now_micros();
                self.offer(session, op, submit, submit, edges, &mut pending, &mut out);
            }

            // Sleep until a completion is routed or the next thing the
            // loop itself must do falls due.
            let mut wake = if in_window { next_slice.min(win_end) } else { warm_end };
            wake = wake.min(next_due.unwrap_or(Time::MAX));
            if let Some(w) = &walker {
                if w.ticket.is_none() && w.next_target <= CHURN_CHAIN {
                    wake = wake.min(w.not_before);
                }
            }
            if plan.traced && in_window {
                wake = wake.min(next_edge).min(next_gauge);
            }
            let now = self.store().now_micros();
            let nap = wake.saturating_sub(now).min(MAX_NAP_US);
            if nap > 0 {
                seen = self.store().wait_progress(seen, Duration::from_micros(nap));
            }
        }

        out.proc = (start_proc, ProcSample::now());
        out.cpu_at_edges.push(out.proc.1.user_us + out.proc.1.sys_us);
        out.peak_rss_mib = procfs::peak_rss_mib();
        let end_nodes = self.node_snapshot();
        if let Some(start) = start_nodes {
            let ends = end_nodes.nodes.iter().map(|(_, stats)| stats.clone());
            out.nodes = start.nodes.into_iter().map(|(_, stats)| stats).zip(ends).collect();
        }
        if plan.traced {
            out.edges.push(end_nodes);
        }

        // Drain: nothing new is submitted; stragglers get DRAIN to land.
        let drain_end = Instant::now() + DRAIN;
        while !pending.is_empty() || walker.as_ref().is_some_and(|w| w.ticket.is_some()) {
            if Instant::now() >= drain_end {
                break;
            }
            seen = self.store().wait_progress(seen, Duration::from_millis(10));
            self.sweep(&mut pending, &mut idle, plan.traced, edges, &mut out);
            if let Some(w) = walker.as_mut() {
                // Past `win_end` the walker only collects; it issues
                // nothing new.
                let now = self.store().now_micros();
                self.step_walker(w, now, edges, &mut out);
            }
        }
        for p in pending {
            fail(p.submit, edges, &mut out);
        }
        out
    }

    /// Submits one read or write and books it.
    #[allow(clippy::too_many_arguments)]
    fn offer(
        &mut self,
        session: usize,
        op: GenOp,
        due: Time,
        submit: Time,
        edges: Edges,
        pending: &mut Vec<Pending>,
        out: &mut WindowResult,
    ) {
        if submit >= edges.warm_end {
            out.attempted += 1;
        }
        match self.submit(session, op) {
            Some(ticket) => pending.push(Pending { ticket, session, due, submit }),
            // A refused command never gets a ticket; its session (closed
            // loop) stays retired.
            None => fail(submit, edges, out),
        }
    }

    /// Polls every pending ticket once. A closed-loop session whose
    /// operation completed goes back on `idle`; one whose operation
    /// failed is retired (its stuck operation still occupies it).
    fn sweep(
        &mut self,
        pending: &mut Vec<Pending>,
        idle: &mut Vec<usize>,
        traced: bool,
        edges: Edges,
        out: &mut WindowResult,
    ) {
        let closed = self.spec.load == Load::Closed;
        let now = self.store().now_micros();
        let mut i = 0;
        while i < pending.len() {
            let Some(result) = pending[i].ticket.try_wait() else {
                if now.saturating_sub(pending[i].submit) > OP_TIMEOUT.as_micros() as Time {
                    let p = pending.swap_remove(i);
                    self.note_done(p.ticket.op());
                    fail(p.submit, edges, out);
                } else {
                    i += 1;
                }
                continue;
            };
            let p = pending.swap_remove(i);
            self.note_done(p.ticket.op());
            let Ok(done) = result else {
                fail(p.submit, edges, out);
                continue;
            };
            if closed {
                idle.push(p.session);
            }
            if edges.in_window(done.completed_at) {
                let slice = ((done.completed_at - edges.warm_end) / edges.slice_us) as usize;
                let latency = done.completed_at.saturating_sub(p.due);
                match done.kind {
                    OpKind::Read => out.reads[slice].push(latency),
                    _ => out.writes[slice].push(latency),
                }
                out.completion_times.push(done.completed_at);
                if traced && traced_sub_window(sub_window_of(slice)) {
                    out.spans.push(OpSpans {
                        op: done.op,
                        kind: done.kind,
                        due: p.due,
                        submit: p.submit,
                        invoked: done.invoked_at,
                        completed: done.completed_at,
                        observed: self.store().now_micros(),
                    });
                }
            }
            self.history.push(done);
        }
    }

    /// Advances the churn session: collects a finished reconfiguration,
    /// issues the next one once the pause has passed.
    fn step_walker(&mut self, w: &mut Walker, now: Time, edges: Edges, out: &mut WindowResult) {
        if let Some((ticket, submit)) = w.ticket.as_mut() {
            let submit = *submit;
            match ticket.try_wait() {
                Some(Ok(done)) => {
                    self.note_done(done.op);
                    if edges.in_window(done.completed_at) {
                        out.recons.push(done.latency());
                    }
                    w.not_before = done.completed_at + CHURN_PAUSE_US;
                    self.history.push(done);
                    w.ticket = None;
                }
                Some(Err(_)) => {
                    out.failed_outside += 1;
                    w.ticket = None;
                }
                None if now.saturating_sub(submit) > OP_TIMEOUT.as_micros() as Time => {
                    // A stuck reconfiguration blocks its session for
                    // good: stop walking.
                    out.failed_outside += 1;
                    w.ticket = None;
                    w.next_target = CHURN_CHAIN + 1;
                }
                None => {}
            }
        }
        if w.ticket.is_none()
            && w.next_target <= CHURN_CHAIN
            && now >= w.not_before
            && now < edges.win_end
        {
            let target = ConfigId(w.next_target);
            w.next_target += 1;
            match self.recon_session.submit(ClientCmd::Recon { target }) {
                Ok(ticket) => {
                    self.note_in_flight(ticket.op());
                    w.ticket = Some((ticket, now));
                }
                Err(_) => out.failed_outside += 1,
            }
        }
    }

    fn peer_queue_depth(&self) -> u64 {
        self.cluster
            .server_pids()
            .iter()
            .flat_map(|p| self.cluster.node_stats(p.0).peers)
            .map(|peer| peer.queue_depth as u64)
            .max()
            .unwrap_or(0)
    }

    /// Reads up to `n` objects once more, so the checked history ends
    /// with reads taken after everything else the run did.
    ///
    /// # Errors
    ///
    /// A read that is refused or does not complete.
    pub fn closing_reads(&mut self, n: u32) -> io::Result<()> {
        self.run_batch((0..n.min(self.spec.objects)).map(|obj| GenOp::Read { obj }))
    }

    /// Crash recovery on a durable deployment: kills server `pid`,
    /// runs `filler_ops` more commands against the remaining quorum,
    /// restarts the server from its logs. Returns the restart's wall
    /// time in ms and the journal records it replayed.
    ///
    /// # Errors
    ///
    /// A filler command or the recovery itself failing.
    pub fn crash_and_recover(&mut self, pid: u32, filler_ops: usize) -> io::Result<(f64, u64)> {
        self.cluster.kill(pid);
        let mut stream = CommandStream::new(self.seed, PRELOAD_STREAM - 1, self.spec.objects);
        self.run_batch((0..filler_ops).map(move |_| stream.next_op()))?;
        let started = Instant::now();
        let reports = self.cluster.restart_recovered(pid)?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        Ok((ms, reports.iter().map(|r| r.records_replayed).sum()))
    }
}

/// Books an operation that did not complete: against the window if it
/// was submitted there, else against the run.
fn fail(submit: Time, edges: Edges, out: &mut WindowResult) {
    if submit >= edges.warm_end {
        out.failed += 1;
    } else {
        out.failed_outside += 1;
    }
}
