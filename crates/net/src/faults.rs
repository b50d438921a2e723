//! Live-cluster fault injection: the TCP mirror of the simulator's
//! fault plane.
//!
//! Each host (server node or client store) carries one [`FaultControls`]
//! consulted on the wire paths: the outbound pool drops frames to cut
//! peers before they reach a writer queue, reader threads drop frames
//! from cut peers after decode (the connection survives — this is a
//! *link* fault, not a crash), and a per-frame delay throttles both
//! directions to make a node gray (slow-but-alive). The controls are
//! plain shared state — no protocol logic consults them, so every
//! execution with faults enabled is still an execution the asynchronous
//! model allows (messages delayed or lost).
//!
//! [`ClusterFault`] and [`FaultScript`] are the scriptable layer:
//! `testing::LocalCluster` applies them, and load generators drive a
//! script thread against a running workload.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use ares_types::ProcessId;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Per-host fault switchboard, shared with the host's reader threads
/// and outbound pool. All methods are cheap and thread-safe; the hot
/// path (no faults active) costs two atomic loads and no locks.
pub(crate) struct FaultControls {
    cuts: Mutex<Cuts>,
    /// Nonzero while either cut set is non-empty (lock-free fast path).
    cuts_active: AtomicU64,
    /// Per-frame injected latency in µs (gray node); 0 = healthy.
    slow_micros: AtomicU64,
    /// Frames dropped by the cut sets (both directions).
    frames_cut: AtomicU64,
}

/// The cut links of one host, under one lock.
#[derive(Default)]
struct Cuts {
    /// Peers this host must not *send* to (frames dropped at the pool).
    outbound: HashSet<ProcessId>,
    /// Peers this host must not *hear* (frames dropped after decode).
    inbound: HashSet<ProcessId>,
}

impl FaultControls {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(FaultControls {
            cuts: Mutex::new(Cuts::default()),
            cuts_active: AtomicU64::new(0),
            slow_micros: AtomicU64::new(0),
            frames_cut: AtomicU64::new(0),
        })
    }

    /// Applies `change` to the cut sets and refreshes the fast-path flag.
    fn update(&self, change: impl FnOnce(&mut Cuts)) {
        let mut cuts = crate::sync::lock(&self.cuts);
        change(&mut cuts);
        let active = !cuts.outbound.is_empty() || !cuts.inbound.is_empty();
        self.cuts_active.store(active as u64, Ordering::SeqCst);
    }

    /// Cuts this host's sends toward `peers`.
    pub(crate) fn cut_outbound(&self, peers: impl IntoIterator<Item = ProcessId>) {
        self.update(|c| c.outbound.extend(peers));
    }

    /// Cuts this host's reception of frames from `peers`.
    pub(crate) fn cut_inbound(&self, peers: impl IntoIterator<Item = ProcessId>) {
        self.update(|c| c.inbound.extend(peers));
    }

    /// Restores every cut link of this host (slow-down is separate).
    pub(crate) fn heal(&self) {
        self.update(|c| *c = Cuts::default());
    }

    /// Sets the per-frame injected latency (0 restores full speed).
    pub(crate) fn set_slow(&self, micros: u64) {
        self.slow_micros.store(micros, Ordering::SeqCst);
    }

    /// Current per-frame injected latency in µs.
    pub(crate) fn slow_micros(&self) -> u64 {
        self.slow_micros.load(Ordering::SeqCst)
    }

    /// Whether a frame *to* `to` must be dropped (and counts it).
    pub(crate) fn drop_outbound(&self, to: ProcessId) -> bool {
        if self.cuts_active.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let cut = crate::sync::lock(&self.cuts).outbound.contains(&to);
        if cut {
            self.frames_cut.fetch_add(1, Ordering::Relaxed);
        }
        cut
    }

    /// Whether a frame *from* `from` must be dropped (and counts it).
    pub(crate) fn drop_inbound(&self, from: ProcessId) -> bool {
        if self.cuts_active.load(Ordering::SeqCst) == 0 {
            return false;
        }
        let cut = crate::sync::lock(&self.cuts).inbound.contains(&from);
        if cut {
            self.frames_cut.fetch_add(1, Ordering::Relaxed);
        }
        cut
    }

    /// Total frames dropped by cut links on this host.
    pub(crate) fn frames_cut(&self) -> u64 {
        self.frames_cut.load(Ordering::Relaxed)
    }
}

/// One cluster-level fault action, applied by
/// `testing::LocalCluster::apply_fault`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterFault {
    /// Cut every link between group `a` and group `b`, both directions.
    Partition {
        /// One side (server or client pids).
        a: Vec<u32>,
        /// The other side.
        b: Vec<u32>,
    },
    /// Cut only the `from → to` direction: senders in `from` cannot
    /// reach receivers in `to`, while `to → from` traffic still flows —
    /// the asymmetric partition a failing NIC queue or one-way routing
    /// loss produces.
    OneWay {
        /// Sender side of the dead direction.
        from: Vec<u32>,
        /// Receiver side of the dead direction.
        to: Vec<u32>,
    },
    /// Restore every cut link on every host.
    Heal,
    /// Make `pid` gray: every frame it reads or writes pays an extra
    /// `delay_micros` of latency, but it never stops serving.
    Slow {
        /// The slow-but-alive process (server or client).
        pid: u32,
        /// Injected per-frame latency in µs.
        delay_micros: u64,
    },
    /// Restore `pid` to full speed.
    Unslow {
        /// The process to restore.
        pid: u32,
    },
    /// Crash-stop server `pid` (frames and timers dropped).
    Kill {
        /// The server to kill.
        pid: u32,
    },
    /// Restart server `pid` with retained state.
    Restart {
        /// The server to restart.
        pid: u32,
    },
}

fn fmt_pids(f: &mut fmt::Formatter<'_>, pids: &[u32]) -> fmt::Result {
    write!(f, "[")?;
    for (i, p) in pids.iter().enumerate() {
        if i > 0 {
            write!(f, " ")?;
        }
        write!(f, "p{p}")?;
    }
    write!(f, "]")
}

impl fmt::Display for ClusterFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterFault::Partition { a, b } => {
                write!(f, "partition ")?;
                fmt_pids(f, a)?;
                write!(f, " <-x-> ")?;
                fmt_pids(f, b)
            }
            ClusterFault::OneWay { from, to } => {
                write!(f, "oneway ")?;
                fmt_pids(f, from)?;
                write!(f, " -x-> ")?;
                fmt_pids(f, to)
            }
            ClusterFault::Heal => write!(f, "heal"),
            ClusterFault::Slow { pid, delay_micros } => {
                write!(f, "slow p{pid} +{delay_micros}us/frame")
            }
            ClusterFault::Unslow { pid } => write!(f, "unslow p{pid}"),
            ClusterFault::Kill { pid } => write!(f, "kill p{pid}"),
            ClusterFault::Restart { pid } => write!(f, "restart p{pid}"),
        }
    }
}

/// A wall-clock fault script: offsets are measured from the moment
/// `testing::LocalCluster::run_script` is called, so a driver starts the
/// workload and the script together and the faults land mid-run.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    /// `(offset from script start, action)`, in insertion order.
    pub steps: Vec<(Duration, ClusterFault)>,
}

impl FaultScript {
    /// Empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `fault` at `offset` from script start (builder style).
    #[must_use]
    pub fn at(mut self, offset: Duration, fault: ClusterFault) -> Self {
        self.steps.push((offset, fault));
        self
    }

    /// Human/JSON-readable one-line-per-step rendering.
    pub fn describe(&self) -> Vec<String> {
        self.steps.iter().map(|(o, a)| format!("t={}us: {a}", o.as_micros())).collect()
    }

    /// Number of scheduled steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the script is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controls_cut_and_heal() {
        let c = FaultControls::new();
        assert!(!c.drop_outbound(ProcessId(2)));
        c.cut_outbound([ProcessId(2)]);
        c.cut_inbound([ProcessId(3)]);
        assert!(c.drop_outbound(ProcessId(2)));
        assert!(!c.drop_outbound(ProcessId(3)), "outbound cut is per-peer");
        assert!(c.drop_inbound(ProcessId(3)));
        assert!(!c.drop_inbound(ProcessId(2)), "directions are independent");
        assert_eq!(c.frames_cut(), 2);
        c.heal();
        assert!(!c.drop_outbound(ProcessId(2)));
        assert!(!c.drop_inbound(ProcessId(3)));
        assert_eq!(c.frames_cut(), 2, "heal does not reset the counter");
    }

    #[test]
    fn slow_is_settable_and_clearable() {
        let c = FaultControls::new();
        assert_eq!(c.slow_micros(), 0);
        c.set_slow(1500);
        assert_eq!(c.slow_micros(), 1500);
        c.set_slow(0);
        assert_eq!(c.slow_micros(), 0);
    }

    #[test]
    fn script_describes_steps() {
        let s = FaultScript::new()
            .at(Duration::from_millis(5), ClusterFault::OneWay { from: vec![100], to: vec![1, 2] })
            .at(Duration::from_millis(20), ClusterFault::Heal);
        assert_eq!(s.len(), 2);
        assert_eq!(s.describe()[0], "t=5000us: oneway [p100] -x-> [p1 p2]");
        assert_eq!(s.describe()[1], "t=20000us: heal");
    }
}
