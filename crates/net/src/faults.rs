//! Live-cluster fault injection: the per-host switchboard the
//! simulator's link and gray faults are projected onto.
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
//! `testing::LocalCluster::apply` sets them from an `ares_sim::FaultAction`
//! run through the simulator's own `NetworkConfig`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use ares_types::ProcessId;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

    /// Replaces both cut sets — empty sets restore every link of this
    /// host (slow-down is separate) — and refreshes the fast-path flag.
    pub(crate) fn set_cuts(&self, outbound: HashSet<ProcessId>, inbound: HashSet<ProcessId>) {
        let active = !outbound.is_empty() || !inbound.is_empty();
        let mut cuts = crate::sync::lock(&self.cuts);
        *cuts = Cuts { outbound, inbound };
        self.cuts_active.store(active as u64, Ordering::SeqCst);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controls_cut_and_heal() {
        let c = FaultControls::new();
        assert!(!c.drop_outbound(ProcessId(2)));
        c.set_cuts(HashSet::from([ProcessId(2)]), HashSet::from([ProcessId(3)]));
        assert!(c.drop_outbound(ProcessId(2)));
        assert!(!c.drop_outbound(ProcessId(3)), "outbound cut is per-peer");
        assert!(c.drop_inbound(ProcessId(3)));
        assert!(!c.drop_inbound(ProcessId(2)), "directions are independent");
        assert_eq!(c.frames_cut(), 2);
        c.set_cuts(HashSet::new(), HashSet::new());
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
}
