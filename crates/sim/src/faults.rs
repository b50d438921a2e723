//! Scriptable fault plane: mid-run fault actions and their schedule.
//!
//! The paper's model (Section 2) is asynchronous message passing with
//! crash failures. The interesting adversaries for an erasure-coded
//! atomic store are not clean crashes but the messy regimes around them:
//! links that die in one direction only, nodes that stay alive but run
//! 10–100× slow (gray failures), channels that duplicate or reorder, and
//! churn — crash/recovery waves overlapping reconfigurations. A
//! [`FaultSchedule`] scripts those regimes against a deterministic
//! [`crate::World`]: every action fires at a simulated time, so a (seed,
//! schedule) pair replays bit-identically. It is the only way a fault
//! reaches a simulated run: crashes, recoveries and the duplication and
//! reorder rates included.

use ares_types::{ProcessId, Time};
use std::fmt;

/// One fault-plane mutation, applied atomically at its scheduled time.
///
/// Network actions mutate the [`crate::NetworkConfig`] owned by the
/// world; `Crash`/`Recover` act on the process itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Kill the directed link `from → to`: messages in that direction are
    /// dropped (at send and at delivery), the reverse direction is
    /// untouched. This is the asymmetric partition: A→B dead, B→A alive.
    CutLink {
        /// Sender side of the dead direction.
        from: ProcessId,
        /// Receiver side of the dead direction.
        to: ProcessId,
    },
    /// Kill both directions between `a` and `b`.
    CutBoth {
        /// One endpoint.
        a: ProcessId,
        /// The other endpoint.
        b: ProcessId,
    },
    /// Partition the named processes into groups: every link between two
    /// different groups is cut in both directions; links within a group —
    /// and links touching any process not named in a group — are
    /// untouched, so naming only a subset yields a *partial* partition.
    Partition {
        /// Disjoint process groups.
        groups: Vec<Vec<ProcessId>>,
    },
    /// Restore the directed link `from → to`.
    HealLink {
        /// Sender side.
        from: ProcessId,
        /// Receiver side.
        to: ProcessId,
    },
    /// Restore every cut link.
    HealAll,
    /// Turn `pid` gray: it keeps taking steps, but every message it sends
    /// or receives — and every timer it sets — is delayed `factor`×. The
    /// paper's failure detector cannot distinguish this from a slow
    /// asynchronous period, which is exactly the point.
    Grayify {
        /// The slow-but-alive process.
        pid: ProcessId,
        /// Delay inflation factor (10–100 for realistic gray failures).
        factor: u32,
    },
    /// Restore `pid` to normal speed.
    Ungray {
        /// The process to restore.
        pid: ProcessId,
    },
    /// Crash `pid` (it silently stops taking steps).
    Crash {
        /// The process to crash.
        pid: ProcessId,
    },
    /// Recover `pid` with the state it crashed with (repair-model hook).
    Recover {
        /// The process to recover.
        pid: ProcessId,
    },
    /// Set the probabilistic duplication rate (per mille of sends).
    SetDuplication {
        /// Duplication probability in 1/1000 units.
        per_mille: u32,
    },
    /// Set bounded reorder: with probability `per_mille`/1000 a message is
    /// held back an extra `1..=extra_max` time units, letting later sends
    /// overtake it.
    SetReorder {
        /// Reorder probability in 1/1000 units.
        per_mille: u32,
        /// Maximum extra holding delay.
        extra_max: Time,
    },
}

impl fmt::Display for FaultAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultAction::CutLink { from, to } => write!(f, "cut_link {from}->{to}"),
            FaultAction::CutBoth { a, b } => write!(f, "cut_both {a}<->{b}"),
            FaultAction::Partition { groups } => {
                write!(f, "partition")?;
                for g in groups {
                    write!(f, " [")?;
                    for (i, p) in g.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            FaultAction::HealLink { from, to } => write!(f, "heal_link {from}->{to}"),
            FaultAction::HealAll => write!(f, "heal_all"),
            FaultAction::Grayify { pid, factor } => write!(f, "grayify {pid} x{factor}"),
            FaultAction::Ungray { pid } => write!(f, "ungray {pid}"),
            FaultAction::Crash { pid } => write!(f, "crash {pid}"),
            FaultAction::Recover { pid } => write!(f, "recover {pid}"),
            FaultAction::SetDuplication { per_mille } => {
                write!(f, "set_duplication {per_mille}/1000")
            }
            FaultAction::SetReorder { per_mille, extra_max } => {
                write!(f, "set_reorder {per_mille}/1000 extra<={extra_max}")
            }
        }
    }
}

/// One scheduled fault: `action` at simulated time `at`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// When it fires.
    pub at: Time,
    /// What happens.
    pub action: FaultAction,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}: {}", self.at, self.action)
    }
}

/// A time-ordered script of fault actions, installed into a world with
/// [`crate::World::install_faults`].
///
/// The schedule is data, not behavior: it can be cloned, printed (each
/// event `Display`s as `t=500: cut_link p1->p4`) and embedded in
/// benchmark artifacts so a chaos run is replayable from (seed, schedule)
/// alone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// Sorted by time; events at one time keep their insertion order.
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` at simulated time `at`, after every event
    /// already scheduled at or before `at` (builder style).
    #[must_use]
    pub fn at(mut self, at: Time, action: FaultAction) -> Self {
        let i = self.events.partition_point(|e| e.at <= at);
        self.events.insert(i, FaultEvent { at, action });
        self
    }

    /// The scheduled faults, in the order they fire.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_and_describes() {
        let s = FaultSchedule::new()
            .at(100, FaultAction::CutLink { from: ProcessId(1), to: ProcessId(2) })
            .at(200, FaultAction::Grayify { pid: ProcessId(3), factor: 40 })
            .at(50, FaultAction::HealAll)
            .at(100, FaultAction::Ungray { pid: ProcessId(3) });
        let d: Vec<String> = s.events().iter().map(|e| e.to_string()).collect();
        assert_eq!(
            d,
            [
                "t=50: heal_all",
                "t=100: cut_link p1->p2",
                "t=100: ungray p3",
                "t=200: grayify p3 x40",
            ]
        );
    }

    #[test]
    fn partition_display_lists_groups() {
        let a = FaultAction::Partition {
            groups: vec![vec![ProcessId(1), ProcessId(2)], vec![ProcessId(3)]],
        };
        assert_eq!(a.to_string(), "partition [p1 p2] [p3]");
    }
}
