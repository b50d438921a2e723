//! The crash-recovery A/B (experiment E16): replay-then-delta-repair
//! vs repair-from-zero.
//!
//! Both legs run the same scripted incident against a durable loopback
//! TREAS cluster: populate every object, crash one server, write a
//! delta to a few objects while it is down, then bring it back and
//! measure how long it takes the node to stop receiving recovery
//! traffic.
//!
//! * **replay_delta** — [`LocalCluster::restart_recovered`]: the node
//!   replays its per-shard write-ahead logs locally, then its repair
//!   queries announce the replayed tags so peers ship only the delta;
//! * **repair_from_zero** — [`LocalCluster::restart_blank`] plus a
//!   repair trigger per object: the seed's lost-disk path, where peers
//!   ship *every* object's coded elements and the node re-decodes and
//!   re-encodes all of them.
//!
//! Every leg's completion history (populate, delta, post-recovery
//! reads) feeds `ares_harness::check_atomicity` — the bench is itself
//! safety-checked.

use ares_core::store::{OpError, OpTicket, Store, StoreSession};
use ares_net::testing::LocalCluster;
use ares_net::{NetTicket, WalConfig};
use ares_types::{ConfigId, Configuration, ObjectId, OpCompletion, ProcessId, Value};
use std::io;
use std::time::{Duration, Instant};

/// The scripted incident both recovery modes replay.
#[derive(Debug, Clone)]
pub struct RecoverySpec {
    /// Objects in the deployment (all populated before the crash).
    pub objects: usize,
    /// Writes per object before the crash.
    pub writes_per_object: usize,
    /// Objects written (once each) while the node is down — the delta
    /// only repair can recover.
    pub delta_objects: usize,
    /// Value size in bytes.
    pub value_size: usize,
    /// Seed for the (globally unique) write values.
    pub seed: u64,
}

impl RecoverySpec {
    /// Full-size incident: enough state that shipping it all over the
    /// wire is clearly visible next to replaying it from local disk.
    pub fn full() -> Self {
        RecoverySpec {
            objects: 64,
            writes_per_object: 3,
            delta_objects: 8,
            value_size: 512 * 1024,
            seed: 41,
        }
    }

    /// CI-smoke sizing (a couple of seconds).
    pub fn quick() -> Self {
        RecoverySpec {
            objects: 8,
            writes_per_object: 3,
            delta_objects: 2,
            value_size: 64 * 1024,
            seed: 41,
        }
    }
}

/// How the crashed node comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Replay the write-ahead log, then repair only the delta.
    ReplayDelta,
    /// Blank restart plus full fragment repair of every object.
    RepairFromZero,
}

impl RecoveryMode {
    /// Stable label for reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryMode::ReplayDelta => "replay_delta",
            RecoveryMode::RepairFromZero => "repair_from_zero",
        }
    }
}

/// Outcome of one recovery leg.
pub struct RecoveryRunReport {
    /// Which recovery path ran.
    pub mode: RecoveryMode,
    /// Wall-clock seconds from the restart call until the node's
    /// counters quiesced (replay + repair traffic drained).
    pub recovery_secs: f64,
    /// WAL records replayed (0 in repair-from-zero).
    pub records_replayed: u64,
    /// Network frames routed to the recovering node during recovery.
    pub recovery_frames: u64,
    /// The recovering node's WAL counter snapshot at the end.
    pub wal: Option<ares_net::WalStats>,
    /// The leg's full completion history, for atomicity checking.
    pub completions: Vec<OpCompletion>,
}

impl RecoveryRunReport {
    /// Panics unless the recorded history is atomic.
    pub fn assert_atomic(&self) {
        ares_harness::check_atomicity(&self.completions).assert_atomic();
    }
}

/// The crashed server. Not a quorum pivot: TREAS [5,3] quorums survive
/// without it, so the cluster serves throughout the incident.
const VICTIM: u32 = 3;

fn treas53() -> Vec<Configuration> {
    vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)]
}

/// Waits until the node's recovery traffic has demonstrably finished:
/// at least `min_new_frames` inbound frames since `base_frames` (the
/// repair protocol owes a quorum of Lists replies per object, so a
/// too-early "all quiet" sample cannot be mistaken for completion),
/// and then the counters stable across consecutive observations.
fn quiesce_node(cluster: &LocalCluster, pid: u32, base_frames: u64, min_new_frames: u64) {
    let fingerprint = |s: &ares_net::NodeStats| (s.frames_routed(), s.events_applied());
    let mut last = fingerprint(&cluster.node_stats(pid));
    let mut stable = 0u32;
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let cur = fingerprint(&cluster.node_stats(pid));
        if cur == last && cur.0 >= base_frames + min_new_frames {
            stable += 1;
            if stable >= 3 {
                return;
            }
        } else {
            stable = 0;
        }
        last = cur;
    }
}

/// Blocks until a just-submitted operation completes (the bench's
/// liveness gate: an operation that fails outright panics).
fn done(ticket: Result<NetTicket, OpError>) -> OpCompletion {
    ticket.expect("submitted").wait().expect("completed")
}

/// Runs one leg of the incident in `mode`.
///
/// # Errors
///
/// Propagates socket and log-recovery errors from cluster bring-up and
/// restart.
///
/// # Panics
///
/// Panics if an operation fails outright (the bench's liveness gate).
pub fn run_recovery(spec: &RecoverySpec, mode: RecoveryMode) -> io::Result<RecoveryRunReport> {
    let cluster = LocalCluster::builder(treas53())
        .clients([100, 110])
        .objects(0..spec.objects as u32)
        .durable(WalConfig::default())
        .start()?;
    let mut writer = cluster.store(100).open_session();
    let mut reader = cluster.store(110).open_session();
    let mut completions = Vec::new();

    // Populate: every object, writes_per_object times, unique values.
    for obj in 0..spec.objects as u32 {
        for w in 0..spec.writes_per_object as u64 {
            let vseed = spec.seed ^ ((u64::from(obj) + 1) << 32) ^ ((w + 1) << 8);
            completions
                .push(done(writer.write(ObjectId(obj), Value::filler(spec.value_size, vseed))));
        }
    }

    cluster.kill(VICTIM);
    // The delta: written while the victim is down.
    for obj in 0..spec.delta_objects.min(spec.objects) as u32 {
        let vseed = spec.seed ^ ((u64::from(obj) + 1) << 32) ^ (1 << 24);
        completions.push(done(writer.write(ObjectId(obj), Value::filler(spec.value_size, vseed))));
    }

    let before = cluster.node_stats(VICTIM);
    let t0 = Instant::now();
    let records_replayed = match mode {
        RecoveryMode::ReplayDelta => {
            cluster.restart_recovered(VICTIM)?.iter().map(|r| r.records_replayed).sum()
        }
        RecoveryMode::RepairFromZero => {
            cluster.restart_blank(VICTIM);
            for obj in 0..spec.objects as u32 {
                cluster.trigger_repair(VICTIM, 0, obj);
            }
            0
        }
    };
    // Each per-object repair completes at quorum − 1 = 3 peer replies
    // (TREAS [5,3]): recovery cannot be "quiet" before those arrived.
    quiesce_node(&cluster, VICTIM, before.frames_routed(), spec.objects as u64 * 3);
    let recovery_secs = t0.elapsed().as_secs_f64();
    let after = cluster.node_stats(VICTIM);

    // Post-recovery reads: every delta object must serve its newest
    // value through the healed cluster.
    for obj in 0..spec.delta_objects.min(spec.objects) as u32 {
        let vseed = spec.seed ^ ((u64::from(obj) + 1) << 32) ^ (1 << 24);
        let r = done(reader.read(ObjectId(obj)));
        assert_eq!(
            r.value_digest,
            Some(Value::filler(spec.value_size, vseed).digest()),
            "object {obj} serves the delta write after {} recovery",
            mode.label()
        );
        completions.push(r);
    }
    let wal = after.wal;
    let recovery_frames = after.frames_routed().saturating_sub(before.frames_routed());
    cluster.shutdown();
    Ok(RecoveryRunReport {
        mode,
        recovery_secs,
        records_replayed,
        recovery_frames,
        wal,
        completions,
    })
}
