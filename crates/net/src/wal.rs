//! Per-shard durability for the TCP runtime: the checkpoint wire
//! encoding, the journaling side-car each shard event loop drives, and
//! the replay-then-delta-repair recovery path for [`ServerActor`].
//!
//! ## What is journaled
//!
//! A shard's log records exactly the messages whose delivery mutates
//! durable server state ([`Msg::journaled`]): DAP writes, acceptor
//! promises/accepts/decides, and `nextC` installs. Queries, replies and
//! repair traffic are not journaled — they either mutate nothing or are
//! re-derived by the repair protocol. The record payload *is* the wire
//! encoding of the delivered message ([`codec::encode_payload`]), so
//! the log format inherits the codec's strict bounds-checked decoding
//! and replay is literally re-delivery through `on_message`.
//!
//! ## Why prefix replay is safe
//!
//! Recovery may replay only a prefix of what was journaled (a torn
//! tail is truncated; a corrupt mid-log frame stops replay early).
//! Every journaled update is a monotone merge — tag-ordered DAP
//! writes, ballot-ordered promises, `⊥ → Pending → Finalized` config
//! installs — so dropping a suffix loses recency, never consistency.
//! The recovering node is then exactly a server that missed those
//! messages, which is the state the fragment-repair protocol
//! ([`ares_core::repair`]) already reconciles: recovery replays the
//! local log, then repairs only the delta written while the node was
//! down, instead of re-fetching every object from peers.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::codec::{self, DecodeError, WireDecode, WireEncode, WireReader};
use ares_core::{AcceptorSnap, Msg, NextCSnap, ServerActor, ServerSnapshot};
use ares_dap::server::{AbdSnap, DapSnapshot, LdrDirSnap, LdrRepSnap, TreasSnap};
use ares_sim::{Actor, Ctx};
use ares_types::{ConfigRegistry, ProcessId, TagValue};
use ares_wal::{Wal, WalCounters, WalOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::Path;
use std::sync::Arc;

pub use ares_wal::{FsyncPolicy, WalStats};

/// Durability knobs for a node's per-shard write-ahead logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// When appended records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Under [`FsyncPolicy::Batched`], force a sync once this many
    /// records are pending even if the shard never goes idle.
    pub batch_records: u64,
    /// Write a compacting checkpoint once this many records have been
    /// journaled since the last one.
    pub checkpoint_records: u64,
    /// Fault injection for tests: total bytes each shard's log may
    /// write before appends fail like a full disk.
    pub write_quota: Option<u64>,
}

impl Default for WalConfig {
    fn default() -> Self {
        let o = WalOptions::default();
        WalConfig {
            fsync: o.fsync,
            segment_bytes: o.segment_bytes,
            batch_records: o.batch_records,
            checkpoint_records: 4096,
            write_quota: None,
        }
    }
}

impl WalConfig {
    fn options(&self) -> WalOptions {
        WalOptions {
            fsync: self.fsync,
            segment_bytes: self.segment_bytes,
            batch_records: self.batch_records,
            write_quota: self.write_quota,
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint wire encoding
// ---------------------------------------------------------------------

/// Version byte leading every encoded checkpoint payload.
const SNAPSHOT_VERSION: u8 = 1;

impl WireEncode for TagValue {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tag.encode(out);
        self.value.encode(out);
    }
}
impl WireDecode for TagValue {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(TagValue { tag: ares_types::Tag::decode(r)?, value: ares_types::Value::decode(r)? })
    }
}

impl WireEncode for AbdSnap {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cfg.encode(out);
        self.obj.encode(out);
        self.tag.encode(out);
        self.value.encode(out);
    }
}
impl WireDecode for AbdSnap {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(AbdSnap {
            cfg: WireDecode::decode(r)?,
            obj: WireDecode::decode(r)?,
            tag: WireDecode::decode(r)?,
            value: WireDecode::decode(r)?,
        })
    }
}

impl WireEncode for TreasSnap {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cfg.encode(out);
        self.obj.encode(out);
        self.list.encode(out);
    }
}
impl WireDecode for TreasSnap {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(TreasSnap {
            cfg: WireDecode::decode(r)?,
            obj: WireDecode::decode(r)?,
            list: WireDecode::decode(r)?,
        })
    }
}

impl WireEncode for LdrDirSnap {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cfg.encode(out);
        self.obj.encode(out);
        self.tag.encode(out);
        self.locs.encode(out);
    }
}
impl WireDecode for LdrDirSnap {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(LdrDirSnap {
            cfg: WireDecode::decode(r)?,
            obj: WireDecode::decode(r)?,
            tag: WireDecode::decode(r)?,
            locs: WireDecode::decode(r)?,
        })
    }
}

impl WireEncode for LdrRepSnap {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cfg.encode(out);
        self.obj.encode(out);
        self.store.encode(out);
    }
}
impl WireDecode for LdrRepSnap {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(LdrRepSnap {
            cfg: WireDecode::decode(r)?,
            obj: WireDecode::decode(r)?,
            store: WireDecode::decode(r)?,
        })
    }
}

impl WireEncode for DapSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.abd.encode(out);
        self.treas.encode(out);
        self.ldr_dir.encode(out);
        self.ldr_rep.encode(out);
    }
}
impl WireDecode for DapSnapshot {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(DapSnapshot {
            abd: WireDecode::decode(r)?,
            treas: WireDecode::decode(r)?,
            ldr_dir: WireDecode::decode(r)?,
            ldr_rep: WireDecode::decode(r)?,
        })
    }
}

impl WireEncode for AcceptorSnap {
    fn encode(&self, out: &mut Vec<u8>) {
        self.inst.encode(out);
        self.promised.encode(out);
        self.accepted.encode(out);
        self.decided.encode(out);
    }
}
impl WireDecode for AcceptorSnap {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(AcceptorSnap {
            inst: WireDecode::decode(r)?,
            promised: WireDecode::decode(r)?,
            accepted: WireDecode::decode(r)?,
            decided: WireDecode::decode(r)?,
        })
    }
}

impl WireEncode for NextCSnap {
    fn encode(&self, out: &mut Vec<u8>) {
        self.base.encode(out);
        self.entry.encode(out);
    }
}
impl WireDecode for NextCSnap {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(NextCSnap { base: WireDecode::decode(r)?, entry: WireDecode::decode(r)? })
    }
}

impl WireEncode for ServerSnapshot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dap.encode(out);
        self.acceptors.encode(out);
        self.nextc.encode(out);
    }
}
impl WireDecode for ServerSnapshot {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(ServerSnapshot {
            dap: WireDecode::decode(r)?,
            acceptors: WireDecode::decode(r)?,
            nextc: WireDecode::decode(r)?,
        })
    }
}

/// Encodes a [`ServerSnapshot`] as a versioned checkpoint payload.
pub fn encode_snapshot(snap: &ServerSnapshot) -> Vec<u8> {
    let mut out = vec![SNAPSHOT_VERSION];
    snap.encode(&mut out);
    out
}

/// Strictly decodes a checkpoint payload. Any malformation — including
/// corruption the segment CRC happened to miss — is an error, never a
/// panic; the recovery path falls back to a blank server plus repair.
pub fn decode_snapshot(buf: &[u8]) -> Result<ServerSnapshot, DecodeError> {
    let mut r = WireReader::new(buf);
    let version = r.u8()?;
    if version != SNAPSHOT_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let snap = ServerSnapshot::decode(&mut r)?;
    r.finish()?;
    Ok(snap)
}

// ---------------------------------------------------------------------
// The journaling side-car
// ---------------------------------------------------------------------

/// One shard's journaling state, owned by its event-loop thread and
/// driven write-ahead of every delivery.
///
/// Generic over the actor so the host layer stays actor-agnostic; the
/// `snap` hook captures the actor's durable state for checkpoints
/// (server shards use [`ServerActor::snapshot`] via
/// [`recover_server`]).
pub struct ShardWal<A> {
    wal: Wal,
    snap: fn(&A) -> Vec<u8>,
    checkpoint_records: u64,
    /// A journaling write failed (disk full, I/O error): the log's
    /// tail is suspect, so journaling stops rather than record a
    /// history with holes. The node keeps serving from memory — a
    /// crash now recovers only up to the last good record, and delta
    /// repair covers the rest.
    degraded: bool,
}

impl<A> ShardWal<A> {
    /// Wraps an opened log; `snap` captures the actor's durable state
    /// as a checkpoint payload.
    pub fn new(wal: Wal, snap: fn(&A) -> Vec<u8>, checkpoint_records: u64) -> Self {
        ShardWal { wal, snap, checkpoint_records, degraded: false }
    }

    /// Journals one delivery, write-ahead: called with the actor state
    /// *before* `msg` is applied, so a checkpoint written here (due by
    /// record count) excludes `msg` and the record appended after it
    /// re-applies `msg` on replay.
    pub fn journal(&mut self, from: ProcessId, msg: &Msg, actor: &A) {
        if self.degraded || !msg.journaled() {
            return;
        }
        if self.wal.since_checkpoint() >= self.checkpoint_records {
            let payload = (self.snap)(actor);
            if self.wal.checkpoint(&payload).is_err() {
                self.degraded = true;
                return;
            }
        }
        if self.wal.append(&codec::encode_payload(from, msg)).is_err() {
            self.degraded = true;
        }
    }

    /// Flushes the pending group-commit batch; the event loop calls
    /// this as it goes idle so batched-fsync durability lag is bounded
    /// by load, not by wall clock.
    pub fn idle_sync(&mut self) {
        if !self.degraded && self.wal.sync().is_err() {
            self.degraded = true;
        }
    }

    /// Whether journaling has stopped after a write failure.
    pub fn degraded(&self) -> bool {
        self.degraded
    }
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

/// What one shard's [`recover_server`] reconstructed.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryReport {
    /// A checkpoint was loaded and decoded.
    pub checkpoint_loaded: bool,
    /// Journal records re-delivered on top of the checkpoint state.
    pub records_replayed: u64,
    /// A torn final record was truncated away.
    pub torn_tail_truncated: bool,
    /// Replay stopped early at a corrupt mid-log frame; delta repair
    /// covers the lost suffix.
    pub stopped_at_corruption: bool,
    /// Records whose payload no longer decoded as a message (version
    /// skew); skipped, covered by delta repair like corruption.
    pub undecodable_dropped: u64,
}

impl RecoveryReport {
    /// Folds another shard's report into this one (node-level totals).
    pub fn merge(&mut self, other: &RecoveryReport) {
        self.checkpoint_loaded |= other.checkpoint_loaded;
        self.records_replayed += other.records_replayed;
        self.torn_tail_truncated |= other.torn_tail_truncated;
        self.stopped_at_corruption |= other.stopped_at_corruption;
        self.undecodable_dropped += other.undecodable_dropped;
    }
}

fn server_snapshot_payload(actor: &ServerActor) -> Vec<u8> {
    encode_snapshot(&actor.snapshot())
}

/// Opens (or creates) one shard's log under `dir` and rebuilds the
/// shard's [`ServerActor`] from it: newest valid checkpoint first,
/// then the journal tail re-delivered through `on_message` with all
/// effects dropped — every reply was already sent in the previous
/// life, and the quorum phases deduplicate by rpc/op id regardless.
///
/// Returns the recovered actor, its journaling side-car (appending to
/// a fresh segment), and a report of what recovery found. A blank
/// data dir yields a blank server: first boot and recovery are the
/// same code path.
///
/// # Errors
///
/// Propagates I/O errors from the log bring-up; decode failures are
/// handled (blank fallback + repair), not errors.
pub fn recover_server(
    me: ProcessId,
    registry: Arc<ConfigRegistry>,
    dir: &Path,
    cfg: &WalConfig,
    counters: Arc<WalCounters>,
) -> io::Result<(ServerActor, ShardWal<ServerActor>, RecoveryReport)> {
    let (wal, rec) = Wal::open(dir, cfg.options(), counters)?;
    let mut report = RecoveryReport {
        torn_tail_truncated: rec.torn_tail_truncated,
        stopped_at_corruption: rec.stopped_at_corruption,
        ..RecoveryReport::default()
    };
    let mut actor = match rec.checkpoint.as_deref().map(decode_snapshot) {
        Some(Ok(snap)) => {
            report.checkpoint_loaded = true;
            ServerActor::from_snapshot(me, registry.clone(), snap)
        }
        // Corruption the checkpoint frame's CRC missed: start blank
        // and lean on delta repair, like any other lost suffix.
        Some(Err(_)) => ServerActor::new(me, registry.clone()),
        None => ServerActor::new(me, registry.clone()),
    };
    let mut rng = StdRng::seed_from_u64(me.0 as u64 ^ 0x9E37_79B9);
    for payload in &rec.records {
        match codec::decode_payload(payload) {
            Ok((from, msg)) => {
                let mut ctx = Ctx::detached(me, 0, &mut rng);
                actor.on_message(from, msg, &mut ctx);
                drop(ctx.take_effects());
                report.records_replayed += 1;
            }
            Err(_) => report.undecodable_dropped += 1,
        }
    }
    let side_car = ShardWal::new(wal, server_snapshot_payload, cfg.checkpoint_records);
    Ok((actor, side_car, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_consensus::{Ballot, ConMsg};
    use ares_dap::{DapBody, DapMsg, Hdr, ListEntry};
    use ares_types::{ConfigEntry, ConfigId, Configuration, ObjectId, OpId, RpcId, Tag, Value};
    use ares_wal::TempDir;

    fn registry() -> Arc<ConfigRegistry> {
        let c0 = Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2);
        ConfigRegistry::from_configs(vec![c0])
    }

    fn op(seq: u64) -> OpId {
        OpId { client: ProcessId(90), seq }
    }

    fn treas_write(seq: u64, z: u64) -> Msg {
        Msg::Dap(DapMsg::new(
            Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(seq), op: op(seq) },
            DapBody::TreasWrite(
                Tag::new(z, ProcessId(90)),
                ares_codes::Fragment {
                    index: 1,
                    value_len: 8,
                    data: bytes::Bytes::from(vec![z as u8; 4]),
                },
            ),
        ))
    }

    #[test]
    fn snapshot_roundtrips_through_checkpoint_encoding() {
        let snap = ServerSnapshot {
            dap: DapSnapshot {
                abd: vec![AbdSnap {
                    cfg: ConfigId(0),
                    obj: ObjectId(1),
                    tag: Tag::new(3, ProcessId(2)),
                    value: Value::filler(16, 7),
                }],
                treas: vec![TreasSnap {
                    cfg: ConfigId(0),
                    obj: ObjectId(0),
                    list: vec![ListEntry { tag: Tag::new(1, ProcessId(1)), frag: None }],
                }],
                ldr_dir: vec![LdrDirSnap {
                    cfg: ConfigId(1),
                    obj: ObjectId(2),
                    tag: Tag::new(5, ProcessId(4)),
                    locs: vec![ProcessId(1), ProcessId(3)],
                }],
                ldr_rep: vec![LdrRepSnap {
                    cfg: ConfigId(1),
                    obj: ObjectId(2),
                    store: vec![TagValue::new(Tag::new(5, ProcessId(4)), Value::filler(8, 1))],
                }],
            },
            acceptors: vec![AcceptorSnap {
                inst: ConfigId(0),
                promised: Ballot { round: 7, proposer: ProcessId(2) },
                accepted: Some((Ballot { round: 6, proposer: ProcessId(1) }, ConfigId(1))),
                decided: None,
            }],
            nextc: vec![NextCSnap { base: ConfigId(0), entry: ConfigEntry::pending(ConfigId(1)) }],
        };
        let enc = encode_snapshot(&snap);
        let dec = decode_snapshot(&enc).expect("decodes");
        assert_eq!(format!("{snap:?}"), format!("{dec:?}"));
    }

    #[test]
    fn corrupt_snapshot_errors_instead_of_panicking() {
        let snap = ServerSnapshot::default();
        let enc = encode_snapshot(&snap);
        for cut in 0..enc.len() {
            let _ = decode_snapshot(&enc[..cut]); // must not panic
        }
        let mut bad = enc.clone();
        bad[0] = 99;
        assert!(matches!(decode_snapshot(&bad), Err(DecodeError::BadVersion(99))));
    }

    #[test]
    fn journal_then_recover_restores_dap_state() {
        let dir = TempDir::new("net-wal-replay").unwrap();
        let reg = registry();
        let cfg = WalConfig { fsync: FsyncPolicy::Off, ..WalConfig::default() };
        let counters = Arc::new(WalCounters::default());
        let (mut actor, mut wal, _) =
            recover_server(ProcessId(1), reg.clone(), dir.path(), &cfg, counters.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for seq in 1..=8u64 {
            let msg = treas_write(seq, seq);
            wal.journal(ProcessId(90), &msg, &actor);
            let mut ctx = Ctx::detached(ProcessId(1), 0, &mut rng);
            actor.on_message(ProcessId(90), msg, &mut ctx);
            drop(ctx.take_effects());
        }
        wal.idle_sync();
        let before = actor.snapshot();
        drop(wal);

        let (recovered, _, report) =
            recover_server(ProcessId(1), reg, dir.path(), &cfg, counters).unwrap();
        assert_eq!(report.records_replayed, 8);
        assert!(!report.stopped_at_corruption);
        assert_eq!(format!("{:?}", recovered.snapshot()), format!("{before:?}"));
    }

    #[test]
    fn checkpoint_compacts_and_recovery_replays_only_the_tail() {
        let dir = TempDir::new("net-wal-ckpt").unwrap();
        let reg = registry();
        let cfg =
            WalConfig { fsync: FsyncPolicy::Off, checkpoint_records: 4, ..WalConfig::default() };
        let counters = Arc::new(WalCounters::default());
        let (mut actor, mut wal, _) =
            recover_server(ProcessId(1), reg.clone(), dir.path(), &cfg, counters.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for seq in 1..=10u64 {
            let msg = treas_write(seq, seq);
            wal.journal(ProcessId(90), &msg, &actor);
            let mut ctx = Ctx::detached(ProcessId(1), 0, &mut rng);
            actor.on_message(ProcessId(90), msg, &mut ctx);
            drop(ctx.take_effects());
        }
        wal.idle_sync();
        let before = actor.snapshot();
        drop(wal);

        let (recovered, _, report) =
            recover_server(ProcessId(1), reg, dir.path(), &cfg, counters.clone()).unwrap();
        assert!(report.checkpoint_loaded, "a checkpoint must have been written");
        assert!(
            report.records_replayed < 10,
            "checkpointing must compact the replayed tail (replayed {})",
            report.records_replayed
        );
        assert!(counters.checkpoints.load(std::sync::atomic::Ordering::Relaxed) >= 1);
        assert_eq!(format!("{:?}", recovered.snapshot()), format!("{before:?}"));
    }

    #[test]
    fn recovered_acceptor_refuses_ballots_it_promised_against() {
        // The regression the paper's safety argument needs: a promise
        // that does not survive a crash is not a promise. Journal a
        // Prepare at ballot 5, recover from disk, and verify the
        // recovered node nacks a Prepare at ballot 3.
        let dir = TempDir::new("net-wal-promise").unwrap();
        let reg = registry();
        let cfg = WalConfig { fsync: FsyncPolicy::PerRecord, ..WalConfig::default() };
        let counters = Arc::new(WalCounters::default());
        let (mut actor, mut wal, _) =
            recover_server(ProcessId(1), reg.clone(), dir.path(), &cfg, counters.clone()).unwrap();
        let high = Ballot { round: 5, proposer: ProcessId(3) };
        let prepare =
            Msg::Con(ConMsg::Prepare { inst: ConfigId(0), rpc: RpcId(1), ballot: high, op: op(1) });
        let mut rng = StdRng::seed_from_u64(1);
        wal.journal(ProcessId(3), &prepare, &actor);
        let mut ctx = Ctx::detached(ProcessId(1), 0, &mut rng);
        actor.on_message(ProcessId(3), prepare, &mut ctx);
        drop(ctx.take_effects());
        drop(wal);
        drop(actor); // the crash: memory gone, disk remains

        let (mut recovered, _, report) =
            recover_server(ProcessId(1), reg, dir.path(), &cfg, counters).unwrap();
        assert_eq!(report.records_replayed, 1);
        let low = Msg::Con(ConMsg::Prepare {
            inst: ConfigId(0),
            rpc: RpcId(2),
            ballot: Ballot { round: 3, proposer: ProcessId(4) },
            op: op(2),
        });
        let mut ctx = Ctx::detached(ProcessId(1), 0, &mut rng);
        recovered.on_message(ProcessId(4), low, &mut ctx);
        let effects = ctx.take_effects();
        let nacked = effects.iter().any(|e| {
            matches!(
                e,
                ares_sim::HostEffect::Send {
                    msg: Msg::Con(ConMsg::NackPrepare { promised, .. }),
                    ..
                } if *promised == high
            )
        });
        assert!(
            nacked,
            "a recovered acceptor must refuse ballots below its pre-crash promise: {effects:?}"
        );
    }

    #[test]
    fn degraded_journal_stops_writing_but_keeps_serving() {
        let dir = TempDir::new("net-wal-degraded").unwrap();
        let reg = registry();
        // A quota that admits roughly two records, then fails.
        let cfg =
            WalConfig { fsync: FsyncPolicy::Off, write_quota: Some(200), ..WalConfig::default() };
        let counters = Arc::new(WalCounters::default());
        let (mut actor, mut wal, _) =
            recover_server(ProcessId(1), reg, dir.path(), &cfg, counters.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for seq in 1..=20u64 {
            let msg = treas_write(seq, seq);
            wal.journal(ProcessId(90), &msg, &actor);
            let mut ctx = Ctx::detached(ProcessId(1), 0, &mut rng);
            actor.on_message(ProcessId(90), msg, &mut ctx);
            drop(ctx.take_effects());
        }
        assert!(wal.degraded(), "quota exhaustion must degrade the journal");
        use std::sync::atomic::Ordering;
        assert!(counters.append_errors.load(Ordering::Relaxed) >= 1);
        let appended = counters.records_appended.load(Ordering::Relaxed);
        assert!(appended < 20, "appends must stop at the quota, not continue");
    }
}
