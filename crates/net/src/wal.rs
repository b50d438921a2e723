//! Per-shard durability for the TCP runtime: the checkpoint wire
//! encoding, the journaling side-car each shard event loop drives, and
//! the replay-then-delta-repair recovery path for [`ServerActor`].
//!
//! ## What is journaled
//!
//! A shard's log records exactly the messages whose delivery mutates
//! durable server state ([`Role::Logged`] and [`Role::Synced`]): DAP
//! writes, forwarded elements, acceptor promises/accepts/decides, and
//! `nextC` installs. Queries, replies and repair traffic are not
//! journaled — they either mutate nothing or are re-derived by the
//! repair protocol. The record payload *is* the wire
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
//! installs — so a replayed prefix is a state the node once held. For
//! DAP lists, dropping a suffix loses recency, never consistency: the
//! recovering node is exactly a server that missed those messages,
//! which is the state the fragment-repair protocol
//! ([`ares_core::repair`]) already reconciles — recovery replays the
//! local log, then repairs only the delta written while the node was
//! down, instead of re-fetching every object from peers. Acceptor
//! records and `nextC` pointers have no such repair: one acked and
//! then lost is forgotten. So the messages that set them
//! ([`Role::Synced`]) are synced before they are applied and
//! answered, and a shard whose log has failed refuses them (DESIGN.md
//! §11).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::codec::{self, wire_struct, DecodeError, WireDecode, WireEncode, WireReader};
use ares_core::{AcceptorSnap, Msg, NextCSnap, Role, ServerActor, ServerSnapshot};
use ares_dap::server::{AbdSnap, DapSnapshot, LdrDirSnap, LdrRepSnap, TreasSnap};
use ares_sim::{Actor, Ctx};
use ares_types::{ConfigRegistry, ProcessId, TagValue};
use ares_wal::{Wal, WalCounters};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::Path;
use std::sync::Arc;

pub use ares_wal::{FsyncPolicy, WalOptions as WalConfig, WalStats};

// ---------------------------------------------------------------------
// Checkpoint wire encoding
// ---------------------------------------------------------------------

/// Version byte leading every encoded checkpoint payload.
const SNAPSHOT_VERSION: u8 = 1;

// The checkpoint format: one row per type, fields in wire order (see
// `wire_struct!`). Pinned by `checkpoint_bytes_are_pinned`.
wire_struct!(TagValue { tag, value });
wire_struct!(AbdSnap { cfg, obj, tag, value });
wire_struct!(TreasSnap { cfg, obj, list });
wire_struct!(LdrDirSnap { cfg, obj, tag, locs });
wire_struct!(LdrRepSnap { cfg, obj, store });
wire_struct!(DapSnapshot { abd, treas, ldr_dir, ldr_rep });
wire_struct!(AcceptorSnap { inst, promised, accepted, decided });
wire_struct!(NextCSnap { base, entry });
wire_struct!(ServerSnapshot { dap, acceptors, nextc });

/// Encodes a [`ServerSnapshot`] as a versioned checkpoint payload.
pub fn encode_snapshot(snap: &ServerSnapshot) -> Vec<u8> {
    let mut out = vec![SNAPSHOT_VERSION];
    snap.encode(&mut out);
    out
}

/// Strictly decodes a checkpoint payload. Any malformation — including
/// corruption the segment CRC happened to miss — is an error, never a
/// panic; the recovery path falls back to a blank server plus repair.
/// Values and coded elements come out as views of `buf`, which the
/// server's stores keep or copy as they do a received frame's.
pub fn decode_snapshot(buf: &Bytes) -> Result<ServerSnapshot, DecodeError> {
    let mut r = WireReader::new_shared(buf);
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
///
/// Once a write fails (disk full, I/O error) the [`Wal`] is failed and
/// journaling stops rather than record a history with holes: the log
/// alone remembers the failure. The node keeps serving object traffic
/// from memory — a crash now recovers only up to the last good record,
/// and delta repair covers the rest — but [`ShardWal::journal`] refuses
/// what no repair restores ([`Role::Synced`]).
pub struct ShardWal<A> {
    wal: Wal,
    snap: fn(&A) -> Vec<u8>,
}

impl<A> ShardWal<A> {
    /// Wraps an opened log; `snap` captures the actor's durable state
    /// as a checkpoint payload.
    pub fn new(wal: Wal, snap: fn(&A) -> Vec<u8>) -> Self {
        ShardWal { wal, snap }
    }

    /// Journals one delivery, write-ahead: called with the actor state
    /// *before* `msg` is applied, so a checkpoint written here (due by
    /// record count) excludes `msg` and the record appended after it
    /// re-applies `msg` on replay. A write error fails the log, which
    /// ends journaling, so the error itself needs no handling here.
    ///
    /// Appends a [`Role::Logged`] or [`Role::Synced`] message and
    /// leaves every other one unlogged. A `Synced` one is synced before
    /// this returns, whatever the batch: its reply leaves only after
    /// `journal`, and no repair restores such a record once acknowledged
    /// and lost. Under [`FsyncPolicy::Off`] the sync is a no-op, as that
    /// policy promises nothing across a power loss.
    ///
    /// Returns whether the shard may apply `msg`: `false` for a `Synced`
    /// message once the log has failed (at this write or sync, or an
    /// earlier one), which the shard then refuses unanswered.
    #[must_use]
    pub fn journal(&mut self, from: ProcessId, msg: &Msg, actor: &A) -> bool {
        let role = msg.role();
        if !self.wal.failed() && matches!(role, Role::Logged | Role::Synced) {
            // A failed checkpoint fails the log: then nothing is appended.
            if (!self.wal.checkpoint_due() || self.wal.checkpoint(&(self.snap)(actor)).is_ok())
                && self.wal.append(&codec::encode_payload(from, msg)).is_ok()
                && role == Role::Synced
            {
                let _ = self.wal.sync();
            }
        }
        !(self.wal.failed() && role == Role::Synced)
    }

    /// Flushes the pending group-commit batch; the event loop calls
    /// this as it goes idle so batched-fsync durability lag is bounded
    /// by load, not by wall clock. A failed sync fails the log.
    pub fn idle_sync(&mut self) {
        let _ = self.wal.sync();
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

fn server_snapshot_payload(actor: &ServerActor) -> Vec<u8> {
    encode_snapshot(&actor.snapshot())
}

/// Opens (or creates) one shard's log under `dir` and rebuilds the
/// shard's [`ServerActor`] from it: newest valid checkpoint first,
/// then the journal tail re-delivered through `on_message` with all
/// effects dropped — every reply was already sent in the previous
/// life, and the quorum phases deduplicate by rpc/op id regardless.
/// Each record and the checkpoint become a [`Bytes`] without a copy
/// and decode through the same reader as a socket frame, so what the
/// server keeps of them is what it keeps of a received frame.
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
    let (wal, rec) = Wal::open(dir, *cfg, counters)?;
    let mut report = RecoveryReport {
        torn_tail_truncated: rec.torn_tail_truncated,
        stopped_at_corruption: rec.stopped_at_corruption,
        ..RecoveryReport::default()
    };
    let mut actor = match rec.checkpoint.map(|ck| decode_snapshot(&Bytes::from(ck))) {
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
    for payload in rec.records {
        match codec::decode_payload_bytes(&Bytes::from(payload)) {
            Ok((from, msg)) => {
                let mut ctx = Ctx::detached(me, 0, &mut rng);
                actor.on_message(from, msg, &mut ctx);
                drop(ctx.take_effects());
                report.records_replayed += 1;
            }
            Err(_) => report.undecodable_dropped += 1,
        }
    }
    let side_car = ShardWal::new(wal, server_snapshot_payload);
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
        let enc = Bytes::from(encode_snapshot(&snap));
        let dec = decode_snapshot(&enc).expect("decodes");
        assert_eq!(format!("{snap:?}"), format!("{dec:?}"));
    }

    /// A snapshot with every checkpoint row in it: ABD state, a TREAS
    /// list with a floor and a coded element, an LDR directory entry and
    /// replica store, an acceptor that has both accepted and decided,
    /// and a `nextC` pointer.
    fn golden_snapshot() -> ServerSnapshot {
        let tag = |z, w| Tag::new(z, ProcessId(w));
        let ballot = |round, p| Ballot { round, proposer: ProcessId(p) };
        let frag = ares_codes::Fragment {
            index: 2,
            value_len: 5,
            data: bytes::Bytes::from_static(&[0xC1, 0xC2]),
        };
        ServerSnapshot {
            dap: DapSnapshot {
                abd: vec![AbdSnap {
                    cfg: ConfigId(0),
                    obj: ObjectId(1),
                    tag: tag(3, 2),
                    value: Value::new(vec![0xA1, 0xA2, 0xA3]),
                }],
                treas: vec![TreasSnap {
                    cfg: ConfigId(1),
                    obj: ObjectId(0),
                    list: vec![
                        ListEntry { tag: tag(1, 1), frag: None },
                        ListEntry { tag: tag(2, 4), frag: Some(frag) },
                    ],
                }],
                ldr_dir: vec![LdrDirSnap {
                    cfg: ConfigId(2),
                    obj: ObjectId(2),
                    tag: tag(5, 4),
                    locs: vec![ProcessId(1), ProcessId(3)],
                }],
                ldr_rep: vec![LdrRepSnap {
                    cfg: ConfigId(2),
                    obj: ObjectId(2),
                    store: vec![TagValue::new(tag(5, 4), Value::new(vec![0xB1]))],
                }],
            },
            acceptors: vec![AcceptorSnap {
                inst: ConfigId(0),
                promised: ballot(7, 2),
                accepted: Some((ballot(6, 1), ConfigId(1))),
                decided: Some(ConfigId(1)),
            }],
            nextc: vec![NextCSnap {
                base: ConfigId(0),
                entry: ConfigEntry::finalized(ConfigId(1)),
            }],
        }
    }

    #[test]
    fn checkpoint_bytes_are_pinned() {
        // A checkpoint outlives the build that wrote it: these bytes must
        // keep decoding, so the format may not drift.
        #[rustfmt::skip]
        const GOLDEN: [&str; 7] = [
            // version, ABD row
            "01000000010000000000000001000000000000000300000002000000 03a1a2a3",
            // TREAS row: floor (1, p1) = ⊥, then (2, p4) with its element
            "00000001000000010000000000000002 000000000000000100000001 00
             000000000000000200000004 01 00000002 0000000000000005 00000002c1c2",
            // LDR directory row, LDR replica row
            "00000001000000020000000200000000000000050000000400000002 0000000100000003",
            "00000001000000020000000200000001000000000000000500000004 00000001b1",
            // acceptor: promised (7, p2), accepted ((6, p1), c1), decided c1
            "00000001000000000000000000000007000000020100000000000000060000000100000001 0100000001",
            // nextC: c0 → (c1, Finalized)
            "000000010000000000000001",
            "01",
        ];
        let enc = Bytes::from(encode_snapshot(&golden_snapshot()));
        let hex: String = enc.iter().map(|b| format!("{b:02x}")).collect();
        let golden: String = GOLDEN.concat().split_whitespace().collect();
        assert_eq!(hex, golden);
        let dec = decode_snapshot(&enc).expect("pinned bytes decode");
        assert_eq!(format!("{dec:?}"), format!("{:?}", golden_snapshot()));
    }

    #[test]
    fn corrupt_snapshot_errors_instead_of_panicking() {
        let snap = ServerSnapshot::default();
        let enc = encode_snapshot(&snap);
        for cut in 0..enc.len() {
            let _ = decode_snapshot(&Bytes::copy_from_slice(&enc[..cut])); // must not panic
        }
        let mut bad = enc.clone();
        bad[0] = 99;
        assert!(matches!(decode_snapshot(&Bytes::from(bad)), Err(DecodeError::BadVersion(99))));
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
            assert!(wal.journal(ProcessId(90), &msg, &actor));
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
            assert!(wal.journal(ProcessId(90), &msg, &actor));
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

    /// Journals a 64 KiB and a 256 B TREAS write to one object of c0
    /// (`[5, 3]`, δ = 2) and a 256 B ABD write to c1, applying each to
    /// a live server, then recovers a second server from the log.
    fn journal_and_recover(checkpoint_records: u64) -> (ServerActor, ServerActor, RecoveryReport) {
        let dir = TempDir::new("net-wal-views").unwrap();
        let servers: Vec<ProcessId> = (1..=5).map(ProcessId).collect();
        let reg = ConfigRegistry::from_configs([
            Configuration::treas(ConfigId(0), servers.clone(), 3, 2),
            Configuration::abd(ConfigId(1), servers),
        ]);
        let cfg = WalConfig { fsync: FsyncPolicy::Off, checkpoint_records, ..WalConfig::default() };
        let counters = Arc::new(WalCounters::default());
        let (mut actor, mut wal, _) =
            recover_server(ProcessId(1), reg.clone(), dir.path(), &cfg, counters.clone()).unwrap();
        let code = ares_codes::build_code(ares_codes::CodeParams { n: 5, k: 3 }).unwrap();
        let element = |len| code.encode_fragment(Value::filler(len, 1).as_bytes(), 0);
        let hdr =
            |cfg, seq| Hdr { cfg: ConfigId(cfg), obj: ObjectId(0), rpc: RpcId(seq), op: op(seq) };
        let tag = |z| Tag::new(z, ProcessId(90));
        let writes = [
            DapMsg::new(hdr(0, 1), DapBody::TreasWrite(tag(1), element(64 * 1024))),
            DapMsg::new(hdr(0, 2), DapBody::TreasWrite(tag(2), element(256))),
            DapMsg::new(hdr(1, 3), DapBody::AbdWrite(tag(3), Value::filler(256, 2))),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        for msg in writes.map(Msg::Dap) {
            assert!(wal.journal(ProcessId(90), &msg, &actor));
            let mut ctx = Ctx::detached(ProcessId(1), 0, &mut rng);
            actor.on_message(ProcessId(90), msg, &mut ctx);
            drop(ctx.take_effects());
        }
        drop(wal);
        let (recovered, _, report) =
            recover_server(ProcessId(1), reg, dir.path(), &cfg, counters).unwrap();
        (actor, recovered, report)
    }

    /// `recovered` holds what `live` holds, and pins no more of the
    /// records and the checkpoint it was decoded from than compaction
    /// lets a received frame be pinned: a small element is copied into
    /// its list's own buffer (as tight as the live one's), and a bulk
    /// element and a value pin at most an eighth beyond their bytes.
    fn assert_recovered_like(live: &ServerActor, recovered: &ServerActor) {
        fn list(s: &ServerActor) -> &ares_dap::server::TreasState {
            s.dap.treas_state_ref(ConfigId(0), ObjectId(0)).unwrap()
        }
        let (want, got) = (list(live), list(recovered));
        assert_eq!(got.to_entries(), want.to_entries());
        assert_eq!(got.storage_bytes(), want.storage_bytes());
        assert_eq!(got.iter().filter(|e| e.1.is_some()).count(), 3, "t0 and both writes");
        for ((_, w), (tag, g)) in want.iter().zip(got.iter()) {
            let (Some(w), Some(g)) = (w, g) else { continue };
            let (len, backing) = (g.data.len(), g.data.backing_len());
            if ares_codes::is_bulk(len) {
                assert!(backing <= len + len / 8, "{tag:?}: {backing} bytes pinned for {len}");
            } else {
                assert_eq!(backing, w.data.backing_len(), "{tag:?}: not in the list's buffer");
            }
        }
        let value = |s: &ServerActor| s.snapshot().dap.abd.pop().unwrap().value;
        let (want, got) = (value(live), value(recovered));
        assert_eq!(got, want);
        let (len, backing) = (got.len(), got.bytes().backing_len());
        assert!(backing <= len + len / 8, "the value pins {backing} bytes for {len}");
    }

    #[test]
    fn replay_keeps_only_what_compaction_allows_of_each_record() {
        let (live, recovered, report) =
            journal_and_recover(WalConfig::default().checkpoint_records);
        assert!(!report.checkpoint_loaded);
        assert_eq!(report.records_replayed, 3);
        assert_recovered_like(&live, &recovered);
    }

    #[test]
    fn restore_keeps_only_what_compaction_allows_of_a_checkpoint() {
        // The checkpoint holds both TREAS writes; the ABD write is the tail.
        let (live, recovered, report) = journal_and_recover(2);
        assert!(report.checkpoint_loaded);
        assert_eq!(report.records_replayed, 1);
        assert_recovered_like(&live, &recovered);
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
        assert!(wal.journal(ProcessId(3), &prepare, &actor));
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

    /// One acceptor of c0: its actor and its journal.
    type Node = (ServerActor, ShardWal<ServerActor>);

    /// Rebuilds the three acceptors of c0 from their logs.
    fn boot(dirs: &[TempDir], reg: &Arc<ConfigRegistry>, cfg: &WalConfig) -> Vec<Node> {
        let pids = (1..=3).map(ProcessId);
        dirs.iter()
            .zip(pids)
            .map(|(dir, me)| {
                let counters = Arc::new(WalCounters::default());
                let (actor, wal, _) =
                    recover_server(me, reg.clone(), dir.path(), cfg, counters).unwrap();
                (actor, wal)
            })
            .collect()
    }

    /// Runs `me`'s proposal of `value` for c0's instance to its decision,
    /// delivering every message in order the way a shard does: journaled
    /// write-ahead, then applied, its replies sent.
    fn propose(nodes: &mut [Node], me: ProcessId, value: ConfigId) -> ConfigId {
        use ares_consensus::{Proposer, ProposerConfig};
        let servers: Vec<ProcessId> = (1..=3).map(ProcessId).collect();
        let pcfg = ProposerConfig {
            inst: ConfigId(0),
            servers,
            quorum: 2,
            backoff_unit: 10,
            retry_interval: 100,
        };
        let mut rpc = 0;
        let (mut proposer, step) = Proposer::start(pcfg, me, op(u64::from(me.0)), value, &mut rpc);
        let mut queue: std::collections::VecDeque<_> = step.sends.into();
        let (mut decided, mut rng) = (None, StdRng::seed_from_u64(1));
        while let Some((to, m)) = queue.pop_front() {
            let (actor, wal) = &mut nodes[to.0 as usize - 1];
            let msg = Msg::Con(m);
            if !wal.journal(me, &msg, actor) {
                continue;
            }
            let mut ctx = Ctx::detached(to, 0, &mut rng);
            actor.on_message(me, msg, &mut ctx);
            for effect in ctx.take_effects() {
                if let ares_sim::HostEffect::Send { msg: Msg::Con(reply), .. } = effect {
                    if decided.is_none() {
                        let step = proposer.on_message(to, reply, &mut rpc);
                        decided = step.output;
                        queue.extend(step.sends);
                    }
                }
            }
        }
        decided.expect("every message is delivered, so the proposal decides")
    }

    #[test]
    fn an_acknowledged_accept_survives_a_power_loss() {
        // Proposer A decides c1 on the acceptors' replies; then the
        // power fails on all three before their idle sync. What they
        // acknowledged must survive, or proposer B decides c2 for the
        // same instance.
        let dirs: Vec<TempDir> = (0..3).map(|_| TempDir::new("net-wal-power").unwrap()).collect();
        let reg = ConfigRegistry::from_configs([Configuration::abd(
            ConfigId(0),
            (1..=3).map(ProcessId).collect(),
        )]);
        let cfg = WalConfig { fsync: FsyncPolicy::Batched, ..WalConfig::default() };
        let mut nodes = boot(&dirs, &reg, &cfg);
        let first = propose(&mut nodes, ProcessId(10), ConfigId(1));
        assert_eq!(first, ConfigId(1));
        for (_, wal) in &mut nodes {
            wal.wal.lose_unsynced().unwrap();
        }
        drop(nodes);
        let mut nodes = boot(&dirs, &reg, &cfg);
        let second = propose(&mut nodes, ProcessId(11), ConfigId(2));
        assert_eq!(second, first, "one instance decided two values across a power loss");
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
            assert!(
                wal.journal(ProcessId(90), &msg, &actor),
                "a failed log keeps serving DAP writes"
            );
            let mut ctx = Ctx::detached(ProcessId(1), 0, &mut rng);
            actor.on_message(ProcessId(90), msg, &mut ctx);
            drop(ctx.take_effects());
        }
        assert!(wal.wal.failed(), "quota exhaustion must fail the log");
        use std::sync::atomic::Ordering;
        assert_eq!(
            counters.append_errors.load(Ordering::Relaxed),
            1,
            "journaling stops at the refusal: no later append is tried"
        );
        let appended = counters.records_appended.load(Ordering::Relaxed);
        assert!(appended < 20, "appends must stop at the quota, not continue");
        let ballot = Ballot { round: 1, proposer: ProcessId(3) };
        let prepare =
            Msg::Con(ConMsg::Prepare { inst: ConfigId(0), rpc: RpcId(1), ballot, op: op(1) });
        assert!(!wal.journal(ProcessId(3), &prepare, &actor), "a failed log refuses a Prepare");
    }
}
