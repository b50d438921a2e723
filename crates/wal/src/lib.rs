//! `ares-wal` — per-shard write-ahead log for the ARES runtime.
//!
//! Every node of the seed runtime is pure in-memory: a restart is a
//! blank slate that must be re-fed by RADON-style fragment repair
//! (Konwar et al., OPODIS 2016), and Paxos acceptor promises that do
//! not survive a crash are not honestly promises. This crate supplies
//! the durable half of crash recovery: an append-only **segmented log
//! of opaque byte records**, group commit under a configurable fsync
//! policy, and **checkpoints** that compact the log so replay stays
//! bounded by the checkpoint cadence rather than the node's lifetime.
//!
//! The crate deliberately knows nothing about ARES messages: records
//! are `&[u8]`, framed on disk as
//!
//! ```text
//! [len: u32 BE][crc32(payload): u32 BE][payload bytes]
//! ```
//!
//! so the layer above (`ares-net`) can reuse its existing wire codec
//! as the record format — a WAL record *is* an encoded wire payload.
//! Keeping the log byte-opaque also keeps the crate std-only, which
//! lets it sit below every other runtime crate in the workspace
//! layering.
//!
//! # Hostile-input discipline
//!
//! After a crash the log bytes are untrusted: a torn write can leave a
//! half-frame at the tail, bit rot can corrupt a CRC mid-segment, and
//! `len` prefixes may be garbage. Recovery therefore never panics and
//! never over-allocates on a hostile `len`:
//!
//! * a bad frame at the **tail of the newest segment** is a torn write
//!   — the file is truncated back to the last whole record and the log
//!   continues (`torn_tail_truncations`);
//! * a bad frame **before the newest segment's tail** is corruption —
//!   replay stops at the last good prefix (`corrupt_records_dropped`)
//!   and the caller falls back to its network repair path for the
//!   suffix;
//! * a corrupt checkpoint falls back to the next older checkpoint (or
//!   full replay of the surviving segments).
//!
//! Prefix-replay is always safe for ARES state because every journaled
//! update is a monotone merge (tag-ordered writes, ballot-ordered
//! promises, ⊥→Pending→Finalized config installs); dropping a suffix
//! only loses recency, which the delta-repair pass restores.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Hard cap on a single record's length prefix. Anything larger is
/// treated as frame corruption rather than an allocation request: the
/// runtime's wire frames are capped at 32 MiB, so a 64 MiB record
/// cannot be legitimate.
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// Bytes of framing overhead per record (`len` + `crc32`).
pub const RECORD_HEADER_LEN: usize = 8;

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

/// Slice-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes,
/// so eight lookups retire eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        // lint: allow(net-panic, reason = "const table build: i < 256 by the loop bound")
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            // lint: allow(net-panic, reason = "const table build: 1 <= k < 8 and i < 256 by the loop bounds")
            let prev = tables[k - 1][i];
            // lint: allow(net-panic, reason = "const table build: index masked with & 0xFF; k < 8, i < 256 by the loop bounds")
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, the zlib/ethernet polynomial) of `bytes`.
///
/// Hand-rolled because the build environment vendors no checksum
/// crate; slice-by-8, so a 64 KiB record costs eight table lookups per
/// eight bytes instead of a dependent lookup per byte.
pub fn crc32(mut bytes: &[u8]) -> u32 {
    fn at(table: &[u32; 256], b: u8) -> u32 {
        // lint: allow(net-panic, reason = "a u8 indexes a 256-entry table — bounds hold by construction")
        table[usize::from(b)]
    }
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
    let mut c = !0u32;
    while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
        let [b0, b1, b2, b3, b4, b5, b6, b7] =
            (u64::from_le_bytes(*word) ^ u64::from(c)).to_le_bytes();
        c = at(t7, b0)
            ^ at(t6, b1)
            ^ at(t5, b2)
            ^ at(t4, b3)
            ^ at(t3, b4)
            ^ at(t2, b5)
            ^ at(t1, b6)
            ^ at(t0, b7);
        bytes = rest;
    }
    for &b in bytes {
        c = at(t0, (c as u8) ^ b) ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record: no acknowledged update is ever
    /// lost to a power failure, at one disk round-trip per record.
    PerRecord,
    /// Group commit: records accumulate and a single `fdatasync`
    /// covers the batch — forced when [`WalOptions::batch_records`]
    /// are pending, or when the owner calls [`Wal::sync`] as its event
    /// loop goes idle. Bounded loss window, amortised disk cost.
    Batched,
    /// Never fsync: durability is whatever the OS page cache provides.
    /// Survives process crashes (the kernel still holds the pages) but
    /// not power loss; the fastest option for benchmarks.
    Off,
}

/// Tuning knobs for one [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// Fsync policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the active one reaches this many
    /// bytes. Smaller segments bound the blast radius of tail
    /// corruption; larger ones amortise file creation.
    pub segment_bytes: u64,
    /// Under [`FsyncPolicy::Batched`], force a sync once this many
    /// records are pending even if the owner never goes idle.
    pub batch_records: u64,
    /// Fault injection for tests: total bytes the log may write before
    /// appends fail like a full disk. `None` disables the injection.
    pub write_quota: Option<u64>,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync: FsyncPolicy::Batched,
            segment_bytes: 4 << 20,
            batch_records: 64,
            write_quota: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Shared monotone counters for one shard's log.
///
/// The event-loop thread owns the [`Wal`] itself; stats readers on
/// other threads observe these relaxed atomics. The same `Arc` is
/// threaded through crash/recovery reopens so counters persist across
/// a recovered restart.
#[derive(Debug, Default)]
pub struct WalCounters {
    /// Records appended (framing included in `bytes_logged`).
    pub records_appended: AtomicU64,
    /// Bytes written to segments and checkpoints, framing included.
    pub bytes_logged: AtomicU64,
    /// `fdatasync` calls issued.
    pub fsyncs: AtomicU64,
    /// Records covered by group-commit syncs (batch-size numerator).
    pub group_commit_records: AtomicU64,
    /// Group-commit syncs issued (batch-size denominator).
    pub group_commit_syncs: AtomicU64,
    /// Checkpoints written.
    pub checkpoints: AtomicU64,
    /// Records replayed across all recoveries.
    pub replay_records: AtomicU64,
    /// Torn tails truncated during recovery.
    pub torn_tail_truncations: AtomicU64,
    /// Bad mid-log frames (or checkpoints) that stopped replay early.
    pub corrupt_records_dropped: AtomicU64,
    /// Appends refused or failed (quota exhaustion, I/O errors).
    pub append_errors: AtomicU64,
}

impl WalCounters {
    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> WalStats {
        WalStats {
            records_appended: self.records_appended.load(Ordering::Relaxed),
            bytes_logged: self.bytes_logged.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            group_commit_records: self.group_commit_records.load(Ordering::Relaxed),
            group_commit_syncs: self.group_commit_syncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            replay_records: self.replay_records.load(Ordering::Relaxed),
            torn_tail_truncations: self.torn_tail_truncations.load(Ordering::Relaxed),
            corrupt_records_dropped: self.corrupt_records_dropped.load(Ordering::Relaxed),
            append_errors: self.append_errors.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value snapshot of [`WalCounters`]; additive across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended.
    pub records_appended: u64,
    /// Bytes written (records + checkpoints, framing included).
    pub bytes_logged: u64,
    /// `fdatasync` calls issued.
    pub fsyncs: u64,
    /// Records covered by group-commit syncs.
    pub group_commit_records: u64,
    /// Group-commit syncs issued.
    pub group_commit_syncs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Records replayed across all recoveries.
    pub replay_records: u64,
    /// Torn tails truncated during recovery.
    pub torn_tail_truncations: u64,
    /// Bad mid-log frames that stopped replay early.
    pub corrupt_records_dropped: u64,
    /// Appends refused or failed.
    pub append_errors: u64,
}

impl WalStats {
    /// Mean records per group-commit sync (1.0 under
    /// [`FsyncPolicy::PerRecord`], 0.0 before the first sync).
    pub fn group_commit_batch_size(&self) -> f64 {
        if self.group_commit_syncs == 0 {
            0.0
        } else {
            self.group_commit_records as f64 / self.group_commit_syncs as f64
        }
    }

    /// Adds `other` into `self` (aggregation across shards).
    pub fn merge(&mut self, other: &WalStats) {
        self.records_appended += other.records_appended;
        self.bytes_logged += other.bytes_logged;
        self.fsyncs += other.fsyncs;
        self.group_commit_records += other.group_commit_records;
        self.group_commit_syncs += other.group_commit_syncs;
        self.checkpoints += other.checkpoints;
        self.replay_records += other.replay_records;
        self.torn_tail_truncations += other.torn_tail_truncations;
        self.corrupt_records_dropped += other.corrupt_records_dropped;
        self.append_errors += other.append_errors;
    }
}

// ---------------------------------------------------------------------------
// Recovery result
// ---------------------------------------------------------------------------

/// What [`Wal::open`] reconstructed from disk.
#[derive(Debug)]
pub struct Recovery {
    /// Payload of the newest *valid* checkpoint, if any.
    pub checkpoint: Option<Vec<u8>>,
    /// Record payloads appended after that checkpoint, in append
    /// order — the tail the caller must replay on top of the
    /// checkpoint state.
    pub records: Vec<Vec<u8>>,
    /// A torn final record was truncated away.
    pub torn_tail_truncated: bool,
    /// Replay stopped early at a corrupt mid-log frame; the caller
    /// should lean on its network repair path for the lost suffix.
    pub stopped_at_corruption: bool,
}

// ---------------------------------------------------------------------------
// The log
// ---------------------------------------------------------------------------

/// One shard's write-ahead log: a directory of CRC-framed segments
/// (`seg-<seq>.log`) plus checkpoint blobs (`ck-<seq>.ck`).
///
/// A checkpoint with sequence number `s` asserts "the checkpoint
/// payload captures every record in segments `< s`"; recovery loads
/// the newest valid checkpoint and replays only segments `>= s`.
/// Writing a checkpoint therefore rotates to a fresh segment first,
/// then retires every older segment and checkpoint.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    counters: Arc<WalCounters>,
    active: File,
    active_seq: u64,
    active_len: u64,
    /// Records appended since the last sync (group-commit batch).
    pending: u64,
    /// Records appended since the last checkpoint.
    since_ckpt: u64,
    quota_left: Option<u64>,
    /// A write failed mid-frame: the tail is suspect, refuse further
    /// appends until the log is reopened (which truncates the tear).
    failed: bool,
}

impl Wal {
    /// Opens (or creates) the log in `dir`, recovering whatever state
    /// survives on disk. Appends always go to a fresh segment, so a
    /// suspect tail from the previous life is never extended.
    ///
    /// `counters` is supplied by the caller so the same counter set
    /// can span crash/recovery reopens.
    pub fn open(
        dir: &Path,
        opts: WalOptions,
        counters: Arc<WalCounters>,
    ) -> io::Result<(Wal, Recovery)> {
        fs::create_dir_all(dir)?;
        let mut segs: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let mut cks: BTreeMap<u64, PathBuf> = BTreeMap::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) => n.to_string(),
                None => continue,
            };
            if name.ends_with(".tmp") {
                // Leftover from a checkpoint interrupted mid-write:
                // never valid, remove eagerly.
                let _ = fs::remove_file(&path);
            } else if let Some(seq) = parse_name(&name, "seg-", ".log") {
                segs.insert(seq, path);
            } else if let Some(seq) = parse_name(&name, "ck-", ".ck") {
                cks.insert(seq, path);
            }
        }

        // Newest valid checkpoint wins; corrupt ones fall back to the
        // next older (and are counted, since they cost recovery work).
        let mut checkpoint = None;
        let mut ck_seq = 0u64;
        for (&seq, path) in cks.iter().rev() {
            match load_checkpoint(path) {
                Some(payload) => {
                    checkpoint = Some(payload);
                    ck_seq = seq;
                    break;
                }
                None => {
                    counters.corrupt_records_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // Replay the tail: segments at or after the checkpoint seq, in
        // order. A bad frame in the newest segment is a torn tail
        // (truncate and continue); anywhere earlier it is corruption
        // (stop at the good prefix — the suffix is the repair delta).
        let mut records = Vec::new();
        let mut torn_tail_truncated = false;
        let mut stopped_at_corruption = false;
        let tail: Vec<(u64, PathBuf)> =
            segs.range(ck_seq..).map(|(s, p)| (*s, p.clone())).collect();
        for (i, (_, path)) in tail.iter().enumerate() {
            let buf = fs::read(path)?;
            let (mut recs, good_end, clean) = split_frames(&buf);
            records.append(&mut recs);
            if !clean {
                if i + 1 == tail.len() {
                    // Torn final record: truncate back to the last
                    // whole frame so the file is well-formed again.
                    let f = OpenOptions::new().write(true).open(path)?;
                    f.set_len(good_end as u64)?;
                    f.sync_data()?;
                    counters.torn_tail_truncations.fetch_add(1, Ordering::Relaxed);
                    torn_tail_truncated = true;
                } else {
                    counters.corrupt_records_dropped.fetch_add(1, Ordering::Relaxed);
                    stopped_at_corruption = true;
                }
                break;
            }
        }
        counters.replay_records.fetch_add(records.len() as u64, Ordering::Relaxed);

        // Fresh active segment strictly after everything seen on disk.
        let max_seen = segs.keys().next_back().copied().unwrap_or(0).max(ck_seq);
        let active_seq = max_seen + 1;
        let active = File::create(seg_path(dir, active_seq))?;
        let wal = Wal {
            dir: dir.to_path_buf(),
            quota_left: opts.write_quota,
            opts,
            counters,
            active,
            active_seq,
            active_len: 0,
            pending: 0,
            since_ckpt: 0,
            failed: false,
        };
        Ok((wal, Recovery { checkpoint, records, torn_tail_truncated, stopped_at_corruption }))
    }

    /// The shared counter set (clone the `Arc` for stats readers).
    pub fn counters(&self) -> &Arc<WalCounters> {
        &self.counters
    }

    /// Records appended since the last checkpoint (the caller decides
    /// the checkpoint cadence).
    pub fn since_checkpoint(&self) -> u64 {
        self.since_ckpt
    }

    /// Appends one record and applies the fsync policy. On error the
    /// log refuses further appends until reopened: a failed write may
    /// have left a partial frame, and recovery's torn-tail truncation
    /// is the only safe way to resume.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.failed {
            self.counters.append_errors.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::other("wal is failed; reopen to recover"));
        }
        let frame = frame_record(payload);
        if let Some(q) = self.quota_left {
            if (frame.len() as u64) > q {
                self.counters.append_errors.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::other("wal write quota exhausted (injected disk-full)"));
            }
        }
        if self.active_len >= self.opts.segment_bytes {
            self.rotate()?;
        }
        // lint: allow(loop-blocking-transitive, reason = "the WAL's one sanctioned durability point on the shard loop: a bounded buffered append to a local file (no network), amortized by group commit; a failure flips the log into degraded mode instead of stalling the shard")
        if let Err(e) = self.active.write_all(&frame) {
            self.failed = true;
            self.counters.append_errors.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.charge(frame.len() as u64);
        self.counters.records_appended.fetch_add(1, Ordering::Relaxed);
        self.pending += 1;
        self.since_ckpt += 1;
        match self.opts.fsync {
            FsyncPolicy::PerRecord => self.sync_now()?,
            FsyncPolicy::Batched if self.pending >= self.opts.batch_records => self.sync_now()?,
            _ => {}
        }
        Ok(())
    }

    /// Group-commit flush point: under [`FsyncPolicy::Batched`] the
    /// owner calls this as its event loop goes idle, closing the
    /// current batch. No-op when nothing is pending or the policy
    /// syncs elsewhere.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.failed || self.pending == 0 || self.opts.fsync != FsyncPolicy::Batched {
            return Ok(());
        }
        self.sync_now()
    }

    /// Writes a checkpoint: rotates to a fresh segment, persists
    /// `snapshot` as `ck-<new seq>.ck` (written to a temp file and
    /// renamed, so a torn checkpoint is never taken for a whole one),
    /// then retires every older segment and checkpoint. The previous
    /// checkpoint is deleted only after the new one is durable.
    pub fn checkpoint(&mut self, snapshot: &[u8]) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other("wal is failed; reopen to recover"));
        }
        let frame = frame_record(snapshot);
        if let Some(q) = self.quota_left {
            if (frame.len() as u64) > q {
                self.counters.append_errors.fetch_add(1, Ordering::Relaxed);
                return Err(io::Error::other("wal write quota exhausted (injected disk-full)"));
            }
        }
        let new_seq = self.active_seq + 1;

        // 1. Durable checkpoint under a temp name, then rename.
        // lint: allow(loop-blocking-transitive, reason = "PathBuf::join is pure path arithmetic, not a thread join")
        let tmp = self.dir.join(format!("ck-{new_seq:016x}.ck.tmp"));
        let res: io::Result<()> = (|| {
            let mut f = File::create(&tmp)?;
            // lint: allow(loop-blocking-transitive, reason = "checkpoints are rare (every checkpoint_records appends) and bounded by snapshot size; a failure flips the log into degraded mode instead of stalling the shard")
            f.write_all(&frame)?;
            if self.opts.fsync != FsyncPolicy::Off {
                f.sync_data()?;
                self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            fs::rename(&tmp, ck_path(&self.dir, new_seq))?;
            if self.opts.fsync != FsyncPolicy::Off {
                File::open(&self.dir)?.sync_all()?;
                self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })();
        if let Err(e) = res {
            let _ = fs::remove_file(&tmp);
            self.failed = true;
            return Err(e);
        }
        self.charge(frame.len() as u64);

        // 2. Fresh active segment; pending records of the old one are
        //    covered by the checkpoint and need no final sync.
        match File::create(seg_path(&self.dir, new_seq)) {
            Ok(f) => {
                self.active = f;
                self.active_seq = new_seq;
                self.active_len = 0;
                self.pending = 0;
            }
            Err(e) => {
                self.failed = true;
                return Err(e);
            }
        }

        // 3. Retire everything the checkpoint superseded. Removal
        //    failures are harmless (stale files are ignored or retried
        //    at the next checkpoint), so they are not propagated.
        if let Ok(dirents) = fs::read_dir(&self.dir) {
            for entry in dirents.flatten() {
                let path = entry.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
                let seq =
                    parse_name(name, "seg-", ".log").or_else(|| parse_name(name, "ck-", ".ck"));
                if seq.is_some_and(|s| s < new_seq) {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        self.counters.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.since_ckpt = 0;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Close out the batch so rotation never strands pending
        // records in a segment that no longer receives syncs.
        if self.pending > 0 && self.opts.fsync != FsyncPolicy::Off {
            self.sync_now()?;
        }
        let next = self.active_seq + 1;
        match File::create(seg_path(&self.dir, next)) {
            Ok(f) => {
                self.active = f;
                self.active_seq = next;
                self.active_len = 0;
                Ok(())
            }
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn sync_now(&mut self) -> io::Result<()> {
        if let Err(e) = self.active.sync_data() {
            self.failed = true;
            return Err(e);
        }
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.counters.group_commit_records.fetch_add(self.pending, Ordering::Relaxed);
        self.counters.group_commit_syncs.fetch_add(1, Ordering::Relaxed);
        self.pending = 0;
        Ok(())
    }

    fn charge(&mut self, bytes: u64) {
        self.active_len += bytes;
        self.counters.bytes_logged.fetch_add(bytes, Ordering::Relaxed);
        if let Some(q) = self.quota_left.as_mut() {
            *q = q.saturating_sub(bytes);
        }
    }
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    // lint: allow(loop-blocking-transitive, reason = "PathBuf::join is pure path arithmetic, not a thread join")
    dir.join(format!("seg-{seq:016x}.log"))
}

fn ck_path(dir: &Path, seq: u64) -> PathBuf {
    // lint: allow(loop-blocking-transitive, reason = "PathBuf::join is pure path arithmetic, not a thread join")
    dir.join(format!("ck-{seq:016x}.ck"))
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let hex = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    u64::from_str_radix(hex, 16).ok()
}

/// Frames `payload` as `[len][crc][payload]`.
fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

fn read_be_u32(buf: &[u8], at: usize) -> Option<u32> {
    let s = buf.get(at..at.checked_add(4)?)?;
    let arr: [u8; 4] = s.try_into().ok()?;
    Some(u32::from_be_bytes(arr))
}

/// Splits `buf` into whole frames. Returns the payloads, the offset of
/// the first byte *not* covered by a whole valid frame, and whether
/// the buffer was consumed cleanly. Hostile `len` prefixes are bounded
/// by [`MAX_RECORD_LEN`] and by the buffer itself, so no allocation is
/// driven by untrusted bytes.
fn split_frames(buf: &[u8]) -> (Vec<Vec<u8>>, usize, bool) {
    let mut recs = Vec::new();
    let mut off = 0usize;
    while off < buf.len() {
        let frame = (|| {
            let len = read_be_u32(buf, off)? as usize;
            let crc = read_be_u32(buf, off.checked_add(4)?)?;
            if len > MAX_RECORD_LEN {
                return None;
            }
            let start = off.checked_add(RECORD_HEADER_LEN)?;
            let payload = buf.get(start..start.checked_add(len)?)?;
            if crc32(payload) != crc {
                return None;
            }
            Some(payload.to_vec())
        })();
        match frame {
            Some(payload) => {
                off += RECORD_HEADER_LEN + payload.len();
                recs.push(payload);
            }
            None => return (recs, off, false),
        }
    }
    (recs, off, true)
}

/// Loads one checkpoint file: exactly one valid frame, nothing else.
fn load_checkpoint(path: &Path) -> Option<Vec<u8>> {
    let buf = fs::read(path).ok()?;
    let (mut recs, _, clean) = split_frames(&buf);
    if clean && recs.len() == 1 {
        recs.pop()
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Temp directories for tests and harnesses
// ---------------------------------------------------------------------------

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, removed
/// (recursively, best-effort) on drop. WAL-enabled test clusters hold
/// one so parallel test runs neither collide nor litter the
/// workspace.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<system tmp>/<prefix>-<pid>-<nanos>-<seq>`.
    pub fn new(prefix: &str) -> io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("{prefix}-{}-{nanos:x}-{seq}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open_fresh(dir: &Path, opts: WalOptions) -> (Wal, Recovery) {
        Wal::open(dir, opts, Arc::new(WalCounters::default())).expect("open")
    }

    fn reopen(dir: &Path, opts: WalOptions) -> (Wal, Recovery) {
        open_fresh(dir, opts)
    }

    fn newest_segment(dir: &Path) -> PathBuf {
        let mut segs: Vec<PathBuf> = fs::read_dir(dir)
            .expect("read_dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                let named =
                    p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.starts_with("seg-"));
                named && fs::metadata(p).map(|m| m.len()).unwrap_or(0) > 0
            })
            .collect();
        segs.sort();
        segs.pop().expect("a non-empty segment")
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_loop() {
        // The one-lookup-per-byte form the sliced kernel replaced.
        fn bytewise(bytes: &[u8]) -> u32 {
            !bytes
                .iter()
                .fold(!0u32, |c, &b| CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8))
        }
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let buf: Vec<u8> = (0..4_099 + 8).map(|_| next() as u8).collect();
        // Every short length (all tail shapes) at every alignment, then
        // random lengths up to 4,099 at random offsets 0..8.
        for off in 0..8 {
            for len in 0..=64 {
                assert_eq!(crc32(&buf[off..off + len]), bytewise(&buf[off..off + len]));
            }
        }
        for _ in 0..2_000 {
            let (off, len) = ((next() % 8) as usize, (next() % 4_100) as usize);
            let s = &buf[off..off + len];
            assert_eq!(crc32(s), bytewise(s), "offset {off} length {len}");
        }
    }

    #[test]
    fn append_and_replay_round_trip() {
        let t = TempDir::new("wal-rt").expect("tempdir");
        let opts = WalOptions::default();
        {
            let (mut w, rec) = open_fresh(t.path(), opts);
            assert!(rec.checkpoint.is_none() && rec.records.is_empty());
            for i in 0u8..10 {
                w.append(&[i; 5]).expect("append");
            }
            w.sync().expect("sync");
        }
        let (_, rec) = reopen(t.path(), opts);
        assert_eq!(rec.records.len(), 10);
        assert_eq!(rec.records[3], vec![3u8; 5]);
        assert!(!rec.torn_tail_truncated && !rec.stopped_at_corruption);
    }

    #[test]
    fn torn_final_record_truncates_and_continues() {
        let t = TempDir::new("wal-torn").expect("tempdir");
        let opts = WalOptions::default();
        {
            let (mut w, _) = open_fresh(t.path(), opts);
            for i in 0u8..5 {
                w.append(&[i; 100]).expect("append");
            }
        }
        // Tear the tail: chop the last record mid-payload.
        let seg = newest_segment(t.path());
        let len = fs::metadata(&seg).expect("meta").len();
        let f = OpenOptions::new().write(true).open(&seg).expect("open");
        f.set_len(len - 30).expect("truncate");
        drop(f);

        let counters = Arc::new(WalCounters::default());
        let (mut w, rec) = Wal::open(t.path(), opts, counters.clone()).expect("reopen");
        assert_eq!(rec.records.len(), 4, "torn record dropped, prefix kept");
        assert!(rec.torn_tail_truncated);
        assert!(!rec.stopped_at_corruption);
        assert_eq!(counters.snapshot().torn_tail_truncations, 1);
        // The log continues: new appends land and a further reopen
        // sees old prefix + new records.
        w.append(&[9u8; 8]).expect("append after tear");
        drop(w);
        let (_, rec2) = reopen(t.path(), opts);
        assert_eq!(rec2.records.len(), 5);
        assert_eq!(rec2.records[4], vec![9u8; 8]);
    }

    #[test]
    fn corrupt_crc_mid_segment_stops_at_good_prefix() {
        let t = TempDir::new("wal-corrupt").expect("tempdir");
        // Tiny segments force multiple files so the corruption is
        // genuinely mid-log, not a tail.
        let opts = WalOptions { segment_bytes: 256, ..WalOptions::default() };
        {
            let (mut w, _) = open_fresh(t.path(), opts);
            for i in 0u8..20 {
                w.append(&[i; 64]).expect("append");
            }
        }
        // Flip one payload byte in the *first* non-empty segment.
        let mut segs: Vec<PathBuf> = fs::read_dir(t.path())
            .expect("read_dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| fs::metadata(p).map(|m| m.len()).unwrap_or(0) > 0)
            .collect();
        segs.sort();
        let first = segs.first().expect("segment");
        let mut buf = fs::read(first).expect("read");
        buf[RECORD_HEADER_LEN + 3] ^= 0xFF;
        fs::write(first, &buf).expect("write");

        let counters = Arc::new(WalCounters::default());
        let (_, rec) = Wal::open(t.path(), opts, counters.clone()).expect("reopen");
        assert!(rec.stopped_at_corruption);
        assert!(!rec.torn_tail_truncated);
        assert!(rec.records.is_empty(), "corruption hit the first record of the first segment");
        assert_eq!(counters.snapshot().corrupt_records_dropped, 1);
    }

    #[test]
    fn checkpoint_compacts_and_recovery_prefers_it() {
        let t = TempDir::new("wal-ck").expect("tempdir");
        let opts = WalOptions::default();
        {
            let (mut w, _) = open_fresh(t.path(), opts);
            for i in 0u8..8 {
                w.append(&[i; 16]).expect("append");
            }
            w.checkpoint(b"SNAPSHOT-A").expect("checkpoint");
            w.append(&[42u8; 16]).expect("append after ck");
        }
        let counters = Arc::new(WalCounters::default());
        let (_, rec) = Wal::open(t.path(), opts, counters.clone()).expect("reopen");
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"SNAPSHOT-A"[..]));
        assert_eq!(rec.records.len(), 1, "only the post-checkpoint tail replays");
        assert_eq!(rec.records[0], vec![42u8; 16]);
        // Pre-checkpoint segments were retired.
        let names: Vec<String> = fs::read_dir(t.path())
            .expect("read_dir")
            .flatten()
            .filter_map(|e| e.file_name().to_str().map(String::from))
            .collect();
        assert_eq!(names.iter().filter(|n| n.starts_with("ck-")).count(), 1);
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older() {
        let t = TempDir::new("wal-ckfall").expect("tempdir");
        let opts = WalOptions::default();
        {
            let (mut w, _) = open_fresh(t.path(), opts);
            w.append(b"one").expect("append");
            w.checkpoint(b"CK-OLD").expect("ck old");
            w.append(b"two").expect("append");
            w.checkpoint(b"CK-NEW").expect("ck new");
        }
        // Corrupt the newest checkpoint file.
        let mut cks: Vec<PathBuf> = fs::read_dir(t.path())
            .expect("read_dir")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "ck"))
            .collect();
        cks.sort();
        // Only the newest survives compaction; corrupt it.
        let newest = cks.pop().expect("checkpoint file");
        let mut buf = fs::read(&newest).expect("read");
        let at = buf.len() - 1;
        buf[at] ^= 0x01;
        fs::write(&newest, &buf).expect("write");

        let (_, rec) = reopen(t.path(), opts);
        // The older checkpoint was retired by the newer one, so the
        // fall-back is "no checkpoint at all" — and the surviving
        // segments replay from scratch without panicking.
        assert!(rec.checkpoint.is_none());
    }

    #[test]
    fn disk_full_quota_fails_append_without_poisoning_recovery() {
        let t = TempDir::new("wal-quota").expect("tempdir");
        let opts = WalOptions { write_quota: Some(200), ..WalOptions::default() };
        let counters = Arc::new(WalCounters::default());
        {
            let (mut w, _) = Wal::open(t.path(), opts, counters.clone()).expect("open");
            // 3 × (8 + 50) = 174 bytes fit; the 4th does not.
            for i in 0u8..3 {
                w.append(&[i; 50]).expect("append under quota");
            }
            let err = w.append(&[9u8; 50]).expect_err("quota exhausted");
            assert!(err.to_string().contains("quota"));
            assert_eq!(counters.snapshot().append_errors, 1);
        }
        // Everything appended before the "disk filled" is recoverable.
        let (_, rec) = reopen(t.path(), WalOptions::default());
        assert_eq!(rec.records.len(), 3);
    }

    #[test]
    fn rotation_spreads_records_across_segments() {
        let t = TempDir::new("wal-rot").expect("tempdir");
        let opts = WalOptions { segment_bytes: 128, ..WalOptions::default() };
        {
            let (mut w, _) = open_fresh(t.path(), opts);
            for i in 0u8..12 {
                w.append(&[i; 40]).expect("append");
            }
        }
        let seg_count = fs::read_dir(t.path())
            .expect("read_dir")
            .flatten()
            .filter(|e| e.file_name().to_str().is_some_and(|n| n.starts_with("seg-")))
            .count();
        assert!(seg_count > 2, "tiny segment_bytes must force rotation, got {seg_count}");
        let (_, rec) = reopen(t.path(), opts);
        assert_eq!(rec.records.len(), 12);
    }

    #[test]
    fn group_commit_batches_under_batched_policy() {
        let t = TempDir::new("wal-batch").expect("tempdir");
        let opts =
            WalOptions { fsync: FsyncPolicy::Batched, batch_records: 4, ..WalOptions::default() };
        let counters = Arc::new(WalCounters::default());
        let (mut w, _) = Wal::open(t.path(), opts, counters.clone()).expect("open");
        for i in 0u8..4 {
            w.append(&[i]).expect("append");
        }
        let s = counters.snapshot();
        assert_eq!(s.fsyncs, 1, "4 records, batch_records=4 → one sync");
        assert_eq!(s.group_commit_batch_size(), 4.0);
        // Idle flush covers a partial batch.
        w.append(&[9]).expect("append");
        w.sync().expect("idle sync");
        assert_eq!(counters.snapshot().fsyncs, 2);
    }

    #[test]
    fn per_record_policy_syncs_every_append() {
        let t = TempDir::new("wal-per").expect("tempdir");
        let opts = WalOptions { fsync: FsyncPolicy::PerRecord, ..WalOptions::default() };
        let counters = Arc::new(WalCounters::default());
        let (mut w, _) = Wal::open(t.path(), opts, counters.clone()).expect("open");
        for i in 0u8..3 {
            w.append(&[i]).expect("append");
        }
        let s = counters.snapshot();
        assert_eq!(s.fsyncs, 3);
        assert_eq!(s.group_commit_batch_size(), 1.0);
    }

    #[test]
    fn hostile_len_prefix_does_not_allocate_or_panic() {
        // A frame whose len field claims 3 GiB must be rejected as
        // corruption, not trusted as an allocation size.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0xC000_0000u32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&[0u8; 64]);
        let (recs, off, clean) = split_frames(&buf);
        assert!(recs.is_empty() && off == 0 && !clean);
    }

    #[test]
    fn temp_dir_cleans_up_on_drop() {
        let path;
        {
            let t = TempDir::new("wal-tmp").expect("tempdir");
            path = t.path().to_path_buf();
            fs::write(path.join("x"), b"y").expect("write");
        }
        assert!(!path.exists(), "TempDir must remove itself on drop");
    }
}
