//! Hostile-crash recovery tests for the durable node runtime
//! (`ares-net` + `ares-wal`): nodes are killed mid-run — with their
//! write-ahead logs then torn, corrupted, or starved of disk — and
//! brought back through the replay-then-delta-repair path. Every
//! scenario's completion history must pass the same tag-based
//! atomicity checker as the in-memory runs: recovery may lose a log
//! suffix (repair refetches it) but must never resurrect a node into a
//! state that breaks linearizability.

use ares_core::store::{OpError, OpTicket, Store, StoreSession};
use ares_harness::check_atomicity;
use ares_net::testing::LocalCluster;
use ares_net::{NetSession, NetTicket, WalConfig};
use ares_types::{ConfigId, Configuration, ObjectId, OpCompletion, ProcessId, Value};
use std::path::PathBuf;
use std::time::Duration;

const OBJ: ObjectId = ObjectId(0);

/// Blocks until a just-submitted operation completes.
fn done(ticket: Result<NetTicket, OpError>) -> OpCompletion {
    ticket.expect("submitted").wait().expect("completed")
}

/// The writer (client 100) and reader (client 110) sessions every
/// scenario drives.
fn sessions(cluster: &LocalCluster) -> (NetSession, NetSession) {
    (cluster.store(100).open_session(), cluster.store(110).open_session())
}

fn universe() -> Vec<Configuration> {
    vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)]
}

/// The `.log` segment files of `pid`'s shard-0 write-ahead log,
/// ascending by sequence (the last one is the newest).
fn segments(cluster: &LocalCluster, pid: u32) -> Vec<PathBuf> {
    let dir = cluster.data_dir(pid).expect("durable node").join("shard-0");
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("shard dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    v.sort();
    v
}

/// Kill -9 mid-write: a node is crash-stopped while writes race it,
/// more writes land during the outage (the delta), and recovery must
/// replay the journaled prefix and repair the rest.
#[test]
fn kill_mid_write_recovers_by_replaying_journal() {
    let cluster = LocalCluster::builder(universe())
        .clients([100, 110])
        .durable(WalConfig::default())
        .start()
        .unwrap();
    let (mut writer, mut reader) = sessions(&cluster);
    let mut history: Vec<OpCompletion> = Vec::new();
    for i in 1u64..=6 {
        history.push(done(writer.write(OBJ, Value::filler(128, i))));
    }
    cluster.kill(3);
    // The delta: written while node 3 is down, so it can only come back
    // via fragment repair, not replay.
    for i in 7u64..=9 {
        history.push(done(writer.write(OBJ, Value::filler(128, i))));
    }
    let reports = cluster.restart_recovered(3).unwrap();
    let replayed: u64 = reports.iter().map(|r| r.records_replayed).sum();
    assert!(replayed > 0, "the journaled prefix was replayed, got {reports:?}");
    std::thread::sleep(Duration::from_millis(60)); // repair round-trips

    let stats = cluster.node_stats(3);
    let wal = stats.wal.expect("durable node reports WAL counters");
    assert!(wal.records_appended > 0, "writes were journaled");
    assert!(wal.replay_records >= replayed, "recovery counters survive the restart");

    for _ in 0..3 {
        history.push(done(reader.read(OBJ)));
    }
    let last = done(reader.read(OBJ));
    assert_eq!(last.value_digest, Some(Value::filler(128, 9).digest()));
    history.push(last);
    cluster.shutdown();
    check_atomicity(&history).assert_atomic();
}

/// A torn final record — the classic power-cut artifact — is truncated
/// away and replay continues with the good prefix.
#[test]
fn torn_final_record_truncates_and_continues() {
    let cluster = LocalCluster::builder(universe())
        .clients([100, 110])
        .durable(WalConfig::default())
        .start()
        .unwrap();
    let (mut writer, mut reader) = sessions(&cluster);
    let mut history: Vec<OpCompletion> = Vec::new();
    for i in 1u64..=5 {
        history.push(done(writer.write(OBJ, Value::filler(128, i))));
    }
    cluster.kill(3);
    std::thread::sleep(Duration::from_millis(30)); // drain in-flight journaling
    let segs = segments(&cluster, 3);
    let tail = segs.last().expect("node 3 journaled at least one segment");
    let len = std::fs::metadata(tail).unwrap().len();
    assert!(len > 3, "segment holds at least one frame");
    // Shear the last few bytes off the newest segment: a half-written
    // final frame.
    let f = std::fs::OpenOptions::new().write(true).open(tail).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);

    let reports = cluster.restart_recovered(3).unwrap();
    assert!(
        reports.iter().any(|r| r.torn_tail_truncated),
        "the torn tail was detected and truncated, got {reports:?}"
    );
    assert!(
        !reports.iter().any(|r| r.stopped_at_corruption),
        "a torn tail is not mid-log corruption, got {reports:?}"
    );
    std::thread::sleep(Duration::from_millis(60));

    history.push(done(writer.write(OBJ, Value::filler(128, 6))));
    let last = done(reader.read(OBJ));
    assert_eq!(last.value_digest, Some(Value::filler(128, 6).digest()));
    history.push(last);
    cluster.shutdown();
    check_atomicity(&history).assert_atomic();
}

/// A flipped bit mid-segment (bit rot) fails the record CRC; replay
/// stops at the last good prefix and delta repair refetches the rest.
#[test]
fn corrupted_crc_mid_segment_stops_at_good_prefix() {
    // Tiny segments force rotation, so the corruption lands in an older
    // segment — mid-log, not the truncatable tail.
    let wal = WalConfig { segment_bytes: 256, ..WalConfig::default() };
    let cluster =
        LocalCluster::builder(universe()).clients([100, 110]).durable(wal).start().unwrap();
    let (mut writer, mut reader) = sessions(&cluster);
    let mut history: Vec<OpCompletion> = Vec::new();
    for i in 1u64..=8 {
        history.push(done(writer.write(OBJ, Value::filler(128, i))));
    }
    cluster.kill(3);
    std::thread::sleep(Duration::from_millis(30));
    let segs = segments(&cluster, 3);
    assert!(segs.len() >= 2, "tiny segments rotated, got {segs:?}");
    // Flip one byte inside the first record of the oldest segment.
    let mut bytes = std::fs::read(&segs[0]).unwrap();
    bytes[10] ^= 0x40;
    std::fs::write(&segs[0], bytes).unwrap();

    let reports = cluster.restart_recovered(3).unwrap();
    assert!(
        reports.iter().any(|r| r.stopped_at_corruption),
        "mid-log corruption was detected, got {reports:?}"
    );
    std::thread::sleep(Duration::from_millis(60));

    history.push(done(writer.write(OBJ, Value::filler(128, 9))));
    let last = done(reader.read(OBJ));
    assert_eq!(last.value_digest, Some(Value::filler(128, 9).digest()));
    history.push(last);
    cluster.shutdown();
    check_atomicity(&history).assert_atomic();
}

/// Disk full on append: once the write quota is exhausted the WAL
/// degrades — journaling stops, the node keeps serving from memory —
/// and a later recovery replays the logged prefix and repairs the rest.
#[test]
fn disk_full_on_append_degrades_then_recovers() {
    let wal = WalConfig { write_quota: Some(400), ..WalConfig::default() };
    let cluster =
        LocalCluster::builder(universe()).clients([100, 110]).durable(wal).start().unwrap();
    let (mut writer, mut reader) = sessions(&cluster);
    let mut history: Vec<OpCompletion> = Vec::new();
    // Far more write traffic than 400 bytes of log budget: the WAL must
    // hit the quota and degrade while the cluster keeps serving.
    for i in 1u64..=10 {
        history.push(done(writer.write(OBJ, Value::filler(128, i))));
    }
    let wal_stats = cluster.node_stats(3).wal.expect("durable node");
    assert!(wal_stats.append_errors > 0, "the quota forced an append error, got {wal_stats:?}");

    cluster.kill(3);
    let reports = cluster.restart_recovered(3).unwrap();
    // Whatever prefix made it to disk is replayed; repair covers the
    // degraded suffix.
    std::thread::sleep(Duration::from_millis(60));
    history.push(done(writer.write(OBJ, Value::filler(128, 11))));
    let last = done(reader.read(OBJ));
    assert_eq!(last.value_digest, Some(Value::filler(128, 11).digest()));
    history.push(last);
    cluster.shutdown();
    assert!(
        reports.iter().map(|r| r.records_replayed).sum::<u64>() <= 10 * 5,
        "sanity: replay bounded by what was journaled"
    );
    check_atomicity(&history).assert_atomic();
}

/// Recovery under live traffic: writes and reads keep flowing while a
/// node is killed and brought back through replay + repair mid-run.
#[test]
fn restart_under_traffic_stays_atomic() {
    let cluster = LocalCluster::builder(universe())
        .clients([100, 110])
        .durable(WalConfig::default())
        .start()
        .unwrap();
    let (mut writer, mut reader) = sessions(&cluster);
    let mut history: Vec<OpCompletion> = Vec::new();
    history.push(done(writer.write(OBJ, Value::filler(200, 1))));

    let (writes, reads) = std::thread::scope(|s| {
        let write_thread = s.spawn(|| {
            let mut out = Vec::new();
            for i in 2u64..=9 {
                out.push(done(writer.write(OBJ, Value::filler(200, i))));
                std::thread::sleep(Duration::from_millis(3));
            }
            out
        });
        let read_thread = s.spawn(|| {
            let mut out = Vec::new();
            for _ in 0..8 {
                out.push(done(reader.read(OBJ)));
                std::thread::sleep(Duration::from_millis(4));
            }
            out
        });
        std::thread::sleep(Duration::from_millis(8));
        cluster.kill(2);
        std::thread::sleep(Duration::from_millis(10));
        cluster.restart_recovered(2).unwrap();
        (write_thread.join().expect("writer thread"), read_thread.join().expect("reader thread"))
    });
    history.extend(writes);
    history.extend(reads);
    let last = done(reader.read(OBJ));
    assert_eq!(last.value_digest, Some(Value::filler(200, 9).digest()));
    history.push(last);
    cluster.shutdown();
    check_atomicity(&history).assert_atomic();
}
