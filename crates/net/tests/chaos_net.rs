//! Live-cluster chaos over loopback TCP, driven by the simulator's
//! `FaultSchedule`: an asymmetric partition that leaves four concurrent
//! sessions below quorum until a scheduled heal, and a gray (slow but
//! alive) server under load on one hot object. Every history runs
//! through the atomicity checker; the partition test also proves the
//! cut actually dropped frames and that stalled operations recover via
//! retransmission rather than timing out.

use ares_core::store::{OpError, OpTicket, Store, StoreSession};
use ares_harness::check_atomicity;
use ares_net::testing::LocalCluster;
use ares_net::NetTicket;
use ares_sim::{FaultAction, FaultSchedule};
use ares_types::{ConfigId, Configuration, ObjectId, OpCompletion, ProcessId, Value};

/// Blocks until a just-submitted operation completes.
fn done(ticket: Result<NetTicket, OpError>) -> OpCompletion {
    ticket.expect("submitted").wait().expect("completed")
}

fn treas5() -> Vec<Configuration> {
    vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)]
}

#[test]
fn asymmetric_partition_stalls_then_heals_atomically() {
    let cluster =
        LocalCluster::builder(treas5()).clients([100]).objects([0, 1]).start().expect("cluster");
    let mut sessions: Vec<_> = (0..4).map(|_| cluster.store(100).open_session()).collect();
    // Pre-fault write completes normally.
    let mut completions = vec![done(sessions[0].write(ObjectId(0), Value::filler(256, 1)))];

    // Cut the client's outbound path to servers 1–3: it can still reach
    // only 2 of 5, below the TREAS [5,3] quorum of 4, so every operation
    // stalls — server state cannot regress, the client just cannot
    // assemble replies until the heal 400 ms later. Every cut is at
    // t = 0, so `run_schedule` returns once they are in place.
    let cut = (1..=3).fold(FaultSchedule::new(), |s, p| {
        s.at(0, FaultAction::CutLink { from: ProcessId(100), to: ProcessId(p) })
    });
    cluster.run_schedule(&cut).expect("cut");
    let heal = FaultSchedule::new().at(400_000, FaultAction::HealAll);
    let stalled = std::thread::scope(|s| {
        let faults = s.spawn(|| cluster.run_schedule(&heal));
        // One operation in flight on each of the four sessions at once.
        let tickets: Vec<_> = (0u64..)
            .zip(&mut sessions)
            .map(|(i, session)| match i % 2 {
                0 => session.write(ObjectId((i / 2) as u32), Value::filler(256, 10 + i)),
                _ => session.read(ObjectId(0)),
            })
            .collect();
        let ops: Vec<_> = tickets.into_iter().map(done).collect();
        faults.join().expect("fault thread").expect("heal");
        ops
    });
    for c in &stalled {
        let took = c.completed_at - c.invoked_at;
        assert!(took >= 300_000, "{:?} took {took} µs — the partition never stalled it", c.op);
    }
    assert!(cluster.faults_dropped() > 0, "the cut must have dropped frames");
    completions.extend(stalled);
    cluster.shutdown();
    assert_eq!(completions.len(), 5);
    let report = check_atomicity(&completions);
    assert!(report.is_atomic(), "healed history must stay atomic: {report:?}");
}

#[test]
fn gray_server_slows_but_never_breaks_atomicity() {
    let cluster =
        LocalCluster::builder(treas5()).clients([100, 101]).objects([0]).start().expect("cluster");
    // Server 1 turns gray for 300 ms: factor 40 holds each frame it
    // reads, and each batch it writes, for 40 × 50 µs = 2 ms. It stays
    // in the quorum — nothing evicts it — so operations on the one hot
    // object ride through the slowness.
    let gray = FaultSchedule::new()
        .at(0, FaultAction::Grayify { pid: ProcessId(1), factor: 40 })
        .at(300_000, FaultAction::Ungray { pid: ProcessId(1) });
    let mut writer = cluster.store(100).open_session();
    let mut reader = cluster.store(101).open_session();
    let mut completions = std::thread::scope(|s| {
        let faults = s.spawn(|| cluster.run_schedule(&gray));
        let mut ops = Vec::new();
        for i in 0..3u64 {
            ops.push(done(writer.write(ObjectId(0), Value::filler(128, 20 + i))));
            ops.push(done(reader.read(ObjectId(0))));
        }
        faults.join().expect("fault thread").expect("gray schedule");
        ops
    });
    completions.push(done(reader.read(ObjectId(0))));

    // The observability surface the chaos harness prints: per-peer
    // outbound queues exist for every connected peer, frames flowed,
    // and no frames were dropped (gray ≠ dead).
    let stats = cluster.node_stats(1);
    assert!(stats.frames_sent > 0, "gray server still serves traffic");
    assert!(!stats.peers.is_empty(), "per-peer outbound stats are populated");
    assert_eq!(cluster.faults_dropped(), 0, "slowness must not drop frames");
    cluster.shutdown();

    assert_eq!(completions.len(), 7);
    let report = check_atomicity(&completions);
    assert!(report.is_atomic(), "gray-node history must stay atomic: {report:?}");
}
