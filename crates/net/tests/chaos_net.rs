//! Live-cluster chaos over loopback TCP: asymmetric partitions that
//! leave a client below quorum until a scripted heal, and gray (slow
//! but alive) servers under load. Every history runs through the
//! atomicity checker; the partition test also proves the fault plane
//! actually dropped frames and that stalled operations recover via
//! retransmission rather than timing out.

use ares_core::store::{OpError, OpTicket, Store, StoreSession};
use ares_harness::check_atomicity;
use ares_net::testing::LocalCluster;
use ares_net::{ClusterFault, FaultScript, NetTicket};
use ares_types::{ConfigId, Configuration, ObjectId, OpCompletion, ProcessId, Value};
use std::time::{Duration, Instant};

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
    let mut client = cluster.store(100).open_session();
    // Pre-fault write completes normally.
    let mut completions = vec![done(client.write(ObjectId(0), Value::filler(256, 1)))];

    // Cut the client's outbound path to servers 1–3: it can still reach
    // only 2 of 5, below the TREAS [5,3] quorum of 4, so every operation
    // stalls — server state cannot regress, the client just cannot
    // assemble replies until the scripted heal.
    cluster.partition_oneway(&[100], &[1, 2, 3]);
    let script = FaultScript::new().at(Duration::from_millis(400), ClusterFault::Heal);
    let (stalled, ops_done_in) = std::thread::scope(|s| {
        let cluster = &cluster;
        let script = &script;
        let faults = s.spawn(move || cluster.run_script(script));
        let t0 = Instant::now();
        let mut ops = Vec::new();
        for i in 0..4u64 {
            if i % 2 == 0 {
                let obj = ObjectId((i % 2) as u32);
                ops.push(done(client.write(obj, Value::filler(256, 10 + i))));
            } else {
                ops.push(done(client.read(ObjectId(0))));
            }
        }
        let done_in = t0.elapsed();
        faults.join().expect("fault script thread");
        (ops, done_in)
    });
    assert!(
        ops_done_in >= Duration::from_millis(300),
        "operations finished in {ops_done_in:?} — the partition never stalled them"
    );
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
    // Server 1 turns gray: every frame it forwards is delayed 2 ms. It
    // stays in the quorum — nothing evicts it — so operations ride
    // through the slowness.
    cluster.slow(1, Duration::from_millis(2));
    let mut writer = cluster.store(100).open_session();
    let mut reader = cluster.store(101).open_session();
    let mut completions = Vec::new();
    for i in 0..3u64 {
        completions.push(done(writer.write(ObjectId(0), Value::filler(128, 20 + i))));
        completions.push(done(reader.read(ObjectId(0))));
    }
    cluster.unslow(1);
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
