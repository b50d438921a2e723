//! Integration tests of the sharded multi-core node runtime
//! (`ares_net::ShardedNode`): object traffic partitioned over shard
//! event loops, config-wide traffic serialized on shard 0.
//!
//! The correctness claim under test is *outcome-shape equivalence*: any
//! schedule over an S-sharded cluster completes exactly the operations
//! a 1-shard cluster completes — per-session, in order, with the same
//! kinds/objects/write-digests — and the merged history is atomic.
//! Sharding may only change timing, never outcomes.

use ares_core::store::{session_of_op, OpError, OpTicket, Store, StoreSession};
use ares_harness::check_atomicity;
use ares_net::testing::LocalCluster;
use ares_net::NetTicket;
use ares_types::{
    ConfigId, Configuration, ObjectId, OpCompletion, OpKind, ProcessId, SessionId, Value,
};
use std::time::Duration;

/// Blocks until a just-submitted operation completes.
fn done(ticket: Result<NetTicket, OpError>) -> OpCompletion {
    ticket.expect("submitted").wait().expect("completed")
}

fn treas_universe() -> Vec<Configuration> {
    let ids = |r: std::ops::RangeInclusive<u32>| r.map(ProcessId).collect::<Vec<_>>();
    vec![
        Configuration::treas(ConfigId(0), ids(1..=5), 3, 2),
        Configuration::treas(ConfigId(1), ids(2..=6), 3, 2),
    ]
}

/// One session's command list: `(is_write, object)` pairs.
type Schedule = Vec<Vec<(bool, u32)>>;

/// A fixed K-session × M-object schedule (deterministically generated,
/// object-heavy so every shard of a 4-shard node sees traffic).
fn schedule(sessions: usize, ops: usize, objects: u32) -> Schedule {
    (0..sessions)
        .map(|s| {
            (0..ops)
                .map(|n| {
                    let x = (s * 31 + n * 17) as u32;
                    ((x % 3) != 0, x % objects)
                })
                .collect()
        })
        .collect()
}

/// The expected outcome shape of one session's stream: `(kind, object,
/// write digest)` per op, in submission order — what *any* correct run
/// of the schedule must produce, S=1 included (reads return
/// schedule-dependent values, so their digests are not pinned).
fn expected_shape(
    ops: &[(bool, u32)],
    salt: u64,
    session: usize,
) -> Vec<(OpKind, u32, Option<u64>)> {
    ops.iter()
        .enumerate()
        .map(|(n, &(is_write, obj))| {
            if is_write {
                let v = value_for(salt, session, n);
                (OpKind::Write, obj, Some(v.digest()))
            } else {
                (OpKind::Read, obj, None)
            }
        })
        .collect()
}

fn value_for(salt: u64, session: usize, n: usize) -> Value {
    Value::filler(96, salt ^ (((session as u64 + 1) << 24) | (n as u64 + 1)))
}

/// Drives `schedule` fully pipelined over one store and returns the
/// completions, per submitting session (index into the schedule).
fn drive(cluster: &LocalCluster, sched: &Schedule, salt: u64) -> Vec<Vec<OpCompletion>> {
    let store = cluster.store(100);
    let mut tickets = Vec::new();
    let mut session_ids: Vec<SessionId> = Vec::new();
    for (i, ops) in sched.iter().enumerate() {
        let mut session = store.open_session();
        session_ids.push(session.id());
        for (n, &(is_write, obj)) in ops.iter().enumerate() {
            let t = if is_write {
                session.write(ObjectId(obj), value_for(salt, i, n)).expect("submit")
            } else {
                session.read(ObjectId(obj)).expect("submit")
            };
            tickets.push((i, t));
        }
    }
    let mut per_session: Vec<Vec<OpCompletion>> = vec![Vec::new(); sched.len()];
    for (i, t) in tickets {
        let c = t.wait().expect("op completes");
        assert_eq!(session_of_op(c.op), session_ids[i], "completion routed to its session");
        per_session[i].push(c);
    }
    per_session
}

/// The tentpole equivalence test: the same schedule over S ∈ {1, 2, 4}
/// produces identical outcome shapes and atomic histories.
#[test]
fn sharded_outcome_shape_matches_single_shard() {
    let sched = schedule(4, 8, 6);
    for shards in [1usize, 2, 4] {
        let cluster = LocalCluster::builder(treas_universe())
            .clients([100])
            .objects(0..6)
            .shards(shards)
            .start()
            .expect("cluster boots");
        assert_eq!(cluster.shard_count(1), shards);
        let salt = 0xC0DE ^ shards as u64;
        let per_session = drive(&cluster, &sched, salt);
        cluster.shutdown();

        let mut history = Vec::new();
        for (i, (mine, ops)) in per_session.iter().zip(&sched).enumerate() {
            let mut mine: Vec<&OpCompletion> = mine.iter().collect();
            mine.sort_by_key(|c| c.op.seq);
            let shape: Vec<(OpKind, u32, Option<u64>)> = mine
                .iter()
                .map(|c| {
                    (c.kind, c.obj.0, if c.kind == OpKind::Write { c.value_digest } else { None })
                })
                .collect();
            assert_eq!(
                shape,
                expected_shape(ops, salt, i),
                "S={shards}: session {i} outcome shape must match the schedule \
                 (and therefore the S=1 run of it)"
            );
            for pair in mine.windows(2) {
                assert!(
                    pair[0].completed_at <= pair[1].invoked_at,
                    "S={shards}: session {i} ops overlap"
                );
            }
            history.extend(mine.into_iter().cloned());
        }
        check_atomicity(&history).assert_atomic();
    }
}

/// The reconfiguration-storm case: config-wide operations (Paxos +
/// configuration-service writes, serialized on shard 0) interleave with
/// object traffic running on the other shards — concurrently, on a
/// 4-shard cluster — and the merged history stays atomic with the
/// reconfiguration installed. Also pins that the runtime stats surface
/// the sharded execution: multiple shards apply events, and outbound
/// writes batch.
#[test]
fn reconfiguration_storm_interleaves_with_object_traffic_on_shards() {
    let cluster = LocalCluster::builder(treas_universe())
        .clients([100, 200, 201])
        .objects(0..8)
        .shards(4)
        .start()
        .expect("cluster boots");

    let history: Vec<OpCompletion> = std::thread::scope(|s| {
        // Object traffic: 6 sessions on one store, each a serial lane of
        // mixed ops over its own slice of the object space.
        let mut workers = Vec::new();
        for lane in 0u32..6 {
            let store = cluster.store(100);
            workers.push(s.spawn(move || {
                let mut session = store.open_session();
                let mut out = Vec::new();
                for n in 0u64..10 {
                    let obj = ObjectId((lane * 3 + n as u32) % 8);
                    let t = if n % 3 == 0 {
                        session.read(obj).expect("submit")
                    } else {
                        session
                            .write(obj, Value::filler(128, (lane as u64) << 32 | (n + 1)))
                            .expect("submit")
                    };
                    out.push(t.wait().expect("op completes"));
                }
                out
            }));
        }
        // The storm: two rival reconfigurers race for the successor of
        // c0 while the lanes above keep hammering objects.
        let recon_a = s.spawn(|| done(cluster.store(200).open_session().reconfig(ConfigId(1))));
        let recon_b = s.spawn(|| {
            std::thread::sleep(Duration::from_millis(2));
            done(cluster.store(201).open_session().reconfig(ConfigId(1)))
        });
        let mut history = Vec::new();
        history.push(recon_a.join().expect("recon A"));
        history.push(recon_b.join().expect("recon B"));
        for w in workers {
            history.extend(w.join().expect("lane"));
        }
        history
    });

    // Both reconfigs installed the unique consensus decision.
    for c in history.iter().filter(|c| c.kind == OpKind::Recon) {
        assert_eq!(c.installed, Some(ConfigId(1)));
    }
    assert_eq!(history.len(), 62, "every scheduled operation completed");
    check_atomicity(&history).assert_atomic();

    // The stats must show a genuinely sharded execution: shard 0 applied
    // the config-wide traffic, and object traffic reached other shards.
    let mut nodes_with_multi_shard_traffic = 0;
    for pid in cluster.server_pids() {
        let stats = cluster.node_stats(pid.0);
        assert_eq!(stats.shards.len(), 4);
        assert!(stats.shards[0].events_applied > 0, "node {pid}: shard 0 serialized cfg ops");
        let busy = stats.shards.iter().filter(|s| s.events_applied > 0).count();
        if busy >= 2 {
            nodes_with_multi_shard_traffic += 1;
        }
        assert!(stats.batches_flushed > 0, "node {pid} flushed batches");
        assert!(stats.frames_sent >= stats.batches_flushed, "node {pid} batched ≥1 frame/flush");
        assert_eq!(stats.outbound_dropped, 0, "healthy run evicts nothing");
        assert!(
            stats.frames_routed() <= stats.events_applied(),
            "node {pid}: every routed frame is applied (plus local events)"
        );
    }
    assert!(
        nodes_with_multi_shard_traffic >= 4,
        "8 objects over 4 shards must exercise multiple shards on most nodes"
    );
    cluster.shutdown();
}

/// A blank restart + fragment repair on a 4-shard node: the repair
/// trigger injection routes to the object's shard, the per-shard blank
/// replacement wipes all shards, and the node rebuilds its coded
/// elements from live peers.
#[test]
fn blank_restart_with_repair_rejoins_on_sharded_node() {
    let cluster = LocalCluster::builder(treas_universe())
        .clients([100, 110])
        .objects(0..2)
        .shards(4)
        .start()
        .expect("cluster boots");
    let mut writer = cluster.store(100).open_session();
    let mut reader = cluster.store(110).open_session();
    let mut history = Vec::new();
    for i in 1u64..=3 {
        history.push(done(writer.write(ObjectId(0), Value::filler(120, i))));
        history.push(done(writer.write(ObjectId(1), Value::filler(120, 100 + i))));
    }
    cluster.kill(2);
    std::thread::sleep(Duration::from_millis(5));
    cluster.restart_blank(2);
    cluster.trigger_repair(2, 0, 0);
    cluster.trigger_repair(2, 0, 1);
    std::thread::sleep(Duration::from_millis(50)); // repair round-trips
    for i in 4u64..=5 {
        history.push(done(writer.write(ObjectId(0), Value::filler(120, i))));
        history.push(done(reader.read(ObjectId(0))));
    }
    let last = done(reader.read(ObjectId(0)));
    assert_eq!(last.value_digest, Some(Value::filler(120, 5).digest()));
    history.push(last);
    let other = done(reader.read(ObjectId(1)));
    assert_eq!(other.value_digest, Some(Value::filler(120, 103).digest()));
    history.push(other);
    cluster.shutdown();
    check_atomicity(&history).assert_atomic();
}

/// Retirement on a sharded node (DESIGN.md §2, §9): the finalized
/// pointers of a reconfiguration chain reach every shard, so each
/// object shard redirects requests for the configurations it retired —
/// and does so again after the node recovers from its per-shard logs.
/// Only shard 0 answers the pointer writes. One two-shard node, server 1
/// of `c0 → c1 → c2` (ABD over {1} each); the test plays client 100 over
/// a socket of its own and reads every reply frame.
#[test]
fn object_shards_redirect_after_a_reconfiguration_chain() {
    use ares_core::shard::object_shard;
    use ares_core::{CfgMsg, Msg};
    use ares_dap::{DapBody, DapMsg, Hdr};
    use ares_net::codec::read_frame;
    use ares_net::{AddrBook, ShardedNode, WalConfig};
    use ares_types::{ConfigEntry, ConfigRegistry, OpId, RpcId, Tag};
    use std::collections::HashMap;
    use std::io::BufReader;
    use std::net::{TcpListener, TcpStream};
    use std::sync::Arc;

    const CLIENT: ProcessId = ProcessId(100);
    const OP: OpId = OpId { client: CLIENT, seq: 0 };

    /// Client 100's side: injects requests into the node and reads the
    /// replies the node sends back to it, keyed by `(cfg, obj)` (the
    /// pointer acks by `(base, u32::MAX)`).
    struct Client {
        node: ShardedNode,
        inbox: TcpListener,
        replies: Option<BufReader<TcpStream>>,
    }

    impl Client {
        fn send(&self, msg: Msg) {
            self.node.inject(CLIENT, msg);
        }

        fn query(&self, cfg: u32, obj: ObjectId, body: DapBody) {
            let hdr = Hdr { cfg: ConfigId(cfg), obj, rpc: RpcId(1), op: OP };
            self.send(Msg::Dap(DapMsg::new(hdr, body)));
        }

        fn read(&mut self, n: usize) -> HashMap<(u32, u32), DapBody> {
            let inbox = &self.inbox;
            // The node connects on its first reply.
            let replies = self.replies.get_or_insert_with(|| {
                let (conn, _) = inbox.accept().expect("node connects");
                conn.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
                BufReader::new(conn)
            });
            let mut got = HashMap::new();
            for _ in 0..n {
                match read_frame(replies).expect("reply").expect("open").1 {
                    Msg::Dap(m) => {
                        got.insert((m.hdr.cfg.0, m.hdr.obj.0), m.body);
                    }
                    Msg::Cfg(CfgMsg::CfgAck { base, .. }) => {
                        got.insert((base.0, u32::MAX), DapBody::AbdAck);
                    }
                    other => panic!("unexpected reply {other:?}"),
                }
            }
            got
        }
    }

    let server = ProcessId(1);
    let registry =
        ConfigRegistry::from_configs((0..3).map(|c| Configuration::abd(ConfigId(c), vec![server])));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind node");
    let inbox = TcpListener::bind("127.0.0.1:0").expect("bind client");
    let book = Arc::new(AddrBook::from_entries([
        (server, listener.local_addr().expect("node addr")),
        (CLIENT, inbox.local_addr().expect("client addr")),
    ]));
    let dir = std::env::temp_dir().join(format!("ares-retire-shards-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = WalConfig { checkpoint_records: 3, ..WalConfig::default() };
    let epoch = std::time::Instant::now();
    let node = ShardedNode::serve_sharded(
        server,
        registry,
        book,
        listener,
        epoch,
        None,
        2,
        Some((dir.clone(), wal)),
    )
    .expect("node boots");
    let mut c = Client { node, inbox, replies: None };
    // One object on each shard.
    let objs: Vec<ObjectId> = [0, 1]
        .map(|s| (0..).map(ObjectId).find(|&o| object_shard(o, 2) == s).expect("an object"))
        .to_vec();

    // The chain: each object written into c0, then migrated into c1 and
    // c2 ahead of each finalize.
    let value = Value::filler(32, 7);
    for (z, cfg) in (1..).zip(0..3u32) {
        for &obj in &objs {
            c.query(cfg, obj, DapBody::AbdWrite(Tag::new(z, CLIENT), value.clone()));
        }
    }
    assert_eq!(c.read(6).len(), 6, "every put acked");
    for base in 0..2u32 {
        let entry = ConfigEntry::finalized(ConfigId(base + 1));
        let rpc = RpcId(2);
        c.send(Msg::Cfg(CfgMsg::WriteConfig { base: ConfigId(base), entry, rpc, op: OP }));
        assert_eq!(c.read(1).len(), 1, "shard 0 acks c{base}'s pointer");
    }

    let check = |c: &mut Client| {
        for cfg in 0..3u32 {
            for &obj in &objs {
                c.query(cfg, obj, DapBody::AbdQuery);
            }
        }
        let got = c.read(6);
        for &obj in &objs {
            for base in 0..2u32 {
                let next = ConfigEntry::finalized(ConfigId(base + 1));
                assert_eq!(got[&(base, obj.0)], DapBody::Retired(next), "c{base}, {obj:?}");
            }
            let stored = DapBody::AbdTagValue(Tag::new(3, CLIENT), value.clone());
            assert_eq!(got[&(2, obj.0)], stored, "c2 serves {obj:?}");
        }
    };
    check(&mut c);
    // Recovery re-derives retirement from each shard's own pointers.
    c.node.kill();
    c.node.restart_recovered().expect("recovers");
    // The old life's writer died with it: the replies come over the new
    // life's connection.
    c.replies = None;
    check(&mut c);
    let Client { node, replies, .. } = c;
    node.shutdown();
    // Nothing beyond the expected replies: the object shard answered no
    // pointer write.
    let mut replies = replies.expect("connected");
    assert!(matches!(read_frame(&mut replies), Ok(None) | Err(_)), "no extra reply");
    let _ = std::fs::remove_dir_all(&dir);
}
