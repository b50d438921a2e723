//! End-to-end tests of the real TCP runtime (`ares-net`): a live
//! loopback TREAS cluster serving concurrent writes, reads and a
//! reconfiguration — with a node killed and restarted mid-run — whose
//! completion history must pass the same tag-based atomicity checker
//! the simulator histories do; plus hostile-input tests proving that
//! arbitrary malformed bytes on a listener never panic a node.

use ares_core::store::{OpError, OpTicket, Store, StoreSession};
use ares_core::{ClientCmd, Invoke, Msg};
use ares_harness::check_atomicity;
use ares_net::codec::{encode_frame, WIRE_VERSION};
use ares_net::testing::LocalCluster;
use ares_net::NetTicket;
use ares_types::{
    ConfigId, Configuration, ObjectId, OpCompletion, OpKind, ProcessId, RpcId, SessionId, Tag,
    Value,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

const OBJ: ObjectId = ObjectId(0);

/// Blocks until a just-submitted operation completes.
fn done(ticket: Result<NetTicket, OpError>) -> OpCompletion {
    ticket.expect("submitted").wait().expect("completed")
}

fn treas_universe() -> Vec<Configuration> {
    let ids = |r: std::ops::RangeInclusive<u32>| r.map(ProcessId).collect::<Vec<_>>();
    vec![
        // Genesis: TREAS [5,3] on servers 1-5.
        Configuration::treas(ConfigId(0), ids(1..=5), 3, 2),
        // Successor: TREAS [5,3] on servers 2-6 (one node rotated out).
        Configuration::treas(ConfigId(1), ids(2..=6), 3, 2),
    ]
}

/// The acceptance scenario: a live 5-node TREAS [5,3] cluster completes
/// concurrent writes and reads plus one reconfiguration end-to-end,
/// surviving a kill + restart of one node mid-run, and the collected
/// history is atomic.
#[test]
fn live_treas_cluster_with_reconfig_and_node_restart_is_atomic() {
    let cluster = LocalCluster::builder(treas_universe()).clients([100, 110, 200]).start().unwrap();

    let mut writer = cluster.store(100).open_session();
    let mut reader = cluster.store(110).open_session();
    let mut reconfigurer = cluster.store(200).open_session();

    let mut history: Vec<OpCompletion> = Vec::new();
    history.push(done(writer.write(OBJ, Value::filler(256, 1))));

    let (writes, reads) = std::thread::scope(|s| {
        let write_thread = s.spawn(|| {
            let mut out = Vec::new();
            for i in 2u64..=9 {
                out.push(done(writer.write(OBJ, Value::filler(256, i))));
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
        // Mid-run: one reconfiguration, and a crash + recovery of node 3
        // (a member of both configurations; 4 of 5 stay alive — exactly
        // a quorum in each).
        std::thread::sleep(Duration::from_millis(5));
        history.push(done(reconfigurer.reconfig(ConfigId(1))));
        cluster.kill(3);
        std::thread::sleep(Duration::from_millis(10));
        cluster.restart(3);
        (write_thread.join().expect("writer thread"), read_thread.join().expect("reader thread"))
    });
    history.extend(writes);
    history.extend(reads);
    // A final read through a third client must see the newest write.
    let final_read = done(reader.read(OBJ));
    history.push(final_read.clone());
    cluster.shutdown();

    assert_eq!(history.len(), 1 + 8 + 8 + 1 + 1, "every scheduled operation completed");
    let recon = history.iter().find(|c| c.kind == OpKind::Recon).unwrap();
    assert_eq!(recon.installed, Some(ConfigId(1)), "the reconfiguration installed c1");
    let max_write_tag =
        history.iter().filter(|c| c.kind == OpKind::Write).filter_map(|c| c.tag).max().unwrap();
    assert_eq!(final_read.tag, Some(max_write_tag), "the final read returns the newest write");

    check_atomicity(&history).assert_atomic();
}

/// A blank-state restart (lost disk) composes with the fragment-repair
/// protocol: the node rebuilds its coded elements from live peers and
/// the cluster keeps serving an atomic history.
#[test]
fn blank_restart_with_repair_rejoins() {
    let cluster = LocalCluster::start(treas_universe(), [100, 110]).unwrap();
    let mut writer = cluster.store(100).open_session();
    let mut reader = cluster.store(110).open_session();
    let mut history = Vec::new();
    for i in 1u64..=3 {
        history.push(done(writer.write(OBJ, Value::filler(120, i))));
    }
    cluster.kill(2);
    std::thread::sleep(Duration::from_millis(5));
    cluster.restart_blank(2);
    cluster.trigger_repair(2, 0, 0);
    std::thread::sleep(Duration::from_millis(50)); // repair round-trips
    for i in 4u64..=5 {
        history.push(done(writer.write(OBJ, Value::filler(120, i))));
        history.push(done(reader.read(OBJ)));
    }
    let last = done(reader.read(OBJ));
    assert_eq!(last.value_digest, Some(Value::filler(120, 5).digest()));
    history.push(last);
    cluster.shutdown();
    check_atomicity(&history).assert_atomic();
}

/// Arbitrary malformed bytes aimed at every listener must never panic a
/// node: hostile length prefixes, truncated frames, bad versions,
/// unknown variant tags and unregistered configuration ids are all
/// dropped, and the cluster still completes operations afterwards.
#[test]
fn malformed_frames_never_panic_nodes() {
    let cluster = LocalCluster::start(treas_universe(), [100, 110]).unwrap();
    let mut writer = cluster.store(100).open_session();
    let mut reader = cluster.store(110).open_session();
    done(writer.write(OBJ, Value::filler(64, 1)));

    for pid in [1u32, 2, 3, 4, 5, 6] {
        let addr = cluster.server_addr(pid);
        // (a) a hostile length prefix announcing 4 GiB.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        drop(s);
        // (b) pure junk, including a plausible small length prefix.
        let mut s = TcpStream::connect(addr).unwrap();
        let mut junk = vec![0u8, 0, 0, 40];
        junk.extend((0u8..=255).map(|b| b.wrapping_mul(31)));
        s.write_all(&junk).unwrap();
        drop(s);
        // (c) a wrong version byte inside a well-formed frame shell.
        let mut frame = encode_frame(
            ProcessId(99),
            &Msg::Cfg(ares_core::CfgMsg::ReadConfig {
                base: ConfigId(0),
                rpc: RpcId(1),
                op: ares_types::OpId { client: ProcessId(99), seq: 0 },
            }),
        );
        frame[4] = WIRE_VERSION.wrapping_add(7);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&frame).unwrap();
        drop(s);
        // (d) a well-formed message naming an unregistered configuration
        // (would panic deep in protocol code if it were dispatched).
        let evil = Msg::Xfer(ares_core::XferMsg::ReqFwd {
            tag: Tag::new(1, ProcessId(1)),
            src: ConfigId(77),
            dst: ConfigId(78),
            obj: OBJ,
            rc: ProcessId(99),
            rpc: RpcId(1),
            op: ares_types::OpId { client: ProcessId(99), seq: 0 },
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&encode_frame(ProcessId(99), &evil)).unwrap();
        drop(s);
        // (e) a truncated but otherwise valid frame.
        let good = encode_frame(
            ProcessId(99),
            &Msg::Invoke(Invoke {
                session: SessionId(0),
                seq: 0,
                cmd: ClientCmd::Read { obj: OBJ },
            }),
        );
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&good[..good.len() - 2]).unwrap();
        drop(s);
    }
    std::thread::sleep(Duration::from_millis(20));

    // Every node is still alive and serving quorums.
    let w = done(writer.write(OBJ, Value::filler(64, 2)));
    let r = done(reader.read(OBJ));
    assert_eq!(r.tag, w.tag, "cluster still atomic after hostile traffic");
    assert_eq!(r.value_digest, Some(Value::filler(64, 2).digest()));
    cluster.shutdown();
}

/// ARES-TREAS direct state transfer (paper §5, Algs. 8–9) across real
/// sockets: the reconfigurer only sends `REQ-FW-CODE-ELEM`; the source
/// servers forward their coded elements straight to the destination
/// servers, which ack it. The value written before the reconfiguration
/// must be readable from the new configuration.
#[test]
fn direct_state_transfer_over_tcp_preserves_the_value() {
    let cluster = LocalCluster::builder(treas_universe())
        .clients([100, 110, 200])
        .direct_transfer()
        .start()
        .unwrap();
    let value = Value::filler(300, 7);
    let history = vec![
        done(cluster.store(100).open_session().write(OBJ, value.clone())),
        done(cluster.store(200).open_session().reconfig(ConfigId(1))),
        done(cluster.store(110).open_session().read(OBJ)),
    ];
    cluster.shutdown();

    assert_eq!(history[1].installed, Some(ConfigId(1)), "the reconfiguration installed c1");
    assert_eq!(history[2].value_digest, Some(value.digest()), "the value survived the transfer");
    assert_eq!(history[2].tag, history[0].tag);
    check_atomicity(&history).assert_atomic();
}

/// A well-formed command envelope arriving over TCP is dropped: only the
/// local `inject()` path may invoke client operations, or any peer
/// could drive a host's sessions.
#[test]
fn network_borne_invoke_is_dropped() {
    let cluster = LocalCluster::start(treas_universe(), [100, 110]).unwrap();
    let forged = Value::filler(64, 99);
    let frame = encode_frame(
        ProcessId(99),
        &Msg::Invoke(Invoke {
            session: SessionId(0),
            seq: 0,
            cmd: ClientCmd::Write { obj: OBJ, value: forged.clone() },
        }),
    );
    let victim = cluster.addr_book().addr(ProcessId(100)).expect("client 100 listens");
    let mut s = TcpStream::connect(victim).unwrap();
    s.write_all(&frame).unwrap();
    drop(s);
    // Were the frame admitted, the write would finish within a few
    // loopback round trips.
    std::thread::sleep(Duration::from_millis(100));

    let r = done(cluster.store(110).open_session().read(OBJ));
    assert_ne!(r.value_digest, Some(forged.digest()), "the forged write never ran");
    assert_eq!(cluster.store(100).completions_routed(), 0, "client 100 executed nothing");
    cluster.shutdown();
}
