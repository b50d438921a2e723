//! Tests of the fragment-repair extension (`ares_core::repair`): a
//! replacement server rebuilds its coded elements in place, without a
//! full reconfiguration — the paper's stated future work.

use ares_core::store::session_op_seq;
use ares_core::{ClientActor, ClientCmd, ClientConfig, Invoke, Msg, RepairMsg, ServerActor, ENV};
use ares_harness::{check_atomicity, Scenario};
use ares_sim::{FaultAction, FaultSchedule, NetworkConfig, RunOutcome, World};
use ares_types::{
    ConfigId, ConfigRegistry, Configuration, ObjectId, ProcessId, SessionId, Tag, Value,
};

fn crash(pid: u32) -> FaultAction {
    FaultAction::Crash { pid: ProcessId(pid) }
}

fn recover(pid: u32) -> FaultAction {
    FaultAction::Recover { pid: ProcessId(pid) }
}

fn universe() -> Vec<Configuration> {
    vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)]
}

#[test]
fn repaired_server_rebuilds_missed_writes() {
    // Server 5 is down while two writes land, comes back blank of them,
    // repairs, and afterwards holds the coded elements for its position.
    let res = Scenario::new(universe())
        .clients([100])
        .seed(1)
        .fault_schedule(FaultSchedule::new().at(0, crash(5)).at(2_000, recover(5)))
        .write_at(1, 100, 0, Value::filler(90, 1))
        .write_at(1_000, 100, 0, Value::filler(90, 2))
        .repair_at(2_100, 5, 0, 0)
        .run();
    res.assert_complete_and_atomic();
    let s5 = res.storage_bytes.iter().find(|(p, _)| *p == ProcessId(5)).unwrap().1;
    // Both tags' elements rebuilt: 2 fragments of ceil(90/3) = 30 bytes.
    assert_eq!(s5, 60, "server 5 rebuilt both missed coded elements");
}

#[test]
fn repair_restores_full_fault_tolerance() {
    // [5,3] tolerates f = 1. Crash s5, write, repair s5, then crash s4:
    // reads must still complete because s5 again holds its elements.
    let v = Value::filler(120, 7);
    let res = Scenario::new(universe())
        .clients([100, 110])
        .seed(2)
        .fault_schedule(
            FaultSchedule::new().at(0, crash(5)).at(2_000, recover(5)).at(6_000, crash(4)),
        )
        .write_at(1, 100, 0, v.clone())
        .repair_at(2_100, 5, 0, 0)
        .read_at(7_000, 110, 0)
        .run();
    let h = res.assert_complete_and_atomic();
    let read = h.last().unwrap();
    assert_eq!(read.value_digest, Some(v.digest()), "read decodes after double fault");
}

#[test]
fn without_repair_second_crash_blocks_reads() {
    // Control for the test above: skip the repair, and the same double
    // fault leaves only 3 list-holders of which only 3 have data... the
    // read needs ⌈(5+3)/2⌉ = 4 *responses*, so it must hang.
    let v = Value::filler(120, 7);
    let res = Scenario::new(universe())
        .clients([100, 110])
        .seed(3)
        // Server 5 recovers but never repairs.
        .fault_schedule(
            FaultSchedule::new().at(0, crash(5)).at(2_000, recover(5)).at(6_000, crash(4)),
        )
        .write_at(1, 100, 0, v)
        .read_at(7_000, 110, 0)
        .run();
    // The write completed; the read did not (4 live servers respond, but
    // s5 has no element for the tag: t*_max ≠ t_dec_max forever... note
    // s5 does reply with its stale list, so 4 responses arrive; the
    // condition fails and the read retries forever). Either way the read
    // must not return a wrong value; it may hang.
    let reads: Vec<_> =
        res.completions.iter().filter(|c| c.kind == ares_types::OpKind::Read).collect();
    if let Some(r) = reads.first() {
        // If it completed, it must have decoded the correct value (s5's
        // stale list lacks the tag, but 3 holders + k = 3 suffice when
        // s4's reply arrived before its crash...).
        assert_eq!(r.value_digest, Some(Value::filler(120, 7).digest()));
    }
    ares_harness::check_atomicity(&res.completions).assert_atomic();
}

#[test]
fn repair_is_idempotent_and_safe_on_healthy_servers() {
    // Repairing a server that never lost anything must not corrupt it.
    let v = Value::filler(60, 9);
    let res = Scenario::new(universe())
        .clients([100, 110])
        .seed(4)
        .write_at(0, 100, 0, v.clone())
        .repair_at(2_000, 3, 0, 0)
        .repair_at(2_500, 3, 0, 0) // twice
        .read_at(5_000, 110, 0)
        .run();
    let h = res.assert_complete_and_atomic();
    assert_eq!(h.last().unwrap().value_digest, Some(v.digest()));
}

#[test]
fn repair_under_concurrent_writes_keeps_atomicity() {
    let mut s = Scenario::new(universe()).clients([100, 101, 110]).seed(5);
    s = s.fault_schedule(FaultSchedule::new().at(0, crash(5)).at(1_000, recover(5)));
    for i in 0..6u64 {
        s = s.write_at(1 + i * 300, 100 + (i % 2) as u32, 0, Value::filler(60, i + 1));
    }
    s = s.repair_at(1_050, 5, 0, 0); // races the ongoing writes
    for i in 0..4u64 {
        s = s.read_at(1_100 + i * 400, 110, 0);
    }
    let res = s.run();
    res.assert_complete_and_atomic();
}

#[test]
fn blank_server_repaired_from_floored_peers_ends_with_a_floor() {
    // δ = 2 and five writes: every live server ends with a floor and
    // three coded elements, and that bounded list is all a repairer can
    // be sent. Server 5 slept through the writes; after repair it must
    // carry the floor itself — the tags below it count as held there —
    // and, with server 4 gone, serve the read that needs its list.
    let (c0, obj) = (ConfigId(0), ObjectId(0));
    let registry = ConfigRegistry::from_configs(universe());
    let mut w: World<Msg> = World::new(NetworkConfig::uniform(10, 50), 6);
    for s in 1..=5 {
        w.add_actor(ProcessId(s), ServerActor::new(ProcessId(s), registry.clone()));
    }
    let (writer, reader) = (ProcessId(100), ProcessId(110));
    for c in [writer, reader] {
        w.add_actor(c, ClientActor::new(registry.clone(), ClientConfig::new(c0)));
    }
    let invoke = |n: u64, cmd: ClientCmd| {
        Msg::Invoke(Invoke { session: SessionId(0), seq: session_op_seq(SessionId(0), n), cmd })
    };
    w.install_faults(
        &FaultSchedule::new().at(0, crash(5)).at(6_000, recover(5)).at(8_000, crash(4)),
    );
    for n in 0..5u64 {
        let value = Value::filler(90, n + 1);
        w.post(1 + n * 1_000, ENV, writer, invoke(n, ClientCmd::Write { obj, value }));
    }
    w.post(6_100, ENV, ProcessId(5), Msg::Repair(RepairMsg::Trigger { cfg: c0, obj }));
    w.post(9_000, ENV, reader, invoke(0, ClientCmd::Read { obj }));
    assert_eq!(w.run(), RunOutcome::Quiescent);

    let floor = Some(Tag::new(2, writer));
    for s in [1, 2, 3, 5] {
        let st =
            w.actor_as::<ServerActor>(ProcessId(s)).expect("server").dap.treas_state_ref(c0, obj);
        let st = st.expect("state exists");
        assert_eq!(st.floor(), floor, "s{s}: tags 1 and 2 are folded under the floor");
        assert_eq!(st.iter().count(), 4, "s{s}: the floor and δ + 1 coded elements");
        assert_eq!(st.storage_bytes(), 3 * 30, "s{s}: three 30-byte fragments");
    }
    let h = w.take_completions();
    assert_eq!(h.len(), 6);
    check_atomicity(&h).assert_atomic();
    let read = h.last().expect("the read");
    assert_eq!(read.value_digest, Some(Value::filler(90, 5).digest()));
}
