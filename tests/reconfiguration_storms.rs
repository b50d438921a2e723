//! Reconfiguration-heavy executions: long configuration chains, rival
//! reconfigurers racing through consensus, clients catching up with the
//! moving sequence.

use ares_core::store::session_op_seq;
use ares_core::{ClientActor, ClientCmd, ClientConfig, Invoke, Msg, ServerActor};
use ares_harness::{check_atomicity, standard_universe, Scenario};
use ares_sim::{DelayBounds, NetworkConfig, RunOutcome, TraceKind, World};
use ares_types::{
    ConfigId, ConfigRegistry, Configuration, ObjectId, OpKind, ProcessId, SessionId, Tag, Value,
};

/// A long chain of TREAS configurations over a rotating server window.
fn chain_universe(len: u32) -> Vec<Configuration> {
    let mut v = vec![Configuration::abd(ConfigId(0), (1..=3).map(ProcessId).collect())];
    for i in 1..=len {
        // 5 servers, window sliding by 1 each config, k=3, delta=2.
        let lo = 1 + i;
        let servers = (lo..lo + 5).map(ProcessId).collect();
        v.push(Configuration::treas(ConfigId(i), servers, 3, 2));
    }
    v
}

#[test]
fn long_chain_installs_in_order() {
    let n = 6;
    let mut s = Scenario::new(chain_universe(n)).clients([200]).seed(1);
    for i in 1..=n {
        s = s.recon_at(i as u64 * 3_000, 200, i);
    }
    let res = s.run();
    let h = res.assert_complete_and_atomic();
    let installed: Vec<_> = h.iter().filter_map(|c| c.installed).collect();
    assert_eq!(installed, (1..=n).map(ConfigId).collect::<Vec<_>>());
}

#[test]
fn rival_reconfigurers_all_terminate() {
    // Three reconfigurers slam different targets simultaneously; every
    // reconfig completes and every installed id comes from the universe.
    let mut s = Scenario::new(chain_universe(3)).clients([200, 201, 202]).seed(2);
    s = s.recon_at(0, 200, 1);
    s = s.recon_at(0, 201, 2);
    s = s.recon_at(0, 202, 3);
    let res = s.run();
    let h = res.assert_complete_and_atomic();
    assert_eq!(h.len(), 3);
    for c in h {
        let id = c.installed.expect("recon installed something");
        assert!((1..=3).map(ConfigId).any(|x| x == id));
    }
}

#[test]
fn rival_reconfigurers_racing_for_the_same_target_terminate() {
    // Two reconfigurers race for the SAME successor configuration, at
    // offsets swept so some executions have the loser discover a chain
    // that already contains the target. The loser must adopt the
    // installed chain rather than re-propose the target on the chain
    // end's own consensus object: that wrote `nextC(c1) = c1`, a
    // self-loop which every later `read-config` walk re-absorbed and
    // re-propagated forever — a permanent livelock of the discovery
    // service (found as a ~200k msg/s Cfg storm by the live-cluster
    // reconfiguration-storm test in tests/sharded_node.rs). On
    // regression this test fails via the world's event budget.
    for seed in 0..8u64 {
        let offset = 50 + (seed * 997) % 6_000;
        let mut s = Scenario::new(chain_universe(1)).clients([100, 200, 201]).seed(seed);
        s = s.write_at(0, 100, 0, Value::filler(60, 1 + seed));
        s = s.recon_at(50, 200, 1);
        s = s.recon_at(offset, 201, 1);
        s = s.read_at(40_000, 100, 0);
        let res = s.run();
        let h = res.assert_complete_and_atomic();
        for c in h.iter().filter(|c| c.kind == OpKind::Recon) {
            assert_eq!(c.installed, Some(ConfigId(1)), "seed {seed}: rivals both install c1");
        }
    }
}

#[test]
fn reconfig_to_the_current_configuration_is_a_noop() {
    // reconfig(c) where c is already the chain end — including the
    // degenerate reconfig(c0) on a fresh chain — must complete (a
    // no-op) instead of proposing c as its own successor (the nextC
    // self-loop) or indexing before the genesis entry in finalize.
    let res = Scenario::new(chain_universe(2))
        .clients([100, 200])
        .seed(9)
        .write_at(0, 100, 0, Value::filler(40, 1))
        .recon_at(100, 200, 0) // target = genesis, chain = [c0]
        .recon_at(4_000, 200, 1)
        .recon_at(20_000, 200, 1) // target already installed as chain end
        .read_at(40_000, 100, 0)
        .run();
    let h = res.assert_complete_and_atomic();
    let installed: Vec<_> = h.iter().filter_map(|c| c.installed).collect();
    assert_eq!(installed, vec![ConfigId(0), ConfigId(1), ConfigId(1)]);
}

#[test]
fn a_reconfig_with_no_objects_goes_straight_to_finalize() {
    // `ClientConfig::objects` is a public field: nothing keeps it
    // non-empty. update-config then migrates nothing, as Alg. 5 over an
    // empty object set would, and finalize-config follows at once.
    let registry = ConfigRegistry::from_configs([
        Configuration::abd(ConfigId(0), (1..=3).map(ProcessId).collect()),
        Configuration::abd(ConfigId(1), (4..=6).map(ProcessId).collect()),
    ]);
    let mut w: World<Msg> = World::new(NetworkConfig::uniform(10, 50), 7);
    for s in (1..=6).map(ProcessId) {
        w.add_actor(s, ServerActor::new(s, registry.clone()));
    }
    let config = ClientConfig { objects: Vec::new(), ..ClientConfig::new(ConfigId(0)) };
    w.add_actor(ProcessId(200), ClientActor::new(registry, config));
    let cmd = ClientCmd::Recon { target: ConfigId(1) };
    let invoke = Invoke { session: SessionId(0), seq: session_op_seq(SessionId(0), 0), cmd };
    w.post(0, ProcessId(0), ProcessId(200), Msg::Invoke(invoke));
    assert_eq!(w.run(), RunOutcome::Quiescent);
    let installed: Vec<_> = w.take_completions().iter().map(|c| c.installed).collect();
    assert_eq!(installed, vec![Some(ConfigId(1))]);
}

#[test]
fn writes_catch_up_with_chain() {
    // A write begins while reconfigurers extend the chain; Alg. 7's
    // put-data / read-config loop must chase the sequence to its end.
    let n = 5;
    let mut s = Scenario::new(chain_universe(n)).clients([100, 200]).seed(3);
    s = s.write_at(0, 100, 0, Value::filler(60, 1));
    for i in 1..=n {
        s = s.recon_at((i as u64 - 1) * 400, 200, i);
    }
    s = s.write_at(6_000, 100, 0, Value::filler(60, 2));
    s = s.read_at(30_000, 100, 0);
    let res = s.run();
    let h = res.assert_complete_and_atomic();
    let read = h.iter().find(|c| c.kind == OpKind::Read).unwrap();
    let w2 = h.iter().filter(|c| c.kind == OpKind::Write).max_by_key(|c| c.tag).unwrap();
    assert_eq!(read.tag, w2.tag, "final read sees the newest write across the chain");
}

#[test]
fn reads_during_storm_remain_atomic() {
    let n = 4;
    let mut s = Scenario::new(chain_universe(n)).clients([100, 110, 111, 200, 201]).seed(4);
    s = s.write_at(0, 100, 0, Value::filler(80, 9));
    s = s.recon_at(500, 200, 1);
    s = s.recon_at(600, 201, 2);
    s = s.recon_at(5_000, 200, 3);
    s = s.recon_at(5_100, 201, 4);
    for i in 0..10u64 {
        s = s.read_at(400 + i * 700, 110 + (i % 2) as u32, 0);
        if i % 3 == 0 {
            s = s.write_at(450 + i * 700, 100, 0, Value::filler(80, 10 + i));
        }
    }
    let res = s.run();
    res.assert_complete_and_atomic();
}

#[test]
fn direct_transfer_through_long_chain() {
    let n = 5;
    let mut s = Scenario::new(chain_universe(n)).clients([100, 200]).direct_transfer().seed(5);
    s = s.write_at(0, 100, 0, Value::filler(150, 77));
    for i in 1..=n {
        s = s.recon_at(i as u64 * 2_500, 200, i);
    }
    s = s.read_at(n as u64 * 2_500 + 8_000, 100, 0);
    let res = s.run();
    let h = res.assert_complete_and_atomic();
    let read = h.iter().find(|c| c.kind == OpKind::Read).unwrap();
    let write = h.iter().find(|c| c.kind == OpKind::Write).unwrap();
    assert_eq!(read.value_digest, write.value_digest, "value survives 5 direct hops");
}

#[test]
fn direct_transfer_into_a_destination_that_compacted_the_tag_completes() {
    // c0 → c1, both TREAS [5,3] δ = 1, ARES-TREAS direct transfer. The
    // reconfigurer's links are slow, so while its REQ-FW-CODE-ELEM for
    // tag T is in flight four fast writers push four newer tags into
    // c1: every c1 server has folded T under its floor before the
    // first forwarded element arrives. Alg. 9's "(t, *) ∈ List" must
    // count the floor — an explicit-membership test never acks, and the
    // reconfiguration hangs.
    const ENV: ProcessId = ProcessId(0);
    let (c0, c1, obj) = (ConfigId(0), ConfigId(1), ObjectId(0));
    let registry = ConfigRegistry::from_configs([
        Configuration::treas(c0, (1..=5).map(ProcessId).collect(), 3, 1),
        Configuration::treas(c1, (6..=10).map(ProcessId).collect(), 3, 1),
    ]);
    let recon = ProcessId(200);
    let net =
        NetworkConfig::uniform(10, 50).with_client_bounds(recon, DelayBounds::new(1_500, 1_600));
    let mut w: World<Msg> = World::new(net, 11);
    w.event_limit = 20_000; // a hung transfer retries forever: fail instead of spinning
    w.enable_trace();
    for s in 1..=10 {
        w.add_actor(ProcessId(s), ServerActor::new(ProcessId(s), registry.clone()));
    }
    let writers: Vec<ProcessId> = (100..104).map(ProcessId).collect();
    for &c in &writers {
        w.add_actor(c, ClientActor::new(registry.clone(), ClientConfig::new(c0)));
    }
    let mut slow = ClientConfig::new(c0).with_direct_transfer();
    slow.backoff_unit = 1_600; // the harness's rule, unit ≥ D, for this client's links
    w.add_actor(recon, ClientActor::new(registry.clone(), slow));

    let invoke = |n: u64, cmd: ClientCmd| {
        Msg::Invoke(Invoke { session: SessionId(0), seq: session_op_seq(SessionId(0), n), cmd })
    };
    let write =
        |n: u64, salt: u64| invoke(n, ClientCmd::Write { obj, value: Value::filler(48, salt) });
    w.post(0, ENV, writers[0], write(0, 1));
    w.post(1_000, ENV, recon, invoke(0, ClientCmd::Recon { target: c1 }));

    // Steps the world until an event sends (`delivered = false`) or
    // delivers a REQ-FW-CODE-ELEM.
    let run_to_req_fwd = |w: &mut World<Msg>, delivered: bool| loop {
        let seen = w.trace().len();
        assert!(w.step().is_none(), "the world stopped before the transfer");
        let hit = |e: &ares_sim::TraceEvent| match &e.kind {
            TraceKind::Send { label, .. } => !delivered && label.starts_with("REQ-FW"),
            TraceKind::Deliver { label, .. } => delivered && label.starts_with("REQ-FW"),
            _ => false,
        };
        if w.trace()[seen..].iter().any(hit) {
            break;
        }
    };
    run_to_req_fwd(&mut w, false);
    let now = w.now();
    for (i, &c) in writers.iter().enumerate() {
        w.post(now, ENV, c, write(1, 2 + i as u64));
    }
    run_to_req_fwd(&mut w, true);
    let requested = Tag::new(1, writers[0]);
    for s in 6..=10 {
        let st =
            w.actor_as::<ServerActor>(ProcessId(s)).expect("server").dap.treas_state_ref(c1, obj);
        let st = st.expect("c1 state exists");
        assert!(st.floor() > Some(requested), "s{s} folded {requested} under its floor");
        assert!(st.iter().all(|(t, _)| t != requested));
    }

    assert_eq!(w.run(), RunOutcome::Quiescent);
    let h = w.take_completions();
    assert_eq!(h.len(), 6, "five writes and the reconfiguration all complete");
    let installed: Vec<_> = h.iter().filter_map(|c| c.installed).collect();
    assert_eq!(installed, vec![c1]);
    check_atomicity(&h).assert_atomic();
}

#[test]
fn client_cseq_prefix_property_observable() {
    // Two sequential reconfigs from the same client: the second starts
    // from the first's final sequence; installed ids must extend, never
    // contradict (observable via the per-op installed order).
    let res = Scenario::new(standard_universe())
        .clients([200])
        .seed(6)
        .recon_at(0, 200, 1)
        .recon_at(1, 200, 2)
        .recon_at(2, 200, 4)
        .run();
    let h = res.assert_complete_and_atomic();
    let installed: Vec<_> = h.iter().filter_map(|c| c.installed).collect();
    assert_eq!(installed, vec![ConfigId(1), ConfigId(2), ConfigId(4)]);
}
