//! Crash-fault injection: servers failing within the tolerated bounds,
//! reconfigurers dying mid-operation, and liveness at the fault boundary.

use ares_harness::{standard_universe, Scenario};
use ares_sim::{FaultAction, FaultSchedule, RunOutcome};
use ares_types::{ConfigId, Configuration, ProcessId, Value};

/// Crashes of the given processes, each at its time.
fn crashes(at: impl IntoIterator<Item = (u64, u32)>) -> FaultSchedule {
    at.into_iter().fold(FaultSchedule::new(), |s, (t, pid)| {
        s.at(t, FaultAction::Crash { pid: ProcessId(pid) })
    })
}

#[test]
fn abd_survives_minority_crash() {
    // c0 = ABD on 1..3: one crash tolerated.
    let res = Scenario::new(standard_universe())
        .clients([100])
        .seed(1)
        .fault_schedule(crashes([(0, 2)]))
        .write_at(1, 100, 0, Value::filler(40, 1))
        .read_at(500, 100, 0)
        .run();
    res.assert_complete_and_atomic();
}

#[test]
fn treas_survives_f_crashes() {
    // TREAS [5,3]: f = (n-k)/2 = 1.
    let cfgs = vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)];
    let res = Scenario::new(cfgs)
        .clients([100])
        .seed(2)
        .fault_schedule(crashes([(0, 5)]))
        .write_at(1, 100, 0, Value::filler(64, 1))
        .read_at(500, 100, 0)
        .run();
    res.assert_complete_and_atomic();
}

#[test]
fn treas_blocks_beyond_f_crashes() {
    // Crashing 2 of 5 under [5,3] leaves only 3 < ⌈(5+3)/2⌉ = 4 alive:
    // operations must NOT complete — the client retransmits its phase
    // forever (waiting for a recovery that never comes), so the run
    // hits the event budget rather than going quiescent, and must not
    // return wrong data either.
    let cfgs = vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)];
    let res = Scenario::new(cfgs)
        .clients([100])
        .seed(3)
        .fault_schedule(crashes([(0, 4), (0, 5)]))
        .write_at(1, 100, 0, Value::filler(64, 1))
        .event_limit(200_000)
        .run();
    assert_eq!(res.outcome, RunOutcome::EventLimit);
    assert!(res.completions.is_empty(), "no quorum => the write must hang");
}

#[test]
fn reconfiguration_away_from_crashing_servers_restores_liveness_for_new_ops() {
    // Crash one ABD server (still live), migrate to fresh TREAS servers,
    // let the client catch up (its cseq then has c1 finalized), and only
    // then crash a second original server. Sequence traversal of later
    // operations starts from the last *finalized* configuration the
    // client knows, so they bypass the dead c0 entirely. (A client that
    // never caught up would block — that is inherent to ARES: discovery
    // walks the chain through old-configuration quorums.)
    let res = Scenario::new(standard_universe())
        .clients([100, 200])
        .seed(4)
        // Server 2's crash leaves c0 below a majority.
        .fault_schedule(crashes([(900, 3), (8_000, 2)]))
        .write_at(0, 100, 0, Value::filler(50, 1))
        .recon_at(1_000, 200, 1) // to TREAS on 4..8
        .write_at(5_000, 100, 0, Value::filler(50, 2)) // catches up past c0
        .write_at(9_000, 100, 0, Value::filler(50, 3))
        .read_at(12_000, 100, 0)
        .run();
    let h = res.assert_complete_and_atomic();
    assert_eq!(h.len(), 5);
    let read = h.last().unwrap();
    let max_w =
        h.iter().filter(|c| c.kind == ares_types::OpKind::Write).max_by_key(|c| c.tag).unwrap();
    assert_eq!(read.tag, max_w.tag);
}

#[test]
fn reader_crash_is_harmless_to_others() {
    let res = Scenario::new(standard_universe())
        .clients([100, 110])
        .seed(5)
        .write_at(0, 100, 0, Value::filler(32, 1))
        .read_at(100, 110, 0) // reader crashes mid-read
        .fault_schedule(crashes([(120, 110)]))
        .write_at(1_000, 100, 0, Value::filler(32, 2))
        .read_at(2_000, 100, 0)
        .run();
    // The crashed reader's op never completes; everything else does.
    assert_eq!(res.completions.len(), 3);
    ares_harness::check_atomicity(&res.completions).assert_atomic();
}

#[test]
fn reconfigurer_crash_mid_recon_leaves_system_usable() {
    // The reconfigurer may die after consensus but before finalize; the
    // configuration stays pending, and later readers/writers still
    // discover and traverse it (read-config picks up pending pointers).
    let res = Scenario::new(standard_universe())
        .clients([100, 200])
        .seed(6)
        .write_at(0, 100, 0, Value::filler(70, 1))
        .recon_at(1_000, 200, 1)
        .fault_schedule(crashes([(1_450, 200)])) // somewhere inside the reconfig
        .write_at(8_000, 100, 0, Value::filler(70, 2))
        .read_at(12_000, 100, 0)
        .run();
    assert_eq!(res.outcome, RunOutcome::Quiescent);
    // recon may or may not have completed before the crash; reads and
    // writes must have.
    let rw: Vec<_> =
        res.completions.iter().filter(|c| c.kind != ares_types::OpKind::Recon).collect();
    assert_eq!(rw.len(), 3, "both writes and the read completed");
    ares_harness::check_atomicity(&res.completions).assert_atomic();
    let read = rw.iter().find(|c| c.kind == ares_types::OpKind::Read).unwrap();
    let w2 =
        rw.iter().filter(|c| c.kind == ares_types::OpKind::Write).max_by_key(|c| c.tag).unwrap();
    assert_eq!(read.tag, w2.tag);
}

#[test]
fn crashes_across_seeds_never_violate_atomicity() {
    // Randomized crash times for one tolerated server, many seeds.
    for seed in 0..10u64 {
        let crash_time = 100 + seed * 333;
        let res = Scenario::new(standard_universe())
            .clients([100, 110])
            .seed(seed)
            .fault_schedule(crashes([(crash_time, 1)])) // c0 member
            .write_at(0, 100, 0, Value::filler(44, seed + 1))
            .write_at(700, 100, 0, Value::filler(44, seed + 100))
            .read_at(900, 110, 0)
            .read_at(1_600, 110, 0)
            .run();
        ares_harness::check_atomicity(&res.completions).assert_atomic();
        assert_eq!(res.completions.len(), 4, "seed {seed}");
    }
}
