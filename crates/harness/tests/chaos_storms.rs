//! The simulator's chaos legs. Big-cluster churn storms: crash/recover
//! waves at the fault-tolerance boundary rolling through an n = 25
//! erasure-coded deployment while a reconfiguration migrates the data to
//! a shifted footprint, swept across seeds in parallel. Link-level legs
//! on TREAS [5, 3]: heavy-tailed WAN delays, duplication with reorder, a
//! gray node and an asymmetric partition. A chain leg races a fast
//! reconfiguration chain through reads and writes under crashes, so
//! operations meet configurations their servers already retired. Every
//! history goes through the
//! atomicity checker, every run stays inside a fixed event budget, and
//! every leg replays bit-identically from its seed.

use ares_harness::{par_seeds, Scenario, ScenarioResult};
use ares_sim::{FaultAction, FaultSchedule, LatencyModel, TraceKind};
use ares_types::{ConfigId, Configuration, ProcessId, Time, Value};
use std::ops::RangeInclusive;

/// Hard ceiling on simulator events per run: a liveness bug under churn
/// (e.g. a retry storm that never converges) blows this long before
/// wall-clock timeouts would trip.
const EVENT_BUDGET: u64 = 2_000_000;

fn pids(r: RangeInclusive<u32>) -> Vec<ProcessId> {
    r.map(ProcessId).collect()
}

/// Genesis TREAS `[25, 9]` on servers 1–25 (quorum 17, tolerates 8
/// crashes) and a TREAS `[25, 9]` target on servers 6–30: the
/// reconfiguration drags state across a 30-server footprint while the
/// storm rolls.
fn universe() -> Vec<Configuration> {
    vec![
        Configuration::treas(ConfigId(0), pids(1..=25), 9, 2),
        Configuration::treas(ConfigId(1), pids(6..=30), 9, 2),
    ]
}

/// Appends a staggered crash wave over `wave` to `sched`: one crash
/// every 25 µs from `crashes_from`, then one recovery every 25 µs from
/// `recoveries_from`.
fn crash_wave(
    mut sched: FaultSchedule,
    wave: RangeInclusive<u32>,
    crashes_from: Time,
    recoveries_from: Time,
) -> FaultSchedule {
    for (i, pid) in wave.clone().enumerate() {
        sched = sched.at(crashes_from + 25 * i as Time, FaultAction::Crash { pid: ProcessId(pid) });
    }
    for (i, pid) in wave.enumerate() {
        sched = sched
            .at(recoveries_from + 25 * i as Time, FaultAction::Recover { pid: ProcessId(pid) });
    }
    sched
}

/// A crash wave of exactly the 8-crash tolerance, recovering while the
/// reconfiguration (scheduled separately at t = 1000) is still in
/// flight.
fn storm_schedule() -> FaultSchedule {
    crash_wave(FaultSchedule::new(), 1..=8, 300, 2_600)
}

/// Staggered reads and writes, `per_client` on each of `clients` over
/// `objects` objects, overlapping each other and the injected faults.
fn with_workload(
    mut s: Scenario,
    clients: &[u32],
    per_client: u64,
    objects: u64,
    seed: u64,
) -> Scenario {
    for (ci, &client) in (0u64..).zip(clients) {
        for i in 0..per_client {
            let at = i as Time * 700 + ci as Time * 130;
            let obj = ((i + ci) % objects) as u32;
            if (i + ci) % 3 == 2 {
                s = s.read_at(at, client, obj);
            } else {
                // Globally unique digest per (client, op): keeps the
                // checker's write identification exact.
                let vseed = seed ^ (((ci + 1) << 40) | ((i + 1) << 8) | 3);
                s = s.write_at(at, client, obj, Value::filler(256, vseed));
            }
        }
    }
    s
}

/// Two clients on the n = 25 universe, reconfiguring at t = 1000 under
/// `sched`.
fn storm_with(sched: FaultSchedule, seed: u64, per_client: u64) -> Scenario {
    let s = Scenario::new(universe())
        .clients([100, 101])
        .seed(seed)
        .fault_schedule(sched)
        .recon_at(1_000, 100, 1)
        .event_limit(EVENT_BUDGET);
    with_workload(s, &[100, 101], per_client, 2, seed)
}

fn storm(seed: u64) -> Scenario {
    storm_with(storm_schedule(), seed, 4)
}

/// Three clients on one TREAS `[5, 3]` configuration (quorum 4 of 5),
/// four operations each over four objects; `faults` adds the leg's
/// adversary.
fn link_leg(seed: u64, faults: impl FnOnce(Scenario) -> Scenario) -> Scenario {
    let treas5 = vec![Configuration::treas(ConfigId(0), pids(1..=5), 3, 2)];
    let s = Scenario::new(treas5).clients([100, 101, 102]).seed(seed).event_limit(EVENT_BUDGET);
    with_workload(faults(s), &[100, 101, 102], 4, 4, seed)
}

/// Runs `build`'s scenario twice and asserts that the first run is
/// complete, atomic and inside the event budget, and that the second
/// replays it bit-identically. Returns the first run.
fn assert_replays(build: impl Fn() -> Scenario) -> ScenarioResult {
    let a = build().run();
    let b = build().run();
    a.assert_complete_and_atomic();
    assert!(a.events_processed < EVENT_BUDGET, "blew the event budget: {}", a.events_processed);
    assert_eq!(format!("{:?}", a.completions), format!("{:?}", b.completions));
    let fingerprint = |r: &ScenarioResult| {
        (r.finished_at, r.messages_sent, r.events_processed, r.faults_injected)
    };
    assert_eq!(fingerprint(&a), fingerprint(&b), "same seed must replay bit-identically");
    a
}

#[test]
fn churn_storm_sweep_is_atomic_across_seeds() {
    let seeds: Vec<u64> = (41..=48).collect();
    let results = par_seeds(&seeds, |seed| storm(seed).run());
    for (seed, r) in seeds.iter().zip(&results) {
        r.assert_complete_and_atomic();
        assert!(
            r.events_processed < EVENT_BUDGET,
            "seed {seed} blew the event budget: {} events",
            r.events_processed
        );
        assert!(r.faults_injected > 0, "seed {seed}: the storm must actually interfere");
    }
}

#[test]
fn churn_storm_replays_bit_identically_from_its_seed() {
    assert_replays(|| storm(77));
}

#[test]
fn second_crash_wave_through_the_new_footprint_stays_atomic() {
    // After the first wave recovers, servers 9–16 — members of both
    // configurations — crash from t = 5000 and recover from t = 7500,
    // while the last operations are in flight.
    let sched = crash_wave(storm_schedule(), 9..=16, 5_000, 7_500);
    let r = assert_replays(|| storm_with(sched.clone(), 75, 8));
    assert!(
        r.completions.iter().any(|c| c.completed_at > 5_000),
        "operations must overlap the second wave"
    );
}

#[test]
fn churn_with_gray_minority_stays_atomic() {
    // On top of the 8-crash wave, three *surviving* servers turn gray
    // (20× slower without crashing): the quorum of 17 must now include
    // them, so progress rides on retransmission and patience, not on a
    // failure detector evicting anyone.
    let mut sched = storm_schedule();
    for pid in 20..=22u32 {
        sched = sched.at(200, FaultAction::Grayify { pid: ProcessId(pid), factor: 20 });
    }
    for pid in 20..=22u32 {
        sched = sched.at(6_000, FaultAction::Ungray { pid: ProcessId(pid) });
    }
    let r = storm_with(sched, 91, 4).run();
    r.assert_complete_and_atomic();
    assert!(r.events_processed < EVENT_BUDGET);
}

#[test]
fn sim_wan_leg_is_atomic_and_reproducible() {
    // A [10, 50] µs body with 5 % of messages stretched up to 20×.
    assert_replays(|| link_leg(7, |s| s.latency_model(LatencyModel::wan(10, 50))));
}

#[test]
fn sim_dup_reorder_leg_is_atomic_and_reproducible() {
    // 10 % of sends delivered twice, 15 % held back up to 40 µs.
    let sched = FaultSchedule::new()
        .at(0, FaultAction::SetDuplication { per_mille: 100 })
        .at(0, FaultAction::SetReorder { per_mille: 150, extra_max: 40 });
    let r = assert_replays(|| link_leg(72, |s| s.fault_schedule(sched.clone())));
    // The two rate events count as applied faults; nothing else is cut
    // or crashed here, so anything above 2 is a duplicate or a reorder.
    assert!(r.faults_injected > 2, "duplicates and reorders must actually happen");
}

#[test]
fn sim_gray_node_leg_is_atomic_and_reproducible() {
    // Server 3 runs 30× slow from t = 200 to t = 6000 and never crashes:
    // the quorum routes around it without a failure detector's help.
    let sched = FaultSchedule::new()
        .at(200, FaultAction::Grayify { pid: ProcessId(3), factor: 30 })
        .at(6_000, FaultAction::Ungray { pid: ProcessId(3) });
    assert_replays(|| link_leg(73, |s| s.fault_schedule(sched.clone())));
}

#[test]
fn sim_asym_partition_stalls_then_completes() {
    // At t = 150 the replies from servers 1–3 to client 100 die:
    // requests land and server state advances, but the client hears 2 <
    // 4 servers until the heal at t = 3000.
    let mut sched = FaultSchedule::new();
    for s in 1..=3 {
        sched = sched.at(150, FaultAction::CutLink { from: ProcessId(s), to: ProcessId(100) });
    }
    let sched = sched.at(3_000, FaultAction::HealAll);
    let r = assert_replays(|| link_leg(9, |s| s.fault_schedule(sched.clone())));
    for c in r.completions.iter().filter(|c| c.op.client == ProcessId(100)) {
        assert!(
            c.invoked_at < 150 || c.completed_at >= 3_000,
            "{:?} completed inside the partition window",
            c.op
        );
    }
}

#[test]
fn reconfiguration_chain_racing_reads_and_writes_under_crashes_stays_atomic() {
    // Six TREAS [5, 3] configurations on a window of servers 1–8 that
    // slides by one per configuration. A fast reconfigurer installs one
    // every 600 µs while three clients read and write two objects at
    // the default [10, 50] µs; one server of the live window is down at
    // a time. Operations that started on a configuration find it retired
    // under them and are redirected.
    let chain: Vec<Configuration> = (0..=6u32)
        .map(|i| Configuration::treas(ConfigId(i), pids(1 + i % 4..=5 + i % 4), 3, 2))
        .collect();
    let sched = FaultSchedule::new()
        .at(900, FaultAction::Crash { pid: ProcessId(3) })
        .at(2_400, FaultAction::Recover { pid: ProcessId(3) })
        .at(2_700, FaultAction::Crash { pid: ProcessId(6) })
        .at(4_200, FaultAction::Recover { pid: ProcessId(6) });
    let build = || {
        let mut s = Scenario::new(chain.clone())
            .clients([100, 101, 102, 200])
            .seed(61)
            .with_trace()
            .client_delays(ProcessId(200), 1, 5)
            .fault_schedule(sched.clone())
            .event_limit(EVENT_BUDGET);
        for i in 1..=6u32 {
            s = s.recon_at(u64::from(i) * 600, 200, i);
        }
        with_workload(s, &[100, 101, 102], 6, 2, 61)
    };
    let r = assert_replays(build);
    let redirects = r
        .trace
        .iter()
        .filter(|e| matches!(&e.kind, TraceKind::Note { text, .. } if text.contains("redirected")))
        .count();
    assert!(redirects > 0, "operations must meet retired configurations");
}
