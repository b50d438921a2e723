//! The chaos suite: adversarial scenarios over both backends.
//!
//! Each scenario scripts one messy failure regime — heavy-tailed WAN
//! links, duplication + reorder, gray (slow-but-alive) nodes, asymmetric
//! partitions, and big-cluster churn storms overlapping reconfiguration —
//! runs a read/write workload through it, and feeds the completion
//! history to [`ares_harness::check_atomicity`]. Simulator legs run
//! **twice** from the same `(seed, schedule)` pair and must produce
//! bit-identical results (`reproducible` in the report); live-cluster
//! legs drive a [`FaultScript`] against a loopback TCP deployment from a
//! scoped thread while the workload runs.
//!
//! [`run_chaos_suite`] executes every scenario and returns a
//! [`ChaosReport`] whose [`ChaosReport::to_json`] emits the
//! `ares-bench-chaos/v1` document (`BENCH_chaos.json`): per scenario the
//! seed and the full fault schedule are embedded, so any sim leg can be
//! replayed exactly from the artifact alone.

use crate::json::JsonWriter;
use crate::{LatencyHistogram, LoadSpec, SessionLoop};
use ares_harness::{check_atomicity, Scenario, ScenarioResult};
use ares_net::testing::LocalCluster;
use ares_net::{ClusterFault, FaultScript};
use ares_sim::{FaultAction, FaultSchedule, LatencyModel};
use ares_types::{ConfigId, Configuration, OpCompletion, OpKind, ProcessId, Time, Value};
use std::io;
use std::time::{Duration, Instant};

/// Outcome of one chaos scenario.
#[derive(Debug, Clone)]
pub struct ChaosScenarioReport {
    /// Scenario name (stable across runs; keys the JSON artifact).
    pub name: String,
    /// `"sim"` (deterministic simulator) or `"net"` (loopback TCP).
    pub backend: &'static str,
    /// RNG seed of the run — with `fault_schedule`, enough to replay a
    /// sim leg bit-identically.
    pub seed: u64,
    /// Human-readable fault schedule, one line per scheduled action.
    pub fault_schedule: Vec<String>,
    /// Operations that completed.
    pub ops: u64,
    /// p99 of the operation sojourn (invoke→complete) in µs — simulated
    /// time for sim legs, wall clock for net legs.
    pub p99_sojourn_us: u64,
    /// Fault-plane interference events (drops, duplicates, reorders,
    /// schedule actions).
    pub faults_injected: u64,
    /// Whether every scheduled operation completed *and* the history
    /// passed the atomicity checker.
    pub atomic: bool,
    /// Sim legs: whether two runs from the same seed + schedule were
    /// bit-identical. `None` for net legs (wall clock is not replayable).
    pub reproducible: Option<bool>,
    /// Simulated (sim) or wall-clock (net) duration in seconds.
    pub elapsed_secs: f64,
}

impl ChaosScenarioReport {
    /// One-line human rendering.
    pub fn line(&self) -> String {
        format!(
            "{:<24} [{}] seed={} ops={} p99={}us faults={} atomic={}{}",
            self.name,
            self.backend,
            self.seed,
            self.ops,
            self.p99_sojourn_us,
            self.faults_injected,
            self.atomic,
            match self.reproducible {
                Some(r) => format!(" reproducible={r}"),
                None => String::new(),
            }
        )
    }
}

/// Outcome of the whole chaos suite.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-scenario results, in execution order.
    pub scenarios: Vec<ChaosScenarioReport>,
    /// Whether this was the reduced CI-sized suite.
    pub quick: bool,
}

impl ChaosReport {
    /// Whether every scenario's history was complete and atomic.
    pub fn all_atomic(&self) -> bool {
        self.scenarios.iter().all(|s| s.atomic)
    }

    /// Whether every sim leg replayed bit-identically.
    pub fn all_reproducible(&self) -> bool {
        self.scenarios.iter().all(|s| s.reproducible.unwrap_or(true))
    }

    /// The `ares-bench-chaos/v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("schema", "ares-bench-chaos/v1");
        w.string("mode", if self.quick { "quick" } else { "full" });
        w.begin_array_key("scenarios");
        for s in &self.scenarios {
            w.begin_object();
            w.string("name", &s.name);
            w.string("backend", s.backend);
            w.u64("seed", s.seed);
            w.begin_array_key("fault_schedule");
            for step in &s.fault_schedule {
                w.element_string(step);
            }
            w.end_array();
            w.u64("ops", s.ops);
            w.u64("p99_sojourn_us", s.p99_sojourn_us);
            w.u64("faults_injected", s.faults_injected);
            w.bool("atomic", s.atomic);
            if let Some(r) = s.reproducible {
                w.bool("reproducible", r);
            }
            w.f64("elapsed_secs", s.elapsed_secs);
            w.end_object();
        }
        w.end_array();
        w.bool("all_atomic", self.all_atomic());
        w.bool("all_reproducible", self.all_reproducible());
        w.end_object();
        w.finish()
    }
}

/// p99 of read/write sojourn times in a completion history.
fn p99_sojourn(completions: &[OpCompletion]) -> u64 {
    let mut h = LatencyHistogram::new();
    for c in completions {
        if matches!(c.kind, OpKind::Read | OpKind::Write) {
            h.record(c.latency());
        }
    }
    h.quantile(0.99)
}

/// Everything that must match for two sim runs to count as replays of
/// one execution.
fn fingerprint(r: &ScenarioResult) -> (String, Time, u64, u64, u64) {
    (
        format!("{:?}", r.completions),
        r.finished_at,
        r.messages_sent,
        r.events_processed,
        r.faults_injected,
    )
}

/// Runs one simulator leg twice from the same seed and schedule,
/// checking the two executions are bit-identical.
fn run_sim_leg(
    name: &str,
    seed: u64,
    schedule_desc: Vec<String>,
    build: impl Fn() -> Scenario,
) -> ChaosScenarioReport {
    let first = build().run();
    let second = build().run();
    let reproducible = fingerprint(&first) == fingerprint(&second);
    let complete = first.completions.len() == first.scheduled_ops;
    let atomic = complete && check_atomicity(&first.completions).is_atomic();
    ChaosScenarioReport {
        name: name.to_string(),
        backend: "sim",
        seed,
        fault_schedule: schedule_desc,
        ops: first.completions.len() as u64,
        p99_sojourn_us: p99_sojourn(&first.completions),
        faults_injected: first.faults_injected,
        atomic,
        reproducible: Some(reproducible),
        elapsed_secs: first.finished_at as f64 / 1e6,
    }
}

/// Appends a deterministic read/write mix to a scenario: `per_client`
/// operations per client, staggered so operations overlap across
/// clients (concurrency is what the atomicity checker needs to bite).
fn mixed_ops(
    mut s: Scenario,
    clients: &[u32],
    per_client: usize,
    objects: u32,
    value_size: usize,
    seed: u64,
) -> Scenario {
    for (ci, &client) in clients.iter().enumerate() {
        for i in 0..per_client {
            let at = i as Time * 700 + ci as Time * 130;
            let obj = (i as u32 + ci as u32) % objects.max(1);
            if (i + ci) % 3 == 2 {
                s = s.read_at(at, client, obj);
            } else {
                // Globally unique value seed per (client, op): distinct
                // digests keep the checker's write identification exact.
                let vseed = seed ^ (((ci as u64 + 1) << 40) | ((i as u64 + 1) << 8) | 5);
                s = s.write_at(at, client, obj, Value::filler(value_size, vseed));
            }
        }
    }
    s
}

fn pids(r: std::ops::RangeInclusive<u32>) -> Vec<ProcessId> {
    r.map(ProcessId).collect()
}

/// A single TREAS `[5, 3]` configuration (quorum 4 of 5) — the small
/// universe most link-level scenarios run against.
fn treas5() -> Vec<Configuration> {
    vec![Configuration::treas(ConfigId(0), pids(1..=5), 3, 2)]
}

/// The churn-storm universe: genesis TREAS `[25, 9]` on servers 1–25
/// (quorum 17, tolerates 8 crashes) and a TREAS `[25, 9]` target on
/// servers 6–30, so a reconfiguration migrates state across a 30-server
/// footprint while crash waves roll through.
fn churn_universe() -> Vec<Configuration> {
    vec![
        Configuration::treas(ConfigId(0), pids(1..=25), 9, 2),
        Configuration::treas(ConfigId(1), pids(6..=30), 9, 2),
    ]
}

/// Heavy-tailed WAN latencies (5% of messages stretched up to 20×).
fn wan_scenario(quick: bool, seed: u64) -> Scenario {
    let per_client = if quick { 4 } else { 10 };
    let s = Scenario::new(treas5())
        .clients([100, 101, 102])
        .seed(seed)
        .latency_model(LatencyModel::wan(10, 50))
        .event_limit(400_000);
    mixed_ops(s, &[100, 101, 102], per_client, 4, 512, seed)
}

/// Probabilistic duplication plus bounded reorder on every link.
fn dup_reorder_scenario(quick: bool, seed: u64) -> Scenario {
    let per_client = if quick { 4 } else { 10 };
    let s = Scenario::new(treas5())
        .clients([100, 101, 102])
        .seed(seed)
        .duplication(100)
        .reorder(150, 40)
        .event_limit(400_000);
    mixed_ops(s, &[100, 101, 102], per_client, 4, 512, seed)
}

/// One server turns gray (30× slow, never crashes) mid-run, then
/// recovers; the quorum must route around it without a failure
/// detector's help.
fn gray_schedule() -> FaultSchedule {
    FaultSchedule::new()
        .at(200, FaultAction::Grayify { pid: ProcessId(3), factor: 30 })
        .at(6_000, FaultAction::Ungray { pid: ProcessId(3) })
}

fn gray_scenario(quick: bool, seed: u64) -> Scenario {
    let per_client = if quick { 4 } else { 10 };
    let s = Scenario::new(treas5())
        .clients([100, 101])
        .seed(seed)
        .fault_schedule(gray_schedule())
        .event_limit(400_000);
    mixed_ops(s, &[100, 101], per_client, 3, 512, seed)
}

/// Asymmetric partition: the reply direction from three of five servers
/// to the client dies, so requests land and server state advances but
/// the client can only assemble 2 < 4 quorum replies — until the heal.
fn asym_schedule() -> FaultSchedule {
    let mut sched = FaultSchedule::new();
    for s in 1..=3 {
        sched = sched.at(150, FaultAction::CutLink { from: ProcessId(s), to: ProcessId(100) });
    }
    sched.at(3_000, FaultAction::HealAll)
}

fn asym_scenario(quick: bool, seed: u64) -> Scenario {
    let ops = if quick { 4 } else { 10 };
    let mut s = Scenario::new(treas5())
        .clients([100])
        .seed(seed)
        .fault_schedule(asym_schedule())
        .event_limit(400_000)
        // Completes before the cut; everything after stalls until heal.
        .write_at(0, 100, 0, Value::filler(512, seed ^ 0xA1));
    for i in 0..ops {
        let at = 200 + i as Time * 100;
        if i % 3 == 2 {
            s = s.read_at(at, 100, (i % 2) as u32);
        } else {
            s = s.write_at(at, 100, (i % 2) as u32, Value::filler(512, seed ^ (0xB00 + i as u64)));
        }
    }
    s
}

/// Churn storm at n = 25: staggered crash/recover waves of 8 servers
/// (exactly the TREAS `[25, 9]` tolerance) overlapping a
/// reconfiguration that migrates to a shifted 25-server footprint.
fn churn_schedule(quick: bool) -> FaultSchedule {
    let mut sched = FaultSchedule::new();
    for (i, pid) in (1..=8u32).enumerate() {
        sched = sched.at(300 + 25 * i as Time, FaultAction::Crash { pid: ProcessId(pid) });
    }
    for (i, pid) in (1..=8u32).enumerate() {
        sched = sched.at(2_600 + 25 * i as Time, FaultAction::Recover { pid: ProcessId(pid) });
    }
    if !quick {
        // Second wave rolls through the post-reconfiguration footprint.
        for (i, pid) in (9..=16u32).enumerate() {
            sched = sched.at(5_000 + 25 * i as Time, FaultAction::Crash { pid: ProcessId(pid) });
        }
        for (i, pid) in (9..=16u32).enumerate() {
            sched = sched.at(7_500 + 25 * i as Time, FaultAction::Recover { pid: ProcessId(pid) });
        }
    }
    sched
}

fn churn_scenario(quick: bool, seed: u64) -> Scenario {
    let per_client = if quick { 4 } else { 8 };
    let s = Scenario::new(churn_universe())
        .clients([100, 101])
        .seed(seed)
        .fault_schedule(churn_schedule(quick))
        .recon_at(1_000, 100, 1)
        .event_limit(2_000_000);
    mixed_ops(s, &[100, 101], per_client, 2, 256, seed)
}

/// Runs one live-cluster leg: the workload is driven closed-loop over a
/// session-multiplexed store while `script` is applied from a scoped
/// thread at its wall-clock offsets.
fn run_net_leg(
    name: &str,
    spec: &LoadSpec,
    configs: Vec<Configuration>,
    script: FaultScript,
) -> io::Result<ChaosScenarioReport> {
    let cluster = LocalCluster::builder(configs)
        .clients([100])
        .objects(0..spec.objects.max(1) as u32)
        .start()?;
    let store = cluster.store(100);
    let t0 = Instant::now();
    let completions = std::thread::scope(|s| {
        let script = &script;
        let cluster = &cluster;
        let faults = s.spawn(move || cluster.run_script(script));
        let mut driver = SessionLoop::start(store, spec);
        let mut seen = 0u64;
        while !driver.done() {
            assert!(
                t0.elapsed() < ares_net::DEFAULT_OP_TIMEOUT + Duration::from_secs(240),
                "chaos workload did not complete (liveness bug)"
            );
            seen = store.wait_progress(seen, Duration::from_millis(50));
            driver.sweep();
        }
        faults.join().expect("fault script thread");
        driver.completions
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let faults_injected = cluster.faults_dropped() + script.len() as u64;
    cluster.shutdown();
    let complete = completions.len() == spec.total_ops();
    let atomic = complete && check_atomicity(&completions).is_atomic();
    Ok(ChaosScenarioReport {
        name: name.to_string(),
        backend: "net",
        seed: spec.seed,
        fault_schedule: script.describe(),
        ops: completions.len() as u64,
        p99_sojourn_us: p99_sojourn(&completions),
        faults_injected,
        atomic,
        reproducible: None,
        elapsed_secs: elapsed,
    })
}

/// Live-cluster asymmetric partition: the client's outbound direction
/// to servers 1–3 dies (it can still reach only 2 of 5 — below the
/// quorum of 4), then the partition heals and every stalled operation
/// must complete.
fn net_asym_leg(quick: bool) -> io::Result<ChaosScenarioReport> {
    let spec = LoadSpec {
        clients: 4,
        objects: 2,
        value_size: 512,
        read_percent: 50,
        ops_per_client: if quick { 6 } else { 25 },
        zipf_theta: 0.0,
        seed: 81,
    };
    let script = FaultScript::new()
        .at(Duration::from_millis(30), ClusterFault::OneWay { from: vec![100], to: vec![1, 2, 3] })
        .at(Duration::from_millis(350), ClusterFault::Heal);
    run_net_leg("net_asym_partition", &spec, treas5(), script)
}

/// Live-cluster gray node under Zipf-skewed load: the hottest objects
/// concentrate on every server, one of which serves 1.5 ms slower per
/// frame for a while.
fn net_zipf_gray_leg(quick: bool) -> io::Result<ChaosScenarioReport> {
    let spec = LoadSpec {
        clients: 6,
        objects: 8,
        value_size: 512,
        read_percent: 50,
        ops_per_client: if quick { 6 } else { 20 },
        zipf_theta: 0.99,
        seed: 82,
    };
    let script = FaultScript::new()
        .at(Duration::from_millis(20), ClusterFault::Slow { pid: 1, delay_micros: 1_500 })
        .at(Duration::from_millis(300), ClusterFault::Unslow { pid: 1 });
    run_net_leg("net_zipf_gray", &spec, treas5(), script)
}

/// Runs the whole chaos suite: five simulator scenarios (each executed
/// twice to prove seed-reproducibility) and two live-cluster scenarios.
/// `quick` shrinks operation counts and drops the second churn wave for
/// CI; the full suite is what `BENCH_chaos.json` commits.
///
/// # Errors
///
/// Propagates socket errors from live-cluster bring-up.
pub fn run_chaos_suite(quick: bool) -> io::Result<ChaosReport> {
    let mut scenarios = vec![
        run_sim_leg(
            "sim_wan_heavy_tail",
            71,
            vec!["latency=wan(10,50) tail 5% x<=20".into()],
            || wan_scenario(quick, 71),
        ),
        run_sim_leg(
            "sim_dup_reorder",
            72,
            vec!["duplication 100/1000".into(), "reorder 150/1000 extra<=40".into()],
            || dup_reorder_scenario(quick, 72),
        ),
        run_sim_leg("sim_gray_node", 73, gray_schedule().describe(), || gray_scenario(quick, 73)),
        run_sim_leg("sim_asym_partition", 74, asym_schedule().describe(), || {
            asym_scenario(quick, 74)
        }),
        run_sim_leg("sim_churn_storm_n25", 75, churn_schedule(quick).describe(), || {
            churn_scenario(quick, 75)
        }),
    ];
    scenarios.push(net_asym_leg(quick)?);
    scenarios.push(net_zipf_gray_leg(quick)?);
    Ok(ChaosReport { scenarios, quick })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_wan_leg_is_atomic_and_reproducible() {
        let r = run_sim_leg("wan", 7, vec![], || wan_scenario(true, 7));
        assert!(r.atomic, "wan leg history not atomic/complete");
        assert_eq!(r.reproducible, Some(true), "same seed must replay bit-identically");
        assert!(r.ops > 0);
    }

    #[test]
    fn sim_asym_partition_stalls_then_completes() {
        let r = run_sim_leg("asym", 9, asym_schedule().describe(), || asym_scenario(true, 9));
        assert!(r.atomic);
        assert!(r.faults_injected > 0, "the schedule must actually fire");
        // The heal is at t=3000: stalled operations cannot have finished
        // before it.
        assert!(r.elapsed_secs >= 3e-3, "partition window not exercised: {}", r.elapsed_secs);
    }

    #[test]
    fn chaos_json_has_schema_seed_and_schedule() {
        let report = ChaosReport {
            scenarios: vec![ChaosScenarioReport {
                name: "x".into(),
                backend: "sim",
                seed: 3,
                fault_schedule: vec!["t=1: heal_all".into()],
                ops: 5,
                p99_sojourn_us: 120,
                faults_injected: 2,
                atomic: true,
                reproducible: Some(true),
                elapsed_secs: 0.5,
            }],
            quick: true,
        };
        let json = report.to_json();
        assert!(json.contains(r#""schema":"ares-bench-chaos/v1""#));
        assert!(json.contains(r#""seed":3"#));
        assert!(json.contains(r#""fault_schedule":["t=1: heal_all"]"#));
        assert!(json.contains(r#""atomic":true"#));
        assert!(json.contains(r#""all_reproducible":true"#));
    }
}
