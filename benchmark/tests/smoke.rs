//! `--smoke`: every workload, both passes, through the real command
//! line, with 2 s windows — the whole benchmark as a functional test.
//! The numbers mean nothing (debug build, short windows); the result
//! lines, the checks and the exit codes do.

use ares_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use ares_benchmark::simtwin::{self, Twin};
use ares_benchmark::spec::{Spec, WORKLOADS};
use ares_benchmark::suite::ChildResult;
use std::process::Command;

fn run_pass(workload: &str, trace: bool, dir: &std::path::Path) -> ChildResult {
    let out = Command::new(env!("CARGO_BIN_EXE_ares-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--smoke"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(dir)
        .env("TMPDIR", dir)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    ChildResult::parse(last).unwrap_or_else(|e| panic!("{workload}: {e}: {last}"))
}

fn assert_reports_exactly(result: &ChildResult, defs: &[MetricDef], workload: &str) {
    let names: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(names, expected, "{workload}");
    assert!(result.correct, "{workload}: checks passed");
    assert!(result.attempted >= 1, "{workload}: operations were attempted");
    assert_eq!(result.failed, 0, "{workload}: no operation fails on a healthy cluster");
}

#[test]
fn all_five_workloads_and_the_probes_run_and_check_out() {
    let dir = std::env::temp_dir().join(format!("ares-benchmark-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for w in &WORKLOADS {
        let end_to_end = run_pass(w.name, false, &dir);
        assert_reports_exactly(&end_to_end, &END_TO_END, w.name);
        for (name, value) in &end_to_end.metrics {
            assert!(*value > 0.0, "{}: end-to-end metric {name} is never 0", w.name);
        }
        let layers = run_pass(w.name, true, &dir);
        assert_reports_exactly(&layers, &PER_LAYER, w.name);
        assert!(
            dir.join(format!("benchmark/out/trace-{}.json", w.name)).is_file(),
            "{}: the traced pass leaves its trace file",
            w.name
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_ares-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line");
}

#[test]
fn sim_twin_counts_repeat_exactly_and_equal_the_papers_costs() {
    for name in ["small_sat", "bulk_rw"] {
        let spec = Spec::by_name(name).unwrap();
        let counts = |t: &Twin| -> Vec<(&'static str, f64)> {
            t.metrics().into_iter().filter(|(n, _)| *n != "sim.wall_us_per_op").collect()
        };
        let a = simtwin::run(spec, 9, 300).unwrap();
        let b = simtwin::run(spec, 9, 300).unwrap();
        assert_eq!(counts(&a), counts(&b), "{name}: one seed, one set of counts");
        for (metric, expected) in Twin::expectations(spec) {
            assert_eq!(a.get(metric), Some(expected), "{name}: {metric}");
        }
    }
    // Under churn the counts still repeat; the four-round figure does
    // not apply to operations that meet a reconfiguration.
    let churn = Spec::by_name("recon_churn").unwrap();
    let a = simtwin::run(churn, 9, 600).unwrap();
    let b = simtwin::run(churn, 9, 600).unwrap();
    assert_eq!(a.counted, b.counted);
    assert_eq!(a.recon_rounds, b.recon_rounds);
    assert!(a.counted.2 >= 1 && a.recon_rounds > 4.0);
}
