//! `loadgen` — the scripted-incident experiments (E16 and the chaos
//! suite in `EXPERIMENTS.md`): the crash-recovery A/B and the
//! adversarial chaos suite. Checks every history for atomicity, prints
//! a summary and writes `BENCH_recovery.json` + `BENCH_chaos.json`
//! (schemas documented in README). Sustained throughput and latency are
//! `benchmark/`'s job.
//!
//! Usage: `cargo run --release -p ares-loadgen --bin loadgen --
//! [--quick] [--only-recovery] [--only-chaos] [--recovery-out PATH]
//! [--chaos-out PATH]`
//!
//! `--quick` shrinks every dimension for CI smoke runs (a few seconds);
//! `--only-recovery` runs just the crash-recovery A/B, `--only-chaos`
//! just the chaos suite (both full-size unless `--quick`).

use ares_loadgen::json::JsonWriter;
use ares_loadgen::{run_chaos_suite, run_recovery, RecoveryMode, RecoveryRunReport, RecoverySpec};

fn wal_stats_json(w: &mut JsonWriter, wal: &ares_net::WalStats) {
    w.begin_object_key("wal");
    w.u64("records_appended", wal.records_appended);
    w.u64("bytes_logged", wal.bytes_logged);
    w.u64("fsyncs", wal.fsyncs);
    w.f64("group_commit_batch_size", wal.group_commit_batch_size());
    w.u64("checkpoints", wal.checkpoints);
    w.u64("replay_records", wal.replay_records);
    w.u64("torn_tail_truncations", wal.torn_tail_truncations);
    w.u64("corrupt_records_dropped", wal.corrupt_records_dropped);
    w.u64("append_errors", wal.append_errors);
    w.end_object();
}

/// The crash-recovery A/B (E16): the same populate → crash → delta →
/// restart incident, recovered once by WAL replay + delta repair and
/// once by blank restart + repair-from-zero. Both histories are
/// atomicity-checked; the full run gates on replay being faster.
fn run_recovery_sweep(quick: bool, out_path: &str) {
    let spec = if quick { RecoverySpec::quick() } else { RecoverySpec::full() };
    println!(
        "\n# recovery A/B: {} objects × {} writes ({} KiB values), {}-object delta, \
         durable TREAS [5,3]",
        spec.objects,
        spec.writes_per_object,
        spec.value_size / 1024,
        spec.delta_objects
    );
    // Wall-clock recovery times on loopback carry scheduler noise:
    // each leg runs `iters` times and reports its median.
    let iters = if quick { 1 } else { 3 };
    let legs: Vec<RecoveryRunReport> = [RecoveryMode::ReplayDelta, RecoveryMode::RepairFromZero]
        .into_iter()
        .map(|mode| {
            let mut runs: Vec<RecoveryRunReport> = (0..iters)
                .map(|_| {
                    let r = run_recovery(&spec, mode).expect("recovery bring-up");
                    r.assert_atomic();
                    r
                })
                .collect();
            runs.sort_by(|a, b| a.recovery_secs.total_cmp(&b.recovery_secs));
            let r = runs.swap_remove(runs.len() / 2);
            println!(
                "recovery {:<16} {:>8.3} s median of {iters}  ({} records replayed, {} frames in)",
                r.mode.label(),
                r.recovery_secs,
                r.records_replayed,
                r.recovery_frames
            );
            r
        })
        .collect();
    let (replay, zero) = (&legs[0], &legs[1]);
    let speedup = zero.recovery_secs / replay.recovery_secs.max(1e-9);
    println!("replay-then-delta-repair over repair-from-zero: {speedup:.2}× faster");

    let mut w = JsonWriter::new();
    w.begin_object();
    w.string("schema", "ares-bench-recovery/v1");
    w.string("mode", if quick { "quick" } else { "full" });
    w.string("config", "treas53");
    w.u64("objects", spec.objects as u64);
    w.u64("writes_per_object", spec.writes_per_object as u64);
    w.u64("delta_objects", spec.delta_objects as u64);
    w.u64("value_bytes", spec.value_size as u64);
    w.u64("seed", spec.seed);
    w.begin_array_key("legs");
    for r in &legs {
        w.begin_object();
        w.string("recovery", r.mode.label());
        w.f64("recovery_secs", r.recovery_secs);
        w.u64("records_replayed", r.records_replayed);
        w.u64("recovery_frames", r.recovery_frames);
        w.u64("ops", r.completions.len() as u64);
        if let Some(wal) = &r.wal {
            wal_stats_json(&mut w, wal);
        }
        w.end_object();
    }
    w.end_array();
    w.f64("replay_speedup_over_zero", speedup);
    w.end_object();
    std::fs::write(out_path, w.finish() + "\n").expect("write recovery json");
    println!("wrote {out_path}");

    assert!(replay.records_replayed > 0, "the replay leg must actually replay journal records");
    // The acceptance gate, armed in the full run: replaying the local
    // log and repairing only the delta must beat refetching every
    // object over the wire. Quick CI runs only report (tiny state makes
    // the margin noise-bound).
    if !quick {
        assert!(
            speedup > 1.0,
            "replay-then-delta-repair must beat repair-from-zero: {speedup:.2}×"
        );
    }
}

/// The adversarial chaos suite: WAN tails, duplication + reorder, gray
/// nodes, asymmetric partitions and n=25 churn storms, over both
/// backends. Every history is atomicity-checked and every sim leg must
/// replay bit-identically from its recorded seed + schedule; either
/// failing aborts the run (the CI chaos job relies on that).
fn run_chaos(quick: bool, out_path: &str) {
    println!(
        "\n# chaos suite: WAN tails, dup+reorder, gray nodes, asymmetric partitions, \
         n=25 churn storms"
    );
    let report = run_chaos_suite(quick).expect("chaos bring-up");
    for s in &report.scenarios {
        println!("  {}", s.line());
    }
    std::fs::write(out_path, report.to_json() + "\n").expect("write chaos json");
    println!("wrote {out_path}");
    assert!(report.all_atomic(), "chaos suite recorded a non-atomic or incomplete history");
    assert!(report.all_reproducible(), "a sim chaos leg failed to replay bit-identically");
}

/// The value following `flag`, or `default` when absent.
fn arg_value(args: &[String], flag: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let only_recovery = args.iter().any(|a| a == "--only-recovery");
    let only_chaos = args.iter().any(|a| a == "--only-chaos");
    println!("# loadgen (quick={quick})");
    if !only_chaos {
        run_recovery_sweep(quick, &arg_value(&args, "--recovery-out", "BENCH_recovery.json"));
    }
    if !only_recovery {
        run_chaos(quick, &arg_value(&args, "--chaos-out", "BENCH_chaos.json"));
    }
    println!("every history atomic ✓");
}
