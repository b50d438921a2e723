//! One run of one workload: set-up, timed window(s), checks, metrics.
//!
//! `--trace 0` is the end-to-end pass: tracing off, one window of
//! `--seconds`, the nine end-to-end metrics. `--trace 1` is the layer
//! pass: one window of 0.4 × `--seconds` whose outer sub-windows are
//! traced, the isolated probes and the sim twin — every per-layer
//! metric.

use crate::driver::{traced_sub_window, Driver, Outstanding, Plan, WindowResult, DRAIN};
use crate::gen::GenOp;
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::probes::{self, Effort};
use crate::simtwin::{self, Twin};
use crate::spec::{treas53, Spec};
use crate::stats::{median, median_of_slice_percentiles, percentile_of, SLICES, SUB_WINDOWS};
use crate::{procfs, trace};
use ares_harness::Violation;
use ares_net::NodeStats;
use ares_types::{OpCompletion, OpId, OpKind, Value};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Times the workload is set up in a run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Commands the sim twin replays.
const TWIN_COMMANDS: usize = 2000;
/// Share of `--seconds` the window of the layer pass measures for.
const TRACED_SHARE: f64 = 0.4;
/// Commands run against the remaining quorum while a durable server is
/// down, before its recovery is timed.
const RECOVERY_FILLER_OPS: usize = 500;
/// The server the recovery probe crashes.
const RECOVERY_VICTIM: u32 = 3;
/// Where trace files go, relative to the working directory: beside the
/// sources when run from the repository root, which is where run.sh
/// and the driver run the benchmark from.
const TRACE_DIR: &str = "benchmark/out";

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub spec: &'static Spec,
    /// Seed of the command stream and arrival schedule.
    pub seed: u64,
    /// Length of the end-to-end window, seconds.
    pub seconds: f64,
    /// Layer pass instead of end-to-end pass.
    pub trace: bool,
    /// Short warm-up and light probes: a functional check, not a
    /// measurement.
    pub smoke: bool,
}

impl RunArgs {
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { 0.5 } else { 3.0 })
    }

    /// Wall time the run should need; the watchdog allows three times
    /// this.
    fn planned(&self) -> Duration {
        let window = Duration::from_secs_f64(self.seconds);
        if self.trace {
            self.warmup() + window.mul_f64(TRACED_SHARE) + DRAIN + Duration::from_secs(30)
        } else {
            self.warmup() + window + DRAIN + Duration::from_secs(15)
        }
    }
}

/// The result line's content.
#[derive(Debug)]
pub struct RunOutput {
    /// Every check passed.
    pub correct: bool,
    /// Reads and writes submitted in the timed window(s).
    pub attempted: u64,
    /// Of those, the ones that did not complete.
    pub failed: u64,
    /// The metrics of the pass.
    pub report: Report,
}

/// Exits the process if the run takes three times its planned wall
/// time, naming the operations still in flight: a hang must not look
/// like a slow run.
struct Watchdog {
    disarm: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    fn arm(limit: Duration, outstanding: Outstanding) -> Watchdog {
        let (disarm, armed) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if armed.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                let ops = outstanding.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                let ids: Vec<String> = ops.iter().map(OpId::to_string).collect();
                eprintln!(
                    "watchdog: run exceeded {limit:?}; {} operations outstanding: {}",
                    ids.len(),
                    ids.join(" ")
                );
                std::process::exit(3);
            }
        });
        Watchdog { disarm, thread }
    }

    fn disarm(self) {
        drop(self.disarm);
        let _ = self.thread.join();
    }
}

/// Runs one pass of one workload.
///
/// # Errors
///
/// Anything that keeps the pass from producing its metrics: cluster
/// bring-up, a set-up or tail operation failing, a probe failing.
pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    let outstanding = Outstanding::default();
    let watchdog = Watchdog::arm(args.planned() * 3, outstanding.clone());
    let out = if args.trace {
        layer_pass(args, &outstanding)
    } else {
        end_to_end_pass(args, &outstanding)
    };
    watchdog.disarm();
    out
}

fn describe_host(args: &RunArgs) {
    let tmp = std::env::temp_dir();
    println!(
        "workload {} seed {} seconds {} trace {} | host parallelism {} | temp dir {} on {}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        tmp.display(),
        procfs::filesystem_of(&tmp),
    );
}

fn end_to_end_pass(args: &RunArgs, outstanding: &Outstanding) -> Result<RunOutput, String> {
    describe_host(args);
    let spec = args.spec;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut driver = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = driver.take() {
            Driver::shut_down(previous);
        }
        let d = Driver::set_up(spec, args.seed, outstanding.clone()).map_err(|e| e.to_string())?;
        setups.push(d.setup_secs);
        driver = Some(d);
    }
    let mut driver = driver.ok_or("no set-up ran")?;
    let shown: Vec<String> = setups.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    println!("set-up ms, {SETUP_REPS} times: {}", shown.join(" "));

    let plan = Plan {
        warmup: args.warmup(),
        window: Duration::from_secs_f64(args.seconds),
        traced: false,
    };
    let window = driver.run_window(plan);
    driver.closing_reads(8).map_err(|e| e.to_string())?;
    let (history, issued) = driver.shut_down();
    let (correct, _) = check_history(spec, &history, &issued, window.failed_outside);

    let mut report = Report::default();
    report.set("setup_s", median(&setups));
    window_end_to_end(&window, &mut report);
    println!("end-to-end metrics ({} reads+writes completed in the window):", window.completed());
    report.print(&END_TO_END);
    println!("  ops_attempted {}  ops_failed {}", window.attempted, window.failed);
    Ok(RunOutput { correct, attempted: window.attempted, failed: window.failed, report })
}

/// The end-to-end metrics a window yields (all but `setup_s`): each
/// the median over the window's slices of the slice's own value.
fn window_end_to_end(w: &WindowResult, report: &mut Report) {
    let slice_secs = w.secs / SLICES as f64;
    let per_slice: Vec<f64> = (0..SLICES).map(|i| w.completed_in_slice(i) as f64).collect();
    let rates: Vec<f64> = per_slice.iter().map(|n| n / slice_secs).collect();
    report.set("ops_per_s", median(&rates));
    let series: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("ops/s by slice: {}", series.join(" "));
    let cpu_per_op: Vec<f64> = w
        .cpu_at_edges
        .windows(2)
        .zip(&per_slice)
        .filter(|(_, n)| **n > 0.0)
        .map(|(edge, n)| (edge[1] - edge[0]) / n)
        .collect();
    report.set("cpu_us_per_op", median(&cpu_per_op));
    report.set("peak_rss_mib", w.peak_rss_mib);
}

/// Checks everything the run's history can be checked for, outside the
/// timed window: atomicity by the harness's checker, then — by the
/// benchmark's own bookkeeping — that every write stored the bytes the
/// generator produced and every read returned the bytes of some write
/// to its object. Returns the verdict and the checker's wall time, ms.
fn check_history(
    spec: &Spec,
    history: &[OpCompletion],
    issued: &[(OpId, GenOp)],
    failed_outside: u64,
) -> (bool, f64) {
    let began = Instant::now();
    let report = ares_harness::check_atomicity(history);
    let check_ms = began.elapsed().as_secs_f64() * 1e3;
    // A read may return the value of a write that never completed (and
    // so is not in the history): the checker calls that a phantom, the
    // digest check below knows every write that was issued.
    let violations: Vec<&Violation> =
        report.violations.iter().filter(|v| !matches!(v, Violation::PhantomRead { .. })).collect();
    for v in violations.iter().take(10) {
        eprintln!("VIOLATION: {v}");
    }
    let mut correct = violations.is_empty();

    let commands: HashMap<OpId, GenOp> = issued.iter().copied().collect();
    let mut written: HashMap<u32, HashSet<u64>> = HashMap::new();
    let mut digest_of: HashMap<u64, u64> = HashMap::new();
    for (_, op) in issued {
        if let GenOp::Write { obj, value_seed } = *op {
            let digest = Value::filler(spec.value_size, value_seed).digest();
            digest_of.insert(value_seed, digest);
            written.entry(obj).or_default().insert(digest);
        }
    }
    let mut mismatches = 0;
    for done in history.iter().filter(|c| c.kind != OpKind::Recon) {
        let ok = match commands.get(&done.op) {
            Some(GenOp::Write { value_seed, .. }) => {
                done.value_digest == digest_of.get(value_seed).copied()
            }
            Some(GenOp::Read { obj }) => done
                .value_digest
                .is_some_and(|d| written.get(obj).is_some_and(|set| set.contains(&d))),
            None => false,
        };
        if !ok {
            mismatches += 1;
            if mismatches <= 10 {
                eprintln!("VIOLATION: {} returned a value no generated write explains", done.op);
            }
        }
    }
    if failed_outside > 0 {
        eprintln!("VIOLATION: {failed_outside} operations outside the window failed");
    }
    correct &= mismatches == 0 && failed_outside == 0;
    println!(
        "history: {} operations checked atomic in {check_ms:.1} ms, {} violations, {mismatches} digest mismatches",
        report.ops_checked,
        violations.len(),
    );
    (correct, check_ms)
}

fn layer_pass(args: &RunArgs, outstanding: &Outstanding) -> Result<RunOutput, String> {
    describe_host(args);
    let spec = args.spec;
    let io = |e: std::io::Error| e.to_string();
    let mut report = Report::default();
    let mut correct = true;
    let window_len = Duration::from_secs_f64(args.seconds * TRACED_SHARE);

    let mut driver = Driver::set_up(spec, args.seed, outstanding.clone()).map_err(io)?;
    let mut traced =
        driver.run_window(Plan { warmup: args.warmup(), window: window_len, traced: true });
    let recovery = if spec.durable {
        driver.crash_and_recover(RECOVERY_VICTIM, RECOVERY_FILLER_OPS).map_err(io)?
    } else {
        (0.0, 0)
    };
    driver.closing_reads(8).map_err(io)?;
    let (history, issued) = driver.shut_down();
    let (ok, check_ms) = check_history(spec, &history, &issued, traced.failed_outside);
    correct &= ok;
    let trace_path = Path::new(TRACE_DIR).join(format!("trace-{}.json", spec.name));
    trace::write_file(&trace_path, spec, args.seed, &traced).map_err(io)?;
    println!(
        "trace: {} spans of {} operations in {}",
        4 * traced.spans.len(),
        traced.spans.len(),
        trace_path.display()
    );

    // The sim twin, and what the paper says it must show.
    let twin = simtwin::run(spec, args.seed, if args.smoke { 200 } else { TWIN_COMMANDS })?;
    for (name, value) in twin.metrics() {
        report.set(name, value);
    }
    if !spec.churn {
        for (name, expected) in Twin::expectations(spec) {
            let measured = twin.get(name).unwrap_or(f64::NAN);
            if measured != expected {
                eprintln!("VIOLATION: {name} is {measured}, the paper's cost is {expected}");
                correct = false;
            }
        }
    }

    probes::run_all(if args.smoke { Effort::Smoke } else { Effort::Full }, &mut report)
        .map_err(io)?;
    let (quiet_read, quiet_write) =
        probes::quiet_latencies_us(treas53(0, 1), if args.smoke { 50 } else { 400 }).map_err(io)?;

    window_layers(spec, &mut traced, &twin, &mut report);
    report.set("wal.recover_ms", recovery.0);
    report.set("wal.replay_records", recovery.1 as f64);
    report.set("harness.check_ms", check_ms);

    let get = |r: &Report, name: &str| r.get(name).unwrap_or(0.0);
    let model_write = twin.rounds_per_write * get(&report, "net.hop_rtt_us")
        + get(&report, "codes.rs53_encode_us_256b");
    let mut loaded = traced.reads.concat();
    loaded.extend(traced.writes.concat());
    let loaded_p50 = percentile_of(&mut loaded, 0.5);
    report.set("trace.quiescent_read_us", quiet_read);
    report.set("trace.quiescent_write_us", quiet_write);
    report.set("trace.model_write_us", model_write);
    report.set("trace.model_gap_share", 1.0 - model_write / quiet_write);
    report.set("trace.queue_share", 1.0 - (quiet_read + quiet_write) / 2.0 / loaded_p50.max(1.0));
    report.set("trace.observe_lag_us", trace::observe_lag_us(&traced.spans));
    let completed_where = |on: bool| -> f64 {
        (0..SUB_WINDOWS)
            .filter(|&i| traced_sub_window(i) == on)
            .map(|i| traced.completed_in(i) as f64)
            .sum()
    };
    report
        .set("trace.overhead_share", 1.0 - completed_where(true) / completed_where(false).max(1.0));

    println!(
        "per-layer metrics ({} reads+writes completed in the traced window):",
        traced.completed()
    );
    report.print(&PER_LAYER);
    println!("  ops_attempted {}  ops_failed {}", traced.attempted, traced.failed);
    Ok(RunOutput { correct, attempted: traced.attempted, failed: traced.failed, report })
}

/// Sum over nodes of `f(end) - f(start)`.
fn delta(nodes: &[(NodeStats, NodeStats)], f: impl Fn(&NodeStats) -> u64) -> f64 {
    nodes.iter().map(|(start, end)| f(end).saturating_sub(f(start)) as f64).sum()
}

/// The per-layer metrics a (traced) window yields: `net`, `wal`
/// counters, `consensus`, `series`, `proc`, `gen`.
fn window_layers(spec: &Spec, w: &mut WindowResult, twin: &Twin, report: &mut Report) {
    let completed = w.completed().max(1) as f64;
    let nodes = &w.nodes;
    let servers = nodes.len().max(1) as f64;

    // net: what the servers' hosts counted over the window. A frame
    // routed is a request delivered to a shard; the twin says how many
    // requests the protocol needs (half its messages are replies).
    let routed = delta(nodes, NodeStats::frames_routed);
    let (reads, writes, recons) = twin.counted;
    let twin_msgs = reads as f64 * twin.msgs_per_read
        + writes as f64 * twin.msgs_per_write
        + recons as f64 * twin.msgs_per_recon;
    let ideal_per_op = twin_msgs / 2.0 / servers / (reads + writes).max(1) as f64;
    report.set("net.frames_routed_per_op", routed / servers / completed);
    report.set("net.retransmit_factor", routed / servers / completed / ideal_per_op);
    report.set(
        "net.frames_per_flush",
        delta(nodes, |s| s.frames_sent) / delta(nodes, |s| s.batches_flushed).max(1.0),
    );
    report.set(
        "net.shard0_share",
        delta(nodes, |s| s.shards.first().map_or(0, |sh| sh.frames_routed)) / routed.max(1.0),
    );
    let high_water = nodes
        .iter()
        .flat_map(|(_, end)| end.shards.iter().map(|sh| sh.inbox_high_water))
        .max()
        .unwrap_or(0);
    report.set("net.inbox_high_water", high_water as f64);
    report.set("net.frames_abandoned", delta(nodes, |s| s.frames_abandoned));
    report.set("net.outbound_dropped", delta(nodes, |s| s.outbound_dropped));
    report.set("net.peer_queue_depth_max", w.peer_queue_depth_max as f64);

    // wal: the durable cluster's log counters (zero without a log).
    let wal = |f: fn(&ares_wal::WalStats) -> u64| delta(nodes, |s| s.wal.as_ref().map_or(0, f));
    let client_writes = w.writes_completed().max(1) as f64;
    report.set("wal.records_per_write", wal(|s| s.records_appended) / servers / client_writes);
    report.set("wal.records_per_fsync", wal(|s| s.records_appended) / wal(|s| s.fsyncs).max(1.0));
    report.set(
        "wal.bytes_per_user_byte",
        wal(|s| s.bytes_logged) / (client_writes * spec.value_size as f64),
    );
    report.set("wal.checkpoints", wal(|s| s.checkpoints) / servers);

    // consensus: the reconfigurations of the window.
    report.set("consensus.recons_completed", w.recons.len() as f64);
    report.set("consensus.recon_p50_ms", percentile_of(&mut w.recons.clone(), 0.5) / 1e3);
    report.set("consensus.recon_p99_ms", percentile_of(&mut w.recons.clone(), 0.99) / 1e3);

    // series: the window over time.
    let sub_secs = w.secs / SUB_WINDOWS as f64;
    let first = w.completed_in(0) as f64 / sub_secs;
    let last = w.completed_in(SUB_WINDOWS - 1) as f64 / sub_secs;
    report.set("series.ops_per_s_first", first);
    report.set("series.ops_per_s_last", last);
    report.set("series.drift_ratio", last / first.max(1e-9));
    w.completion_times.sort_unstable();
    let stall = w.completion_times.windows(2).map(|p| p[1] - p[0]).max().unwrap_or(0);
    report.set("series.stall_max_ms", stall as f64 / 1e3);
    report.set("series.read_p50_us", median_of_slice_percentiles(&mut w.reads, 0.5));
    report.set("series.write_p50_us", median_of_slice_percentiles(&mut w.writes, 0.5));
    report.set("series.read_p99_us", median_of_slice_percentiles(&mut w.reads, 0.99));
    report.set("series.write_p99_us", median_of_slice_percentiles(&mut w.writes, 0.99));
    report.set("series.read_p999_us", percentile_of(&mut w.reads.concat(), 0.999));

    // proc: where the CPU time went.
    let (start, end) = w.proc;
    let (user, sys) = (end.user_us - start.user_us, end.sys_us - start.sys_us);
    report.set("proc.user_us_per_op", user / completed);
    report.set("proc.sys_us_per_op", sys / completed);
    report.set("proc.sys_share", sys / (user + sys).max(1.0));
    report.set(
        "proc.ctx_switches_per_op",
        end.ctx_switches.saturating_sub(start.ctx_switches) as f64 / completed,
    );
    report.set("proc.threads", end.threads as f64);

    // gen: did the generator keep its schedule.
    report.set("gen.late_p99_us", percentile_of(&mut w.late, 0.99));
    report.set("gen.achieved_ops_per_s", w.attempted as f64 / w.secs);
}
