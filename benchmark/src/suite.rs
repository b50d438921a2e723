//! Whole-benchmark modes. Each workload pass runs in a fresh child
//! process of this same executable, so `peak_rss_mib` and the
//! `/proc` counters belong to one workload and nothing leaks from one
//! into the next.

use crate::json::{self, Json};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::spec::WORKLOADS;
use crate::stats::{median, quartiles, relative_spread};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// The parsed result line of one child run.
#[derive(Debug, Clone)]
pub struct ChildResult {
    /// The run's checks passed.
    pub correct: bool,
    /// Operations attempted in the timed window(s).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(metric, value)` in the order printed.
    pub metrics: Vec<(String, f64)>,
}

impl ChildResult {
    /// Parses the JSON result line.
    ///
    /// # Errors
    ///
    /// The line is not the contract's result object.
    pub fn parse(line: &str) -> Result<ChildResult, String> {
        let doc = json::parse(line)?;
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("result line lacks {k:?}"));
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                value.map(|v| (name.clone(), v)).ok_or_else(|| format!("{name} has no value"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChildResult {
            correct: field("correct")? == &Json::Bool(true),
            attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
            failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
            metrics,
        })
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Options every child run of a suite shares.
#[derive(Debug, Clone, Copy)]
pub struct SuiteArgs {
    /// Base seed.
    pub seed: u64,
    /// `--seconds` handed to each child.
    pub seconds: f64,
    /// Hand `--smoke` to each child.
    pub smoke: bool,
}

/// Runs one pass in a child process, echoing its output, and parses
/// its result line.
fn run_child(workload: &str, trace: bool, args: SuiteArgs) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let mut child = cmd.spawn().map_err(|e| e.to_string())?;
    let mut last = String::new();
    if let Some(stdout) = child.stdout.take() {
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            // The result line is for the parent; everything else is
            // for the reader.
            if !line.starts_with('{') {
                println!("{line}");
            }
            last = line;
        }
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    let result = ChildResult::parse(&last)
        .map_err(|e| format!("{workload} (trace {}): {e}; exit {status}", u8::from(trace)))?;
    if !status.success() {
        return Err(format!("{workload} (trace {}) exited with {status}", u8::from(trace)));
    }
    Ok(result)
}

fn print_table(title: &str, defs: &[MetricDef], results: &[(&str, ChildResult)]) {
    println!("\n{title}");
    print!("{:<40} {:>6}", "metric", "unit");
    for (name, _) in results {
        print!(" {name:>14}");
    }
    println!();
    for d in defs {
        print!("{:<40} {:>6}", d.name, d.unit);
        for (_, r) in results {
            match r.get(d.name) {
                Some(v) => print!(" {v:>14.3}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
    print!("{:<40} {:>6}", "ops_attempted / ops_failed", "count");
    for (_, r) in results {
        print!(" {:>14}", format!("{}/{}", r.attempted, r.failed));
    }
    println!();
}

/// The one command: both passes of every workload, every metric by
/// name with its unit. Returns the process exit code: nonzero if any
/// run failed a check or could not run.
pub fn run_all(args: SuiteArgs) -> i32 {
    let mut exit = 0;
    let mut end_to_end = Vec::new();
    let mut layers = Vec::new();
    for w in &WORKLOADS {
        for (trace, into) in [(false, &mut end_to_end), (true, &mut layers)] {
            println!(
                "\n=== {} ({}) ===",
                w.name,
                if trace { "layer pass" } else { "end-to-end pass" }
            );
            match run_child(w.name, trace, args) {
                Ok(r) => {
                    if !r.correct {
                        eprintln!("{}: a correctness check failed", w.name);
                        exit = 1;
                    }
                    into.push((w.name, r));
                }
                Err(e) => {
                    eprintln!("{e}");
                    exit = 1;
                }
            }
        }
    }
    print_table("End-to-end metrics (tracing off)", &END_TO_END, &end_to_end);
    print_table("Per-layer metrics (layer pass)", &PER_LAYER, &layers);
    println!("\n{}", if exit == 0 { "all histories atomic, all checks passed" } else { "FAILED" });
    exit
}

/// The bound of each end-to-end metric: from `BENCHMARK.json` in the
/// working directory (run.sh runs from the repository root), which is
/// what the driver judges by; from the registry if it is not there.
fn bounds() -> Vec<(String, f64)> {
    let listed = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|doc| doc.get("end_to_end").and_then(Json::as_arr).map(<[Json]>::to_vec));
    match listed {
        Some(items) => items
            .iter()
            .filter_map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
            .collect(),
        None => {
            END_TO_END.iter().filter_map(|d| d.bound.map(|b| (d.name.to_string(), b))).collect()
        }
    }
}

/// `sets` end-to-end sets back to back (set `i` uses seed `seed + i`),
/// then per metric × workload the median, quartiles and relative
/// spread (interquartile range ÷ median, as the driver computes it)
/// against the metric's bound. Returns the exit code: nonzero when a
/// run fails or a spread exceeds its bound. `setup_s` is reported but
/// not judged on its spread, as in the driver.
pub fn repeat(sets: usize, args: SuiteArgs) -> i32 {
    let bounds = bounds();
    let mut exit = 0;
    // values[workload][metric] = one value per set
    let mut values: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let mut failed_ops = 0;
    for set in 0..sets {
        for (wi, w) in WORKLOADS.iter().enumerate() {
            println!("\n=== set {} of {sets}: {} ===", set + 1, w.name);
            match run_child(w.name, false, SuiteArgs { seed: args.seed + set as u64, ..args }) {
                Ok(r) => {
                    if !r.correct {
                        exit = 1;
                    }
                    failed_ops += r.failed;
                    for (mi, d) in END_TO_END.iter().enumerate() {
                        if let Some(v) = r.get(d.name) {
                            values[wi][mi].push(v);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    exit = 1;
                }
            }
        }
    }

    println!("\nSpread of {sets} sets (interquartile range / median) against the bound");
    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut worst: f64 = 0.0;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, d) in END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            let bound = bounds.iter().find(|(n, _)| n == d.name).map_or(f64::NAN, |(_, b)| *b);
            let (Some(q), Some(spread)) = (quartiles(v), relative_spread(v)) else {
                println!("{:<12} {:<14} needs two sets", w.name, d.name);
                continue;
            };
            let judged = d.name != "setup_s";
            let verdict = match spread {
                _ if !judged => "not judged",
                s if s <= bound / 3.0 => "ok (under a third)",
                s if s <= bound / 2.0 => "ok (under half)",
                s if s <= bound => "ok",
                _ => "EXCEEDS BOUND",
            };
            if judged {
                worst = worst.max(spread / bound);
                if spread > bound {
                    exit = 1;
                }
            }
            println!(
                "{:<12} {:<14} {:>12.3} {:>12.3} {:>12.3} {:>7.1}% {:>5.0}%  {verdict}",
                w.name,
                d.name,
                median(v),
                q[0],
                q[2],
                spread * 100.0,
                bound * 100.0,
            );
        }
    }
    println!(
        "\nworst spread is {:.0}% of its bound; ops_failed {failed_ops}; {}",
        worst * 100.0,
        if exit == 0 { "PASS" } else { "FAIL" }
    );
    exit
}
