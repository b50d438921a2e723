//! Command line of the benchmark.
//!
//! ```text
//! ares-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//!     one pass of one workload; the last line of standard output is
//!     the JSON result object
//! ares-benchmark [--seed N] [--seconds S] [--smoke]
//!     both passes of all five workloads, each in a fresh process
//! ares-benchmark repeat N [--seed N] [--seconds S]
//!     N end-to-end sets and their spread against the bounds
//! ```

use ares_benchmark::json::Json;
use ares_benchmark::metrics::{END_TO_END, PER_LAYER};
use ares_benchmark::run::{self, RunArgs};
use ares_benchmark::spec::Spec;
use ares_benchmark::suite::{self, SuiteArgs};
use std::process::ExitCode;

/// Length of the end-to-end window unless `--seconds` says otherwise.
const DEFAULT_SECONDS: f64 = 20.0;
/// Window length under `--smoke`.
const SMOKE_SECONDS: f64 = 2.0;

struct Cli {
    workload: Option<String>,
    repeat: Option<usize>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
}

fn parse_cli(mut argv: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli =
        Cli { workload: None, repeat: None, seed: 1, seconds: None, trace: false, smoke: false };
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => cli.trace = value("0 or 1")? == "1",
            "--smoke" => cli.smoke = true,
            "repeat" => {
                cli.repeat =
                    Some(value("a number of sets")?.parse().map_err(|e| format!("repeat: {e}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("ares-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let seconds = cli.seconds.unwrap_or(if cli.smoke { SMOKE_SECONDS } else { DEFAULT_SECONDS });
    let suite_args = SuiteArgs { seed: cli.seed, seconds, smoke: cli.smoke };
    if let Some(sets) = cli.repeat {
        return ExitCode::from(suite::repeat(sets, suite_args) as u8);
    }
    let Some(name) = cli.workload else {
        return ExitCode::from(suite::run_all(suite_args) as u8);
    };
    let Some(spec) = Spec::by_name(&name) else {
        eprintln!("ares-benchmark: no workload {name:?}");
        return ExitCode::from(2);
    };

    let args = RunArgs { spec, seed: cli.seed, seconds, trace: cli.trace, smoke: cli.smoke };
    let output = match run::run(&args) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("ares-benchmark: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let defs: &[_] = if cli.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = match output.report.to_json(defs) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("ares-benchmark: {}: {e}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(output.correct)),
        ("attempted".into(), Json::Num(output.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(output.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!("{line}");
    if output.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
