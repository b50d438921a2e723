//! Test support for the experiments that reproduce the paper's tables
//! and figures (`tests/experiments/`; `DESIGN.md` §3 has the index and
//! `EXPERIMENTS.md` the recorded results): the server and chain
//! fixtures, the table an experiment renders, and the golden-file check
//! every pinned transcript of the workspace goes through. Every
//! experiment runs ARES sessions through `ares_harness::Scenario`.

use ares_types::{ConfigId, Configuration, ProcessId, Time};
use std::fmt::{Display, Write as _};
use std::path::Path;

/// Servers `1..=n`.
pub fn servers(n: usize) -> Vec<ProcessId> {
    (1..=n as u32).map(ProcessId).collect()
}

/// Configurations `c_0..=c_len`, each TREAS `[5, 3]` with δ = 2 and
/// `c_i` on servers `i+1..=i+5`: the chain the reconfiguration
/// experiments install.
pub fn treas_chain(len: u32) -> Vec<Configuration> {
    (0..=len)
        .map(|i| Configuration::treas(ConfigId(i), (i + 1..=i + 5).map(ProcessId).collect(), 3, 2))
        .collect()
}

/// Simple aggregate statistics of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

impl Stats {
    /// Computes stats over a sample; all-zero for empty input.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Stats {
        let mut n = 0usize;
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for s in samples {
            n += 1;
            min = min.min(s);
            max = max.max(s);
            sum += s;
        }
        if n == 0 {
            return Stats { n, min: 0.0, mean: 0.0, max: 0.0 };
        }
        Stats { n, min, mean: sum / n as f64, max }
    }
}

/// The text an experiment renders: markdown tables and verdict lines.
#[derive(Debug, Default)]
pub struct Report(String);

impl Report {
    /// Appends one line.
    pub fn line(&mut self, text: impl Display) {
        let _ = writeln!(self.0, "{text}");
    }

    /// Appends a markdown-style header plus separator.
    pub fn header(&mut self, cells: &[&str]) {
        self.line(format_args!("| {} |", cells.join(" | ")));
        self.line(format_args!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")));
    }

    /// Appends a markdown-style table row.
    pub fn row(&mut self, cells: &[String]) {
        self.line(format_args!("| {} |", cells.join(" | ")));
    }

    /// The rendered text.
    pub fn finish(self) -> String {
        self.0
    }
}

/// Asserts that `got` equals the committed golden file at `path`,
/// naming the first line that differs, then the line count.
pub fn assert_golden(path: &Path, got: &str) {
    let want = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("golden {} is committed: {e}", path.display()));
    assert!(want.lines().count() <= 3_000, "the golden stays reviewable");
    let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    if let Some(i) = first_diff {
        panic!(
            "{} line {}: got\n  {}\nwant\n  {}",
            path.display(),
            i + 1,
            got.lines().nth(i).unwrap_or_default(),
            want.lines().nth(i).unwrap_or_default()
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "{} length", path.display());
}

/// Re-records the golden file at `path`: only on purpose, for a change
/// that moves what the golden pins.
pub fn record_golden(path: &Path, got: &str) {
    std::fs::write(path, got).expect("write golden");
}

/// Extracts per-action durations from a traced ARES run: returns
/// `(action_name, duration)` for every balanced `+name` / `-name` note
/// pair of one client.
pub fn action_durations(trace: &[ares_sim::TraceEvent], client: ProcessId) -> Vec<(String, Time)> {
    let mut stack: Vec<(String, Time)> = Vec::new();
    let mut out = Vec::new();
    for ev in trace {
        let ares_sim::TraceKind::Note { pid, text } = &ev.kind else { continue };
        if *pid != client {
            continue;
        }
        if let Some(name) = text.strip_prefix('+') {
            stack.push((name.to_string(), ev.at));
        } else if let Some(name) = text.strip_prefix('-') {
            if let Some((n, t0)) = stack.pop() {
                assert_eq!(n, name, "`+name`/`-name` notes must nest");
                out.push((n, ev.at - t0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = Stats::of([1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(Stats::of([]).n, 0);
    }
}
