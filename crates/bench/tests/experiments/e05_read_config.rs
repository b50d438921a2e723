//! **E5 — Lemma 24/56**: `read-config` latency scales with the number of
//! configurations traversed: `T(read-config) ≤ 4D(ν − µ + 1)`, and in
//! the paper's accounting at least `4d(ν − µ + 1)` when every traversed
//! link pays a `read-next-config` plus a `put-config`.
//!
//! Method: pre-install chains of `λ` configurations (completed
//! reconfigurations), then time the *first* `read-config` of a fresh
//! client (whose `cseq` still holds only the genesis entry) from the
//! trace, for `λ = 0..6`.
//!
//! Note: the final loop iteration (the one that sees `⊥`) performs only
//! a `read-next-config` (2 messages, no `put-config`), so the true
//! minimum is `4dλ + 2d` rather than `4d(λ+1)` — the paper's lower
//! bound charges 4 delays to every iteration. We report both.

use ares_bench::{action_durations, treas_chain, Report};
use ares_harness::Scenario;
use ares_types::ProcessId;

fn measure(lambda: u32, d: u64, big_d: u64, seed: u64) -> u64 {
    // Reconfigurer 200 installs λ configs; at a quiet point, fresh
    // client 100 (genesis cseq) performs a read whose first frame is the
    // read-config we time.
    let mut s = Scenario::new(treas_chain(lambda.max(1)))
        .clients([100, 200])
        .delays(d, big_d)
        .seed(seed)
        .with_trace();
    for i in 1..=lambda {
        s = s.recon_at(i as u64 * 20_000, 200, i);
    }
    let t_read = (lambda as u64 + 1) * 20_000 + 50_000;
    s = s.read_at(t_read, 100, 0);
    let res = s.run();
    // First completed read-config action of client 100 after t_read.
    let durations = action_durations(&res.trace, ProcessId(100));
    durations
        .iter()
        .find(|(n, _)| n == "read-config")
        .map(|(_, t)| *t)
        .expect("client performed a read-config")
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E5: read-config latency vs Lemma 24/56\n");
    let (d, big_d) = (10u64, 50u64);
    out.header(&[
        "λ = ν−µ",
        "measured T",
        "4dλ+2d (tight min)",
        "4d(λ+1) (paper min)",
        "4D(λ+1) (paper max)",
    ]);
    for lambda in 0..=6u32 {
        // Average over a few seeds for a stable picture.
        let samples: Vec<u64> = (0..5).map(|s| measure(lambda, d, big_d, 1000 + s)).collect();
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let tight_min = 4 * d * lambda as u64 + 2 * d;
        let paper_min = 4 * d * (lambda as u64 + 1);
        let paper_max = 4 * big_d * (lambda as u64 + 1);
        out.row(&[
            lambda.to_string(),
            format!("{min}..{max}"),
            tight_min.to_string(),
            paper_min.to_string(),
            paper_max.to_string(),
        ]);
        assert!(min >= tight_min, "λ={lambda}: {min} < tight min {tight_min}");
        assert!(max <= paper_max, "λ={lambda}: {max} > paper max {paper_max}");
    }
    out.line("\nLemma 24/56 reproduced: latency grows linearly in the traversed");
    out.line("suffix, within [4dλ+2d, 4D(λ+1)] ✓");
    out.finish()
}
