//! **E1 — Theorem 3(i) / Lemma 38**: TREAS total storage cost is
//! `(δ + 1) · n/k` (normalized to the value size).
//!
//! Workload: enough sequential writes to saturate every server's `List`
//! at `δ + 1` coded elements, then measure the bytes actually stored and
//! compare against the formula, across a sweep of `n`, `k` and `δ`.
//!
//! Storage counts logical payload bytes, never the shared allocations a
//! fragment view pins: every point equals `ares_core::cost`'s stored
//! bytes exactly, in total and on each server.

use ares_bench::{servers, Report};
use ares_harness::Scenario;
use ares_types::{ConfigId, Configuration, OpKind, Value};

const VALUE_SIZE: usize = 6 * 7 * 8 * 9; // divisible by every k we sweep

/// The model's stored bytes, and its stored bytes per value byte
/// without padding: a `k`-byte value codes into one-byte elements.
fn model(cfg: &Configuration) -> (u64, f64) {
    let stored =
        |len| ares_core::cost(cfg, OpKind::Write, len).expect("TREAS is priced").stored_bytes;
    let k = cfg.code_params().k;
    (stored(VALUE_SIZE), stored(k) as f64 / k as f64)
}

/// Total stored bytes, and the most any one server stores.
fn measure(cfg: Configuration, delta: usize) -> (u64, u64) {
    let mut s = Scenario::new(vec![cfg]).clients([100]).delays(10, 30).seed(42);
    // 2(δ+1) sequential writes: every List saturates at δ+1 elements.
    for i in 0..(2 * (delta + 1)) as u64 {
        s = s.write_at(i * 10_000, 100, 0, Value::filler(VALUE_SIZE, i + 1));
    }
    let res = s.run();
    assert_eq!(res.completions.len(), 2 * (delta + 1), "all writes complete");
    let max_server = res.storage_bytes.iter().map(|&(_, b)| b).max().unwrap_or(0);
    (res.total_storage_bytes(), max_server)
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E1: TREAS storage cost vs Theorem 3(i): (δ+1)·n/k\n");
    out.header(&["n", "k", "δ", "measured n·bytes/|v|", "paper (δ+1)n/k", "ratio"]);
    let mut worst: f64 = 0.0;
    for (n, ks) in [
        (5usize, vec![2usize, 3, 4]),
        (9, vec![4, 5, 7]),
        (12, vec![5, 8, 10]),
        (15, vec![6, 11, 13]),
    ] {
        for k in ks {
            if k <= n / 3 {
                continue; // liveness requires k > n/3 (Theorem 9)
            }
            for delta in [1usize, 2, 4, 8] {
                let cfg = Configuration::treas(ConfigId(0), servers(n), k, delta);
                let (stored, paper) = model(&cfg);
                let (total, max_server) = measure(cfg, delta);
                assert_eq!(total, stored, "total storage (n={n},k={k},δ={delta})");
                assert_eq!(
                    max_server,
                    stored / n as u64,
                    "storage per server (n={n},k={k},δ={delta})"
                );
                let measured = total as f64 / VALUE_SIZE as f64;
                let ratio = measured / paper;
                worst = worst.max((ratio - 1.0).abs());
                out.row(&[
                    n.to_string(),
                    k.to_string(),
                    delta.to_string(),
                    format!("{measured:.3}"),
                    format!("{paper:.3}"),
                    format!("{ratio:.3}"),
                ]);
            }
        }
    }
    out.line(format_args!("\nmax |measured/paper - 1| = {worst:.4}"));
    assert!(worst < 0.01, "storage must match the formula (exact, up to padding)");
    out.line("Theorem 3(i) reproduced: storage = (δ+1)·n/k ✓");
    out.finish()
}
