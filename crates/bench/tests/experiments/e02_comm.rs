//! **E2 — Theorem 3(ii),(iii) / Lemmas 39–40**: TREAS communication
//! costs — a write transmits at most `n/k`, a read at most
//! `(δ + 2) · n/k` (normalized to the value size).
//!
//! Workload: saturate the lists with `δ + 1` preliminary writes, then
//! measure the payload bytes attributed to a fresh write and to a read.
//! Both equal `ares_core::cost`'s wire bytes exactly: the bounds are
//! met with equality once every list holds `δ + 1` elements.

use ares_bench::{servers, Report};
use ares_harness::Scenario;
use ares_types::{ConfigId, Configuration, OpKind, Value};

const VALUE_SIZE: usize = 9240; // lcm(3,4,5,7,8,11): divisible by every swept k

/// Payload bytes of the measured write and read.
fn measure(cfg: Configuration, delta: usize) -> (u64, u64) {
    let mut s = Scenario::new(vec![cfg]).clients([100, 150]).delays(10, 30).seed(7);
    // Saturate lists so the read sees worst-case list sizes.
    for i in 0..(delta + 1) as u64 {
        s = s.write_at(i * 10_000, 100, 0, Value::filler(VALUE_SIZE, i + 1));
    }
    let t0 = (delta as u64 + 1) * 10_000;
    let res = s
        .write_at(t0, 100, 0, Value::filler(VALUE_SIZE, 999)) // the measured write
        .read_at(t0 + 10_000, 150, 0) // the measured read
        .run();
    let h = res.assert_complete_and_atomic();
    let wr = h
        .iter()
        .filter(|c| c.kind == OpKind::Write)
        .max_by_key(|c| c.invoked_at)
        .expect("measured write");
    let rd = h.iter().find(|c| c.kind == OpKind::Read).expect("measured read");
    (wr.payload_bytes, rd.payload_bytes)
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E2: TREAS communication cost vs Theorem 3(ii)/(iii)\n");
    out.header(&[
        "n",
        "k",
        "δ",
        "write meas",
        "write bound n/k",
        "read meas",
        "read bound (δ+2)n/k",
    ]);
    let per_value_byte = |bytes: u64| bytes as f64 / VALUE_SIZE as f64;
    for (n, k) in [(5usize, 3usize), (5, 4), (9, 5), (9, 7), (12, 8), (15, 11)] {
        for delta in [1usize, 2, 4] {
            let cfg = Configuration::treas(ConfigId(0), servers(n), k, delta);
            let wire =
                |kind| ares_core::cost(&cfg, kind, VALUE_SIZE).expect("TREAS is priced").wire_bytes;
            let (wb, rb) = (wire(OpKind::Write), wire(OpKind::Read));
            let (w, r) = measure(cfg, delta);
            out.row(&[
                n.to_string(),
                k.to_string(),
                delta.to_string(),
                format!("{:.3}", per_value_byte(w)),
                format!("{:.3}", per_value_byte(wb)),
                format!("{:.3}", per_value_byte(r)),
                format!("{:.3}", per_value_byte(rb)),
            ]);
            assert_eq!(w, wb, "write communication (n={n},k={k},δ={delta})");
            assert_eq!(r, rb, "read communication (n={n},k={k},δ={delta})");
        }
    }
    out.line("\nTheorem 3(ii)/(iii) reproduced: write ≤ n/k, read ≤ (δ+2)·n/k ✓");
    out.finish()
}
