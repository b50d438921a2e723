//! **E4 — Lemma 23/55 and Lemma 26/58**: elementary action latencies.
//! Every two-message quorum action — `put-config`, `read-next-config`,
//! and the DAPs `get-tag` / `get-data` / `put-data` (ABD and TREAS are
//! single-round-trip per primitive) — takes between `2d` and `2D`.
//!
//! Method: run traced ARES executions (reads + writes, no
//! reconfiguration) and time every action frame of the client from the
//! trace, across several `(d, D)` settings.

use ares_bench::{action_durations, servers, Report, Stats};
use ares_harness::Scenario;
use ares_types::{ConfigId, Configuration, ProcessId, Value};
use std::collections::BTreeMap;

fn run(d: u64, big_d: u64, dap: &str) -> BTreeMap<String, Vec<f64>> {
    let cfg = match dap {
        "abd" => Configuration::abd(ConfigId(0), servers(5)),
        _ => Configuration::treas(ConfigId(0), servers(5), 3, 2),
    };
    let mut s =
        Scenario::new(vec![cfg]).clients([100]).delays(d, big_d).seed(d * 31 + big_d).with_trace();
    for i in 0..40u64 {
        if i % 2 == 0 {
            s = s.write_at(i * 10_000, 100, 0, Value::filler(60, i + 1));
        } else {
            s = s.read_at(i * 10_000, 100, 0);
        }
    }
    let res = s.run();
    res.assert_complete_and_atomic();
    let mut by_action: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (name, dur) in action_durations(&res.trace, ProcessId(100)) {
        by_action.entry(name).or_default().push(dur as f64);
    }
    by_action
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E4: action latencies vs Lemmas 23/55 & 26/58 (2d ≤ T ≤ 2D)\n");
    out.header(&["d", "D", "dap", "action", "n", "min", "mean", "max", "2d", "2D", "in bounds"]);
    let mut all_ok = true;
    for (d, big_d) in [(10u64, 10u64), (10, 50), (5, 100), (50, 200)] {
        for dap in ["abd", "treas"] {
            let by_action = run(d, big_d, dap);
            for (name, durs) in &by_action {
                // `dap`, `put-config` and `read-next-config` are the
                // elementary two-message actions the lemmas bound.
                // (read-config / write / read are composites.)
                let bounded = matches!(name.as_str(), "dap" | "put-config" | "read-next-config");
                if !bounded {
                    continue;
                }
                let st = Stats::of(durs.iter().copied());
                let ok = st.min >= 2.0 * d as f64 && st.max <= 2.0 * big_d as f64;
                all_ok &= ok;
                out.row(&[
                    d.to_string(),
                    big_d.to_string(),
                    dap.to_string(),
                    name.clone(),
                    st.n.to_string(),
                    format!("{:.0}", st.min),
                    format!("{:.1}", st.mean),
                    format!("{:.0}", st.max),
                    (2 * d).to_string(),
                    (2 * big_d).to_string(),
                    if ok { "✓" } else { "✗" }.to_string(),
                ]);
            }
        }
    }
    assert!(all_ok, "every elementary action stayed within [2d, 2D]");
    out.line("\nLemmas 23/55 & 26/58 reproduced: 2d ≤ T(action) ≤ 2D ✓");
    out.finish()
}
