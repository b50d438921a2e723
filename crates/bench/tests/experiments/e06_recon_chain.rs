//! **E6 — Lemma 25/57**: appending `k` configurations takes total time
//! at least `4d·Σ_{i=1..k} i + k·(T(CN) + 2d)` in the paper's worst-case
//! construction, where each reconfigurer starts from the genesis
//! sequence and must traverse everything installed before it.
//!
//! Method: `k` distinct reconfigurers (each with a fresh `cseq`) install
//! configurations back-to-back under a constant-delay network (`d = D`,
//! making latencies deterministic); we measure each reconfig's latency
//! `T_i` and the consensus time `T(CN)` from the trace, then compare
//! `Σ T_i` against the bound.

use ares_bench::{action_durations, treas_chain, Report};
use ares_harness::Scenario;
use ares_types::ProcessId;

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E6: time to append k configurations vs Lemma 25/57\n");
    let d = 10u64; // constant delay: d = D
    out.header(&["k", "Σ T_i measured", "bound 4dΣi + k(T(CN)+2d)", "T(CN)", "ok"]);
    for k in [1u32, 2, 3, 4, 6, 8] {
        // Fresh reconfigurer per step, invoked with enough spacing that
        // step i starts only after step i-1 finished (the sequential
        // construction); latencies exclude the idle gaps.
        let spacing = 4_000u64 * (k as u64 + 2);
        let mut s = Scenario::new(treas_chain(k)).delays(d, d).seed(77).with_trace();
        for i in 1..=k {
            s = s.client(ProcessId(200 + i));
            s = s.recon_at((i as u64 - 1) * spacing, 200 + i, i);
        }
        let res = s.run();
        let h = res.assert_complete_and_atomic();
        assert_eq!(h.len(), k as usize);
        let total: u64 = h.iter().map(|c| c.latency()).sum();
        // T(CN): the minimum observed propose duration (one prepare +
        // one accept round under no contention = 4d).
        let t_cn = (1..=k)
            .flat_map(|i| action_durations(&res.trace, ProcessId(200 + i)))
            .filter(|(n, _)| n == "propose")
            .map(|(_, t)| t)
            .min()
            .expect("at least one propose");
        let sum_i: u64 = (1..=k as u64).sum();
        let bound = 4 * d * sum_i + k as u64 * (t_cn + 2 * d);
        let ok = total >= bound;
        out.row(&[
            k.to_string(),
            total.to_string(),
            bound.to_string(),
            t_cn.to_string(),
            if ok { "✓" } else { "✗" }.to_string(),
        ]);
        assert!(ok, "k={k}: measured {total} below the paper's lower bound {bound}");
    }
    out.line("\nLemma 25/57 reproduced: appending k configurations costs at least");
    out.line("4d·Σi + k(T(CN)+2d) — quadratic in k for chain-traversing clients ✓");
    out.finish()
}
