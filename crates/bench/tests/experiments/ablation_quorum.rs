//! **Ablation — why `⌈(n+k)/2⌉` and not plain majorities?** TREAS's
//! safety needs any two quorums to intersect in at least `k` servers
//! (so a written tag's value stays decodable for every later read);
//! its fault tolerance is `f ≤ (n−k)/2`. Plain majorities intersect in
//! as little as 1 server — enough for replication (ABD, k=1) but not
//! for coding. This table quantifies the trade for the sweep of codes
//! the other experiments use, and a simulation demonstrates that the
//! threshold works at its exact fault bound.

use ares_bench::{servers, Report};
use ares_harness::Scenario;
use ares_sim::{FaultAction, FaultSchedule};
use ares_types::{ConfigId, Configuration, ProcessId, QuorumSpec, Value};

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# Ablation: TREAS threshold quorums vs plain majorities\n");
    out.header(&[
        "n",
        "k",
        "treas quorum",
        "treas ∩",
        "treas f",
        "majority ∩",
        "majority safe?",
        "majority f",
    ]);
    for (n, k) in
        [(3usize, 2usize), (5, 2), (5, 3), (5, 4), (9, 4), (9, 5), (9, 7), (12, 5), (15, 8)]
    {
        let treas = QuorumSpec::treas(n, k);
        let maj = QuorumSpec::Majority;
        let maj_safe = maj.min_intersection(n) >= k;
        out.row(&[
            n.to_string(),
            k.to_string(),
            treas.quorum_size(n).to_string(),
            treas.min_intersection(n).to_string(),
            treas.fault_tolerance(n).to_string(),
            maj.min_intersection(n).to_string(),
            if maj_safe { "yes" } else { "NO — undecodable reads" }.to_string(),
            maj.fault_tolerance(n).to_string(),
        ]);
        assert!(treas.min_intersection(n) >= k, "TREAS intersection invariant");
    }

    out.line("\n## Liveness at the exact fault bound f = (n−k)/2\n");
    out.header(&["n", "k", "crashes", "ops completed"]);
    for (n, k) in [(5usize, 3usize), (9, 5), (9, 7)] {
        let f = (n - k) / 2;
        let cfg = Configuration::treas(ConfigId(0), servers(n), k, 2);
        let crash =
            |s: FaultSchedule, i| s.at(0, FaultAction::Crash { pid: ProcessId((n - i) as u32) });
        let res = Scenario::new(vec![cfg])
            .clients([100, 150])
            .delays(10, 40)
            .seed(9)
            .fault_schedule((0..f).fold(FaultSchedule::new(), crash))
            .write_at(1, 100, 0, Value::filler(90, 1))
            .read_at(5_000, 150, 0)
            .run();
        let ok = res.completions.len();
        out.row(&[n.to_string(), k.to_string(), f.to_string(), format!("{ok}/2")]);
        assert_eq!(ok, 2, "operations complete with exactly f crashes");
    }
    out.line("\nAblation conclusion: the ⌈(n+k)/2⌉ threshold buys decodability");
    out.line("(intersection ≥ k) at the price of fault tolerance (n−k)/2 < ⌊(n−1)/2⌋;");
    out.line("majorities would keep more faults but break erasure-coded safety ✓");
    out.finish()
}
