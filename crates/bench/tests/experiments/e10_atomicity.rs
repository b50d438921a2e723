//! **E10 — Theorems 6, 21 and 29 (safety)**: atomicity holds across
//! randomized executions with concurrency, reconfiguration (both
//! transfer modes) and crash faults. A checker cannot prove the
//! theorems, but a large randomized search that never finds a violation
//! is the standard experimental counterpart.

use ares_bench::Report;
use ares_harness::{check_atomicity, par_seeds, standard_universe, Scenario, WorkloadSpec};

fn run_family(
    out: &mut Report,
    name: &str,
    seeds: std::ops::Range<u64>,
    direct: bool,
    crash: bool,
) -> (usize, usize, usize) {
    let results = par_seeds(&seeds.collect::<Vec<_>>(), |seed| {
        let spec = WorkloadSpec {
            writers: vec![100, 101, 102],
            readers: vec![110, 111],
            reconfigurers: vec![200],
            recon_targets: vec![1, 2, 4],
            writes_per_writer: 5,
            reads_per_reader: 5,
            mean_gap: 300,
            value_size: 48,
            objects: vec![0, 1],
            seed,
        };
        let invs = spec.generate();
        let mut s = Scenario::new(standard_universe())
            .clients(spec.client_ids())
            .seed(seed)
            .invocations(invs);
        if direct {
            s = s.direct_transfer();
        }
        if crash {
            // Crash one server of the genesis ABD config (tolerated).
            s = s.crash_at(200 + seed % 1_000, 1 + (seed % 3) as u32);
        }
        let res = s.run();
        let report = check_atomicity(&res.completions);
        (res.completions.len(), report.violations.len(), res.scheduled_ops)
    });
    let ops: usize = results.iter().map(|(c, _, _)| c).sum();
    let viol: usize = results.iter().map(|(_, v, _)| v).sum();
    let sched: usize = results.iter().map(|(_, _, s)| s).sum();
    out.line(format_args!("  family `{name}`: {ops}/{sched} ops completed, {viol} violations"));
    (ops, viol, sched)
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E10: atomicity under randomized schedules (Theorems 6/21/29)\n");
    out.header(&["family", "seeds", "ops completed", "violations"]);
    let mut total_viol = 0;
    for (name, seeds, direct, crash) in [
        ("plain transfer, no faults", 0..40u64, false, false),
        ("direct transfer, no faults", 100..140, true, false),
        ("plain transfer + crashes", 200..240, false, true),
        ("direct transfer + crashes", 300..340, true, true),
    ] {
        let n = seeds.end - seeds.start;
        let (ops, viol, _) = run_family(&mut out, name, seeds, direct, crash);
        out.row(&[name.into(), n.to_string(), ops.to_string(), viol.to_string()]);
        total_viol += viol;
    }
    assert_eq!(total_viol, 0, "atomicity must hold in every execution");
    out.line("\n160 randomized executions, 0 atomicity violations ✓");
    out.finish()
}
