//! **E9 — Figure 1**: a walk-through of one reconfiguration,
//! `recon(c5)`, invoked by a reconfigurer whose local sequence still
//! holds only the genesis configuration while `c1..c4` are already
//! installed. The printed trace mirrors the figure's arrows: a chain of
//! `read-next-config` hops, the consensus proposal on the last
//! configuration (`c4.Con.propose(c5)`), the `update-config` transfer
//! and the final `finalize-config`.

use ares_bench::{treas_chain, Report};
use ares_harness::Scenario;
use ares_sim::TraceKind;
use ares_types::{ConfigId, ProcessId, Value};

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E9: Figure 1 — execution of recon(c5) after c1..c4 are installed\n");
    let mut s = Scenario::new(treas_chain(5)).clients([100, 200, 201]).seed(5).with_trace();
    // Install c1..c4 via reconfigurer 200 and write a value.
    s = s.write_at(0, 100, 0, Value::filler(64, 1));
    for i in 1..=4u32 {
        s = s.recon_at(i as u64 * 8_000, 200, i);
    }
    // Fresh reconfigurer 201 (genesis cseq) performs recon(c5).
    let t5 = 60_000u64;
    s = s.recon_at(t5, 201, 5);
    let res = s.run();
    res.assert_complete_and_atomic();

    // Print reconfigurer 201's view: its frame transitions and the first
    // message of each broadcast (the figure's arrows).
    let rc = ProcessId(201);
    let mut arrow = 0;
    let mut last_label = String::new();
    for ev in &res.trace {
        if ev.at < t5 {
            continue;
        }
        match &ev.kind {
            TraceKind::Note { pid, text } if *pid == rc => {
                // Frame transitions are marked +name / -name; other notes
                // (e.g. completion summaries) print verbatim.
                if let Some(name) = text.strip_prefix('+') {
                    out.line(format_args!("[t={:>6}] ▶ {name}", ev.at));
                } else if let Some(name) = text.strip_prefix('-') {
                    out.line(format_args!("[t={:>6}] ◀ {name}", ev.at));
                } else {
                    out.line(format_args!("[t={:>6}]   {text}", ev.at));
                }
            }
            TraceKind::Send { from, to, label, .. }
                if *from == rc
                // Collapse each broadcast into one arrow like the figure.
                && *label != last_label =>
            {
                arrow += 1;
                out.line(format_args!(
                    "[t={:>6}]   arrow {arrow:>2}: {from} → {to},…  {label}",
                    ev.at
                ));
                last_label = label.clone();
            }
            _ => {}
        }
    }
    let rec = res.completions.iter().find(|c| c.op.client == rc).expect("recon(c5) completed");
    out.line(format_args!(
        "\nrecon(c5) completed at t={} having installed {}",
        rec.completed_at,
        rec.installed.unwrap()
    ));
    assert_eq!(rec.installed, Some(ConfigId(5)));
    out.line("matches Figure 1: traversal hops through c0..c4, propose on c4,");
    out.line("update-config transfer, finalize-config write-back ✓");
    out.finish()
}
