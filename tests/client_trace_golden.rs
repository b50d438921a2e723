//! The client's exact behaviour, pinned: every message, delivery and
//! `+name`/`-name` action note of a few seeded runs, plus every
//! completion, compared line by line with `tests/golden/client_trace.txt`.
//!
//! A refactor of the client's protocol engine must leave this file
//! untouched: the order of sends, the rpc each phase runs under, when a
//! phase retransmits and where each action begins and ends are all in
//! it. A change that moves a protocol cost re-records it on purpose:
//!
//! ```text
//! cargo test --test client_trace_golden -- --ignored record
//! ```

use ares_harness::{Scenario, ScenarioResult};
use ares_sim::{FaultAction, FaultSchedule, TraceKind};
use ares_types::{ConfigId, Configuration, ProcessId, Value};
use std::fmt::Write as _;

const GOLDEN: &str = "tests/golden/client_trace.txt";

/// `c0` ABD on servers 1–3, `c1` TREAS `[5, 3]` on 1–5, `c2` TREAS `[5, 3]`
/// on 2–6. (A direct transfer needs a coded destination.)
fn universe() -> Vec<Configuration> {
    let ids = |r: std::ops::RangeInclusive<u32>| r.map(ProcessId).collect::<Vec<_>>();
    vec![
        Configuration::abd(ConfigId(0), ids(1..=3)),
        Configuration::treas(ConfigId(1), ids(1..=5), 3, 2),
        Configuration::treas(ConfigId(2), ids(2..=6), 3, 2),
    ]
}

/// A writer (100), a reader (101) and a reconfigurer (200): ABD
/// operations, a recon to TREAS racing a write, TREAS operations, a
/// second recon, and a read that walks the whole chain.
fn sessions() -> Scenario {
    Scenario::new(universe())
        .clients([100, 101, 200])
        .with_trace()
        .write_at(0, 100, 0, Value::filler(48, 1))
        .read_at(400, 101, 0)
        .recon_at(900, 200, 1)
        .write_at(950, 100, 0, Value::filler(48, 2))
        .write_at(3_000, 100, 0, Value::filler(48, 3))
        .recon_at(3_600, 200, 2)
        .read_at(6_000, 101, 0)
}

/// Renders one run: a header, then every trace event and every
/// completion, one per line.
fn render(name: &str, res: &ScenarioResult, out: &mut String) {
    res.assert_complete_and_atomic();
    let _ = writeln!(out, "== {name}");
    for ev in &res.trace {
        let at = ev.at;
        let _ = match &ev.kind {
            TraceKind::Send { from, to, label, bytes } => {
                writeln!(out, "{at} send {from}->{to} {label} {bytes}")
            }
            TraceKind::Deliver { from, to, label, bytes } => {
                writeln!(out, "{at} deliver {from}->{to} {label} {bytes}")
            }
            TraceKind::Crash { pid } => writeln!(out, "{at} crash {pid}"),
            TraceKind::Note { pid, text } => writeln!(out, "{at} note {pid} {text}"),
        };
    }
    for c in &res.completions {
        let _ = writeln!(
            out,
            "done {} {:?} {} [{}, {}] tag={:?} digest={:?} installed={:?} msgs={} bytes={}",
            c.op,
            c.kind,
            c.obj,
            c.invoked_at,
            c.completed_at,
            c.tag,
            c.value_digest,
            c.installed,
            c.messages,
            c.payload_bytes
        );
    }
}

/// The pinned runs.
fn transcript() -> String {
    let mut out = String::new();
    render("plain", &sessions().seed(1).run(), &mut out);
    render("direct", &sessions().direct_transfer().seed(2).run(), &mut out);
    // The writer cannot reach servers 1 and 2 for a while, and server 4
    // is gray: phases resend to their silent servers, and the recon's
    // consensus and transfer wait for the slow one.
    let faults = FaultSchedule::new()
        .at(0, FaultAction::CutLink { from: ProcessId(100), to: ProcessId(1) })
        .at(0, FaultAction::CutLink { from: ProcessId(100), to: ProcessId(2) })
        .at(700, FaultAction::HealAll)
        .at(900, FaultAction::Grayify { pid: ProcessId(4), factor: 20 })
        .at(5_000, FaultAction::Ungray { pid: ProcessId(4) });
    render("faults", &sessions().fault_schedule(faults).seed(3).run(), &mut out);
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

#[test]
fn client_trace_matches_golden() {
    let got = transcript();
    let want = std::fs::read_to_string(golden_path()).expect("golden transcript is committed");
    assert!(want.lines().count() <= 3_000, "the golden stays reviewable");
    let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    if let Some(i) = first_diff {
        panic!(
            "line {}: got\n  {}\nwant\n  {}",
            i + 1,
            got.lines().nth(i).unwrap_or_default(),
            want.lines().nth(i).unwrap_or_default()
        );
    }
    assert_eq!(got.lines().count(), want.lines().count(), "transcript length");
}

/// Re-records the golden transcript (run on purpose, see the module doc).
#[test]
#[ignore = "rewrites tests/golden/client_trace.txt"]
fn record() {
    std::fs::create_dir_all(golden_path().parent().expect("golden dir")).expect("mkdir");
    std::fs::write(golden_path(), transcript()).expect("write golden");
}
