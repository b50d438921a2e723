//! **E3 — the introduction's running example**: storing a 1 MB object on
//! 3 servers costs 3x under ABD replication but only 1.5x under a
//! TREAS `[3, 2]` code, with matching bandwidth savings per operation.
//! (The paper scales this to 1,000,000 objects / 3 TB vs 1.5 TB; cost is
//! linear in the object count, so we run one object and scale.)

use ares_bench::{servers, Report};
use ares_harness::Scenario;
use ares_types::{ConfigId, Configuration, OpKind, Value};

const MB: usize = 1 << 20;

#[derive(Debug, PartialEq)]
struct Outcome {
    storage: u64,
    write_bytes: u64,
    read_bytes: u64,
}

/// What `ares_core::cost` predicts for `cfg` after one write.
fn model(cfg: &Configuration) -> Outcome {
    let cost = |kind| ares_core::cost(cfg, kind, MB).expect("ABD and TREAS are priced");
    let (write, read) = (cost(OpKind::Write), cost(OpKind::Read));
    Outcome {
        storage: write.stored_bytes,
        write_bytes: write.wire_bytes,
        read_bytes: read.wire_bytes,
    }
}

fn run(cfg: Configuration) -> Outcome {
    let res = Scenario::new(vec![cfg])
        .clients([100, 150])
        .delays(10, 30)
        .seed(3)
        .write_at(0, 100, 0, Value::filler(MB, 1))
        .read_at(200_000, 150, 0)
        .run();
    let h = res.assert_complete_and_atomic();
    let wr = h.iter().find(|c| c.kind == OpKind::Write).unwrap();
    let rd = h.iter().find(|c| c.kind == OpKind::Read).unwrap();
    Outcome {
        storage: res.total_storage_bytes(),
        write_bytes: wr.payload_bytes,
        read_bytes: rd.payload_bytes,
    }
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E3: ABD (3 replicas) vs TREAS [3,2] — 1 MB object on 3 servers\n");
    let abd_cfg = Configuration::abd(ConfigId(0), servers(3));
    let abd = run(abd_cfg.clone());
    let treas = run(Configuration::treas(ConfigId(0), servers(3), 2, 1));
    assert_eq!(abd, model(&abd_cfg), "ABD");
    // One write into fresh lists leaves each server one coded element
    // beside the empty `t_0` one: in bytes, the steady state of δ = 0.
    assert_eq!(treas, model(&Configuration::treas(ConfigId(0), servers(3), 2, 0)), "TREAS [3,2]");

    let mb = MB as f64;
    out.header(&["metric", "ABD", "TREAS [3,2]", "paper claim"]);
    out.row(&[
        "storage (x object)".into(),
        format!("{:.2}", abd.storage as f64 / mb),
        format!("{:.2}", treas.storage as f64 / mb),
        "3.0 vs 1.5 (2x lower)".into(),
    ]);
    out.row(&[
        "write bytes (x object)".into(),
        format!("{:.2}", abd.write_bytes as f64 / mb),
        format!("{:.2}", treas.write_bytes as f64 / mb),
        "3 MB vs 1.5 MB per write".into(),
    ]);
    out.row(&[
        "read bytes (x object)".into(),
        format!("{:.2}", abd.read_bytes as f64 / mb),
        format!("{:.2}", treas.read_bytes as f64 / mb),
        "read ≤ (δ+2)n/k".into(),
    ]);
    out.line("");
    out.line(format_args!(
        "scaled to the paper's 1,000,000 x 1 MB fleet: ABD {:.1} TB vs TREAS {:.1} TB",
        abd.storage as f64 * 1e6 / 1e12,
        treas.storage as f64 * 1e6 / 1e12
    ));
    assert_eq!(treas.storage * 2, abd.storage, "storage halves");
    assert_eq!(treas.write_bytes * 2, abd.write_bytes, "write bandwidth halves");
    out.line("\nintroduction example reproduced: 2x storage & write-bandwidth reduction ✓");
    out.finish()
}
