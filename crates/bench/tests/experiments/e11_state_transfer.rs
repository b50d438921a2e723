//! **E11 — Section 5's motivation**: during a reconfiguration, plain
//! ARES funnels the object value *through the reconfiguration client*
//! (`get-data` then `put-data`), while ARES-TREAS moves coded elements
//! directly between the server sets. We measure, per object size, the
//! bytes that cross the reconfigurer's own links in both modes.

use ares_bench::{servers, Report};
use ares_harness::Scenario;
use ares_sim::TraceKind;
use ares_types::{ConfigId, Configuration, OpKind, ProcessId, Value};

fn universe() -> Vec<Configuration> {
    vec![
        Configuration::treas(ConfigId(0), servers(5), 3, 2),
        Configuration::treas(ConfigId(1), (6..=10).map(ProcessId).collect(), 4, 2),
    ]
}

struct Measured {
    client_bytes: u64,
    total_recon_bytes: u64,
    recon_latency: u64,
}

fn run(size: usize, direct: bool) -> Measured {
    let rc = ProcessId(200);
    let mut s = Scenario::new(universe()).clients([100, 110]).seed(size as u64).with_trace();
    if direct {
        s = s.direct_transfer();
    }
    s = s.client(rc);
    s = s
        .write_at(0, 100, 0, Value::filler(size, 1))
        .recon_at(size as u64 % 997 + 5_000, 200, 1)
        .read_at(500_000, 110, 0);
    let res = s.run();
    let h = res.assert_complete_and_atomic();
    let read = h.iter().find(|c| c.kind == OpKind::Read).unwrap();
    let write = h.iter().find(|c| c.kind == OpKind::Write).unwrap();
    assert_eq!(read.value_digest, write.value_digest, "migration preserves the value");
    let rec = h.iter().find(|c| c.kind == OpKind::Recon).unwrap();
    // Bytes touching the reconfigurer's own links (sent by it or
    // delivered to it).
    let client_bytes: u64 = res
        .trace
        .iter()
        .map(|ev| match &ev.kind {
            TraceKind::Send { from, bytes, .. } if *from == rc => *bytes,
            TraceKind::Deliver { to, bytes, .. } if *to == rc => *bytes,
            _ => 0,
        })
        .sum();
    Measured { client_bytes, total_recon_bytes: rec.payload_bytes, recon_latency: rec.latency() }
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E11: state transfer through the reconfigurer — plain vs ARES-TREAS\n");
    out.header(&[
        "object bytes",
        "plain: client-link bytes",
        "direct: client-link bytes",
        "plain: total recon bytes",
        "direct: total recon bytes",
        "plain T",
        "direct T",
    ]);
    for pow in [10u32, 12, 14, 16, 18, 20] {
        let size = 1usize << pow;
        let plain = run(size, false);
        let direct = run(size, true);
        out.row(&[
            format!("2^{pow}"),
            plain.client_bytes.to_string(),
            direct.client_bytes.to_string(),
            plain.total_recon_bytes.to_string(),
            direct.total_recon_bytes.to_string(),
            plain.recon_latency.to_string(),
            direct.recon_latency.to_string(),
        ]);
        assert_eq!(
            direct.client_bytes, 0,
            "ARES-TREAS: no object bytes pass through the reconfigurer"
        );
        assert!(
            plain.client_bytes as f64 >= size as f64,
            "plain ARES relays at least one object's worth through the client"
        );
    }
    out.line("\nSection 5 reproduced: the direct protocol removes the reconfiguration");
    out.line("client as a data conduit (0 payload bytes on its links, at any size) ✓");
    out.finish()
}
