//! **E12 — Theorem 9 (liveness boundary)**: TREAS reads are live when at
//! most `δ` writes are concurrent with a valid read; beyond `δ`, garbage
//! collection may strip the coded elements of the newest tag faster than
//! the reader can assemble `k` of them, forcing retries.
//!
//! Method: `W` writers fire simultaneously with one reader, for `W`
//! around `δ`, across seeds. We count completed reads, and the reads that
//! sent more messages than `ares_core::cost` prices (a retry does), and
//! set their latency against the model's no-retry envelope `rounds × 2D`.

use ares_bench::{servers, Report, Stats};
use ares_harness::Scenario;
use ares_types::{ConfigId, Configuration, OpCompletion, OpKind, Time, Value};

const D: Time = 10;
const BIG_D: Time = 60;
const VALUE_SIZE: usize = 60;
const READER: u32 = 150;

/// The read of one storm, if it completed.
fn run(cfg: &Configuration, writers: u32, seed: u64) -> Option<OpCompletion> {
    let mut s = Scenario::new(vec![cfg.clone()])
        .clients((100..100 + writers).chain([READER]))
        .delays(D, BIG_D)
        .seed(seed);
    // Settle one base value first.
    s = s.write_at(0, 100, 0, Value::filler(VALUE_SIZE, 1_000_000));
    // Storm: all writers + the reader at the same instant.
    let t = 10_000;
    for w in 0..writers {
        s = s.write_at(t, 100 + w, 0, Value::filler(VALUE_SIZE, seed * 100 + u64::from(w)));
    }
    let res = s.read_at(t, READER, 0).run();
    res.completions.into_iter().find(|c| c.kind == OpKind::Read)
}

pub fn table() -> String {
    let mut out = Report::default();
    out.line("# E12: δ-liveness boundary of TREAS reads (Theorem 9)\n");
    let delta = 2usize;
    let cfg = Configuration::treas(ConfigId(0), servers(5), 3, delta);
    let model = ares_core::cost(&cfg, OpKind::Read, VALUE_SIZE).expect("TREAS is priced");
    let envelope = model.rounds * 2 * BIG_D;
    out.line(format_args!("n=5, k=3, δ={delta}; W writers concurrent with one read\n"));
    out.header(&[
        "W",
        "reads completed",
        "read latency min/mean/max",
        "reads above model messages",
        "note",
    ]);
    let seeds = 20u64;
    // Reads above δ: invoked, completed, and of those the ones that retried.
    let (mut tried_above, mut done_above, mut retried_above) = (0, 0, 0);
    for writers in [1, delta, delta + 1, 2 * delta, 4 * delta] {
        let reads: Vec<OpCompletion> =
            (0..seeds).filter_map(|seed| run(&cfg, writers as u32, seed)).collect();
        let st = Stats::of(reads.iter().map(|c| c.latency() as f64));
        let retried = reads.iter().filter(|c| c.messages > model.messages).count();
        let note = if writers <= delta {
            "≤ δ: Theorem 9 guarantees liveness"
        } else {
            tried_above += seeds;
            done_above += reads.len();
            retried_above += retried;
            "> δ: retries possible (GC may outrun the reader)"
        };
        out.row(&[
            writers.to_string(),
            format!("{}/{seeds}", reads.len()),
            format!("{:.0}/{:.0}/{:.0}", st.min, st.mean, st.max),
            format!("{retried}/{}", reads.len()),
            note.to_string(),
        ]);
        if writers <= delta {
            assert_eq!(reads.len() as u64, seeds, "W ≤ δ must always be live");
            for c in &reads {
                assert_eq!(c.messages, model.messages, "W ≤ δ reads send no retry");
            }
            assert!(st.max <= envelope as f64, "W ≤ δ reads finish within rounds·2D");
        }
    }
    out.line("\nTheorem 9 reproduced: with W ≤ δ every read completes, sends exactly the");
    out.line(format_args!(
        "model's {} messages and returns within {} rounds × 2D = {envelope} ✓",
        model.messages, model.rounds
    ));
    out.line(format_args!(
        "Above δ, {done_above}/{tried_above} reads complete and {retried_above} of them retried"
    ));
    if retried_above == 0 {
        out.line("(this workload does not exhibit the boundary).");
    }
    out.finish()
}
