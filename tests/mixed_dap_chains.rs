//! Remark 22: "ARES satisfies atomicity even when the DAP primitives
//! used in two different configurations are not the same". These tests
//! put each DAP implementation (ABD, TREAS, LDR) at every position of a
//! configuration chain — genesis, middle, tail — with live traffic.

use ares_harness::{check_atomicity, Scenario};
use ares_sim::RunOutcome;
use ares_types::{ConfigId, Configuration, OpKind, ProcessId, Value};

fn ids(r: std::ops::RangeInclusive<u32>) -> Vec<ProcessId> {
    r.map(ProcessId).collect()
}

fn run_chain(configs: Vec<Configuration>, seed: u64) -> Vec<ares_types::OpCompletion> {
    let n_targets = configs.len() as u32 - 1;
    let mut s = Scenario::new(configs).clients([100, 110, 200]).seed(seed);
    s = s.write_at(0, 100, 0, Value::filler(72, 1));
    for i in 1..=n_targets {
        let t = i as u64 * 4_000;
        s = s.recon_at(t, 200, i);
        s = s.write_at(t + 1_000, 100, 0, Value::filler(72, 10 + i as u64));
        s = s.read_at(t + 2_000, 110, 0);
    }
    s = s.read_at((n_targets as u64 + 1) * 4_000 + 5_000, 110, 0);
    let res = s.run();
    let h = res.assert_complete_and_atomic().to_vec();
    // The final read sees the newest write.
    let final_read =
        h.iter().filter(|c| c.kind == OpKind::Read).max_by_key(|c| c.invoked_at).unwrap();
    let max_write = h.iter().filter(|c| c.kind == OpKind::Write).max_by_key(|c| c.tag).unwrap();
    assert_eq!(final_read.tag, max_write.tag, "seed {seed}");
    h
}

#[test]
fn ldr_genesis_to_treas_to_abd() {
    run_chain(
        vec![
            Configuration::ldr(ConfigId(0), ids(1..=5), 1),
            Configuration::treas(ConfigId(1), ids(6..=10), 3, 2),
            Configuration::abd(ConfigId(2), ids(1..=3)),
        ],
        1,
    );
}

#[test]
fn abd_to_ldr_to_treas() {
    run_chain(
        vec![
            Configuration::abd(ConfigId(0), ids(1..=3)),
            Configuration::ldr(ConfigId(1), ids(4..=8), 1),
            Configuration::treas(ConfigId(2), ids(6..=10), 4, 2),
        ],
        2,
    );
}

#[test]
fn treas_to_abd_back_to_treas() {
    // Erasure coded -> replicated -> erasure coded with different k.
    run_chain(
        vec![
            Configuration::treas(ConfigId(0), ids(1..=5), 3, 2),
            Configuration::abd(ConfigId(1), ids(6..=8)),
            Configuration::treas(ConfigId(2), ids(2..=8), 5, 2),
        ],
        3,
    );
}

#[test]
fn all_three_kinds_with_direct_transfer() {
    // Direct transfer across heterogeneous codes: ABD [n,1] -> TREAS
    // [5,3] -> TREAS [7,5]; LDR tail via plain put-data semantics.
    let configs = vec![
        Configuration::abd(ConfigId(0), ids(1..=3)),
        Configuration::treas(ConfigId(1), ids(4..=8), 3, 2),
        Configuration::treas(ConfigId(2), ids(2..=8), 5, 2),
    ];
    let mut s = Scenario::new(configs).clients([100, 110, 200]).direct_transfer().seed(4);
    s = s.write_at(0, 100, 0, Value::filler(180, 9));
    s = s.recon_at(3_000, 200, 1);
    s = s.recon_at(9_000, 200, 2);
    s = s.read_at(16_000, 110, 0);
    let res = s.run();
    let h = res.assert_complete_and_atomic();
    let read = h.iter().find(|c| c.kind == OpKind::Read).unwrap();
    let write = h.iter().find(|c| c.kind == OpKind::Write).unwrap();
    assert_eq!(read.value_digest, write.value_digest);
}

#[test]
fn direct_transfer_from_coded_into_replicated_falls_back_to_plain() {
    // TREAS [5,3] -> ABD under direct transfer: a replicated destination
    // cannot store one forwarded coded element, so that hop migrates by
    // get-data / put-data; the recon completes and the reads after it
    // see the last write.
    let configs = vec![
        Configuration::treas(ConfigId(0), ids(1..=5), 3, 2),
        Configuration::abd(ConfigId(1), ids(6..=8)),
    ];
    let mut s = Scenario::new(configs)
        .clients([100, 110, 200])
        .direct_transfer()
        .event_limit(200_000)
        .seed(6);
    s = s.write_at(0, 100, 0, Value::filler(90, 1));
    s = s.write_at(1_500, 100, 0, Value::filler(90, 2));
    s = s.recon_at(3_000, 200, 1);
    s = s.read_at(3_200, 110, 0);
    s = s.read_at(12_000, 110, 0);
    let res = s.run();
    assert_eq!(res.outcome, RunOutcome::Quiescent);
    let h = res.assert_complete_and_atomic();
    let installed = h.iter().find_map(|c| c.installed);
    assert_eq!(installed, Some(ConfigId(1)));
    let last = h.iter().filter(|c| c.kind == OpKind::Read).max_by_key(|c| c.invoked_at).unwrap();
    assert_eq!(last.value_digest, Some(Value::filler(90, 2).digest()));
}

#[test]
fn direct_transfer_from_an_ldr_source_completes() {
    // LDR -> TREAS [5,3] under direct transfer: the source's directories
    // hold no value, so its replicas forward their newest one as the
    // [n, 1] element; a destination quorum decodes it and the recon
    // completes instead of re-broadcasting `REQ-FW-CODE-ELEM` forever.
    let configs = vec![
        Configuration::ldr(ConfigId(0), ids(1..=5), 1),
        Configuration::treas(ConfigId(1), ids(6..=10), 3, 2),
    ];
    let mut s = Scenario::new(configs)
        .clients([100, 110, 200])
        .direct_transfer()
        .event_limit(200_000)
        .seed(8);
    s = s.write_at(0, 100, 0, Value::filler(90, 3));
    s = s.recon_at(2_000, 200, 1);
    s = s.read_at(12_000, 110, 0);
    let res = s.run();
    assert_eq!(res.outcome, RunOutcome::Quiescent);
    let h = res.assert_complete_and_atomic();
    assert_eq!(h.iter().find_map(|c| c.installed), Some(ConfigId(1)));
    let read = h.iter().find(|c| c.kind == OpKind::Read).unwrap();
    assert_eq!(read.value_digest, Some(Value::filler(90, 3).digest()));
}

#[test]
fn overlapping_server_sets_between_configurations() {
    // Heavy membership overlap: the same servers play roles in several
    // configurations simultaneously (distinct per-config register state).
    run_chain(
        vec![
            Configuration::treas(ConfigId(0), ids(1..=5), 3, 2),
            Configuration::treas(ConfigId(1), ids(1..=5), 4, 2), // same servers, new code
            Configuration::abd(ConfigId(2), ids(1..=3)),
        ],
        5,
    );
}

#[test]
fn randomized_mixed_chain_soak() {
    for seed in 0..8u64 {
        let configs = vec![
            Configuration::abd(ConfigId(0), ids(1..=3)),
            Configuration::ldr(ConfigId(1), ids(2..=6), 1),
            Configuration::treas(ConfigId(2), ids(4..=8), 3, 2),
            Configuration::ldr(ConfigId(3), ids(1..=5), 2),
            Configuration::treas(ConfigId(4), ids(3..=9), 5, 3),
        ];
        let mut s = Scenario::new(configs).clients([100, 101, 110, 111, 200]).seed(seed);
        for i in 1..=4u32 {
            s = s.recon_at(i as u64 * 3_500 + seed * 97, 200, i);
        }
        for i in 0..12u64 {
            let t = i * 1_200 + seed * 13;
            s = s.write_at(t, 100 + (i % 2) as u32, 0, Value::filler(60, seed * 1000 + i));
            s = s.read_at(t + 500, 110 + (i % 2) as u32, 0);
        }
        let res = s.run();
        check_atomicity(&res.completions).assert_atomic();
        assert_eq!(res.completions.len(), res.scheduled_ops, "seed {seed}");
    }
}
