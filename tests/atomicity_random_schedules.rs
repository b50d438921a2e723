//! Randomized soak tests: many seeds, concurrent readers/writers (and
//! optionally reconfigurers), every history checked for atomicity.

use ares_harness::{par_seeds, standard_universe, Scenario, WorkloadSpec};
use ares_types::{ConfigId, Configuration, ProcessId};

fn run_seed(seed: u64, with_recon: bool) -> (usize, bool) {
    let spec = WorkloadSpec {
        writers: vec![100, 101, 102],
        readers: vec![110, 111, 112],
        reconfigurers: if with_recon { vec![200] } else { vec![] },
        recon_targets: if with_recon { vec![1, 2] } else { vec![] },
        writes_per_writer: 4,
        reads_per_reader: 4,
        mean_gap: 400,
        value_size: 48,
        objects: vec![0],
        seed,
    };
    let invs = spec.generate();
    let n = invs.len();
    let res = Scenario::new(standard_universe())
        .clients(spec.client_ids())
        .seed(seed)
        .invocations(invs)
        .run();
    res.assert_complete_and_atomic();
    (n, true)
}

#[test]
fn static_configuration_histories_are_atomic() {
    let seeds: Vec<u64> = (0..24).collect();
    let results = par_seeds(&seeds, |s| run_seed(s, false));
    assert!(results.iter().all(|(n, ok)| *ok && *n == 24));
}

#[test]
fn histories_with_reconfiguration_are_atomic() {
    let seeds: Vec<u64> = (100..116).collect();
    let results = par_seeds(&seeds, |s| run_seed(s, true));
    assert!(results.iter().all(|(_, ok)| *ok));
}

#[test]
fn multi_object_histories_are_atomic() {
    let seeds: Vec<u64> = (200..212).collect();
    par_seeds(&seeds, |seed| {
        let spec = WorkloadSpec {
            writers: vec![100, 101],
            readers: vec![110, 111],
            objects: vec![0, 1, 2],
            writes_per_writer: 6,
            reads_per_reader: 6,
            seed,
            ..WorkloadSpec::default()
        };
        let invs = spec.generate();
        let res = Scenario::new(standard_universe())
            .clients(spec.client_ids())
            .seed(seed)
            .invocations(invs)
            .run();
        res.assert_complete_and_atomic();
    });
}

#[test]
fn dense_contention_single_object() {
    // Tight mean gap: operations heavily overlap.
    let seeds: Vec<u64> = (300..312).collect();
    par_seeds(&seeds, |seed| {
        let spec = WorkloadSpec {
            writers: vec![100, 101, 102, 103],
            readers: vec![110, 111],
            writes_per_writer: 5,
            reads_per_reader: 5,
            mean_gap: 60,
            value_size: 32,
            seed,
            ..WorkloadSpec::default()
        };
        let invs = spec.generate();
        let res = Scenario::new(standard_universe())
            .clients(spec.client_ids())
            .seed(seed)
            .invocations(invs)
            .run();
        res.assert_complete_and_atomic();
    });
}

#[test]
fn more_than_delta_concurrent_writers_compact_lists_mid_read() {
    // TREAS [5,3] with δ = 1 under five overlapping writers: servers
    // garbage-collect on almost every put and fold the ⊥ prefix under
    // their floor while `get-data` phases are still gathering lists, so
    // readers evaluate lists compacted at different points (DESIGN §2).
    let seeds: Vec<u64> = (500..516).collect();
    par_seeds(&seeds, |seed| {
        let spec = WorkloadSpec {
            writers: vec![100, 101, 102, 103, 104],
            readers: vec![110, 111, 112],
            writes_per_writer: 6,
            reads_per_reader: 6,
            mean_gap: 60,
            value_size: 32,
            seed,
            ..WorkloadSpec::default()
        };
        let invs = spec.generate();
        let delta1 = Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 1);
        let res = Scenario::new(vec![delta1])
            .clients(spec.client_ids())
            .seed(seed)
            .invocations(invs)
            .run();
        res.assert_complete_and_atomic();
    });
}

#[test]
fn direct_transfer_soak() {
    let seeds: Vec<u64> = (400..410).collect();
    par_seeds(&seeds, |seed| {
        let spec = WorkloadSpec {
            writers: vec![100, 101],
            readers: vec![110, 111],
            reconfigurers: vec![200],
            recon_targets: vec![1, 2, 4],
            writes_per_writer: 4,
            reads_per_reader: 4,
            mean_gap: 700,
            seed,
            ..WorkloadSpec::default()
        };
        let invs = spec.generate();
        let res = Scenario::new(standard_universe())
            .clients(spec.client_ids())
            .direct_transfer()
            .seed(seed)
            .invocations(invs)
            .run();
        res.assert_complete_and_atomic();
    });
}

#[test]
fn regression_multi_object_migration_preserves_all_objects() {
    // Regression for a bug found by E10 (`e10_atomicity.rs`) seed 18: `update-config`
    // migrated only object 0, so writes to other objects could lose their
    // tags when the configuration chain advanced past them (a later write
    // would then reuse a tag). Reconfigurations must migrate *every*
    // managed object.
    let seeds: Vec<u64> = (0..24).collect();
    par_seeds(&seeds, |seed| {
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
        let res = Scenario::new(standard_universe())
            .clients(spec.client_ids())
            .seed(seed)
            .invocations(invs)
            .run();
        res.assert_complete_and_atomic();
    });
}
