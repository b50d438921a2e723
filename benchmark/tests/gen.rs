//! The generated inputs are a function of the seed: bit-identical for
//! one seed, different for two.

use ares_benchmark::gen::{first_commands, value_seed, Arrivals, CommandStream, GenOp};
use ares_benchmark::spec::WORKLOADS;
use std::collections::HashSet;

#[test]
fn one_seed_gives_one_command_stream_and_schedule() {
    for spec in &WORKLOADS {
        let a = first_commands(spec, 7, 3000);
        let b = first_commands(spec, 7, 3000);
        assert_eq!(a, b, "{}: same seed, same commands, sessions and due times", spec.name);
        let c = first_commands(spec, 8, 3000);
        assert_ne!(a, c, "{}: another seed gives other inputs", spec.name);
    }
}

#[test]
fn arrival_schedule_is_seeded_increasing_and_on_rate() {
    let mut a = Arrivals::new(3, 1000);
    let mut b = Arrivals::new(3, 1000);
    let dues: Vec<u64> = (0..20_000).map(|_| a.next_due_us()).collect();
    assert!(dues.iter().zip((0..20_000).map(|_| b.next_due_us())).all(|(x, y)| *x == y));
    assert!(dues.windows(2).all(|p| p[0] <= p[1]), "due times never go back");
    // 20,000 arrivals at 1,000/s take 20 s, give or take Poisson noise
    // (sd of the sum is sqrt(20,000) ms = 0.14 s).
    let last = *dues.last().unwrap() as f64 / 1e6;
    assert!((19.0..21.0).contains(&last), "20,000 arrivals ended at {last} s");
    let mut other = Arrivals::new(4, 1000);
    assert_ne!(dues[..10], (0..10).map(|_| other.next_due_us()).collect::<Vec<_>>()[..]);
}

#[test]
fn streams_mix_reads_and_writes_over_all_objects() {
    let mut s = CommandStream::new(1, 0, 64);
    let ops: Vec<GenOp> = (0..10_000).map(|_| s.next_op()).collect();
    let reads = ops.iter().filter(|o| matches!(o, GenOp::Read { .. })).count();
    assert!((4700..5300).contains(&reads), "about half are reads, got {reads}");
    let objects: HashSet<u32> = ops.iter().map(GenOp::obj).collect();
    assert_eq!(objects.len(), 64, "uniform choice reaches every object");
    // Sessions draw different streams.
    let mut t = CommandStream::new(1, 1, 64);
    assert_ne!(ops[..50], (0..50).map(|_| t.next_op()).collect::<Vec<_>>()[..]);
}

#[test]
fn every_write_of_a_run_has_its_own_value() {
    let mut seeds = HashSet::new();
    for stream in [0u32, 1, 63, 0xFFFE, 0xFFFF] {
        for n in 0..1000u64 {
            assert!(seeds.insert(value_seed(1, stream, n)), "stream {stream} write {n} collides");
        }
    }
    // And the streams hand them out in order.
    let mut s = CommandStream::new(1, 5, 8);
    let written: Vec<u64> = (0..200)
        .filter_map(|_| match s.next_op() {
            GenOp::Write { value_seed, .. } => Some(value_seed),
            GenOp::Read { .. } => None,
        })
        .collect();
    let expected: Vec<u64> = (0..written.len() as u64).map(|n| value_seed(1, 5, n)).collect();
    assert_eq!(written, expected);
}
