//! Property-style tests of the DAP consistency conditions C1/C2
//! (Definition 2) for all three implementations, driven through ARES
//! sessions on a single configuration.
//!
//! * **C1**: a completed `put-data(⟨τ,v⟩)` followed by `get-tag` /
//!   `get-data` yields a tag `≥ τ`.
//! * **C2**: every `get-data` result was actually put (or is the
//!   initial pair).
//!
//! On one configuration an ARES read or write is template A1 (Alg. 10)
//! wrapped in `read-config` (Alg. 7). We exercise the properties through
//! full register operations at the simulator level across seeds: the
//! atomicity of the produced histories (Theorem 32) is exactly the
//! externally observable consequence of C1 and C2, and phantom-read
//! detection covers C2 directly. LDR's extra property C3 (Definition
//! 31), which template A2 needs and ARES does not, is unit-tested on
//! the DAP calls themselves in `ares_dap::client`.

use ares_harness::{check_atomicity, Scenario};
use ares_sim::{FaultAction, FaultSchedule};
use ares_types::{ConfigId, Configuration, OpCompletion, OpKind, ProcessId, Value};

fn run_register_workload(cfg: Configuration, seed: u64, n_ops: u64) -> Vec<OpCompletion> {
    let clients = [100, 101, 102, 103];
    let mut s = Scenario::new(vec![cfg]).clients(clients).delays(5, 40).seed(seed);
    // Interleaved writes and reads with overlapping windows.
    let mut t = 0u64;
    for i in 0..n_ops {
        let c = clients[(i % clients.len() as u64) as usize];
        s = if i % 3 == 0 {
            s.read_at(t, c, 0)
        } else {
            s.write_at(t, c, 0, Value::filler(40, seed * 1000 + i))
        };
        t += 37 + (seed * 13 + i * 7) % 120;
    }
    s.run().completions
}

#[test]
fn abd_satisfies_c1_c2_across_seeds() {
    for seed in 0..8 {
        let cfg = Configuration::abd(ConfigId(0), (1..=5).map(ProcessId).collect());
        let h = run_register_workload(cfg, seed, 20);
        assert_eq!(h.len(), 20, "seed {seed}: all ops live");
        check_atomicity(&h).assert_atomic();
    }
}

#[test]
fn treas_satisfies_c1_c2_across_seeds() {
    for seed in 0..8 {
        let cfg = Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 4);
        let h = run_register_workload(cfg, seed, 20);
        assert_eq!(h.len(), 20, "seed {seed}: all ops live (δ large enough)");
        check_atomicity(&h).assert_atomic();
    }
}

#[test]
fn ldr_satisfies_c1_c2_c3_across_seeds() {
    for seed in 0..8 {
        let cfg = Configuration::ldr(ConfigId(0), (1..=5).map(ProcessId).collect(), 1);
        let h = run_register_workload(cfg, seed, 20);
        assert_eq!(h.len(), 20, "seed {seed}");
        // ARES reads propagate (A1), so this history witnesses C1/C2;
        // C3 is witnessed by the `DapCall` unit test in `ares_dap`.
        check_atomicity(&h).assert_atomic();
    }
}

#[test]
fn c1_direct_put_then_get_sees_tag() {
    // A sequential put-data → get-tag/get-data at the operation level:
    // write then read from *different* clients, strictly ordered.
    for (name, cfg) in [
        ("abd", Configuration::abd(ConfigId(0), (1..=5).map(ProcessId).collect())),
        ("treas", Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)),
        ("ldr", Configuration::ldr(ConfigId(0), (1..=5).map(ProcessId).collect(), 1)),
    ] {
        let v = Value::filler(52, 1);
        let res = Scenario::new(vec![cfg])
            .clients([100, 101])
            .delays(5, 40)
            .seed(7)
            .write_at(0, 100, 0, v.clone())
            .read_at(1_000, 101, 0)
            .run();
        let h = &res.completions;
        assert_eq!(h.len(), 2, "{name}");
        assert!(h[0].completed_at < h[1].invoked_at, "{name}: the write completes first");
        let wtag = h[0].tag.unwrap();
        let rtag = h[1].tag.unwrap();
        assert!(rtag >= wtag, "{name}: C1 violated: read {rtag:?} < write {wtag:?}");
        assert_eq!(h[1].value_digest, Some(v.digest()), "{name}: C2 value integrity");
    }
}

#[test]
fn c2_no_phantom_values_under_failed_writes() {
    // A writer crashes mid-write; readers must never observe a value
    // that cannot be attributed to an actual write invocation. (C2
    // allows returning a concurrently-put value, so the crashed write's
    // value may legitimately appear — the checker accounts for that by
    // treating scheduled-but-incomplete writes separately; here we just
    // assert no *fabricated* bytes appear.)
    let cfg = Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2);
    let v1 = Value::filler(64, 1);
    let v2 = Value::filler(64, 2);
    // Under this seed the second write sends its put-data at 1,103 and
    // hears its quorum at 1,162: the crash lands between the two.
    let crash = FaultAction::Crash { pid: ProcessId(100) };
    let res = Scenario::new(vec![cfg])
        .clients([100, 101])
        .delays(5, 40)
        .seed(11)
        .write_at(0, 100, 0, v1.clone())
        .write_at(1_000, 100, 0, v2.clone())
        .fault_schedule(FaultSchedule::new().at(1_130, crash))
        .read_at(3_000, 101, 0)
        .run();
    let writes = res.completions.iter().filter(|c| c.kind == OpKind::Write).count();
    assert_eq!(writes, 1, "the second write never completes");
    let reads: Vec<_> = res.completions.iter().filter(|c| c.kind == OpKind::Read).collect();
    assert_eq!(reads.len(), 1);
    let d = reads[0].value_digest.unwrap();
    assert!(
        d == v1.digest() || d == v2.digest(),
        "read returned bytes of a real write (complete or concurrent-failed)"
    );
}
