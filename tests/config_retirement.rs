//! Retiring superseded configurations (DESIGN.md §2): a server drops a
//! configuration's object state once it holds the finalized successor
//! pointer, and answers late requests with a redirect to that successor.
//!
//! Two claims: storage stays flat however long the chain grows, and an
//! operation whose requests reach a configuration only after every
//! server of it retired is redirected once and completes atomically.

use ares_harness::{Scenario, ScenarioResult};
use ares_sim::{RunOutcome, TraceKind};
use ares_types::{ConfigId, Configuration, ProcessId, Time, Value};

const SIZE: usize = 300;
const K: usize = 3;
const DELTA: usize = 2;
const N: usize = 5;
const OBJECTS: u32 = 8;

/// `c0 .. c_len`, each a TREAS `[5, 3]` with δ = 2 on a window of five
/// of servers 1–8 that slides by one per configuration.
fn chain(len: u32) -> Vec<Configuration> {
    (0..=len)
        .map(|i| {
            let lo = 1 + i % 4;
            Configuration::treas(ConfigId(i), (lo..lo + 5).map(ProcessId).collect(), K, DELTA)
        })
        .collect()
}

/// Every object written δ + 1 times (full lists), then a chain of `len`
/// reconfigurations, one after the other.
fn chain_run(len: u32, direct: bool) -> ScenarioResult {
    let mut s = Scenario::new(chain(len)).clients([100, 200]).seed(u64::from(len));
    if direct {
        s = s.direct_transfer();
    }
    for round in 0..=DELTA as u64 {
        for obj in 0..OBJECTS {
            let seed = (round << 16) | u64::from(obj) | 1 << 40;
            s = s.write_at(round * 10_000, 100, obj, Value::filler(SIZE, seed));
        }
    }
    for i in 1..=len {
        s = s.recon_at(40_000 + u64::from(i) * 5_000, 200, i);
    }
    s.run()
}

#[test]
fn storage_stays_flat_as_the_chain_grows() {
    // A live configuration holds at most (δ+1)·⌈size/k⌉ per server and
    // object; twice that leaves room for one configuration in flight.
    let bound = 2 * (DELTA + 1) * SIZE.div_ceil(K) * N * OBJECTS as usize;
    for direct in [false, true] {
        for len in [8, 32, 96] {
            let r = chain_run(len, direct);
            assert_eq!(r.outcome, RunOutcome::Quiescent, "len {len}, direct {direct}");
            r.assert_complete_and_atomic();
            let stored = r.total_storage_bytes() as usize;
            assert!(
                stored <= bound,
                "chain of {len} (direct {direct}): {stored} B stored, bound {bound} B"
            );
        }
    }
}

/// Redirect notes per client of a traced run.
fn redirects(r: &ScenarioResult, client: u32) -> Vec<String> {
    r.trace
        .iter()
        .filter_map(|e| match &e.kind {
            TraceKind::Note { pid, text } if *pid == ProcessId(client) => Some(text.clone()),
            _ => None,
        })
        .filter(|t| t.contains("redirected"))
        .collect()
}

/// When the fast reconfigurer starts `c0 → c1`. It needs a few dozen
/// µs at a 1 µs hop; every late request is timed to land on either
/// side of that window.
const T: Time = 1_000;
/// The one-way delay of every message of a late operation.
const LATE: Time = 60;

/// `c0` (the `source` under test) on servers 1–5, `c1` TREAS `[5, 3]` on
/// servers 6–10. Client 100 writes at t = 0 and client 200 reconfigures
/// to `c1` at `T`, both at a 1 µs hop. Three late operations, each
/// with `LATE` per hop and invoked so that its `read-config` ends before
/// `T` but its request below reaches `c0` after every server of `c0`
/// retired it:
///
/// * client 101 reads: its `get-data`;
/// * client 102 writes: its `get-tag` lands before `T`, its `put-data`
///   after;
/// * client 201 reconfigures to `c1` as well, winning the consensus
///   that client 200 then adopts: its plain `get-data`, or its direct
///   `get-tag` before `T` and its `ReqFwd` after.
fn race(source: Configuration, direct: bool) -> ScenarioResult {
    let universe = vec![
        source,
        Configuration::treas(ConfigId(1), (6..=10).map(ProcessId).collect(), K, DELTA),
    ];
    let mut s = Scenario::new(universe)
        .clients([100, 101, 102, 200, 201])
        .delays(1, 1)
        .seed(1)
        .event_limit(100_000)
        .with_trace();
    if direct {
        s = s.direct_transfer();
    }
    for late in [101, 102, 201] {
        s = s.client_delays(ProcessId(late), LATE, LATE);
    }
    let recon_at = if direct { T - 9 * LATE - 20 } else { T - 7 * LATE - 30 };
    s.write_at(0, 100, 0, Value::filler(SIZE, 1))
        .recon_at(T, 200, 1)
        .read_at(T - 3 * LATE + 90, 101, 0)
        .write_at(T - 3 * LATE - 20, 102, 0, Value::filler(SIZE, 2))
        .recon_at(recon_at, 201, 1)
        .run()
}

#[test]
fn late_operations_are_redirected_once_and_stay_atomic() {
    let servers = || (1..=5).map(ProcessId).collect::<Vec<_>>();
    let sources = [
        Configuration::abd(ConfigId(0), servers()),
        Configuration::treas(ConfigId(0), servers(), K, DELTA),
        Configuration::ldr(ConfigId(0), servers(), 1),
    ];
    for source in sources {
        for direct in [false, true] {
            let what = format!("{:?} source, direct {direct}", source.dap);
            let r = race(source.clone(), direct);
            assert_eq!(r.outcome, RunOutcome::Quiescent, "{what}");
            r.assert_complete_and_atomic();
            for late in [101, 102, 201] {
                let notes = redirects(&r, late);
                assert_eq!(notes.len(), 1, "{what}: client {late} redirected {notes:?}");
                assert!(notes[0].ends_with("redirected c0 -> ⟨c1,F⟩"), "{what}: {notes:?}");
            }
        }
    }
}
