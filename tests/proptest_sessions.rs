//! Property tests of the multiplexing invariants: ANY schedule of K
//! sessions × M objects over ONE runtime preserves per-session
//! well-formedness and yields an atomic history — on both store
//! backends (the deterministic simulator and a live loopback cluster),
//! driven through the same generic `Store` code path.

use ares_core::store::{session_of_op, OpTicket, Store, StoreSession};
use ares_harness::SimStore;
use ares_net::testing::LocalCluster;
use ares_types::{ConfigId, Configuration, ObjectId, OpCompletion, OpKind, ProcessId, Value};
use proptest::prelude::*;

fn treas53() -> Vec<Configuration> {
    vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)]
}

/// The same code with δ = 1: two coded elements per list, so any third
/// concurrent write makes servers garbage-collect and fold their lists.
fn treas53_delta1() -> Vec<Configuration> {
    vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 1)]
}

/// One session's command list: `(is_write, object)` pairs.
type Schedule = Vec<Vec<(bool, u32)>>;

fn schedules(max_sessions: usize, max_ops: usize) -> impl Strategy<Value = Schedule> {
    proptest::collection::vec(
        proptest::collection::vec((any::<bool>(), 0u32..3), 1..max_ops),
        1..max_sessions,
    )
}

/// Four to six writer sessions and one to three reader sessions, all
/// on object 0: more than δ = 1 writes are always in flight, so lists
/// compact while `get-data` phases are gathering them.
fn contended_schedules(max_ops: usize) -> impl Strategy<Value = Schedule> {
    let lane = |is_write| proptest::collection::vec(Just((is_write, 0u32)), 2..max_ops);
    let writers = proptest::collection::vec(lane(true), 4..7);
    let readers = proptest::collection::vec(lane(false), 1..4);
    (writers, readers).prop_map(|(mut sessions, readers)| {
        sessions.extend(readers);
        sessions
    })
}

/// Submits the whole schedule pipelined (every session's stream up
/// front), waits for every ticket, and returns `(completion, expected
/// write digest)` pairs. Generic over the backend: the sim and cluster
/// variants exercise the *same* code path.
fn drive<S: Store>(store: &S, schedule: &Schedule, salt: u64) -> Vec<(OpCompletion, Option<u64>)> {
    let mut tickets = Vec::new();
    for (i, ops) in schedule.iter().enumerate() {
        let mut session = store.open_session();
        for (n, &(is_write, obj)) in ops.iter().enumerate() {
            let (expect, t) = if is_write {
                let v = Value::filler(64, salt ^ (((i as u64 + 1) << 24) | (n as u64 + 1)));
                (Some(v.digest()), session.write(ObjectId(obj), v).expect("submit"))
            } else {
                (None, session.read(ObjectId(obj)).expect("submit"))
            };
            tickets.push((expect, t));
        }
    }
    tickets.into_iter().map(|(expect, t)| (t.wait().expect("op completes"), expect)).collect()
}

/// The invariants under test:
/// 1. every completion routed to the ticket that submitted it (write
///    digests match; kinds match);
/// 2. per-session well-formedness: one outstanding op per session, in
///    submission order;
/// 3. the full multiplexed history is atomic.
///
/// `store` must be fresh, so that `drive`'s sessions get ids 0, 1, ….
fn run_case<S: Store>(store: &S, schedule: &Schedule, salt: u64) {
    let results = drive(store, schedule, salt);
    let mut history = Vec::with_capacity(results.len());
    for (c, expect) in &results {
        match expect {
            Some(d) => {
                prop_assert_eq!(c.kind, OpKind::Write);
                prop_assert_eq!(c.value_digest, Some(*d), "cross-delivered completion");
            }
            None => prop_assert_eq!(c.kind, OpKind::Read),
        }
        history.push(c.clone());
    }
    for (i, ops) in schedule.iter().enumerate() {
        let mut mine: Vec<&OpCompletion> =
            history.iter().filter(|c| session_of_op(c.op).0 == i as u32).collect();
        mine.sort_by_key(|c| c.op.seq);
        prop_assert_eq!(mine.len(), ops.len(), "every submitted op completed");
        for pair in mine.windows(2) {
            prop_assert!(
                pair[0].completed_at <= pair[1].invoked_at,
                "session {} ops overlap: {:?} then {:?}",
                i,
                pair[0],
                pair[1]
            );
        }
    }
    let report = ares_harness::check_atomicity(&history);
    prop_assert!(report.is_atomic(), "violations: {:?}", report.violations);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Simulator variant: wide schedules, deterministic execution.
    #[test]
    fn sim_any_session_schedule_is_well_formed_and_atomic(
        schedule in schedules(6, 8),
        seed in 0u64..1_000,
    ) {
        let store = SimStore::builder(treas53()).objects(0..3).seed(seed).build();
        run_case(&store, &schedule, seed ^ 0xA5A5);
    }

    /// More than δ concurrent writers per object, readers racing them.
    #[test]
    fn sim_readers_racing_list_compaction_stay_atomic(
        schedule in contended_schedules(8),
        seed in 0u64..1_000,
    ) {
        let store = SimStore::builder(treas53_delta1()).seed(seed).build();
        run_case(&store, &schedule, seed ^ 0xC3C3);
    }
}

proptest! {
    // Each case boots a real loopback cluster: keep the count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Live-cluster variant: the same generic driver over `NetStore`.
    #[test]
    fn cluster_any_session_schedule_is_well_formed_and_atomic(
        schedule in schedules(4, 5),
        seed in 0u64..1_000,
    ) {
        let cluster = LocalCluster::builder(treas53())
            .clients([100])
            .objects(0..3)
            .start()
            .expect("cluster boots");
        run_case(cluster.store(100), &schedule, seed ^ 0x5A5A);
        cluster.shutdown();
    }

    /// The contended δ = 1 case over real sockets.
    #[test]
    fn cluster_readers_racing_list_compaction_stay_atomic(
        schedule in contended_schedules(5),
        seed in 0u64..1_000,
    ) {
        let cluster = LocalCluster::builder(treas53_delta1())
            .clients([100])
            .start()
            .expect("cluster boots");
        run_case(cluster.store(100), &schedule, seed ^ 0x3C3C);
        cluster.shutdown();
    }
}
