//! Session-multiplexing regression tests over the live TCP runtime.
//!
//! Pins the contract of the `Store`/`Session`/`OpTicket` API on
//! `ares_net::NetStore`:
//!
//! * completions are routed to tickets by `OpId` — interleaved
//!   completions of concurrent sessions can never cross-deliver, and a
//!   fast session's operation overtakes a slow one submitted earlier
//!   (which the seed's FIFO invoke/recv pairing could not express);
//! * an operation timing out poisons *only its own ticket*, with a
//!   typed `OpError::Timeout` — the runtime, its other sessions and
//!   subsequent tickets keep working;
//! * every produced history is atomic.

use ares_core::store::{OpTicket, Store, StoreSession};
use ares_core::OpError;
use ares_net::testing::LocalCluster;
use ares_net::NetTicket;
use ares_types::{ConfigId, Configuration, ObjectId, OpKind, ProcessId, Value};
use std::time::Duration;

fn treas53() -> Vec<Configuration> {
    vec![Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2)]
}

#[test]
fn pipelined_completions_route_by_op_id_not_fifo() {
    let cluster = LocalCluster::builder(treas53()).clients([100]).objects(0..4).start().unwrap();
    let store = cluster.store(100);
    let mut slow = store.open_session();
    let mut fast = store.open_session();

    // Session `slow` submits FIRST, with a 4 MiB value; session `fast`
    // follows with a 64 B value on another object — and is *waited on
    // first*. Under the seed's FIFO invoke/recv pairing that wait would
    // have been handed whichever completion landed first (almost
    // certainly the other session's); with OpId routing each ticket can
    // only ever yield its own operation.
    let big = Value::filler(4 << 20, 1);
    let small = Value::filler(64, 2);
    let t_slow = slow.write(ObjectId(0), big.clone()).unwrap();
    let slow_op = t_slow.op();
    let t_fast = fast.write(ObjectId(1), small.clone()).unwrap();
    let fast_op = t_fast.op();
    let c_fast = t_fast.wait().unwrap();
    let c_slow = t_slow.wait().unwrap();
    assert_eq!(c_fast.op, fast_op, "a ticket yields only its own operation");
    assert_eq!(c_slow.op, slow_op, "a ticket yields only its own operation");
    assert_eq!(c_slow.value_digest, Some(big.digest()), "no cross-delivery");
    assert_eq!(c_fast.value_digest, Some(small.digest()), "no cross-delivery");
    assert_eq!(c_slow.op.client, c_fast.op.client, "one shared client runtime");
    // Pipelining: the two sessions' operations overlap in real time on
    // the one runtime (the serial seed API could never produce this).
    assert!(
        c_fast.invoked_at < c_slow.completed_at && c_slow.invoked_at < c_fast.completed_at,
        "sessions must pipeline: fast [{}, {}] vs slow [{}, {}]",
        c_fast.invoked_at,
        c_fast.completed_at,
        c_slow.invoked_at,
        c_slow.completed_at
    );
    ares_harness::check_atomicity(&[c_slow, c_fast]).assert_atomic();
    cluster.shutdown();
}

#[test]
fn interleaved_session_completions_never_cross_deliver() {
    let cluster = LocalCluster::builder(treas53()).clients([100]).objects(0..4).start().unwrap();
    let store = cluster.store(100);
    const SESSIONS: usize = 4;
    const OPS: u64 = 12;

    // Every session pipelines its whole command stream up front; each
    // write carries a digest unique to (session, op index).
    let mut tickets: Vec<(usize, u64, Option<u64>, NetTicket)> = Vec::new();
    let mut sessions: Vec<_> = (0..SESSIONS).map(|_| store.open_session()).collect();
    for (i, session) in sessions.iter_mut().enumerate() {
        for n in 0..OPS {
            let obj = ObjectId((n % 4) as u32);
            let (expect, t) = if n % 3 == 2 {
                (None, session.read(obj).unwrap())
            } else {
                let v = Value::filler(256, 1_000 * (i as u64 + 1) + n);
                (Some(v.digest()), session.write(obj, v).unwrap())
            };
            tickets.push((i, n, expect, t));
        }
    }
    let mut history = Vec::new();
    for (i, n, expect, t) in tickets {
        let op = t.op();
        let c = t.wait().expect("op completes");
        assert_eq!(c.op, op, "completion routed to its own ticket");
        assert_eq!(
            ares_core::store::session_of_op(c.op),
            sessions[i].id(),
            "completion belongs to the session that submitted it"
        );
        if let Some(d) = expect {
            assert_eq!(c.kind, OpKind::Write);
            assert_eq!(
                c.value_digest,
                Some(d),
                "session {i} op {n}: a cross-delivered completion would carry \
                 another session's digest"
            );
        }
        history.push(c);
    }
    // Per-session well-formedness: within a session, ops execute in
    // submission order without overlap.
    for (i, session) in sessions.iter().enumerate() {
        let mine: Vec<_> = history
            .iter()
            .filter(|c| ares_core::store::session_of_op(c.op) == session.id())
            .collect();
        assert_eq!(mine.len(), OPS as usize);
        for pair in mine.windows(2) {
            assert!(pair[0].op.seq < pair[1].op.seq);
            assert!(
                pair[0].completed_at <= pair[1].invoked_at,
                "session {i}: per-session ops must not overlap"
            );
        }
    }
    ares_harness::check_atomicity(&history).assert_atomic();
    cluster.shutdown();
}

#[test]
fn timeout_poisons_only_its_ticket() {
    let cluster = LocalCluster::builder(treas53()).clients([100]).objects(0..2).start().unwrap();
    let store = cluster.store(100);

    // Warm up: a completed op proves the deployment is live.
    let mut a = store.open_session();
    a.write(ObjectId(0), Value::filler(64, 1)).unwrap().wait().unwrap();

    // Kill a quorum: TREAS [5,3] needs ⌈(5+3)/2⌉ = 4 of 5 servers, so
    // killing two makes every quorum unreachable mid-deployment.
    cluster.kill(4);
    cluster.kill(5);
    let t = a.write(ObjectId(0), Value::filler(64, 2)).unwrap();
    let err = t.wait_for(Duration::from_millis(400)).unwrap_err();
    assert!(
        matches!(err, OpError::Timeout { .. }),
        "a dead quorum must surface as a typed per-ticket timeout, got {err:?}"
    );

    // The timeout poisoned only that ticket: after the quorum heals, a
    // fresh session on the SAME runtime completes normally (session `a`
    // stays dedicated to its stuck operation, as documented).
    cluster.restart(4);
    cluster.restart(5);
    let mut b = store.open_session();
    let c = b
        .write(ObjectId(1), Value::filler(64, 3))
        .unwrap()
        .wait_for(Duration::from_secs(30))
        .expect("the runtime must keep serving other sessions after a ticket timeout");
    assert_eq!(c.kind, OpKind::Write);
    cluster.shutdown();
}

#[test]
fn submission_after_shutdown_is_rejected_not_hung() {
    let cluster = LocalCluster::builder(treas53()).clients([100]).objects(0..1).start().unwrap();
    let store = cluster.store(100);
    let mut s = store.open_session();
    s.write(ObjectId(0), Value::filler(32, 5)).unwrap().wait().unwrap();
    store.shutdown();
    let err = s.write(ObjectId(0), Value::filler(32, 6)).unwrap_err();
    assert!(matches!(err, OpError::Closed), "got {err:?}");
    cluster.shutdown(); // idempotent: the store is already down
}
