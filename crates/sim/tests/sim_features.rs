//! Feature tests of the simulator: crash + recovery semantics,
//! per-client delay classes, tracing, and determinism under load.

use ares_sim::{
    Actor, Ctx, DelayBounds, FaultAction, FaultSchedule, NetworkConfig, RunOutcome, SimMessage,
    TraceKind, World,
};
use ares_types::{OpId, ProcessId};

#[derive(Clone, Debug)]
enum M {
    Ping(u32),
    Tagged(OpId),
}

impl SimMessage for M {
    fn op(&self) -> Option<OpId> {
        match self {
            M::Ping(_) => None,
            M::Tagged(op) => Some(*op),
        }
    }
}

/// Replies to every ping with `n - 1` until zero.
struct Echo;
impl Actor<M> for Echo {
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M>) {
        if let M::Ping(n) = msg {
            if n > 0 {
                ctx.send(from, M::Ping(n - 1));
            }
        }
    }
}

#[test]
fn recovery_resumes_message_processing() {
    let mut w = World::new(NetworkConfig::constant(10), 1);
    w.add_actor(ProcessId(1), Echo);
    w.add_actor(ProcessId(2), Echo);
    w.install_faults(
        &FaultSchedule::new()
            .at(0, FaultAction::Crash { pid: ProcessId(2) })
            .at(100, FaultAction::Recover { pid: ProcessId(2) }),
    );
    // Messages during the outage are dropped...
    w.post(5, ProcessId(1), ProcessId(2), M::Ping(3));
    // ...but after recovery the process responds again.
    w.post(200, ProcessId(1), ProcessId(2), M::Ping(3));
    assert_eq!(w.run(), RunOutcome::Quiescent);
    assert!(!w.is_crashed(ProcessId(2)));
    // 3 bounce hops after recovery (and none before): now = 200 + 3*10.
    assert_eq!(w.now(), 230);
}

#[test]
fn messages_in_flight_to_crashed_then_recovered_process() {
    let mut w = World::new(NetworkConfig::constant(50), 2);
    w.add_actor(ProcessId(1), Echo);
    w.add_actor(ProcessId(2), Echo);
    // Crash at t=60; a message delivered at t=70 is lost even though the
    // process recovers at t=80 (channels do not replay).
    w.post(20, ProcessId(1), ProcessId(2), M::Ping(1)); // delivered t=20 -> reply in flight
    w.install_faults(
        &FaultSchedule::new()
            .at(60, FaultAction::Crash { pid: ProcessId(2) })
            .at(80, FaultAction::Recover { pid: ProcessId(2) }),
    );
    assert_eq!(w.run(), RunOutcome::Quiescent);
    // The reply Ping(0) from p2 was sent at t=20, arrives t=70 at p1 — p1
    // is alive, fine; nothing for the recovered p2 to do.
    assert_eq!(w.metrics().messages_sent, 1);
}

#[test]
fn per_client_delay_classes_apply_to_both_directions() {
    // All of slow-op's messages take exactly 100; fast-op's exactly 5.
    let slow = OpId { client: ProcessId(10), seq: 0 };
    let fast = OpId { client: ProcessId(11), seq: 0 };
    let net = NetworkConfig::constant(40)
        .with_client_bounds(ProcessId(10), DelayBounds::new(100, 100))
        .with_client_bounds(ProcessId(11), DelayBounds::new(5, 5));

    struct Reflector;
    impl Actor<M> for Reflector {
        fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Ctx<'_, M>) {
            if let M::Tagged(op) = msg {
                if ctx.pid() == ProcessId(1) {
                    ctx.send(from, M::Tagged(op)); // echo once
                }
            }
        }
    }
    let mut w = World::new(net, 3);
    w.add_actor(ProcessId(1), Reflector);
    w.add_actor(ProcessId(10), Reflector);
    w.add_actor(ProcessId(11), Reflector);
    w.post(0, ProcessId(10), ProcessId(1), M::Tagged(slow));
    w.post(0, ProcessId(11), ProcessId(1), M::Tagged(fast));
    w.run();
    // fast round trip completes at t=5 (injected deliveries are
    // immediate; only the echo pays network delay)... the echo of fast
    // lands at 5, of slow at 100; final now = 100.
    assert_eq!(w.now(), 100);
}

#[test]
fn trace_captures_sends_deliveries_and_crashes() {
    let mut w = World::new(NetworkConfig::constant(7), 4);
    w.enable_trace();
    w.add_actor(ProcessId(1), Echo);
    w.add_actor(ProcessId(2), Echo);
    w.post(0, ProcessId(1), ProcessId(2), M::Ping(2));
    w.install_faults(&FaultSchedule::new().at(1_000, FaultAction::Crash { pid: ProcessId(1) }));
    assert_eq!(w.run(), RunOutcome::Quiescent);
    let trace = w.trace();
    assert!(trace.iter().any(|e| matches!(e.kind, TraceKind::Send { .. })));
    assert!(trace.iter().any(|e| matches!(e.kind, TraceKind::Deliver { .. })));
    assert!(trace
        .iter()
        .any(|e| matches!(e.kind, TraceKind::Crash { pid } if pid == ProcessId(1))));
    // Chronologically ordered.
    assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
}

#[test]
fn determinism_under_heavy_fanout() {
    let run = |seed: u64| {
        let mut w = World::new(NetworkConfig::uniform(3, 97), seed);
        for i in 1..=20 {
            w.add_actor(ProcessId(i), Echo);
        }
        for i in 1..=19 {
            w.post(i as u64, ProcessId(i), ProcessId(i + 1), M::Ping(10));
        }
        w.run();
        (w.now(), w.metrics().messages_sent, w.metrics().messages_delivered)
    };
    assert_eq!(run(77), run(77));
    assert_eq!(run(78), run(78));
    assert_ne!(run(77).0, run(78).0);
}
