//! The sim twin: a workload's first commands replayed in the
//! deterministic simulator at a constant one-way delay `d`, which turns
//! the paper's cost statements into counts that repeat exactly —
//! rounds (latency ÷ 2d), messages and payload bytes per operation
//! (Theorem 3), bytes stored per user byte.
//!
//! Each session is one simulated client executing its commands in
//! order; open-loop commands are posted at their due times, closed-loop
//! commands all at once. Before them, every object is written δ + 1
//! times, so every server `List` is full and the steady state *is*
//! Theorem 3's worst case: the counts can be compared with the formulas
//! for equality, not just as bounds.

use crate::gen::{first_commands, value_seed, GenOp, PRELOAD_STREAM};
use crate::spec::{Spec, CHURN_CHAIN, CHURN_PAUSE_US, CLIENT_PID, DELTA, K, N};
use ares_harness::Scenario;
use ares_sim::RunOutcome;
use ares_types::{OpCompletion, OpKind, Time, Value};
use std::time::Instant;

/// The constant one-way message delay, in simulated µs. The clients'
/// first retransmission fires after 4 × max(50, D) = 400 > 2·D, so no
/// healthy phase is ever restarted.
pub const D: Time = 100;
/// Simulated client that walks the configuration chain.
const RECON_CLIENT: u32 = 200;

/// What the twin measured. Field names match the `sim.*` metrics.
#[derive(Debug, Clone)]
pub struct Twin {
    /// Mean read latency ÷ 2d.
    pub rounds_per_read: f64,
    /// Mean write latency ÷ 2d.
    pub rounds_per_write: f64,
    /// Mean reconfiguration latency ÷ 2d (0 without churn).
    pub recon_rounds: f64,
    /// Mean messages sent on behalf of a read.
    pub msgs_per_read: f64,
    /// Mean messages sent on behalf of a write.
    pub msgs_per_write: f64,
    /// Mean messages sent on behalf of a reconfiguration.
    pub msgs_per_recon: f64,
    /// Payload bytes on the wire per byte a read returned.
    pub wire_bytes_per_user_byte_read: f64,
    /// Payload bytes on the wire per byte a write stored.
    pub wire_bytes_per_user_byte_write: f64,
    /// Bytes held by all servers per byte of live user data.
    pub stored_bytes_per_user_byte: f64,
    /// Simulator events per completed operation (preload included).
    pub events_per_op: f64,
    /// Wall time of the simulation per completed operation, µs: the
    /// protocol stack's CPU cost with no sockets and no threads.
    pub wall_us_per_op: f64,
    /// Reads, writes and reconfigurations measured.
    pub counted: (usize, usize, usize),
}

impl Twin {
    /// What Theorem 3 and the four-round structure of an ARES operation
    /// predict for `spec` in the steady state, as
    /// `(metric, expected value)`. Coded elements are `⌈size / k⌉`
    /// bytes, so the byte ratios sit a padding above n/k.
    pub fn expectations(spec: &Spec) -> Vec<(&'static str, f64)> {
        let element = spec.value_size.div_ceil(K) as f64;
        let per_user_byte = |elements: usize| elements as f64 * element / spec.value_size as f64;
        vec![
            ("sim.rounds_per_read", 4.0),
            ("sim.rounds_per_write", 4.0),
            ("sim.msgs_per_read", (8 * N) as f64),
            ("sim.msgs_per_write", (8 * N) as f64),
            ("sim.wire_bytes_per_user_byte_write", per_user_byte(N)),
            ("sim.wire_bytes_per_user_byte_read", per_user_byte((DELTA + 2) * N)),
            ("sim.stored_bytes_per_user_byte", per_user_byte((DELTA + 1) * N)),
        ]
    }

    /// Every `sim.*` metric as `(name, value)`, in registry order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim.rounds_per_read", self.rounds_per_read),
            ("sim.rounds_per_write", self.rounds_per_write),
            ("sim.recon_rounds", self.recon_rounds),
            ("sim.msgs_per_read", self.msgs_per_read),
            ("sim.msgs_per_write", self.msgs_per_write),
            ("sim.msgs_per_recon", self.msgs_per_recon),
            ("sim.wire_bytes_per_user_byte_read", self.wire_bytes_per_user_byte_read),
            ("sim.wire_bytes_per_user_byte_write", self.wire_bytes_per_user_byte_write),
            ("sim.stored_bytes_per_user_byte", self.stored_bytes_per_user_byte),
            ("sim.events_per_op", self.events_per_op),
            ("sim.wall_us_per_op", self.wall_us_per_op),
        ]
    }

    /// The measured value of one `sim.*` metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics().into_iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }
}

/// Replays the first `commands` commands of `spec` under `seed`.
///
/// # Errors
///
/// The simulation not running to quiescence, an operation missing, or
/// a history that is not atomic.
pub fn run(spec: &Spec, seed: u64, commands: usize) -> Result<Twin, String> {
    let client = |session: usize| CLIENT_PID + session as u32;
    let mut scenario = Scenario::new(spec.configs())
        .delays(D, D)
        .seed(seed)
        .clients((0..spec.sessions).map(client))
        .clients([RECON_CLIENT]);

    // Fill every List: δ + 1 writes per object, spread over the clients,
    // each client working through its share from time 0.
    let fills = (DELTA + 1) * spec.objects as usize;
    for i in 0..fills {
        let obj = (i % spec.objects as usize) as u32;
        let value = Value::filler(spec.value_size, value_seed(seed, PRELOAD_STREAM, i as u64));
        scenario = scenario.write_at(0, client(i % spec.sessions), obj, value);
    }
    // An operation takes four round trips of 2·D; start the commands
    // once the longest share is through, with one operation to spare.
    let start = (fills.div_ceil(spec.sessions) as Time + 1) * 8 * D;

    let mut last_due = 0;
    for (session, due, op) in first_commands(spec, seed, commands) {
        last_due = last_due.max(due);
        let at = start + due;
        scenario = match op {
            GenOp::Read { obj } => scenario.read_at(at, client(session), obj),
            GenOp::Write { obj, value_seed } => scenario.write_at(
                at,
                client(session),
                obj,
                Value::filler(spec.value_size, value_seed),
            ),
        };
    }
    let mut recons = 0;
    if spec.churn {
        // One reconfiguration per pause while the commands arrive.
        recons = ((last_due / CHURN_PAUSE_US) as u32).clamp(1, CHURN_CHAIN);
        for j in 1..=recons {
            scenario = scenario.recon_at(start + j as Time * CHURN_PAUSE_US, RECON_CLIENT, j);
        }
    }

    let scheduled = fills + commands + recons as usize;
    let began = Instant::now();
    let result = scenario.run();
    let wall_us = began.elapsed().as_secs_f64() * 1e6;

    if result.outcome != RunOutcome::Quiescent {
        return Err(format!("sim twin stopped with {:?}", result.outcome));
    }
    if result.completions.len() != scheduled {
        return Err(format!(
            "sim twin completed {} of {scheduled} operations",
            result.completions.len()
        ));
    }
    let report = ares_harness::check_atomicity(&result.completions);
    if let Some(v) = report.violations.first() {
        return Err(format!("sim twin history is not atomic: {v}"));
    }

    let measured: Vec<&OpCompletion> =
        result.completions.iter().filter(|c| c.invoked_at >= start).collect();
    let of = |kind: OpKind| -> Vec<&OpCompletion> {
        measured.iter().copied().filter(|c| c.kind == kind).collect()
    };
    let (reads, writes, recon_ops) = (of(OpKind::Read), of(OpKind::Write), of(OpKind::Recon));
    let mean = |ops: &[&OpCompletion], f: &dyn Fn(&OpCompletion) -> u64| -> f64 {
        if ops.is_empty() {
            0.0
        } else {
            ops.iter().map(|c| f(c)).sum::<u64>() as f64 / ops.len() as f64
        }
    };
    let rounds = |ops: &[&OpCompletion]| mean(ops, &|c| c.latency()) / (2 * D) as f64;
    let msgs = |ops: &[&OpCompletion]| mean(ops, &|c| c.messages);
    let wire = |ops: &[&OpCompletion]| mean(ops, &|c| c.payload_bytes) / spec.value_size as f64;
    let ops_total = result.completions.len() as f64;
    Ok(Twin {
        rounds_per_read: rounds(&reads),
        rounds_per_write: rounds(&writes),
        recon_rounds: rounds(&recon_ops),
        msgs_per_read: msgs(&reads),
        msgs_per_write: msgs(&writes),
        msgs_per_recon: msgs(&recon_ops),
        wire_bytes_per_user_byte_read: wire(&reads),
        wire_bytes_per_user_byte_write: wire(&writes),
        stored_bytes_per_user_byte: result.total_storage_bytes() as f64
            / (spec.objects as f64 * spec.value_size as f64),
        events_per_op: result.events_processed as f64 / ops_total,
        wall_us_per_op: wall_us / ops_total,
        counted: (reads.len(), writes.len(), recon_ops.len()),
    })
}
