//! The metric registry: every name the benchmark can print, with its
//! unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! restates this table; `tests/contract.rs` holds the two together.

use crate::json::Json;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Dotted name; the prefix of a per-layer metric is its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// The end-to-end metrics: what a user of the store sees. Every
/// workload reports every one of them. All carry the largest bound the
/// contract allows, because on the shared 2-core VM this was built on
/// the same binary's runs differ by 20–40 % for minutes at a time;
/// latencies, which that moves most, are per-layer metrics (`series.*`)
/// for the same reason. See README.md, "Baseline".
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_op", "us", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// The per-layer metrics (layer = crate, plus the benchmark's own
/// `series`, `proc`, `gen` and `trace` views). No bounds: they explain
/// an end-to-end movement, they do not gate a change.
pub const PER_LAYER: [MetricDef; 75] = [
    // sim: the workload's twin in the simulator — exact, seed-repeatable.
    layer("sim.rounds_per_read", "count", Lower),
    layer("sim.rounds_per_write", "count", Lower),
    layer("sim.recon_rounds", "count", Lower),
    layer("sim.msgs_per_read", "count", Lower),
    layer("sim.msgs_per_write", "count", Lower),
    layer("sim.msgs_per_recon", "count", Lower),
    layer("sim.wire_bytes_per_user_byte_read", "B/B", Lower),
    layer("sim.wire_bytes_per_user_byte_write", "B/B", Lower),
    layer("sim.stored_bytes_per_user_byte", "B/B", Lower),
    layer("sim.events_per_op", "count", Lower),
    layer("sim.wall_us_per_op", "us", Lower),
    // net: server-node counters over the window, then isolated probes.
    layer("net.frames_routed_per_op", "count", Lower),
    layer("net.retransmit_factor", "ratio", Lower),
    layer("net.frames_per_flush", "count", Higher),
    layer("net.shard0_share", "ratio", Lower),
    layer("net.inbox_high_water", "count", Lower),
    layer("net.frames_abandoned", "count", Lower),
    layer("net.outbound_dropped", "count", Lower),
    layer("net.peer_queue_depth_max", "count", Lower),
    layer("net.loopback_rtt_us", "us", Lower),
    layer("net.hop_rtt_us", "us", Lower),
    layer("net.codec.encode_us_cfg", "us", Lower),
    layer("net.codec.encode_us_put_256b", "us", Lower),
    layer("net.codec.encode_us_put_64k", "us", Lower),
    layer("net.codec.decode_us_put_64k", "us", Lower),
    layer("net.codec.decode_us_list_64k", "us", Lower),
    // codes: isolated kernels.
    layer("codes.gf_mul_add_gib_s", "GiB/s", Higher),
    layer("codes.rs53_encode_us_256b", "us", Lower),
    layer("codes.rs53_encode_us_64k", "us", Lower),
    layer("codes.rs53_encode_mib_s_1m", "MiB/s", Higher),
    layer("codes.rs53_decode_us_64k_sys", "us", Lower),
    layer("codes.rs53_decode_us_64k_par", "us", Lower),
    // core: one ServerActor, no sockets.
    layer("core.apply_us_read_config", "us", Lower),
    layer("core.apply_us_query", "us", Lower),
    layer("core.apply_us_put_256b", "us", Lower),
    layer("core.apply_us_query_list_1k", "us", Lower),
    layer("core.shard_route_ns", "ns", Lower),
    // wal: isolated log, then the durable cluster's counters.
    layer("wal.append_us_256b_off", "us", Lower),
    layer("wal.append_sync_us_256b", "us", Lower),
    layer("wal.append_mib_s_64k_off", "MiB/s", Higher),
    layer("wal.replay_records_per_s", "1/s", Higher),
    layer("wal.checkpoint_ms_1m", "ms", Lower),
    layer("wal.records_per_write", "count", Lower),
    layer("wal.records_per_fsync", "count", Higher),
    layer("wal.bytes_per_user_byte", "B/B", Lower),
    layer("wal.checkpoints", "count", Lower),
    layer("wal.recover_ms", "ms", Lower),
    layer("wal.replay_records", "count", Lower),
    // consensus: the reconfigurations of the window.
    layer("consensus.recons_completed", "count", Higher),
    layer("consensus.recon_p50_ms", "ms", Lower),
    layer("consensus.recon_p99_ms", "ms", Lower),
    // series: how the window behaved over time.
    layer("series.ops_per_s_first", "1/s", Higher),
    layer("series.ops_per_s_last", "1/s", Higher),
    layer("series.drift_ratio", "ratio", Higher),
    layer("series.stall_max_ms", "ms", Lower),
    layer("series.read_p50_us", "us", Lower),
    layer("series.write_p50_us", "us", Lower),
    layer("series.read_p99_us", "us", Lower),
    layer("series.write_p99_us", "us", Lower),
    layer("series.read_p999_us", "us", Lower),
    // proc: where the CPU time went.
    layer("proc.user_us_per_op", "us", Lower),
    layer("proc.sys_us_per_op", "us", Lower),
    layer("proc.sys_share", "ratio", Lower),
    layer("proc.ctx_switches_per_op", "count", Lower),
    layer("proc.threads", "count", Lower),
    // gen: whether the generator kept its schedule.
    layer("gen.late_p99_us", "us", Lower),
    layer("gen.achieved_ops_per_s", "1/s", Higher),
    // harness: the cost of checking the history.
    layer("harness.check_ms", "ms", Lower),
    // trace: derived from the traced pass.
    layer("trace.quiescent_read_us", "us", Lower),
    layer("trace.quiescent_write_us", "us", Lower),
    layer("trace.model_write_us", "us", Lower),
    layer("trace.model_gap_share", "ratio", Lower),
    layer("trace.queue_share", "ratio", Lower),
    layer("trace.observe_lag_us", "us", Lower),
    layer("trace.overhead_share", "ratio", Lower),
];

/// The values of one run, keyed by registered name.
#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is recorded twice: a metric has one source.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.values.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The `metrics` object of the result line: every metric of `defs`,
    /// in registry order.
    ///
    /// # Errors
    ///
    /// Names the metrics of `defs` that were never recorded or are not
    /// finite; a run that cannot report a metric is not a result.
    pub fn to_json(&self, defs: &[MetricDef]) -> Result<Json, String> {
        let mut members = Vec::with_capacity(defs.len());
        let mut bad = Vec::new();
        for d in defs {
            match self.get(d.name) {
                Some(v) if v.is_finite() => members.push((
                    d.name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(d.unit.into())),
                    ]),
                )),
                _ => bad.push(d.name),
            }
        }
        if bad.is_empty() {
            Ok(Json::Obj(members))
        } else {
            Err(format!("metrics missing or not finite: {}", bad.join(", ")))
        }
    }

    /// Prints every recorded metric of `defs` by name with its unit.
    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            if let Some(v) = self.get(d.name) {
                println!("  {:<40} {:>16.4} {}", d.name, v, d.unit);
            }
        }
    }
}
