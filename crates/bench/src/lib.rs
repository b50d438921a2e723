//! Shared utilities for the experiment binaries that regenerate the
//! paper's tables and figures (see `DESIGN.md` §3 for the experiment
//! index and `EXPERIMENTS.md` for recorded results).

use ares_dap::server::DapServer;
use ares_dap::template::{RegisterOp, StaticClientActor, StaticMsg, StaticServerActor};
use ares_sim::{NetworkConfig, World};
use ares_types::{ConfigRegistry, Configuration, ObjectId, OpCompletion, ProcessId, Time, Value};
use std::sync::Arc;

/// The environment pseudo-process.
pub const ENV: ProcessId = ProcessId(0);

/// Simple aggregate statistics of a sample.
#[derive(Debug, Clone, Copy)]
pub struct Stats {
    /// Number of samples.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

impl Stats {
    /// Computes stats over a sample; all-zero for empty input.
    pub fn of(samples: impl IntoIterator<Item = f64>) -> Stats {
        let mut n = 0usize;
        let (mut min, mut max, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for s in samples {
            n += 1;
            min = min.min(s);
            max = max.max(s);
            sum += s;
        }
        if n == 0 {
            return Stats { n, min: 0.0, mean: 0.0, max: 0.0 };
        }
        Stats { n, min, mean: sum / n as f64, max }
    }
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style header plus separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

/// A ready-to-run *static* register world (one configuration, no
/// reconfiguration) with `writers + readers` clients — the measurement
/// rig for the TREAS cost theorems.
pub struct StaticRig {
    /// The simulation world.
    pub world: World<StaticMsg>,
    /// Server ids.
    pub servers: Vec<ProcessId>,
    /// Writer client ids.
    pub writers: Vec<ProcessId>,
    /// Reader client ids.
    pub readers: Vec<ProcessId>,
}

impl StaticRig {
    /// Builds the rig for `cfg` with the given client counts.
    pub fn new(
        cfg: Configuration,
        n_writers: usize,
        n_readers: usize,
        d: Time,
        big_d: Time,
        seed: u64,
    ) -> Self {
        let id = cfg.id;
        let servers = cfg.servers.clone();
        let reg = ConfigRegistry::from_configs([cfg]);
        let cfg: Arc<Configuration> = reg.get(id).clone();
        let mut world = World::new(NetworkConfig::uniform(d, big_d), seed);
        for &s in &servers {
            world.add_actor(s, StaticServerActor::new(DapServer::new(s, reg.clone())));
        }
        let writers: Vec<ProcessId> = (0..n_writers as u32).map(|i| ProcessId(100 + i)).collect();
        let readers: Vec<ProcessId> = (0..n_readers as u32).map(|i| ProcessId(150 + i)).collect();
        for &c in writers.iter().chain(&readers) {
            world.add_actor(c, StaticClientActor::new(cfg.clone(), ObjectId(0)));
        }
        StaticRig { world, servers, writers, readers }
    }

    /// Schedules a write of a fresh `size`-byte value.
    pub fn write(&mut self, at: Time, writer: usize, size: usize, seed: u64) {
        let w = self.writers[writer];
        self.world.post(
            at,
            ENV,
            w,
            StaticMsg::Invoke(RegisterOp::Write(Value::filler(size, seed))),
        );
    }

    /// Schedules a read.
    pub fn read(&mut self, at: Time, reader: usize) {
        let r = self.readers[reader];
        self.world.post(at, ENV, r, StaticMsg::Invoke(RegisterOp::Read));
    }

    /// Runs to quiescence and returns the history.
    pub fn run(&mut self) -> Vec<OpCompletion> {
        self.world.run();
        self.world.completions().to_vec()
    }

    /// Total stored object bytes across all servers.
    pub fn total_storage(&self) -> u64 {
        self.servers
            .iter()
            .filter_map(|&s| self.world.actor_as::<StaticServerActor>(s))
            .map(|a| a.storage_bytes())
            .sum()
    }

    /// Maximum stored object bytes on any single server.
    pub fn max_server_storage(&self) -> u64 {
        self.servers
            .iter()
            .filter_map(|&s| self.world.actor_as::<StaticServerActor>(s))
            .map(|a| a.storage_bytes())
            .max()
            .unwrap_or(0)
    }
}

/// Extracts per-action durations from a traced ARES run: returns
/// `(action_name, duration)` for every balanced `+name` / `-name` note
/// pair of one client.
pub fn action_durations(trace: &[ares_sim::TraceEvent], client: ProcessId) -> Vec<(String, Time)> {
    let mut stack: Vec<(String, Time)> = Vec::new();
    let mut out = Vec::new();
    for ev in trace {
        let ares_sim::TraceKind::Note { pid, text } = &ev.kind else { continue };
        if *pid != client {
            continue;
        }
        if let Some(name) = text.strip_prefix('+') {
            stack.push((name.to_string(), ev.at));
        } else if let Some(name) = text.strip_prefix('-') {
            if let Some((n, t0)) = stack.pop() {
                assert_eq!(n, name, "`+name`/`-name` notes must nest");
                out.push((n, ev.at - t0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::ConfigId;

    #[test]
    fn stats_basics() {
        let s = Stats::of([1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(Stats::of([]).n, 0);
    }

    #[test]
    fn static_rig_round_trips() {
        let cfg = Configuration::treas(ConfigId(0), (1..=5).map(ProcessId).collect(), 3, 2);
        let mut rig = StaticRig::new(cfg, 1, 1, 10, 50, 1);
        rig.write(0, 0, 60, 7);
        rig.read(1_000, 0);
        let h = rig.run();
        assert_eq!(h.len(), 2);
        assert!(rig.total_storage() > 0);
        assert!(rig.max_server_storage() >= 20); // ceil(60/3)
    }
}
