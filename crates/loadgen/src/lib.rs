//! The load-driven experiments `benchmark/` does not cover.
//!
//! Sustained throughput, latency and per-layer cost are measured by the
//! standalone `benchmark/` package; this crate keeps the two
//! experiments that need a scripted incident rather than a steady load:
//!
//! * [`chaos`] — adversarial scenarios (WAN tails, duplication +
//!   reorder, gray nodes, asymmetric partitions, churn storms) over the
//!   simulator and a live loopback cluster, every history
//!   atomicity-checked and every simulator leg replayed from its seed;
//! * [`recovery`] — the crash-recovery A/B (WAL replay-then-delta-repair
//!   vs repair-from-zero).
//!
//! The `loadgen` binary runs them and emits `BENCH_chaos.json` and
//! `BENCH_recovery.json` (schemas in the repo README).

pub mod chaos;
mod hist;
pub mod json;
pub mod recovery;
pub mod zipf;

pub use chaos::{run_chaos_suite, ChaosReport, ChaosScenarioReport};
pub use hist::LatencyHistogram;
pub use recovery::{run_recovery, RecoveryMode, RecoveryRunReport, RecoverySpec};
pub use zipf::ZipfSampler;

use ares_core::store::{Store, StoreSession};
use ares_core::{ClientCmd, OpTicket};
use ares_types::{ObjectId, OpCompletion, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// Parameters of a closed-loop workload.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Number of closed-loop clients.
    pub clients: usize,
    /// Number of objects operations are spread over.
    pub objects: usize,
    /// Written / expected value size in bytes.
    pub value_size: usize,
    /// Percentage of operations that are reads (0..=100).
    pub read_percent: u32,
    /// Operations each client performs (bounds the run).
    pub ops_per_client: usize,
    /// Zipf skew of object popularity: `0.0` (default) draws objects
    /// uniformly; `0.99` is the classic YCSB hot-spot skew. Object `0`
    /// is the hottest rank.
    pub zipf_theta: f64,
    /// RNG seed (object choice, read/write mix, value contents).
    pub seed: u64,
}

impl Default for LoadSpec {
    fn default() -> Self {
        LoadSpec {
            clients: 4,
            objects: 4,
            value_size: 4096,
            read_percent: 50,
            ops_per_client: 50,
            zipf_theta: 0.0,
            seed: 1,
        }
    }
}

impl LoadSpec {
    /// Total operations the spec schedules.
    pub fn total_ops(&self) -> usize {
        self.clients * self.ops_per_client
    }

    /// The deterministic command sequence of client `index`.
    fn client_ops(&self, index: usize) -> Vec<ClientCmd> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ ((index as u64 + 1) << 32));
        let zipf = (self.zipf_theta > 0.0)
            .then(|| crate::zipf::ZipfSampler::new(self.objects.max(1), self.zipf_theta));
        (0..self.ops_per_client)
            .map(|op_i| {
                let obj = ObjectId(match &zipf {
                    Some(z) => z.sample(&mut rng) as u32,
                    None => rng.random_range(0..self.objects.max(1)) as u32,
                });
                if rng.random_range(0..100u32) < self.read_percent {
                    ClientCmd::Read { obj }
                } else {
                    // Globally unique value seed: checker-friendly
                    // (every write's digest is distinct).
                    let vseed =
                        self.seed ^ (((index as u64 + 1) << 40) | ((op_i as u64 + 1) << 8) | 1);
                    ClientCmd::Write { obj, value: Value::filler(self.value_size, vseed) }
                }
            })
            .collect()
    }
}

/// The closed-loop driver state of one session set: each session
/// submits its next command when its previous one completes.
struct SessionLoop<S: StoreSession> {
    sessions: Vec<S>,
    pending: Vec<VecDeque<ClientCmd>>,
    outstanding: Vec<Option<S::Ticket>>,
    completions: Vec<OpCompletion>,
}

impl<S: StoreSession> SessionLoop<S> {
    /// Opens one session per client stream and submits each stream's
    /// first command.
    fn start(store: &impl Store<Session = S>, spec: &LoadSpec) -> Self {
        let mut sessions: Vec<S> = (0..spec.clients).map(|_| store.open_session()).collect();
        let mut pending: Vec<VecDeque<ClientCmd>> =
            (0..spec.clients).map(|i| spec.client_ops(i).into()).collect();
        let outstanding = sessions
            .iter_mut()
            .zip(&mut pending)
            .map(|(s, q)| q.pop_front().map(|cmd| s.submit(cmd).expect("submit")))
            .collect();
        SessionLoop {
            sessions,
            pending,
            outstanding,
            completions: Vec::with_capacity(spec.total_ops()),
        }
    }

    fn done(&self) -> bool {
        self.outstanding.iter().all(Option::is_none)
    }

    /// One sweep: collect finished tickets, submit each freed session's
    /// next command.
    fn sweep(&mut self) {
        for i in 0..self.outstanding.len() {
            let Some(mut t) = self.outstanding[i].take() else { continue };
            match t.try_wait() {
                Some(res) => {
                    self.completions.push(res.expect("completions route Ok"));
                    self.outstanding[i] = self.pending[i]
                        .pop_front()
                        .map(|cmd| self.sessions[i].submit(cmd).expect("submit"));
                }
                None => self.outstanding[i] = Some(t),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_ops_are_deterministic_and_mixed() {
        let spec = LoadSpec { ops_per_client: 40, read_percent: 50, ..LoadSpec::default() };
        let a = spec.client_ops(0);
        let b = spec.client_ops(0);
        assert_eq!(a.len(), 40);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        let reads = a.iter().filter(|c| matches!(c, ClientCmd::Read { .. })).count();
        assert!(reads > 5 && reads < 35, "mix should hover around 50% (got {reads}/40)");
        // distinct clients draw distinct streams
        let c = spec.client_ops(1);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn write_values_are_globally_unique() {
        let spec = LoadSpec { read_percent: 0, ops_per_client: 20, ..LoadSpec::default() };
        let mut digests = std::collections::HashSet::new();
        for index in 0..spec.clients {
            for cmd in spec.client_ops(index) {
                if let ClientCmd::Write { value, .. } = cmd {
                    assert!(digests.insert(value.digest()), "duplicate write value");
                }
            }
        }
    }
}
