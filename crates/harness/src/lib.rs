//! Test & experiment harness for the ARES reproduction.
//!
//! Three building blocks:
//!
//! * [`scenario`] — a declarative builder that assembles an ARES universe
//!   (configurations, clients, network, fault schedule, invocation
//!   schedule), runs it in the deterministic simulator and returns the
//!   completion history plus metrics;
//! * [`workload`] — seeded random workload generation (writers, readers,
//!   reconfigurers);
//! * [`atomicity`] — the checker for the paper's safety property: every
//!   execution history produced by a scenario can be verified atomic;
//! * [`store`] — the session-multiplexed [`SimStore`]: the
//!   `ares_core::store` API (cheap sessions, ticketed pipelined
//!   operations) over the deterministic simulator.
//!
//! The integration tests under `tests/` and the experiments in
//! `ares-bench` are built from these pieces.

pub mod atomicity;
pub mod linearize;
pub mod scenario;
pub mod store;
pub mod workload;

pub use atomicity::{check_atomicity, AtomicityReport, Violation};
pub use linearize::{check_linearizable, LinResult};
pub use scenario::{standard_registry, standard_universe, Invocation, Scenario, ScenarioResult};
pub use store::{SimSession, SimStore, SimStoreBuilder, SimTicket};
pub use workload::WorkloadSpec;

/// Runs `f` over `seeds` in parallel (one scoped thread per chunk of
/// seeds, chunked to the available parallelism) and collects the results
/// in seed order. Used by experiment sweeps.
pub fn par_seeds<T: Send>(seeds: &[u64], f: impl Fn(u64) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = Vec::with_capacity(seeds.len());
    out.resize_with(seeds.len(), || None);
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let chunk = seeds.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (seed_chunk, out_chunk) in seeds.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let f = &f;
            s.spawn(move || {
                for (seed, slot) in seed_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(*seed));
                }
            });
        }
    });
    out.into_iter().map(|o| o.expect("filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_seeds_preserves_order() {
        let seeds: Vec<u64> = (0..17).collect();
        let out = par_seeds(&seeds, |s| s * 2);
        assert_eq!(out, (0..17).map(|s| s * 2).collect::<Vec<_>>());
    }
}
