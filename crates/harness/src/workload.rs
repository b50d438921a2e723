//! Randomized workload generation for soak tests and experiments.
//!
//! Produces deterministic (seeded) schedules of reads, writes and
//! reconfigurations, with Poisson-ish arrival spacing, that the scenario
//! runner injects into the simulation.

use crate::scenario::Invocation;
use ares_core::ClientCmd;
use ares_types::{ConfigId, ObjectId, ProcessId, Time, Value};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of a randomized workload.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Writer client ids.
    pub writers: Vec<u32>,
    /// Reader client ids.
    pub readers: Vec<u32>,
    /// Reconfigurer client ids (empty = no reconfigurations).
    pub reconfigurers: Vec<u32>,
    /// Configurations reconfigurers cycle through (beyond the genesis).
    pub recon_targets: Vec<u32>,
    /// Operations per writer.
    pub writes_per_writer: usize,
    /// Operations per reader.
    pub reads_per_reader: usize,
    /// Mean gap between consecutive invocations of one client.
    pub mean_gap: Time,
    /// Value size in bytes.
    pub value_size: usize,
    /// Objects to spread operations over.
    pub objects: Vec<u32>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            writers: vec![100, 101],
            readers: vec![110, 111],
            reconfigurers: vec![],
            recon_targets: vec![],
            writes_per_writer: 5,
            reads_per_reader: 5,
            mean_gap: 500,
            value_size: 64,
            objects: vec![0],
            seed: 0,
        }
    }
}

impl WorkloadSpec {
    /// All client ids that participate.
    pub fn client_ids(&self) -> Vec<u32> {
        let mut v = self.writers.clone();
        v.extend(&self.readers);
        v.extend(&self.reconfigurers);
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Generates the invocation schedule.
    pub fn generate(&self) -> Vec<Invocation> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut invs = Vec::new();
        let gap = |rng: &mut StdRng| -> Time {
            // Geometric-ish spacing around the mean.
            1 + rng.random_range(0..=self.mean_gap * 2)
        };
        let mut value_seed = self.seed.wrapping_mul(1_000_003);

        for &wtr in &self.writers {
            let mut t = gap(&mut rng);
            for _ in 0..self.writes_per_writer {
                let obj = self.objects[rng.random_range(0..self.objects.len())];
                value_seed = value_seed.wrapping_add(1);
                invs.push(Invocation {
                    at: t,
                    client: ProcessId(wtr),
                    cmd: ClientCmd::Write {
                        obj: ObjectId(obj),
                        value: Value::filler(self.value_size, value_seed),
                    },
                });
                t += gap(&mut rng);
            }
        }
        for &rdr in &self.readers {
            let mut t = gap(&mut rng);
            for _ in 0..self.reads_per_reader {
                let obj = self.objects[rng.random_range(0..self.objects.len())];
                invs.push(Invocation {
                    at: t,
                    client: ProcessId(rdr),
                    cmd: ClientCmd::Read { obj: ObjectId(obj) },
                });
                t += gap(&mut rng);
            }
        }
        // Reconfigurers walk through the target list round-robin; each
        // target may be installed at most once per execution (the
        // paper's assumption), so targets are not reused.
        let mut targets = self.recon_targets.iter().copied();
        'outer: for &rc in self.reconfigurers.iter().cycle() {
            let Some(target) = targets.next() else { break 'outer };
            let t = gap(&mut rng) * 2;
            invs.push(Invocation {
                at: t,
                client: ProcessId(rc),
                cmd: ClientCmd::Recon { target: ConfigId(target) },
            });
            if self.reconfigurers.is_empty() {
                break;
            }
        }
        invs.sort_by_key(|i| (i.at, i.client));
        invs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec { seed: 42, ..WorkloadSpec::default() };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.client, y.client);
        }
    }

    #[test]
    fn counts_match_spec() {
        let spec = WorkloadSpec {
            writers: vec![1, 2],
            readers: vec![3],
            reconfigurers: vec![4],
            recon_targets: vec![7, 8],
            writes_per_writer: 3,
            reads_per_reader: 4,
            ..WorkloadSpec::default()
        };
        let invs = spec.generate();
        let writes = invs.iter().filter(|i| matches!(i.cmd, ClientCmd::Write { .. })).count();
        let reads = invs.iter().filter(|i| matches!(i.cmd, ClientCmd::Read { .. })).count();
        let recons = invs.iter().filter(|i| matches!(i.cmd, ClientCmd::Recon { .. })).count();
        assert_eq!(writes, 6);
        assert_eq!(reads, 4);
        assert_eq!(recons, 2);
    }

    #[test]
    fn unique_write_values() {
        // 10k values: the word-wide digest must keep them all apart.
        let spec = WorkloadSpec { writes_per_writer: 5_000, ..WorkloadSpec::default() };
        let invs = spec.generate();
        let mut digests = std::collections::HashSet::new();
        for i in &invs {
            if let ClientCmd::Write { value, .. } = &i.cmd {
                assert!(digests.insert(value.digest()), "write values must be unique");
            }
        }
    }
}
