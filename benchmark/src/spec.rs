//! The five workloads, as data.
//!
//! Every workload runs TREAS `[5, 3]` with δ = 2 against an in-process
//! loopback cluster, driven by ONE thread over ONE `NetStore`: the host
//! has two cores, and a second driver thread would compete with the
//! servers it measures.

use ares_types::{ConfigId, Configuration, ProcessId};

/// Servers per configuration.
pub const N: usize = 5;
/// Code dimension: any `K` coded elements rebuild a value.
pub const K: usize = 3;
/// TREAS concurrency bound δ: a server keeps δ + 1 coded elements.
pub const DELTA: usize = 2;
/// The one client host every session is multiplexed onto.
pub const CLIENT_PID: u32 = 100;
/// Share of reads in every workload's command stream.
pub const READ_PERCENT: u32 = 50;
/// Configurations `recon_churn` walks through, after `c_0`.
pub const CHURN_CHAIN: u32 = 96;
/// Pause between a completed reconfiguration and the next, µs.
pub const CHURN_PAUSE_US: u64 = 250_000;

/// How operations are offered to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// Arrivals on a seeded Poisson schedule at this rate, whatever the
    /// store does: independent users. Latency is the sojourn from the
    /// *scheduled* arrival.
    Open {
        /// Mean arrivals per second.
        rate_per_s: u32,
    },
    /// Each session submits its next operation when the previous one
    /// completes: callers that wait for a reply.
    Closed,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// The name later issues cite.
    pub name: &'static str,
    /// Why the workload exists (one line; also in `BENCHMARK.json`).
    pub why: &'static str,
    /// Open or closed loop.
    pub load: Load,
    /// Logical client sessions.
    pub sessions: usize,
    /// Bytes per written value.
    pub value_size: usize,
    /// Objects, drawn uniformly.
    pub objects: u32,
    /// Event-loop shards per server node.
    pub shards: usize,
    /// Servers journal to a write-ahead log (`WalConfig::default()`).
    pub durable: bool,
    /// One extra session reconfigures along [`CHURN_CHAIN`] during the
    /// run.
    pub churn: bool,
}

/// The workloads, in the order they run.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "small_open",
        why: "open loop at 1,000 op/s, a quarter of saturation: latency when nothing queues, four round trips of per-frame fixed cost; codes, WAL and list growth do almost nothing",
        load: Load::Open { rate_per_s: 1000 },
        sessions: 16,
        value_size: 256,
        objects: 1024,
        shards: 1,
        durable: false,
        churn: false,
    },
    Spec {
        name: "small_sat",
        why: "closed loop, 64 sessions on 64 objects, 2 shards: capacity; CPU per frame, batching, shard routing, retransmit amplification and the growth of the TREAS tag list",
        load: Load::Closed,
        sessions: 64,
        value_size: 256,
        objects: 64,
        shards: 2,
        durable: false,
        churn: false,
    },
    Spec {
        name: "bulk_rw",
        why: "closed loop, 4 sessions of 64 KiB values: bytes moved; Reed-Solomon encode and decode, codec copies and socket writes, which small values bypass",
        load: Load::Closed,
        sessions: 4,
        value_size: 64 * 1024,
        objects: 4,
        shards: 1,
        durable: false,
        churn: false,
    },
    Spec {
        name: "durable_sat",
        why: "small_sat on one shard with a write-ahead log under batched fsync: the only workload where the WAL works; set against small_sat it prices durability",
        load: Load::Closed,
        sessions: 64,
        value_size: 256,
        objects: 64,
        shards: 1,
        durable: true,
        churn: false,
    },
    Spec {
        name: "recon_churn",
        why: "small_open's arrivals on 8 objects while a chain of 96 configurations is installed: service during reconfiguration; consensus, the read-config walk and state transfer run only here",
        load: Load::Open { rate_per_s: 1000 },
        sessions: 16,
        value_size: 256,
        objects: 8,
        shards: 1,
        durable: false,
        churn: true,
    },
];

/// TREAS `[5, 3]`, δ = 2, as configuration `id` on the five servers
/// starting at `first`.
pub fn treas53(id: u32, first: u32) -> Configuration {
    let servers = (first..first + N as u32).map(ProcessId).collect();
    Configuration::treas(ConfigId(id), servers, K, DELTA)
}

impl Spec {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The configurations the deployment registers, genesis first:
    /// `c_0` on servers 1–5 and, with churn, the chain `c_i` on servers
    /// `(i mod 3) + 1 ..= (i mod 3) + 5` (seven servers in all), so each
    /// step moves two servers.
    pub fn configs(&self) -> Vec<Configuration> {
        (0..=if self.churn { CHURN_CHAIN } else { 0 }).map(|i| treas53(i, i % 3 + 1)).collect()
    }
}
