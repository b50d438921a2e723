//! The paper's theorems and lemmas, each reproduced by one experiment
//! (`DESIGN.md` §3 has the index, `EXPERIMENTS.md` the outcomes), plus
//! the check that every read and write of the real client costs what
//! `ares_core::cost` says.
//!
//! Each experiment renders the table it reproduces, asserts its theorem
//! or lemma while doing so, and compares the table with its golden,
//! `tests/golden/<module>.txt`. Every run is a seeded simulation, so a
//! table that moves means a protocol cost moved. A change that moves one
//! on purpose re-records the goldens:
//!
//! ```text
//! cargo test -p ares-bench --test experiments -- --ignored record
//! ```

mod ablation_quorum;
mod e01_storage;
mod e02_comm;
mod e03_abd_vs_treas;
mod e04_action_latency;
mod e05_read_config;
mod e06_recon_chain;
mod e07_rw_latency;
mod e08_catchup;
mod e09_fig1_trace;
mod e10_atomicity;
mod e11_state_transfer;
mod e12_delta_liveness;
mod op_cost;

use std::path::PathBuf;

/// Renders an experiment's table, asserting its theorem on the way.
type Table = fn() -> String;

/// Declares each experiment's test, `reproduces::<module>`, and its
/// entry in `EXPERIMENTS`, the list `record` re-records. (The modules
/// are declared outside the macro, where `cargo fmt` sees them.)
macro_rules! experiments {
    ($($name:ident),* $(,)?) => {
        const EXPERIMENTS: &[(&str, Table)] = &[$((stringify!($name), $name::table)),*];

        mod reproduces {
            $(#[test]
            fn $name() {
                super::check(stringify!($name), super::$name::table);
            })*
        }
    };
}

experiments!(
    e01_storage,
    e02_comm,
    e03_abd_vs_treas,
    e04_action_latency,
    e05_read_config,
    e06_recon_chain,
    e07_rw_latency,
    e08_catchup,
    e09_fig1_trace,
    e10_atomicity,
    e11_state_transfer,
    e12_delta_liveness,
    ablation_quorum,
);

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{name}.txt"))
}

/// Runs an experiment and compares its table with its golden.
fn check(name: &str, table: Table) {
    ares_bench::assert_golden(&golden(name), &table());
}

/// Re-records every golden (run on purpose, see the module doc).
#[test]
#[ignore = "rewrites tests/golden/*.txt"]
fn record() {
    for (name, table) in EXPERIMENTS {
        ares_bench::record_golden(&golden(name), &table());
    }
}
