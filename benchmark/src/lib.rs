//! The ARES benchmark: five sustained workloads against an in-process
//! loopback cluster, nine end-to-end metrics, and an outside-in suite
//! of layer probes — everything measured through the public functions
//! of the crates under test, so no file outside this package changes.
//!
//! `README.md` beside this package says why each workload exists, which
//! layer metric should move which end-to-end metric, and how to read
//! the trace file. The entry points are `run.sh` (one command, every
//! metric) and `repeat.sh` (run-to-run spread against the bounds).

pub mod driver;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod procfs;
pub mod run;
pub mod simtwin;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;
