//! Deterministic discrete-event simulator of the paper's system model.
//!
//! Section 2 of the paper assumes processes that "communicate via messages
//! through asynchronous, reliable channels" and may crash-fail; the latency
//! analysis of Section 4.4 further assumes every message takes between `d`
//! and `D` time units of an external global clock `T` that no process can
//! read. This crate implements exactly that model:
//!
//! * a virtual clock and an event queue processed in `(time, seq)` order —
//!   fully deterministic given a seed;
//! * reliable, asynchronous channels: every sent message is delivered after
//!   a delay sampled uniformly from `[d, D]` (unless the destination has
//!   crashed);
//! * crash faults: a crashed process silently stops taking steps;
//! * an adversarial fault plane beyond the paper's base model: a
//!   heavy-tailed WAN latency profile, asymmetric partitions, gray
//!   (slow-but-alive) nodes, recoveries, probabilistic duplication and
//!   bounded reorder — every fault, crashes included, scripted by a
//!   [`FaultSchedule`] installed with [`World::install_faults`], and
//!   still bit-deterministic given the seed;
//! * per-operation metrics (message counts and payload bytes), which is how
//!   the communication costs of Theorem 3 are measured;
//! * an optional structured trace used to regenerate Figure 1.
//!
//! Protocols plug in as [`Actor`]s exchanging a user-chosen message type
//! implementing [`SimMessage`].
//!
//! # Examples
//!
//! ```
//! use ares_sim::{Actor, Ctx, NetworkConfig, SimMessage, World};
//! use ares_types::ProcessId;
//!
//! #[derive(Clone, Debug)]
//! struct Ping(u32);
//! impl SimMessage for Ping {}
//!
//! struct Echo;
//! impl Actor<Ping> for Echo {
//!     fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
//!         if msg.0 > 0 {
//!             ctx.send(from, Ping(msg.0 - 1));
//!         }
//!     }
//! }
//!
//! let mut world = World::new(NetworkConfig::uniform(10, 20), 42);
//! world.add_actor(ProcessId(1), Echo);
//! world.add_actor(ProcessId(2), Echo);
//! world.post(0, ProcessId(1), ProcessId(2), Ping(5));
//! world.run();
//! assert!(world.now() >= 5 * 10, "five hops, each at least d=10");
//! ```

mod faults;
mod metrics;
mod network;
mod trace;
mod world;

pub use faults::{FaultAction, FaultEvent, FaultSchedule};
pub use metrics::{Metrics, OpMetrics};
pub use network::{DelayBounds, LatencyModel, NetworkConfig};
pub use trace::{TraceEvent, TraceKind};
pub use world::{Actor, Ctx, HostEffect, RunOutcome, World};

use ares_types::OpId;

/// A message type usable by the simulator.
///
/// `payload_bytes` is the *data* (non-metadata) size used for the
/// communication-cost accounting of Section 2 of the paper — tags, ids and
/// other metadata are "of negligible size" and excluded. `op` attributes
/// the message to a client operation so costs and delay classes can be
/// charged per operation.
pub trait SimMessage: Clone + std::fmt::Debug + 'static {
    /// Data payload size in bytes (0 for pure-metadata messages).
    fn payload_bytes(&self) -> u64 {
        0
    }

    /// The client operation this message belongs to, if any.
    fn op(&self) -> Option<OpId> {
        None
    }

    /// Short label for traces (defaults to the `Debug` variant name).
    fn label(&self) -> String {
        let dbg = format!("{self:?}");
        dbg.split([' ', '(', '{']).next().unwrap_or("msg").to_string()
    }
}
