//! Seeded input generation: the command stream and the arrival
//! schedule. Same seed, same inputs — bit for bit; the program under
//! test sees only the generated commands.

use crate::spec::{Load, Spec, READ_PERCENT};
use ares_core::ClientCmd;
use ares_types::{ObjectId, Value};
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// One generated command, compact enough to log per operation: the
/// value of a write is rebuilt from `value_seed` when it is submitted
/// and again when the run's reads are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    /// `read(obj)`
    Read {
        /// Target object.
        obj: u32,
    },
    /// `write(obj, Value::filler(size, value_seed))`
    Write {
        /// Target object.
        obj: u32,
        /// Seed of the value's bytes; unique per write of a run.
        value_seed: u64,
    },
}

impl GenOp {
    /// The object the command addresses.
    pub fn obj(&self) -> u32 {
        match *self {
            GenOp::Read { obj } | GenOp::Write { obj, .. } => obj,
        }
    }

    /// The command as the store takes it.
    pub fn to_cmd(&self, value_size: usize) -> ClientCmd {
        match *self {
            GenOp::Read { obj } => ClientCmd::Read { obj: ObjectId(obj) },
            GenOp::Write { obj, value_seed } => ClientCmd::Write {
                obj: ObjectId(obj),
                value: Value::filler(value_size, value_seed),
            },
        }
    }
}

/// Stream id of the writes that give every object its first value.
pub const PRELOAD_STREAM: u32 = 0xFFFF;

/// The value seed of write number `n` of stream `stream`: distinct for
/// every (stream, n), so every write of a run has its own digest and a
/// read can be matched to the write it returned.
pub fn value_seed(seed: u64, stream: u32, n: u64) -> u64 {
    assert!(n < 1 << 40, "stream {stream} exceeded 2^40 writes");
    (seed << 56) ^ ((stream as u64 + 1) << 40) ^ n
}

/// An endless command stream: uniform object choice, `READ_PERCENT`
/// reads. A closed-loop workload gives each session its own stream
/// (stream = session index); an open-loop workload draws every arrival
/// from stream 0.
#[derive(Debug, Clone)]
pub struct CommandStream {
    rng: StdRng,
    seed: u64,
    stream: u32,
    objects: u32,
    writes: u64,
}

impl CommandStream {
    /// Stream `stream` of the run seeded `seed` over `objects` objects.
    pub fn new(seed: u64, stream: u32, objects: u32) -> Self {
        let mix = seed ^ ((stream as u64 + 1) << 32) ^ 0xC0DE_0000_0000;
        CommandStream { rng: StdRng::seed_from_u64(mix), seed, stream, objects, writes: 0 }
    }

    /// The next command.
    pub fn next_op(&mut self) -> GenOp {
        let obj = self.rng.random_range(0..self.objects);
        if self.rng.random_range(0..100u32) < READ_PERCENT {
            GenOp::Read { obj }
        } else {
            let value_seed = value_seed(self.seed, self.stream, self.writes);
            self.writes += 1;
            GenOp::Write { obj, value_seed }
        }
    }
}

/// A Poisson arrival schedule: exponential gaps with the given mean,
/// as offsets in µs from the start of the run.
#[derive(Debug, Clone)]
pub struct Arrivals {
    rng: StdRng,
    mean_gap_us: f64,
    at_us: f64,
}

impl Arrivals {
    /// The schedule of the run seeded `seed` at `rate_per_s`.
    pub fn new(seed: u64, rate_per_s: u32) -> Self {
        Arrivals {
            rng: StdRng::seed_from_u64(seed ^ 0xA221_7A15_0000_0000),
            mean_gap_us: 1e6 / rate_per_s as f64,
            at_us: 0.0,
        }
    }

    /// The offset at which the next operation is due.
    pub fn next_due_us(&mut self) -> u64 {
        // 53 uniform bits in (0, 1]: the logarithm is finite.
        let u = ((self.rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        self.at_us += -u.ln() * self.mean_gap_us;
        self.at_us as u64
    }
}

/// The first `n` commands of `spec` under `seed`, with the session each
/// goes to and (open loop) the offset it is due at — what the sim twin
/// replays and what the determinism tests compare. A closed-loop
/// workload is listed round-robin over its sessions, which is the order
/// the sessions first submit in.
pub fn first_commands(spec: &Spec, seed: u64, n: usize) -> Vec<(usize, u64, GenOp)> {
    match spec.load {
        Load::Open { rate_per_s } => {
            let mut arrivals = Arrivals::new(seed, rate_per_s);
            let mut stream = CommandStream::new(seed, 0, spec.objects);
            (0..n).map(|i| (i % spec.sessions, arrivals.next_due_us(), stream.next_op())).collect()
        }
        Load::Closed => {
            let mut streams: Vec<CommandStream> = (0..spec.sessions)
                .map(|s| CommandStream::new(seed, s as u32, spec.objects))
                .collect();
            (0..n).map(|i| (i % spec.sessions, 0, streams[i % spec.sessions].next_op())).collect()
        }
    }
}
