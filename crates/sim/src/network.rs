//! Network model: asynchronous channels with configurable delay
//! distributions, directed link cuts, gray-node inflation, duplication
//! and bounded reorder.
//!
//! The base model is the paper's: every message is delivered after a
//! delay in `[d, D]` (Section 4.4), or after a sample of a heavy-tailed
//! WAN profile. On top of that, [`NetworkConfig`] is a fault plane —
//! asymmetric partitions, per-node gray factors and probabilistic
//! duplication/reorder — changed mid-run only by [`crate::FaultAction`]s.
//! All sampling draws from the world's seeded RNG, so an execution stays
//! a deterministic function of (actors, injected events, seed, fault
//! schedule).

use crate::faults::FaultAction;
use ares_types::{ProcessId, Time};
use rand::rngs::StdRng;
use rand::RngExt;
use std::collections::{HashMap, HashSet};

/// Inclusive message-delay bounds `[d, D]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayBounds {
    /// Minimum delivery delay `d` (must be at least 1).
    pub min: Time,
    /// Maximum delivery delay `D` (`min <= max`).
    pub max: Time,
}

impl DelayBounds {
    /// Creates bounds, validating `1 <= min <= max`.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `min > max`.
    pub fn new(min: Time, max: Time) -> Self {
        assert!(min >= 1, "delays must be positive (messages are not instantaneous)");
        assert!(min <= max, "min delay must not exceed max delay");
        DelayBounds { min, max }
    }

    /// Samples a delay uniformly from `[min, max]`.
    pub fn sample(&self, rng: &mut StdRng) -> Time {
        if self.min == self.max {
            self.min
        } else {
            rng.random_range(self.min..=self.max)
        }
    }
}

/// A delivery-delay distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyModel {
    /// Uniform in `[min, max]` — the paper's `[d, D]` channel.
    Uniform(DelayBounds),
    /// Heavy-tailed WAN profile: uniform base delay, but with probability
    /// `tail_per_mille`/1000 the sample is stretched by a factor drawn
    /// uniformly from `[2, tail_mult]`. This is the mixture shape of real
    /// wide-area RTT distributions (a tight body with a fat tail from
    /// routing events, bufferbloat and loss recovery): most messages are
    /// fast, a few are 10–50× slower, and quorum waits feel the tail.
    HeavyTail {
        /// Body of the distribution.
        base: DelayBounds,
        /// Tail probability in 1/1000 units (must be <= 1000).
        tail_per_mille: u32,
        /// Maximum tail stretch factor (must be >= 2).
        tail_mult: Time,
    },
}

impl LatencyModel {
    /// The canonical WAN profile used by the chaos harness: body in
    /// `[min, max]`, 5% of messages stretched up to 20×.
    pub fn wan(min: Time, max: Time) -> Self {
        LatencyModel::HeavyTail {
            base: DelayBounds::new(min, max),
            tail_per_mille: 50,
            tail_mult: 20,
        }
    }

    /// Samples one delivery delay.
    pub fn sample(&self, rng: &mut StdRng) -> Time {
        match self {
            LatencyModel::Uniform(b) => b.sample(rng),
            LatencyModel::HeavyTail { base, tail_per_mille, tail_mult } => {
                let d = base.sample(rng);
                if rng.random_range(0..1000u32) < *tail_per_mille {
                    let mult = if *tail_mult <= 2 { 2 } else { rng.random_range(2..=*tail_mult) };
                    d.saturating_mul(mult)
                } else {
                    d
                }
            }
        }
    }
}

/// The network configuration of an execution — the sim-side fault plane.
///
/// Delay resolution for a message belonging to an operation of client
/// `c`: a per-client override for `c` wins (the paper's Section 4.4
/// worst-case constructions: "reconfiguration operations may communicate
/// respecting the minimum delay d, whereas read and write operations
/// suffer the maximum delay D"); else the default model applies. The
/// sampled delay is then inflated by the gray factors of both endpoints.
///
/// Cut links, gray factors and duplication/reorder rates change only
/// through [`NetworkConfig::apply`], which the world invokes from its
/// [`crate::FaultSchedule`].
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Latency model for messages without a per-client override.
    default: LatencyModel,
    /// Per-client overrides: messages of ops invoked by this client use
    /// these bounds instead.
    per_client: HashMap<ProcessId, DelayBounds>,
    /// Probability (in 1/1000 units) that a send is delivered twice, the
    /// copy at an independently sampled delay.
    pub(crate) duplicate_per_mille: u32,
    /// Probability (in 1/1000 units) that a message is held back an extra
    /// `1..=reorder_extra_max` units, letting later sends overtake it.
    pub(crate) reorder_per_mille: u32,
    /// Maximum extra holding delay for reordered messages.
    pub(crate) reorder_extra_max: Time,
    /// Directed dead links: `(from, to)` present means `from → to` drops.
    blocked: HashSet<(ProcessId, ProcessId)>,
    /// Gray nodes: delay inflation factor per process (absent = 1×).
    gray: HashMap<ProcessId, u32>,
}

impl NetworkConfig {
    /// Uniform delays in `[d, D]` for everyone.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `d > D`.
    pub fn uniform(d: Time, max_d: Time) -> Self {
        Self::with_model(LatencyModel::Uniform(DelayBounds::new(d, max_d)))
    }

    /// Constant delay `d` for everyone (degenerate `[d, d]`).
    pub fn constant(d: Time) -> Self {
        Self::uniform(d, d)
    }

    /// A network whose default link follows `model`.
    pub fn with_model(model: LatencyModel) -> Self {
        NetworkConfig {
            default: model,
            per_client: HashMap::new(),
            duplicate_per_mille: 0,
            reorder_per_mille: 0,
            reorder_extra_max: 0,
            blocked: HashSet::new(),
            gray: HashMap::new(),
        }
    }

    /// Adds a per-client delay class (builder style).
    #[must_use]
    pub fn with_client_bounds(mut self, client: ProcessId, bounds: DelayBounds) -> Self {
        self.per_client.insert(client, bounds);
        self
    }

    /// The latency model applying to a message of `op_client`'s operation.
    fn model_for(&self, op_client: Option<ProcessId>) -> LatencyModel {
        match op_client.and_then(|c| self.per_client.get(&c)) {
            Some(b) => LatencyModel::Uniform(*b),
            None => self.default,
        }
    }

    /// Samples the delivery delay for one message, including gray-node
    /// inflation of both endpoints.
    pub(crate) fn delay_for(
        &self,
        from: ProcessId,
        to: ProcessId,
        op_client: Option<ProcessId>,
        rng: &mut StdRng,
    ) -> Time {
        let base = self.model_for(op_client).sample(rng);
        let gray = (self.gray_factor(from) as Time).saturating_mul(self.gray_factor(to) as Time);
        base.saturating_mul(gray)
    }

    /// The gray factor of `pid` (1 = healthy).
    pub fn gray_factor(&self, pid: ProcessId) -> u32 {
        self.gray.get(&pid).copied().unwrap_or(1)
    }

    /// Whether the directed link `from → to` is currently cut.
    pub fn is_blocked(&self, from: ProcessId, to: ProcessId) -> bool {
        self.blocked.contains(&(from, to))
    }

    /// Applies one network-level fault action.
    ///
    /// `Crash`/`Recover` are process-level and ignored here — the world
    /// routes those to its own crash set before delegating the rest.
    pub fn apply(&mut self, action: &FaultAction) {
        match action {
            FaultAction::CutLink { from, to } => {
                self.blocked.insert((*from, *to));
            }
            FaultAction::CutBoth { a, b } => self.blocked.extend([(*a, *b), (*b, *a)]),
            FaultAction::Partition { groups } => {
                for (i, ga) in groups.iter().enumerate() {
                    for gb in &groups[i + 1..] {
                        for &a in ga {
                            self.blocked.extend(gb.iter().flat_map(|&b| [(a, b), (b, a)]));
                        }
                    }
                }
            }
            FaultAction::HealLink { from, to } => {
                self.blocked.remove(&(*from, *to));
            }
            FaultAction::HealAll => self.blocked.clear(),
            FaultAction::Grayify { pid, factor } if *factor > 1 => {
                self.gray.insert(*pid, *factor);
            }
            FaultAction::Grayify { pid, .. } | FaultAction::Ungray { pid } => {
                self.gray.remove(pid);
            }
            FaultAction::SetDuplication { per_mille } => self.duplicate_per_mille = *per_mille,
            FaultAction::SetReorder { per_mille, extra_max } => {
                self.reorder_per_mille = *per_mille;
                self.reorder_extra_max = *extra_max;
            }
            FaultAction::Crash { .. } | FaultAction::Recover { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_stays_in_bounds() {
        let b = DelayBounds::new(10, 30);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let d = b.sample(&mut rng);
            assert!((10..=30).contains(&d));
        }
    }

    #[test]
    fn constant_bounds_always_equal() {
        let b = DelayBounds::new(5, 5);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(b.sample(&mut rng), 5);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_delay_rejected() {
        DelayBounds::new(0, 5);
    }

    #[test]
    fn per_client_override_resolution() {
        let fast = DelayBounds::new(1, 2);
        let cfg = NetworkConfig::uniform(10, 20).with_client_bounds(ProcessId(9), fast);
        let default = LatencyModel::Uniform(DelayBounds::new(10, 20));
        assert_eq!(cfg.model_for(Some(ProcessId(9))), LatencyModel::Uniform(fast));
        assert_eq!(cfg.model_for(Some(ProcessId(1))), default);
        assert_eq!(cfg.model_for(None), default);
    }

    #[test]
    fn heavy_tail_mostly_body_sometimes_tail() {
        let m = LatencyModel::HeavyTail {
            base: DelayBounds::new(10, 20),
            tail_per_mille: 100,
            tail_mult: 30,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut body = 0u32;
        let mut tail = 0u32;
        for _ in 0..5000 {
            let d = m.sample(&mut rng);
            assert!((10..=20 * 30).contains(&d), "sample out of range: {d}");
            if d <= 20 {
                body += 1;
            } else {
                tail += 1;
            }
        }
        // ~10% tail probability: expect a clear majority body, nonzero tail.
        assert!(body > 4000, "body samples: {body}");
        assert!(tail > 200, "tail samples: {tail}");
    }

    #[test]
    fn heavy_tail_deterministic_given_seed() {
        let m = LatencyModel::wan(50, 150);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| m.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn cut_and_heal_links_are_directed() {
        let p = |n| ProcessId(n);
        let mut cfg = NetworkConfig::constant(5);
        cfg.apply(&FaultAction::CutLink { from: p(1), to: p(2) });
        assert!(cfg.is_blocked(p(1), p(2)));
        assert!(!cfg.is_blocked(p(2), p(1)), "reverse direction must stay alive");
        cfg.apply(&FaultAction::HealLink { from: p(1), to: p(2) });
        assert!(!cfg.is_blocked(p(1), p(2)));
    }

    #[test]
    fn partition_cuts_cross_group_links_only() {
        let p = |n| ProcessId(n);
        let mut cfg = NetworkConfig::constant(5);
        cfg.apply(&FaultAction::Partition { groups: vec![vec![p(1), p(2)], vec![p(3)]] });
        assert!(cfg.is_blocked(p(1), p(3)));
        assert!(cfg.is_blocked(p(3), p(2)));
        assert!(!cfg.is_blocked(p(1), p(2)), "intra-group link must survive");
        assert!(!cfg.is_blocked(p(1), p(4)), "unnamed processes are unaffected");
        cfg.apply(&FaultAction::HealAll);
        assert!(cfg.blocked.is_empty());
    }

    #[test]
    fn gray_factor_inflates_delay() {
        let p = |n| ProcessId(n);
        let mut cfg = NetworkConfig::constant(10);
        cfg.apply(&FaultAction::Grayify { pid: p(2), factor: 40 });
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(cfg.delay_for(p(1), p(2), None, &mut rng), 400);
        assert_eq!(cfg.delay_for(p(2), p(1), None, &mut rng), 400, "both directions inflate");
        assert_eq!(cfg.delay_for(p(1), p(3), None, &mut rng), 10, "other links unaffected");
        cfg.apply(&FaultAction::Ungray { pid: p(2) });
        assert_eq!(cfg.delay_for(p(1), p(2), None, &mut rng), 10);
    }

    #[test]
    fn apply_covers_network_actions() {
        let p = |n| ProcessId(n);
        let mut cfg = NetworkConfig::constant(5);
        cfg.apply(&FaultAction::CutBoth { a: p(1), b: p(2) });
        assert!(cfg.is_blocked(p(1), p(2)) && cfg.is_blocked(p(2), p(1)));
        cfg.apply(&FaultAction::Grayify { pid: p(3), factor: 25 });
        assert_eq!(cfg.gray_factor(p(3)), 25);
        cfg.apply(&FaultAction::SetDuplication { per_mille: 100 });
        cfg.apply(&FaultAction::SetReorder { per_mille: 200, extra_max: 77 });
        assert_eq!(cfg.duplicate_per_mille, 100);
        assert_eq!((cfg.reorder_per_mille, cfg.reorder_extra_max), (200, 77));
        cfg.apply(&FaultAction::HealAll);
        cfg.apply(&FaultAction::Ungray { pid: p(3) });
        assert!(cfg.blocked.is_empty());
        assert_eq!(cfg.gray_factor(p(3)), 1);
        // Process-level actions are a no-op at the network layer.
        cfg.apply(&FaultAction::Crash { pid: p(1) });
        assert!(!cfg.is_blocked(p(1), p(2)));
    }
}
