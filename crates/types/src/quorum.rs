//! Quorum systems `c.Quorums` defined on a configuration's servers.
//!
//! The paper uses two shapes of quorum system:
//!
//! * **majorities** — for ABD/LDR configurations and for the
//!   configuration-discovery service (`read-config` / `put-config` wait for
//!   "a quorum" of the configuration);
//! * **`⌈(n+k)/2⌉`-thresholds** — TREAS waits for `⌈(n+k)/2⌉` responses,
//!   with `k > n/3` (Theorem 9), tolerating `f ≤ (n−k)/2` crashes.
//!
//! Both are *threshold* systems, so quorum collection reduces to counting
//! distinct responders; intersection properties are provided as methods so
//! tests can assert them.

use std::fmt;

/// A threshold quorum system over `n` servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuorumSpec {
    /// Majorities: every set of `⌊n/2⌋ + 1` servers is a quorum.
    Majority,
    /// Fixed-size threshold: every set of exactly `m` servers is a quorum
    /// (TREAS uses `m = ⌈(n+k)/2⌉`).
    Threshold(usize),
}

impl QuorumSpec {
    /// The TREAS quorum size `⌈(n+k)/2⌉` for an `[n, k]` code.
    pub fn treas(n: usize, k: usize) -> QuorumSpec {
        QuorumSpec::Threshold((n + k).div_ceil(2))
    }

    /// Number of responses a client must collect out of `n` servers.
    pub fn quorum_size(&self, n: usize) -> usize {
        match self {
            QuorumSpec::Majority => n / 2 + 1,
            QuorumSpec::Threshold(m) => *m,
        }
    }

    /// Maximum number of crashed servers that still leaves a live quorum.
    pub fn fault_tolerance(&self, n: usize) -> usize {
        n.saturating_sub(self.quorum_size(n))
    }

    /// Whether any two quorums intersect — required for safety of every
    /// algorithm in the paper. For a threshold system this is `2m > n`.
    pub fn quorums_intersect(&self, n: usize) -> bool {
        2 * self.quorum_size(n) > n
    }

    /// Minimum guaranteed intersection size of two quorums (`2m − n`);
    /// TREAS needs this to be at least `k` so that a tag written to one
    /// quorum is decodable from any other.
    pub fn min_intersection(&self, n: usize) -> usize {
        (2 * self.quorum_size(n)).saturating_sub(n)
    }
}

impl fmt::Display for QuorumSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumSpec::Majority => write!(f, "majority"),
            QuorumSpec::Threshold(m) => write!(f, "threshold({m})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_sizes() {
        assert_eq!(QuorumSpec::Majority.quorum_size(3), 2);
        assert_eq!(QuorumSpec::Majority.quorum_size(4), 3);
        assert_eq!(QuorumSpec::Majority.quorum_size(5), 3);
        assert!(QuorumSpec::Majority.quorums_intersect(5));
    }

    #[test]
    fn treas_threshold_formula() {
        // n=5, k=4 -> ceil(9/2) = 5 ; n=9, k=7 -> 8
        assert_eq!(QuorumSpec::treas(5, 4), QuorumSpec::Threshold(5));
        assert_eq!(QuorumSpec::treas(9, 7), QuorumSpec::Threshold(8));
    }

    #[test]
    fn treas_intersection_at_least_k() {
        // |S1 ∩ S2| >= k, the property used in the proof of Lemma 5.
        for n in 3..=15usize {
            for k in (n / 3 + 1)..=n {
                let q = QuorumSpec::treas(n, k);
                assert!(q.quorums_intersect(n), "n={n} k={k}");
                assert!(q.min_intersection(n) >= k, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn treas_fault_tolerance_is_floor_n_minus_k_over_2() {
        // f <= (n-k)/2 per Section 3.1.
        for n in 3..=15usize {
            for k in (n / 3 + 1)..=n {
                let q = QuorumSpec::treas(n, k);
                assert_eq!(q.fault_tolerance(n), (n - k) / 2, "n={n} k={k}");
            }
        }
    }
}
