//! Logical tags `τ = (z, w)` ordering writes (Section 2, "Tags").
//!
//! A tag pairs an integer `z ∈ N` with the id `w` of a writer; tags are
//! compared lexicographically: `τ2 > τ1` iff `τ2.z > τ1.z`, or
//! `τ2.z = τ1.z` and `τ2.w > τ1.w`. This yields the total order required
//! by every tag-based algorithm in the paper (ABD, LDR, TREAS, ARES).

use crate::ids::ProcessId;
use std::fmt;

/// A totally ordered logical tag `(z, w)`.
///
/// The derived lexicographic `Ord` (field order: `z` then `w`) is exactly
/// the paper's comparison rule.
///
/// # Examples
///
/// ```
/// use ares_types::{Tag, ProcessId};
///
/// let t0 = Tag::ZERO;
/// let t1 = t0.increment(ProcessId(3));
/// let t2 = t0.increment(ProcessId(5));
/// assert!(t1 > t0);
/// assert!(t2 > t1, "same z, ties broken by writer id");
/// assert!(t1.increment(ProcessId(0)) > t2, "higher z dominates");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tag {
    /// The integer (version) component `z`.
    pub z: u64,
    /// The writer-id component `w`.
    pub w: ProcessId,
}

impl Tag {
    /// The initial tag `t_0 = (0, ⊥)`; every real write exceeds it.
    pub const ZERO: Tag = Tag { z: 0, w: ProcessId(0) };

    /// Creates a tag from raw parts.
    pub fn new(z: u64, w: ProcessId) -> Self {
        Tag { z, w }
    }

    /// The paper's `inc(t)` performed by a writer `w`: `(t.z + 1, w)`.
    #[must_use]
    pub fn increment(&self, w: ProcessId) -> Tag {
        Tag { z: self.z + 1, w }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.z, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_minimum() {
        let t = Tag::new(0, ProcessId(0));
        assert_eq!(t, Tag::ZERO);
        assert!(Tag::new(0, ProcessId(1)) > Tag::ZERO);
        assert!(Tag::new(1, ProcessId(0)) > Tag::ZERO);
    }

    #[test]
    fn lexicographic_order() {
        assert!(Tag::new(2, ProcessId(0)) > Tag::new(1, ProcessId(9)));
        assert!(Tag::new(1, ProcessId(2)) > Tag::new(1, ProcessId(1)));
        assert_eq!(Tag::new(1, ProcessId(1)), Tag::new(1, ProcessId(1)));
    }

    #[test]
    fn increment_strictly_increases_regardless_of_writer() {
        let t = Tag::new(5, ProcessId(100));
        assert!(t.increment(ProcessId(0)) > t);
        assert_eq!(t.increment(ProcessId(7)), Tag::new(6, ProcessId(7)));
    }

    #[test]
    fn two_writers_incrementing_same_tag_produce_distinct_tags() {
        let t = Tag::new(3, ProcessId(1));
        let a = t.increment(ProcessId(10));
        let b = t.increment(ProcessId(11));
        assert_ne!(a, b);
        assert_eq!(a.z, b.z);
    }

    #[test]
    fn display() {
        assert_eq!(Tag::new(4, ProcessId(2)).to_string(), "(4,p2)");
    }
}
