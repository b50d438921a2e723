//! Erasure-coding substrate for the ARES / TREAS reproduction.
//!
//! The paper ("ARES: Adaptive, Reconfigurable, Erasure coded, atomic
//! Storage", Cadambe et al.) assumes an `[n, k]` linear MDS code `Φ` over a
//! finite field: a value of size 1 unit is encoded into `n` coded elements
//! of size `1/k` each, any `k` of which reconstruct the value. This crate
//! provides that substrate from scratch:
//!
//! * [`gf256`] — arithmetic over GF(2^8);
//! * [`matrix`] — dense matrix algebra over GF(2^8);
//! * [`reed_solomon`] — a systematic Vandermonde-based `[n, k]` MDS code;
//! * [`replication`] — full replication as the degenerate `[n, 1]` code,
//!   used by the ABD/LDR baselines.
//!
//! Everything is deterministic and allocation-light; the encode/decode hot
//! loops reduce to the GF(256) slice kernels in [`gf256`].
//!
//! # Examples
//!
//! ```
//! use ares_codes::{ErasureCode, reed_solomon::ReedSolomon};
//!
//! # fn main() -> Result<(), ares_codes::CodeError> {
//! let code = ReedSolomon::new(6, 4)?; // [n=6, k=4] as in a TREAS config
//! let frags = code.encode(b"atomic register state");
//! assert_eq!(frags.len(), 6);
//! // lose two fragments, still decodable:
//! let surviving = [&frags[1], &frags[2], &frags[4], &frags[5]].map(Clone::clone);
//! assert_eq!(code.decode(&surviving)?, b"atomic register state");
//! # Ok(())
//! # }
//! ```

pub mod gf256;
pub mod matrix;
pub mod reed_solomon;
pub mod replication;

use bytes::Bytes;
use std::fmt;

/// The `[n, k]` parameters of a code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodeParams {
    /// Total number of coded elements (one per server).
    pub n: usize,
    /// Number of elements required to reconstruct the value.
    pub k: usize,
}

impl CodeParams {
    /// Normalized per-fragment storage cost `1/k` (value size 1 unit).
    pub fn fragment_cost(&self) -> f64 {
        1.0 / self.k as f64
    }

    /// Normalized total storage cost `n/k` for one copy of each fragment.
    pub fn total_cost(&self) -> f64 {
        self.n as f64 / self.k as f64
    }
}

impl fmt::Display for CodeParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.n, self.k)
    }
}

/// One coded element `c_i = Φ_i(v)`, tagged with its position in the
/// codeword and the original value length (needed to strip stripe padding).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Fragment {
    /// Position `i` of this element in the codeword (0-based; the paper's
    /// association "coded element `c_i` with server `i`").
    pub index: usize,
    /// Length in bytes of the original value.
    pub value_len: usize,
    /// The coded bytes (`ceil(value_len / k)` of them).
    pub data: Bytes,
}

impl Fragment {
    /// Size of the coded payload in bytes (what a server actually stores).
    pub fn storage_bytes(&self) -> usize {
        self.data.len()
    }
}

/// A view may pin at most `len / PIN_SLACK_DIVISOR` bytes beyond its
/// own before [`compact_bytes`] copies it.
const PIN_SLACK_DIVISOR: usize = 8;

/// The one rule for what a long-lived store keeps of a received view:
/// when its backing allocation ([`Bytes::backing_len`]) holds more than
/// an eighth beyond the view, the bytes are copied into a tight
/// allocation of their own; otherwise the view is kept as it is. A
/// small element or value always qualifies (a 256 B value's `[5, 3]`
/// element is 86 bytes in a frame of ≈ 150, or a third of the value it
/// was encoded from); a bulk one on its own frame does not (≈ 70 spare
/// bytes on 21,846), so it stays zero-copy.
pub fn compact_bytes(data: Bytes) -> Bytes {
    if data.backing_len().saturating_sub(data.len()) > data.len() / PIN_SLACK_DIVISOR {
        Bytes::copy_from_slice(&data)
    } else {
        data
    }
}

/// What bytes kept in an allocation of their own cost beyond themselves:
/// the [`Bytes`] view (24 B), the count and vector header behind it
/// (40 B), and the allocator's header of each of those two blocks.
const OWN_ALLOCATION_COST: usize = 96;

/// The pack-or-view rule of a store that packs elements into one buffer
/// per object (a TREAS server's list): `len` bytes are *bulk*, worth an
/// allocation of their own that [`compact_bytes`] keeps, iff that
/// allocation's fixed cost is within the eighth beyond its bytes that
/// [`compact_bytes`] lets a view pin — from 768 B on. Shorter ones are
/// copied into the store's buffer. So a 256 B value's `[5, 3]` element
/// (86 B) is packed, and a 64 KiB value's (21,846 B) stays on its frame.
pub fn is_bulk(len: usize) -> bool {
    len / PIN_SLACK_DIVISOR >= OWN_ALLOCATION_COST
}

/// Errors produced by encoding/decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeError {
    /// Parameters violate `1 <= k <= n <= 256`.
    InvalidParams {
        /// Requested codeword length.
        n: usize,
        /// Requested reconstruction threshold.
        k: usize,
    },
    /// Fewer than `k` distinct fragments supplied.
    NotEnoughFragments {
        /// Distinct fragments available.
        have: usize,
        /// Fragments required (`k`).
        need: usize,
    },
    /// A fragment's index is outside `0..n`.
    BadFragmentIndex {
        /// The offending index.
        index: usize,
        /// Codeword length.
        n: usize,
    },
    /// Fragments disagree on value length or shard size.
    InconsistentFragments,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::InvalidParams { n, k } => {
                write!(f, "invalid code parameters [n={n}, k={k}]")
            }
            CodeError::NotEnoughFragments { have, need } => {
                write!(f, "not enough fragments to decode: have {have}, need {need}")
            }
            CodeError::BadFragmentIndex { index, n } => {
                write!(f, "fragment index {index} out of range for n={n}")
            }
            CodeError::InconsistentFragments => {
                write!(f, "fragments disagree on value length or shard size")
            }
        }
    }
}

impl std::error::Error for CodeError {}

/// An `[n, k]` erasure code: encode a value into `n` fragments, decode from
/// any `k` of them.
///
/// Implemented by [`reed_solomon::ReedSolomon`] (true MDS coding) and
/// [`replication::Replication`] (`k = 1`), which is what lets ARES treat
/// ABD-style and TREAS-style configurations through one interface.
pub trait ErasureCode: fmt::Debug + Send + Sync {
    /// The `[n, k]` parameters.
    fn params(&self) -> CodeParams;

    /// Encodes `value` into `n` fragments (`Φ(v) = [c_1, .., c_n]`).
    fn encode(&self, value: &[u8]) -> Vec<Fragment>;

    /// Encodes a value already held in a shared buffer. Implementations
    /// that can (Reed-Solomon systematic shards, replication copies)
    /// emit fragments as **zero-copy views of `value`'s own
    /// allocation**, so a `put-data` fan-out of a large value performs
    /// no deep copy at all. The default falls back to [`encode`](Self::encode).
    ///
    /// Note the views keep `value`'s allocation alive for as long as a
    /// fragment is retained (in-process stores; the wire codec
    /// re-materializes fragments from frame buffers on receive).
    fn encode_value(&self, value: &Bytes) -> Vec<Fragment> {
        self.encode(value)
    }

    /// Reconstructs the value from at least `k` distinct fragments.
    ///
    /// # Errors
    ///
    /// Returns a [`CodeError`] if fewer than `k` distinct fragments are
    /// supplied, an index is out of range, or fragments are inconsistent.
    fn decode(&self, fragments: &[Fragment]) -> Result<Vec<u8>, CodeError>;

    /// Encodes and returns only the fragment for position `index`
    /// (`Φ_i(v)`); a convenience for server-side re-encoding in the
    /// ARES-TREAS transfer and repair protocols. The fragment is
    /// returned as encoded, so it may view a buffer holding the other
    /// shards too: the store that keeps it decides what it may pin.
    fn encode_fragment(&self, value: &[u8], index: usize) -> Fragment {
        let mut frags = self.encode(value);
        frags.swap_remove(index)
    }
}

/// Builds the code described by `params`: replication when `k == 1`,
/// Reed-Solomon otherwise.
///
/// # Errors
///
/// Returns [`CodeError::InvalidParams`] for out-of-range parameters.
pub fn build_code(params: CodeParams) -> Result<Box<dyn ErasureCode>, CodeError> {
    if params.k == 1 {
        Ok(Box::new(replication::Replication::new(params.n)?))
    } else {
        Ok(Box::new(reed_solomon::ReedSolomon::new(params.n, params.k)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_code_dispatches_on_k() {
        let r = build_code(CodeParams { n: 3, k: 1 }).unwrap();
        assert_eq!(r.params(), CodeParams { n: 3, k: 1 });
        let rs = build_code(CodeParams { n: 5, k: 3 }).unwrap();
        assert_eq!(rs.params(), CodeParams { n: 5, k: 3 });
        assert!(build_code(CodeParams { n: 2, k: 4 }).is_err());
    }

    #[test]
    fn costs_match_paper_formulas() {
        let p = CodeParams { n: 3, k: 2 };
        assert!((p.total_cost() - 1.5).abs() < 1e-12, "intro example: [3,2] costs 1.5");
        assert!((p.fragment_cost() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn encode_fragment_matches_full_encode() {
        let code = build_code(CodeParams { n: 5, k: 3 }).unwrap();
        let v = b"fragment extraction".to_vec();
        let all = code.encode(&v);
        for (i, frag) in all.iter().enumerate() {
            assert_eq!(&code.encode_fragment(&v, i), frag);
        }
    }

    #[test]
    fn compaction_copies_small_views_and_keeps_bulk_frames() {
        // A 256 B value's [5, 3] element on its ≈ 150-byte frame.
        let frame = Bytes::from(vec![1u8; 149]);
        let small = compact_bytes(frame.slice(50..136));
        assert!(!Bytes::shares_allocation(&small, &frame));
        assert_eq!((small.len(), small.backing_len()), (86, 86));
        // A 64 KiB value's element on its frame: kept zero-copy.
        let frame = Bytes::from(vec![1u8; 21_846 + 70]);
        let bulk = compact_bytes(frame.slice(60..60 + 21_846));
        assert!(Bytes::shares_allocation(&bulk, &frame));
        // A tight buffer is never copied, nor an empty one.
        let tight = Bytes::from(vec![2u8; 40]);
        assert!(Bytes::shares_allocation(&compact_bytes(tight.clone()), &tight));
        assert!(compact_bytes(Bytes::new()).is_empty());
    }

    #[test]
    fn bulk_starts_where_an_own_allocation_costs_at_most_an_eighth() {
        assert!(!is_bulk(0) && !is_bulk(86) && !is_bulk(767));
        assert!(is_bulk(768) && is_bulk(21_846));
    }

    #[test]
    fn error_display_is_meaningful() {
        let e = CodeError::NotEnoughFragments { have: 1, need: 3 };
        assert_eq!(e.to_string(), "not enough fragments to decode: have 1, need 3");
    }
}
