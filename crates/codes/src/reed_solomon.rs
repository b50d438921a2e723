//! Systematic `[n, k]` Reed-Solomon MDS code over GF(2^8).
//!
//! This is the code that TREAS instantiates per configuration (Section 2,
//! "Background on erasure coding"): a value `v` of size 1 unit is split
//! into `k` elements of size `1/k`, the encoder `Φ` produces `n` coded
//! elements `c_1..c_n` (also of size `1/k` each), one stored per server,
//! and *any* `k` of the `n` coded elements suffice to reconstruct `v`.
//!
//! The generator matrix is a Vandermonde matrix post-multiplied by the
//! inverse of its own top `k x k` block, making the code **systematic**:
//! the first `k` fragments are verbatim data stripes, which keeps
//! encode/decode cheap in the common case while preserving the MDS
//! property (every `k x k` row-submatrix stays invertible because the
//! systematizing transform is invertible).

use crate::matrix::Matrix;
use crate::{CodeError, CodeParams, ErasureCode, Fragment};
use bytes::Bytes;

/// Systematic Reed-Solomon `[n, k]` code.
///
/// # Examples
///
/// ```
/// use ares_codes::{ErasureCode, reed_solomon::ReedSolomon};
///
/// # fn main() -> Result<(), ares_codes::CodeError> {
/// let code = ReedSolomon::new(5, 3)?;
/// let value = b"the quick brown fox jumps over the lazy dog".to_vec();
/// let frags = code.encode(&value);
/// // any k = 3 fragments reconstruct the value
/// let subset = [frags[4].clone(), frags[0].clone(), frags[2].clone()];
/// assert_eq!(code.decode(&subset)?, value);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    params: CodeParams,
    /// `n x k` systematic generator matrix.
    generator: Matrix,
}

impl ReedSolomon {
    /// Creates a new `[n, k]` code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParams`] unless `1 <= k <= n <= 256`.
    pub fn new(n: usize, k: usize) -> Result<Self, CodeError> {
        if k == 0 || n < k || n > 256 {
            return Err(CodeError::InvalidParams { n, k });
        }
        let vander = Matrix::vandermonde(n, k);
        let top = vander.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv =
            top.inverted().expect("top block of a Vandermonde matrix is always invertible");
        let generator = vander.mul(&top_inv);
        Ok(ReedSolomon { params: CodeParams { n, k }, generator })
    }

    /// The systematic generator matrix (`n` rows, `k` columns).
    pub fn generator(&self) -> &Matrix {
        &self.generator
    }

    fn shard_len(&self, value_len: usize) -> usize {
        value_len.div_ceil(self.params.k).max(1)
    }

    /// The seed's dense encoder, retained as a differential-testing
    /// oracle for [`ErasureCode::encode`]: it runs the log/antilog kernel
    /// ([`crate::gf256::mul_add_slice_ref`]) over **all** `n` generator
    /// rows — including the systematic identity rows the optimized
    /// encoder emits as zero-copy slices — and gives every fragment its
    /// own allocation.
    #[cfg(test)]
    pub(crate) fn encode_dense(&self, value: &[u8]) -> Vec<Fragment> {
        let CodeParams { n, k } = self.params;
        let shard = self.shard_len(value.len());
        let mut padded = vec![0u8; shard * k];
        padded[..value.len()].copy_from_slice(value);
        let shards: Vec<&[u8]> = padded.chunks(shard).collect();

        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row = self.generator.row(i);
            let mut coded = vec![0u8; shard];
            for (j, s) in shards.iter().enumerate() {
                crate::gf256::mul_add_slice_ref(&mut coded, s, row[j]);
            }
            out.push(Fragment { index: i, value_len: value.len(), data: Bytes::from(coded) });
        }
        out
    }
}

impl ErasureCode for ReedSolomon {
    fn params(&self) -> CodeParams {
        self.params
    }

    fn encode(&self, value: &[u8]) -> Vec<Fragment> {
        self.encode_value(&Bytes::copy_from_slice(value))
    }

    /// Systematic zero-copy encode: the leading *full* data shards are
    /// slices of `value`'s own allocation (no GF work, no copy); only
    /// the final partial shard is copied into a small zero-padded tail
    /// buffer, and only the `n - k` parity rows run the GF kernel.
    fn encode_value(&self, value: &Bytes) -> Vec<Fragment> {
        let CodeParams { n, k } = self.params;
        let shard = self.shard_len(value.len());
        // Shards 0..full lie entirely within `value`; shards full..k
        // (the remainder plus zero padding) share one small tail buffer.
        let full = (value.len() / shard).min(k);
        let tail = if full == k {
            Bytes::new()
        } else {
            let mut t = vec![0u8; (k - full) * shard];
            t[..value.len() - full * shard].copy_from_slice(&value[full * shard..]);
            Bytes::from(t)
        };
        let shard_at = |j: usize| -> Bytes {
            if j < full {
                value.slice(j * shard..(j + 1) * shard)
            } else {
                tail.slice((j - full) * shard..(j - full + 1) * shard)
            }
        };

        let mut out = Vec::with_capacity(n);
        for j in 0..k {
            out.push(Fragment { index: j, value_len: value.len(), data: shard_at(j) });
        }
        for i in k..n {
            let row = self.generator.row(i);
            let mut coded = vec![0u8; shard];
            for (j, c) in row.iter().enumerate() {
                crate::gf256::mul_add_slice(&mut coded, &shard_at(j), *c);
            }
            out.push(Fragment { index: i, value_len: value.len(), data: Bytes::from(coded) });
        }
        out
    }

    fn decode(&self, fragments: &[Fragment]) -> Result<Vec<u8>, CodeError> {
        let CodeParams { n, k } = self.params;
        // Deduplicate by index, validate. Systematic fragments are taken
        // first wherever they sit in the input, so a caller that holds
        // all `k` of them gets the stitch below, not the matrix inverse,
        // whatever order it collected them in.
        let mut chosen: Vec<&Fragment> = Vec::with_capacity(k);
        let mut seen = vec![false; n];
        let systematic_first = fragments
            .iter()
            .filter(|f| f.index < k)
            .chain(fragments.iter().filter(|f| f.index >= k));
        for f in systematic_first {
            if f.index >= n {
                return Err(CodeError::BadFragmentIndex { index: f.index, n });
            }
            if !seen[f.index] {
                seen[f.index] = true;
                chosen.push(f);
                if chosen.len() == k {
                    break;
                }
            }
        }
        if chosen.len() < k {
            return Err(CodeError::NotEnoughFragments { have: chosen.len(), need: k });
        }
        let value_len = chosen[0].value_len;
        let shard = self.shard_len(value_len);
        for f in &chosen {
            if f.value_len != value_len {
                return Err(CodeError::InconsistentFragments);
            }
            if f.data.len() != shard {
                return Err(CodeError::InconsistentFragments);
            }
        }

        // Fast path: if we have all k systematic fragments, just stitch.
        let mut sys: Vec<Option<&Fragment>> = vec![None; k];
        for f in &chosen {
            if f.index < k {
                sys[f.index] = Some(f);
            }
        }
        let mut value = vec![0u8; shard * k];
        if sys.iter().all(Option::is_some) {
            for (j, f) in sys.iter().enumerate() {
                let f = f.expect("checked all present");
                value[j * shard..(j + 1) * shard].copy_from_slice(&f.data);
            }
            value.truncate(value_len);
            return Ok(value);
        }

        // General path: invert the k x k submatrix of generator rows.
        #[cfg(test)]
        GENERAL_DECODES.with(|c| c.set(c.get() + 1));
        let rows: Vec<usize> = chosen.iter().map(|f| f.index).collect();
        let sub = self.generator.select_rows(&rows);
        let inv = sub.inverted().expect("any k distinct rows of an MDS generator are invertible");
        // data shard j = sum_i inv[j][i] * coded[rows[i]]
        for j in 0..k {
            let dst = &mut value[j * shard..(j + 1) * shard];
            for (i, f) in chosen.iter().enumerate() {
                crate::gf256::mul_add_slice(dst, &f.data, inv.get(j, i));
            }
        }
        value.truncate(value_len);
        Ok(value)
    }
}

#[cfg(test)]
thread_local! {
    /// Decodes on this thread that took the general (matrix-inverse) path.
    static GENERAL_DECODES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    #[test]
    fn rejects_bad_params() {
        assert!(ReedSolomon::new(3, 0).is_err());
        assert!(ReedSolomon::new(2, 3).is_err());
        assert!(ReedSolomon::new(257, 3).is_err());
        assert!(ReedSolomon::new(1, 1).is_ok());
        assert!(ReedSolomon::new(256, 200).is_ok());
    }

    #[test]
    fn systematic_prefix_is_verbatim_data() {
        let code = ReedSolomon::new(6, 4).unwrap();
        let value = sample_value(40); // 4 shards of 10
        let frags = code.encode(&value);
        for (j, f) in frags.iter().take(4).enumerate() {
            assert_eq!(&f.data[..], &value[j * 10..(j + 1) * 10], "shard {j}");
        }
    }

    #[test]
    fn encode_matches_dense_reference() {
        for (n, k) in [(5usize, 3usize), (6, 4), (9, 5), (4, 2), (1, 1), (7, 7)] {
            let code = ReedSolomon::new(n, k).unwrap();
            for len in [0usize, 1, 7, 40, 101] {
                let value = sample_value(len);
                let fast = code.encode(&value);
                let dense = code.encode_dense(&value);
                assert_eq!(fast, dense, "n={n} k={k} len={len}");
            }
        }
    }

    #[test]
    fn systematic_fragments_share_one_allocation() {
        let code = ReedSolomon::new(5, 3).unwrap();
        let frags = code.encode(&sample_value(99));
        for f in &frags[1..3] {
            assert!(
                Bytes::shares_allocation(&frags[0].data, &f.data),
                "systematic fragment {} must be a zero-copy slice",
                f.index
            );
        }
        for f in &frags[3..] {
            assert!(
                !Bytes::shares_allocation(&frags[0].data, &f.data),
                "parity fragment {} has its own buffer",
                f.index
            );
        }
    }

    #[test]
    fn encode_value_borrows_the_value_allocation() {
        let code = ReedSolomon::new(5, 3).unwrap();
        // 99 = 3 full shards of 33: every systematic fragment is a view
        // of the value itself.
        let value = Bytes::from(sample_value(99));
        let frags = code.encode_value(&value);
        for f in &frags[..3] {
            assert!(
                Bytes::shares_allocation(&value, &f.data),
                "fragment {} must view the value",
                f.index
            );
        }
        assert_eq!(frags, code.encode_dense(&value));

        // 100 bytes: shards of 34 — fragments 0..2 view the value, the
        // padded tail shard is copied.
        let value = Bytes::from(sample_value(100));
        let frags = code.encode_value(&value);
        assert!(Bytes::shares_allocation(&value, &frags[0].data));
        assert!(Bytes::shares_allocation(&value, &frags[1].data));
        assert!(!Bytes::shares_allocation(&value, &frags[2].data));
        assert_eq!(frags, code.encode_dense(&value));

        // tiny value, k=3: shard=1, only zero-padded tail shards.
        let value = Bytes::from(vec![7u8]);
        let frags = code.encode_value(&value);
        assert_eq!(frags, code.encode_dense(&value));
    }

    #[test]
    fn decode_from_systematic_fast_path() {
        let code = ReedSolomon::new(5, 3).unwrap();
        let value = sample_value(33);
        let frags = code.encode(&value);
        assert_eq!(code.decode(&frags[..3]).unwrap(), value);
    }

    #[test]
    fn systematic_fragments_are_preferred_in_any_input_order() {
        let code = ReedSolomon::new(5, 3).unwrap();
        let value = sample_value(64 * 1024);
        let mut frags = code.encode(&value);
        frags.reverse(); // parity 4, 3 first, then systematic 2, 1, 0
        let before = GENERAL_DECODES.with(|c| c.get());
        assert_eq!(code.decode(&frags).unwrap(), value);
        assert_eq!(GENERAL_DECODES.with(|c| c.get()), before, "stitch, not matrix inverse");
        // Without all k systematic elements the general path still runs.
        assert_eq!(code.decode(&frags[..3]).unwrap(), value);
        assert_eq!(GENERAL_DECODES.with(|c| c.get()), before + 1);
    }

    #[test]
    fn decode_from_any_k_subset() {
        let n = 7;
        let k = 4;
        let code = ReedSolomon::new(n, k).unwrap();
        let value = sample_value(101); // not divisible by k: exercises padding
        let frags = code.encode(&value);
        for mask in 0u32..(1 << n) {
            if mask.count_ones() as usize != k {
                continue;
            }
            let subset: Vec<Fragment> =
                (0..n).filter(|i| mask & (1 << i) != 0).map(|i| frags[i].clone()).collect();
            assert_eq!(code.decode(&subset).unwrap(), value, "mask {mask:b}");
        }
    }

    #[test]
    fn decode_ignores_duplicate_fragments() {
        let code = ReedSolomon::new(5, 2).unwrap();
        let value = sample_value(10);
        let frags = code.encode(&value);
        let with_dup = vec![frags[3].clone(), frags[3].clone(), frags[4].clone()];
        assert_eq!(code.decode(&with_dup).unwrap(), value);
    }

    #[test]
    fn decode_too_few_fragments_errors() {
        let code = ReedSolomon::new(5, 3).unwrap();
        let value = sample_value(9);
        let frags = code.encode(&value);
        let err = code.decode(&frags[..2]).unwrap_err();
        assert_eq!(err, CodeError::NotEnoughFragments { have: 2, need: 3 });
    }

    #[test]
    fn decode_bad_index_errors() {
        let code = ReedSolomon::new(3, 2).unwrap();
        let value = sample_value(8);
        let mut frags = code.encode(&value);
        frags[0].index = 9;
        assert_eq!(
            code.decode(&frags).unwrap_err(),
            CodeError::BadFragmentIndex { index: 9, n: 3 }
        );
    }

    #[test]
    fn empty_value_round_trips() {
        let code = ReedSolomon::new(4, 2).unwrap();
        let frags = code.encode(&[]);
        assert_eq!(frags.len(), 4);
        assert_eq!(code.decode(&frags[1..3]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn fragment_size_is_ceil_len_over_k() {
        let code = ReedSolomon::new(9, 5).unwrap();
        let frags = code.encode(&sample_value(101));
        for f in &frags {
            assert_eq!(f.data.len(), 101usize.div_ceil(5));
        }
    }

    #[test]
    fn one_of_one_code_is_identity() {
        let code = ReedSolomon::new(1, 1).unwrap();
        let value = sample_value(17);
        let frags = code.encode(&value);
        assert_eq!(&frags[0].data[..], &value[..]);
        assert_eq!(code.decode(&frags).unwrap(), value);
    }
}
