//! Object values and the initial tag-value pair `(t_0, v_0)`.

use crate::tag::Tag;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The initial tag `t_0` (alias of [`Tag::ZERO`], exported for readability
/// in protocol code that mirrors the paper's `(t_0, v_0)`).
pub const TAG0: Tag = Tag::ZERO;

/// A value of the shared atomic object (`v ∈ V`).
///
/// Wraps [`Bytes`] so fragments and replicas share the underlying buffer
/// without copying inside the simulator.
///
/// # Examples
///
/// ```
/// use ares_types::Value;
///
/// let v = Value::from_static(b"hello");
/// assert_eq!(v.len(), 5);
/// assert_eq!(Value::initial(), Value::new(vec![]));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Value(Bytes);

impl Value {
    /// Creates a value from owned bytes.
    pub fn new(bytes: impl Into<Bytes>) -> Self {
        Value(bytes.into())
    }

    /// Creates a value borrowing a `'static` buffer.
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Value(Bytes::from_static(bytes))
    }

    /// The initial value `v_0` (empty).
    pub fn initial() -> Self {
        Value(Bytes::new())
    }

    /// A deterministic filler value of `len` bytes seeded by `seed`
    /// (used by workload generators; the contents make each write unique
    /// so the atomicity checker can match reads to writes).
    pub fn filler(len: usize, seed: u64) -> Self {
        // splitmix64-style seed scrambling so that nearby seeds (e.g.
        // consecutive integers) produce unrelated streams.
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s = (s ^ (s >> 31)) | 1;
        // One xorshift64 step per eight bytes, not per byte; the last
        // step's low bytes fill a short tail.
        let mut data = vec![0u8; len];
        for chunk in data.chunks_mut(8) {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            chunk.copy_from_slice(&s.to_le_bytes()[..chunk.len()]);
        }
        Value(Bytes::from(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the value is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The underlying shared buffer.
    pub fn bytes(&self) -> &Bytes {
        &self.0
    }

    /// A 64-bit digest, recorded in operation completions so the
    /// atomicity checker can match read values to writes without storing
    /// full payloads.
    ///
    /// One rotate-xor-multiply per little-endian **word** (FNV-1a paid a
    /// multiply per byte): the length seeds the state, so zero runs of
    /// different lengths differ; the tail of fewer than eight bytes is
    /// mixed byte-wise; a final fold carries the last word's high bits
    /// down. Every step is a bijection of the state, so two values that
    /// differ in one word or tail byte never collide. A pure function of
    /// the bytes — independent of where the view starts in its buffer.
    pub fn digest(&self) -> u64 {
        const M: u64 = 0x9E37_79B9_7F4A_7C15;
        let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(M);
        let mut rest = self.as_bytes();
        let mut h = mix(0xcbf2_9ce4_8422_2325, rest.len() as u64);
        while let Some((word, tail)) = rest.split_first_chunk::<8>() {
            h = mix(h, u64::from_le_bytes(*word));
            rest = tail;
        }
        h = rest.iter().fold(h, |h, &b| mix(h, u64::from(b)));
        h ^ (h >> 32)
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.len() <= 8 {
            write!(f, "Value({:02x?})", &self.0[..])
        } else {
            write!(f, "Value({} bytes, {:02x?}..)", self.0.len(), &self.0[..8])
        }
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value(Bytes::from(v))
    }
}

impl From<Bytes> for Value {
    fn from(v: Bytes) -> Self {
        Value(v)
    }
}

impl Serialize for Value {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serde_bytes_serialize(&self.0, s)
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let v = Vec::<u8>::deserialize(d)?;
        Ok(Value(Bytes::from(v)))
    }
}

fn serde_bytes_serialize<S: serde::Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
    s.serialize_bytes(b)
}

/// A tag-value pair `⟨τ, v⟩` as carried by `put-data`/`get-data`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TagValue {
    /// The logical tag.
    pub tag: Tag,
    /// The associated value.
    pub value: Value,
}

impl TagValue {
    /// The initial pair `(t_0, v_0)`.
    pub fn initial() -> Self {
        TagValue { tag: TAG0, value: Value::initial() }
    }

    /// Creates a pair.
    pub fn new(tag: Tag, value: Value) -> Self {
        TagValue { tag, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filler_is_deterministic_and_seed_sensitive() {
        assert_eq!(Value::filler(32, 1), Value::filler(32, 1));
        assert_ne!(Value::filler(32, 1), Value::filler(32, 2));
        assert_eq!(Value::filler(32, 5).len(), 32);
    }

    #[test]
    fn digest_distinguishes_values() {
        assert_ne!(Value::filler(16, 1).digest(), Value::filler(16, 2).digest());
        assert_eq!(Value::initial().digest(), Value::new(vec![]).digest());
    }

    #[test]
    fn digest_is_a_function_of_the_bytes_not_of_the_view() {
        // The same 100 bytes at view offsets 0..8 of their buffers.
        let body = Value::filler(100, 9);
        for off in 0..8 {
            let mut buf = vec![0xAAu8; off];
            buf.extend_from_slice(body.as_bytes());
            let view = Value::new(Bytes::from(buf).slice(off..));
            assert_eq!(view.digest(), body.digest(), "offset {off}");
        }
    }

    #[test]
    fn digest_separates_lengths_and_tail_bytes() {
        let zeros = |n: usize| Value::new(vec![0u8; n]).digest();
        let mut seen = std::collections::HashSet::new();
        for n in [0, 8, 16, 9] {
            assert!(seen.insert(zeros(n)), "zero run of {n} collides");
        }
        // Flipping any one of the last 1..=7 bytes changes the digest.
        for len in [7usize, 15, 64, 71] {
            let base = Value::filler(len, 4);
            for back in 1..=7 {
                let mut bytes = base.as_bytes().to_vec();
                bytes[len - back] ^= 0x80;
                assert_ne!(Value::new(bytes).digest(), base.digest(), "len {len} byte -{back}");
            }
        }
    }

    #[test]
    fn filler_honours_every_length() {
        for len in [0usize, 1, 7, 8, 9, 65_537] {
            let v = Value::filler(len, 11);
            assert_eq!(v.len(), len);
            assert_eq!(v.bytes().backing_len(), len, "no slack behind a generated value");
            if len > 0 {
                assert_ne!(v, Value::filler(len, 12), "len {len}: distinct seeds");
            }
        }
        // The word-wide stream is prefix-stable: a shorter value is a
        // prefix of a longer one from the same seed.
        assert_eq!(Value::filler(9, 3).as_bytes(), &Value::filler(64, 3).as_bytes()[..9]);
    }

    #[test]
    fn initial_pair() {
        let tv = TagValue::initial();
        assert_eq!(tv.tag, TAG0);
        assert!(tv.value.is_empty());
    }

    #[test]
    fn debug_truncates_long_values() {
        let v = Value::filler(100, 3);
        let s = format!("{v:?}");
        assert!(s.contains("100 bytes"));
    }
}
