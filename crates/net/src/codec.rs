//! Hand-rolled, length-prefixed binary wire encoding for [`Msg`].
//!
//! The workspace's vendored `serde` is an API stand-in, not a real
//! serializer, so the network crate defines its own codec: two tiny
//! traits ([`WireEncode`] / [`WireDecode`]) implemented for the whole
//! message tree (`ares_core::Msg` and its nested DAP / consensus /
//! configuration-service / state-transfer / repair payloads).
//!
//! The tables under "The message tree" below are the format's single
//! source: each product type is one field list and each enum one
//! `tag => Variant { fields }` row per variant, and `wire_struct!` /
//! `wire_enum!` generate the encoder and the decoder from the same
//! row. Adding a variant means declaring it and adding its row;
//! forgetting the row — or a field in it — fails `cargo build`.
//! Assigned tags are never reused or renumbered (`tests/wire_golden.rs`
//! pins every variant's bytes): a write-ahead log outlives the build
//! that wrote it.
//!
//! ## Frame format
//!
//! ```text
//! ┌────────────┬─────────┬──────────┬───────────────┐
//! │ len: u32   │ ver: u8 │ from:u32 │ Msg encoding  │
//! └────────────┴─────────┴──────────┴───────────────┘
//!   big-endian               sender     see below
//!   (bytes after len)
//! ```
//!
//! All integers are big-endian. Enums encode a one-byte variant tag
//! followed by the variant's fields in table order; `Option<T>` is
//! a presence byte (0/1) then `T`; byte strings and sequences carry a
//! `u32` length/count prefix.
//!
//! ## Decoding untrusted input
//!
//! Decoding is *strict* and total: every read is bounds-checked, every
//! variant/presence byte is validated, sequence counts are checked
//! against the bytes actually remaining (so a hostile 4 GiB count cannot
//! force an allocation), frames above [`MAX_FRAME_LEN`] are rejected
//! before buffering, and trailing garbage after a well-formed message is
//! an error. Malformed input yields a [`DecodeError`] — never a panic.

use ares_codes::Fragment;
use ares_consensus::{Ballot, ConMsg};
use ares_core::{CfgMsg, ClientCmd, Invoke, Msg, RepairMsg, XferMsg};
use ares_dap::{DapBody, DapMsg, Hdr, ListEntry};
use ares_sim::SimMessage;
use ares_types::{
    ConfigEntry, ConfigId, ObjectId, OpId, ProcessId, RpcId, SessionId, Status, Tag, Value,
};
use bytes::Bytes;
use std::fmt;
use std::io::{self, BufRead};

/// Current wire-format version, the first payload byte of every frame.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on the payload of one frame (a `FwdElem` carrying a coded
/// element of a large value is the biggest legitimate message).
pub const MAX_FRAME_LEN: usize = 32 << 20;

/// Why decoding failed. Decoding malformed bytes returns one of these —
/// it never panics and never allocates proportionally to attacker-chosen
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the announced data.
    UnexpectedEof,
    /// The frame announced an unsupported wire version.
    BadVersion(u8),
    /// An enum/presence byte had no corresponding variant.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A sequence count exceeds the bytes remaining in the frame.
    BadCount,
    /// Bytes were left over after a complete message.
    TrailingBytes,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of frame"),
            DecodeError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            DecodeError::BadTag { what, tag } => write!(f, "invalid {what} tag byte {tag:#04x}"),
            DecodeError::BadCount => write!(f, "sequence count exceeds frame size"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after message"),
            DecodeError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte limit")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeError> for io::Error {
    fn from(e: DecodeError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// A bounds-checked cursor over one received frame.
///
/// Constructed over a plain slice ([`WireReader::new`]) the reader
/// copies byte strings out; constructed over a shared buffer
/// ([`WireReader::new_shared`]) it hands decoded payloads
/// ([`Fragment`] data, [`Value`] bytes) out as **zero-copy slices** of
/// the frame allocation, so receiving a megabyte fragment costs one
/// socket read and no further copies.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When decoding out of a shared buffer, the owning `Bytes` (same
    /// range as `buf`) that payload slices borrow from.
    shared: Option<&'a Bytes>,
}

impl<'a> WireReader<'a> {
    /// Wraps a frame payload.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0, shared: None }
    }

    /// Wraps a frame payload held in a shared buffer; decoded byte
    /// strings are zero-copy slices of it.
    pub fn new_shared(buf: &'a Bytes) -> Self {
        WireReader { buf, pos: 0, shared: Some(buf) }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if n > self.remaining() {
            return Err(DecodeError::UnexpectedEof);
        }
        // lint: allow(net-panic, reason = "in-bounds: n <= remaining() checked two lines above")
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        // lint: allow(net-panic, reason = "in-bounds: take(1) returned exactly one byte")
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        // lint: allow(net-panic, reason = "in-bounds: take(4) returned exactly four bytes")
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        // lint: allow(net-panic, reason = "in-bounds: take(8) returned exactly eight bytes")
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn byte_str(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(DecodeError::UnexpectedEof);
        }
        self.take(len)
    }

    /// Reads a `u32`-length-prefixed byte string as an owned [`Bytes`]:
    /// a zero-copy slice of the frame buffer when this reader was built
    /// with [`WireReader::new_shared`], a copy otherwise. Large-payload
    /// decoders ([`Fragment`], [`Value`]) use this so a received coded
    /// element shares the frame's allocation instead of cloning it.
    pub fn byte_str_bytes(&mut self) -> Result<Bytes, DecodeError> {
        let shared = self.shared;
        let start_of_data = {
            let len = self.u32()? as usize;
            if len > self.remaining() {
                return Err(DecodeError::UnexpectedEof);
            }
            let s = self.pos;
            self.pos += len;
            s
        };
        Ok(match shared {
            Some(b) => b.slice(start_of_data..self.pos),
            // lint: allow(net-panic, reason = "in-bounds: len validated against remaining() before pos advanced")
            None => Bytes::copy_from_slice(&self.buf[start_of_data..self.pos]),
        })
    }

    /// Reads a sequence count, validated against the remaining bytes
    /// (every element encodes to at least one byte, so any count above
    /// `remaining()` is malformed — this is what bounds allocations).
    pub fn count(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(DecodeError::BadCount);
        }
        Ok(n)
    }

    /// Fails unless the frame was fully consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Types that can write themselves into a frame buffer.
pub trait WireEncode {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// Types that can be strictly decoded from untrusted frame bytes.
pub trait WireDecode: Sized {
    /// Reads one value, erroring on any malformation.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError>;
}

// ---------------------------------------------------------------------
// Primitives and small vocabulary types
// ---------------------------------------------------------------------

impl WireEncode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}
impl WireDecode for u8 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
}

impl WireEncode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}
impl WireDecode for u32 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        r.u32()
    }
}

impl WireEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}
impl WireDecode for u64 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}
impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(DecodeError::BadTag { what: "Option", tag }),
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for item in self {
            item.encode(out);
        }
    }
}
impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let n = r.count()?;
        // `count()` bounds `n` by the remaining *encoded* bytes, but an
        // element's in-memory size can exceed its one-byte encoded
        // minimum many times over — so cap the preallocation too, or a
        // hostile max-size frame could turn 32 MiB of upload into
        // gigabytes of reserved memory before the first element fails
        // to decode. Genuine large lists grow organically on push.
        let mut v = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl WireEncode for Value {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}
impl WireDecode for Value {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(Value::new(r.byte_str_bytes()?))
    }
}

impl WireEncode for Fragment {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.index as u32).encode(out);
        (self.value_len as u64).encode(out);
        (self.data.len() as u32).encode(out);
        out.extend_from_slice(&self.data);
    }
}
impl WireDecode for Fragment {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        let index = r.u32()? as usize;
        let value_len = r.u64()? as usize;
        let data = r.byte_str_bytes()?;
        Ok(Fragment { index, value_len, data })
    }
}

// ---------------------------------------------------------------------
// The message tree: one declaration per type, both directions from it
// ---------------------------------------------------------------------

/// Declares a product type's wire format — its fields, in wire order —
/// and generates [`WireEncode`] and [`WireDecode`] from that one list.
/// The encoder destructures without `..`, so a field missing from the
/// list does not compile; field types are inferred from the type.
macro_rules! wire_struct {
    ($ty:ident { $($f:ident),+ }) => { wire_struct!(@impl $ty, [$($f),+], $ty { $($f),+ }); };
    ($ty:ident ( $($f:ident),+ )) => { wire_struct!(@impl $ty, [$($f),+], $ty($($f),+)); };
    (($($t:ty),+) as ($($f:ident),+)) => { wire_struct!(@impl ($($t),+), [$($f),+], ($($f),+)); };
    (@impl $ty:ty, [$($f:ident),+], $($shape:tt)+) => {
        impl WireEncode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                let $($shape)+ = self;
                $($f.encode(out);)+
            }
        }
        impl WireDecode for $ty {
            fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
                $(let $f = WireDecode::decode(r)?;)+
                Ok($($shape)+)
            }
        }
    };
}

/// Declares a sum type's wire format — one `tag => Variant { fields in
/// wire order }` row per variant — and generates both directions from
/// it: a one-byte tag, then the fields. The encoder is an exhaustive
/// `match` over exhaustive patterns, so a variant or a field missing
/// from the table does not compile, and the decoder reads the same row,
/// so tags and field order cannot disagree between the two. An unknown
/// tag decodes to [`DecodeError::BadTag`] naming the type.
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $v:ident $(($($t:ident),+))? $({ $($f:ident),+ })?,)+ }) => {
        impl WireEncode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$v $(($($t),+))? $({ $($f),+ })? => {
                        out.push($tag);
                        $($($t.encode(out);)+)?
                        $($($f.encode(out);)+)?
                    })+
                }
            }
        }
        impl WireDecode for $ty {
            fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
                #[deny(unreachable_patterns)] // a tag assigned twice
                match r.u8()? {
                    $($tag => {
                        $($(let $t = WireDecode::decode(r)?;)+)?
                        $($(let $f = WireDecode::decode(r)?;)+)?
                        Ok($ty::$v $(($($t),+))? $({ $($f),+ })?)
                    })+
                    tag => Err(DecodeError::BadTag { what: stringify!($ty), tag }),
                }
            }
        }
    };
}

wire_struct!(ProcessId(id));
wire_struct!(ObjectId(id));
wire_struct!(ConfigId(id));
wire_struct!(SessionId(id));
wire_struct!(RpcId(id));
wire_struct!(OpId { client, seq });
wire_struct!(Tag { z, w });
wire_struct!(ConfigEntry { cfg, status });
wire_struct!(Ballot { round, proposer });
wire_struct!((Ballot, ConfigId) as (ballot, value));
wire_struct!(Hdr { cfg, obj, rpc, op });
wire_struct!(ListEntry { tag, frag });
wire_struct!(DapMsg { hdr, body });
wire_struct!(Invoke { session, seq, cmd });

wire_enum!(Status {
    0 => Pending,
    1 => Finalized,
});

wire_enum!(DapBody {
    0 => AbdQueryTag,
    1 => AbdQuery,
    2 => AbdWrite(tag, value),
    3 => AbdTag(tag),
    4 => AbdTagValue(tag, value),
    5 => AbdAck,
    6 => TreasQueryTag,
    7 => TreasQueryList,
    8 => TreasWrite(tag, frag),
    9 => TreasTag(tag),
    10 => TreasList(list),
    11 => TreasAck,
    12 => LdrQueryTagLoc,
    13 => LdrTagLoc(tag, locs),
    14 => LdrPutData(tag, value),
    15 => LdrPutDataAck(tag),
    16 => LdrPutMeta(tag, locs),
    17 => LdrPutMetaAck,
    18 => LdrGetData(tag),
    19 => LdrData(tag, value),
});

wire_enum!(ConMsg {
    0 => Prepare { inst, rpc, ballot, op },
    1 => Promise { inst, rpc, ballot, accepted, decided, op },
    2 => NackPrepare { inst, rpc, promised, op },
    3 => Accept { inst, rpc, ballot, value, op },
    4 => Accepted { inst, rpc, ballot, op },
    5 => NackAccept { inst, rpc, promised, op },
    6 => Decide { inst, value },
});

wire_enum!(CfgMsg {
    0 => ReadConfig { base, rpc, op },
    1 => NextC { base, rpc, next, op },
    2 => WriteConfig { base, entry, rpc, op },
    3 => CfgAck { base, rpc, op },
});

wire_enum!(XferMsg {
    0 => ReqFwd { tag, src, dst, obj, rc, rpc, op },
    1 => FwdElem { tag, frag, src, dst, obj, rc, rpc, op },
    2 => XferAck { dst, obj, tag, rpc, op },
});

wire_enum!(RepairMsg {
    0 => Trigger { cfg, obj },
    1 => Query { cfg, obj, rpc, known, op },
    2 => Lists { cfg, obj, rpc, list, op },
});

wire_enum!(ClientCmd {
    0 => Write { obj, value },
    1 => Read { obj },
    2 => Recon { target },
});

// Tag 5 is retired and stays unassigned, so 6 keeps its number.
wire_enum!(Msg {
    0 => Dap(m),
    1 => Con(m),
    2 => Cfg(m),
    3 => Xfer(m),
    4 => Repair(m),
    6 => Invoke(m),
});

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

thread_local! {
    /// Frames encoded by this thread (see [`frames_encoded`]).
    static FRAMES_ENCODED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of wire payloads this *thread* has encoded. Thread-local so a
/// test can meter exactly the code it drives (each host encodes on its
/// own event-loop thread) without interference from concurrent tests —
/// this is what pins the encode-once broadcast property.
pub fn frames_encoded() -> u64 {
    FRAMES_ENCODED.with(|c| c.get())
}

/// What a frame buffer reserves beyond the message's bulk payload
/// (`payload_bytes()`: its value or coded-element bytes), so encoding a
/// megabyte value is one reservation and one copy instead of a
/// doubling-realloc cascade. Covers the frame and message headers plus
/// the 29 bytes of tag, presence and fragment header around each
/// element of a `δ + 2`-entry `TreasList` reply.
const FRAME_SLACK: usize = 256;

/// Encodes one frame payload (version, sender, message) *without* the
/// length prefix.
pub fn encode_payload(from: ProcessId, msg: &Msg) -> Vec<u8> {
    FRAMES_ENCODED.with(|c| c.set(c.get() + 1));
    let mut out = Vec::with_capacity(msg.payload_bytes() as usize + FRAME_SLACK);
    out.push(WIRE_VERSION);
    from.encode(&mut out);
    msg.encode(&mut out);
    out
}

fn decode_payload_reader(mut r: WireReader<'_>) -> Result<(ProcessId, Msg), DecodeError> {
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let from = ProcessId::decode(&mut r)?;
    let msg = Msg::decode(&mut r)?;
    r.finish()?;
    Ok((from, msg))
}

/// Strictly decodes one frame payload (the bytes after the length
/// prefix) into `(sender, message)`.
pub fn decode_payload(buf: &[u8]) -> Result<(ProcessId, Msg), DecodeError> {
    if buf.len() > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(buf.len()));
    }
    decode_payload_reader(WireReader::new(buf))
}

/// Like [`decode_payload`], but over a shared buffer: large payloads in
/// the decoded message ([`Fragment`] data, [`Value`] bytes) come out as
/// zero-copy slices of `buf`. This is the path [`read_frame`] uses, so
/// a received coded element or replicated value shares the frame's one
/// allocation end-to-end. The slices pin the whole frame buffer: for
/// the single-payload messages servers retain (`TreasWrite`,
/// `FwdElem`, `AbdWrite`) that is the few dozen header bytes of
/// overhead; multi-fragment frames (`TreasList`, `RepairMsg::Lists`)
/// are only held transiently (read evaluation, an in-flight repair
/// task), and anything rebuilt from them for long-term storage goes
/// through `Fragment::compacted`.
pub fn decode_payload_bytes(buf: &Bytes) -> Result<(ProcessId, Msg), DecodeError> {
    if buf.len() > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(buf.len()));
    }
    decode_payload_reader(WireReader::new_shared(buf))
}

/// Encodes one complete frame (length prefix included), erroring with
/// [`DecodeError::FrameTooLarge`] if the payload exceeds
/// [`MAX_FRAME_LEN`] — every receiver would reject such a frame, so the
/// sender is the one place the violation can be detected and handled
/// (the event loop drops it; a long-running host must not die over one
/// oversized reply). This also keeps the `u32` length prefix exact.
///
/// The message encodes **directly into the frame buffer** behind a
/// four-byte length placeholder that is patched afterwards — one
/// allocation, one pass over the payload (the seed built the payload in
/// a separate growing buffer and then copied it whole behind the
/// prefix, an extra full-payload copy per frame).
pub fn try_encode_frame(from: ProcessId, msg: &Msg) -> Result<Vec<u8>, DecodeError> {
    FRAMES_ENCODED.with(|c| c.set(c.get() + 1));
    let mut out = Vec::with_capacity(msg.payload_bytes() as usize + FRAME_SLACK);
    out.extend_from_slice(&[0u8; 4]);
    out.push(WIRE_VERSION);
    from.encode(&mut out);
    msg.encode(&mut out);
    let payload_len = out.len() - 4;
    if payload_len > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(payload_len));
    }
    // lint: allow(net-panic, reason = "in-bounds: out begins with the 4-byte placeholder pushed above")
    out[..4].copy_from_slice(&(payload_len as u32).to_be_bytes());
    Ok(out)
}

/// Encodes one complete frame (length prefix included), ready to write
/// to a socket.
///
/// # Panics
///
/// Panics if the encoded payload exceeds [`MAX_FRAME_LEN`]; callers
/// that must stay alive on oversized messages use
/// [`try_encode_frame`].
pub fn encode_frame(from: ProcessId, msg: &Msg) -> Vec<u8> {
    // lint: allow(net-panic, reason = "documented panic contract (# Panics); encodes local messages, never network bytes")
    try_encode_frame(from, msg).expect("frame exceeds MAX_FRAME_LEN")
}

/// Capacity of the `BufReader` a connection's frames are read through:
/// the four-byte prefix and a 64 KiB coded element that is already in
/// the socket buffer arrive in one `read(2)`, a `δ + 2`-entry list of
/// them in two.
pub(crate) const FRAME_READ_BUF: usize = 64 * 1024;

/// How much may be reserved for a frame before its bytes have come.
const FRAME_GROW_STEP: usize = 16 * 1024;

/// The capacity a payload buffer is grown to when the `arrived` bytes of
/// a `len`-byte frame no longer fit it: the whole frame if
/// `2 * arrived + FRAME_GROW_STEP` covers it, that bound otherwise.
/// Memory held for a frame therefore tracks the bytes that have
/// **arrived**, never the length its prefix declares (a connection that
/// sends only a [`MAX_FRAME_LEN`] prefix pins one step), while a frame
/// that arrives in a few large reads is allocated once, at its length.
fn frame_capacity(arrived: usize, len: usize) -> usize {
    len.min(2 * arrived + FRAME_GROW_STEP)
}

/// Reads one frame from `r`.
///
/// Returns `Ok(None)` on clean end-of-stream (the peer closed between
/// frames); any malformation — oversized length prefix, truncation
/// mid-frame, undecodable payload — surfaces as an
/// [`io::ErrorKind::InvalidData`] / [`io::ErrorKind::UnexpectedEof`]
/// error. Never panics.
///
/// The payload is copied once, out of `r`'s buffer into one allocation
/// of exactly the frame's length (see [`frame_capacity`]), and that
/// allocation *becomes* the [`Bytes`] the decoded [`Fragment`]s and
/// [`Value`]s slice: never zero-filled first, never copied again.
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<(ProcessId, Msg)>> {
    // Read the first prefix byte separately so only a close *between*
    // frames maps to Ok(None); dying mid-prefix is truncation and must
    // error like any other mid-frame cut.
    let mut first = [0u8; 1];
    match r.read_exact(&mut first) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let mut rest = [0u8; 3];
    r.read_exact(&mut rest)?;
    let ([a], [b, c, d]) = (first, rest);
    let len = u32::from_be_bytes([a, b, c, d]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(len).into());
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let chunk = match r.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        let chunk = chunk.get(..len - payload.len()).unwrap_or(chunk);
        let arrived = payload.len() + chunk.len();
        if arrived > payload.capacity() {
            payload.reserve_exact(frame_capacity(arrived, len) - payload.len());
        }
        payload.extend_from_slice(chunk);
        let taken = chunk.len();
        r.consume(taken);
    }
    Ok(Some(decode_payload_bytes(&Bytes::from(payload))?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::TAG0;

    fn op() -> OpId {
        OpId { client: ProcessId(7), seq: 42 }
    }

    fn invoke(session: u32, n: u64, cmd: ClientCmd) -> Msg {
        let session = SessionId(session);
        Msg::Invoke(Invoke { session, seq: ares_core::store::session_op_seq(session, n), cmd })
    }

    fn roundtrip(msg: Msg) -> Msg {
        let frame = encode_frame(ProcessId(3), &msg);
        let (from, decoded) = decode_payload(&frame[4..]).expect("decodes");
        assert_eq!(from, ProcessId(3));
        decoded
    }

    #[test]
    fn dap_messages_roundtrip() {
        let hdr = Hdr { cfg: ConfigId(1), obj: ObjectId(2), rpc: RpcId(3), op: op() };
        let bodies = vec![
            DapBody::AbdQueryTag,
            DapBody::AbdWrite(Tag::new(4, ProcessId(5)), Value::filler(33, 1)),
            DapBody::AbdTagValue(TAG0, Value::initial()),
            DapBody::TreasWrite(
                Tag::new(9, ProcessId(1)),
                Fragment { index: 2, value_len: 90, data: Bytes::from(vec![7u8; 30]) },
            ),
            DapBody::TreasList(vec![
                ListEntry { tag: TAG0, frag: None },
                ListEntry {
                    tag: Tag::new(1, ProcessId(2)),
                    frag: Some(Fragment { index: 0, value_len: 6, data: Bytes::from(vec![1, 2]) }),
                },
            ]),
            DapBody::LdrTagLoc(Tag::new(2, ProcessId(3)), vec![ProcessId(1), ProcessId(2)]),
            DapBody::LdrGetData(Tag::new(8, ProcessId(8))),
        ];
        for body in bodies {
            let msg = Msg::Dap(DapMsg::new(hdr, body.clone()));
            match roundtrip(msg) {
                Msg::Dap(d) => {
                    assert_eq!(d.hdr, hdr);
                    assert_eq!(d.body, body);
                }
                other => panic!("wrong arm {other:?}"),
            }
        }
    }

    #[test]
    fn consensus_messages_roundtrip() {
        let msgs = vec![
            ConMsg::Prepare {
                inst: ConfigId(0),
                rpc: RpcId(1),
                ballot: Ballot::initial(ProcessId(9)),
                op: op(),
            },
            ConMsg::Promise {
                inst: ConfigId(0),
                rpc: RpcId(1),
                ballot: Ballot { round: 3, proposer: ProcessId(9) },
                accepted: Some((Ballot { round: 2, proposer: ProcessId(8) }, ConfigId(4))),
                decided: None,
                op: op(),
            },
            ConMsg::Decide { inst: ConfigId(0), value: ConfigId(2) },
        ];
        for m in msgs {
            match roundtrip(Msg::Con(m.clone())) {
                Msg::Con(d) => assert_eq!(d, m),
                other => panic!("wrong arm {other:?}"),
            }
        }
    }

    #[test]
    fn cfg_xfer_repair_cmd_roundtrip() {
        let msgs = vec![
            Msg::Cfg(CfgMsg::NextC {
                base: ConfigId(1),
                rpc: RpcId(2),
                next: Some(ConfigEntry::finalized(ConfigId(2))),
                op: op(),
            }),
            Msg::Cfg(CfgMsg::WriteConfig {
                base: ConfigId(1),
                entry: ConfigEntry::pending(ConfigId(2)),
                rpc: RpcId(5),
                op: op(),
            }),
            Msg::Xfer(XferMsg::FwdElem {
                tag: Tag::new(7, ProcessId(2)),
                frag: Fragment { index: 4, value_len: 120, data: Bytes::from(vec![9u8; 40]) },
                src: ConfigId(0),
                dst: ConfigId(1),
                obj: ObjectId(3),
                rc: ProcessId(200),
                rpc: RpcId(8),
                op: op(),
            }),
            Msg::Repair(RepairMsg::Lists {
                cfg: ConfigId(1),
                obj: ObjectId(0),
                rpc: RpcId(1),
                list: vec![ListEntry { tag: TAG0, frag: None }],
                op: op(),
            }),
            invoke(0, 1, ClientCmd::Recon { target: ConfigId(4) }),
            invoke(3, 17, ClientCmd::Write { obj: ObjectId(2), value: Value::filler(24, 5) }),
        ];
        for m in msgs {
            let before = format!("{m:?}");
            let after = format!("{:?}", roundtrip(m));
            assert_eq!(before, after);
        }
    }

    #[test]
    fn shared_decode_is_zero_copy_for_fragments_and_values() {
        let frag = Fragment { index: 2, value_len: 3000, data: Bytes::from(vec![7u8; 1000]) };
        let msg = Msg::Dap(DapMsg::new(
            Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(1), op: op() },
            DapBody::TreasWrite(Tag::new(1, ProcessId(2)), frag.clone()),
        ));
        let frame = encode_frame(ProcessId(3), &msg);
        let payload = Bytes::from(frame[4..].to_vec());
        let (_, decoded) = decode_payload_bytes(&payload).expect("decodes");
        let Msg::Dap(d) = &decoded else { panic!("wrong arm") };
        let DapBody::TreasWrite(_, f) = &d.body else { panic!("wrong body") };
        assert_eq!(f, &frag);
        assert!(
            Bytes::shares_allocation(&f.data, &payload),
            "decoded fragment must slice the frame buffer, not copy it"
        );

        let msg = Msg::Dap(DapMsg::new(
            Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(1), op: op() },
            DapBody::AbdWrite(Tag::new(1, ProcessId(2)), Value::filler(512, 1)),
        ));
        let frame = encode_frame(ProcessId(3), &msg);
        let payload = Bytes::from(frame[4..].to_vec());
        let (_, decoded) = decode_payload_bytes(&payload).expect("decodes");
        let Msg::Dap(d) = &decoded else { panic!("wrong arm") };
        let DapBody::AbdWrite(_, v) = &d.body else { panic!("wrong body") };
        assert_eq!(v, &Value::filler(512, 1));
        assert!(Bytes::shares_allocation(v.bytes(), &payload));
    }

    #[test]
    fn a_full_treas_list_reply_encodes_in_one_reservation() {
        // δ + 2 = 4 entries of 64 KiB elements (δ = 2, the benchmark's
        // `bulk_rw` read): the frame must fit what was reserved up front.
        let frag = Fragment { index: 4, value_len: 3 << 16, data: Bytes::from(vec![7u8; 1 << 16]) };
        let list =
            (0..4).map(|z| ListEntry { tag: Tag::new(z, ProcessId(1)), frag: Some(frag.clone()) });
        let hdr = Hdr { cfg: ConfigId(1), obj: ObjectId(2), rpc: RpcId(3), op: op() };
        let msg = Msg::Dap(DapMsg::new(hdr, DapBody::TreasList(list.collect())));
        let reserved = msg.payload_bytes() as usize + FRAME_SLACK;
        let frame = encode_frame(ProcessId(3), &msg);
        assert!(frame.len() <= reserved, "{} bytes outgrew the {reserved} reserved", frame.len());
        assert_eq!(frame.capacity(), reserved);
    }

    #[test]
    fn truncated_frames_error() {
        let frame = encode_frame(
            ProcessId(1),
            &invoke(0, 0, ClientCmd::Write { obj: ObjectId(0), value: Value::filler(64, 1) }),
        );
        for cut in 0..frame.len().saturating_sub(5) {
            let r = decode_payload(&frame[4..4 + cut]);
            assert!(r.is_err(), "truncation to {cut} payload bytes must error");
        }
    }

    #[test]
    fn trailing_bytes_error() {
        let mut frame =
            encode_payload(ProcessId(1), &invoke(0, 0, ClientCmd::Read { obj: ObjectId(0) }));
        frame.push(0);
        assert_eq!(decode_payload(&frame), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut payload =
            encode_payload(ProcessId(1), &invoke(0, 0, ClientCmd::Read { obj: ObjectId(0) }));
        payload[0] = 9;
        assert_eq!(decode_payload(&payload), Err(DecodeError::BadVersion(9)));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A TreasList claiming u32::MAX entries inside a tiny frame.
        let mut payload = vec![WIRE_VERSION];
        ProcessId(1).encode(&mut payload);
        payload.push(0); // Msg::Dap
        Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(0), op: op() }.encode(&mut payload);
        payload.push(10); // TreasList
        payload.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(decode_payload(&payload), Err(DecodeError::BadCount));
    }

    #[test]
    fn huge_count_within_frame_errors_without_large_allocation() {
        // A count that passes the remaining-bytes check (1 byte per
        // claimed element) but whose elements cannot actually decode:
        // the capacity clamp keeps the preallocation tiny and the first
        // malformed element aborts the decode.
        let mut payload = vec![WIRE_VERSION];
        ProcessId(1).encode(&mut payload);
        payload.push(0); // Msg::Dap
        Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(0), op: op() }.encode(&mut payload);
        payload.push(10); // TreasList
        payload.extend_from_slice(&60_000u32.to_be_bytes());
        payload.extend_from_slice(&[0xFFu8; 64_000]); // "elements"
        assert!(decode_payload(&payload).is_err());
    }

    /// A socket stand-in: counts `read` calls and hands out at most
    /// `per_call` bytes to each.
    struct Metered<'a> {
        data: &'a [u8],
        per_call: usize,
        calls: usize,
    }

    impl io::Read for Metered<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.per_call).min(self.data.len());
            let (head, tail) = self.data.split_at(n);
            buf[..n].copy_from_slice(head);
            self.data = tail;
            Ok(n)
        }
    }

    fn read_through(socket: &mut Metered<'_>) -> io::Result<Option<(ProcessId, Msg)>> {
        read_frame(&mut io::BufReader::with_capacity(FRAME_READ_BUF, socket))
    }

    /// The frame a `bulk_rw` server answers a read with: δ + 1 = 3 coded
    /// elements of a 64 KiB value under [5, 3], 65.6 KiB in all.
    fn bulk_list_reply() -> (Msg, Vec<u8>) {
        let elem = (1usize << 16).div_ceil(3);
        let list = (0..3u64).map(|z| ListEntry {
            tag: Tag::new(z + 1, ProcessId(1)),
            frag: Some(Fragment {
                index: 4,
                value_len: 1 << 16,
                data: Value::filler(elem, z).bytes().clone(),
            }),
        });
        let hdr = Hdr { cfg: ConfigId(1), obj: ObjectId(2), rpc: RpcId(3), op: op() };
        let msg = Msg::Dap(DapMsg::new(hdr, DapBody::TreasList(list.collect())));
        let frame = encode_frame(ProcessId(3), &msg);
        (msg, frame)
    }

    #[test]
    fn a_stored_fragment_pins_exactly_its_frame() {
        // What a server retains from a `TreasWrite` is a view into the
        // frame's one allocation, and that allocation has no slack: its
        // capacity is the payload length the prefix declared.
        let frag = Fragment { index: 2, value_len: 1 << 16, data: Bytes::from(vec![7u8; 21_846]) };
        let hdr = Hdr { cfg: ConfigId(0), obj: ObjectId(0), rpc: RpcId(1), op: op() };
        let msg = Msg::Dap(DapMsg::new(hdr, DapBody::TreasWrite(Tag::new(1, ProcessId(2)), frag)));
        let frame = encode_frame(ProcessId(3), &msg);
        for per_call in [usize::MAX, 1_000, 1] {
            let mut socket = Metered { data: &frame, per_call, calls: 0 };
            let (_, decoded) = read_through(&mut socket).unwrap().expect("one frame");
            assert_eq!(decoded, msg);
            let Msg::Dap(DapMsg { body: DapBody::TreasWrite(_, f), .. }) = &decoded else {
                panic!("wrong arm")
            };
            assert_eq!(f.data.backing_len(), frame.len() - 4, "{per_call} bytes per read");
            assert_eq!(f.data.ref_count(), 1, "the frame buffer itself is gone");
        }
    }

    #[test]
    fn a_bulk_list_reply_is_read_in_three_reads_into_one_allocation() {
        let (msg, frame) = bulk_list_reply();
        assert!((65_536..66_000).contains(&frame.len()));
        let mut socket = Metered { data: &frame, per_call: usize::MAX, calls: 0 };
        let (from, decoded) = read_through(&mut socket).unwrap().expect("one frame");
        assert_eq!((from, &decoded), (ProcessId(3), &msg));
        assert!(socket.calls <= 3, "{} reads for a frame that was all there", socket.calls);
        let Msg::Dap(DapMsg { body: DapBody::TreasList(list), .. }) = &decoded else {
            panic!("wrong arm")
        };
        let frags: Vec<&Fragment> = list.iter().filter_map(|e| e.frag.as_ref()).collect();
        for f in &frags {
            assert!(Bytes::shares_allocation(&f.data, &frags[0].data));
            assert_eq!(f.data.backing_len(), frame.len() - 4);
        }
    }

    #[test]
    fn memory_held_for_a_frame_tracks_the_bytes_that_arrived() {
        // `read_frame`'s growth rule, driven the way a connection that
        // trickles one byte at a time drives it, for the largest frame a
        // prefix can declare.
        let (mut capacity, mut reallocations) = (0, 0);
        for arrived in 1..=MAX_FRAME_LEN {
            if arrived > capacity {
                capacity = frame_capacity(arrived, MAX_FRAME_LEN);
                reallocations += 1;
            }
            assert!(arrived <= capacity && capacity <= 2 * arrived + FRAME_GROW_STEP);
        }
        assert_eq!(capacity, MAX_FRAME_LEN, "the final capacity is the frame, exactly");
        assert!(reallocations <= 12, "{reallocations} reallocations");
        // A frame whose bytes are all there is allocated once, at its length.
        assert_eq!(frame_capacity(65_532, 65_657), 65_657);

        // A connection that sends the prefix and one byte holds one step…
        assert_eq!(frame_capacity(1, MAX_FRAME_LEN), FRAME_GROW_STEP + 2);
        // …and is an error when it closes, not a frame.
        let mut hostile = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
        hostile.push(WIRE_VERSION);
        let mut socket = Metered { data: &hostile, per_call: 1, calls: 0 };
        let err = read_through(&mut socket).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut stream = io::Cursor::new(((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec());
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_is_none() {
        let mut stream = io::Cursor::new(Vec::new());
        assert!(read_frame(&mut stream).unwrap().is_none());
    }
}
