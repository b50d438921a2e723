//! Hand-rolled, length-prefixed binary wire encoding for [`Msg`].
//!
//! The workspace's vendored `serde` is an API stand-in, not a real
//! serializer, so the network crate defines its own codec: two tiny
//! traits ([`WireEncode`] / [`WireDecode`]) implemented for the whole
//! message tree (`ares_core::Msg` and its nested DAP / consensus /
//! configuration-service / state-transfer / repair payloads).
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
//! followed by the variant's fields in declaration order; `Option<T>` is
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
use ares_types::{
    ConfigEntry, ConfigId, ObjectId, OpId, ProcessId, RpcId, SessionId, Status, Tag, Value,
};
use bytes::Bytes;
use std::fmt;
use std::io::{self, Read};

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

macro_rules! wire_u32_newtype {
    ($ty:ident) => {
        impl WireEncode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                self.0.encode(out);
            }
        }
        impl WireDecode for $ty {
            fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
                Ok($ty(r.u32()?))
            }
        }
    };
}

wire_u32_newtype!(ProcessId);
wire_u32_newtype!(ObjectId);
wire_u32_newtype!(ConfigId);

impl WireEncode for RpcId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}
impl WireDecode for RpcId {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(RpcId(r.u64()?))
    }
}

impl WireEncode for OpId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.client.encode(out);
        self.seq.encode(out);
    }
}
impl WireDecode for OpId {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(OpId { client: ProcessId::decode(r)?, seq: r.u64()? })
    }
}

impl WireEncode for Tag {
    fn encode(&self, out: &mut Vec<u8>) {
        self.z.encode(out);
        self.w.encode(out);
    }
}
impl WireDecode for Tag {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(Tag { z: r.u64()?, w: ProcessId::decode(r)? })
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

impl WireEncode for Status {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Status::Pending => 0,
            Status::Finalized => 1,
        });
    }
}
impl WireDecode for Status {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(Status::Pending),
            1 => Ok(Status::Finalized),
            tag => Err(DecodeError::BadTag { what: "Status", tag }),
        }
    }
}

impl WireEncode for ConfigEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cfg.encode(out);
        self.status.encode(out);
    }
}
impl WireDecode for ConfigEntry {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(ConfigEntry { cfg: ConfigId::decode(r)?, status: Status::decode(r)? })
    }
}

impl WireEncode for Ballot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.proposer.encode(out);
    }
}
impl WireDecode for Ballot {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(Ballot { round: r.u64()?, proposer: ProcessId::decode(r)? })
    }
}

impl WireEncode for (Ballot, ConfigId) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}
impl WireDecode for (Ballot, ConfigId) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok((Ballot::decode(r)?, ConfigId::decode(r)?))
    }
}

impl WireEncode for Hdr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.cfg.encode(out);
        self.obj.encode(out);
        self.rpc.encode(out);
        self.op.encode(out);
    }
}
impl WireDecode for Hdr {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(Hdr {
            cfg: ConfigId::decode(r)?,
            obj: ObjectId::decode(r)?,
            rpc: RpcId::decode(r)?,
            op: OpId::decode(r)?,
        })
    }
}

impl WireEncode for ListEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.tag.encode(out);
        self.frag.encode(out);
    }
}
impl WireDecode for ListEntry {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(ListEntry { tag: Tag::decode(r)?, frag: Option::<Fragment>::decode(r)? })
    }
}

// ---------------------------------------------------------------------
// Protocol payloads
// ---------------------------------------------------------------------

impl WireEncode for DapBody {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DapBody::AbdQueryTag => out.push(0),
            DapBody::AbdQuery => out.push(1),
            DapBody::AbdWrite(t, v) => {
                out.push(2);
                t.encode(out);
                v.encode(out);
            }
            DapBody::AbdTag(t) => {
                out.push(3);
                t.encode(out);
            }
            DapBody::AbdTagValue(t, v) => {
                out.push(4);
                t.encode(out);
                v.encode(out);
            }
            DapBody::AbdAck => out.push(5),
            DapBody::TreasQueryTag => out.push(6),
            DapBody::TreasQueryList => out.push(7),
            DapBody::TreasWrite(t, f) => {
                out.push(8);
                t.encode(out);
                f.encode(out);
            }
            DapBody::TreasTag(t) => {
                out.push(9);
                t.encode(out);
            }
            DapBody::TreasList(l) => {
                out.push(10);
                l.encode(out);
            }
            DapBody::TreasAck => out.push(11),
            DapBody::LdrQueryTagLoc => out.push(12),
            DapBody::LdrTagLoc(t, locs) => {
                out.push(13);
                t.encode(out);
                locs.encode(out);
            }
            DapBody::LdrPutData(t, v) => {
                out.push(14);
                t.encode(out);
                v.encode(out);
            }
            DapBody::LdrPutDataAck(t) => {
                out.push(15);
                t.encode(out);
            }
            DapBody::LdrPutMeta(t, locs) => {
                out.push(16);
                t.encode(out);
                locs.encode(out);
            }
            DapBody::LdrPutMetaAck => out.push(17),
            DapBody::LdrGetData(t) => {
                out.push(18);
                t.encode(out);
            }
            DapBody::LdrData(t, v) => {
                out.push(19);
                t.encode(out);
                v.encode(out);
            }
        }
    }
}

impl WireDecode for DapBody {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => DapBody::AbdQueryTag,
            1 => DapBody::AbdQuery,
            2 => DapBody::AbdWrite(Tag::decode(r)?, Value::decode(r)?),
            3 => DapBody::AbdTag(Tag::decode(r)?),
            4 => DapBody::AbdTagValue(Tag::decode(r)?, Value::decode(r)?),
            5 => DapBody::AbdAck,
            6 => DapBody::TreasQueryTag,
            7 => DapBody::TreasQueryList,
            8 => DapBody::TreasWrite(Tag::decode(r)?, Fragment::decode(r)?),
            9 => DapBody::TreasTag(Tag::decode(r)?),
            10 => DapBody::TreasList(Vec::<ListEntry>::decode(r)?),
            11 => DapBody::TreasAck,
            12 => DapBody::LdrQueryTagLoc,
            13 => DapBody::LdrTagLoc(Tag::decode(r)?, Vec::<ProcessId>::decode(r)?),
            14 => DapBody::LdrPutData(Tag::decode(r)?, Value::decode(r)?),
            15 => DapBody::LdrPutDataAck(Tag::decode(r)?),
            16 => DapBody::LdrPutMeta(Tag::decode(r)?, Vec::<ProcessId>::decode(r)?),
            17 => DapBody::LdrPutMetaAck,
            18 => DapBody::LdrGetData(Tag::decode(r)?),
            19 => DapBody::LdrData(Tag::decode(r)?, Value::decode(r)?),
            tag => return Err(DecodeError::BadTag { what: "DapBody", tag }),
        })
    }
}

impl WireEncode for DapMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        self.hdr.encode(out);
        self.body.encode(out);
    }
}
impl WireDecode for DapMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(DapMsg { hdr: Hdr::decode(r)?, body: DapBody::decode(r)? })
    }
}

impl WireEncode for ConMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ConMsg::Prepare { inst, rpc, ballot, op } => {
                out.push(0);
                inst.encode(out);
                rpc.encode(out);
                ballot.encode(out);
                op.encode(out);
            }
            ConMsg::Promise { inst, rpc, ballot, accepted, decided, op } => {
                out.push(1);
                inst.encode(out);
                rpc.encode(out);
                ballot.encode(out);
                accepted.encode(out);
                decided.encode(out);
                op.encode(out);
            }
            ConMsg::NackPrepare { inst, rpc, promised, op } => {
                out.push(2);
                inst.encode(out);
                rpc.encode(out);
                promised.encode(out);
                op.encode(out);
            }
            ConMsg::Accept { inst, rpc, ballot, value, op } => {
                out.push(3);
                inst.encode(out);
                rpc.encode(out);
                ballot.encode(out);
                value.encode(out);
                op.encode(out);
            }
            ConMsg::Accepted { inst, rpc, ballot, op } => {
                out.push(4);
                inst.encode(out);
                rpc.encode(out);
                ballot.encode(out);
                op.encode(out);
            }
            ConMsg::NackAccept { inst, rpc, promised, op } => {
                out.push(5);
                inst.encode(out);
                rpc.encode(out);
                promised.encode(out);
                op.encode(out);
            }
            ConMsg::Decide { inst, value } => {
                out.push(6);
                inst.encode(out);
                value.encode(out);
            }
        }
    }
}

impl WireDecode for ConMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => ConMsg::Prepare {
                inst: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                ballot: Ballot::decode(r)?,
                op: OpId::decode(r)?,
            },
            1 => ConMsg::Promise {
                inst: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                ballot: Ballot::decode(r)?,
                accepted: Option::<(Ballot, ConfigId)>::decode(r)?,
                decided: Option::<ConfigId>::decode(r)?,
                op: OpId::decode(r)?,
            },
            2 => ConMsg::NackPrepare {
                inst: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                promised: Ballot::decode(r)?,
                op: OpId::decode(r)?,
            },
            3 => ConMsg::Accept {
                inst: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                ballot: Ballot::decode(r)?,
                value: ConfigId::decode(r)?,
                op: OpId::decode(r)?,
            },
            4 => ConMsg::Accepted {
                inst: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                ballot: Ballot::decode(r)?,
                op: OpId::decode(r)?,
            },
            5 => ConMsg::NackAccept {
                inst: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                promised: Ballot::decode(r)?,
                op: OpId::decode(r)?,
            },
            6 => ConMsg::Decide { inst: ConfigId::decode(r)?, value: ConfigId::decode(r)? },
            tag => return Err(DecodeError::BadTag { what: "ConMsg", tag }),
        })
    }
}

impl WireEncode for CfgMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CfgMsg::ReadConfig { base, rpc, op } => {
                out.push(0);
                base.encode(out);
                rpc.encode(out);
                op.encode(out);
            }
            CfgMsg::NextC { base, rpc, next, op } => {
                out.push(1);
                base.encode(out);
                rpc.encode(out);
                next.encode(out);
                op.encode(out);
            }
            CfgMsg::WriteConfig { base, entry, rpc, op } => {
                out.push(2);
                base.encode(out);
                entry.encode(out);
                rpc.encode(out);
                op.encode(out);
            }
            CfgMsg::CfgAck { base, rpc, op } => {
                out.push(3);
                base.encode(out);
                rpc.encode(out);
                op.encode(out);
            }
        }
    }
}

impl WireDecode for CfgMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => CfgMsg::ReadConfig {
                base: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                op: OpId::decode(r)?,
            },
            1 => CfgMsg::NextC {
                base: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                next: Option::<ConfigEntry>::decode(r)?,
                op: OpId::decode(r)?,
            },
            2 => CfgMsg::WriteConfig {
                base: ConfigId::decode(r)?,
                entry: ConfigEntry::decode(r)?,
                rpc: RpcId::decode(r)?,
                op: OpId::decode(r)?,
            },
            3 => CfgMsg::CfgAck {
                base: ConfigId::decode(r)?,
                rpc: RpcId::decode(r)?,
                op: OpId::decode(r)?,
            },
            tag => return Err(DecodeError::BadTag { what: "CfgMsg", tag }),
        })
    }
}

impl WireEncode for XferMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            XferMsg::ReqFwd { tag, src, dst, obj, rc, rpc, op } => {
                out.push(0);
                tag.encode(out);
                src.encode(out);
                dst.encode(out);
                obj.encode(out);
                rc.encode(out);
                rpc.encode(out);
                op.encode(out);
            }
            XferMsg::FwdElem { tag, frag, src, dst, obj, rc, rpc, op } => {
                out.push(1);
                tag.encode(out);
                frag.encode(out);
                src.encode(out);
                dst.encode(out);
                obj.encode(out);
                rc.encode(out);
                rpc.encode(out);
                op.encode(out);
            }
            XferMsg::XferAck { dst, obj, tag, rpc, op } => {
                out.push(2);
                dst.encode(out);
                obj.encode(out);
                tag.encode(out);
                rpc.encode(out);
                op.encode(out);
            }
        }
    }
}

impl WireDecode for XferMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => XferMsg::ReqFwd {
                tag: Tag::decode(r)?,
                src: ConfigId::decode(r)?,
                dst: ConfigId::decode(r)?,
                obj: ObjectId::decode(r)?,
                rc: ProcessId::decode(r)?,
                rpc: RpcId::decode(r)?,
                op: OpId::decode(r)?,
            },
            1 => XferMsg::FwdElem {
                tag: Tag::decode(r)?,
                frag: Fragment::decode(r)?,
                src: ConfigId::decode(r)?,
                dst: ConfigId::decode(r)?,
                obj: ObjectId::decode(r)?,
                rc: ProcessId::decode(r)?,
                rpc: RpcId::decode(r)?,
                op: OpId::decode(r)?,
            },
            2 => XferMsg::XferAck {
                dst: ConfigId::decode(r)?,
                obj: ObjectId::decode(r)?,
                tag: Tag::decode(r)?,
                rpc: RpcId::decode(r)?,
                op: OpId::decode(r)?,
            },
            tag => return Err(DecodeError::BadTag { what: "XferMsg", tag }),
        })
    }
}

impl WireEncode for RepairMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RepairMsg::Trigger { cfg, obj } => {
                out.push(0);
                cfg.encode(out);
                obj.encode(out);
            }
            RepairMsg::Query { cfg, obj, rpc, known, op } => {
                out.push(1);
                cfg.encode(out);
                obj.encode(out);
                rpc.encode(out);
                known.encode(out);
                op.encode(out);
            }
            RepairMsg::Lists { cfg, obj, rpc, list, op } => {
                out.push(2);
                cfg.encode(out);
                obj.encode(out);
                rpc.encode(out);
                list.encode(out);
                op.encode(out);
            }
        }
    }
}

impl WireDecode for RepairMsg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => RepairMsg::Trigger { cfg: ConfigId::decode(r)?, obj: ObjectId::decode(r)? },
            1 => RepairMsg::Query {
                cfg: ConfigId::decode(r)?,
                obj: ObjectId::decode(r)?,
                rpc: RpcId::decode(r)?,
                known: Vec::<Tag>::decode(r)?,
                op: OpId::decode(r)?,
            },
            2 => RepairMsg::Lists {
                cfg: ConfigId::decode(r)?,
                obj: ObjectId::decode(r)?,
                rpc: RpcId::decode(r)?,
                list: Vec::<ListEntry>::decode(r)?,
                op: OpId::decode(r)?,
            },
            tag => return Err(DecodeError::BadTag { what: "RepairMsg", tag }),
        })
    }
}

impl WireEncode for ClientCmd {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientCmd::Write { obj, value } => {
                out.push(0);
                obj.encode(out);
                value.encode(out);
            }
            ClientCmd::Read { obj } => {
                out.push(1);
                obj.encode(out);
            }
            ClientCmd::Recon { target } => {
                out.push(2);
                target.encode(out);
            }
        }
    }
}

impl WireDecode for ClientCmd {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => ClientCmd::Write { obj: ObjectId::decode(r)?, value: Value::decode(r)? },
            1 => ClientCmd::Read { obj: ObjectId::decode(r)? },
            2 => ClientCmd::Recon { target: ConfigId::decode(r)? },
            tag => return Err(DecodeError::BadTag { what: "ClientCmd", tag }),
        })
    }
}

impl WireEncode for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Msg::Dap(m) => {
                out.push(0);
                m.encode(out);
            }
            Msg::Con(m) => {
                out.push(1);
                m.encode(out);
            }
            Msg::Cfg(m) => {
                out.push(2);
                m.encode(out);
            }
            Msg::Xfer(m) => {
                out.push(3);
                m.encode(out);
            }
            Msg::Repair(m) => {
                out.push(4);
                m.encode(out);
            }
            // Tag 5 is retired and stays unassigned, so 6 keeps its number.
            Msg::Invoke(inv) => {
                out.push(6);
                out.extend_from_slice(&inv.session.0.to_be_bytes());
                out.extend_from_slice(&inv.seq.to_be_bytes());
                inv.cmd.encode(out);
            }
        }
    }
}

impl WireDecode for Msg {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.u8()? {
            0 => Msg::Dap(DapMsg::decode(r)?),
            1 => Msg::Con(ConMsg::decode(r)?),
            2 => Msg::Cfg(CfgMsg::decode(r)?),
            3 => Msg::Xfer(XferMsg::decode(r)?),
            4 => Msg::Repair(RepairMsg::decode(r)?),
            6 => Msg::Invoke(Invoke {
                session: SessionId(r.u32()?),
                seq: r.u64()?,
                cmd: ClientCmd::decode(r)?,
            }),
            tag => return Err(DecodeError::BadTag { what: "Msg", tag }),
        })
    }
}

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

/// Encodes one frame payload (version, sender, message) *without* the
/// length prefix.
pub fn encode_payload(from: ProcessId, msg: &Msg) -> Vec<u8> {
    FRAMES_ENCODED.with(|c| c.set(c.get() + 1));
    let mut out = Vec::with_capacity(payload_size_hint(msg) + 64);
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

/// Lower bound on the encoded size of `msg`'s bulk payload (value or
/// fragment bytes), used to presize frame buffers so encoding a
/// megabyte value is one reservation and one copy instead of a
/// doubling-realloc cascade.
fn payload_size_hint(msg: &Msg) -> usize {
    match msg {
        Msg::Dap(m) => match &m.body {
            DapBody::AbdWrite(_, v)
            | DapBody::AbdTagValue(_, v)
            | DapBody::LdrPutData(_, v)
            | DapBody::LdrData(_, v) => v.len(),
            DapBody::TreasWrite(_, f) => f.data.len(),
            DapBody::TreasList(l) => {
                l.iter().map(|e| e.frag.as_ref().map_or(0, |f| f.data.len()) + 32).sum()
            }
            _ => 0,
        },
        Msg::Xfer(XferMsg::FwdElem { frag, .. }) => frag.data.len(),
        Msg::Repair(RepairMsg::Lists { list, .. }) => {
            list.iter().map(|e| e.frag.as_ref().map_or(0, |f| f.data.len()) + 32).sum()
        }
        Msg::Invoke(Invoke { cmd: ClientCmd::Write { value, .. }, .. }) => value.len(),
        _ => 0,
    }
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
    let mut out = Vec::with_capacity(payload_size_hint(msg) + 96);
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

/// Reads one frame from `r`.
///
/// Returns `Ok(None)` on clean end-of-stream (the peer closed between
/// frames); any malformation — oversized length prefix, truncation
/// mid-frame, undecodable payload — surfaces as an
/// [`io::ErrorKind::InvalidData`] / [`io::ErrorKind::UnexpectedEof`]
/// error. Never panics.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<(ProcessId, Msg)>> {
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
    // lint: allow(net-panic, reason = "in-bounds: fixed-size stack arrays, constant indices")
    let len = u32::from_be_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::FrameTooLarge(len).into());
    }
    // Grow the buffer in bounded steps, reading straight into it (one
    // copy): preallocating the attacker-declared length would let idle
    // connections that send only a large prefix pin MAX_FRAME_LEN of
    // memory each.
    const STEP: usize = 16 * 1024;
    let mut payload = Vec::new();
    let mut filled = 0usize;
    while filled < len {
        let target = (filled + STEP).min(len);
        if payload.len() < target {
            payload.resize(target, 0);
        }
        // lint: allow(net-panic, reason = "in-bounds: filled < target <= payload.len() after the resize above")
        let n = match r.read(&mut payload[filled..target]) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        filled += n;
    }
    debug_assert_eq!(payload.len(), len);
    Ok(Some(decode_payload_bytes(&Bytes::from(payload))?))
}

/// The object id `msg` operates on, if any (`None` for consensus and
/// configuration-service traffic, which is per-configuration).
///
/// Lets a listener with a declared object universe drop traffic for
/// fabricated objects before it reaches the actors, whose per-object
/// state is created on first touch.
pub fn referenced_object(msg: &Msg) -> Option<ObjectId> {
    match msg {
        Msg::Dap(m) => Some(m.hdr.obj),
        Msg::Con(_) | Msg::Cfg(_) => None,
        Msg::Xfer(m) => match m {
            XferMsg::ReqFwd { obj, .. }
            | XferMsg::FwdElem { obj, .. }
            | XferMsg::XferAck { obj, .. } => Some(*obj),
        },
        Msg::Repair(m) => match m {
            RepairMsg::Trigger { obj, .. }
            | RepairMsg::Query { obj, .. }
            | RepairMsg::Lists { obj, .. } => Some(*obj),
        },
        Msg::Invoke(inv) => match &inv.cmd {
            ClientCmd::Write { obj, .. } | ClientCmd::Read { obj } => Some(*obj),
            ClientCmd::Recon { .. } => None,
        },
    }
}

/// The shard index `msg` dispatches to on an `shards`-shard node — the
/// listener's cheap routing peek, sitting next to [`referenced_object`]
/// / [`referenced_configs`] in the decode path. Object-scoped protocol
/// traffic (DAP, state transfer, repair) hashes by the object it names;
/// config-wide traffic (consensus, configuration service) and
/// the invoke envelope return shard 0. The classification itself
/// lives in [`ares_core::shard`], next to the message tree.
pub fn shard_route(msg: &Msg, shards: usize) -> usize {
    ares_core::shard::shard_of(msg, shards)
}

/// Every configuration id referenced by `msg`.
///
/// Network-facing dispatch uses this with
/// [`ares_types::ConfigRegistry::try_get`] to drop messages naming
/// configurations outside the registered universe *before* they reach
/// protocol state machines (whose internal lookups treat unknown ids as
/// bugs and panic).
pub fn referenced_configs(msg: &Msg) -> Vec<ConfigId> {
    match msg {
        Msg::Dap(m) => vec![m.hdr.cfg],
        Msg::Con(m) => match m {
            ConMsg::Promise { inst, accepted, decided, .. } => {
                let mut v = vec![*inst];
                if let Some((_, c)) = accepted {
                    v.push(*c);
                }
                if let Some(c) = decided {
                    v.push(*c);
                }
                v
            }
            ConMsg::Accept { inst, value, .. } | ConMsg::Decide { inst, value, .. } => {
                vec![*inst, *value]
            }
            _ => vec![m.instance()],
        },
        Msg::Cfg(m) => match m {
            CfgMsg::ReadConfig { base, .. } | CfgMsg::CfgAck { base, .. } => vec![*base],
            CfgMsg::NextC { base, next, .. } => {
                let mut v = vec![*base];
                if let Some(e) = next {
                    v.push(e.cfg);
                }
                v
            }
            CfgMsg::WriteConfig { base, entry, .. } => vec![*base, entry.cfg],
        },
        Msg::Xfer(m) => match m {
            XferMsg::ReqFwd { src, dst, .. } | XferMsg::FwdElem { src, dst, .. } => {
                vec![*src, *dst]
            }
            XferMsg::XferAck { dst, .. } => vec![*dst],
        },
        Msg::Repair(m) => match m {
            RepairMsg::Trigger { cfg, .. }
            | RepairMsg::Query { cfg, .. }
            | RepairMsg::Lists { cfg, .. } => vec![*cfg],
        },
        Msg::Invoke(inv) => match &inv.cmd {
            ClientCmd::Recon { target } => vec![*target],
            _ => Vec::new(),
        },
    }
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

    #[test]
    fn referenced_configs_cover_nested_ids() {
        let m = Msg::Cfg(CfgMsg::NextC {
            base: ConfigId(1),
            rpc: RpcId(2),
            next: Some(ConfigEntry::pending(ConfigId(9))),
            op: op(),
        });
        assert_eq!(referenced_configs(&m), vec![ConfigId(1), ConfigId(9)]);
        let m = Msg::Con(ConMsg::Decide { inst: ConfigId(0), value: ConfigId(3) });
        assert_eq!(referenced_configs(&m), vec![ConfigId(0), ConfigId(3)]);
    }
}
