//! Data-access primitives (DAPs) and their three implementations.
//!
//! Section 2.1 of the paper factors every tag-based atomic read/write
//! algorithm into three *data access primitives* executed against a
//! configuration `c`:
//!
//! * `c.get-tag()` — returns a tag `τ ∈ T`;
//! * `c.get-data()` — returns a tag-value pair `(τ, v)`;
//! * `c.put-data(⟨τ, v⟩)` — stores a tag-value pair.
//!
//! If the primitives satisfy consistency properties **C1** (a `get` that
//! follows a completed `put-data(⟨τ,v⟩)` returns a tag `≥ τ`) and **C2**
//! (a `get-data` returns a pair that was actually put, or `(t_0, v_0)`),
//! then the generic templates A1/A2 (Algs. 10–11) — and ARES itself,
//! whose read/write (Alg. 7) is A1 inside `read-config` — are atomic
//! (Theorems 4/32/33 and 21).
//!
//! This crate provides:
//!
//! * the wire messages ([`DapMsg`]) shared by all implementations;
//! * client-side engines ([`client::DapCall`]) for **ABD** (Alg. 12),
//!   **TREAS** (Algs. 2–3) and **LDR** (Alg. 13);
//! * the corresponding server-side state machines ([`server::DapServer`]).

pub mod client;
pub mod server;

use ares_codes::Fragment;
use ares_sim::SimMessage;
use ares_types::{ConfigEntry, ConfigId, ObjectId, OpId, ProcessId, RpcId, Tag, TagValue, Value};

/// Common header of every DAP message: which configuration and object it
/// concerns, the client phase it belongs to, and the client operation it
/// is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hdr {
    /// The configuration the primitive runs in.
    pub cfg: ConfigId,
    /// The shared object.
    pub obj: ObjectId,
    /// Client phase id (for reply matching / straggler rejection).
    pub rpc: RpcId,
    /// The client operation (for cost and delay attribution).
    pub op: OpId,
}

/// One entry of a TREAS server `List`: a tag plus its coded element, or
/// `⊥` if the element was garbage-collected (Alg. 3 line 15 keeps the tag
/// and drops the data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListEntry {
    /// The tag.
    pub tag: Tag,
    /// The coded element, or `None` for `⊥`.
    pub frag: Option<Fragment>,
}

impl ListEntry {
    /// Bytes of coded payload held by this entry.
    pub fn payload_bytes(&self) -> u64 {
        self.frag.as_ref().map_or(0, |f| f.data.len() as u64)
    }
}

/// Message bodies of all three DAP implementations.
///
/// Requests flow client → server, replies server → client; the variants
/// mirror the paper's message names (`QUERY-TAG`, `QUERY-LIST`,
/// `PUT-DATA`, `WRITE`, `QUERY-TAG-LOCATION`, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DapBody {
    // ---- ABD (Alg. 12) ----
    /// `QUERY-TAG`: ask for the server's tag.
    AbdQueryTag,
    /// `QUERY`: ask for the server's `⟨τ, v⟩`.
    AbdQuery,
    /// `WRITE`: store `⟨τ, v⟩` if `τ` is higher.
    AbdWrite(Tag, Value),
    /// Reply to `AbdQueryTag`.
    AbdTag(Tag),
    /// Reply to `AbdQuery`.
    AbdTagValue(Tag, Value),
    /// Ack of `AbdWrite`.
    AbdAck,

    // ---- TREAS (Algs. 2-3) ----
    /// `QUERY-TAG`: ask for the highest tag in the server's `List`.
    TreasQueryTag,
    /// `QUERY-LIST`: ask for the full `List`.
    TreasQueryList,
    /// `PUT-DATA`: store `⟨τ, Φ_i(v)⟩`.
    TreasWrite(Tag, Fragment),
    /// Reply to `TreasQueryTag`.
    TreasTag(Tag),
    /// Reply to `TreasQueryList`.
    TreasList(Vec<ListEntry>),
    /// Ack of `TreasWrite`.
    TreasAck,

    // ---- LDR (Alg. 13) ----
    /// `QUERY-TAG-LOCATION` to a directory server.
    LdrQueryTagLoc,
    /// Directory reply: its `⟨τ, locations⟩`.
    LdrTagLoc(Tag, Vec<ProcessId>),
    /// `PUT-DATA` to a replica server.
    LdrPutData(Tag, Value),
    /// Replica ack of `LdrPutData`.
    LdrPutDataAck(Tag),
    /// `PUT-METADATA` to a directory server.
    LdrPutMeta(Tag, Vec<ProcessId>),
    /// Directory ack of `LdrPutMeta`.
    LdrPutMetaAck,
    /// `GET-DATA` from a replica: fetch the value for a tag.
    LdrGetData(Tag),
    /// Replica reply carrying `⟨τ, v⟩`.
    LdrData(Tag, Value),

    // ---- every implementation ----
    /// Reply to any request for a configuration this server has
    /// *retired*: it holds the header configuration's finalized
    /// successor `⟨c', F⟩`, carried here, and no longer its object
    /// state. The caller continues at `c'` (DESIGN.md §2).
    Retired(ConfigEntry),
}

/// A DAP wire message: header plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DapMsg {
    /// Routing/attribution header.
    pub hdr: Hdr,
    /// The protocol payload.
    pub body: DapBody,
}

impl DapMsg {
    /// Creates a message.
    pub fn new(hdr: Hdr, body: DapBody) -> Self {
        DapMsg { hdr, body }
    }
}

// Each per-variant fact is one match naming every variant: a new one does
// not compile until classified, and clippy refuses a `_` that absorbs it.
#[deny(clippy::wildcard_enum_match_arm)]
impl DapBody {
    /// Object-data bytes carried. Only object data counts (Section 2:
    /// metadata such as tags and ids is of negligible size and ignored).
    pub fn payload_bytes(&self) -> u64 {
        match self {
            DapBody::AbdWrite(_, v)
            | DapBody::AbdTagValue(_, v)
            | DapBody::LdrPutData(_, v)
            | DapBody::LdrData(_, v) => v.len() as u64,
            DapBody::TreasWrite(_, f) => f.data.len() as u64,
            DapBody::TreasList(list) => list.iter().map(ListEntry::payload_bytes).sum(),
            DapBody::AbdQueryTag
            | DapBody::AbdQuery
            | DapBody::AbdTag(_)
            | DapBody::AbdAck
            | DapBody::TreasQueryTag
            | DapBody::TreasQueryList
            | DapBody::TreasTag(_)
            | DapBody::TreasAck
            | DapBody::LdrQueryTagLoc
            | DapBody::LdrTagLoc(..)
            | DapBody::LdrPutDataAck(_)
            | DapBody::LdrPutMeta(..)
            | DapBody::LdrPutMetaAck
            | DapBody::LdrGetData(_)
            | DapBody::Retired(_) => 0,
        }
    }

    /// Whether this body mutates durable server state (the puts), so a
    /// durable host must journal it before the handler runs.
    pub fn journaled(&self) -> bool {
        match self {
            DapBody::AbdWrite(..)
            | DapBody::TreasWrite(..)
            | DapBody::LdrPutData(..)
            | DapBody::LdrPutMeta(..) => true,
            DapBody::AbdQueryTag
            | DapBody::AbdQuery
            | DapBody::AbdTag(_)
            | DapBody::AbdTagValue(..)
            | DapBody::AbdAck
            | DapBody::TreasQueryTag
            | DapBody::TreasQueryList
            | DapBody::TreasTag(_)
            | DapBody::TreasList(_)
            | DapBody::TreasAck
            | DapBody::LdrQueryTagLoc
            | DapBody::LdrTagLoc(..)
            | DapBody::LdrPutDataAck(_)
            | DapBody::LdrPutMetaAck
            | DapBody::LdrGetData(_)
            | DapBody::LdrData(..)
            | DapBody::Retired(_) => false,
        }
    }

    /// Whether this body is a request a server answers (client →
    /// server), as opposed to a reply.
    pub fn is_request(&self) -> bool {
        match self {
            DapBody::AbdQueryTag
            | DapBody::AbdQuery
            | DapBody::AbdWrite(..)
            | DapBody::TreasQueryTag
            | DapBody::TreasQueryList
            | DapBody::TreasWrite(..)
            | DapBody::LdrQueryTagLoc
            | DapBody::LdrPutData(..)
            | DapBody::LdrPutMeta(..)
            | DapBody::LdrGetData(_) => true,
            DapBody::AbdTag(_)
            | DapBody::AbdTagValue(..)
            | DapBody::AbdAck
            | DapBody::TreasTag(_)
            | DapBody::TreasList(_)
            | DapBody::TreasAck
            | DapBody::LdrTagLoc(..)
            | DapBody::LdrPutDataAck(_)
            | DapBody::LdrPutMetaAck
            | DapBody::LdrData(..)
            | DapBody::Retired(_) => false,
        }
    }
}

impl SimMessage for DapMsg {
    fn payload_bytes(&self) -> u64 {
        self.body.payload_bytes()
    }

    fn op(&self) -> Option<OpId> {
        Some(self.hdr.op)
    }

    fn label(&self) -> String {
        let name = match &self.body {
            DapBody::AbdQueryTag => "ABD.QUERY-TAG",
            DapBody::AbdQuery => "ABD.QUERY",
            DapBody::AbdWrite(..) => "ABD.WRITE",
            DapBody::AbdTag(..) => "ABD.TAG",
            DapBody::AbdTagValue(..) => "ABD.TAG-VALUE",
            DapBody::AbdAck => "ABD.ACK",
            DapBody::TreasQueryTag => "TREAS.QUERY-TAG",
            DapBody::TreasQueryList => "TREAS.QUERY-LIST",
            DapBody::TreasWrite(..) => "TREAS.PUT-DATA",
            DapBody::TreasTag(..) => "TREAS.TAG",
            DapBody::TreasList(..) => "TREAS.LIST",
            DapBody::TreasAck => "TREAS.ACK",
            DapBody::LdrQueryTagLoc => "LDR.QUERY-TAG-LOC",
            DapBody::LdrTagLoc(..) => "LDR.TAG-LOC",
            DapBody::LdrPutData(..) => "LDR.PUT-DATA",
            DapBody::LdrPutDataAck(..) => "LDR.PUT-DATA-ACK",
            DapBody::LdrPutMeta(..) => "LDR.PUT-META",
            DapBody::LdrPutMetaAck => "LDR.PUT-META-ACK",
            DapBody::LdrGetData(..) => "LDR.GET-DATA",
            DapBody::LdrData(..) => "LDR.DATA",
            DapBody::Retired(..) => "RETIRED",
        };
        format!("{name}[{}]", self.hdr.cfg)
    }
}

/// The result of a completed DAP call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DapOutput {
    /// `get-tag` result.
    Tag(Tag),
    /// `get-data` result.
    TagValue(TagValue),
    /// `put-data` completion.
    Ack,
    /// A server answered that the call's configuration is retired: its
    /// finalized successor, where the caller continues.
    Retired(ConfigEntry),
}

impl DapOutput {
    /// The tag carried by this output.
    ///
    /// # Panics
    ///
    /// Panics on [`DapOutput::Ack`] and [`DapOutput::Retired`], which
    /// carry no tag.
    pub fn tag(&self) -> Tag {
        match self {
            DapOutput::Tag(t) => *t,
            DapOutput::TagValue(tv) => tv.tag,
            DapOutput::Ack | DapOutput::Retired(_) => {
                panic!("put-data acknowledgements and redirects carry no tag")
            }
        }
    }
}

/// Which primitive a [`client::DapCall`] performs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DapAction {
    /// `c.get-tag()`
    GetTag,
    /// `c.get-data()`
    GetData,
    /// `c.put-data(⟨τ, v⟩)`
    PutData(TagValue),
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn hdr() -> Hdr {
        Hdr {
            cfg: ConfigId(1),
            obj: ObjectId(0),
            rpc: RpcId(7),
            op: OpId { client: ProcessId(3), seq: 2 },
        }
    }

    #[test]
    fn payload_accounting_counts_only_data() {
        let v = Value::new(vec![0u8; 100]);
        assert_eq!(
            DapMsg::new(hdr(), DapBody::AbdWrite(Tag::ZERO, v.clone())).payload_bytes(),
            100
        );
        assert_eq!(DapMsg::new(hdr(), DapBody::AbdQueryTag).payload_bytes(), 0);
        assert_eq!(DapMsg::new(hdr(), DapBody::AbdTag(Tag::ZERO)).payload_bytes(), 0);
        let frag = Fragment { index: 0, value_len: 100, data: Bytes::from(vec![0u8; 25]) };
        assert_eq!(
            DapMsg::new(hdr(), DapBody::TreasWrite(Tag::ZERO, frag.clone())).payload_bytes(),
            25
        );
        let list = vec![
            ListEntry { tag: Tag::ZERO, frag: Some(frag) },
            ListEntry { tag: Tag::ZERO, frag: None },
        ];
        assert_eq!(DapMsg::new(hdr(), DapBody::TreasList(list)).payload_bytes(), 25);
    }

    #[test]
    fn op_attribution_flows_from_header() {
        let m = DapMsg::new(hdr(), DapBody::AbdAck);
        assert_eq!(m.op(), Some(OpId { client: ProcessId(3), seq: 2 }));
        assert!(m.label().contains("ABD.ACK"));
    }

    #[test]
    fn output_tag_extraction() {
        assert_eq!(DapOutput::Tag(Tag::new(3, ProcessId(1))).tag().z, 3);
        let tv = TagValue::new(Tag::new(5, ProcessId(2)), Value::initial());
        assert_eq!(DapOutput::TagValue(tv.clone()).tag(), tv.tag);
    }

    #[test]
    #[should_panic(expected = "carry no tag")]
    fn ack_has_no_tag() {
        let _ = DapOutput::Ack.tag();
    }
}
