//! One constructor per leaf variant of the message tree — the 20
//! `DapBody` shapes, 7 `ConMsg`, 4 `CfgMsg`, 3 `XferMsg`, 3 `RepairMsg`
//! and 3 `ClientCmd` (inside `Invoke`) — with every nested `Option`,
//! `Vec`, `Fragment` and `Value` populated from the caller's fields.
//! `wire_golden` pins one fixed instance of each to committed bytes;
//! `proptest_codec` draws the fields at random.

use ares_codes::Fragment;
use ares_consensus::{Ballot, ConMsg};
use ares_core::{CfgMsg, ClientCmd, Invoke, Msg, RepairMsg, XferMsg};
use ares_dap::{DapBody, DapMsg, Hdr, ListEntry};
use ares_types::{ConfigEntry, ConfigId, ObjectId, OpId, ProcessId, RpcId, SessionId, Tag, Value};
use bytes::Bytes;

/// Number of leaf variants [`leaf`] can build.
pub const LEAVES: usize = 40;

/// The scalar fields a sample is assembled from.
pub struct Fields {
    pub z: u64,
    pub w: u32,
    pub cfg: u32,
    pub cfg2: u32,
    pub obj: u32,
    pub rpc: u64,
    pub seq: u64,
    pub data: Vec<u8>,
}

/// Leaf variant `i % LEAVES` built from `f`, with its name. Options are
/// `Some` when `f.z` is even, `None` when odd (lists always mix both).
pub fn leaf(i: usize, f: &Fields) -> (&'static str, Msg) {
    let (w, cfg, cfg2, obj) = (ProcessId(f.w), ConfigId(f.cfg), ConfigId(f.cfg2), ObjectId(f.obj));
    let rpc = RpcId(f.rpc);
    let some = f.z % 2 == 0;
    let tag = Tag::new(f.z, w);
    let op = OpId { client: ProcessId(f.w.wrapping_add(1)), seq: f.seq };
    let frag = Fragment {
        index: (f.w % 16) as usize,
        value_len: f.data.len() * 3,
        data: Bytes::from(f.data.clone()),
    };
    let value = Value::new(f.data.clone());
    let ballot = Ballot { round: f.z, proposer: w };
    let locs = vec![w, ProcessId(f.w.wrapping_add(2))];
    let list = vec![
        ListEntry { tag: Tag::new(f.z / 2, w), frag: None },
        ListEntry { tag, frag: Some(frag.clone()) },
    ];
    let dap = |body| Msg::Dap(DapMsg::new(Hdr { cfg, obj, rpc, op }, body));
    // Arbitrary session and seq: the codec carries both verbatim (only
    // the client actor ties a seq to its session's partition).
    let invoke = |cmd| Msg::Invoke(Invoke { session: SessionId(f.cfg2), seq: f.seq, cmd });
    match i % LEAVES {
        0 => ("AbdQueryTag", dap(DapBody::AbdQueryTag)),
        1 => ("AbdQuery", dap(DapBody::AbdQuery)),
        2 => ("AbdWrite", dap(DapBody::AbdWrite(tag, value))),
        3 => ("AbdTag", dap(DapBody::AbdTag(tag))),
        4 => ("AbdTagValue", dap(DapBody::AbdTagValue(tag, value))),
        5 => ("AbdAck", dap(DapBody::AbdAck)),
        6 => ("TreasQueryTag", dap(DapBody::TreasQueryTag)),
        7 => ("TreasQueryList", dap(DapBody::TreasQueryList)),
        8 => ("TreasWrite", dap(DapBody::TreasWrite(tag, frag))),
        9 => ("TreasTag", dap(DapBody::TreasTag(tag))),
        10 => ("TreasList", dap(DapBody::TreasList(list))),
        11 => ("TreasAck", dap(DapBody::TreasAck)),
        12 => ("LdrQueryTagLoc", dap(DapBody::LdrQueryTagLoc)),
        13 => ("LdrTagLoc", dap(DapBody::LdrTagLoc(tag, locs))),
        14 => ("LdrPutData", dap(DapBody::LdrPutData(tag, value))),
        15 => ("LdrPutDataAck", dap(DapBody::LdrPutDataAck(tag))),
        16 => ("LdrPutMeta", dap(DapBody::LdrPutMeta(tag, locs))),
        17 => ("LdrPutMetaAck", dap(DapBody::LdrPutMetaAck)),
        18 => ("LdrGetData", dap(DapBody::LdrGetData(tag))),
        19 => ("LdrData", dap(DapBody::LdrData(tag, value))),
        20 => ("Prepare", Msg::Con(ConMsg::Prepare { inst: cfg, rpc, ballot, op })),
        21 => {
            let accepted = some.then_some((Ballot { round: f.z / 2, proposer: op.client }, cfg2));
            let decided = some.then_some(cfg2);
            ("Promise", Msg::Con(ConMsg::Promise { inst: cfg, rpc, ballot, accepted, decided, op }))
        }
        22 => {
            ("NackPrepare", Msg::Con(ConMsg::NackPrepare { inst: cfg, rpc, promised: ballot, op }))
        }
        23 => ("Accept", Msg::Con(ConMsg::Accept { inst: cfg, rpc, ballot, value: cfg2, op })),
        24 => ("Accepted", Msg::Con(ConMsg::Accepted { inst: cfg, rpc, ballot, op })),
        25 => ("NackAccept", Msg::Con(ConMsg::NackAccept { inst: cfg, rpc, promised: ballot, op })),
        26 => ("Decide", Msg::Con(ConMsg::Decide { inst: cfg, value: cfg2 })),
        27 => ("ReadConfig", Msg::Cfg(CfgMsg::ReadConfig { base: cfg, rpc, op })),
        28 => {
            let next = some.then_some(ConfigEntry::pending(cfg2));
            ("NextC", Msg::Cfg(CfgMsg::NextC { base: cfg, rpc, next, op }))
        }
        29 => {
            let entry = ConfigEntry::finalized(cfg2);
            ("WriteConfig", Msg::Cfg(CfgMsg::WriteConfig { base: cfg, entry, rpc, op }))
        }
        30 => ("CfgAck", Msg::Cfg(CfgMsg::CfgAck { base: cfg, rpc, op })),
        31 => {
            ("ReqFwd", Msg::Xfer(XferMsg::ReqFwd { tag, src: cfg, dst: cfg2, obj, rc: w, rpc, op }))
        }
        32 => (
            "FwdElem",
            Msg::Xfer(XferMsg::FwdElem { tag, frag, src: cfg, dst: cfg2, obj, rc: w, rpc, op }),
        ),
        33 => ("XferAck", Msg::Xfer(XferMsg::XferAck { dst: cfg2, obj, tag, rpc, op })),
        34 => ("Trigger", Msg::Repair(RepairMsg::Trigger { cfg, obj })),
        35 => {
            let known = vec![Tag::new(f.z / 2, w), tag];
            ("Query", Msg::Repair(RepairMsg::Query { cfg, obj, rpc, known, op }))
        }
        36 => ("Lists", Msg::Repair(RepairMsg::Lists { cfg, obj, rpc, list, op })),
        37 => ("Write", invoke(ClientCmd::Write { obj, value })),
        38 => ("Read", invoke(ClientCmd::Read { obj })),
        _ => ("Recon", invoke(ClientCmd::Recon { target: cfg })),
    }
}
