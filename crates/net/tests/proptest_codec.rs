//! Property tests for the wire codec: encode/decode round-trips across
//! randomized messages, and totality of the decoder on hostile input —
//! truncated and corrupted frames must *error*, never panic.

use ares_codes::Fragment;
use ares_consensus::{Ballot, ConMsg};
use ares_core::{CfgMsg, ClientCmd, Invoke, Msg, RepairMsg, XferMsg};
use ares_dap::{DapBody, DapMsg, Hdr, ListEntry};
use ares_net::codec::{decode_payload, encode_frame, encode_payload, referenced_configs};
use ares_types::{ConfigEntry, ConfigId, ObjectId, OpId, ProcessId, RpcId, SessionId, Tag, Value};
use bytes::Bytes;
use proptest::prelude::*;

/// Randomized parameters from which one message of any protocol family
/// is assembled (the selector picks the shape).
#[allow(clippy::too_many_arguments)]
fn build_msg(
    sel: u8,
    z: u64,
    w: u32,
    cfg: u32,
    cfg2: u32,
    obj: u32,
    rpc: u64,
    seq: u64,
    data: Vec<u8>,
) -> Msg {
    let tag = Tag::new(z, ProcessId(w));
    let op = OpId { client: ProcessId(w.wrapping_add(1)), seq };
    let hdr = Hdr { cfg: ConfigId(cfg), obj: ObjectId(obj), rpc: RpcId(rpc), op };
    let frag = Fragment {
        index: (w % 16) as usize,
        value_len: data.len() * 3,
        data: Bytes::from(data.clone()),
    };
    let value = Value::new(data.clone());
    // Arbitrary session and seq: the codec carries both verbatim (only
    // the client actor ties a seq to its session's partition).
    let invoke = |cmd| Msg::Invoke(Invoke { session: SessionId(rpc as u32), seq, cmd });
    match sel % 12 {
        0 => Msg::Dap(DapMsg::new(hdr, DapBody::AbdWrite(tag, value))),
        1 => Msg::Dap(DapMsg::new(hdr, DapBody::TreasWrite(tag, frag))),
        2 => Msg::Dap(DapMsg::new(
            hdr,
            DapBody::TreasList(vec![
                ListEntry { tag, frag: Some(frag.clone()) },
                ListEntry { tag: Tag::new(z.wrapping_add(1), ProcessId(w)), frag: None },
            ]),
        )),
        3 => Msg::Dap(DapMsg::new(
            hdr,
            DapBody::LdrTagLoc(tag, vec![ProcessId(w), ProcessId(w + 1)]),
        )),
        4 => Msg::Con(ConMsg::Promise {
            inst: ConfigId(cfg),
            rpc: RpcId(rpc),
            ballot: Ballot { round: z, proposer: ProcessId(w) },
            accepted: Some((Ballot { round: z / 2, proposer: ProcessId(w + 1) }, ConfigId(cfg2))),
            decided: if z % 2 == 0 { Some(ConfigId(cfg2)) } else { None },
            op,
        }),
        5 => Msg::Con(ConMsg::Decide { inst: ConfigId(cfg), value: ConfigId(cfg2) }),
        6 => Msg::Cfg(CfgMsg::NextC {
            base: ConfigId(cfg),
            rpc: RpcId(rpc),
            next: if z % 2 == 0 { Some(ConfigEntry::pending(ConfigId(cfg2))) } else { None },
            op,
        }),
        7 => Msg::Cfg(CfgMsg::WriteConfig {
            base: ConfigId(cfg),
            entry: ConfigEntry::finalized(ConfigId(cfg2)),
            rpc: RpcId(rpc),
            op,
        }),
        8 => Msg::Xfer(XferMsg::FwdElem {
            tag,
            frag,
            src: ConfigId(cfg),
            dst: ConfigId(cfg2),
            obj: ObjectId(obj),
            rc: ProcessId(w),
            rpc: RpcId(rpc),
            op,
        }),
        9 => Msg::Repair(RepairMsg::Lists {
            cfg: ConfigId(cfg),
            obj: ObjectId(obj),
            rpc: RpcId(rpc),
            list: vec![ListEntry { tag, frag: Some(frag) }],
            op,
        }),
        10 => invoke(ClientCmd::Write { obj: ObjectId(obj), value }),
        _ => invoke(ClientCmd::Recon { target: ConfigId(cfg) }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_is_identity(
        sel in 0u8..12,
        z in any::<u64>(),
        w in 0u32..1000,
        cfg in 0u32..64,
        cfg2 in 0u32..64,
        obj in 0u32..16,
        rpc in any::<u64>(),
        seq in any::<u64>(),
        data in proptest::collection::vec(any::<u8>(), 0..200),
        from in 0u32..1000,
    ) {
        let msg = build_msg(sel, z, w, cfg, cfg2, obj, rpc, seq, data);
        let frame = encode_frame(ProcessId(from), &msg);
        // The length prefix matches the payload.
        let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        prop_assert_eq!(len, frame.len() - 4);
        let (decoded_from, decoded) = decode_payload(&frame[4..]).expect("roundtrip decodes");
        prop_assert_eq!(decoded_from, ProcessId(from));
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn every_strict_prefix_errors(
        sel in 0u8..12,
        z in any::<u64>(),
        w in 0u32..1000,
        cfg in 0u32..64,
        obj in 0u32..16,
        data in proptest::collection::vec(any::<u8>(), 0..64),
        cut_pct in 0usize..100,
    ) {
        let msg = build_msg(sel, z, w, cfg, cfg + 1, obj, 1, 2, data);
        let payload = encode_payload(ProcessId(9), &msg);
        let cut = payload.len() * cut_pct / 100; // strictly < len
        prop_assert!(decode_payload(&payload[..cut]).is_err(),
            "decoding a {cut}-byte prefix of a {}-byte payload must error", payload.len());
    }

    #[test]
    fn corrupted_frames_never_panic(
        sel in 0u8..12,
        z in any::<u64>(),
        w in 0u32..1000,
        cfg in 0u32..64,
        obj in 0u32..16,
        data in proptest::collection::vec(any::<u8>(), 0..64),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let msg = build_msg(sel, z, w, cfg, cfg + 1, obj, 1, 2, data);
        let mut payload = encode_payload(ProcessId(9), &msg);
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        // A flipped byte may still decode to a *different* valid
        // message (the codec is not authenticated); what it must never
        // do is panic or loop.
        let _ = decode_payload(&payload);
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode_payload(&junk);
    }

    #[test]
    fn referenced_configs_are_total(
        sel in 0u8..12,
        z in any::<u64>(),
        w in 0u32..1000,
        cfg in 0u32..64,
        cfg2 in 0u32..64,
        obj in 0u32..16,
        data in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let msg = build_msg(sel, z, w, cfg, cfg2, obj, 1, 2, data);
        let refs = referenced_configs(&msg);
        // Every message except plain read/write commands names at least
        // one configuration, and the primary one is always first.
        let plain_rw = matches!(
            &msg,
            Msg::Invoke(Invoke { cmd: ClientCmd::Write { .. } | ClientCmd::Read { .. }, .. })
        );
        if !plain_rw {
            prop_assert!(!refs.is_empty());
        }
    }
}
