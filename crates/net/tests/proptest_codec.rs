//! Property tests for the wire codec: encode/decode round-trips across
//! randomized messages, and totality of the decoder on hostile input —
//! truncated and corrupted frames must *error*, never panic.

mod samples;

use ares_core::{ClientCmd, Invoke, Msg};
use ares_net::codec::{decode_payload_bytes, encode_frame, encode_payload};
use ares_types::ProcessId;
use proptest::prelude::*;
use samples::{leaf, Fields, LEAVES};

/// Decodes a payload held in a buffer of its own, as a received frame
/// or a replayed record is.
fn decode(payload: &[u8]) -> Result<(ProcessId, Msg), ares_net::DecodeError> {
    decode_payload_bytes(&bytes::Bytes::copy_from_slice(payload))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_is_identity(
        sel in 0..LEAVES,
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
        let msg = leaf(sel, &Fields { z, w, cfg, cfg2, obj, rpc, seq, data }).1;
        let frame = encode_frame(ProcessId(from), &msg);
        // The length prefix matches the payload.
        let len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        prop_assert_eq!(len, frame.len() - 4);
        let (decoded_from, decoded) = decode(&frame[4..]).expect("roundtrip decodes");
        prop_assert_eq!(decoded_from, ProcessId(from));
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn every_strict_prefix_errors(
        sel in 0..LEAVES,
        z in any::<u64>(),
        w in 0u32..1000,
        cfg in 0u32..64,
        obj in 0u32..16,
        data in proptest::collection::vec(any::<u8>(), 0..64),
        cut_pct in 0usize..100,
    ) {
        let msg = leaf(sel, &Fields { z, w, cfg, cfg2: cfg + 1, obj, rpc: 1, seq: 2, data }).1;
        let payload = encode_payload(ProcessId(9), &msg);
        let cut = payload.len() * cut_pct / 100; // strictly < len
        prop_assert!(decode(&payload[..cut]).is_err(),
            "decoding a {cut}-byte prefix of a {}-byte payload must error", payload.len());
    }

    #[test]
    fn corrupted_frames_never_panic(
        sel in 0..LEAVES,
        z in any::<u64>(),
        w in 0u32..1000,
        cfg in 0u32..64,
        obj in 0u32..16,
        data in proptest::collection::vec(any::<u8>(), 0..64),
        pos_seed in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let msg = leaf(sel, &Fields { z, w, cfg, cfg2: cfg + 1, obj, rpc: 1, seq: 2, data }).1;
        let mut payload = encode_payload(ProcessId(9), &msg);
        let pos = pos_seed % payload.len();
        payload[pos] ^= xor;
        // A flipped byte may still decode to a *different* valid
        // message (the codec is not authenticated); what it must never
        // do is panic or loop.
        let _ = decode(&payload);
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        junk in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let _ = decode(&junk);
    }

    #[test]
    fn referenced_configs_are_total(
        sel in 0..LEAVES,
        z in any::<u64>(),
        w in 0u32..1000,
        cfg in 0u32..64,
        cfg2 in 0u32..64,
        obj in 0u32..16,
        data in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let msg = leaf(sel, &Fields { z, w, cfg, cfg2, obj, rpc: 1, seq: 2, data }).1;
        let refs = msg.configs().count();
        // Every message except plain read/write commands names at least
        // one configuration, and the primary one is always first.
        let plain_rw = matches!(
            &msg,
            Msg::Invoke(Invoke { cmd: ClientCmd::Write { .. } | ClientCmd::Read { .. }, .. })
        );
        if !plain_rw {
            prop_assert!(refs > 0);
        }
    }
}
