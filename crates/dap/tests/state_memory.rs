//! What a TREAS object costs a server in memory, counted by the
//! allocator rather than by `storage_bytes` (which counts the paper's
//! logical bytes). Writes reach the [`DapServer`] the way the TCP host
//! delivers them: encoded into a frame, the frame's payload copied into
//! an allocation of exactly its length (what `read_frame` does), and
//! decoded zero-copy out of it.
//!
//! Theorem 3 prices a `[5, 3]`, δ = 2 object at (δ+1)·⌈256/3⌉ = 258
//! bytes per server for 256 B values. What a server holds on top is the
//! list's one buffer (an entry count and δ + 2 entry headers beside the
//! elements' bytes, behind one count and vector header) and the
//! object's slot in the state map — not the frames the elements arrived
//! in (DESIGN.md §2 and §7).
//!
//! The allocator counts per thread, so the tests of this binary do not
//! disturb each other's numbers.

use ares_codes::build_code;
use ares_core::Msg;
use ares_dap::server::DapServer;
use ares_dap::{DapBody, DapMsg, Hdr};
use ares_net::codec::{decode_payload_bytes, encode_frame};
use ares_types::{
    ConfigId, ConfigRegistry, Configuration, ObjectId, OpId, ProcessId, RpcId, Tag, Value,
};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// `System`, counting the bytes each thread holds.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    // A thread being torn down has no counter left; its frees are not
    // ours to count.
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` was allocated by `System` with `layout`; the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const CFG: ConfigId = ConfigId(0);
const WRITER: ProcessId = ProcessId(100);

fn registry() -> Arc<ConfigRegistry> {
    ConfigRegistry::from_configs([Configuration::treas(
        CFG,
        (1..=5).map(ProcessId).collect(),
        3,
        2,
    )])
}

/// Hands `body` for `obj` to `srv` through the wire codec; returns the
/// payload buffer the decoded message viewed.
fn deliver(srv: &mut DapServer, obj: ObjectId, body: DapBody) -> Bytes {
    let op = OpId { client: WRITER, seq: 0 };
    let hdr = Hdr { cfg: CFG, obj, rpc: RpcId(1), op };
    let frame = encode_frame(WRITER, &Msg::Dap(DapMsg::new(hdr, body)));
    let payload = Bytes::from(frame[4..].to_vec());
    let Ok((from, Msg::Dap(msg))) = decode_payload_bytes(&payload) else {
        panic!("a DAP frame decodes to a DAP message");
    };
    srv.handle(from, msg);
    payload
}

#[test]
fn a_small_treas_object_costs_a_server_its_list_not_its_frames() {
    const OBJECTS: u32 = 1_024;
    const WRITES: u64 = 5;
    let code = build_code(registry().get(CFG).code_params()).expect("[5, 3]");
    let mut srv = DapServer::new(ProcessId(1), registry());
    let before = live();
    for z in 1..=WRITES {
        for o in 0..OBJECTS {
            let value = Value::filler(256, z << 32 | u64::from(o));
            let frag = code.encode(value.as_bytes()).swap_remove(0);
            deliver(&mut srv, ObjectId(o), DapBody::TreasWrite(Tag::new(z, WRITER), frag));
        }
    }
    let per_object = (live() - before) / OBJECTS as isize;
    assert_eq!(srv.storage_bytes(), u64::from(OBJECTS) * 3 * 86, "δ + 1 elements of 86 B");
    eprintln!("live bytes per object-server: {per_object} (Theorem 3: 258)");
    assert!(per_object <= 484, "{per_object} live bytes per object-server > 484");
}

#[test]
fn a_bulk_element_stays_on_its_frame_and_a_small_value_leaves_its_own() {
    let code = build_code(registry().get(CFG).code_params()).expect("[5, 3]");
    let mut srv = DapServer::new(ProcessId(1), registry());
    // A 64 KiB value's element (21,846 B, as `bulk_rw` stores them) and
    // a 64 KiB element: no copy, the frame is the element's buffer.
    for (o, len) in [(0, 64 << 10), (1, 3 * (64 << 10))] {
        let (obj, tag) = (ObjectId(o), Tag::new(1, WRITER));
        let frag = code.encode(Value::filler(len, 7).as_bytes()).swap_remove(0);
        let payload = deliver(&mut srv, obj, DapBody::TreasWrite(tag, frag));
        let stored = srv.treas_state_ref(CFG, obj).and_then(|st| st.get(tag)).expect("stored");
        assert_eq!(stored.data.len(), len.div_ceil(3));
        assert!(
            Bytes::shares_allocation(&stored.data, &payload),
            "a {} B element was copied out of its frame",
            stored.data.len()
        );
    }
    // A 256 B value's element is copied out of its ≈ 150-byte frame
    // into the object's one buffer: a 4-byte entry count, a 28-byte
    // header for each of t0 and this tag, t0's empty element and these
    // 86 bytes.
    let (obj, tag) = (ObjectId(2), Tag::new(1, WRITER));
    let frag = code.encode(Value::filler(256, 8).as_bytes()).swap_remove(0);
    let payload = deliver(&mut srv, obj, DapBody::TreasWrite(tag, frag));
    let st = srv.treas_state_ref(CFG, obj).expect("stored");
    let stored = st.get(tag).expect("stored");
    assert!(!Bytes::shares_allocation(&stored.data, &payload));
    let t0 = st.get(ares_types::TAG0).expect("t0's element");
    assert!(Bytes::shares_allocation(&stored.data, &t0.data), "one buffer per object");
    assert_eq!(stored.data.backing_len(), 4 + 2 * 28 + 86);
}
