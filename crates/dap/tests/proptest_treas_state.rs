//! Property tests of the TREAS server-side `List` (Alg. 3 with the
//! bounded-list rule of DESIGN.md §2), against the paper's rule kept
//! whole as an oracle: under any insertion sequence at most `δ + 1`
//! coded elements are retained, they are the ones the full list keeps,
//! every tag ever inserted is still *contained* (explicitly or under
//! the floor), the list stays `O(δ)` long, the storage cost matches
//! Lemma 38's accounting — and a reader of bounded lists never returns
//! what a reader of full lists would not.
//!
//! Elements arrive the way the TCP host delivers them: a small one as a
//! view into a frame with slack around it, a bulk one on a tight frame
//! of its own, both kinds in one list. So every check runs on a list
//! packed into one buffer, on one with bulk elements beside it, and
//! across the switches between the two.

use ares_codes::{build_code, Fragment};
use ares_dap::client::{DapCall, DapCtx};
use ares_dap::server::{DapServer, TreasState};
use ares_dap::{DapAction, DapBody, DapMsg, DapOutput, ListEntry};
use ares_types::{
    ConfigId, ConfigRegistry, Configuration, ObjectId, OpId, ProcessId, Tag, TagValue, Value, TAG0,
};
use bytes::Bytes;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How an element reaches a server: `Small(len)` as a view into a
/// frame with slack (a 256 B value's 86 B element in its ≈ 150 B
/// frame), `Bulk(len)` as a tight frame of its own (a 64 KiB value's
/// element).
#[derive(Debug, Clone, Copy)]
enum Shape {
    Small(usize),
    Bulk(usize),
}

fn shape() -> impl Strategy<Value = Shape> {
    // One bulk element in four.
    (0u8..4, 1usize..64, 768usize..1024).prop_map(|(k, small, bulk)| {
        if k == 0 {
            Shape::Bulk(bulk)
        } else {
            Shape::Small(small)
        }
    })
}

/// The element of `tag` in `shape`, its bytes derived from the tag.
fn frag(tag: Tag, shape: Shape) -> Fragment {
    let fill = (tag.z as u8) ^ (tag.w.0 as u8).rotate_left(4);
    let (len, data) = match shape {
        Shape::Small(len) => (len, Bytes::from(vec![fill; len + 64]).slice(32..32 + len)),
        Shape::Bulk(len) => (len, Bytes::from(vec![fill; len])),
    };
    Fragment { index: 0, value_len: len * 3, data }
}

/// Alg. 3 as printed — "remove the coded value and retain the tag",
/// every tag kept forever. The oracle the bounded list is checked
/// against.
#[derive(Clone)]
struct FullList(BTreeMap<Tag, Option<Fragment>>);

impl FullList {
    fn new() -> Self {
        let t0 = Fragment { index: 0, value_len: 0, data: Bytes::new() };
        FullList(BTreeMap::from([(TAG0, Some(t0))]))
    }

    fn insert_and_gc(&mut self, tag: Tag, frag: Fragment, delta: usize) {
        self.0.entry(tag).or_insert(Some(frag));
        let coded: Vec<Tag> = self.0.iter().filter(|(_, f)| f.is_some()).map(|(t, _)| *t).collect();
        for t in &coded[..coded.len().saturating_sub(delta + 1)] {
            self.0.insert(*t, None);
        }
    }

    fn note_tag(&mut self, tag: Tag) {
        self.0.entry(tag).or_insert(None);
    }

    fn entries(&self) -> Vec<ListEntry> {
        self.0.iter().map(|(&tag, frag)| ListEntry { tag, frag: frag.clone() }).collect()
    }
}

/// One mutation of a server's list.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `insert_and_gc` (a `put-data`, a transfer, a repaired element).
    Put,
    /// `note_tag` (repair of an undecodable tag).
    Note,
}

fn op() -> impl Strategy<Value = Op> {
    // Mostly puts; a note every fifth op or so.
    (0u8..5).prop_map(|x| if x == 0 { Op::Note } else { Op::Put })
}

fn insertions() -> impl Strategy<Value = Vec<(u64, u32, Shape, Op)>> {
    // (z, writer, element shape, op); duplicates and out-of-order welcome.
    proptest::collection::vec((0u64..40, 0u32..6, shape(), op()), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gc_keeps_exactly_delta_plus_one_newest(ops in insertions(), delta in 0usize..6) {
        let mut srv = new_server();
        let mut full = FullList::new();
        let mut floor = srv.treas_state(CFG, OBJ).floor();
        for (z, w, shape, op) in ops {
            let t = Tag::new(z, ProcessId(w));
            let st = srv.treas_state(CFG, OBJ);
            match op {
                Op::Put => {
                    let f = frag(t, shape);
                    st.insert_and_gc(t, f.clone(), delta);
                    full.insert_and_gc(t, f, delta);
                }
                Op::Note => {
                    st.note_tag(t);
                    full.note_tag(t);
                }
            }

            // Invariant 1: every tag ever inserted is still contained,
            // explicitly or under the floor, with the element the full
            // list keeps for it; the floor never decreases and the top
            // of the list is the highest tag inserted.
            for (t, elem) in &full.0 {
                prop_assert!(st.contains(*t), "tag {t} lost");
                prop_assert_eq!(st.get(*t), elem.clone(), "element of {}", t);
            }
            prop_assert!(st.floor() >= floor, "floor fell from {floor:?} to {:?}", st.floor());
            floor = st.floor();
            prop_assert_eq!(st.max_tag(), *full.0.keys().next_back().unwrap());
            let full_bytes: usize = full.0.values().flatten().map(|f| f.data.len()).sum();
            prop_assert_eq!(st.storage_bytes(), full_bytes as u64);
            check_representation(st, delta);
            check_storage(st);
            // Invariant 2: at most δ+1 entries hold data, and they are
            // the δ+1 highest the full list holds data for.
            let with_data: Vec<Tag> = st.iter().filter(|(_, f)| f.is_some()).map(|(t, _)| t).collect();
            prop_assert!(with_data.len() <= delta + 1, "{} > δ+1", with_data.len());
            let full_data: Vec<Tag> =
                full.0.iter().filter(|(_, f)| f.is_some()).map(|(t, _)| *t).collect();
            prop_assert_eq!(with_data, full_data);
            // Invariant 3: the list survives a WAL checkpoint entry for
            // entry — `snapshot` → `restore` rebuilds the same list, and
            // the rebuilt server snapshots to the same image.
            let snap = srv.snapshot();
            let mut back = new_server();
            back.restore(snap.clone());
            let restored = back.treas_state_ref(CFG, OBJ).expect("restored list");
            prop_assert_eq!(
                restored.to_entries(),
                srv.treas_state_ref(CFG, OBJ).expect("list").to_entries()
            );
            check_representation(restored, delta);
            check_storage(restored);
            prop_assert_eq!(back.snapshot(), snap);
        }
    }

    #[test]
    fn storage_bytes_counts_only_retained_fragments(
        shapes in proptest::collection::vec(shape(), 1..20),
        delta in 0usize..4,
    ) {
        let mut st = new_state();
        let mut lens = Vec::new();
        for (i, shape) in shapes.iter().enumerate() {
            let f = frag(Tag::new(i as u64 + 1, ProcessId(1)), *shape);
            lens.push(f.data.len());
            st.insert_and_gc(Tag::new(i as u64 + 1, ProcessId(1)), f, delta);
        }
        // The retained bytes are the sum over the (δ+1) highest inserted
        // tags' fragment lengths (plus t0's empty fragment, 0 bytes).
        let keep = lens.len().min(delta + 1);
        let expect: usize = lens[lens.len() - keep..].iter().sum();
        prop_assert_eq!(st.storage_bytes(), expect as u64);
        check_storage(&st);
    }

    #[test]
    fn reinsertion_never_resurrects_garbage_collected_data(
        delta in 0usize..3, extra in 1usize..5, old_shape in shape(), new_shape in shape(),
    ) {
        let mut st = new_state();
        let old = Tag::new(1, ProcessId(1));
        st.insert_and_gc(old, frag(old, old_shape), delta);
        // Push δ+1+extra newer tags: `old` must lose its data.
        for z in 0..(delta + 1 + extra) as u64 {
            let t = Tag::new(10 + z, ProcessId(1));
            st.insert_and_gc(t, frag(t, new_shape), delta);
        }
        prop_assert!(st.get(old).is_none());
        // Re-inserting the old tag must NOT bring data back (the list
        // still contains it, explicitly or under the floor, so the
        // insert is a no-op) — otherwise GC would thrash.
        st.insert_and_gc(old, frag(old, old_shape), delta);
        prop_assert!(st.get(old).is_none());
    }

    /// Five servers, each a bounded list beside a full one, fed the
    /// same arbitrary interleaving of more than δ concurrent writes
    /// (duplicates, late low tags, partial writes, `note_tag` above the
    /// elements). After every step and for every quorum of lists: the
    /// real reader over the bounded lists never returns a tag below one
    /// a write quorum of servers holds (C1), and whenever it returns,
    /// the paper's reader over the full lists returns the same pair.
    #[test]
    fn bounded_reader_agrees_with_the_full_list_oracle(
        steps in proptest::collection::vec((0usize..N, 0usize..WRITES, op()), 1..60),
        delta in 1usize..3,
    ) {
        let cfg = treas_config(delta);
        let code = build_code(cfg.code_params()).unwrap();
        // Write w carries tag (w+1, p_w) and a value derived from it.
        let writes: Vec<(Tag, Value, Vec<Fragment>)> = (0..WRITES)
            .map(|w| {
                let v = Value::filler(24 + w, w as u64);
                let frags = code.encode(v.as_bytes());
                (Tag::new(w as u64 / 2 + 1, ProcessId(w as u32)), v, frags)
            })
            .collect();
        let mut servers: Vec<(TreasState, FullList)> =
            (0..N).map(|_| (new_state(), FullList::new())).collect();

        for (s, w, op) in steps {
            let (tag, _, frags) = &writes[w];
            let (st, full) = &mut servers[s];
            match op {
                Op::Put => {
                    st.insert_and_gc(*tag, frags[s].clone(), delta);
                    full.insert_and_gc(*tag, frags[s].clone(), delta);
                }
                Op::Note => {
                    st.note_tag(*tag);
                    full.note_tag(*tag);
                }
            }

            // Tags a completed put-data would have left behind.
            let quorum = cfg.quorum_size();
            let completed: Vec<Tag> = writes
                .iter()
                .map(|(t, ..)| *t)
                .filter(|t| servers.iter().filter(|(_, f)| f.0.contains_key(t)).count() >= quorum)
                .collect();
            // Every quorum-sized subset, then all five in order.
            let mut subsets: Vec<Vec<usize>> =
                (0..N).map(|skip| (0..N).filter(|&i| i != skip).collect()).collect();
            subsets.push((0..N).collect());
            for subset in subsets {
                let bounded: Vec<_> =
                    subset.iter().map(|&i| (pid(i), servers[i].0.to_entries())).collect();
                let (used, got) = read(&cfg, &bounded);
                let Some(got) = got else { continue };
                for t in &completed {
                    prop_assert!(got.tag >= *t, "returned {} below completed {}", got.tag, t);
                }
                let full: Vec<_> =
                    subset[..used].iter().map(|&i| servers[i].1.entries()).collect();
                prop_assert_eq!(
                    paper_reader(&full, cfg.code_params().k), Some(got.tag),
                    "the full-list reader disagrees on {:?}", subset
                );
                let expect = if got.tag == TAG0 {
                    Value::initial()
                } else {
                    writes.iter().find(|(t, ..)| *t == got.tag).unwrap().1.clone()
                };
                prop_assert_eq!(got.value, expect);
            }
        }
    }
}

const N: usize = 5;
const WRITES: usize = 8;

fn pid(i: usize) -> ProcessId {
    ProcessId(i as u32 + 1)
}

fn treas_config(delta: usize) -> Arc<Configuration> {
    Arc::new(Configuration::treas(ConfigId(0), (0..N).map(pid).collect(), 3, delta))
}

/// Alg. 2 lines 11-17 as printed, over full lists: the tag returned
/// when `t*max = t_dec_max`, counting only tags that appear in a list.
fn paper_reader(lists: &[Vec<ListEntry>], k: usize) -> Option<Tag> {
    let max_where = |pred: &dyn Fn(&ListEntry) -> bool| {
        let tags = lists.iter().flatten().filter(|e| pred(e)).map(|e| e.tag);
        tags.filter(|t| {
            lists.iter().filter(|l| l.iter().any(|e| e.tag == *t && pred(e))).count() >= k
        })
        .max()
    };
    let t_star_max = max_where(&|_| true)?;
    let t_dec_max = max_where(&|e| e.frag.is_some())?;
    (t_star_max == t_dec_max).then_some(t_dec_max)
}

/// The real `get-data` over `lists`, fed in order: how many lists it
/// consumed and what it returned (`None` = the read keeps waiting).
fn read(
    cfg: &Arc<Configuration>,
    lists: &[(ProcessId, Vec<ListEntry>)],
) -> (usize, Option<TagValue>) {
    let op = OpId { client: ProcessId(9), seq: 0 };
    let ctx = DapCtx::new(cfg.clone(), ObjectId(0), ProcessId(9), op);
    let mut rpc = 0;
    let (mut call, step) = DapCall::start(ctx, DapAction::GetData, &mut rpc);
    let hdr = step.sends[0].1.hdr;
    for (i, (from, list)) in lists.iter().enumerate() {
        let reply = DapMsg::new(hdr, DapBody::TreasList(list.clone()));
        if let Some(DapOutput::TagValue(tv)) = call.on_message(*from, &reply, &mut rpc).output {
            return (i + 1, Some(tv));
        }
    }
    (lists.len(), None)
}

const CFG: ConfigId = ConfigId(0);
const OBJ: ObjectId = ObjectId(0);

fn new_server() -> DapServer {
    DapServer::new(pid(0), ConfigRegistry::from_configs([(*treas_config(2)).clone()]))
}

fn new_state() -> TreasState {
    // TreasState has no public constructor by design (servers build it);
    // go through the DapServer entry point.
    new_server().treas_state(CFG, OBJ).clone()
}

/// The list's storage: its small elements share one tight buffer — a
/// 4-byte entry count, a 28-byte header per entry, then their bytes —
/// not the frames they arrived in, and each bulk element stays on its
/// own tight frame.
fn check_storage(st: &TreasState) {
    let entries = st.iter().count();
    let elems: Vec<Fragment> = st.iter().filter_map(|(_, f)| f).collect();
    let (bulk, small): (Vec<_>, Vec<_>) =
        elems.iter().partition(|f| ares_codes::is_bulk(f.data.len()));
    let packed: usize = small.iter().map(|f| f.data.len()).sum();
    for f in &small {
        prop_assert!(Bytes::shares_allocation(&f.data, &small[0].data), "small elements split");
        prop_assert_eq!(f.data.backing_len(), 4 + 28 * entries + packed, "not the list's buffer");
    }
    for f in &bulk {
        prop_assert_eq!(f.data.backing_len(), f.data.len(), "a bulk element left its frame");
        prop_assert!(small.iter().all(|s| !Bytes::shares_allocation(&f.data, &s.data)));
    }
}

/// The list's representation: entries strictly ascending, and at most
/// the floor, δ + 1 coded elements and the explicit ⊥s above the lowest
/// of them (DESIGN.md §2).
fn check_representation(st: &TreasState, delta: usize) {
    let tags: Vec<Tag> = st.iter().map(|(t, _)| t).collect();
    prop_assert!(tags.windows(2).all(|w| w[0] < w[1]), "not strictly ascending: {:?}", tags);
    let lowest_coded = st.iter().find(|(_, f)| f.is_some()).map(|(t, _)| t);
    let high_bottoms = st.iter().filter(|(t, f)| f.is_none() && Some(*t) > lowest_coded).count();
    prop_assert!(
        tags.len() <= delta + 2 + high_bottoms,
        "{} entries > δ+2+{high_bottoms}",
        tags.len()
    );
}
