//! Server-side protocol of the three DAP implementations.
//!
//! [`DapServer`] is a pure state machine embedded into the unified server
//! actor of `ares-core` (and into the standalone actors of
//! [`crate::template`]): it consumes a [`DapMsg`] and returns the replies
//! to transmit. State is keyed by `(configuration, object)` — a server
//! that belongs to several configurations plays an independent role in
//! each, exactly as in the paper where each configuration carries its own
//! algorithm instance.

use crate::{DapBody, DapMsg, Hdr, ListEntry};
use ares_types::{
    ConfigId, ConfigRegistry, DapKind, ObjectId, ProcessId, Tag, TagValue, Value, TAG0,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// ABD per-object server state: the replicated `⟨τ, v⟩` (Alg. 12).
#[derive(Debug, Clone)]
pub struct AbdState {
    /// Current tag.
    pub tag: Tag,
    /// Current value.
    pub value: Value,
}

impl Default for AbdState {
    fn default() -> Self {
        AbdState { tag: TAG0, value: Value::initial() }
    }
}

/// TREAS per-object server state: the `List ⊆ T × C_s` (Alg. 3),
/// initially `{(t_0, Φ_i(v_0))}`; coded elements of all but the `δ + 1`
/// highest tags are replaced by `⊥`.
///
/// Deviation from Alg. 3 ("remove the coded value and retain the tag"):
/// of the `⊥` entries *below the lowest coded element* only the highest
/// — the [`floor`](TreasState::floor) — is stored; every tag `≤ floor`
/// is implicitly `(t, ⊥)`. A list is therefore at most `δ + 2` entries
/// plus any explicit `⊥` *above* the lowest coded element (repair
/// records undecodable tags that way; GC passes them later), whatever
/// the number of writes. The floor is "the first entry, iff it is `⊥`"
/// and travels as an ordinary first [`ListEntry`]; DESIGN.md §2 argues
/// why readers lose nothing.
#[derive(Debug, Clone)]
pub struct TreasState {
    /// Tag → coded element (`None` = `⊥`). Read-only outside this
    /// module: mutate through [`TreasState::insert_and_gc`] and
    /// [`TreasState::note_tag`], test membership with
    /// [`TreasState::contains`].
    pub list: BTreeMap<Tag, Option<ares_codes::Fragment>>,
}

impl TreasState {
    fn new() -> Self {
        // (t_0, Φ_i(v_0)): the initial value is empty, so its coded
        // element is the empty fragment; `None` here would wrongly make
        // t_0 look garbage-collected, so store an empty fragment.
        let mut list = BTreeMap::new();
        list.insert(
            TAG0,
            Some(ares_codes::Fragment { index: 0, value_len: 0, data: bytes::Bytes::new() }),
        );
        TreasState { list }
    }

    /// Highest tag in the list (`τ_max ≡ max_{(t,c)∈List} t`).
    pub fn max_tag(&self) -> Tag {
        // lint: allow(net-panic, reason = "infallible: TreasState::new seeds the list with the initial tag and entries are never all removed")
        *self.list.keys().next_back().expect("list never empty")
    }

    /// The low-water tag: the first entry iff it is `⊥`. Every tag
    /// `≤ floor` was garbage-collected here and is implicitly `(t, ⊥)`.
    /// It never decreases.
    pub fn floor(&self) -> Option<Tag> {
        self.list.iter().next().and_then(|(t, f)| f.is_none().then_some(*t))
    }

    /// `(tag, *) ∈ List`, counting the tags the floor stands for.
    pub fn contains(&self, tag: Tag) -> bool {
        self.floor().is_some_and(|w| tag <= w) || self.list.contains_key(&tag)
    }

    /// Inserts `(tag, frag)` and garbage-collects down to the `δ + 1`
    /// highest tags (Alg. 3 lines 12-15). A tag the list already
    /// [`contains`](TreasState::contains) is left alone: re-insertion
    /// neither downgrades an element nor resurrects a GC'd one.
    pub fn insert_and_gc(&mut self, tag: Tag, frag: ares_codes::Fragment, delta: usize) {
        if self.contains(tag) {
            return;
        }
        self.list.insert(tag, Some(frag));
        let coded = self.list.values().filter(|f| f.is_some()).count();
        let excess = coded.saturating_sub(delta + 1);
        for f in self.list.values_mut().filter(|f| f.is_some()).take(excess) {
            *f = None; // remove the coded value...
        }
        self.compact(); // ...and retain the tag, explicitly or under the floor
    }

    /// Records `(tag, ⊥)`: a tag known to exist whose element this
    /// server cannot hold (repair of an undecodable tag).
    pub fn note_tag(&mut self, tag: Tag) {
        if !self.contains(tag) {
            self.list.insert(tag, None);
            self.compact();
        }
    }

    /// Folds the `⊥` entries below the lowest coded element into the
    /// highest of them. Every mutation adds at most a couple of such
    /// entries, so this is O(1) map operations per put.
    fn compact(&mut self) {
        loop {
            let mut lowest = self.list.iter();
            match (lowest.next(), lowest.next()) {
                (Some((&t, None)), Some((_, None))) => self.list.remove(&t),
                _ => return,
            };
        }
    }

    /// The wire form of the list (ascending; the floor, if any, first).
    pub fn to_entries(&self) -> Vec<ListEntry> {
        self.list.iter().map(|(&tag, frag)| ListEntry { tag, frag: frag.clone() }).collect()
    }

    /// Bytes of coded payload currently stored (the storage cost of
    /// Theorem 3(i), in bytes).
    pub fn storage_bytes(&self) -> u64 {
        self.list.values().map(|f| f.as_ref().map_or(0, |f| f.data.len() as u64)).sum()
    }
}

/// LDR directory-server state: `⟨τ, locations⟩`.
#[derive(Debug, Clone, Default)]
pub struct LdrDirState {
    /// Highest known tag.
    pub tag: Tag,
    /// Replica servers known to hold the value for `tag`.
    pub locs: Vec<ProcessId>,
}

/// LDR replica-server state.
///
/// The paper's replicas store whole values keyed by tag (LDR was designed
/// for large objects, with explicit garbage collection we do not model);
/// we keep a bounded history of the most recent `HISTORY` tags so
/// concurrent readers can still fetch the tag a directory quorum chose.
#[derive(Debug, Clone)]
pub struct LdrRepState {
    /// Recent `tag → value` entries (highest tags kept).
    pub store: BTreeMap<Tag, Value>,
}

impl LdrRepState {
    /// How many recent values a replica retains.
    pub const HISTORY: usize = 8;

    fn new() -> Self {
        let mut store = BTreeMap::new();
        store.insert(TAG0, Value::initial());
        LdrRepState { store }
    }

    fn insert(&mut self, tag: Tag, value: Value) {
        self.store.insert(tag, value);
        while self.store.len() > Self::HISTORY {
            // lint: allow(net-panic, reason = "infallible: guarded by store.len() > HISTORY (> 0) one line above")
            let lowest = *self.store.keys().next().expect("non-empty");
            self.store.remove(&lowest);
        }
    }

    fn current(&self) -> (Tag, Value) {
        // lint: allow(net-panic, reason = "infallible: insert() put an entry into store before any current() call")
        let (t, v) = self.store.iter().next_back().expect("non-empty");
        (*t, v.clone())
    }
}

/// Durable image of one ABD object state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbdSnap {
    /// Configuration the state belongs to.
    pub cfg: ConfigId,
    /// The object.
    pub obj: ObjectId,
    /// Stored tag.
    pub tag: Tag,
    /// Stored value.
    pub value: Value,
}

/// Durable image of one TREAS object `List`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreasSnap {
    /// Configuration the state belongs to.
    pub cfg: ConfigId,
    /// The object.
    pub obj: ObjectId,
    /// The list, ascending (`frag = None` = `⊥`): the floor if any, the
    /// `δ + 1` coded elements, and any explicit `⊥` above the lowest of
    /// them — [`TreasState::to_entries`].
    pub list: Vec<ListEntry>,
}

/// Durable image of one LDR directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdrDirSnap {
    /// Configuration the state belongs to.
    pub cfg: ConfigId,
    /// The object.
    pub obj: ObjectId,
    /// Highest known tag.
    pub tag: Tag,
    /// Replicas holding the value for `tag`.
    pub locs: Vec<ProcessId>,
}

/// Durable image of one LDR replica store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdrRepSnap {
    /// Configuration the state belongs to.
    pub cfg: ConfigId,
    /// The object.
    pub obj: ObjectId,
    /// Recent `tag → value` history, ascending by tag.
    pub store: Vec<TagValue>,
}

/// A point-in-time image of every per-`(cfg, obj)` DAP state held by
/// one [`DapServer`] — the payload of a WAL checkpoint. Entries are
/// sorted by `(cfg, obj)` so equal states encode to equal bytes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DapSnapshot {
    /// ABD states.
    pub abd: Vec<AbdSnap>,
    /// TREAS lists.
    pub treas: Vec<TreasSnap>,
    /// LDR directory entries.
    pub ldr_dir: Vec<LdrDirSnap>,
    /// LDR replica stores.
    pub ldr_rep: Vec<LdrRepSnap>,
}

/// The unified DAP server: holds per-`(cfg, obj)` state for every
/// implementation and dispatches incoming requests.
pub struct DapServer {
    me: ProcessId,
    registry: Arc<ConfigRegistry>,
    abd: HashMap<(ConfigId, ObjectId), AbdState>,
    treas: HashMap<(ConfigId, ObjectId), TreasState>,
    ldr_dir: HashMap<(ConfigId, ObjectId), LdrDirState>,
    ldr_rep: HashMap<(ConfigId, ObjectId), LdrRepState>,
}

impl DapServer {
    /// Creates the server-side DAP state for process `me`.
    pub fn new(me: ProcessId, registry: Arc<ConfigRegistry>) -> Self {
        DapServer {
            me,
            registry,
            abd: HashMap::new(),
            treas: HashMap::new(),
            ldr_dir: HashMap::new(),
            ldr_rep: HashMap::new(),
        }
    }

    /// This server's process id.
    pub fn pid(&self) -> ProcessId {
        self.me
    }

    /// Direct access to a TREAS object state (used by the ARES-TREAS
    /// state-transfer protocol, which reads/writes the same `List`).
    pub fn treas_state(&mut self, cfg: ConfigId, obj: ObjectId) -> &mut TreasState {
        self.treas.entry((cfg, obj)).or_insert_with(TreasState::new)
    }

    /// Read-only view of a TREAS object state, if it exists.
    pub fn treas_state_ref(&self, cfg: ConfigId, obj: ObjectId) -> Option<&TreasState> {
        self.treas.get(&(cfg, obj))
    }

    /// The ABD state for `(cfg, obj)` (used by state-transfer of
    /// replicated configurations and by tests).
    pub fn abd_state(&mut self, cfg: ConfigId, obj: ObjectId) -> &mut AbdState {
        self.abd.entry((cfg, obj)).or_default()
    }

    /// Total bytes of object data stored by this server across all
    /// configurations and objects — the per-server storage cost.
    pub fn storage_bytes(&self) -> u64 {
        let abd: u64 = self.abd.values().map(|s| s.value.len() as u64).sum();
        let treas: u64 = self.treas.values().map(|s| s.storage_bytes()).sum();
        let ldr: u64 = self
            .ldr_rep
            .values()
            .map(|s| s.store.values().map(|v| v.len() as u64).sum::<u64>())
            .sum();
        abd + treas + ldr
    }

    /// Captures every per-`(cfg, obj)` state as a [`DapSnapshot`],
    /// sorted by key for deterministic encoding.
    pub fn snapshot(&self) -> DapSnapshot {
        let mut abd: Vec<AbdSnap> = self
            .abd
            .iter()
            .map(|(&(cfg, obj), s)| AbdSnap { cfg, obj, tag: s.tag, value: s.value.clone() })
            .collect();
        abd.sort_by_key(|e| (e.cfg, e.obj));
        let mut treas: Vec<TreasSnap> = self
            .treas
            .iter()
            .map(|(&(cfg, obj), s)| TreasSnap { cfg, obj, list: s.to_entries() })
            .collect();
        treas.sort_by_key(|e| (e.cfg, e.obj));
        let mut ldr_dir: Vec<LdrDirSnap> = self
            .ldr_dir
            .iter()
            .map(|(&(cfg, obj), s)| LdrDirSnap { cfg, obj, tag: s.tag, locs: s.locs.clone() })
            .collect();
        ldr_dir.sort_by_key(|e| (e.cfg, e.obj));
        let mut ldr_rep: Vec<LdrRepSnap> = self
            .ldr_rep
            .iter()
            .map(|(&(cfg, obj), s)| LdrRepSnap {
                cfg,
                obj,
                store: s.store.iter().map(|(&tag, v)| TagValue::new(tag, v.clone())).collect(),
            })
            .collect();
        ldr_rep.sort_by_key(|e| (e.cfg, e.obj));
        DapSnapshot { abd, treas, ldr_dir, ldr_rep }
    }

    /// Restores state from a [`DapSnapshot`] (crash recovery), replacing
    /// whatever the server currently holds. Snapshot bytes come off a
    /// disk that may predate the crash by one checkpoint interval, so
    /// recovery replays the WAL tail on top and then leans on fragment
    /// repair for anything newer.
    pub fn restore(&mut self, snap: DapSnapshot) {
        self.abd.clear();
        self.treas.clear();
        self.ldr_dir.clear();
        self.ldr_rep.clear();
        for e in snap.abd {
            self.abd.insert((e.cfg, e.obj), AbdState { tag: e.tag, value: e.value });
        }
        for e in snap.treas {
            let mut list = BTreeMap::new();
            for entry in e.list {
                list.insert(entry.tag, entry.frag);
            }
            if !list.is_empty() {
                self.treas.insert((e.cfg, e.obj), TreasState { list });
            }
        }
        for e in snap.ldr_dir {
            self.ldr_dir.insert((e.cfg, e.obj), LdrDirState { tag: e.tag, locs: e.locs });
        }
        for e in snap.ldr_rep {
            let mut store = BTreeMap::new();
            for tv in e.store {
                store.insert(tv.tag, tv.value);
            }
            if !store.is_empty() {
                self.ldr_rep.insert((e.cfg, e.obj), LdrRepState { store });
            }
        }
    }

    /// Handles one request, returning `(destination, reply)` pairs.
    ///
    /// Unknown or mismatched requests (e.g. a TREAS message for an ABD
    /// configuration) are dropped — in a simulation that only happens
    /// through harness bugs, and dropping mirrors a real server ignoring
    /// malformed traffic.
    pub fn handle(&mut self, from: ProcessId, msg: DapMsg) -> Vec<(ProcessId, DapMsg)> {
        let hdr = msg.hdr;
        let Some(cfg) = self.registry.try_get(hdr.cfg).cloned() else {
            return Vec::new();
        };
        match msg.body {
            // ---------------- ABD ----------------
            DapBody::AbdQueryTag => {
                let s = self.abd.entry((hdr.cfg, hdr.obj)).or_default();
                reply(from, hdr, DapBody::AbdTag(s.tag))
            }
            DapBody::AbdQuery => {
                let s = self.abd.entry((hdr.cfg, hdr.obj)).or_default();
                reply(from, hdr, DapBody::AbdTagValue(s.tag, s.value.clone()))
            }
            DapBody::AbdWrite(tag, value) => {
                let s = self.abd.entry((hdr.cfg, hdr.obj)).or_default();
                if tag > s.tag {
                    s.tag = tag;
                    s.value = value;
                }
                reply(from, hdr, DapBody::AbdAck)
            }

            // ---------------- TREAS ----------------
            DapBody::TreasQueryTag => {
                let s = self.treas.entry((hdr.cfg, hdr.obj)).or_insert_with(TreasState::new);
                reply(from, hdr, DapBody::TreasTag(s.max_tag()))
            }
            DapBody::TreasQueryList => {
                let s = self.treas.entry((hdr.cfg, hdr.obj)).or_insert_with(TreasState::new);
                reply(from, hdr, DapBody::TreasList(s.to_entries()))
            }
            DapBody::TreasWrite(tag, frag) => {
                let DapKind::Treas { delta, .. } = cfg.dap else {
                    return Vec::new();
                };
                let s = self.treas.entry((hdr.cfg, hdr.obj)).or_insert_with(TreasState::new);
                s.insert_and_gc(tag, frag, delta);
                reply(from, hdr, DapBody::TreasAck)
            }

            // ---------------- LDR ----------------
            DapBody::LdrQueryTagLoc => {
                let s = self.ldr_dir.entry((hdr.cfg, hdr.obj)).or_default();
                reply(from, hdr, DapBody::LdrTagLoc(s.tag, s.locs.clone()))
            }
            DapBody::LdrPutMeta(tag, locs) => {
                let s = self.ldr_dir.entry((hdr.cfg, hdr.obj)).or_default();
                if tag > s.tag {
                    s.tag = tag;
                    s.locs = locs;
                }
                reply(from, hdr, DapBody::LdrPutMetaAck)
            }
            DapBody::LdrPutData(tag, value) => {
                let s = self.ldr_rep.entry((hdr.cfg, hdr.obj)).or_insert_with(LdrRepState::new);
                s.insert(tag, value);
                reply(from, hdr, DapBody::LdrPutDataAck(tag))
            }
            DapBody::LdrGetData(tag) => {
                let s = self.ldr_rep.entry((hdr.cfg, hdr.obj)).or_insert_with(LdrRepState::new);
                let (t, v) = match s.store.get(&tag) {
                    Some(v) => (tag, v.clone()),
                    None => s.current(),
                };
                reply(from, hdr, DapBody::LdrData(t, v))
            }

            // Replies are never addressed to servers.
            DapBody::AbdTag(..)
            | DapBody::AbdTagValue(..)
            | DapBody::AbdAck
            | DapBody::TreasTag(..)
            | DapBody::TreasList(..)
            | DapBody::TreasAck
            | DapBody::LdrTagLoc(..)
            | DapBody::LdrPutDataAck(..)
            | DapBody::LdrPutMetaAck
            | DapBody::LdrData(..) => Vec::new(),
        }
    }

    /// The highest tag/value pair this server holds for `(cfg, obj)`
    /// under its configuration's DAP — used by tests and state transfer.
    pub fn current_tag(&self, cfg_id: ConfigId, obj: ObjectId) -> Option<Tag> {
        if let Some(s) = self.abd.get(&(cfg_id, obj)) {
            return Some(s.tag);
        }
        if let Some(s) = self.treas.get(&(cfg_id, obj)) {
            return Some(s.max_tag());
        }
        if let Some(s) = self.ldr_dir.get(&(cfg_id, obj)) {
            return Some(s.tag);
        }
        None
    }

    /// Writes a tag/value directly into this server's state for `(cfg,
    /// obj)` — the landing half of state transfer for replicated
    /// configurations (ARES `update-config` writes through `put-data`,
    /// which arrives as ordinary DAP traffic; this helper exists for
    /// tests and bootstrap).
    pub fn seed_abd(&mut self, cfg: ConfigId, obj: ObjectId, tv: TagValue) {
        let s = self.abd.entry((cfg, obj)).or_default();
        if tv.tag > s.tag {
            s.tag = tv.tag;
            s.value = tv.value;
        }
    }
}

fn reply(to: ProcessId, hdr: Hdr, body: DapBody) -> Vec<(ProcessId, DapMsg)> {
    vec![(to, DapMsg::new(hdr, body))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::{Configuration, OpId, RpcId};
    use bytes::Bytes;

    fn registry() -> Arc<ConfigRegistry> {
        ConfigRegistry::from_configs([
            Configuration::abd(ConfigId(0), (1..=3).map(ProcessId).collect()),
            Configuration::treas(ConfigId(1), (1..=5).map(ProcessId).collect(), 3, 1),
            Configuration::ldr(ConfigId(2), (1..=5).map(ProcessId).collect(), 1),
        ])
    }

    fn hdr(cfg: u32) -> Hdr {
        Hdr {
            cfg: ConfigId(cfg),
            obj: ObjectId(0),
            rpc: RpcId(1),
            op: OpId { client: ProcessId(9), seq: 0 },
        }
    }

    fn frag(i: usize, len: usize) -> ares_codes::Fragment {
        ares_codes::Fragment { index: i, value_len: len * 3, data: Bytes::from(vec![1u8; len]) }
    }

    #[test]
    fn abd_write_is_tag_monotonic() {
        let mut s = DapServer::new(ProcessId(1), registry());
        let t2 = Tag::new(2, ProcessId(9));
        let t1 = Tag::new(1, ProcessId(9));
        s.handle(ProcessId(9), DapMsg::new(hdr(0), DapBody::AbdWrite(t2, Value::new(vec![2]))));
        s.handle(ProcessId(9), DapMsg::new(hdr(0), DapBody::AbdWrite(t1, Value::new(vec![1]))));
        let r = s.handle(ProcessId(9), DapMsg::new(hdr(0), DapBody::AbdQuery));
        match &r[0].1.body {
            DapBody::AbdTagValue(t, v) => {
                assert_eq!(*t, t2);
                assert_eq!(v.as_bytes(), &[2]);
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }

    #[test]
    fn treas_list_starts_with_t0_and_gc_keeps_delta_plus_one() {
        let mut s = DapServer::new(ProcessId(1), registry());
        // initial state
        let r = s.handle(ProcessId(9), DapMsg::new(hdr(1), DapBody::TreasQueryList));
        match &r[0].1.body {
            DapBody::TreasList(l) => {
                assert_eq!(l.len(), 1);
                assert_eq!(l[0].tag, TAG0);
                assert!(l[0].frag.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
        // delta = 1 -> keep 2 coded elements
        for z in 1..=4u64 {
            let t = Tag::new(z, ProcessId(9));
            s.handle(ProcessId(9), DapMsg::new(hdr(1), DapBody::TreasWrite(t, frag(0, 10))));
        }
        let st = s.treas_state_ref(ConfigId(1), ObjectId(0)).unwrap();
        assert!(st.contains(TAG0));
        for z in 1..=4u64 {
            assert!(st.contains(Tag::new(z, ProcessId(9))), "tag {z} retained");
        }
        assert_eq!(st.floor(), Some(Tag::new(2, ProcessId(9))), "highest GC'd tag is the floor");
        assert_eq!(st.list.len(), 3, "floor + δ+1 coded elements");
        assert_eq!(st.max_tag(), Tag::new(4, ProcessId(9)));
        let with_data: Vec<_> = st.list.iter().filter(|(_, f)| f.is_some()).collect();
        assert_eq!(with_data.len(), 2, "only δ+1 = 2 coded elements kept");
        // the two highest tags hold the data
        assert_eq!(*with_data[0].0, Tag::new(3, ProcessId(9)));
        assert_eq!(*with_data[1].0, Tag::new(4, ProcessId(9)));
        // storage = 2 fragments x 10 bytes
        assert_eq!(st.storage_bytes(), 20);
    }

    #[test]
    fn treas_query_tag_returns_max() {
        let mut s = DapServer::new(ProcessId(2), registry());
        let t = Tag::new(7, ProcessId(4));
        s.handle(ProcessId(9), DapMsg::new(hdr(1), DapBody::TreasWrite(t, frag(1, 4))));
        let r = s.handle(ProcessId(9), DapMsg::new(hdr(1), DapBody::TreasQueryTag));
        assert_eq!(r[0].1.body, DapBody::TreasTag(t));
    }

    #[test]
    fn treas_write_to_abd_config_is_dropped() {
        let mut s = DapServer::new(ProcessId(1), registry());
        let t = Tag::new(1, ProcessId(9));
        let r = s.handle(ProcessId(9), DapMsg::new(hdr(0), DapBody::TreasWrite(t, frag(0, 4))));
        assert!(r.is_empty());
    }

    #[test]
    fn ldr_directory_and_replica_flow() {
        let mut s = DapServer::new(ProcessId(1), registry());
        let t = Tag::new(3, ProcessId(9));
        let v = Value::new(vec![9, 9]);
        // replica stores
        let r = s.handle(ProcessId(9), DapMsg::new(hdr(2), DapBody::LdrPutData(t, v.clone())));
        assert_eq!(r[0].1.body, DapBody::LdrPutDataAck(t));
        // directory meta
        s.handle(ProcessId(9), DapMsg::new(hdr(2), DapBody::LdrPutMeta(t, vec![ProcessId(1)])));
        let r = s.handle(ProcessId(9), DapMsg::new(hdr(2), DapBody::LdrQueryTagLoc));
        assert_eq!(r[0].1.body, DapBody::LdrTagLoc(t, vec![ProcessId(1)]));
        // fetch by tag
        let r = s.handle(ProcessId(9), DapMsg::new(hdr(2), DapBody::LdrGetData(t)));
        assert_eq!(r[0].1.body, DapBody::LdrData(t, v));
    }

    #[test]
    fn ldr_replica_history_is_bounded() {
        let mut s = DapServer::new(ProcessId(1), registry());
        for z in 1..=20u64 {
            let t = Tag::new(z, ProcessId(9));
            s.handle(
                ProcessId(9),
                DapMsg::new(hdr(2), DapBody::LdrPutData(t, Value::new(vec![z as u8]))),
            );
        }
        // old tag evicted: falls back to current
        let old = Tag::new(1, ProcessId(9));
        let r = s.handle(ProcessId(9), DapMsg::new(hdr(2), DapBody::LdrGetData(old)));
        match &r[0].1.body {
            DapBody::LdrData(t, _) => assert_eq!(t.z, 20),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_config_dropped() {
        let mut s = DapServer::new(ProcessId(1), registry());
        let mut h = hdr(0);
        h.cfg = ConfigId(99);
        assert!(s.handle(ProcessId(9), DapMsg::new(h, DapBody::AbdQuery)).is_empty());
    }

    #[test]
    fn storage_accounting_sums_roles() {
        let mut s = DapServer::new(ProcessId(1), registry());
        s.handle(
            ProcessId(9),
            DapMsg::new(
                hdr(0),
                DapBody::AbdWrite(Tag::new(1, ProcessId(9)), Value::new(vec![0; 30])),
            ),
        );
        s.handle(
            ProcessId(9),
            DapMsg::new(hdr(1), DapBody::TreasWrite(Tag::new(1, ProcessId(9)), frag(0, 10))),
        );
        assert_eq!(s.storage_bytes(), 40);
    }
}
