//! Server-side protocol of the three DAP implementations.
//!
//! [`DapServer`] is a pure state machine embedded into the unified server
//! actor of `ares-core`: it consumes a [`DapMsg`] and returns the replies
//! to transmit. State is keyed by `(configuration, object)` — a server
//! that belongs to several configurations plays an independent role in
//! each, exactly as in the paper where each configuration carries its own
//! algorithm instance.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use crate::{DapBody, DapMsg, Hdr, ListEntry};
use ares_codes::Fragment;
use ares_types::{
    ConfigId, ConfigRegistry, DapKind, ObjectId, ProcessId, Tag, TagValue, Value, TAG0,
};
use bytes::Bytes;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
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
///
/// The list is stored as one tight buffer: an entry count, a fixed
/// header per entry (tag, element index, value length, element length
/// or `⊥`) in tag order, then the bytes of every small element. A
/// [bulk](ares_codes::is_bulk) element keeps an allocation of its own
/// (on its frame, by [`ares_codes::compact_bytes`]) beside the buffer.
/// A mutation decodes the list into a working copy of views, edits it
/// and packs a new buffer; readers get elements as views of the
/// buffer, so a `get-data` reply copies nothing.
#[derive(Clone)]
pub struct TreasState(Repr);

#[derive(Clone)]
enum Repr {
    /// No bulk element: the buffer is the whole list.
    Packed(Bytes),
    /// The buffer, and the bulk elements in list order.
    Mixed(Box<(Bytes, Vec<Bytes>)>),
}

// The state map holds a `TreasState` by value for every object.
const _: () = assert!(std::mem::size_of::<TreasState>() <= 32);

/// One entry of a list's decoded working copy (`None` = `⊥`).
type Entry = (Tag, Option<Fragment>);

/// Bytes of the entry count that leads a [`TreasState`] buffer.
const COUNT: usize = 4;
/// Bytes of one entry header: the tag's `z` (u64) and `w` (u32), the
/// element's `index` (u32) and `value_len` (u64) — the widths the wire
/// gives them — and its length (u32), or [`BOTTOM`] or [`BULK`].
const HEADER: usize = 28;
/// The length field of a `⊥` entry.
const BOTTOM: u32 = u32::MAX;
/// The length field of an entry whose element is held beside the buffer.
const BULK: u32 = u32::MAX - 1;

/// One decoded entry header.
struct Head {
    tag: Tag,
    index: u32,
    value_len: u64,
    len: u32,
}

fn le_u32(b: &[u8], at: usize) -> u32 {
    b.get(at..at + 4).and_then(|s| s.try_into().ok()).map_or(0, u32::from_le_bytes)
}

fn le_u64(b: &[u8], at: usize) -> u64 {
    b.get(at..at + 8).and_then(|s| s.try_into().ok()).map_or(0, u64::from_le_bytes)
}

impl TreasState {
    fn new() -> Self {
        // (t_0, Φ_i(v_0)): the initial value is empty, so its coded
        // element is the empty fragment; `None` here would wrongly make
        // t_0 look garbage-collected, so store an empty fragment.
        let t0 = Fragment { index: 0, value_len: 0, data: Bytes::new() };
        TreasState::pack(&[(TAG0, Some(t0))])
    }

    /// Rebuilds a list from its wire form (a WAL checkpoint).
    fn from_entries(entries: Vec<ListEntry>) -> Option<Self> {
        let mut list: Vec<Entry> = entries.into_iter().map(|e| (e.tag, e.frag)).collect();
        list.sort_by_key(|e| e.0);
        list.dedup_by_key(|e| e.0);
        if list.is_empty() {
            return None;
        }
        compact(&mut list, None);
        Some(TreasState::pack(&list))
    }

    /// Packs `list` into a new buffer: small elements are copied in, a
    /// bulk one is kept beside it as [`ares_codes::compact_bytes`] leaves
    /// it.
    fn pack(list: &[Entry]) -> Self {
        let small = |f: &&Fragment| !ares_codes::is_bulk(f.data.len());
        let elements = || list.iter().filter_map(|e| e.1.as_ref());
        let packed: usize = elements().filter(small).map(|f| f.data.len()).sum();
        let mut buf = Vec::with_capacity(COUNT + list.len() * HEADER + packed);
        buf.extend_from_slice(&(list.len() as u32).to_le_bytes());
        let mut bulk = Vec::new();
        for (tag, elem) in list {
            let (index, value_len, len) = match elem {
                None => (0, 0, BOTTOM),
                Some(f) if small(&f) => (f.index, f.value_len, f.data.len() as u32),
                Some(f) => {
                    bulk.push(ares_codes::compact_bytes(f.data.clone()));
                    (f.index, f.value_len, BULK)
                }
            };
            buf.extend_from_slice(&tag.z.to_le_bytes());
            buf.extend_from_slice(&tag.w.0.to_le_bytes());
            buf.extend_from_slice(&(index as u32).to_le_bytes());
            buf.extend_from_slice(&(value_len as u64).to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
        }
        for f in elements().filter(small) {
            buf.extend_from_slice(&f.data);
        }
        let buf = Bytes::from(buf);
        TreasState(if bulk.is_empty() {
            Repr::Packed(buf)
        } else {
            Repr::Mixed(Box::new((buf, bulk)))
        })
    }

    fn parts(&self) -> (&Bytes, &[Bytes]) {
        match &self.0 {
            Repr::Packed(buf) => (buf, &[]),
            Repr::Mixed(m) => (&m.0, &m.1),
        }
    }

    fn len(&self) -> usize {
        le_u32(self.parts().0, 0) as usize
    }

    fn head(&self, i: usize) -> Option<Head> {
        let buf = self.parts().0;
        let at = COUNT + i * HEADER;
        (i < self.len()).then(|| Head {
            tag: Tag::new(le_u64(buf, at), ProcessId(le_u32(buf, at + 8))),
            index: le_u32(buf, at + 12),
            value_len: le_u64(buf, at + 16),
            len: le_u32(buf, at + 24),
        })
    }

    fn heads(&self) -> impl Iterator<Item = Head> + '_ {
        (0..self.len()).filter_map(|i| self.head(i))
    }

    /// The list decoded: every element a view of the buffer, or of its
    /// own allocation if it is bulk.
    fn working_copy(&self) -> Vec<Entry> {
        let (buf, bulk) = self.parts();
        let mut at = COUNT + self.len() * HEADER;
        let mut bulk = bulk.iter();
        self.heads()
            .map(|h| {
                let data = match h.len {
                    BOTTOM => return (h.tag, None),
                    BULK => bulk.next().cloned().unwrap_or_default(),
                    len => {
                        at += len as usize;
                        buf.slice(at - len as usize..at)
                    }
                };
                let (index, value_len) = (h.index as usize, h.value_len as usize);
                (h.tag, Some(Fragment { index, value_len, data }))
            })
            .collect()
    }

    /// Highest tag in the list (`τ_max ≡ max_{(t,c)∈List} t`).
    pub fn max_tag(&self) -> Tag {
        self.len().checked_sub(1).and_then(|i| self.head(i)).map_or(TAG0, |h| h.tag)
    }

    /// The low-water tag: the first entry iff it is `⊥`. Every tag
    /// `≤ floor` was garbage-collected here and is implicitly `(t, ⊥)`.
    /// It never decreases.
    pub fn floor(&self) -> Option<Tag> {
        self.head(0).filter(|h| h.len == BOTTOM).map(|h| h.tag)
    }

    /// `(tag, *) ∈ List`, counting the tags the floor stands for.
    pub fn contains(&self, tag: Tag) -> bool {
        self.floor().is_some_and(|w| tag <= w) || self.heads().any(|h| h.tag == tag)
    }

    /// The coded element stored for `tag`, if the list holds one (not
    /// `⊥`, not absent), as a view of the list's storage.
    pub fn get(&self, tag: Tag) -> Option<Fragment> {
        self.iter().find(|e| e.0 == tag)?.1
    }

    /// The explicit entries, ascending by tag (the floor, if any, first);
    /// elements are views of the list's storage.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (Tag, Option<Fragment>)> {
        self.working_copy().into_iter()
    }

    /// Inserts `(tag, frag)` and garbage-collects down to the `δ + 1`
    /// highest tags (Alg. 3 lines 12-15). A tag the list already
    /// [`contains`](TreasState::contains) is left alone: re-insertion
    /// neither downgrades an element nor resurrects a GC'd one.
    pub fn insert_and_gc(&mut self, tag: Tag, frag: Fragment, delta: usize) {
        if self.contains(tag) {
            return;
        }
        let mut list = self.working_copy();
        // The new element survives iff fewer than δ + 1 coded elements
        // rank above it; the lowest coded elements of the list plus the
        // new one beyond δ + 1 lose their data — if the new one is among
        // them it arrives as ⊥.
        let Err(at) = list.binary_search_by_key(&tag, |e| e.0) else { return };
        let coded_above = list.iter().skip(at).filter(|e| e.1.is_some()).count();
        let keep = coded_above <= delta;
        let coded = list.iter().filter(|e| e.1.is_some()).count();
        let excess = (coded + usize::from(keep)).saturating_sub(delta + 1);
        for e in list.iter_mut().filter(|e| e.1.is_some()).take(excess) {
            e.1 = None; // remove the coded value...
        }
        // ...and retain the tag, explicitly or under the floor. Only the
        // ⊥s below the new tag fold now: a kept element becomes the
        // lowest coded one when every element under it lost its data.
        compact(&mut list, Some(tag));
        place(&mut list, tag, keep.then_some(frag));
        *self = TreasState::pack(&list);
    }

    /// Records `(tag, ⊥)`: a tag known to exist whose element this
    /// server cannot hold (repair of an undecodable tag).
    pub fn note_tag(&mut self, tag: Tag) {
        if !self.contains(tag) {
            let mut list = self.working_copy();
            place(&mut list, tag, None);
            *self = TreasState::pack(&list);
        }
    }

    /// The wire form of the list (ascending; the floor, if any, first).
    pub fn to_entries(&self) -> Vec<ListEntry> {
        self.iter().map(|(tag, frag)| ListEntry { tag, frag }).collect()
    }

    /// Bytes of coded payload currently stored (the storage cost of
    /// Theorem 3(i), in bytes).
    pub fn storage_bytes(&self) -> u64 {
        let packed: u64 = self.heads().filter(|h| h.len < BULK).map(|h| u64::from(h.len)).sum();
        packed + self.parts().1.iter().map(|b| b.len() as u64).sum::<u64>()
    }
}

impl fmt::Debug for TreasState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Puts a tag `list` does not contain in its place. A `⊥` right above
/// the floor, below every coded element, would be compacted into it at
/// once, so it replaces the floor instead; anything else is inserted,
/// in a slot of its own.
fn place(list: &mut Vec<Entry>, tag: Tag, elem: Option<Fragment>) {
    let Err(at) = list.binary_search_by_key(&tag, |e| e.0) else { return };
    match list.first_mut() {
        Some(floor) if elem.is_none() && at == 1 && floor.1.is_none() => floor.0 = tag,
        _ => list.insert(at, (tag, elem)),
    }
    compact(list, None);
}

/// Folds the `⊥` entries below the lowest coded element (and below
/// `limit`, if given) into the highest of them. Every mutation leaves
/// at most a couple of such entries, so this is O(δ) per put.
fn compact(list: &mut Vec<Entry>, limit: Option<Tag>) {
    let foldable = |e: &&Entry| e.1.is_none() && limit.is_none_or(|l| e.0 < l);
    let bottoms = list.iter().take_while(foldable).count();
    if bottoms > 1 {
        list.drain(..bottoms - 1);
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
        self.store.insert(tag, value.compacted());
        while self.store.len() > Self::HISTORY {
            self.store.pop_first();
        }
    }

    fn current(&self) -> (Tag, Value) {
        self.store.last_key_value().map_or((TAG0, Value::initial()), |(t, v)| (*t, v.clone()))
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

    /// The newest `⟨τ, v⟩` this server holds as an LDR replica of
    /// `(cfg, obj)`, if it holds any (used by state transfer from an LDR
    /// configuration).
    pub fn ldr_newest(&self, cfg: ConfigId, obj: ObjectId) -> Option<(Tag, Value)> {
        self.ldr_rep.get(&(cfg, obj)).map(LdrRepState::current)
    }

    /// Drops every object state of configuration `cfg`: the server
    /// retired it once its finalized successor holds the objects
    /// (DESIGN.md §2). Nothing recreates it — the caller answers later
    /// requests for `cfg` with [`DapBody::Retired`] instead of calling
    /// [`DapServer::handle`].
    pub fn retire(&mut self, cfg: ConfigId) {
        self.abd.retain(|k, _| k.0 != cfg);
        self.treas.retain(|k, _| k.0 != cfg);
        self.ldr_dir.retain(|k, _| k.0 != cfg);
        self.ldr_rep.retain(|k, _| k.0 != cfg);
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
            self.abd.insert((e.cfg, e.obj), AbdState { tag: e.tag, value: e.value.compacted() });
        }
        for e in snap.treas {
            if let Some(st) = TreasState::from_entries(e.list) {
                self.treas.insert((e.cfg, e.obj), st);
            }
        }
        for e in snap.ldr_dir {
            self.ldr_dir.insert((e.cfg, e.obj), LdrDirState { tag: e.tag, locs: e.locs });
        }
        for e in snap.ldr_rep {
            let mut store = BTreeMap::new();
            for tv in e.store {
                store.insert(tv.tag, tv.value.compacted());
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
                    s.value = value.compacted();
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
            DapBody::Retired(..)
            | DapBody::AbdTag(..)
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

    /// Writes a tag/value directly into this server's state for `(cfg,
    /// obj)` — the landing half of state transfer for replicated
    /// configurations (ARES `update-config` writes through `put-data`,
    /// which arrives as ordinary DAP traffic; this helper exists for
    /// tests and bootstrap).
    pub fn seed_abd(&mut self, cfg: ConfigId, obj: ObjectId, tv: TagValue) {
        let s = self.abd.entry((cfg, obj)).or_default();
        if tv.tag > s.tag {
            s.tag = tv.tag;
            s.value = tv.value.compacted();
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
        assert_eq!(st.iter().count(), 3, "floor + δ+1 coded elements");
        let (buf, bulk) = st.parts();
        assert_eq!(buf.backing_len(), COUNT + 3 * HEADER + 20, "one tight buffer");
        assert!(bulk.is_empty(), "small elements are packed");
        assert_eq!(st.max_tag(), Tag::new(4, ProcessId(9)));
        let with_data: Vec<_> = st.iter().filter(|(_, f)| f.is_some()).collect();
        assert_eq!(with_data.len(), 2, "only δ+1 = 2 coded elements kept");
        // the two highest tags hold the data
        assert_eq!(with_data[0].0, Tag::new(3, ProcessId(9)));
        assert_eq!(with_data[1].0, Tag::new(4, ProcessId(9)));
        // storage = 2 fragments x 10 bytes
        assert_eq!(st.storage_bytes(), 20);
    }

    #[test]
    fn a_list_packs_small_elements_and_keeps_bulk_ones_beside() {
        let mut st = TreasState::new();
        let t = |z| Tag::new(z, ProcessId(9));
        let is_packed = |st: &TreasState| matches!(st.0, Repr::Packed(_));
        st.insert_and_gc(t(1), frag(0, 10), 1);
        assert!(is_packed(&st));
        // A bulk element on its own tight frame stays there.
        let bulk = frag(0, 1000);
        st.insert_and_gc(t(2), bulk.clone(), 1);
        assert!(!is_packed(&st));
        let kept = st.get(t(2)).unwrap();
        assert!(Bytes::shares_allocation(&kept.data, &bulk.data));
        assert_eq!(st.to_entries().iter().map(|e| e.payload_bytes()).sum::<u64>(), 1010);
        // Once GC drops it, the list is one buffer again.
        st.insert_and_gc(t(3), frag(0, 20), 1);
        st.insert_and_gc(t(4), frag(0, 30), 1);
        assert!(is_packed(&st));
        assert_eq!(st.floor(), Some(t(2)));
        assert_eq!(st.storage_bytes(), 50);
        assert_eq!(st.get(t(4)).unwrap().data, vec![1u8; 30]);
    }

    #[test]
    fn a_re_encoded_element_pins_no_more_than_the_list_allows() {
        // Repair and state transfer store `encode_fragment` output as
        // encoded, and a systematic element views the whole value it was
        // encoded from: the list alone decides what it keeps of it.
        let code = ares_codes::build_code(ares_codes::CodeParams { n: 5, k: 3 }).unwrap();
        let (small, bulk) = (Value::filler(256, 1), Value::filler(64 * 1024, 2));
        let (t1, t2) = (Tag::new(1, ProcessId(9)), Tag::new(2, ProcessId(9)));
        for i in 0..5 {
            let mut st = TreasState::new();
            st.insert_and_gc(t1, code.encode_fragment(small.as_bytes(), i), 2);
            st.insert_and_gc(t2, code.encode_fragment(bulk.as_bytes(), i), 2);
            let (buf, beside) = st.parts();
            let packed = st.get(t1).unwrap().data;
            assert!(Bytes::shares_allocation(&packed, buf), "element {i} of 256 B is packed");
            let kept = st.get(t2).unwrap().data;
            assert_eq!(beside.len(), 1, "element {i} of 64 KiB is held beside the buffer");
            assert!(
                kept.backing_len() <= kept.len() + kept.len() / 8,
                "element {i} of 64 KiB pins {} bytes for {}",
                kept.backing_len(),
                kept.len()
            );
        }
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
    fn retire_drops_every_state_of_one_configuration_only() {
        let mut s = DapServer::new(ProcessId(1), registry());
        let t = Tag::new(1, ProcessId(9));
        let puts = [
            (0, DapBody::AbdWrite(t, Value::new(vec![0; 30]))),
            (1, DapBody::TreasWrite(t, frag(0, 10))),
            (2, DapBody::LdrPutData(t, Value::new(vec![0; 5]))),
            (2, DapBody::LdrPutMeta(t, vec![ProcessId(1)])),
        ];
        for (cfg, body) in puts {
            s.handle(ProcessId(9), DapMsg::new(hdr(cfg), body));
        }
        assert_eq!(s.storage_bytes(), 45);
        s.retire(ConfigId(2));
        assert_eq!(s.storage_bytes(), 40, "c2's replica gone");
        assert!(s.ldr_dir.is_empty() && s.ldr_rep.is_empty());
        assert_eq!(s.ldr_newest(ConfigId(2), ObjectId(0)), None);
        s.retire(ConfigId(0));
        s.retire(ConfigId(1));
        assert_eq!(s.storage_bytes(), 0);
        assert!(s.snapshot() == DapSnapshot::default(), "nothing left to checkpoint");
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
