//! Configurations and configuration sequences (Section 2 "Configuration"
//! and Section 4.1 of the paper).
//!
//! A [`Configuration`] `c` names (i) the server set `c.Servers`, (ii) the
//! quorum system `c.Quorums`, (iii) the atomic-memory algorithm (DAP
//! implementation) used inside `c` with its parameters, and (iv) implies a
//! consensus instance `c.Con` run on `c.Servers`.
//!
//! A [`ConfigSeq`] is a process-local approximation of the global
//! configuration sequence `GL`: an array of `⟨cfg, status⟩` pairs with
//! `status ∈ {P, F}`. `µ` is the index of the last *finalized* entry and
//! `ν` the index of the last entry (the paper's Definition 11, expressed
//! 0-based here).

use crate::ids::{ConfigId, ProcessId};
use crate::quorum::QuorumSpec;
use ares_codes::CodeParams;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Which atomic-memory algorithm (DAP implementation) a configuration runs
/// (Remark 22: each configuration may use a different one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DapKind {
    /// Multi-writer ABD (Appendix A.1, Alg. 12): full replication,
    /// majority quorums.
    Abd,
    /// TREAS (Section 3): `[n, k]` MDS code, `⌈(n+k)/2⌉` thresholds,
    /// `δ`-bounded coded-element lists.
    Treas {
        /// Reconstruction threshold `k` (the paper requires `k > n/3`).
        k: usize,
        /// Concurrency bound `δ`: servers keep coded elements for the
        /// `δ + 1` highest tags.
        delta: usize,
    },
    /// LDR (Appendix A.1, Alg. 13): directory servers + replica servers.
    /// The paper pairs it with template A2 (reads skip the propagate
    /// phase, which its extra property C3 allows); ARES runs A1 over it.
    Ldr {
        /// Replica fault bound: `2f + 1` replicas, writes await `f + 1`.
        f: usize,
    },
}

impl DapKind {
    /// Short human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            DapKind::Abd => "ABD",
            DapKind::Treas { .. } => "TREAS",
            DapKind::Ldr { .. } => "LDR",
        }
    }
}

/// The status of a configuration in a sequence: pending (`P`) or
/// finalized (`F`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// `P`: added but not yet finalized.
    Pending,
    /// `F`: finalized; earlier configurations may be retired.
    Finalized,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Pending => write!(f, "P"),
            Status::Finalized => write!(f, "F"),
        }
    }
}

/// One element `⟨cfg, status⟩` of a configuration sequence (the paper's
/// "caret" variables, e.g. `ĉ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConfigEntry {
    /// The configuration identifier.
    pub cfg: ConfigId,
    /// Its status.
    pub status: Status,
}

impl ConfigEntry {
    /// A pending entry for `cfg`.
    pub fn pending(cfg: ConfigId) -> Self {
        ConfigEntry { cfg, status: Status::Pending }
    }

    /// A finalized entry for `cfg`.
    pub fn finalized(cfg: ConfigId) -> Self {
        ConfigEntry { cfg, status: Status::Finalized }
    }
}

impl fmt::Display for ConfigEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{},{}⟩", self.cfg, self.status)
    }
}

/// A full configuration description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Configuration {
    /// Unique identifier `c`.
    pub id: ConfigId,
    /// `c.Servers`, in codeword order: server `i` stores coded element
    /// `Φ_i(v)` under TREAS.
    pub servers: Vec<ProcessId>,
    /// The DAP implementation (and its parameters) used inside `c`.
    pub dap: DapKind,
}

impl Configuration {
    /// Creates an ABD configuration over `servers`.
    pub fn abd(id: ConfigId, servers: Vec<ProcessId>) -> Self {
        Configuration { id, servers, dap: DapKind::Abd }
    }

    /// Creates a TREAS configuration over `servers` with code `[n, k]`
    /// (`n = servers.len()`) and concurrency bound `delta`.
    ///
    /// # Panics
    ///
    /// Panics unless `n/3 < k <= n` (Theorem 9's liveness requirement).
    pub fn treas(id: ConfigId, servers: Vec<ProcessId>, k: usize, delta: usize) -> Self {
        let n = servers.len();
        assert!(k > n / 3 && k <= n, "TREAS requires n/3 < k <= n (n={n}, k={k})");
        Configuration { id, servers, dap: DapKind::Treas { k, delta } }
    }

    /// Creates an LDR configuration over `servers` with replica fault
    /// bound `f` (first `2f + 1` servers act as replicas; all servers act
    /// as directories).
    ///
    /// # Panics
    ///
    /// Panics if `2f + 1 > servers.len()`.
    pub fn ldr(id: ConfigId, servers: Vec<ProcessId>, f: usize) -> Self {
        assert!(2 * f < servers.len(), "LDR needs 2f+1 <= n");
        Configuration { id, servers, dap: DapKind::Ldr { f } }
    }

    /// Number of servers `n = |c.Servers|`.
    pub fn n(&self) -> usize {
        self.servers.len()
    }

    /// The `[n, k]` code parameters of this configuration (`k = 1` for the
    /// replication-based DAPs).
    pub fn code_params(&self) -> CodeParams {
        let n = self.n();
        match self.dap {
            DapKind::Abd | DapKind::Ldr { .. } => CodeParams { n, k: 1 },
            DapKind::Treas { k, .. } => CodeParams { n, k },
        }
    }

    /// The quorum system `c.Quorums` used both by the DAP and by the
    /// configuration-discovery service within `c`.
    pub fn quorum(&self) -> QuorumSpec {
        match self.dap {
            DapKind::Abd | DapKind::Ldr { .. } => QuorumSpec::Majority,
            DapKind::Treas { k, .. } => QuorumSpec::treas(self.n(), k),
        }
    }

    /// Number of responses a quorum phase must collect in `c`.
    pub fn quorum_size(&self) -> usize {
        self.quorum().quorum_size(self.n())
    }

    /// TREAS `δ` if applicable.
    pub fn delta(&self) -> Option<usize> {
        match self.dap {
            DapKind::Treas { delta, .. } => Some(delta),
            _ => None,
        }
    }

    /// Index of `pid` within `c.Servers` (its codeword position).
    pub fn server_index(&self, pid: ProcessId) -> Option<usize> {
        self.servers.iter().position(|&s| s == pid)
    }

    /// The directory servers for LDR (all servers) — empty for other DAPs.
    pub fn ldr_directories(&self) -> &[ProcessId] {
        match self.dap {
            DapKind::Ldr { .. } => &self.servers,
            _ => &[],
        }
    }

    /// The replica servers for LDR (first `2f + 1`) — empty otherwise.
    pub fn ldr_replicas(&self) -> &[ProcessId] {
        match self.dap {
            DapKind::Ldr { f } => &self.servers[..2 * f + 1],
            _ => &[],
        }
    }
}

/// Immutable registry mapping configuration ids to their descriptions.
///
/// The paper treats configuration identifiers as drawn from a known set
/// `C`; a reconfigurer proposes an identifier whose description (servers,
/// code, DAP) is known to all processes. The registry models that shared
/// knowledge. It is created once per execution and shared via [`Arc`].
#[derive(Debug, Default)]
pub struct ConfigRegistry {
    configs: HashMap<ConfigId, Arc<Configuration>>,
}

impl ConfigRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a registry from a list of configurations.
    ///
    /// # Panics
    ///
    /// Panics on duplicate configuration ids.
    pub fn from_configs(configs: impl IntoIterator<Item = Configuration>) -> Arc<Self> {
        let mut reg = ConfigRegistry::new();
        for c in configs {
            reg.insert(c);
        }
        Arc::new(reg)
    }

    /// Registers a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered (identifiers are unique).
    pub fn insert(&mut self, c: Configuration) {
        let id = c.id;
        let prev = self.configs.insert(id, Arc::new(c));
        assert!(prev.is_none(), "duplicate configuration id {id}");
    }

    /// Looks up a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is unknown — protocol code only ever dereferences
    /// ids it has received from the registry-backed universe.
    pub fn get(&self, id: ConfigId) -> &Arc<Configuration> {
        self.configs.get(&id).unwrap_or_else(|| panic!("unknown configuration id {id}"))
    }

    /// Looks up a configuration, returning `None` when unknown.
    pub fn try_get(&self, id: ConfigId) -> Option<&Arc<Configuration>> {
        self.configs.get(&id)
    }

    /// All registered ids (unspecified order).
    pub fn ids(&self) -> impl Iterator<Item = ConfigId> + '_ {
        self.configs.keys().copied()
    }

    /// Number of registered configurations.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }
}

/// A process-local configuration sequence `cseq` (approximation of `GL`).
///
/// Index 0 always holds the genesis configuration `⟨c_0, F⟩`.
///
/// # Examples
///
/// ```
/// use ares_types::{ConfigSeq, ConfigEntry, ConfigId};
///
/// let mut seq = ConfigSeq::genesis(ConfigId(0));
/// assert_eq!((seq.mu(), seq.nu()), (0, 0));
/// seq.push(ConfigEntry::pending(ConfigId(1)));
/// assert_eq!((seq.mu(), seq.nu()), (0, 1));
/// seq.finalize_last();
/// assert_eq!((seq.mu(), seq.nu()), (1, 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigSeq {
    entries: Vec<ConfigEntry>,
}

impl ConfigSeq {
    /// The sequence `[⟨c0, F⟩]` every process starts from.
    pub fn genesis(c0: ConfigId) -> Self {
        ConfigSeq { entries: vec![ConfigEntry::finalized(c0)] }
    }

    /// Number of entries (the paper's `|cseq|`; always at least 1).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Always false: a sequence contains at least the genesis entry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `ν`: index of the last entry (0-based).
    pub fn nu(&self) -> usize {
        self.entries.len() - 1
    }

    /// `µ`: index of the last entry with status `F`.
    ///
    /// # Panics
    ///
    /// Never panics in well-formed executions: index 0 is finalized.
    pub fn mu(&self) -> usize {
        self.entries
            .iter()
            .rposition(|e| e.status == Status::Finalized)
            .expect("genesis entry is always finalized")
    }

    /// The entry at `i`.
    pub fn get(&self, i: usize) -> ConfigEntry {
        self.entries[i]
    }

    /// The last entry.
    pub fn last(&self) -> ConfigEntry {
        *self.entries.last().expect("non-empty")
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &ConfigEntry> {
        self.entries.iter()
    }

    /// Appends an entry at the end.
    pub fn push(&mut self, e: ConfigEntry) {
        self.entries.push(e);
    }

    /// Absorbs `entry` at index `i`: inserts it if `i == len()`, otherwise
    /// verifies the configuration id matches (Lemma 13, Configuration
    /// Uniqueness) and upgrades the status `P → F` if `entry` is
    /// finalized. Status never regresses `F → P` (Lemma 46 monotonicity).
    ///
    /// # Panics
    ///
    /// Panics if `i > len()` (a gap) or on a configuration-id mismatch —
    /// either indicates a protocol bug, not an input error.
    pub fn absorb(&mut self, i: usize, entry: ConfigEntry) {
        if i == self.entries.len() {
            self.entries.push(entry);
            return;
        }
        assert!(i < self.entries.len(), "absorb would leave a gap at {i}");
        let e = &mut self.entries[i];
        assert_eq!(e.cfg, entry.cfg, "configuration uniqueness violated at index {i}");
        if entry.status == Status::Finalized {
            e.status = Status::Finalized;
        }
    }

    /// Whether `cfg` appears anywhere in the sequence.
    pub fn contains(&self, cfg: ConfigId) -> bool {
        self.entries.iter().any(|e| e.cfg == cfg)
    }

    /// Marks the last entry finalized (the `finalize-config` step).
    pub fn finalize_last(&mut self) {
        self.entries.last_mut().expect("non-empty").status = Status::Finalized;
    }

    /// Prefix order `x ≼_p y` on configuration ids (Definition 12):
    /// `x[j].cfg = y[j].cfg` for every index `j` present in `x`.
    pub fn is_prefix_of(&self, other: &ConfigSeq) -> bool {
        self.entries.len() <= other.entries.len()
            && self.entries.iter().zip(&other.entries).all(|(a, b)| a.cfg == b.cfg)
    }
}

impl fmt::Display for ConfigSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn servers(ids: &[u32]) -> Vec<ProcessId> {
        ids.iter().map(|&i| ProcessId(i)).collect()
    }

    #[test]
    fn treas_configuration_parameters() {
        let c = Configuration::treas(ConfigId(1), servers(&[1, 2, 3, 4, 5]), 4, 2);
        assert_eq!(c.n(), 5);
        assert_eq!(c.code_params(), CodeParams { n: 5, k: 4 });
        assert_eq!(c.quorum_size(), 5); // ceil((5+4)/2)
        assert_eq!(c.delta(), Some(2));
        assert_eq!(c.server_index(ProcessId(3)), Some(2));
        assert_eq!(c.server_index(ProcessId(9)), None);
    }

    #[test]
    #[should_panic(expected = "TREAS requires")]
    fn treas_rejects_small_k() {
        let _ = Configuration::treas(ConfigId(1), servers(&[1, 2, 3, 4, 5, 6]), 2, 1);
    }

    #[test]
    fn abd_configuration_parameters() {
        let c = Configuration::abd(ConfigId(0), servers(&[1, 2, 3]));
        assert_eq!(c.code_params(), CodeParams { n: 3, k: 1 });
        assert_eq!(c.quorum_size(), 2);
        assert_eq!(c.delta(), None);
    }

    #[test]
    fn ldr_roles() {
        let c = Configuration::ldr(ConfigId(2), servers(&[1, 2, 3, 4, 5]), 1);
        assert_eq!(c.ldr_replicas(), &servers(&[1, 2, 3])[..]);
        assert_eq!(c.ldr_directories().len(), 5);
        assert_eq!(c.quorum_size(), 3);
    }

    #[test]
    fn registry_lookup() {
        let reg = ConfigRegistry::from_configs([
            Configuration::abd(ConfigId(0), servers(&[1, 2, 3])),
            Configuration::treas(ConfigId(1), servers(&[4, 5, 6, 7, 8]), 4, 1),
        ]);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.get(ConfigId(1)).n(), 5);
        assert!(reg.try_get(ConfigId(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate configuration id")]
    fn registry_rejects_duplicates() {
        let mut reg = ConfigRegistry::new();
        reg.insert(Configuration::abd(ConfigId(0), servers(&[1])));
        reg.insert(Configuration::abd(ConfigId(0), servers(&[2])));
    }

    #[test]
    fn cseq_mu_nu_and_finalize() {
        let mut s = ConfigSeq::genesis(ConfigId(0));
        s.push(ConfigEntry::pending(ConfigId(1)));
        s.push(ConfigEntry::pending(ConfigId(2)));
        assert_eq!(s.mu(), 0);
        assert_eq!(s.nu(), 2);
        s.absorb(1, ConfigEntry::finalized(ConfigId(1)));
        assert_eq!(s.mu(), 1);
        s.finalize_last();
        assert_eq!(s.mu(), 2);
    }

    #[test]
    fn absorb_is_monotonic_and_appends() {
        let mut s = ConfigSeq::genesis(ConfigId(0));
        s.absorb(1, ConfigEntry::pending(ConfigId(1)));
        assert_eq!(s.len(), 2);
        // F never downgrades to P.
        s.absorb(1, ConfigEntry::finalized(ConfigId(1)));
        s.absorb(1, ConfigEntry::pending(ConfigId(1)));
        assert_eq!(s.get(1).status, Status::Finalized);
    }

    #[test]
    #[should_panic(expected = "configuration uniqueness")]
    fn absorb_detects_conflicting_config() {
        let mut s = ConfigSeq::genesis(ConfigId(0));
        s.push(ConfigEntry::pending(ConfigId(1)));
        s.absorb(1, ConfigEntry::pending(ConfigId(2)));
    }

    #[test]
    fn prefix_order() {
        let mut a = ConfigSeq::genesis(ConfigId(0));
        let mut b = ConfigSeq::genesis(ConfigId(0));
        assert!(a.is_prefix_of(&b) && b.is_prefix_of(&a));
        b.push(ConfigEntry::pending(ConfigId(1)));
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        a.push(ConfigEntry::finalized(ConfigId(1))); // status may differ
        assert!(a.is_prefix_of(&b));
        a.push(ConfigEntry::pending(ConfigId(2)));
        b.push(ConfigEntry::pending(ConfigId(3)));
        assert!(!a.is_prefix_of(&b));
    }

    #[test]
    fn display_sequence() {
        let mut s = ConfigSeq::genesis(ConfigId(0));
        s.push(ConfigEntry::pending(ConfigId(1)));
        assert_eq!(s.to_string(), "[⟨c0,F⟩ ⟨c1,P⟩]");
    }
}
