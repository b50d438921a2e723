//! The price of one read or write in the steady state: the one place
//! the tree states Theorem 3's costs and the operation's round count.
//!
//! Steady state means no reconfiguration in flight and every TREAS
//! `List` at `δ + 1` coded elements. A read or write then runs four
//! round trips (Alg. 7): a `read-config` that reads `⊥`, `get-tag` or
//! `get-data`, `put-data`, and the trailing `read-config`. Each round
//! sends one request to each of the `n` servers and hears all `n`
//! replies. The byte costs are those of CAS/CASGC (Cadambe et al.,
//! PAPERS.md), which TREAS inherits: a server stores `δ + 1` elements
//! of `⌈|v|/k⌉` bytes, a write puts one to each server, and a read
//! gathers every server's list and puts one element back.

use ares_types::{Configuration, DapKind, OpKind};

/// What one operation costs, counted as the simulator attributes it to
/// the operation's [`OpCompletion`](ares_types::OpCompletion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCost {
    /// Round trips, each two message delays long.
    pub rounds: u64,
    /// Messages the client sends and receives.
    pub messages: u64,
    /// Payload bytes those messages carry (metadata excluded).
    pub wire_bytes: u64,
    /// Object bytes the configuration's servers hold, summed over them.
    pub stored_bytes: u64,
}

/// The steady-state cost of a `kind` operation on a `value_len`-byte
/// value in `cfg`.
///
/// `None` for LDR and for reconfigurations, which nothing prices.
pub fn cost(cfg: &Configuration, kind: OpKind, value_len: usize) -> Option<OpCost> {
    // The element each server holds and how many of them it keeps.
    let (element, kept) = match cfg.dap {
        DapKind::Abd => (value_len, 1),
        DapKind::Treas { k, delta } => (value_len.div_ceil(k), delta + 1),
        DapKind::Ldr { .. } => return None,
    };
    // Elements moved per server: a write's `put-data` carries one; a
    // read's `get-data` returns the whole list and its `put-data` one.
    let moved = match kind {
        OpKind::Write => 1,
        OpKind::Read => kept + 1,
        OpKind::Recon => return None,
    };
    let (n, element) = (cfg.n() as u64, element as u64);
    Some(OpCost {
        rounds: 4,
        messages: 4 * 2 * n,
        wire_bytes: n * moved as u64 * element,
        stored_bytes: n * kept as u64 * element,
    })
}
