//! Execution metrics: global and per-operation message/byte counts.
//!
//! The communication cost of an operation (Section 2 of the paper) is "the
//! size of the total data that gets transmitted in the messages sent as
//! part of the operation"; metadata is ignored. Messages carry their
//! operation id ([`crate::SimMessage::op`]) so the world can attribute
//! every send to the operation on whose behalf it happened — including
//! server replies and server-to-server forwards (ARES-TREAS).

use ares_types::OpId;
use std::collections::HashMap;

/// Message/byte counters for one operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpMetrics {
    /// Messages sent on behalf of the operation.
    pub messages: u64,
    /// Data payload bytes across those messages.
    pub payload_bytes: u64,
}

/// Global execution metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total messages sent.
    pub messages_sent: u64,
    /// Total messages delivered (sent minus drops to crashed processes
    /// minus still-in-flight).
    pub messages_delivered: u64,
    /// Total payload bytes sent.
    pub payload_bytes: u64,
    /// Messages dropped by a cut (partitioned) link.
    pub partition_drops: u64,
    /// Messages delivered twice by probabilistic duplication.
    pub duplicated: u64,
    /// Messages held back by probabilistic bounded reorder.
    pub reordered: u64,
    /// Fault actions applied, crashes and recoveries included.
    pub faults_applied: u64,
    /// Per-operation attribution.
    per_op: HashMap<OpId, OpMetrics>,
}

impl Metrics {
    /// Records a send of `bytes` payload attributed to `op`.
    pub fn record_send(&mut self, op: Option<OpId>, bytes: u64) {
        self.messages_sent += 1;
        self.payload_bytes += bytes;
        if let Some(op) = op {
            let m = self.per_op.entry(op).or_default();
            m.messages += 1;
            m.payload_bytes += bytes;
        }
    }

    /// Records a delivery.
    pub fn record_delivery(&mut self) {
        self.messages_delivered += 1;
    }

    /// Total fault-plane interference events (drops, duplicates,
    /// reorders, schedule actions) — the "faults injected" figure
    /// reported by chaos benchmarks.
    pub fn faults_injected(&self) -> u64 {
        self.partition_drops + self.duplicated + self.reordered + self.faults_applied
    }

    /// Metrics of one operation (zeros if never seen).
    pub fn op(&self, op: OpId) -> OpMetrics {
        self.per_op.get(&op).copied().unwrap_or_default()
    }

    /// Iterates over all per-operation entries.
    pub fn ops(&self) -> impl Iterator<Item = (&OpId, &OpMetrics)> {
        self.per_op.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_types::ProcessId;

    #[test]
    fn per_op_attribution() {
        let mut m = Metrics::default();
        let op = OpId { client: ProcessId(1), seq: 0 };
        m.record_send(Some(op), 100);
        m.record_send(Some(op), 50);
        m.record_send(None, 7);
        assert_eq!(m.messages_sent, 3);
        assert_eq!(m.payload_bytes, 157);
        assert_eq!(m.op(op), OpMetrics { messages: 2, payload_bytes: 150 });
        let other = OpId { client: ProcessId(2), seq: 0 };
        assert_eq!(m.op(other), OpMetrics::default());
    }
}
