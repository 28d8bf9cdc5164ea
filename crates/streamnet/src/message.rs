//! Message taxonomy and the communication-cost ledger.
//!
//! The paper's performance metric is "the number of maintenance messages
//! required during the lifetime of the query" (§6). The ledger counts every
//! server↔source message, broken down by class, so benches can report both
//! the headline total and where it went (DESIGN.md §3.3).

use asf_persist::persist;

/// Classes of messages exchanged between server and sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Unsolicited source → server value report (filter violation, or every
    /// update when no filter is installed).
    Update,
    /// Server → source request for the current value.
    ProbeRequest,
    /// Source → server reply to a probe.
    ProbeReply,
    /// Server → source targeted filter installation.
    FilterInstall,
    /// Server → all sources filter broadcast (counted as `n` messages).
    FilterBroadcast,
}

impl MessageKind {
    /// All kinds, for iteration in reports.
    pub const ALL: [MessageKind; 5] = [
        MessageKind::Update,
        MessageKind::ProbeRequest,
        MessageKind::ProbeReply,
        MessageKind::FilterInstall,
        MessageKind::FilterBroadcast,
    ];

    /// Position of this kind in [`MessageKind::ALL`] and in
    /// [`Ledger::kind_counts`].
    pub fn slot(self) -> usize {
        match self {
            MessageKind::Update => 0,
            MessageKind::ProbeRequest => 1,
            MessageKind::ProbeReply => 2,
            MessageKind::FilterInstall => 3,
            MessageKind::FilterBroadcast => 4,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::Update => "update",
            MessageKind::ProbeRequest => "probe_req",
            MessageKind::ProbeReply => "probe_rep",
            MessageKind::FilterInstall => "install",
            MessageKind::FilterBroadcast => "broadcast",
        }
    }
}

/// Per-class message counters for one simulation run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    counts: [u64; 5],
    /// Number of broadcast *operations* (each costing `n` messages).
    broadcast_ops: u64,
}

persist!(impl Persist for Ledger { counts: [u64; 5], broadcast_ops: u64 });

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` messages of the given kind.
    pub fn record(&mut self, kind: MessageKind, n: u64) {
        self.counts[kind.slot()] += n;
        if kind == MessageKind::FilterBroadcast {
            self.broadcast_ops += 1;
        }
    }

    /// Messages of one kind.
    pub fn count(&self, kind: MessageKind) -> u64 {
        self.counts[kind.slot()]
    }

    /// Total messages across all kinds — the paper's headline metric.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of broadcast operations performed (each of which was counted
    /// as `n` individual messages in [`Self::total`]).
    pub fn broadcast_ops(&self) -> u64 {
        self.broadcast_ops
    }

    /// Snapshot of the per-kind counters in [`MessageKind::ALL`] order —
    /// the raw array telemetry taps diff around fleet operations to
    /// attribute messages to protocol causes without touching the
    /// authoritative counts.
    pub fn kind_counts(&self) -> [u64; 5] {
        self.counts
    }

    /// Adds another ledger's counts into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.broadcast_ops += other.broadcast_ops;
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        *self = Ledger::default();
    }

    /// One-line breakdown, e.g. for bench table footers.
    pub fn breakdown(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(5);
        for kind in MessageKind::ALL {
            parts.push(format!("{}={}", kind.label(), self.count(kind)));
        }
        format!("{} (total={})", parts.join(" "), self.total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut l = Ledger::new();
        l.record(MessageKind::Update, 3);
        l.record(MessageKind::ProbeRequest, 1);
        l.record(MessageKind::ProbeReply, 1);
        assert_eq!(l.count(MessageKind::Update), 3);
        assert_eq!(l.total(), 5);
    }

    #[test]
    fn broadcast_counts_n_messages_one_op() {
        let mut l = Ledger::new();
        l.record(MessageKind::FilterBroadcast, 800);
        l.record(MessageKind::FilterBroadcast, 800);
        assert_eq!(l.count(MessageKind::FilterBroadcast), 1600);
        assert_eq!(l.broadcast_ops(), 2);
        assert_eq!(l.total(), 1600);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Ledger::new();
        a.record(MessageKind::Update, 2);
        let mut b = Ledger::new();
        b.record(MessageKind::Update, 5);
        b.record(MessageKind::FilterInstall, 1);
        a.merge(&b);
        assert_eq!(a.count(MessageKind::Update), 7);
        assert_eq!(a.count(MessageKind::FilterInstall), 1);
        assert_eq!(a.total(), 8);
    }

    #[test]
    fn reset_clears() {
        let mut l = Ledger::new();
        l.record(MessageKind::Update, 10);
        l.reset();
        assert_eq!(l.total(), 0);
        assert_eq!(l, Ledger::new());
    }

    #[test]
    fn encode_decode_round_trip() {
        use asf_persist::{Persist, StateReader, StateWriter};
        let mut l = Ledger::new();
        l.record(MessageKind::Update, 3);
        l.record(MessageKind::FilterBroadcast, 800);
        let mut w = StateWriter::new();
        l.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let back = Ledger::get(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, l);
        assert_eq!(back.broadcast_ops(), 1);
    }

    #[test]
    fn breakdown_mentions_every_kind() {
        let mut l = Ledger::new();
        l.record(MessageKind::Update, 1);
        let s = l.breakdown();
        for kind in MessageKind::ALL {
            assert!(s.contains(kind.label()), "missing {} in {s}", kind.label());
        }
        assert!(s.contains("total=1"));
    }
}
