//! Per-cause message accounting.
//!
//! The `streamnet` ledger answers "how many messages of each kind" — the
//! paper's headline metric. This module answers "**which protocol decision
//! sent them**": every message recorded while a handler runs is attributed
//! to the [`Cause`] the handler declared (overflow shrink, expansion ring,
//! reinit storm, deferred flush, ...) at the point where it is recorded in
//! the ledger. The attribution is a second tally beside the authoritative
//! ledger and never changes its counts, so ledger equality checks in the
//! differential suites are unaffected.

/// The protocol decision that originated a batch of messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cause {
    /// Query (re-)initialization: the startup probe_all + deployment.
    Init,
    /// Plain source report handling (including the report itself).
    SourceReport,
    /// RTP answer-set overflow: probe X, shrink the bound, broadcast.
    OverflowShrink,
    /// RTP expansion search: ring probe batches + survivor refresh +
    /// bound redeployment.
    ExpansionRing,
    /// Budget exhaustion / degenerate window: full probe_all + fleet-wide
    /// redeployment storm.
    ReinitStorm,
    /// FT error correction: targeted probe + filter reallocation.
    FixError,
    /// Single-source bound refresh: a zero-tolerance bound recompute after
    /// a boundary crossing, or RTP's one install of `R` answering a report
    /// from a source that holds a wider ball (annulus report or absorb).
    BoundRecompute,
    /// End-of-handler deferred filter installations flushed as one batch.
    DeferredFlush,
    /// Periodic/maintenance work not covered above.
    Maintenance,
    /// Crash recovery: messages sent while rebuilding state after a
    /// restart (the cold-start probe storm when no checkpoint survived).
    /// Stays zero when recovery restores from a checkpoint.
    Recovery,
    /// Fault repair: re-probes and re-installs issued at chunk-end
    /// quiescence to heal unreliable channels (lost reports, crash
    /// restarts, lease rejoins) plus post-fault resyncs. Stays zero on
    /// reliable channels.
    Repair,
}

/// Number of [`Cause`] variants.
pub const NUM_CAUSES: usize = 11;

/// Message-kind slots per cause (mirrors the streamnet ledger's five
/// kinds; labels are supplied by the caller so this crate stays
/// dependency-free).
pub const NUM_KIND_SLOTS: usize = 5;

impl Cause {
    /// All causes, in serialization order.
    pub const ALL: [Cause; NUM_CAUSES] = [
        Cause::Init,
        Cause::SourceReport,
        Cause::OverflowShrink,
        Cause::ExpansionRing,
        Cause::ReinitStorm,
        Cause::FixError,
        Cause::BoundRecompute,
        Cause::DeferredFlush,
        Cause::Maintenance,
        Cause::Recovery,
        Cause::Repair,
    ];

    fn slot(self) -> usize {
        match self {
            Cause::Init => 0,
            Cause::SourceReport => 1,
            Cause::OverflowShrink => 2,
            Cause::ExpansionRing => 3,
            Cause::ReinitStorm => 4,
            Cause::FixError => 5,
            Cause::BoundRecompute => 6,
            Cause::DeferredFlush => 7,
            Cause::Maintenance => 8,
            Cause::Recovery => 9,
            Cause::Repair => 10,
        }
    }

    /// Snake-case label for snapshots and breakdowns.
    pub fn label(self) -> &'static str {
        match self {
            Cause::Init => "init",
            Cause::SourceReport => "source_report",
            Cause::OverflowShrink => "overflow_shrink",
            Cause::ExpansionRing => "expansion_ring",
            Cause::ReinitStorm => "reinit_storm",
            Cause::FixError => "fix_error",
            Cause::BoundRecompute => "bound_recompute",
            Cause::DeferredFlush => "deferred_flush",
            Cause::Maintenance => "maintenance",
            Cause::Recovery => "recovery",
            Cause::Repair => "repair",
        }
    }
}

/// A `causes × message-kinds` matrix of message counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CauseLedger {
    rows: [[u64; NUM_KIND_SLOTS]; NUM_CAUSES],
}

// The matrix's rows in `Cause::ALL` order: every counter, fixed width.
asf_persist::persist!(impl Persist for CauseLedger { rows: [[u64; NUM_KIND_SLOTS]; NUM_CAUSES] });

impl CauseLedger {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` messages of kind-slot `kind` under `cause`.
    #[inline]
    pub fn add(&mut self, cause: Cause, kind: usize, n: u64) {
        self.rows[cause.slot()][kind] += n;
    }

    /// The per-kind counts attributed to `cause`.
    pub fn row(&self, cause: Cause) -> &[u64; NUM_KIND_SLOTS] {
        &self.rows[cause.slot()]
    }

    /// Total messages attributed to `cause`.
    pub fn total(&self, cause: Cause) -> u64 {
        self.rows[cause.slot()].iter().sum()
    }

    /// Total messages attributed across all causes (equals the ledger
    /// total when every recording site is covered by a tap).
    pub fn grand_total(&self) -> u64 {
        self.rows.iter().flatten().sum()
    }

    /// Adds another matrix's counts into this one.
    pub fn merge(&mut self, other: &CauseLedger) {
        for (a, b) in self.rows.iter_mut().zip(other.rows.iter()) {
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x += y;
            }
        }
    }

    /// Multi-line human breakdown; `kind_labels` names the kind slots
    /// (e.g. the streamnet ledger's labels). Causes with zero messages are
    /// omitted.
    pub fn breakdown(&self, kind_labels: &[&str; NUM_KIND_SLOTS]) -> String {
        let mut lines = Vec::new();
        for cause in Cause::ALL {
            let total = self.total(cause);
            if total == 0 {
                continue;
            }
            let mut parts = Vec::new();
            for (k, label) in kind_labels.iter().enumerate() {
                let n = self.rows[cause.slot()][k];
                if n > 0 {
                    parts.push(format!("{label}={n}"));
                }
            }
            lines.push(format!("{:<16} {:>8}  {}", cause.label(), total, parts.join(" ")));
        }
        lines.join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_breakdown() {
        let mut a = CauseLedger::new();
        a.add(Cause::SourceReport, 0, 5);
        let mut b = CauseLedger::new();
        b.add(Cause::SourceReport, 0, 2);
        b.add(Cause::DeferredFlush, 3, 7);
        a.merge(&b);
        assert_eq!(a.total(Cause::SourceReport), 7);
        let s = a.breakdown(&["update", "probe_req", "probe_rep", "install", "broadcast"]);
        assert!(s.contains("source_report"));
        assert!(s.contains("update=7"));
        assert!(s.contains("install=7"));
        assert!(!s.contains("reinit_storm"), "zero rows are omitted");
    }

    #[test]
    fn checkpoint_layout_is_the_rows_in_serialization_order() {
        use asf_persist::{Persist, StateReader, StateWriter};
        assert!(Cause::ALL.iter().enumerate().all(|(i, c)| c.slot() == i));
        let mut ledger = CauseLedger::new();
        ledger.add(Cause::Repair, 4, 9);
        let mut w = StateWriter::new();
        ledger.put(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), NUM_CAUSES * NUM_KIND_SLOTS * 8);
        let last = (NUM_CAUSES * NUM_KIND_SLOTS - NUM_KIND_SLOTS + 4) * 8;
        assert_eq!(bytes[last], 9);
        assert_eq!(CauseLedger::get(&mut StateReader::new(&bytes)).unwrap(), ledger);
    }
}
