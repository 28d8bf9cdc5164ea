//! The engine core's telemetry state: per-cause message attribution and
//! the coordinator-side trace ring.
//!
//! Everything here is **observational**. Each message is attributed to a
//! cause where [`crate::protocol::ServerCtx`] records it in the
//! authoritative [`streamnet::Ledger`]; the ledger's counts never depend
//! on the attribution, so ledger equality (the differential suites'
//! oracle) is unaffected by telemetry being on, off, or at any trace
//! depth. The trace ring records wall-clock spans that no protocol
//! decision ever reads.

use asf_telemetry::{Cause, CauseLedger, TraceRing};
use streamnet::{Ledger, MessageKind};

/// Telemetry state owned by a [`crate::engine::ProtocolCore`] and threaded
/// through every [`crate::protocol::ServerCtx`].
#[derive(Debug)]
pub struct CoreTelemetry {
    /// Whether per-cause attribution runs (one counter add per recorded
    /// message kind when on; a single branch when off).
    pub(crate) causes_enabled: bool,
    /// The per-cause message matrix.
    pub(crate) causes: CauseLedger,
    /// The cause the *current* handler's messages are attributed to. The
    /// engine sets the handler's base cause; protocols refine it via
    /// [`crate::protocol::ServerCtx::set_cause`] at decision points.
    pub(crate) cause: Cause,
    /// The coordinator-side trace ring (engine handler spans, forest
    /// maintenance, deferred flushes). Disabled by default; `asf-server`
    /// replaces it with a ring sharing the server's trace epoch.
    pub trace: TraceRing,
}

impl Default for CoreTelemetry {
    fn default() -> Self {
        Self {
            causes_enabled: true,
            causes: CauseLedger::new(),
            cause: Cause::Init,
            trace: TraceRing::disabled(),
        }
    }
}

impl CoreTelemetry {
    /// Enables or disables per-cause attribution.
    pub fn set_causes_enabled(&mut self, enabled: bool) {
        self.causes_enabled = enabled;
    }

    /// Whether per-cause attribution is running.
    pub fn causes_enabled(&self) -> bool {
        self.causes_enabled
    }

    /// The per-cause message matrix accumulated so far.
    pub fn causes(&self) -> &CauseLedger {
        &self.causes
    }

    /// Multi-line per-cause breakdown with the streamnet message-kind
    /// labels.
    pub fn cause_breakdown(&self) -> String {
        let labels = [
            MessageKind::ALL[0].label(),
            MessageKind::ALL[1].label(),
            MessageKind::ALL[2].label(),
            MessageKind::ALL[3].label(),
            MessageKind::ALL[4].label(),
        ];
        self.causes.breakdown(&labels)
    }

    /// Records `n` messages of `kind` in `ledger` and attributes them to
    /// the current cause — the one place a message is metered.
    #[inline]
    pub(crate) fn record(&mut self, ledger: &mut Ledger, kind: MessageKind, n: u64) {
        ledger.record(kind, n);
        if self.causes_enabled {
            self.causes.add(self.cause, kind.slot(), n);
        }
    }
}
