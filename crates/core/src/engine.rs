//! The simulation engine: wires a protocol to the source fleet and drives
//! it from a workload.
//!
//! Event loop per update event:
//!
//! 1. the workload's new value is delivered to the source; its filter
//!    decides whether a report is sent (a silent update costs nothing);
//! 2. a report (1 `Update` message) refreshes the server view and invokes
//!    the protocol's maintenance handler;
//! 3. any sync-reports induced by filter redeployments are drained FIFO and
//!    fed back into the protocol — values are frozen meanwhile (the paper's
//!    Correctness Requirement 2 assumption), so the cascade terminates;
//! 4. the system is now *quiescent*: this is the point where the paper's
//!    Correctness Requirement 1 must hold, and where the optional
//!    per-event hook (used by the oracle) runs.

use std::collections::VecDeque;

use asf_persist::{PersistError, Rows};
use asf_telemetry::Cause;
use simkit::SimTime;
use streamnet::{Filter, FleetOps, Ledger, ServerView, SourceFleet, StreamId};

use crate::answer::AnswerSet;
use crate::protocol::{CtxStats, FleetScratch, Protocol, ServerCtx};
use crate::rank::RankForest;
use crate::telem::CoreTelemetry;
use crate::workload::{EventBatch, UpdateEvent, Workload};

/// Events pulled per [`Workload::next_batch`] round by the batch feeders
/// ([`Engine::run`]); purely a chunking knob — results are identical for
/// any value.
pub(crate) const FEED_BATCH: usize = 1024;

/// Upper bound on induced reports processed for a single workload event.
/// Resolution cascades converge because values are frozen during
/// resolution; hitting this cap indicates a protocol bug and panics.
const CASCADE_CAP: usize = 1_000_000;

/// The pure protocol-state half of a running server: the protocol, the
/// server's view, the message ledger, and the queue of induced sync
/// reports — everything *except* the sources themselves.
///
/// The core is `Send` (given a `Send` protocol) and fleet-agnostic: each
/// entry point borrows a [`FleetOps`] backend for the duration of the call,
/// so the same core drives the in-process [`SourceFleet`] of [`Engine`] and
/// the sharded routing fleet of `asf-server`. [`Engine`] stays the
/// simulation driver: it owns the fleet, the clock, and the workload loop.
pub struct ProtocolCore<P: Protocol> {
    view: ServerView,
    ledger: Ledger,
    pending: VecDeque<(StreamId, f64)>,
    /// Incremental rank order over the view, maintained at every view
    /// refresh — `Some` iff the protocol declares a rank space.
    rank: Option<RankForest>,
    /// Reused output buffers for batch fleet operations.
    scratch: FleetScratch,
    /// Observational timing/counters of ctx fleet operations.
    ctx_stats: CtxStats,
    /// The deferred-op queue: installs a handler queued via
    /// [`ServerCtx::install_later`], flushed as one batch `install_many` at
    /// the handler boundary.
    deferred: Vec<(StreamId, Filter)>,
    /// Spare buffer the flush drains into (ping-pong, so steady-state
    /// flushes never allocate).
    deferred_spare: Vec<(StreamId, Filter)>,
    /// Per-cause message attribution + the coordinator trace ring.
    /// Observational only: never read by protocol decisions.
    telem: CoreTelemetry,
    protocol: P,
    reports_processed: u64,
    initialized: bool,
}

impl<P: Protocol> ProtocolCore<P> {
    /// Creates a core for a population of `n` streams (a rank protocol's
    /// forest has a single partition).
    pub fn new(n: usize, protocol: P) -> Self {
        Self::with_rank_parts(n, protocol, 1)
    }

    /// Creates a core whose rank index (if the protocol is rank-based) is
    /// a [`RankForest`] of `rank_parts` strided partitions — `asf-server`
    /// passes its shard count, so probe-storm re-keys parallelize with the
    /// data plane. Any part count produces byte-identical rank outputs.
    pub fn with_rank_parts(n: usize, protocol: P, rank_parts: usize) -> Self {
        let rank = protocol
            .rank_space()
            .map(|space| RankForest::new(space, n, rank_parts.clamp(1, n.max(1))));
        Self {
            view: ServerView::new(n),
            ledger: Ledger::new(),
            pending: VecDeque::new(),
            rank,
            scratch: FleetScratch::default(),
            ctx_stats: CtxStats::default(),
            deferred: Vec::new(),
            deferred_spare: Vec::new(),
            telem: CoreTelemetry::default(),
            protocol,
            reports_processed: 0,
            initialized: false,
        }
    }

    /// Runs one protocol handler inside a fresh [`ServerCtx`], then flushes
    /// the deferred-op queue as one batch install — every handler boundary
    /// is a flush point, so installs queued via
    /// [`ServerCtx::install_later`] coalesce into one backend round-trip.
    fn run_handler(
        &mut self,
        fleet: &mut dyn FleetOps,
        base_cause: Cause,
        f: impl FnOnce(&mut P, &mut ServerCtx<'_>),
    ) {
        let Self {
            view,
            ledger,
            pending,
            rank,
            scratch,
            ctx_stats,
            deferred,
            deferred_spare,
            telem,
            protocol,
            ..
        } = self;
        // Every handler starts from its base cause; protocols refine it at
        // decision points via `ServerCtx::set_cause`.
        telem.cause = base_cause;
        let mut ctx =
            ServerCtx::new(fleet, view, ledger, pending, rank, scratch, ctx_stats, deferred, telem);
        f(protocol, &mut ctx);
        ctx.flush_deferred(deferred_spare);
    }

    /// Runs the protocol's Initialization phase against `fleet` and drains
    /// all induced sync reports (idempotent guard: panics if called twice).
    pub fn initialize(&mut self, fleet: &mut dyn FleetOps) {
        self.initialize_with_cause(fleet, Cause::Init);
    }

    /// Like [`ProtocolCore::initialize`], but attributes the startup
    /// messages to `cause` — crash recovery labels its cold-start probe
    /// storm [`Cause::Recovery`] so post-restart message accounting is
    /// distinguishable from a first boot.
    pub fn initialize_with_cause(&mut self, fleet: &mut dyn FleetOps, cause: Cause) {
        assert!(!self.initialized, "engine already initialized");
        self.initialized = true;
        self.run_handler(fleet, cause, |protocol, ctx| protocol.initialize(ctx));
        self.drain_pending(fleet);
    }

    /// Ingests one report `(id, value)` that reached the server — delivered
    /// through `fleet` ([`ProtocolCore::deliver_and_handle`]) or applied
    /// speculatively on an `asf-server` shard — and drains all induced
    /// resolution work. The context records the report's `Update` message
    /// and refreshes the view and the rank index before the protocol
    /// handles it. After this returns the system is quiescent.
    pub fn ingest_report(&mut self, id: StreamId, value: f64, fleet: &mut dyn FleetOps) {
        assert!(self.initialized, "core must be initialized before reports");
        self.reports_processed += 1;
        self.run_handler(fleet, Cause::SourceReport, |protocol, ctx| {
            ctx.report(id, value);
            protocol.on_update(id, value, ctx)
        });
        self.drain_pending(fleet);
    }

    fn drain_pending(&mut self, fleet: &mut dyn FleetOps) {
        self.drain_pending_with_cause(fleet, Cause::SourceReport);
    }

    fn drain_pending_with_cause(&mut self, fleet: &mut dyn FleetOps, cause: Cause) {
        let mut steps = 0;
        while let Some((id, value)) = self.pending.pop_front() {
            steps += 1;
            assert!(steps <= CASCADE_CAP, "resolution cascade did not converge (protocol bug?)");
            self.reports_processed += 1;
            self.run_handler(fleet, cause, |protocol, ctx| protocol.on_update(id, value, ctx));
        }
    }

    /// Fault-repair path, run at quiescent points by the fault-tolerance
    /// layer: re-probes `ids` (sources whose channel lost frames, crashed,
    /// or rejoined after a lease expiry) and feeds each refreshed value to
    /// the protocol as maintenance input so it can re-decide answer
    /// membership and redeploy filters. All messages are attributed to
    /// [`Cause::Repair`].
    ///
    /// The probe is what restores the paper's filter invariant for a healed
    /// source: it refreshes the server view *and* resets the source's
    /// last-reported value, after which the re-installed filter's guarantee
    /// holds again.
    pub fn repair_sources(&mut self, fleet: &mut dyn FleetOps, ids: &[StreamId]) {
        assert!(self.initialized, "core must be initialized before repair");
        if ids.is_empty() {
            return;
        }
        self.run_handler(fleet, Cause::Repair, |_, ctx| {
            ctx.probe_many(ids);
        });
        for &id in ids {
            let value = self.view.get(id);
            self.reports_processed += 1;
            self.run_handler(fleet, Cause::Repair, |protocol, ctx| {
                protocol.on_update(id, value, ctx)
            });
            self.drain_pending_with_cause(fleet, Cause::Repair);
        }
    }

    /// Notifies the protocol that `dead` sources went silently dark (lease
    /// expired) via [`Protocol::on_fleet_degraded`], then drains any work
    /// the hook induced. No-op for an empty list.
    pub fn degrade(&mut self, fleet: &mut dyn FleetOps, dead: &[StreamId]) {
        assert!(self.initialized, "core must be initialized before degradation");
        if dead.is_empty() {
            return;
        }
        self.run_handler(fleet, Cause::Repair, |protocol, ctx| {
            protocol.on_fleet_degraded(dead, ctx)
        });
        self.drain_pending_with_cause(fleet, Cause::Repair);
    }

    /// Post-fault resynchronization: swaps in a freshly configured protocol
    /// instance and re-runs its Initialization phase (probe the world,
    /// redeploy filters) under [`Cause::Repair`], keeping the cumulative
    /// ledger, view, and rank index.
    ///
    /// This is the convergence contract of the chaos differential suite:
    /// faults perturb which reports reach the server, so protocol state
    /// legitimately diverges *while* faults are active — but once they
    /// cease, a resync run on the faulted server and on a never-faulted
    /// server produces byte-identical views, answers, and from-here-on
    /// ledger deltas, because initialization is a pure function of ground
    /// truth. The caller supplies `fresh` configured identically to the
    /// original protocol.
    pub fn resync(&mut self, fleet: &mut dyn FleetOps, fresh: P) {
        assert!(self.initialized, "resync requires an initialized core");
        assert!(self.pending.is_empty(), "resync requires quiescence");
        self.protocol = fresh;
        self.run_handler(fleet, Cause::Repair, |protocol, ctx| protocol.initialize(ctx));
        self.drain_pending_with_cause(fleet, Cause::Repair);
    }

    /// Delivers one update through `fleet` and, if the source reported,
    /// ingests the report ([`ProtocolCore::ingest_report`]). Returns
    /// whether the update reported.
    pub fn deliver_and_handle(
        &mut self,
        id: StreamId,
        value: f64,
        fleet: &mut dyn FleetOps,
    ) -> bool {
        let report = fleet.deliver(id, value);
        if let Some(v) = report {
            self.ingest_report(id, v, fleet);
        }
        report.is_some()
    }

    /// Whether [`ProtocolCore::initialize`] has run.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The message ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The server's view of last-known values.
    pub fn view(&self) -> &ServerView {
        &self.view
    }

    /// The current answer `A(t)`.
    pub fn answer(&self) -> AnswerSet {
        self.protocol.answer()
    }

    /// The protocol state.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Reports (workload-triggered + induced syncs) the protocol handled.
    pub fn reports_processed(&self) -> u64 {
        self.reports_processed
    }

    /// Timing/counters of the ctx's fleet operations (probe vs. index-build
    /// split of initialization, batch op counts). Observational only.
    pub fn ctx_stats(&self) -> &CtxStats {
        &self.ctx_stats
    }

    /// The maintained rank index, if this core runs a rank protocol —
    /// exposed for differential tests that compare rank order across
    /// execution backends and against a sort of the view.
    pub fn rank_index(&self) -> Option<&RankForest> {
        self.rank.as_ref()
    }

    /// The core's telemetry state: per-cause message attribution and the
    /// coordinator trace ring. Observational only.
    pub fn telemetry(&self) -> &CoreTelemetry {
        &self.telem
    }

    /// Mutable telemetry access — `asf-server` uses this to install a
    /// configured trace ring and toggle cause attribution.
    pub fn telemetry_mut(&mut self) -> &mut CoreTelemetry {
        &mut self.telem
    }

    asf_persist::persist!(
        /// The core's durable state: the view entries `rows` selects, and
        /// whole the ledger, the protocol's state, the report counter and
        /// the (deterministic) per-cause matrix. Configuration is not
        /// written: the reader restores into a core built alike, a delta
        /// onto its full image's state. Core methods drain their syncs and
        /// deferred installs before returning, so no queued work is left
        /// out. The rank index is rebuilt from the view, or re-keyed at a
        /// delta's entries ([`RankForest::refresh_from_changed`]). Corrupt
        /// input is an error, never a panic; the core is then partly
        /// overwritten: discard it.
        pub fn encode_rows, decode_rows(rows) {
            initialized,
            reports_processed,
            view: rows,
            ledger,
            protocol: in,
            telem.causes,
        } check Self::rebuild_rank
    );

    /// Clears the view's dirty bits: a full image of the core
    /// ([`Rows::All`]) was just written, and the next delta counts from it.
    pub fn clear_view_dirty(&mut self) {
        self.view.clear_dirty();
    }

    /// Brings the rank index up to the restored view, whose dirty marks
    /// name the entries the image held.
    fn rebuild_rank(&mut self, rows: Rows) -> asf_persist::Result<()> {
        if let Some(forest) = self.rank.as_mut() {
            if !self.view.all_known() {
                return Err(PersistError::corrupt("rank snapshot with partially-known view"));
            }
            if rows == Rows::Dirty && forest.is_fully_populated() {
                let changed: Vec<StreamId> = self.view.dirty_ids().collect();
                self.ctx_stats.index_delta_refreshes += 1;
                self.ctx_stats.index_delta_rekeys += changed.len() as u64;
                forest.refresh_from_changed(&self.view, &changed);
            } else {
                self.ctx_stats.index_bulk_builds += 1;
                forest.rebuild_from_view(&self.view);
            }
        }
        Ok(())
    }
}

/// A running simulation of one protocol over one stream population.
pub struct Engine<P: Protocol> {
    fleet: SourceFleet,
    core: ProtocolCore<P>,
    now: SimTime,
    events_processed: u64,
}

impl<P: Protocol> Engine<P> {
    /// Creates an engine over sources with the given initial values.
    pub fn new(initial_values: &[f64], protocol: P) -> Self {
        Self {
            fleet: SourceFleet::from_values(initial_values),
            core: ProtocolCore::new(initial_values.len(), protocol),
            now: 0.0,
            events_processed: 0,
        }
    }

    /// Runs the protocol's Initialization phase (idempotent guard: panics
    /// if called twice).
    pub fn initialize(&mut self) {
        self.core.initialize(&mut self.fleet);
    }

    /// Applies one workload event and drains all induced resolution work.
    /// After this returns the system is quiescent.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Engine::initialize`] or if event times go
    /// backwards.
    pub fn apply_event(&mut self, ev: UpdateEvent) {
        assert!(self.core.is_initialized(), "engine must be initialized before events");
        assert!(ev.time >= self.now, "events must be time-ordered ({} < {})", ev.time, self.now);
        self.now = ev.time;
        self.events_processed += 1;
        self.core.deliver_and_handle(ev.stream, ev.value, &mut self.fleet);
    }

    /// Applies one columnar batch of workload events in order (time checks
    /// and resolution draining per event, exactly like
    /// [`Engine::apply_event`]).
    pub fn apply_batch(&mut self, batch: &EventBatch) {
        assert!(self.core.is_initialized(), "engine must be initialized before events");
        for i in 0..batch.len() {
            let time = batch.times()[i];
            assert!(time >= self.now, "events must be time-ordered ({time} < {})", self.now);
            self.now = time;
            self.events_processed += 1;
            self.core.deliver_and_handle(batch.streams()[i], batch.values()[i], &mut self.fleet);
        }
    }

    /// Initializes (if needed) and consumes the whole workload, pulling
    /// events in columnar [`EventBatch`] rounds ([`Workload::next_batch`])
    /// through one reused buffer.
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W) {
        if !self.core.is_initialized() {
            self.initialize();
        }
        let mut batch = EventBatch::with_capacity(FEED_BATCH);
        while workload.next_batch(FEED_BATCH, &mut batch) > 0 {
            self.apply_batch(&batch);
        }
    }

    /// Like [`Engine::run`], invoking `hook(fleet, protocol, time)` at every
    /// quiescent point (after initialization and after each event). The
    /// oracle uses this to assert tolerance correctness.
    pub fn run_with_hook<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        mut hook: impl FnMut(&SourceFleet, &P, SimTime),
    ) {
        self.run_with_event_hook(workload, |fleet, protocol, t, _| hook(fleet, protocol, t));
    }

    /// Like [`Engine::run_with_hook`], additionally passing the hook the
    /// workload event that produced the quiescent point (`None` for the
    /// post-initialization call).
    ///
    /// Ground truth changes *only* through workload events, so a stateful
    /// oracle (e.g. [`crate::oracle::TruthRanks`]) can maintain its own
    /// ground-truth structures in O(log n) per event instead of re-scanning
    /// the fleet at every quiescent point.
    pub fn run_with_event_hook<W: Workload + ?Sized>(
        &mut self,
        workload: &mut W,
        mut hook: impl FnMut(&SourceFleet, &P, SimTime, Option<&UpdateEvent>),
    ) {
        if !self.core.is_initialized() {
            self.initialize();
        }
        hook(&self.fleet, self.core.protocol(), self.now, None);
        while let Some(ev) = workload.next_event() {
            self.apply_event(ev);
            hook(&self.fleet, self.core.protocol(), self.now, Some(&ev));
        }
    }

    /// The message ledger.
    pub fn ledger(&self) -> &Ledger {
        self.core.ledger()
    }

    /// The current answer `A(t)`.
    pub fn answer(&self) -> AnswerSet {
        self.core.answer()
    }

    /// Ground-truth access for oracles/tests.
    pub fn fleet(&self) -> &SourceFleet {
        &self.fleet
    }

    /// The server's view of last-known values.
    pub fn view(&self) -> &ServerView {
        self.core.view()
    }

    /// The protocol state.
    pub fn protocol(&self) -> &P {
        self.core.protocol()
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Workload events applied so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Reports (workload-triggered + induced syncs) the protocol handled.
    pub fn reports_processed(&self) -> u64 {
        self.core.reports_processed()
    }

    /// Timing/counters of the ctx's fleet operations.
    pub fn ctx_stats(&self) -> &CtxStats {
        self.core.ctx_stats()
    }

    /// The maintained rank index, if any (differential-test hook).
    pub fn rank_index(&self) -> Option<&RankForest> {
        self.core.rank_index()
    }

    /// The engine core's telemetry state (per-cause message attribution).
    pub fn telemetry(&self) -> &CoreTelemetry {
        self.core.telemetry()
    }

    /// Mutable telemetry access (enable/disable causes, install a trace
    /// ring).
    pub fn telemetry_mut(&mut self) -> &mut CoreTelemetry {
        self.core.telemetry_mut()
    }

    asf_persist::persist!(
        /// The whole simulation state: clock, event counter, every source
        /// and the core ([`ProtocolCore::encode_rows`]), read into an engine
        /// built alike. Corrupt input is an error, never a panic; the engine
        /// is then partly overwritten: discard it.
        pub fn save_state, load_state {
            now,
            events_processed,
            fleet: rows,
            core: rows,
        } check Self::check_clock
    );

    fn check_clock(&self) -> asf_persist::Result<()> {
        if self.now.is_nan() {
            return Err(PersistError::corrupt("snapshot clock is NaN"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::VecWorkload;
    use asf_persist::{StateReader, StateWriter};
    use streamnet::Filter;

    /// Minimal protocol: installs a fixed filter everywhere and records
    /// every report it sees.
    struct Recorder {
        filter: Filter,
        seen: Vec<(StreamId, f64)>,
        answer: AnswerSet,
    }

    impl Protocol for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
            ctx.probe_all();
            ctx.broadcast(self.filter.clone());
        }
        fn on_update(&mut self, id: StreamId, value: f64, _ctx: &mut ServerCtx<'_>) {
            self.seen.push((id, value));
        }
        fn answer(&self) -> AnswerSet {
            self.answer.clone()
        }
        fn save_state(&self, w: &mut StateWriter) {
            w.put_u64(self.seen.len() as u64);
            for &(id, v) in &self.seen {
                w.put_u32(id.0);
                w.put_f64(v);
            }
        }
        fn load_state(&mut self, r: &mut StateReader<'_>) -> asf_persist::Result<()> {
            let n = r.get_u64()? as usize;
            self.seen = (0..n)
                .map(|_| Ok((StreamId(r.get_u32()?), r.get_f64()?)))
                .collect::<asf_persist::Result<_>>()?;
            Ok(())
        }
    }

    fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
        UpdateEvent { time: t, stream: StreamId(s), value: v }
    }

    #[test]
    fn silent_updates_do_not_reach_protocol() {
        let initial = vec![500.0, 100.0];
        let rec = Recorder {
            filter: Filter::interval(400.0, 600.0),
            seen: Vec::new(),
            answer: AnswerSet::new(),
        };
        let mut engine = Engine::new(&initial, rec);
        let mut w = VecWorkload::new(
            initial.clone(),
            vec![
                ev(1.0, 0, 550.0), // inside -> inside: silent
                ev(2.0, 0, 700.0), // inside -> outside: report
                ev(3.0, 1, 50.0),  // outside -> outside: silent
                ev(4.0, 1, 450.0), // outside -> inside: report
            ],
        );
        engine.run(&mut w);
        assert_eq!(engine.protocol().seen, vec![(StreamId(0), 700.0), (StreamId(1), 450.0)]);
        assert_eq!(engine.events_processed(), 4);
        assert_eq!(engine.reports_processed(), 2);
        // 2n probes + n broadcast + 2 updates = 4 + 2 + 2 = 8
        assert_eq!(engine.ledger().total(), 8);
    }

    #[test]
    fn run_initializes_automatically() {
        let initial = vec![1.0];
        let rec =
            Recorder { filter: Filter::ReportAll, seen: Vec::new(), answer: AnswerSet::new() };
        let mut engine = Engine::new(&initial, rec);
        let mut w = VecWorkload::new(initial.clone(), vec![ev(0.5, 0, 2.0)]);
        engine.run(&mut w);
        assert_eq!(engine.protocol().seen.len(), 1);
        assert!(engine.now() >= 0.5);
    }

    #[test]
    #[should_panic(expected = "already initialized")]
    fn double_initialize_panics() {
        let rec =
            Recorder { filter: Filter::ReportAll, seen: Vec::new(), answer: AnswerSet::new() };
        let mut engine = Engine::new(&[1.0], rec);
        engine.initialize();
        engine.initialize();
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn backwards_time_panics() {
        let rec =
            Recorder { filter: Filter::ReportAll, seen: Vec::new(), answer: AnswerSet::new() };
        let mut engine = Engine::new(&[1.0], rec);
        engine.initialize();
        engine.apply_event(ev(5.0, 0, 1.0));
        engine.apply_event(ev(4.0, 0, 1.0));
    }

    #[test]
    fn causes_attribute_init_and_reports() {
        let initial = vec![500.0, 100.0];
        let rec = Recorder {
            filter: Filter::interval(400.0, 600.0),
            seen: Vec::new(),
            answer: AnswerSet::new(),
        };
        let mut engine = Engine::new(&initial, rec);
        engine.initialize();
        let causes = engine.telemetry().causes();
        // Initialization: 2n probe messages (n requests + n replies) + n
        // broadcast messages, all under Init.
        assert_eq!(causes.total(Cause::Init), 6);
        assert_eq!(causes.total(Cause::SourceReport), 0);
        engine.apply_event(ev(1.0, 0, 700.0)); // inside -> outside: report
        let causes = engine.telemetry().causes();
        assert_eq!(causes.total(Cause::SourceReport), 1, "the report's Update message");
        assert_eq!(causes.grand_total(), engine.ledger().total(), "every message attributed");
    }

    #[test]
    fn causes_disabled_attributes_nothing() {
        let initial = vec![500.0];
        let rec =
            Recorder { filter: Filter::ReportAll, seen: Vec::new(), answer: AnswerSet::new() };
        let mut engine = Engine::new(&initial, rec);
        engine.telemetry_mut().set_causes_enabled(false);
        engine.initialize();
        engine.apply_event(ev(1.0, 0, 2.0));
        assert!(engine.ledger().total() > 0);
        assert_eq!(engine.telemetry().causes().grand_total(), 0);
    }

    #[test]
    fn hook_runs_at_every_quiescent_point() {
        let initial = vec![1.0];
        let rec =
            Recorder { filter: Filter::ReportAll, seen: Vec::new(), answer: AnswerSet::new() };
        let mut engine = Engine::new(&initial, rec);
        let mut w = VecWorkload::new(initial.clone(), vec![ev(1.0, 0, 2.0), ev(2.0, 0, 3.0)]);
        let mut calls = 0;
        engine.run_with_hook(&mut w, |_, _, _| calls += 1);
        assert_eq!(calls, 3); // post-init + 2 events
    }

    #[test]
    fn engine_snapshot_restores_mid_run_and_resumes_identically() {
        let initial = vec![500.0, 100.0, 300.0];
        let filter = Filter::interval(400.0, 600.0);
        let events = [ev(1.0, 0, 700.0), ev(2.0, 1, 450.0), ev(3.0, 2, 420.0), ev(4.0, 0, 410.0)];
        let make = || {
            Engine::new(
                &initial,
                Recorder { filter: filter.clone(), seen: Vec::new(), answer: AnswerSet::new() },
            )
        };

        // Run halfway, snapshot, keep running to the end.
        let mut live = make();
        live.initialize();
        live.apply_event(events[0]);
        live.apply_event(events[1]);
        let mut w = asf_persist::StateWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();
        live.apply_event(events[2]);
        live.apply_event(events[3]);

        // Restore the snapshot into a fresh engine and replay the suffix.
        let mut restored = make();
        let mut r = asf_persist::StateReader::new(&bytes);
        restored.load_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.now(), 2.0);
        assert_eq!(restored.events_processed(), 2);
        restored.apply_event(events[2]);
        restored.apply_event(events[3]);

        assert_eq!(restored.ledger(), live.ledger());
        assert_eq!(restored.view(), live.view());
        assert_eq!(restored.events_processed(), live.events_processed());
        assert_eq!(restored.reports_processed(), live.reports_processed());
        assert_eq!(restored.protocol().seen, live.protocol().seen);
        assert_eq!(
            restored.telemetry().causes(),
            live.telemetry().causes(),
            "cause attribution must survive the snapshot"
        );

        // A truncated snapshot is corruption, not a panic.
        let mut short = make();
        assert!(short.load_state(&mut asf_persist::StateReader::new(&bytes[..9])).is_err());
    }
}
