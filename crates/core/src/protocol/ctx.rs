//! The server's metered gateway to the source fleet.

use std::collections::VecDeque;
use std::time::Instant;

use asf_telemetry::{Cause, TraceDepth};
use streamnet::{Filter, FleetOps, Ledger, MessageKind, ServerView, StreamId};

use crate::query::RankSpace;
use crate::rank::RankForest;
use crate::telem::CoreTelemetry;

/// Reused output buffers for batch fleet operations, owned by the engine
/// core and cleared by each batch call — fleet-wide phases (probe storms,
/// filter deployments, reinit repairs) run every round without
/// re-allocating their result vectors.
#[derive(Clone, Debug, Default)]
pub struct FleetScratch {
    /// Probe replies of the last `probe_many` (aligned with its ids).
    values: Vec<f64>,
    /// Sync reports of the last `install_many` (installation order) or
    /// `broadcast` (id order).
    syncs: Vec<(StreamId, f64)>,
    /// Ids whose view entry changed in the last `probe_all` that
    /// delta-refreshed the rank forest.
    changed: Vec<StreamId>,
}

/// Where the engine's time went inside [`ServerCtx`] fleet operations —
/// observational only (nothing feeds back into protocol decisions), used
/// by the benches to split initialization cost into its probe /
/// index-build / deploy components.
#[derive(Clone, Copy, Debug, Default)]
pub struct CtxStats {
    /// Time inside batch probe operations (`probe_all` / `probe_many`), ns.
    pub probe_ns: u64,
    /// Wall time rebuilding or delta-refreshing the rank index after
    /// `probe_all`, ns.
    pub index_build_ns: u64,
    /// Σ of all per-partition busy time inside index maintenance passes.
    pub index_busy_sum_ns: u64,
    /// Σ per maintenance pass of `min(busy sum, pass wall)` — the portion
    /// of the caller's wall that was partition work (bounded per pass so
    /// overlapped scoped-thread execution cannot over-subtract from a
    /// serial-time accounting).
    pub index_hidden_ns: u64,
    /// `probe_all` calls that re-keyed the rank index by **delta refresh**
    /// ([`RankForest::refresh_from_changed`]) instead of a full rebuild.
    pub index_delta_refreshes: u64,
    /// Streams actually re-keyed by delta refreshes (the drifted minority).
    pub index_delta_rekeys: u64,
    /// `probe_all` calls that paid a full bulk rebuild
    /// ([`crate::rank::RankIndex::bulk_build`] per part).
    pub index_bulk_builds: u64,
    /// Batch probe operations executed.
    pub batch_probe_ops: u64,
    /// Streams probed by batch probe operations.
    pub batch_probe_streams: u64,
    /// Batch install operations executed.
    pub batch_install_ops: u64,
    /// Filters installed by batch install operations.
    pub batch_install_streams: u64,
    /// Installs queued through [`ServerCtx::install_later`].
    pub deferred_installs: u64,
    /// Deferred-queue flushes (one batch `install_many` per non-empty
    /// handler boundary).
    pub deferred_flushes: u64,
    /// Reports routed through a multi-query routing index
    /// ([`ServerCtx::note_routing`] calls).
    pub routed_reports: u64,
    /// Σ of queries whose answer a routed report actually touched — the
    /// multi-query fan-out that routing keeps sublinear in the query count
    /// (`queries_touched / routed_reports` is the mean fan-out).
    pub queries_touched: u64,
    /// Estimated time inside the routing index (affected-query lookup +
    /// answer maintenance), ns: one routed report in every
    /// [`ROUTING_SAMPLE`] is timed, capped at [`ROUTING_SAMPLE_MAX_NS`],
    /// and counts `ROUTING_SAMPLE` times, so the figure is always a
    /// multiple of it (see [`ServerCtx::routing_clock`]).
    pub routing_ns: u64,
}

/// One routed report in this many has its routing work timed
/// ([`ServerCtx::routing_clock`]). A clock pair costs as much as the
/// routing it would meter, so the per-report path reads none.
pub const ROUTING_SAMPLE: u64 = 64;

/// The most one timed routing sample counts for, ns. Routing one report
/// takes ≈ 0.35 µs on `multi_range` (p99 ≈ 1 µs, 2-core dev box); a longer
/// sample is an interrupt or a preemption, and scaled by
/// [`ROUTING_SAMPLE`] it would add 64× the stall — more time than passed.
/// Capped, a stalled sample overstates the estimate by at most
/// `ROUTING_SAMPLE × ROUTING_SAMPLE_MAX_NS` ≈ 0.26 ms.
pub const ROUTING_SAMPLE_MAX_NS: u64 = 4_000;

impl CtxStats {
    /// Records one forest maintenance pass (delta refresh or bulk
    /// rebuild): wall, busy sum across the parts, and the per-pass-bounded
    /// hidden portion the serial accounting subtracts.
    fn record_index_pass(&mut self, busy_sum_ns: u64, pass_wall_ns: u64) {
        self.index_busy_sum_ns += busy_sum_ns;
        self.index_hidden_ns += busy_sum_ns.min(pass_wall_ns);
        self.index_build_ns += pass_wall_ns;
    }
}

/// Everything a protocol may do during initialization or maintenance:
/// consult its (possibly stale) view, and pay messages to probe sources or
/// (re)deploy filters.
///
/// This is the one place messages are metered. The [`FleetOps`] backend
/// only moves source state; the context records each operation's messages
/// in the ledger by the paper's cost model — a probe costs 2, an install 1,
/// a broadcast `n`, a report or sync 1 — attributed to the current
/// [`Cause`], and writes every value that reached the server into the
/// view.
///
/// Constraint resolution is synchronous — the paper's Correctness
/// Requirement 2 assumes values do not change while it runs — so
/// [`ServerCtx::probe`] returns the ground-truth value immediately (and
/// charges the round trip). Filter (re)deployments may find a source whose
/// actual state is inconsistent with the server's knowledge; such sources
/// sync-report, and the reports are queued for the engine to feed back into
/// the protocol after the current handler returns (never re-entrantly).
///
/// The context is backed by any [`FleetOps`] implementation: the in-process
/// [`streamnet::SourceFleet`] in the single-threaded engine, or the sharded
/// routing fleet of `asf-server` — protocols cannot tell the difference.
///
/// For rank protocols (those with a [`crate::protocol::Protocol::rank_space`])
/// the engine threads its incremental [`RankForest`] through here: every
/// value that reaches the server via this context (probe replies, install
/// and broadcast sync-reports) re-keys the forest in O(log n), keeping it
/// exactly consistent with the view, and [`ServerCtx::ranks`] serves it
/// back to the protocol. It is the only order a protocol can read; other
/// protocols carry no forest and must not ask for one.
pub struct ServerCtx<'a> {
    fleet: &'a mut dyn FleetOps,
    view: &'a mut ServerView,
    ledger: &'a mut Ledger,
    pending: &'a mut VecDeque<(StreamId, f64)>,
    rank: &'a mut Option<RankForest>,
    scratch: &'a mut FleetScratch,
    stats: &'a mut CtxStats,
    deferred: &'a mut Vec<(StreamId, Filter)>,
    telem: &'a mut CoreTelemetry,
}

impl<'a> ServerCtx<'a> {
    // The context is exactly the engine core's borrowed state; a params
    // struct would just rename the same nine fields.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        fleet: &'a mut dyn FleetOps,
        view: &'a mut ServerView,
        ledger: &'a mut Ledger,
        pending: &'a mut VecDeque<(StreamId, f64)>,
        rank: &'a mut Option<RankForest>,
        scratch: &'a mut FleetScratch,
        stats: &'a mut CtxStats,
        deferred: &'a mut Vec<(StreamId, Filter)>,
        telem: &'a mut CoreTelemetry,
    ) -> Self {
        Self { fleet, view, ledger, pending, rank, scratch, stats, deferred, telem }
    }

    /// Declares the protocol decision the current handler's messages are
    /// attributed to in the per-cause ledger (sticky until the handler
    /// returns or the next `set_cause`). Purely observational: the
    /// authoritative message ledger is untouched.
    #[inline]
    pub fn set_cause(&mut self, cause: Cause) {
        self.telem.cause = cause;
    }

    /// Records `n` messages of `kind`, attributed to the current cause.
    #[inline]
    fn record(&mut self, kind: MessageKind, n: u64) {
        self.telem.record(self.ledger, kind, n);
    }

    /// A value reached the server: the view and the rank forest, if any,
    /// learn it.
    #[inline]
    fn learn(&mut self, id: StreamId, value: f64) {
        self.view.set(id, value);
        if let Some(forest) = self.rank.as_mut() {
            forest.update(id, value);
        }
    }

    /// A report reached the server (one `Update` message): an unsolicited
    /// one the engine is about to hand to the protocol, or a sync
    /// ([`ServerCtx::sync`]).
    pub(crate) fn report(&mut self, id: StreamId, value: f64) {
        self.record(MessageKind::Update, 1);
        self.learn(id, value);
    }

    /// A sync report an install induced: reported, and queued for the
    /// engine to feed to the protocol once the handler returns.
    fn sync(&mut self, id: StreamId, value: f64) {
        self.report(id, value);
        self.pending.push_back((id, value));
    }

    /// Syncs every report the last batch install or broadcast left in the
    /// scratch, in the scratch's order.
    fn sync_all(&mut self) {
        for k in 0..self.scratch.syncs.len() {
            let (id, value) = self.scratch.syncs[k];
            self.sync(id, value);
        }
    }

    /// Number of streams `n`.
    pub fn n(&self) -> usize {
        self.fleet.len()
    }

    /// The server's current view of last-known values.
    pub fn view(&self) -> &ServerView {
        self.view
    }

    /// Read-only ledger access (e.g. for protocols logging their own cost).
    pub fn ledger(&self) -> &Ledger {
        self.ledger
    }

    /// The engine's [`RankForest`] over the server's current knowledge:
    /// the order every rank protocol reads, kept exactly consistent with
    /// the view.
    ///
    /// # Panics
    ///
    /// Panics if the protocol declared no
    /// [`crate::protocol::Protocol::rank_space`] (the engine then maintains
    /// no forest), or if `space` differs from the declared one — the forest
    /// orders by that space only.
    pub fn ranks(&self, space: RankSpace) -> &RankForest {
        let forest =
            self.rank.as_ref().expect("ranks() needs a protocol that declares a rank_space");
        assert_eq!(forest.space(), space, "rank space mismatch");
        forest
    }

    /// Starts the routing meter for the report about to be routed: a clock
    /// on one report in every [`ROUTING_SAMPLE`] (the first one included),
    /// `None` on the rest. Hand the result to [`ServerCtx::note_routing`].
    #[inline]
    pub fn routing_clock(&self) -> Option<Instant> {
        (self.stats.routed_reports % ROUTING_SAMPLE == 0).then(Instant::now)
    }

    /// Records one multi-query routed report: how many query answers it
    /// touched (exact) and, if `clock` was started by
    /// [`ServerCtx::routing_clock`], its elapsed time, capped at
    /// [`ROUTING_SAMPLE_MAX_NS`] and scaled by [`ROUTING_SAMPLE`] — the
    /// sampled estimate of the routing work.
    /// Purely observational (feeds [`CtxStats`] and the `ctx.routing_*`
    /// telemetry counters); nothing feeds back into protocol decisions.
    #[inline]
    pub fn note_routing(&mut self, queries_touched: u64, clock: Option<Instant>) {
        self.stats.routed_reports += 1;
        self.stats.queries_touched += queries_touched;
        if let Some(start) = clock {
            let sample = (start.elapsed().as_nanos() as u64).min(ROUTING_SAMPLE_MAX_NS);
            self.stats.routing_ns += sample * ROUTING_SAMPLE;
        }
    }

    /// Probes one source for its current value (2 messages); refreshes the
    /// view and returns the value.
    pub fn probe(&mut self, id: StreamId) -> f64 {
        let v = self.fleet.probe(id);
        self.record(MessageKind::ProbeRequest, 1);
        self.record(MessageKind::ProbeReply, 1);
        self.learn(id, v);
        v
    }

    /// Probes every source (`2n` messages) — the Initialization phases'
    /// "request all streams to send their values". One batch fleet
    /// operation (shard-parallel on the sharded backend).
    ///
    /// The rank forest, if any, is brought up to date afterwards: the
    /// first time (or whenever it is not fully populated) by one sorted
    /// bulk pass per partition; on every later call by **delta refresh**
    /// ([`RankForest::refresh_from_changed`]) — the forest is maintained
    /// at every view refresh, so a mid-run `probe_all` (a reinit storm)
    /// re-keys only the streams that drifted silently, not all `n`, and
    /// the re-keys run partition-parallel. All paths produce identical
    /// rank outputs.
    pub fn probe_all(&mut self) {
        let t = Instant::now();
        // Not the pooled buffer: an n-long one held for the server's
        // lifetime pins the allocator's heap (+13% peak RSS on `asf_bench`'s
        // n = 500k `durable_recover`), and `probe_all` is rare.
        let mut values = Vec::new();
        self.fleet.probe_all(&mut values);
        let n = values.len() as u64;
        self.record(MessageKind::ProbeRequest, n);
        self.record(MessageKind::ProbeReply, n);
        // A populated forest re-keys only the entries this pass changes —
        // previously unknown, or bit-different — found while writing them.
        let delta = self.rank.as_ref().is_some_and(RankForest::is_fully_populated);
        let changed = &mut self.scratch.changed;
        changed.clear();
        for (i, &v) in values.iter().enumerate() {
            let id = StreamId(i as u32);
            if delta && (!self.view.is_known(id) || self.view.get(id).to_bits() != v.to_bits()) {
                changed.push(id);
            }
            self.view.set(id, v);
        }
        self.stats.probe_ns += t.elapsed().as_nanos() as u64;
        if let Some(forest) = self.rank.as_mut() {
            let t = Instant::now();
            let busy_ns = if delta {
                let rekeys = self.scratch.changed.len() as u64;
                self.telem.trace.begin(TraceDepth::Fine, "forest_delta_refresh", rekeys);
                self.stats.index_delta_refreshes += 1;
                self.stats.index_delta_rekeys += rekeys;
                forest.refresh_from_changed(self.view, &self.scratch.changed)
            } else {
                self.telem.trace.begin(TraceDepth::Fine, "forest_bulk_build", 0);
                self.stats.index_bulk_builds += 1;
                forest.rebuild_from_view(self.view)
            };
            self.telem.trace.end(TraceDepth::Fine);
            self.stats.record_index_pass(busy_ns, t.elapsed().as_nanos() as u64);
        }
        self.stats.batch_probe_ops += 1;
        self.stats.batch_probe_streams += n;
    }

    /// Probes a set of sources in one batch fleet operation (2 messages
    /// each, shard-parallel on the sharded backend). The replies land in
    /// the view (read them back with [`ServerCtx::view`]); byte-identical
    /// to probing the ids one by one in order.
    pub fn probe_many(&mut self, ids: &[StreamId]) {
        if ids.is_empty() {
            return; // no messages, no fleet touch, no stats noise
        }
        let t = Instant::now();
        self.fleet.probe_many(ids, &mut self.scratch.values);
        self.record(MessageKind::ProbeRequest, ids.len() as u64);
        self.record(MessageKind::ProbeReply, ids.len() as u64);
        for (k, &id) in ids.iter().enumerate() {
            let v = self.scratch.values[k];
            self.learn(id, v);
        }
        self.stats.probe_ns += t.elapsed().as_nanos() as u64;
        self.stats.batch_probe_ops += 1;
        self.stats.batch_probe_streams += ids.len() as u64;
    }

    /// Installs a filter at one source (1 message). Any induced sync-report
    /// is queued for the engine.
    pub fn install(&mut self, id: StreamId, filter: Filter) {
        let sync = self.fleet.install(id, filter);
        self.record(MessageKind::FilterInstall, 1);
        if let Some(v) = sync {
            self.sync(id, v);
        }
    }

    /// Installs a filter per `(id, filter)` pair in one batch fleet
    /// operation (1 message each, shard-parallel on the sharded backend).
    /// Induced sync-reports are queued for the engine in installation
    /// order — exactly the queue the scalar loop would build.
    pub fn install_many(&mut self, installs: &[(StreamId, Filter)]) {
        self.fleet.install_many(installs, &mut self.scratch.syncs);
        self.record(MessageKind::FilterInstall, installs.len() as u64);
        self.stats.batch_install_ops += 1;
        self.stats.batch_install_streams += installs.len() as u64;
        self.sync_all();
    }

    /// Queues a filter install on the **deferred-op queue** instead of
    /// executing it now. The engine flushes the queue as one batch
    /// [`ServerCtx::install_many`] when the current handler returns — one
    /// scatter/gather against the backend per handler, however many filters
    /// the handler (re)deploys.
    ///
    /// Semantics are identical to calling [`ServerCtx::install`] at the
    /// point the handler returns: deferred installs execute in queue order,
    /// their sync-reports queue in that order, and the ledger records the
    /// same messages. A handler must therefore not defer an install whose
    /// effect (the refreshed view entry of a syncing source) it reads
    /// before returning — use [`ServerCtx::install`] for that.
    pub fn install_later(&mut self, id: StreamId, filter: Filter) {
        self.stats.deferred_installs += 1;
        self.deferred.push((id, filter));
    }

    /// Installs queued by [`ServerCtx::install_later`] and not yet flushed.
    pub fn deferred_len(&self) -> usize {
        self.deferred.len()
    }

    /// Flushes the deferred-op queue as one batch install. Called by the
    /// engine at every handler boundary; a no-op when nothing is queued.
    pub(crate) fn flush_deferred(&mut self, buf: &mut Vec<(StreamId, Filter)>) {
        debug_assert!(buf.is_empty());
        if self.deferred.is_empty() {
            return;
        }
        std::mem::swap(self.deferred, buf);
        self.stats.deferred_flushes += 1;
        // The flush is its own protocol decision: attribute its installs
        // (and induced syncs) to the deferred-flush cause, then restore the
        // handler's cause.
        let prev = self.telem.cause;
        self.telem.cause = Cause::DeferredFlush;
        self.telem.trace.begin(TraceDepth::Fine, "deferred_flush", buf.len() as u64);
        self.install_many(buf);
        self.telem.trace.end(TraceDepth::Fine);
        self.telem.cause = prev;
        buf.clear();
    }

    /// Broadcasts a filter to all sources (`n` messages, one operation).
    /// Induced sync-reports are queued for the engine in ascending id
    /// order.
    pub fn broadcast(&mut self, filter: Filter) {
        self.fleet.broadcast(filter, &mut self.scratch.syncs);
        self.record(MessageKind::FilterBroadcast, self.fleet.len() as u64);
        self.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::RankSpace;
    use crate::rank::rank_view;
    use streamnet::SourceFleet;

    struct Parts {
        fleet: SourceFleet,
        view: ServerView,
        ledger: Ledger,
        pending: VecDeque<(StreamId, f64)>,
        rank: Option<RankForest>,
        scratch: FleetScratch,
        stats: CtxStats,
        deferred: Vec<(StreamId, Filter)>,
        telem: CoreTelemetry,
    }

    impl Parts {
        fn ctx(&mut self) -> ServerCtx<'_> {
            ServerCtx::new(
                &mut self.fleet,
                &mut self.view,
                &mut self.ledger,
                &mut self.pending,
                &mut self.rank,
                &mut self.scratch,
                &mut self.stats,
                &mut self.deferred,
                &mut self.telem,
            )
        }
    }

    fn setup() -> Parts {
        Parts {
            fleet: SourceFleet::from_values(&[100.0, 500.0, 900.0]),
            view: ServerView::new(3),
            ledger: Ledger::new(),
            pending: VecDeque::new(),
            rank: None,
            scratch: FleetScratch::default(),
            stats: CtxStats::default(),
            deferred: Vec::new(),
            telem: CoreTelemetry::default(),
        }
    }

    #[test]
    fn probe_meters_and_refreshes() {
        let mut p = setup();
        let mut ctx = p.ctx();
        assert_eq!(ctx.n(), 3);
        let v = ctx.probe(StreamId(1));
        assert_eq!(v, 500.0);
        assert_eq!(ctx.view().get(StreamId(1)), 500.0);
        assert_eq!(ctx.ledger().total(), 2);
    }

    #[test]
    fn routing_meter_times_one_report_in_every_sample() {
        let mut p = setup();
        for i in 0..3 * ROUTING_SAMPLE {
            let mut ctx = p.ctx();
            let clock = ctx.routing_clock();
            assert_eq!(clock.is_some(), i % ROUTING_SAMPLE == 0, "report {i}");
            if clock.is_some() {
                std::thread::sleep(std::time::Duration::from_micros(1));
            }
            ctx.note_routing(i % 3, clock);
            assert!(p.stats.routing_ns > 0, "the first report is timed");
            assert_eq!(p.stats.routing_ns % ROUTING_SAMPLE, 0);
        }
        assert_eq!(p.stats.routed_reports, 3 * ROUTING_SAMPLE);
        assert_eq!(p.stats.queries_touched, 3 * ROUTING_SAMPLE, "Σ i mod 3 over 192 reports");
        // Three samples of at least 1 µs each, scaled by the sample rate.
        assert!(p.stats.routing_ns >= 3 * 1_000 * ROUTING_SAMPLE);
        assert!(p.stats.routing_ns <= 3 * ROUTING_SAMPLE_MAX_NS * ROUTING_SAMPLE);
    }

    #[test]
    fn a_stalled_routing_sample_counts_at_most_the_cap() {
        let mut p = setup();
        let mut ctx = p.ctx();
        let clock = ctx.routing_clock();
        std::thread::sleep(std::time::Duration::from_millis(1));
        ctx.note_routing(1, clock);
        assert_eq!(p.stats.routing_ns, ROUTING_SAMPLE_MAX_NS * ROUTING_SAMPLE);
    }

    #[test]
    fn install_queues_sync_reports() {
        let mut p = setup();
        {
            let mut ctx = p.ctx();
            ctx.probe_all();
            ctx.install(StreamId(0), Filter::interval(0.0, 1000.0));
        }
        // Silent drift: 100 -> 700 stays inside [0, 1000].
        p.fleet.deliver(StreamId(0), 700.0);
        {
            let mut ctx = p.ctx();
            // New filter separates believed 100 from true 700.
            ctx.install(StreamId(0), Filter::interval(600.0, 800.0));
        }
        assert_eq!(p.pending.pop_front(), Some((StreamId(0), 700.0)));
        assert!(p.pending.is_empty());
    }

    #[test]
    fn broadcast_meters_n_messages() {
        let mut p = setup();
        let mut ctx = p.ctx();
        ctx.probe_all();
        ctx.broadcast(Filter::interval(0.0, 1000.0));
        assert_eq!(ctx.ledger().count(MessageKind::FilterBroadcast), 3);
    }

    #[test]
    fn rank_index_tracks_every_view_refresh() {
        let mut p = setup();
        let space = RankSpace::KMin;
        p.rank = Some(RankForest::new(space, 3, 1));
        {
            let mut ctx = p.ctx();
            // probe_all rebuilds the index over the whole view.
            ctx.probe_all();
            assert_eq!(ctx.ranks(space).ordered_ids(), vec![StreamId(0), StreamId(1), StreamId(2)]);
        }
        // S2 moves (ground truth 900 -> 50); the probe reply re-keys it.
        p.fleet.deliver(StreamId(2), 50.0);
        let mut ctx = p.ctx();
        ctx.probe(StreamId(2));
        assert_eq!(ctx.ranks(space).ordered_ids(), vec![StreamId(2), StreamId(0), StreamId(1)]);
        // A sort of the same view agrees.
        assert_eq!(rank_view(space, ctx.view()), ctx.ranks(space).ordered_ids());
    }

    #[test]
    fn probe_many_refreshes_view_and_rank_index() {
        let mut p = setup();
        let space = RankSpace::KMin;
        p.rank = Some(RankForest::new(space, 3, 1));
        {
            let mut ctx = p.ctx();
            ctx.probe_all();
        }
        // Two streams drift silently (no filters: deliveries report, but
        // bypass the ctx — re-key via a batch probe).
        p.fleet.deliver(StreamId(2), 50.0);
        p.fleet.deliver(StreamId(0), 800.0);
        let ledger_before = p.ledger.total();
        let mut ctx = p.ctx();
        ctx.probe_many(&[StreamId(2), StreamId(0)]);
        assert_eq!(ctx.ledger().total(), ledger_before + 4, "2 messages per probe");
        assert_eq!(ctx.view().get(StreamId(2)), 50.0);
        assert_eq!(ctx.ranks(space).ordered_ids(), vec![StreamId(2), StreamId(1), StreamId(0)]);
    }

    #[test]
    fn install_later_flushes_once_in_queue_order() {
        let mut p = setup();
        {
            let mut ctx = p.ctx();
            ctx.probe_all();
            ctx.install_many(&[
                (StreamId(0), Filter::interval(0.0, 1000.0)),
                (StreamId(2), Filter::interval(0.0, 1000.0)),
            ]);
        }
        // Both drift silently; a deferred tight redeploy must sync them in
        // queue order (2 before 0) at the flush, not at the enqueue.
        p.fleet.deliver(StreamId(0), 450.0);
        p.fleet.deliver(StreamId(2), 460.0);
        {
            let mut ctx = p.ctx();
            ctx.install_later(StreamId(2), Filter::interval(400.0, 500.0));
            ctx.install_later(StreamId(0), Filter::interval(400.0, 500.0));
            assert_eq!(ctx.deferred_len(), 2);
        }
        assert!(p.pending.is_empty(), "nothing executes before the flush");
        let mut buf = Vec::new();
        {
            let mut ctx = p.ctx();
            ctx.flush_deferred(&mut buf);
        }
        assert_eq!(
            p.pending.iter().copied().collect::<Vec<_>>(),
            vec![(StreamId(2), 460.0), (StreamId(0), 450.0)]
        );
        assert_eq!(p.stats.deferred_installs, 2);
        assert_eq!(p.stats.deferred_flushes, 1);
        assert!(p.deferred.is_empty());
        // An empty queue flush is a no-op.
        {
            let mut ctx = p.ctx();
            ctx.flush_deferred(&mut buf);
        }
        assert_eq!(p.stats.deferred_flushes, 1);
    }

    #[test]
    fn install_many_queues_syncs_in_install_order() {
        let mut p = setup();
        {
            let mut ctx = p.ctx();
            ctx.probe_all();
            ctx.install_many(&[
                (StreamId(0), Filter::interval(0.0, 1000.0)),
                (StreamId(2), Filter::interval(0.0, 1000.0)),
            ]);
        }
        assert!(p.pending.is_empty(), "consistent installs never sync");
        // Both drift silently; a tight redeploy syncs them in install order
        // (2 before 0), not id order.
        p.fleet.deliver(StreamId(0), 450.0);
        p.fleet.deliver(StreamId(2), 460.0);
        let mut ctx = p.ctx();
        ctx.install_many(&[
            (StreamId(2), Filter::interval(400.0, 500.0)),
            (StreamId(0), Filter::interval(400.0, 500.0)),
        ]);
        assert_eq!(
            p.pending.iter().copied().collect::<Vec<_>>(),
            vec![(StreamId(2), 460.0), (StreamId(0), 450.0)]
        );
    }
}
