//! The coordinator's [`FleetOps`] backend: routes every control-plane fleet
//! operation of the protocol (probe / install / broadcast / deliver) to the
//! shard owning the source, while recording messages in the coordinator's
//! authoritative ledger and refreshing the coordinator's view.
//!
//! The ledger contract of [`FleetOps`] is kept byte-identical to the serial
//! [`streamnet::SourceFleet`]: probes cost 2, installs 1 (+1 per sync),
//! broadcasts `n` as **one** operation (+1 per sync), delivered reports 1.
//! Broadcast sync reports are gathered from all shards and merged in
//! ascending global id order — the same order the serial fleet produces —
//! so the protocol's resolution cascade sees an identical report sequence.
//!
//! Batch operations (`probe_all`, `probe_many`, `install_many`,
//! `broadcast`) are the scaling path: one scatter hands every shard its
//! slice, the shards work concurrently, and one gather reassembles the
//! results in the caller's request order — the coordinator stops being a
//! per-stream round-trip bottleneck for initialization, fleet-wide filter
//! deployments, and reinit storms.

use std::time::Instant;

use asf_telemetry::{TraceDepth, TraceRing};
use streamnet::{Filter, FleetOps, Ledger, MessageKind, ServerView, StreamId};

use crate::handle::ShardHandle;
use crate::metrics::FleetOpStats;
use crate::shard::{Partition, ShardCmd, ShardReply, SpecEvent};

/// The coordinator-side view of an evaluation window still being computed
/// by the shards (the pipelined coordinator's window *t+1*). When a report
/// handler touches the fleet while such a window is in flight, the
/// [`GuardedRouter`] must absorb the outstanding `Evaluated` replies —
/// discarding their tentative reports and recycling their buffers — before
/// it can commit the speculation cut, because per-shard channels are FIFO.
pub(crate) struct InflightWindow<'a> {
    /// Shards with an outstanding eval reply; drained by the absorb.
    pub shards: &'a mut Vec<usize>,
    /// Buffer pool the absorbed report vectors are recycled into.
    pub pool: &'a mut Vec<Vec<SpecEvent>>,
    /// Coordinator-side per-shard cumulative busy accounting.
    pub shard_busy_ns: &'a mut [u64],
    /// Coordinator-side per-shard ownership-scan accounting.
    pub shard_scan_ns: &'a mut [u64],
    /// Shard busy time burned on the discarded window (metrics).
    pub discarded_busy_ns: &'a mut u64,
    /// Tentative reports discarded with the window (metrics).
    pub discarded_reports: &'a mut u64,
}

/// A routing fleet over the shard handles (borrowed for one protocol call).
pub struct ShardRouter<'a> {
    handles: &'a mut [ShardHandle],
    partition: Partition,
    n: usize,
    /// Batch fleet-op attribution (wall / max-shard / Σ-shard busy); `None`
    /// outside the metered ingest paths (e.g. initialization).
    stats: Option<&'a mut FleetOpStats>,
    /// Fine-depth trace ring for fleet-op scatter/gather spans (the
    /// server's `fleet-ops` track); `None` when untraced.
    trace: Option<&'a mut TraceRing>,
}

impl<'a> ShardRouter<'a> {
    /// Borrows the shard handles as a fleet of `n` streams.
    pub fn new(handles: &'a mut [ShardHandle], partition: Partition, n: usize) -> Self {
        Self { handles, partition, n, stats: None, trace: None }
    }

    /// Like [`ShardRouter::new`], with optional batch fleet-op attribution
    /// (the ingest path's scaling model) and optional fleet-op trace spans.
    pub(crate) fn with_telemetry(
        handles: &'a mut [ShardHandle],
        partition: Partition,
        n: usize,
        stats: Option<&'a mut FleetOpStats>,
        trace: Option<&'a mut TraceRing>,
    ) -> Self {
        Self { handles, partition, n, stats, trace }
    }

    fn route(&mut self, id: StreamId) -> (&mut ShardHandle, u32) {
        let shard = self.partition.shard_of(id);
        let local = self.partition.local_of(id);
        (&mut self.handles[shard], local)
    }

    /// Opens a fleet-op scatter/gather span (Fine depth); `seq` carries the
    /// operation's fan-out (streams touched).
    #[inline]
    fn trace_begin(&mut self, name: &'static str, seq: u64) {
        if let Some(trace) = self.trace.as_mut() {
            trace.begin(TraceDepth::Fine, name, seq);
        }
    }

    /// Closes the innermost fleet-op span.
    #[inline]
    fn trace_end(&mut self) {
        if let Some(trace) = self.trace.as_mut() {
            trace.end(TraceDepth::Fine);
        }
    }

    /// Records one finished batch fleet operation: the coordinator wall
    /// time and the per-shard busy times gathered from the replies.
    fn record_batch_op(&mut self, started: Instant, busy: &[u64]) {
        if let Some(stats) = self.stats.as_mut() {
            let wall = started.elapsed().as_nanos() as u64;
            let sum = busy.iter().sum::<u64>();
            stats.wall_ns += wall;
            stats.parallel_ns += busy.iter().copied().max().unwrap_or(0);
            stats.busy_sum_ns += sum;
            stats.hidden_ns += sum.min(wall);
            stats.batch_ops += 1;
        }
    }

    /// The shared scatter/gather of `probe_all` / `probe_all_tracked`:
    /// probes run in parallel in threaded mode; ledger counts and the
    /// final view are order-free. When `changed` is given, the change test
    /// rides the reassembly loop that refreshes the view anyway (shards
    /// own strided slices, so the small changed list is sorted once at the
    /// end to meet the ascending-id contract).
    fn probe_all_impl(
        &mut self,
        ledger: &mut Ledger,
        view: &mut ServerView,
        mut changed: Option<&mut Vec<StreamId>>,
    ) {
        let started = Instant::now();
        self.trace_begin("fleet_probe_all", self.n as u64);
        let mut busy = vec![0u64; self.partition.shards()];
        for handle in self.handles.iter_mut() {
            handle.send(ShardCmd::ProbeAll);
        }
        for (shard, handle) in self.handles.iter_mut().enumerate() {
            match handle.recv() {
                ShardReply::ProbedAll { values, busy_ns } => {
                    busy[shard] = busy_ns;
                    ledger.record(MessageKind::ProbeRequest, values.len() as u64);
                    ledger.record(MessageKind::ProbeReply, values.len() as u64);
                    for (local, v) in values.into_iter().enumerate() {
                        let id = self.partition.global_of(shard, local as u32);
                        if let Some(changed) = changed.as_deref_mut() {
                            if !view.is_known(id) || view.get(id).to_bits() != v.to_bits() {
                                changed.push(id);
                            }
                        }
                        view.set(id, v);
                    }
                }
                other => unreachable!("ProbeAll got {other:?}"),
            }
        }
        if let Some(changed) = changed {
            changed.sort_unstable();
        }
        self.record_batch_op(started, &busy);
        self.trace_end();
    }

    /// Commits/rolls back every shard's speculative log around `keep_below`
    /// (scatter, then gather). Returns per-shard `(kept, undone)`.
    pub(crate) fn commit_all(&mut self, keep_below: u64) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.handles.len());
        self.commit_all_into(keep_below, &mut out);
        out
    }

    /// [`ShardRouter::commit_all`] into a caller-pooled buffer, so the
    /// per-chunk quiescence commit stays allocation-free in steady state.
    pub(crate) fn commit_all_into(&mut self, keep_below: u64, out: &mut Vec<(u32, u32)>) {
        out.clear();
        for handle in self.handles.iter_mut() {
            handle.send(ShardCmd::Commit { keep_below });
        }
        for handle in self.handles.iter_mut() {
            match handle.recv() {
                ShardReply::Committed { kept, undone } => out.push((kept, undone)),
                other => unreachable!("Commit got {other:?}"),
            }
        }
    }

    /// Receives and discards the outstanding `Evaluated` replies of an
    /// in-flight window: its tentative reports are dropped (the cut below
    /// will roll their applications back) and its buffers recycled.
    pub(crate) fn absorb_evals(&mut self, inflight: &mut InflightWindow<'_>) {
        for s in inflight.shards.drain(..) {
            match self.handles[s].recv() {
                ShardReply::Evaluated { mut reports, busy_ns, scan_ns, .. } => {
                    inflight.shard_busy_ns[s] += busy_ns;
                    inflight.shard_scan_ns[s] += scan_ns;
                    *inflight.discarded_busy_ns += busy_ns;
                    *inflight.discarded_reports += reports.len() as u64;
                    reports.clear();
                    if reports.capacity() > 0 {
                        inflight.pool.push(reports);
                    }
                }
                other => unreachable!("absorb of EvalWindow got {other:?}"),
            }
        }
    }
}

/// A [`ShardRouter`] that lazily *invalidates* the in-flight speculation
/// the first time the protocol touches the fleet.
///
/// The coordinator consumes speculative reports in sequence order; while a
/// handler only mutates protocol state, the shards' optimistic evaluation
/// of later events remains exactly serial (sources are independent). The
/// first install / probe / broadcast / delivery, however, can change
/// source state that later events depend on — so before forwarding that
/// operation, this router commits every shard's log at `keep_below` (just
/// past the report being handled), rolling the fleet back to the precise
/// serial state the operation must observe.
pub struct GuardedRouter<'a> {
    inner: ShardRouter<'a>,
    keep_below: u64,
    committed: Option<Vec<(u32, u32)>>,
    /// The coordinator's in-flight next window, absorbed (reports
    /// discarded, applications rolled back by the cut) before the first
    /// fleet touch executes. `None` when no window is in flight.
    inflight: Option<InflightWindow<'a>>,
}

impl<'a> GuardedRouter<'a> {
    /// Wraps `inner`; a first fleet operation will cut speculation at
    /// `keep_below`, first absorbing the in-flight speculative window (if
    /// any) — the cross-window rollback of the pipelined coordinator.
    pub(crate) fn with_inflight(
        inner: ShardRouter<'a>,
        keep_below: u64,
        inflight: Option<InflightWindow<'a>>,
    ) -> Self {
        Self { inner, keep_below, committed: None, inflight }
    }

    /// Whether the cut fired, and the per-shard `(kept, undone)` counts if
    /// it did.
    pub fn into_cut(self) -> Option<Vec<(u32, u32)>> {
        self.committed
    }

    fn ensure_cut(&mut self) {
        if self.committed.is_none() {
            if let Some(inflight) = self.inflight.as_mut() {
                self.inner.absorb_evals(inflight);
            }
            self.committed = Some(self.inner.commit_all(self.keep_below));
        }
    }
}

impl FleetOps for GuardedRouter<'_> {
    fn len(&self) -> usize {
        self.inner.n
    }

    fn deliver(
        &mut self,
        id: StreamId,
        value: f64,
        ledger: &mut Ledger,
        view: &mut ServerView,
    ) -> Option<f64> {
        self.ensure_cut();
        self.inner.deliver(id, value, ledger, view)
    }

    fn probe(&mut self, id: StreamId, ledger: &mut Ledger, view: &mut ServerView) -> f64 {
        self.ensure_cut();
        self.inner.probe(id, ledger, view)
    }

    fn probe_all(&mut self, ledger: &mut Ledger, view: &mut ServerView) {
        self.ensure_cut();
        self.inner.probe_all(ledger, view)
    }

    fn probe_all_tracked(
        &mut self,
        ledger: &mut Ledger,
        view: &mut ServerView,
        changed: &mut Vec<StreamId>,
    ) {
        self.ensure_cut();
        self.inner.probe_all_tracked(ledger, view, changed)
    }

    fn probe_many(
        &mut self,
        ids: &[StreamId],
        ledger: &mut Ledger,
        view: &mut ServerView,
        out: &mut Vec<f64>,
    ) {
        // An empty batch sends no messages — it is not a fleet touch, so it
        // must not invalidate the in-flight speculation.
        if ids.is_empty() {
            out.clear();
            return;
        }
        self.ensure_cut();
        self.inner.probe_many(ids, ledger, view, out)
    }

    fn install_many(
        &mut self,
        installs: &[(StreamId, Filter)],
        ledger: &mut Ledger,
        view: &mut ServerView,
        syncs: &mut Vec<(StreamId, f64)>,
    ) {
        if installs.is_empty() {
            syncs.clear();
            return;
        }
        self.ensure_cut();
        self.inner.install_many(installs, ledger, view, syncs)
    }

    fn install(
        &mut self,
        id: StreamId,
        filter: Filter,
        ledger: &mut Ledger,
        view: &mut ServerView,
    ) -> Option<f64> {
        self.ensure_cut();
        self.inner.install(id, filter, ledger, view)
    }

    fn broadcast(
        &mut self,
        filter: Filter,
        ledger: &mut Ledger,
        view: &mut ServerView,
    ) -> Vec<(StreamId, f64)> {
        self.ensure_cut();
        self.inner.broadcast(filter, ledger, view)
    }
}

impl FleetOps for ShardRouter<'_> {
    fn len(&self) -> usize {
        self.n
    }

    fn deliver(
        &mut self,
        id: StreamId,
        value: f64,
        ledger: &mut Ledger,
        view: &mut ServerView,
    ) -> Option<f64> {
        let (handle, local) = self.route(id);
        match handle.request(ShardCmd::Deliver { local, value }) {
            ShardReply::Delivered(report) => {
                if let Some(v) = report {
                    ledger.record(MessageKind::Update, 1);
                    view.set(id, v);
                    Some(v)
                } else {
                    None
                }
            }
            other => unreachable!("Deliver got {other:?}"),
        }
    }

    fn probe(&mut self, id: StreamId, ledger: &mut Ledger, view: &mut ServerView) -> f64 {
        let (handle, local) = self.route(id);
        match handle.request(ShardCmd::Probe { local }) {
            ShardReply::Probed(v) => {
                ledger.record(MessageKind::ProbeRequest, 1);
                ledger.record(MessageKind::ProbeReply, 1);
                view.set(id, v);
                v
            }
            other => unreachable!("Probe got {other:?}"),
        }
    }

    fn probe_all(&mut self, ledger: &mut Ledger, view: &mut ServerView) {
        self.probe_all_impl(ledger, view, None);
    }

    fn probe_all_tracked(
        &mut self,
        ledger: &mut Ledger,
        view: &mut ServerView,
        changed: &mut Vec<StreamId>,
    ) {
        changed.clear();
        self.probe_all_impl(ledger, view, Some(changed));
    }

    fn probe_many(
        &mut self,
        ids: &[StreamId],
        ledger: &mut Ledger,
        view: &mut ServerView,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        if ids.is_empty() {
            return;
        }
        // Scatter each shard's slice (in request order) and let the shards
        // probe concurrently; probes are independent, so only the reassembly
        // order below is observable — and it is the request order.
        let started = Instant::now();
        self.trace_begin("fleet_probe_many", ids.len() as u64);
        let k = self.partition.shards();
        let mut busy = vec![0u64; k];
        let mut per_shard: Vec<Vec<u32>> = vec![Vec::new(); k];
        for &id in ids {
            per_shard[self.partition.shard_of(id)].push(self.partition.local_of(id));
        }
        let mut participants = Vec::new();
        for (s, locals) in per_shard.into_iter().enumerate() {
            if !locals.is_empty() {
                self.handles[s].send(ShardCmd::ProbeMany { locals });
                participants.push(s);
            }
        }
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); k];
        for &s in &participants {
            match self.handles[s].recv() {
                ShardReply::ProbedMany { values: shard_values, busy_ns } => {
                    values[s] = shard_values;
                    busy[s] = busy_ns;
                }
                other => unreachable!("ProbeMany got {other:?}"),
            }
        }
        ledger.record(MessageKind::ProbeRequest, ids.len() as u64);
        ledger.record(MessageKind::ProbeReply, ids.len() as u64);
        out.reserve(ids.len());
        let mut cursor = vec![0usize; k];
        for &id in ids {
            let s = self.partition.shard_of(id);
            let v = values[s][cursor[s]];
            cursor[s] += 1;
            view.set(id, v);
            out.push(v);
        }
        self.record_batch_op(started, &busy);
        self.trace_end();
    }

    fn install_many(
        &mut self,
        installs: &[(StreamId, Filter)],
        ledger: &mut Ledger,
        view: &mut ServerView,
        syncs: &mut Vec<(StreamId, f64)>,
    ) {
        syncs.clear();
        if installs.is_empty() {
            return;
        }
        // Scatter each shard's slice (in installation order); installs touch
        // only their own source, so the shards can run concurrently. Sync
        // reports are reassembled in installation order — exactly the queue
        // the serial per-stream loop would build.
        let started = Instant::now();
        self.trace_begin("fleet_install_many", installs.len() as u64);
        let k = self.partition.shards();
        let mut busy = vec![0u64; k];
        let mut per_shard: Vec<Vec<(u32, Filter)>> = vec![Vec::new(); k];
        for (id, filter) in installs {
            per_shard[self.partition.shard_of(*id)]
                .push((self.partition.local_of(*id), filter.clone()));
        }
        let mut participants = Vec::new();
        for (s, items) in per_shard.into_iter().enumerate() {
            if !items.is_empty() {
                self.handles[s].send(ShardCmd::InstallMany { items });
                participants.push(s);
            }
        }
        let mut replies: Vec<Vec<Option<f64>>> = vec![Vec::new(); k];
        for &s in &participants {
            match self.handles[s].recv() {
                ShardReply::InstalledMany { syncs: shard_syncs, busy_ns } => {
                    replies[s] = shard_syncs;
                    busy[s] = busy_ns;
                }
                other => unreachable!("InstallMany got {other:?}"),
            }
        }
        ledger.record(MessageKind::FilterInstall, installs.len() as u64);
        let mut cursor = vec![0usize; k];
        for (id, _) in installs {
            let s = self.partition.shard_of(*id);
            let sync = replies[s][cursor[s]];
            cursor[s] += 1;
            if let Some(v) = sync {
                ledger.record(MessageKind::Update, 1);
                view.set(*id, v);
                syncs.push((*id, v));
            }
        }
        self.record_batch_op(started, &busy);
        self.trace_end();
    }

    fn install(
        &mut self,
        id: StreamId,
        filter: Filter,
        ledger: &mut Ledger,
        view: &mut ServerView,
    ) -> Option<f64> {
        let (handle, local) = self.route(id);
        match handle.request(ShardCmd::Install { local, filter }) {
            ShardReply::Installed(sync) => {
                ledger.record(MessageKind::FilterInstall, 1);
                if let Some(v) = sync {
                    ledger.record(MessageKind::Update, 1);
                    view.set(id, v);
                    Some(v)
                } else {
                    None
                }
            }
            other => unreachable!("Install got {other:?}"),
        }
    }

    fn broadcast(
        &mut self,
        filter: Filter,
        ledger: &mut Ledger,
        view: &mut ServerView,
    ) -> Vec<(StreamId, f64)> {
        // One logical broadcast operation costing n messages, however many
        // shards it fans out to.
        let started = Instant::now();
        self.trace_begin("fleet_broadcast", self.n as u64);
        let mut busy = vec![0u64; self.partition.shards()];
        ledger.record(MessageKind::FilterBroadcast, self.n as u64);
        for handle in self.handles.iter_mut() {
            handle.send(ShardCmd::Broadcast { filter: filter.clone() });
        }
        let mut syncs: Vec<(StreamId, f64)> = Vec::new();
        for (shard, handle) in self.handles.iter_mut().enumerate() {
            match handle.recv() {
                ShardReply::Broadcasted { syncs: local_syncs, busy_ns } => {
                    busy[shard] = busy_ns;
                    for (local, v) in local_syncs {
                        syncs.push((self.partition.global_of(shard, local), v));
                    }
                }
                other => unreachable!("Broadcast got {other:?}"),
            }
        }
        // Serial-identical order: ascending global id.
        syncs.sort_by_key(|&(id, _)| id);
        for &(id, v) in &syncs {
            ledger.record(MessageKind::Update, 1);
            view.set(id, v);
        }
        self.record_batch_op(started, &busy);
        self.trace_end();
        syncs
    }
}
