//! The coordinator's [`FleetOps`] backend: routes every fleet operation of
//! the protocol (probe / install / broadcast / deliver) to the shard
//! owning the source and reassembles the replies.
//!
//! The router only moves source state, like every [`FleetOps`] backend:
//! the coordinator's `ServerCtx` meters each operation and refreshes the
//! view from what it returns, so the ledger contract lives in one place
//! for the serial engine and the sharded server alike. What the router
//! owes is the result order of [`FleetOps`]: `probe_all` values in id
//! order, batch results in request order, and broadcast syncs gathered
//! from all shards and merged in ascending global id order — the order
//! the serial fleet produces — so the protocol's resolution cascade sees
//! an identical report sequence.
//!
//! Batch operations (`probe_all`, `probe_many`, `install_many`,
//! `broadcast`) are the scaling path: one scatter hands every shard its
//! slice, the shards work concurrently, and one gather reassembles the
//! results — the coordinator stops being a per-stream round-trip
//! bottleneck for initialization, fleet-wide filter deployments, and
//! reinit storms.
//!
//! During ingest the protocol sees the fleet through the
//! [`GuardedRouter`], which keeps the chunk's speculation standing
//! through every fleet operation: the shards **respeculate** the
//! speculated applications the operation can reach — the touched streams'
//! positions for a `probe`, `install` or `deliver` (single or batch), the
//! whole suffix past the report for a `broadcast` or `probe_all` — and
//! report back only the positions whose report bit flipped.

use std::time::Instant;

use asf_core::workload::EventBatch;
use asf_telemetry::{TraceDepth, TraceRing};
use streamnet::{Filter, FleetOps, StreamId};

use crate::handle::{each_shard, ShardHandle};
use crate::metrics::FleetOpStats;
use crate::occurrence::OccurrenceIndex;
use crate::shard::{Partition, ShardCmd, ShardReply, SpecEvent, FLIP_REPORTS};

/// The coordinator-side view of the speculation standing beyond the report
/// being handled: the rest of the gathered chunk. The [`GuardedRouter`]
/// consults it on every fleet touch — to find the touched streams'
/// speculated positions and to patch the flips of the respeculation into
/// the tentative report stream.
pub(crate) struct InflightWindow<'a> {
    /// The chunk's gathered tentative reports with their shard, in `seq`
    /// order — the drain's index loop reads it, and flips are patched into
    /// it.
    pub merged: &'a mut Vec<(SpecEvent, usize)>,
    /// The chunk being ingested (position = `seq`): its stream column
    /// feeds the occurrence index, a flip's event is the chunk's event at
    /// the flip's position, and its end is the speculation tip.
    pub chunk: &'a EventBatch,
    /// The chunk's stream-occurrence index (built on first use).
    pub occurrences: &'a mut OccurrenceIndex,
    /// Pooled positions buffer of a single-stream touch: it travels to the
    /// shard and comes back holding the flips.
    pub positions: &'a mut Vec<u64>,
    /// Fleet touches served (metrics).
    pub scoped_touches: &'a mut u64,
    /// Speculated applications rewound and re-applied (metrics).
    pub respeculated: &'a mut u64,
    /// Respeculated applications whose report bit flipped (metrics).
    pub respec_flips: &'a mut u64,
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

/// Per-shard flip lists of a respeculating batch operation (only the
/// shards with flips).
type ShardFlips = Vec<(usize, Vec<u64>)>;

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

    /// [`FleetOps::probe_all`]: the shards probe concurrently in threaded
    /// mode, and the values are written into `out` at their global ids.
    /// Returns the respeculation flips by shard.
    fn probe_all_at(&mut self, out: &mut Vec<f64>) -> ShardFlips {
        let started = Instant::now();
        self.trace_begin("fleet_probe_all", self.n as u64);
        let mut busy = vec![0u64; self.partition.shards()];
        let mut all_flips = Vec::new();
        let replies = each_shard!(self.handles, |_| ShardCmd::ProbeAll,
            ShardReply::ProbedAll { values, flips, busy_ns } => (values, flips, busy_ns));
        out.clear();
        out.resize(self.n, 0.0);
        for (shard, (values, flips, busy_ns)) in replies.into_iter().enumerate() {
            busy[shard] = busy_ns;
            if !flips.is_empty() {
                all_flips.push((shard, flips));
            }
            for (local, v) in values.into_iter().enumerate() {
                out[self.partition.global_of(shard, local as u32).index()] = v;
            }
        }
        self.record_batch_op(started, &busy);
        self.trace_end();
        all_flips
    }

    /// Commits every shard's speculative applications below `keep_below`
    /// (scatter, then gather); later ones stay journaled.
    pub(crate) fn commit_all(&mut self, keep_below: u64) {
        each_shard!(self.handles, |_| ShardCmd::Commit { keep_below }, ShardReply::Ack => ());
    }

    /// [`FleetOps::deliver`], respeculating the source's applications at
    /// `positions`; returns the report and the flips (in the same buffer).
    fn deliver_at(
        &mut self,
        id: StreamId,
        value: f64,
        positions: Vec<u64>,
    ) -> (Option<f64>, Vec<u64>) {
        let (handle, local) = self.route(id);
        match handle.request(ShardCmd::Deliver { local, value, positions }) {
            ShardReply::Delivered { report, flips } => (report, flips),
            other => unreachable!("Deliver got {other:?}"),
        }
    }

    /// [`FleetOps::probe`], respeculating the source's applications at
    /// `positions`; returns the value and the flips (in the same buffer).
    fn probe_at(&mut self, id: StreamId, positions: Vec<u64>) -> (f64, Vec<u64>) {
        let (handle, local) = self.route(id);
        match handle.request(ShardCmd::Probe { local, positions }) {
            ShardReply::Probed { value, flips } => (value, flips),
            other => unreachable!("Probe got {other:?}"),
        }
    }

    /// [`FleetOps::install`], respeculating the source's applications at
    /// `positions`; returns the sync report and the flips (in the same
    /// buffer).
    fn install_at(
        &mut self,
        id: StreamId,
        filter: Filter,
        positions: Vec<u64>,
    ) -> (Option<f64>, Vec<u64>) {
        let (handle, local) = self.route(id);
        match handle.request(ShardCmd::Install { local, filter, positions }) {
            ShardReply::Installed { sync, flips } => (sync, flips),
            other => unreachable!("Install got {other:?}"),
        }
    }

    /// [`FleetOps::probe_many`], respeculating `positions[s]` on each shard
    /// `s` (an empty `positions` respeculates nothing); returns the
    /// non-empty flip lists by shard.
    fn probe_many_at(
        &mut self,
        ids: &[StreamId],
        mut positions: Vec<Vec<u64>>,
        out: &mut Vec<f64>,
    ) -> ShardFlips {
        out.clear();
        let mut all_flips = Vec::new();
        if ids.is_empty() {
            return all_flips;
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
                let positions = positions.get_mut(s).map(std::mem::take).unwrap_or_default();
                self.handles[s].send(ShardCmd::ProbeMany { locals, positions });
                participants.push(s);
            }
        }
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); k];
        for &s in &participants {
            match self.handles[s].recv() {
                ShardReply::ProbedMany { values: shard_values, flips, busy_ns } => {
                    values[s] = shard_values;
                    busy[s] = busy_ns;
                    if !flips.is_empty() {
                        all_flips.push((s, flips));
                    }
                }
                other => unreachable!("ProbeMany got {other:?}"),
            }
        }
        out.reserve(ids.len());
        let mut cursor = vec![0usize; k];
        for &id in ids {
            let s = self.partition.shard_of(id);
            out.push(values[s][cursor[s]]);
            cursor[s] += 1;
        }
        self.record_batch_op(started, &busy);
        self.trace_end();
        all_flips
    }

    /// [`FleetOps::install_many`], respeculating as
    /// [`Self::probe_many_at`] does.
    fn install_many_at(
        &mut self,
        installs: &[(StreamId, Filter)],
        mut positions: Vec<Vec<u64>>,
        syncs: &mut Vec<(StreamId, f64)>,
    ) -> ShardFlips {
        syncs.clear();
        let mut all_flips = Vec::new();
        if installs.is_empty() {
            return all_flips;
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
                let positions = positions.get_mut(s).map(std::mem::take).unwrap_or_default();
                self.handles[s].send(ShardCmd::InstallMany { items, positions });
                participants.push(s);
            }
        }
        let mut replies: Vec<Vec<Option<f64>>> = vec![Vec::new(); k];
        for &s in &participants {
            match self.handles[s].recv() {
                ShardReply::InstalledMany { syncs: shard_syncs, flips, busy_ns } => {
                    replies[s] = shard_syncs;
                    busy[s] = busy_ns;
                    if !flips.is_empty() {
                        all_flips.push((s, flips));
                    }
                }
                other => unreachable!("InstallMany got {other:?}"),
            }
        }
        let mut cursor = vec![0usize; k];
        for (id, _) in installs {
            let s = self.partition.shard_of(*id);
            if let Some(v) = replies[s][cursor[s]] {
                syncs.push((*id, v));
            }
            cursor[s] += 1;
        }
        self.record_batch_op(started, &busy);
        self.trace_end();
        all_flips
    }

    /// [`FleetOps::broadcast`]; returns the respeculation flips by shard.
    fn broadcast_at(&mut self, filter: Filter, syncs: &mut Vec<(StreamId, f64)>) -> ShardFlips {
        let started = Instant::now();
        self.trace_begin("fleet_broadcast", self.n as u64);
        let mut busy = vec![0u64; self.partition.shards()];
        let mut all_flips = Vec::new();
        let replies = each_shard!(self.handles, |_| ShardCmd::Broadcast { filter: filter.clone() },
            ShardReply::Broadcasted { syncs, flips, busy_ns } => (syncs, flips, busy_ns));
        syncs.clear();
        for (shard, (local_syncs, flips, busy_ns)) in replies.into_iter().enumerate() {
            busy[shard] = busy_ns;
            if !flips.is_empty() {
                all_flips.push((shard, flips));
            }
            for (local, v) in local_syncs {
                syncs.push((self.partition.global_of(shard, local), v));
            }
        }
        // Serial-identical order: ascending global id.
        syncs.sort_unstable_by_key(|&(id, _)| id);
        self.record_batch_op(started, &busy);
        self.trace_end();
        all_flips
    }
}

/// A [`ShardRouter`] that keeps the chunk's speculation exact through
/// the protocol's fleet touches.
///
/// A fleet touch issued while handling the report at position `c` can
/// change source state that speculated events in `(c, end)` depend on,
/// `end` being the chunk's end — but only events of the sources it touches
/// (sources are independent). One rule covers every operation:
///
/// 1. find the speculated applications the operation can reach — for a
///    `probe`, `install` or `deliver` (single or batch), each touched
///    stream's positions in `(c, end)` from the chunk's stream-occurrence
///    index (a batch folds duplicate ids); for a `broadcast` or
///    `probe_all`, every position in `(c, end)`;
/// 2. send the operation: the shard rewinds those applications newest
///    first, runs the operation against the exact serial state, and
///    re-applies them oldest first. A per-stream operation carries its
///    positions. An operation on every source carries none: every shard
///    first commits its applications up to `c` (`keep_below = c + 1`), so
///    its log *is* the suffix;
/// 3. insert or remove exactly the positions whose report bit flipped in
///    the gathered `merged` stream.
///
/// A stream with no positions is the bare operation, allocation-free.
/// Nothing is rolled back, discarded or re-evaluated, so the drain never
/// learns of a touch.
pub struct GuardedRouter<'a> {
    inner: ShardRouter<'a>,
    keep_below: u64,
    /// The speculation standing beyond the report being handled.
    inflight: InflightWindow<'a>,
}

impl<'a> GuardedRouter<'a> {
    /// Wraps `inner` for the handler of the report at `keep_below - 1`.
    pub(crate) fn with_inflight(
        inner: ShardRouter<'a>,
        keep_below: u64,
        inflight: InflightWindow<'a>,
    ) -> Self {
        Self { inner, keep_below, inflight }
    }

    /// Step 1 of the touch rule for one stream: appends `id`'s speculated
    /// positions to `positions`.
    fn touch_stream(&mut self, id: StreamId, positions: &mut Vec<u64>) {
        let w = &mut self.inflight;
        let (c, end) = ((self.keep_below - 1) as usize, w.chunk.len());
        w.occurrences.positions_between(w.chunk.streams(), id, c, end, positions);
    }

    /// Step 1 for a single-stream operation, in the pooled positions
    /// buffer.
    fn touch_one(&mut self, id: StreamId) -> Vec<u64> {
        let mut positions = std::mem::take(self.inflight.positions);
        positions.clear();
        self.touch_stream(id, &mut positions);
        self.count_touch(positions.len());
        positions
    }

    /// Step 3 for a single-stream operation on `id`; returns the buffer to
    /// the pool.
    fn patch_one(&mut self, id: StreamId, flips: Vec<u64>) {
        self.patch(self.inner.partition.shard_of(id), &flips);
        *self.inflight.positions = flips;
    }

    /// [`Self::touch_stream`] over a batch: per-shard positions, ascending,
    /// each once however often its stream recurs in `ids`.
    fn touch_streams(&mut self, ids: impl Iterator<Item = StreamId>) -> Vec<Vec<u64>> {
        let mut positions = vec![Vec::new(); self.inner.partition.shards()];
        for id in ids {
            let s = self.inner.partition.shard_of(id);
            self.touch_stream(id, &mut positions[s]);
        }
        for shard_positions in &mut positions {
            shard_positions.sort_unstable();
            shard_positions.dedup();
        }
        self.count_touch(positions.iter().map(Vec::len).sum());
        positions
    }

    /// Steps 1–2 for an operation on every source, up to sending it:
    /// commits every shard's applications up to the report being handled,
    /// which leaves each log holding exactly its share of `(c, end)`.
    fn touch_all(&mut self) {
        self.inner.commit_all(self.keep_below);
        self.count_touch(self.inflight.chunk.len() - self.keep_below as usize);
    }

    /// Counts one fleet touch, respeculating `respeculated` applications.
    fn count_touch(&mut self, respeculated: usize) {
        *self.inflight.scoped_touches += 1;
        *self.inflight.respeculated += respeculated as u64;
    }

    /// Step 3 over every shard's flips.
    fn patch_all(&mut self, flips: ShardFlips) {
        for (s, flips) in flips {
            self.patch(s, &flips);
        }
    }

    /// Step 3 of the touch rule: inserts each of shard `s`'s flipped
    /// positions that now reports into `merged`, and removes each that no
    /// longer does (the entry there is its tentative report).
    fn patch(&mut self, s: usize, flips: &[u64]) {
        let w = &mut self.inflight;
        *w.respec_flips += flips.len() as u64;
        for &flip in flips {
            let seq = flip & !FLIP_REPORTS;
            let at = w.merged.partition_point(|(ev, _)| ev.seq < seq);
            if flip & FLIP_REPORTS != 0 {
                let p = seq as usize;
                let local = self.inner.partition.local_of(w.chunk.streams()[p]);
                w.merged.insert(at, (SpecEvent { seq, local, value: w.chunk.values()[p] }, s));
            } else {
                w.merged.remove(at);
            }
        }
    }
}

impl FleetOps for GuardedRouter<'_> {
    fn len(&self) -> usize {
        self.inner.n
    }

    fn deliver(&mut self, id: StreamId, value: f64) -> Option<f64> {
        let positions = self.touch_one(id);
        let (report, flips) = self.inner.deliver_at(id, value, positions);
        self.patch_one(id, flips);
        report
    }

    fn probe(&mut self, id: StreamId) -> f64 {
        let positions = self.touch_one(id);
        let (value, flips) = self.inner.probe_at(id, positions);
        self.patch_one(id, flips);
        value
    }

    fn probe_all(&mut self, out: &mut Vec<f64>) {
        self.touch_all();
        let flips = self.inner.probe_all_at(out);
        self.patch_all(flips);
    }

    fn probe_many(&mut self, ids: &[StreamId], out: &mut Vec<f64>) {
        // An empty batch sends no messages — it is not a fleet touch.
        let positions =
            if ids.is_empty() { Vec::new() } else { self.touch_streams(ids.iter().copied()) };
        let flips = self.inner.probe_many_at(ids, positions, out);
        self.patch_all(flips);
    }

    fn install(&mut self, id: StreamId, filter: Filter) -> Option<f64> {
        let positions = self.touch_one(id);
        let (sync, flips) = self.inner.install_at(id, filter, positions);
        self.patch_one(id, flips);
        sync
    }

    fn install_many(&mut self, installs: &[(StreamId, Filter)], syncs: &mut Vec<(StreamId, f64)>) {
        let positions = if installs.is_empty() {
            Vec::new()
        } else {
            self.touch_streams(installs.iter().map(|(id, _)| *id))
        };
        let flips = self.inner.install_many_at(installs, positions, syncs);
        self.patch_all(flips);
    }

    fn broadcast(&mut self, filter: Filter, syncs: &mut Vec<(StreamId, f64)>) {
        self.touch_all();
        let flips = self.inner.broadcast_at(filter, syncs);
        self.patch_all(flips);
    }
}

/// Outside a drain no speculation is journaled, so every operation is the
/// bare one and nothing flips.
impl FleetOps for ShardRouter<'_> {
    fn len(&self) -> usize {
        self.n
    }

    fn deliver(&mut self, id: StreamId, value: f64) -> Option<f64> {
        self.deliver_at(id, value, Vec::new()).0
    }

    fn probe(&mut self, id: StreamId) -> f64 {
        self.probe_at(id, Vec::new()).0
    }

    fn probe_all(&mut self, out: &mut Vec<f64>) {
        self.probe_all_at(out);
    }

    fn probe_many(&mut self, ids: &[StreamId], out: &mut Vec<f64>) {
        self.probe_many_at(ids, Vec::new(), out);
    }

    fn install(&mut self, id: StreamId, filter: Filter) -> Option<f64> {
        self.install_at(id, filter, Vec::new()).0
    }

    fn install_many(&mut self, installs: &[(StreamId, Filter)], syncs: &mut Vec<(StreamId, f64)>) {
        self.install_many_at(installs, Vec::new(), syncs);
    }

    fn broadcast(&mut self, filter: Filter, syncs: &mut Vec<(StreamId, f64)>) {
        self.broadcast_at(filter, syncs);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use asf_core::workload::EventBatch;

    use super::*;
    use crate::handle::ExecMode;
    use crate::shard::Shard;

    /// One chunk, positions `0..6`. Stream 0 (shard 0) reports at 0 and
    /// never recurs; stream 1 (shard 1) reports at 1 and again at 4 (back
    /// inside); stream 2 (shard 0) reports at 2 and 5; stream 3 (shard 1)
    /// moves silently at 3.
    const EVENTS: [(u32, f64); 6] =
        [(0, 700.0), (1, 650.0), (2, 700.0), (3, 450.0), (1, 500.0), (2, 420.0)];

    /// Everything an [`InflightWindow`] borrows from the server.
    struct Coordinator {
        handles: Vec<ShardHandle>,
        merged: Vec<(SpecEvent, usize)>,
        chunk: Arc<EventBatch>,
        occurrences: OccurrenceIndex,
        positions: Vec<u64>,
        scoped_touches: u64,
        respeculated: u64,
        respec_flips: u64,
    }

    impl Coordinator {
        /// Two threaded shards over four streams at 500 under `[400, 600]`
        /// filters, with the chunk evaluated and its reports gathered into
        /// `merged`.
        fn gathered() -> Self {
            let partition = Partition::new(2);
            let mut handles: Vec<ShardHandle> = (0..2)
                .map(|s| {
                    let shard = Shard::with_partition(&[500.0, 500.0], partition, s);
                    ShardHandle::spawn(shard, s, ExecMode::Threaded)
                })
                .collect();
            for handle in handles.iter_mut() {
                handle.request(ShardCmd::ProbeAll);
                handle.request(ShardCmd::Broadcast { filter: Filter::interval(400.0, 600.0) });
            }
            let mut chunk = EventBatch::new();
            for (t, &(g, v)) in EVENTS.iter().enumerate() {
                chunk.push_parts(t as f64, StreamId(g), v);
            }
            let chunk = Arc::new(chunk);
            for handle in handles.iter_mut() {
                let window = Arc::clone(&chunk);
                let (end, reports) = (EVENTS.len(), Vec::new());
                handle.send(ShardCmd::EvalWindow { window, start: 0, end, reports });
            }
            let mut merged = Vec::new();
            for (s, handle) in handles.iter_mut().enumerate() {
                let ShardReply::Evaluated { reports, .. } = handle.recv() else {
                    panic!("expected Evaluated")
                };
                merged.extend(reports.into_iter().map(|ev| (ev, s)));
            }
            merged.sort_by_key(|(ev, _)| ev.seq);
            let c = Self {
                handles,
                merged,
                chunk,
                occurrences: OccurrenceIndex::new(4),
                positions: Vec::new(),
                scoped_touches: 0,
                respeculated: 0,
                respec_flips: 0,
            };
            assert_eq!(
                c.reports(),
                vec![(0, 0, 700.0), (1, 1, 650.0), (2, 2, 700.0), (4, 1, 500.0), (5, 2, 420.0)]
            );
            c
        }

        /// The gathered reports as `(seq, global stream, value)`.
        fn reports(&self) -> Vec<(u64, u32, f64)> {
            let partition = Partition::new(2);
            self.merged
                .iter()
                .map(|&(ev, s)| (ev.seq, partition.global_of(s, ev.local).0, ev.value))
                .collect()
        }

        /// Runs `op` from the handler of the report at position `c`;
        /// returns its result.
        fn run_in_handler<R>(&mut self, c: u64, op: impl FnOnce(&mut GuardedRouter<'_>) -> R) -> R {
            let inner = ShardRouter::new(&mut self.handles, Partition::new(2), 4);
            let inflight = InflightWindow {
                merged: &mut self.merged,
                chunk: &self.chunk,
                occurrences: &mut self.occurrences,
                positions: &mut self.positions,
                scoped_touches: &mut self.scoped_touches,
                respeculated: &mut self.respeculated,
                respec_flips: &mut self.respec_flips,
            };
            let mut router = GuardedRouter::with_inflight(inner, c + 1, inflight);
            op(&mut router)
        }

        /// Installs `[0, 1000]` at `id` from the handler of the report at
        /// position `c`.
        fn install_from_handler(&mut self, c: u64, id: StreamId) {
            let sync =
                self.run_in_handler(c, |router| router.install(id, Filter::interval(0.0, 1000.0)));
            assert_eq!(sync, None, "the source is in its serial state: nothing to sync");
        }

        /// Every source's ground truth, in global order.
        fn truth(&mut self) -> Vec<f64> {
            let mut values = vec![0.0; 4];
            for (s, handle) in self.handles.iter_mut().enumerate() {
                let ShardReply::Truth(local) = handle.request(ShardCmd::TruthSnapshot) else {
                    panic!("expected Truth")
                };
                for (l, v) in local.into_iter().enumerate() {
                    values[Partition::new(2).global_of(s, l as u32).index()] = v;
                }
            }
            values
        }
    }

    #[test]
    fn colliding_install_respeculates_and_a_broadcast_respeculates_both_windows() {
        // Stream 0 does not recur after 0: the install at it is the bare
        // operation and the reports stand.
        let mut c = Coordinator::gathered();
        c.install_from_handler(0, StreamId(0));
        assert_eq!((c.scoped_touches, c.respeculated, c.respec_flips), (1, 0, 0));
        // Stream 1 recurs at 4: the install at it from the handler of its
        // report at 1 respeculates position 4. Under [0, 1000] the return
        // to 500 is silent, so the chunk loses that report.
        c.install_from_handler(1, StreamId(1));
        assert_eq!((c.scoped_touches, c.respeculated, c.respec_flips), (2, 1, 1));
        assert_eq!(c.reports(), vec![(0, 0, 700.0), (1, 1, 650.0), (2, 2, 700.0), (5, 2, 420.0)]);
        // A broadcast from the same handler reaches every source, so it
        // respeculates every position past 1 — 2..6, across both shards —
        // instead of discarding the chunk's evaluation. Under [0, 1000]
        // stream 2's reports at 2 and 5 go silent.
        let mut syncs = vec![(StreamId(9), 0.0)];
        c.run_in_handler(1, |router| router.broadcast(Filter::interval(0.0, 1000.0), &mut syncs));
        assert!(syncs.is_empty());
        assert_eq!((c.scoped_touches, c.respeculated, c.respec_flips), (3, 5, 3));
        assert_eq!(c.reports(), vec![(0, 0, 700.0), (1, 1, 650.0)], "2, 4 and 5 went silent");
        assert_eq!(c.truth(), vec![700.0, 500.0, 420.0, 450.0]);
    }

    #[test]
    fn delivery_respeculates_the_delivered_streams_positions() {
        // From the handler of the report at 0, 1000 is delivered to
        // stream 1 (a report: the server last heard 500). Its tentative
        // report of 650 at 1 then stays outside and goes silent, while its
        // return to 500 at 4 still reports.
        let mut c = Coordinator::gathered();
        let report = c.run_in_handler(0, |router| router.deliver(StreamId(1), 1000.0));
        assert_eq!(report, Some(1000.0));
        assert_eq!((c.scoped_touches, c.respeculated, c.respec_flips), (1, 2, 1));
        assert_eq!(c.reports(), vec![(0, 0, 700.0), (2, 2, 700.0), (4, 1, 500.0), (5, 2, 420.0)]);
        assert_eq!(c.truth(), vec![700.0, 500.0, 420.0, 450.0]);
    }

    #[test]
    fn respeculation_patches_flips_both_ways_into_the_gathered_reports() {
        // From the handler of the report at 0: [0, 1000] at stream 1
        // silences its reports at 1 and 4, and [0, 460] at stream 3 turns
        // its silent move to 450 at 3 into a report. Once as two single
        // installs, once as one batch that names stream 1 twice (its
        // positions are respeculated once).
        fn single(router: &mut GuardedRouter<'_>) {
            let syncs = [
                router.install(StreamId(1), Filter::interval(0.0, 1000.0)),
                router.install(StreamId(3), Filter::interval(0.0, 460.0)),
            ];
            assert_eq!(syncs, [None, None]);
        }
        fn batch(router: &mut GuardedRouter<'_>) {
            let wide = Filter::interval(0.0, 1000.0);
            let plan = [
                (StreamId(1), wide.clone()),
                (StreamId(3), Filter::interval(0.0, 460.0)),
                (StreamId(1), wide),
            ];
            let mut syncs = Vec::new();
            router.install_many(&plan, &mut syncs);
            assert!(syncs.is_empty());
        }
        type Op = fn(&mut GuardedRouter<'_>);
        for (name, op, touches) in [("single", single as Op, 2), ("batch", batch as Op, 1)] {
            let mut c = Coordinator::gathered();
            c.run_in_handler(0, op);
            assert_eq!((c.scoped_touches, c.respeculated, c.respec_flips), (touches, 3, 3));
            assert_eq!(
                c.reports(),
                vec![(0, 0, 700.0), (2, 2, 700.0), (3, 3, 450.0), (5, 2, 420.0)],
                "{name}: 1 and 4 left the reports, 3 joined them"
            );
            assert_eq!(c.truth(), vec![700.0, 500.0, 420.0, 450.0], "{name}");
        }
    }
}
