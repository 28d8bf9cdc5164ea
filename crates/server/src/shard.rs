//! A worker shard: owns one partition of the stream population and does the
//! data-plane work — speculative window filter evaluation, committed
//! deliveries, and the shard-side half of probes / installs / broadcasts.
//!
//! Sources are assigned to shards by stride: global stream `g` lives on
//! shard `g % k` at local index `g / k` (see [`Partition`]). The shard's
//! [`SourceFleet`] uses *local* dense ids; all translation happens at the
//! boundary.
//!
//! ## Getting events onto the shard: broadcast scatter
//!
//! [`ShardCmd::EvalWindow`] starts a speculative evaluation window: the
//! coordinator shares one columnar [`asf_core::workload::EventBatch`]
//! window behind an `Arc` and every shard *self-partitions*, scanning the
//! shared stream column for the ids it owns and building its
//! [`SpecEvent`]s locally. The scan is one multiply-high per event
//! ([`Partition`]'s reciprocal, no division) and a predicated write (no
//! ownership branch, which is a coin flip at two shards). The coordinator
//! pays O(shards) `Arc` clones per window; the ownership scan is metered
//! per shard ([`ShardReply::Evaluated::scan_ns`]) and runs inside the
//! parallel region. Every shard reads every window, so the scan is
//! O(k · window) in total; pre-partitioning the window on the
//! coordinator would only pay off at k ≫ 2.
//!
//! ## Optimistic evaluation and the undo log
//!
//! [`Shard::exec`] walks its slice of a window
//! in sequence order **optimistically**: silent updates apply their value;
//! filter violations are tentatively treated as delivered reports (value
//! applied, last-reported refreshed) and returned to the coordinator in
//! order. Every application is journaled in a [`SpecLog`] with the
//! source's prior state.
//!
//! The coordinator consumes the merged, sequence-ordered report stream
//! through the protocol. As long as handling a report touches **no**
//! source, the speculation is exactly what serial execution would have
//! done — sources are independent — and the whole slice commits in one
//! round. A touch of some sources — `probe`, `install`, `deliver`, single
//! or batch — issued while handling the report at position `c` carries the
//! touched sources' speculated positions in `(c, tip)`: inside the one
//! command the shard rewinds those applications, runs the operation
//! against the sources' exact serial state, replays them against the new
//! filter, and replies with the positions whose report bit flipped
//! ([`FLIP_REPORTS`]), written over the ones it was sent, so the buffer
//! makes the round trip without allocating. A touch of every source
//! ([`ShardCmd::ProbeAll`], [`ShardCmd::Broadcast`]) does the same to the
//! whole journaled suffix: the coordinator first commits everything up to
//! `c` ([`ShardCmd::Commit`] with `keep_below = c + 1`), so the shard
//! knows its suffix without being sent a position. Nothing is ever rolled
//! back and re-evaluated, and the sharded runtime stays byte-identical to
//! the serial engine.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use asf_core::workload::EventBatch;
use asf_persist::Rows;
use asf_telemetry::{TraceDepth, TraceEvent, TraceRing};
use streamnet::{Filter, FleetOps, SourceFleet, SpecLog, StreamId};

/// Strided assignment of global stream ids to `k` shards: global `g` lives
/// on shard `g % k` at local index `g / k`.
///
/// Neither is computed with a division. The map stores the reciprocal
/// `m = ⌈2⁶⁴ / k⌉` once, and `g / k = (g · m) >> 64` — one multiply-high —
/// is exact for every 32-bit `g` and every `k ≥ 1` (Lemire, Kaser & Kurz,
/// "Faster remainder by direct computation", 2019: 64 fractional bits
/// suffice for 32-bit operands). `k = 1` makes `m = 2⁶⁴`, hence the
/// `u128`. The shard is then `g − (g / k) · k`.
#[derive(Clone, Copy, Debug)]
pub struct Partition {
    k: u32,
    m: u128,
}

impl Partition {
    /// Creates the partition map for `k` shards.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one shard");
        let k = u32::try_from(k).expect("too many shards");
        Self { k, m: (1u128 << 64).div_ceil(u128::from(k)) }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.k as usize
    }

    /// `(shard, local)` of a global stream id — the one definition of
    /// ownership every other method derives from.
    #[inline]
    fn split(&self, id: StreamId) -> (u32, u32) {
        let local = ((u128::from(id.0) * self.m) >> 64) as u32;
        (id.0 - local * self.k, local)
    }

    /// The shard owning a global stream id.
    #[inline]
    pub fn shard_of(&self, id: StreamId) -> usize {
        self.split(id).0 as usize
    }

    /// The owning shard's local index for a global stream id.
    #[inline]
    pub fn local_of(&self, id: StreamId) -> u32 {
        self.split(id).1
    }

    /// The global id of `(shard, local)`.
    #[inline]
    pub fn global_of(&self, shard: usize, local: u32) -> StreamId {
        StreamId(local * self.k + shard as u32)
    }

    /// Splits the global initial values into per-shard local value vectors.
    pub fn split_values(&self, initial: &[f64]) -> Vec<Vec<f64>> {
        let mut per_shard: Vec<Vec<f64>> = vec![Vec::new(); self.shards()];
        for (g, &v) in initial.iter().enumerate() {
            per_shard[self.shard_of(StreamId(g as u32))].push(v);
        }
        per_shard
    }
}

/// How many owned events ahead of the one it evaluates the shard's
/// evaluation loop prefetches a source's hot record
/// ([`SourceFleet::prefetch`]). Far enough ahead that a row missing every
/// cache arrives before the §3.1 test reaches it, near enough that it is
/// not evicted first: of 8, 16, 32 and 64, 8 gained least and 32 ran
/// `asf_bench`'s `durable_recover` and `range_hot` fastest (2-core box,
/// 2 MB L2). The coordinator's report drain looks the same distance ahead
/// along its merged reports ([`Shard::prefetch_row`]), where 16 and 32
/// measured alike on `multi_range`.
pub(crate) const PREFETCH_DISTANCE: usize = 32;

/// One event of a speculative batch, addressed by shard-local id and
/// stamped with its global batch sequence number.
#[derive(Clone, Copy, Debug)]
pub struct SpecEvent {
    /// Position of the event in the coordinator's batch (ascending).
    pub seq: u64,
    /// Shard-local source index.
    pub local: u32,
    /// The new value.
    pub value: f64,
}

/// Tag bit of a flip in a respeculating reply: a flip is the position of
/// a speculated application whose report bit flipped, `| FLIP_REPORTS`
/// when it became a tentative report and bare when it stopped being one.
/// Positions index a chunk and fit in 32 bits, so the top bit is free; the
/// event itself is the chunk's at that position.
pub const FLIP_REPORTS: u64 = 1 << 63;

/// A command routed to a shard.
#[derive(Debug)]
pub enum ShardCmd {
    /// Speculatively evaluate `window[start..end]` of a **shared** columnar
    /// event window: the shard scans the stream column, selects the events
    /// it owns, and evaluates them in `seq` order (`seq` = position in the
    /// window). The same `Arc` is sent to every shard, so the coordinator
    /// copies nothing per event.
    EvalWindow {
        /// The shared columnar window (one `Arc` clone per shard).
        window: Arc<EventBatch>,
        /// First window position of this evaluation round.
        start: usize,
        /// One past the last window position of this round.
        end: usize,
        /// Pooled output buffer the shard fills with its tentative reports
        /// and hands back in the `Evaluated` reply — the coordinator
        /// recycles it, so steady-state rounds report without allocating.
        reports: Vec<SpecEvent>,
    },
    /// Commit speculative applications with `seq < keep_below`: nothing
    /// rewinds them again. Later applications stay journaled, for a touch
    /// of every source to respeculate (use `u64::MAX` to commit
    /// everything).
    Commit {
        /// First sequence number to leave journaled.
        keep_below: u64,
    },
    /// Fully deliver one update (value applied; reports for real),
    /// respeculating the source's applications at `positions`.
    Deliver {
        /// Shard-local source index.
        local: u32,
        /// The new value.
        value: f64,
        /// As for [`ShardCmd::Probe`].
        positions: Vec<u64>,
    },
    /// Probe one source, respeculating its applications at `positions`.
    Probe {
        /// Shard-local source index.
        local: u32,
        /// The source's speculated positions past the report being handled
        /// (ascending; empty outside a drain or when it has none).
        positions: Vec<u64>,
    },
    /// Probe every source of the partition, respeculating every journaled
    /// application.
    ProbeAll,
    /// Probe a batch of sources (this shard's slice of a fleet-wide
    /// `probe_many`), in slice order, respeculating the applications at
    /// `positions`.
    ProbeMany {
        /// Shard-local source indices.
        locals: Vec<u32>,
        /// The probed sources' speculated positions past the report being
        /// handled (ascending, each once).
        positions: Vec<u64>,
    },
    /// Install a filter at one source, respeculating its applications at
    /// `positions`.
    Install {
        /// Shard-local source index.
        local: u32,
        /// The filter to install.
        filter: Filter,
        /// As for [`ShardCmd::Probe`].
        positions: Vec<u64>,
    },
    /// Install a filter per source (this shard's slice of a fleet-wide
    /// `install_many`), in slice order, respeculating the applications at
    /// `positions`.
    InstallMany {
        /// Shard-local `(source index, filter)` pairs.
        items: Vec<(u32, Filter)>,
        /// As for [`ShardCmd::ProbeMany`].
        positions: Vec<u64>,
    },
    /// Install a filter at every source of the partition (shard half of a
    /// global broadcast; the coordinator meters the operation),
    /// respeculating every journaled application.
    Broadcast {
        /// The filter to install everywhere.
        filter: Filter,
    },
    /// Ground-truth values of the partition (local order) — oracle/tests.
    TruthSnapshot,
    /// The messages the partition's sources exchanged with the server: the
    /// sum of their traffic counters — tests.
    CountTraffic,
    /// Serialize the rows `rows` selects of the shard's durable state (its
    /// local [`SourceFleet`]: values, filters, report baselines) for a
    /// checkpoint ([`SourceFleet::encode_rows`]). [`Rows::All`] is a full
    /// image, so it also clears the dirty bits. Only valid at
    /// chunk-boundary quiescence — no in-flight speculation.
    SaveState {
        /// Every source, or the ones changed since the last full image.
        rows: Rows,
    },
    /// Overwrite the shard's fleet with the rows a checkpoint holds for it
    /// — `image[range]`, written by [`ShardCmd::SaveState`] with the same
    /// `rows`. The image is shared, so no shard copies it.
    RestoreState {
        /// The checkpoint image.
        image: Arc<Vec<u8>>,
        /// This shard's rows within it.
        range: Range<usize>,
        /// The selection the rows were written with.
        rows: Rows,
    },
    /// Install the shard's trace ring (shares the server's trace epoch so
    /// all tracks land on one timeline).
    SetTrace {
        /// The ring the shard records its spans into.
        ring: TraceRing,
    },
    /// Drain the shard's recorded trace events for export.
    TakeTrace,
    /// Report how many trace events the shard's ring suppressed because it
    /// was full.
    TraceDropped,
}

/// A shard's reply to one command.
#[derive(Debug)]
pub enum ShardReply {
    /// Outcome of [`ShardCmd::EvalWindow`].
    Evaluated {
        /// Tentative reports (filter violations), in ascending `seq` order.
        reports: Vec<SpecEvent>,
        /// Events speculatively applied (silent + tentative reports).
        evaluated: u32,
        /// Wall time the shard spent on the round (ownership scan
        /// included), for metrics only.
        busy_ns: u64,
        /// The portion of `busy_ns` spent scanning the shared window for
        /// owned events.
        scan_ns: u64,
    },
    /// Outcome of [`ShardCmd::Deliver`].
    Delivered {
        /// The report value, if the filter was violated.
        report: Option<f64>,
        /// The command's `positions` buffer, now holding the flips.
        flips: Vec<u64>,
    },
    /// Outcome of [`ShardCmd::Probe`].
    Probed {
        /// The probed value.
        value: f64,
        /// The command's `positions` buffer, now holding the flips.
        flips: Vec<u64>,
    },
    /// Outcome of [`ShardCmd::ProbeAll`].
    ProbedAll {
        /// Values in local order.
        values: Vec<f64>,
        /// The respeculated applications whose report bit flipped.
        flips: Vec<u64>,
        /// Wall time the shard spent on its slice — the coordinator
        /// attributes it to the parallel fleet-op component of the model.
        busy_ns: u64,
    },
    /// Outcome of [`ShardCmd::ProbeMany`].
    ProbedMany {
        /// Values aligned with the requested slice.
        values: Vec<f64>,
        /// The command's `positions` buffer, now holding the flips.
        flips: Vec<u64>,
        /// Wall time the shard spent on its slice.
        busy_ns: u64,
    },
    /// Outcome of [`ShardCmd::Install`].
    Installed {
        /// The sync-report value, if any.
        sync: Option<f64>,
        /// The command's `positions` buffer, now holding the flips.
        flips: Vec<u64>,
    },
    /// Outcome of [`ShardCmd::InstallMany`].
    InstalledMany {
        /// Per-item sync-report values aligned with the requested slice.
        syncs: Vec<Option<f64>>,
        /// The command's `positions` buffer, now holding the flips.
        flips: Vec<u64>,
        /// Wall time the shard spent on its slice.
        busy_ns: u64,
    },
    /// Outcome of [`ShardCmd::Broadcast`].
    Broadcasted {
        /// Sync reports `(local, value)` in ascending local order.
        syncs: Vec<(u32, f64)>,
        /// The respeculated applications whose report bit flipped.
        flips: Vec<u64>,
        /// Wall time the shard spent on its partition.
        busy_ns: u64,
    },
    /// Outcome of [`ShardCmd::TruthSnapshot`]: values in local order.
    Truth(Vec<f64>),
    /// Outcome of [`ShardCmd::CountTraffic`].
    Traffic(u64),
    /// Outcome of [`ShardCmd::SaveState`]: the serialized local fleet rows,
    /// their row table declared.
    State(asf_persist::StateWriter),
    /// Outcome of [`ShardCmd::RestoreState`]: whether the rows decoded (a
    /// corrupt image is an error, never a panic).
    Restored(asf_persist::Result<()>),
    /// Acknowledges a command with no payload ([`ShardCmd::Commit`],
    /// [`ShardCmd::SetTrace`]).
    Ack,
    /// Outcome of [`ShardCmd::TakeTrace`]: the recorded events, in order.
    Trace(Vec<TraceEvent>),
    /// Outcome of [`ShardCmd::TraceDropped`].
    TraceDropped(u64),
}

/// A worker shard owning one partition of sources.
#[derive(Debug)]
pub struct Shard {
    fleet: SourceFleet,
    /// The global partition map and this shard's index in it — what lets
    /// the shard *self-partition* a shared event window.
    partition: Partition,
    shard_id: u32,
    /// Reused sync-report buffer for broadcasts (cleared per use).
    broadcast_scratch: Vec<(StreamId, f64)>,
    /// Reused selection buffer of the ownership scan: `(offset into the
    /// round, local index)` per owned event. Its length is a high-water
    /// mark, not a count; it never crosses the channel.
    select_scratch: Vec<(u32, u32)>,
    /// Reused flip buffer of a respeculation, copied into the command's
    /// `positions` buffer for the reply.
    flips: Vec<u64>,
    /// Undo journal of the in-flight speculative batch.
    spec: SpecLog,
    /// Cumulative busy time (ns), metrics only: see [`Shard::busy_ns`].
    busy_ns: u64,
    /// This shard's trace ring (disabled unless the server installs one
    /// via [`ShardCmd::SetTrace`]).
    trace: TraceRing,
}

impl Shard {
    /// Builds a single-shard (whole-population) shard over its initial
    /// values — the one-worker special case of [`Shard::with_partition`].
    ///
    /// # Panics
    ///
    /// Panics if the partition is empty — use at most as many shards as
    /// streams.
    pub fn new(local_initial: &[f64]) -> Self {
        Self::with_partition(local_initial, Partition::new(1), 0)
    }

    /// Builds shard `shard_id` of `partition` over its partition's initial
    /// values (local order).
    ///
    /// # Panics
    ///
    /// Panics if the partition slice is empty or `shard_id` is out of
    /// range.
    pub fn with_partition(local_initial: &[f64], partition: Partition, shard_id: usize) -> Self {
        assert!(shard_id < partition.shards(), "shard {shard_id} out of range");
        Self {
            fleet: SourceFleet::from_values(local_initial),
            partition,
            shard_id: shard_id as u32,
            broadcast_scratch: Vec::new(),
            select_scratch: Vec::new(),
            flips: Vec::new(),
            spec: SpecLog::new(),
            busy_ns: 0,
            trace: TraceRing::disabled(),
        }
    }

    /// Number of sources in this partition.
    pub fn len(&self) -> usize {
        self.fleet.len()
    }

    /// Whether the partition is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.fleet.is_empty()
    }

    /// Number of shards in this shard's partition map.
    pub(crate) fn shards(&self) -> usize {
        self.partition.shards()
    }

    /// Cumulative busy time in nanoseconds (metrics only): the scan and
    /// evaluation time of every [`ShardCmd::EvalWindow`] plus the elapsed
    /// time of every batch fleet operation ([`ShardCmd::ProbeAll`],
    /// [`ShardCmd::ProbeMany`], [`ShardCmd::InstallMany`],
    /// [`ShardCmd::Broadcast`]). Single-stream touches and control
    /// commands read no clock: a report's re-install is one of the former,
    /// and a clock pair costs as much as the touch.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Asks the CPU to start loading source `local`'s whole row, hot and
    /// cold records ([`SourceFleet::prefetch_row`]): the report drain
    /// calls it a fixed distance ahead of the reports whose handlers
    /// re-install there. Changes nothing, and ignores an id past the
    /// partition.
    pub(crate) fn prefetch_row(&self, local: u32) {
        self.fleet.prefetch_row(StreamId(local));
    }

    /// Executes one command: on the coordinator for a coordinator-run
    /// shard, in the worker loop otherwise.
    pub fn exec(&mut self, cmd: ShardCmd) -> ShardReply {
        match cmd {
            ShardCmd::EvalWindow { window, start, end, reports } => {
                self.eval_window(&window, start, end, reports)
            }
            ShardCmd::Commit { keep_below } => {
                self.spec.commit_prefix(&mut self.fleet, keep_below);
                ShardReply::Ack
            }
            ShardCmd::Deliver { local, value, positions } => {
                let report = self
                    .respeculate(Some(&positions), |fleet| fleet.deliver(StreamId(local), value));
                ShardReply::Delivered { report, flips: self.flips_into(positions) }
            }
            ShardCmd::Probe { local, positions } => {
                let value =
                    self.respeculate(Some(&positions), |fleet| fleet.probe(StreamId(local)));
                ShardReply::Probed { value, flips: self.flips_into(positions) }
            }
            ShardCmd::ProbeAll => {
                let ((values, flips), busy_ns) = self.timed(|shard| {
                    let mut values = Vec::new();
                    shard.respeculate(None, |fleet| fleet.probe_all(&mut values));
                    (values, shard.flips_into(Vec::new()))
                });
                ShardReply::ProbedAll { values, flips, busy_ns }
            }
            ShardCmd::ProbeMany { locals, positions } => {
                let ((values, flips), busy_ns) = self.timed(|shard| {
                    let values = shard.respeculate(Some(&positions), |fleet| {
                        locals.iter().map(|&local| fleet.probe(StreamId(local))).collect()
                    });
                    (values, shard.flips_into(positions))
                });
                ShardReply::ProbedMany { values, flips, busy_ns }
            }
            ShardCmd::Install { local, filter, positions } => {
                let sync = self
                    .respeculate(Some(&positions), |fleet| fleet.install(StreamId(local), filter));
                ShardReply::Installed { sync, flips: self.flips_into(positions) }
            }
            ShardCmd::InstallMany { items, positions } => {
                let ((syncs, flips), busy_ns) = self.timed(|shard| {
                    let syncs = shard.respeculate(Some(&positions), |fleet| {
                        let install = |(local, filter)| fleet.install(StreamId(local), filter);
                        items.into_iter().map(install).collect()
                    });
                    (syncs, shard.flips_into(positions))
                });
                ShardReply::InstalledMany { syncs, flips, busy_ns }
            }
            ShardCmd::Broadcast { filter } => {
                // The sync buffer is shard-held scratch (reinit storms
                // broadcast every round); only the (local, value) reply
                // that crosses the channel is allocated.
                let ((syncs, flips), busy_ns) = self.timed(|shard| {
                    let mut syncs = std::mem::take(&mut shard.broadcast_scratch);
                    shard.respeculate(None, |fleet| fleet.broadcast(filter, &mut syncs));
                    let reply = syncs.iter().map(|&(id, v)| (id.0, v)).collect();
                    shard.broadcast_scratch = syncs;
                    (reply, shard.flips_into(Vec::new()))
                });
                ShardReply::Broadcasted { syncs, flips, busy_ns }
            }
            ShardCmd::TruthSnapshot => ShardReply::Truth(self.fleet.values().collect()),
            ShardCmd::CountTraffic => {
                ShardReply::Traffic(self.fleet.iter().map(|s| s.traffic()).sum())
            }
            ShardCmd::SaveState { rows } => {
                debug_assert!(
                    self.spec.is_empty(),
                    "checkpoints are only taken at chunk-boundary quiescence"
                );
                let mut w = asf_persist::StateWriter::new();
                self.fleet.encode_rows(&mut w, rows);
                if rows == Rows::All {
                    self.fleet.clear_dirty();
                }
                ShardReply::State(w)
            }
            ShardCmd::RestoreState { image, range, rows } => {
                let mut r = asf_persist::StateReader::new(&image[range]);
                let restored = self.fleet.decode_rows(&mut r, rows).and_then(|()| r.finish());
                self.spec = SpecLog::new();
                ShardReply::Restored(restored)
            }
            ShardCmd::SetTrace { ring } => {
                self.trace = ring;
                ShardReply::Ack
            }
            ShardCmd::TakeTrace => ShardReply::Trace(self.trace.take()),
            ShardCmd::TraceDropped => ShardReply::TraceDropped(self.trace.dropped()),
        }
    }

    /// Runs one batch fleet operation and adds its elapsed time to the busy
    /// meter. The time is returned for the reply, so the coordinator can
    /// attribute it to the parallel component of the scaling model (shards
    /// work their slices concurrently).
    fn timed<R>(&mut self, op: impl FnOnce(&mut Self) -> R) -> (R, u64) {
        let start = Instant::now();
        let out = op(self);
        let busy_ns = start.elapsed().as_nanos() as u64;
        self.busy_ns += busy_ns;
        (out, busy_ns)
    }

    fn eval_window(
        &mut self,
        window: &EventBatch,
        start: usize,
        end: usize,
        mut reports: Vec<SpecEvent>,
    ) -> ShardReply {
        // Phase 1 — ownership scan: walk the shared stream column and
        // select this shard's events into the pooled local buffer. Every
        // shard scans its window concurrently, and the time is reported as
        // `scan_ns`. The loop is branch-free: every event is written to the
        // next free slot, and the slot is kept — the write index advanced —
        // only when this shard owns the event. Slots past `owned` hold
        // stale entries.
        let scan_start = Instant::now();
        self.trace.begin(TraceDepth::Coarse, "shard_eval", start as u64);
        self.trace.begin(TraceDepth::Fine, "ownership_scan", start as u64);
        let mut selected = std::mem::take(&mut self.select_scratch);
        let streams = &window.streams()[start..end];
        let values = &window.values()[start..end];
        assert!(u32::try_from(streams.len()).is_ok(), "evaluation round too long for u32 offsets");
        if selected.len() < streams.len() {
            selected.resize(streams.len(), (0, 0));
        }
        let mut owned = 0usize;
        for (i, &stream) in streams.iter().enumerate() {
            let (shard, local) = self.partition.split(stream);
            selected[owned] = (i as u32, local);
            owned += usize::from(shard == self.shard_id);
        }
        self.trace.end(TraceDepth::Fine);
        let scan_ns = scan_start.elapsed().as_nanos() as u64;

        // Phase 2 — optimistic evaluation of the selected events, each
        // journaled; `SpecLog::apply` enforces that sequence numbers keep
        // increasing. The selection names every row the loop will touch,
        // so each step first prefetches the hot record of the owned event
        // `PREFETCH_DISTANCE` positions ahead: at n = 500k the rows far
        // exceed L2, and the §3.1 test would otherwise wait on each row's
        // load. The lookahead stops at `owned`: later slots hold stale
        // entries, other shards' local ids among them.
        let eval_start = Instant::now();
        reports.clear();
        let owned_events = &selected[..owned];
        for (k, &(i, local)) in owned_events.iter().enumerate() {
            if let Some(&(_, ahead)) = owned_events.get(k + PREFETCH_DISTANCE) {
                self.fleet.prefetch(StreamId(ahead));
            }
            let ev =
                SpecEvent { seq: (start + i as usize) as u64, local, value: values[i as usize] };
            if self.spec.apply(&mut self.fleet, ev.seq, StreamId(local), ev.value).is_some() {
                reports.push(ev);
            }
        }
        let evaluated = owned as u32;
        self.select_scratch = selected;
        self.trace.instant(TraceDepth::Fine, "spec_tip", self.spec.last_seq().unwrap_or(0));
        self.trace.end(TraceDepth::Coarse);
        let busy_ns = scan_ns + eval_start.elapsed().as_nanos() as u64;
        self.busy_ns += busy_ns;
        ShardReply::Evaluated { reports, evaluated, busy_ns, scan_ns }
    }

    /// Runs `touch` against the exact serial state of the sources it
    /// reaches: their speculated applications at `positions` — every
    /// journaled one for a touch of every source (`None`) — are rewound
    /// first and replayed after ([`SpecLog::respeculate`],
    /// [`SpecLog::respeculate_all`]), and the flips ([`FLIP_REPORTS`]) are
    /// left in the scratch for [`Self::flips_into`]. No position — at
    /// quiescence, or a source with no speculated successor — is the bare
    /// touch. Neither allocates once the flip scratch is warm.
    fn respeculate<R>(
        &mut self,
        positions: Option<&[u64]>,
        touch: impl FnOnce(&mut SourceFleet) -> R,
    ) -> R {
        let rewound = positions.map_or(self.spec.len(), <[u64]>::len);
        if rewound > 0 {
            self.trace.instant(TraceDepth::Fine, "respeculate", rewound as u64);
        }
        let flips = &mut self.flips;
        flips.clear();
        let flipped = |seq: u64, _: StreamId, _: f64, reports: bool| {
            flips.push(seq | if reports { FLIP_REPORTS } else { 0 })
        };
        match positions {
            Some(seqs) => self.spec.respeculate(&mut self.fleet, seqs, touch, flipped),
            None => self.spec.respeculate_all(&mut self.fleet, touch, flipped),
        }
    }

    /// The last respeculation's flips, written over `buffer` (the
    /// command's positions, a superset, so it never grows).
    fn flips_into(&self, mut buffer: Vec<u64>) -> Vec<u64> {
        buffer.clear();
        buffer.extend_from_slice(&self.flips);
        buffer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_roundtrip() {
        let p = Partition::new(3);
        for g in 0..100u32 {
            let id = StreamId(g);
            let s = p.shard_of(id);
            let l = p.local_of(id);
            assert_eq!(p.global_of(s, l), id);
        }
    }

    #[test]
    fn split_values_strides() {
        let p = Partition::new(2);
        let per = p.split_values(&[10.0, 11.0, 12.0, 13.0, 14.0]);
        assert_eq!(per[0], vec![10.0, 12.0, 14.0]);
        assert_eq!(per[1], vec![11.0, 13.0]);
    }

    #[test]
    fn reciprocal_ownership_equals_division_at_the_extremes() {
        let mut rng = simkit::SimRng::seed_from_u64(0xD1_5EED);
        for k in [1u32, 2, 3, 7, 8, 255, 1 << 31, u32::MAX] {
            let p = Partition::new(k as usize);
            let mut ids = vec![0, k - 1, k, u32::MAX];
            ids.extend((0..64).map(|_| rng.next_u64() as u32));
            if k <= 255 {
                ids.extend(0..10_000);
            }
            for g in ids {
                let id = StreamId(g);
                assert_eq!(p.shard_of(id), (g % k) as usize, "shard_of({g}) at k = {k}");
                assert_eq!(p.local_of(id), g / k, "local_of({g}) at k = {k}");
                assert_eq!(p.global_of(p.shard_of(id), p.local_of(id)), id, "k = {k}");
            }
            if k <= 255 {
                let initial: Vec<f64> = (0..1000).map(f64::from).collect();
                let per = p.split_values(&initial);
                for (s, local) in per.iter().enumerate() {
                    let stride: Vec<f64> =
                        initial.iter().copied().skip(s).step_by(k as usize).collect();
                    assert_eq!(*local, stride, "split_values shard {s} at k = {k}");
                }
            }
        }
    }

    #[test]
    fn branch_free_selection_equals_a_filter_and_push_scan() {
        // Shard 1 of 3 over 30 sources that were never reported: every
        // owned event is a report, so the reports are the selection.
        let (k, me, n) = (3u32, 1u32, 30u32);
        let partition = Partition::new(k as usize);
        let initial: Vec<f64> = (0..n).map(f64::from).collect();
        let mut shard =
            Shard::with_partition(&partition.split_values(&initial)[me as usize], partition, 1);
        let reference = |window: &EventBatch, start: usize, end: usize| -> Vec<(u64, u32, u64)> {
            (start..end)
                .filter(|&i| window.streams()[i].0 % k == me)
                .map(|i| (i as u64, window.streams()[i].0 / k, window.values()[i].to_bits()))
                .collect()
        };
        let selected = |shard: &mut Shard, window: &Arc<EventBatch>, start, end| match eval(
            shard, window, start, end,
        ) {
            ShardReply::Evaluated { reports, evaluated, .. } => {
                assert_eq!(evaluated as usize, reports.len(), "every owned event reports");
                reports.iter().map(|e| (e.seq, e.local, e.value.to_bits())).collect::<Vec<_>>()
            }
            other => panic!("expected Evaluated, got {other:?}"),
        };
        let owned: Vec<u32> = (0..n).filter(|g| g % k == me).collect();
        let foreign: Vec<u32> = (0..n).filter(|g| g % k != me).collect();
        let events = |ids: &[u32], len: usize| -> Vec<(u32, f64)> {
            (0..len).map(|i| (ids[i * 7 % ids.len()], 100.0 + i as f64)).collect()
        };
        let mut edges = events(&foreign, 40);
        edges[0].0 = owned[2];
        edges[39].0 = owned[5];
        // The all-owned window comes first, so the shorter windows after it
        // run over a buffer full of stale owned events.
        for window in
            [events(&owned, 64), events(&foreign, 50), edges, events(&[5, 7, 8, 1, 4], 45)]
        {
            let window = window_of(&window);
            assert_eq!(
                selected(&mut shard, &window, 0, window.len()),
                reference(&window, 0, window.len())
            );
            commit_round(std::slice::from_mut(&mut shard), u64::MAX);
        }

        // A window evaluated in two rounds selects what one round does.
        let window = window_of(&events(&[4, 0, 7, 13, 2, 10, 1], 48));
        let mut rounds = selected(&mut shard, &window, 0, 21);
        rounds.extend(selected(&mut shard, &window, 21, window.len()));
        assert_eq!(rounds, reference(&window, 0, window.len()));
    }

    /// A source row as the tests compare it: value, last-reported, filter
    /// and traffic.
    fn row(fleet: &SourceFleet, local: u32) -> (f64, Option<f64>, Filter, u64) {
        let s = fleet.source(StreamId(local));
        (s.value(), s.last_reported(), s.filter().clone(), s.traffic())
    }

    #[test]
    fn prefetch_lookahead_ends_at_the_owned_count_and_matches_serial_delivery() {
        // Owned counts on both sides of the prefetch distance, on every
        // shard of 1, 2 and 3: each must report, rewind and leave its rows
        // exactly as serial delivery to one fleet does.
        const D: usize = PREFETCH_DISTANCE;
        for k in 1..=3usize {
            let partition = Partition::new(k);
            let n = k * (2 * D + 8);
            let initial: Vec<f64> = (0..n).map(|g| 500.0 + (g % 7) as f64).collect();
            for me in 0..k {
                let local_initial = &partition.split_values(&initial)[me];
                let len = local_initial.len();
                let mut shard = Shard::with_partition(local_initial, partition, me);
                let mut serial = SourceFleet::from_values(local_initial);
                shard.exec(ShardCmd::ProbeAll);
                serial.probe_all(&mut Vec::new());
                for l in 0..len as u32 {
                    let filter = Filter::interval(450.0 + f64::from(l % 5), 550.0);
                    install(&mut shard, l, filter.clone(), Vec::new());
                    serial.install(StreamId(l), filter);
                }
                // The first window fills the selection buffer past 2D + 1,
                // so every shorter window after it runs over stale slots.
                let counts = [2 * D + 9, 0, 1, D - 1, D, D + 1, 2 * D + 1];
                for (round, owned) in counts.into_iter().enumerate() {
                    let tag = format!("k={k} shard={me} owned={owned}");
                    // Each owned event follows k − 1 foreign ones, and a
                    // foreign tail ends the window, so at k > 1 the window
                    // is longer than the owned count.
                    let foreign = |j: usize, s: usize| {
                        (partition.global_of((me + s) % k, ((j * 3 + s) % len) as u32).0, 0.0)
                    };
                    let mut events = Vec::new();
                    for j in 0..owned {
                        events.extend((1..k).map(|s| foreign(j, s)));
                        let local = ((j * 5 + round) % len) as u32;
                        let value = if (j + round) % 3 == 0 { 600.0 + j as f64 } else { 500.0 };
                        events.push((partition.global_of(me, local).0, value));
                    }
                    events.extend((1..k).map(|s| foreign(owned, s)));
                    let window = window_of(&events);
                    let ShardReply::Evaluated { reports, evaluated, .. } =
                        eval(&mut shard, &window, 0, window.len())
                    else {
                        panic!("{tag}: expected Evaluated")
                    };
                    assert_eq!(evaluated as usize, owned, "{tag}");

                    // Serially: deliver the owned events in order, probing
                    // every source before the middle one (after the last
                    // when there is none). The shard commits below it and
                    // probes, rewinding and replaying the suffix.
                    let mine: Vec<usize> = (0..events.len())
                        .filter(|&i| partition.shard_of(StreamId(events[i].0)) == me)
                        .collect();
                    let mid = mine.get(owned / 2).map_or(events.len(), |&i| i) as u64;
                    let (mut want, mut probed) = (Vec::new(), Vec::new());
                    for &i in &mine {
                        if i as u64 == mid {
                            serial.probe_all(&mut probed);
                        }
                        let (g, v) = events[i];
                        if serial.deliver(StreamId(partition.local_of(StreamId(g))), v).is_some() {
                            want.push(i as u64);
                        }
                    }
                    if mine.is_empty() {
                        serial.probe_all(&mut probed);
                    }
                    commit_round(std::slice::from_mut(&mut shard), mid);
                    let ShardReply::ProbedAll { values, flips, .. } =
                        shard.exec(ShardCmd::ProbeAll)
                    else {
                        panic!("{tag}: expected ProbedAll")
                    };
                    assert_eq!(values, probed, "{tag}: the rewound state differs");
                    let mut got: Vec<u64> = reports.iter().map(|e| e.seq).collect();
                    for f in flips {
                        let seq = f & !FLIP_REPORTS;
                        if f & FLIP_REPORTS != 0 {
                            got.push(seq);
                        } else {
                            got.retain(|&s| s != seq);
                        }
                    }
                    got.sort_unstable();
                    assert_eq!(got, want, "{tag}: reports differ");
                    commit_round(std::slice::from_mut(&mut shard), u64::MAX);
                    for l in 0..len as u32 {
                        assert_eq!(row(&shard.fleet, l), row(&serial, l), "{tag}: row {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn prefetch_accepts_every_id_the_lookahead_can_name() {
        // The evaluation loop's hot-record hint and the drain's whole-row
        // hint alike: ids past the partition are ignored.
        let shard = Shard::new(&[1.0, 2.0, 3.0]);
        let before: Vec<_> = (0..3).map(|l| row(&shard.fleet, l)).collect();
        for id in (0..shard.len() + PREFETCH_DISTANCE).map(|i| i as u32).chain([u32::MAX]) {
            shard.fleet.prefetch(StreamId(id));
            shard.prefetch_row(id);
        }
        assert_eq!((0..3).map(|l| row(&shard.fleet, l)).collect::<Vec<_>>(), before);
    }

    /// A shared columnar window of `(global stream, value)` events; the
    /// event's position is its `seq`.
    fn window_of(events: &[(u32, f64)]) -> Arc<EventBatch> {
        let mut window = EventBatch::new();
        for (t, &(g, v)) in events.iter().enumerate() {
            window.push_parts(t as f64, StreamId(g), v);
        }
        Arc::new(window)
    }

    /// Installs `filter` at `local`, respeculating `positions`: the sync
    /// report and the flips as `(seq, now_reports)`.
    fn install(
        shard: &mut Shard,
        local: u32,
        filter: Filter,
        positions: Vec<u64>,
    ) -> (Option<f64>, Vec<(u64, bool)>) {
        match shard.exec(ShardCmd::Install { local, filter, positions }) {
            ShardReply::Installed { sync, flips } => {
                (sync, flips.iter().map(|&f| (f & !FLIP_REPORTS, f & FLIP_REPORTS != 0)).collect())
            }
            other => panic!("expected Installed, got {other:?}"),
        }
    }

    #[test]
    fn install_respeculates_later_positions_and_reports_exactly_the_flips() {
        // One source at 500 under [400, 600]: seq 1 reports (700), seq 3
        // reports (back inside), seq 0, 2 and 4 are silent.
        let mut shard = Shard::new(&[500.0]);
        shard.exec(ShardCmd::ProbeAll);
        install(&mut shard, 0, Filter::interval(400.0, 600.0), Vec::new());
        let window = window_of(&[(0, 550.0), (0, 700.0), (0, 650.0), (0, 500.0), (0, 520.0)]);
        let ShardReply::Evaluated { reports, .. } = eval(&mut shard, &window, 0, 5) else {
            panic!("expected Evaluated")
        };
        assert_eq!(reports.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 3]);

        // The handler of the report at 0 widens the filter: 700 and 500
        // stop reporting, the silent ones stay silent.
        let wide = install(&mut shard, 0, Filter::interval(0.0, 1000.0), vec![1, 2, 3, 4]);
        assert_eq!(wide, (None, vec![(1, false), (3, false)]));
        // Narrowing again at 2 (positions 3, 4 only): 500 re-enters and
        // reports, 520 does not; the install syncs 650 (the server last
        // heard 500, inside; the source is at 650, outside).
        let narrow = install(&mut shard, 0, Filter::interval(400.0, 600.0), vec![3, 4]);
        assert_eq!(narrow, (Some(650.0), vec![(3, true)]));

        // The same history, serially, on a fresh shard, with a probe of
        // every source after 2.
        let mut serial = Shard::new(&[500.0]);
        serial.exec(ShardCmd::ProbeAll);
        install(&mut serial, 0, Filter::interval(400.0, 600.0), Vec::new());
        let deliver = |shard: &mut Shard, value| deliver(shard, 0, value);
        assert_eq!(deliver(&mut serial, 550.0), None);
        install(&mut serial, 0, Filter::interval(0.0, 1000.0), Vec::new());
        assert_eq!(deliver(&mut serial, 700.0), None);
        assert_eq!(deliver(&mut serial, 650.0), None);
        assert_eq!(
            install(&mut serial, 0, Filter::interval(400.0, 600.0), Vec::new()).0,
            Some(650.0)
        );
        serial.exec(ShardCmd::ProbeAll);
        assert_eq!(deliver(&mut serial, 500.0), Some(500.0));
        assert_eq!(deliver(&mut serial, 520.0), None);

        // The probe of every source at 2 rewinds the re-journaled 3 and 4:
        // it must observe the serial state after 2, and the replay must
        // land where serial execution does — value, last-reported,
        // filter, traffic.
        shard.exec(ShardCmd::Commit { keep_below: 3 });
        let ShardReply::ProbedAll { values, flips, .. } = shard.exec(ShardCmd::ProbeAll) else {
            panic!("expected ProbedAll")
        };
        assert_eq!((values, flips), (vec![650.0], Vec::new()));
        let observe = |shard: &Shard| {
            let s = shard.fleet.source(StreamId(0));
            (s.value(), s.last_reported(), s.filter().clone(), s.traffic())
        };
        assert_eq!(observe(&shard), observe(&serial));
    }

    /// Delivers `value` to `local` with nothing to respeculate.
    fn deliver(shard: &mut Shard, local: u32, value: f64) -> Option<f64> {
        match shard.exec(ShardCmd::Deliver { local, value, positions: Vec::new() }) {
            ShardReply::Delivered { report, flips } => {
                assert!(flips.is_empty());
                report
            }
            other => panic!("expected Delivered, got {other:?}"),
        }
    }

    fn eval(shard: &mut Shard, window: &Arc<EventBatch>, start: usize, end: usize) -> ShardReply {
        shard.exec(ShardCmd::EvalWindow {
            window: Arc::clone(window),
            start,
            end,
            reports: Vec::new(),
        })
    }

    #[test]
    fn eval_reports_violations_and_a_probe_of_all_rewinds_the_uncommitted_suffix() {
        // Shard 0 of 2 owns globals 0 / 2 (locals 0 / 1) at 500 / 100, with
        // active filters (probe marks reported).
        let mut shard = Shard::with_partition(&[500.0, 100.0], Partition::new(2), 0);
        shard.exec(ShardCmd::ProbeAll);
        install(&mut shard, 0, Filter::interval(400.0, 600.0), Vec::new());
        install(&mut shard, 1, Filter::interval(0.0, 200.0), Vec::new());

        // seq 0: silent, seq 2: silent, seq 5: violation, seq 7: silent
        // (post-violation state: source 0 reported 700, outside -> outside);
        // the other positions belong to shard 1 and must be skipped.
        let window = window_of(&[
            (0, 550.0),
            (1, 1.0),
            (2, 150.0),
            (1, 2.0),
            (3, 3.0),
            (0, 700.0),
            (1, 4.0),
            (0, 800.0),
        ]);
        match eval(&mut shard, &window, 0, 8) {
            ShardReply::Evaluated { reports, evaluated, .. } => {
                assert_eq!(reports.len(), 1);
                assert_eq!((reports[0].seq, reports[0].local, reports[0].value), (5, 0, 700.0));
                assert_eq!(evaluated, 4, "optimistic eval continues past violations");
            }
            other => panic!("unexpected reply {other:?}"),
        }

        // A probe of every source from the handler of seq 5: seq 0/2/5
        // commit, and seq 7's application unwinds to the post-report state
        // for the probe, then stands again, still silent.
        shard.exec(ShardCmd::Commit { keep_below: 6 });
        match shard.exec(ShardCmd::ProbeAll) {
            ShardReply::ProbedAll { values, flips, .. } => {
                assert_eq!((values, flips), (vec![700.0, 150.0], Vec::new()));
            }
            other => panic!("unexpected reply {other:?}"),
        }
        match shard.exec(ShardCmd::TruthSnapshot) {
            ShardReply::Truth(values) => assert_eq!(values, vec![800.0, 150.0]),
            other => panic!("unexpected reply {other:?}"),
        }
        // The tentative report refreshed last-reported: moving back inside
        // the band now violates again.
        assert_eq!(deliver(&mut shard, 0, 550.0), Some(550.0));
    }

    /// One evaluation round over `shards`: the merged reports as
    /// `(seq, global stream, value)` in `seq` order.
    fn eval_round(
        shards: &mut [Shard],
        partition: Partition,
        window: &Arc<EventBatch>,
        start: usize,
        end: usize,
    ) -> Vec<(u64, StreamId, f64)> {
        let mut merged = Vec::new();
        for (s, shard) in shards.iter_mut().enumerate() {
            match eval(shard, window, start, end) {
                ShardReply::Evaluated { reports, .. } => merged.extend(
                    reports
                        .into_iter()
                        .map(|ev| (ev.seq, partition.global_of(s, ev.local), ev.value)),
                ),
                other => panic!("expected Evaluated, got {other:?}"),
            }
        }
        merged.sort_by_key(|&(seq, ..)| seq);
        merged
    }

    /// Commits every shard at `keep_below`.
    fn commit_round(shards: &mut [Shard], keep_below: u64) {
        for shard in shards {
            assert!(matches!(shard.exec(ShardCmd::Commit { keep_below }), ShardReply::Ack));
        }
    }

    /// Broadcasts `filter` to every shard, which must sync nothing: the
    /// flips as `(seq, global stream, now reports)`, in `seq` order.
    fn broadcast_round(
        shards: &mut [Shard],
        window: &EventBatch,
        filter: &Filter,
    ) -> Vec<(u64, StreamId, bool)> {
        let mut flipped = Vec::new();
        for shard in shards {
            match shard.exec(ShardCmd::Broadcast { filter: filter.clone() }) {
                ShardReply::Broadcasted { syncs, flips, .. } => {
                    assert!(syncs.is_empty(), "every source is consistent with {filter:?}");
                    flipped.extend(flips.iter().map(|&f| {
                        let seq = f & !FLIP_REPORTS;
                        (seq, window.streams()[seq as usize], f & FLIP_REPORTS != 0)
                    }));
                }
                other => panic!("expected Broadcasted, got {other:?}"),
            }
        }
        flipped.sort_by_key(|&(seq, ..)| seq);
        flipped
    }

    #[test]
    fn self_partitioning_shards_with_rollback_equal_one_whole_population_shard() {
        // One shared columnar window, evaluated by two self-partitioning
        // shards and by a single shard owning the whole population (the
        // reference: no ownership split at all). Both must produce
        // identical reports, identical flips when a broadcast mid-window
        // rolls the suffix back and re-applies it, and identical source
        // state after it.
        let initial = [500.0, 100.0, 450.0, 150.0]; // shard0: {0,2}→{500,450}, shard1: {1,3}
        let make = |k: usize| -> (Partition, Vec<Shard>) {
            let partition = Partition::new(k);
            let shards = partition
                .split_values(&initial)
                .iter()
                .enumerate()
                .map(|(s, values)| {
                    let mut shard = Shard::with_partition(values, partition, s);
                    shard.exec(ShardCmd::ProbeAll);
                    shard.exec(ShardCmd::Broadcast { filter: Filter::interval(400.0, 600.0) });
                    shard
                })
                .collect();
            (partition, shards)
        };
        let (one, mut whole) = make(1);
        let (two, mut split) = make(2);

        let window =
            window_of(&[(0, 550.0), (1, 650.0), (2, 700.0), (3, 500.0), (0, 800.0), (2, 420.0)]);

        let reference = eval_round(&mut whole, one, &window, 0, 6);
        assert!(!reference.is_empty(), "the window must produce reports to compare");
        assert_eq!(eval_round(&mut split, two, &window, 0, 6), reference, "reports diverged");

        // A broadcast from the handler of seq 2: seqs 0..=2 commit, the
        // rest roll back for the broadcast and are re-applied under the
        // new filter. Under [0, 1000] nothing crosses the band, so the
        // reports at 3, 4 and 5 go silent.
        commit_round(&mut whole, 3);
        commit_round(&mut split, 3);
        let wide = Filter::interval(0.0, 1000.0);
        let reference = broadcast_round(&mut whole, &window, &wide);
        let silenced =
            vec![(3, StreamId(3), false), (4, StreamId(0), false), (5, StreamId(2), false)];
        assert_eq!(reference, silenced);
        assert_eq!(broadcast_round(&mut split, &window, &wide), reference, "flips diverged");
        commit_round(&mut whole, u64::MAX);
        commit_round(&mut split, u64::MAX);

        let truth = |shards: &mut [Shard], partition: Partition| -> Vec<f64> {
            let mut values = vec![0.0; initial.len()];
            for (s, shard) in shards.iter_mut().enumerate() {
                let ShardReply::Truth(local) = shard.exec(ShardCmd::TruthSnapshot) else {
                    panic!()
                };
                for (l, v) in local.into_iter().enumerate() {
                    values[partition.global_of(s, l as u32).index()] = v;
                }
            }
            values
        };
        assert_eq!(truth(&mut split, two), truth(&mut whole, one), "final source state diverged");
    }

    #[test]
    fn rollback_restores_report_state_exactly() {
        let mut shard = Shard::new(&[500.0]);
        shard.exec(ShardCmd::ProbeAll);
        install(&mut shard, 0, Filter::interval(400.0, 600.0), Vec::new());

        // seq 0 silent, seq 1 tentative report, seq 2 silent-after-report.
        let window = window_of(&[(0, 510.0), (0, 700.0), (0, 900.0)]);
        eval(&mut shard, &window, 0, 3);
        // A broadcast before all three rolls them back: it must see the
        // value and last-reported of before the batch (500 and 500, both
        // outside [600, 1000], so no sync — a last-reported left at the
        // tentative 700 would sync). The replay keeps every report bit:
        // 510 stays silent, 700 still enters and reports, 900 stays inside.
        let narrow = Filter::interval(600.0, 1000.0);
        assert_eq!(broadcast_round(std::slice::from_mut(&mut shard), &window, &narrow), vec![]);
        commit_round(std::slice::from_mut(&mut shard), u64::MAX);
        let s = shard.fleet.source(StreamId(0));
        assert_eq!((s.value(), s.last_reported(), s.traffic()), (900.0, Some(700.0), 5));
        // Leaving [600, 1000] from the reported 700 reports.
        assert_eq!(deliver(&mut shard, 0, 450.0), Some(450.0));
    }
}
