//! The coordinator: batched ingestion with optimistic, touch-invalidated
//! commits.
//!
//! ## The commit protocol
//!
//! Every chunk of time-ordered events — the shared columnar
//! [`EventBatch`], sequence-stamped by position — is **one round**. It
//! reaches the shards by **broadcast**: one `Arc` clone per shard, and each
//! shard selects the events it owns. Each shard evaluates its
//! slice **optimistically** — silent updates apply, filter violations
//! tentatively become delivered reports — and returns its violations. The
//! coordinator merges the per-shard report streams in sequence order and
//! feeds them to the protocol core one by one, exactly as the serial
//! engine would, then commits the chunk:
//!
//! ```text
//!   scatter chunk ──► gather ──► drain reports in seq order ──► commit all
//!                                   │
//!                                   └─ fleet touch at seq c: respeculate the
//!                                      positions in (c, chunk end) it reaches,
//!                                      splice the flipped report bits
//! ```
//!
//! Sources are independent, so this speculation is *provably* serial-exact
//! for as long as report handling touches no source state: a handler that
//! only mutates protocol bookkeeping (the common case for quiet
//! maintenance — ZT/FT range protocols, RTP cases 1–2, multi-query cell
//! tracking) invalidates nothing. A handler action that *does* touch the
//! fleet goes through the `router::GuardedRouter`, which keeps
//! exact only what the touch can reach, by one rule: the shards
//! **respeculate** the speculated events past the report that the
//! operation can reach — rewind them, run the operation against the exact
//! serial state, re-apply them — and only the reports whose bit flipped are
//! spliced into the report stream. A `probe`, `install` or `deliver`,
//! single or batch (the paper's usual answer to a report is re-installing
//! a filter at the stream that reported, and RTP's overflow shrink probes
//! `X` and installs at `ε + 1` candidates), reaches the touched streams'
//! events; a `broadcast` or `probe_all` (RTP's paper-mode shrink, a
//! reinitialising FT-RP) reaches every event past the report. Either way
//! the round stands: nothing is rolled back, discarded or re-evaluated.
//! Every reply was gathered before the drain began, so a touch's request
//! and reply are the only command in flight on a shard.
//!
//! ## Determinism
//!
//! Reports are consumed in sequence order, chunks commit in order, and a
//! touch runs each source it reaches against its exact serial state and
//! re-applies that source's later events as serial execution would — so
//! the coordinator is **byte-identical** to the single-threaded engine
//! (answers, ledgers, view bits, report counts), for any shard count and
//! execution mode. `tests/server_shard_invariance.rs`,
//! `tests/batch_differential.rs` and `tests/scoped_touch_differential.rs`
//! pin this per protocol.
//!
//! ## Where state lives
//!
//! The coordinator's [`ProtocolCore`] holds the protocol, the message
//! ledger, the server view and the rank forest — once, for the whole
//! population. Its `ServerCtx` is the only writer of the three: every
//! fleet operation a handler issues goes out through the
//! `router::ShardRouter`, which only moves source state, and the
//! context meters what comes back and writes it into the view. A shard
//! holds its partition's sources, its speculation journal and scratch
//! buffers; it keeps no view replica and no ledger, so a checkpoint
//! restores a shard by decoding its source rows and nothing more.
//!
//! No handler runs between a chunk's evaluation and its drain, so a whole
//! burst of independent reports — reports whose handlers only mutate
//! protocol bookkeeping — is consumed against one speculation generation
//! and committed at one quiescent point
//! ([`crate::ServerMetrics::coalesced_reports_per_group`]); the batch
//! fleet operations a handler *does* issue execute as one scatter/gather
//! each (see `router::ShardRouter`), so a reinit storm costs one
//! probe storm plus one deployment storm, not `2n` round-trips.

use std::sync::Arc;
use std::time::Instant;

use asf_core::engine::ProtocolCore;
use asf_core::protocol::{CtxStats, Protocol};
use asf_core::rank::RankForest;
use asf_core::workload::{EventBatch, UpdateEvent, Workload};
use asf_core::AnswerSet;
use asf_persist::{
    Journal, Nested, PersistError, Rows, SnapshotImage, SnapshotStore, StateReader, StateWriter,
};
use asf_telemetry::{chrome_trace, Cause, Registry, TraceDepth, TraceEvent, TraceRing};
use simkit::SimTime;
use streamnet::{
    ChaosConfig, ChaosFleet, ChaosState, ChaosStats, Ledger, MessageKind, RepairPlan, ReportFate,
    ServerView, SourceFleet, StreamId,
};

use crate::durability::{Durability, DurabilityConfig};
use crate::handle::{each_shard, ExecMode, ShardHandle};
use crate::metrics::ServerMetrics;
use crate::occurrence::OccurrenceIndex;
use crate::router::{GuardedRouter, InflightWindow, ShardRouter};
use crate::shard::{Partition, Shard, ShardCmd, ShardReply, SpecEvent, PREFETCH_DISTANCE};

/// The full-or-delta rule: a due checkpoint is a delta while the encoded
/// delta stays below `1 / DELTA_DIVISOR` of the last full image, and a
/// full image (which clears the dirty bits) otherwise. At ½ a recovery
/// reads less than 1.5 full images' worth of checkpoint.
const DELTA_DIVISOR: u64 = 2;

/// The last full image this server encoded, as the full-or-delta rule
/// weighs it.
#[derive(Clone, Copy, Debug)]
struct FullBase {
    /// The sequence it was taken at: the base of the deltas after it.
    seq: u64,
    /// Its size.
    bytes: u64,
}

/// Observability configuration of a [`ShardedServer`]. Everything here is
/// observational: any combination of settings leaves answers, ledgers, and
/// views byte-identical (the invariance suites sweep this).
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Per-cause message attribution (one counter add per recorded message
    /// kind when on; a single branch when off). On by default.
    pub causes: bool,
    /// Structured trace recording depth. `Off` (the default) records
    /// nothing and allocates nothing.
    pub trace: TraceDepth,
    /// Maximum events retained per trace ring (the coordinator, the
    /// fleet-op router, and every shard own one ring of this capacity;
    /// full rings suppress balanced span pairs and count the loss).
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { causes: true, trace: TraceDepth::Off, trace_capacity: 4096 }
    }
}

/// Configuration of a [`ShardedServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Number of worker shards (`1..=n`).
    pub num_shards: usize,
    /// Maximum events per ingestion batch — and per evaluation round: the
    /// shards evaluate each chunk in one scatter/gather.
    pub batch_size: usize,
    /// Inline (deterministic single-thread) or threaded execution.
    pub mode: ExecMode,
    /// Observability: per-cause accounting and trace recording. Purely
    /// observational at every setting, see [`TelemetryConfig`].
    pub telemetry: TelemetryConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            num_shards: 4,
            batch_size: 1024,
            mode: ExecMode::Inline,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Convenience: `num_shards` shards, defaults elsewhere.
    pub fn with_shards(num_shards: usize) -> Self {
        Self { num_shards, ..Default::default() }
    }

    /// Sets the execution mode.
    pub fn mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the batch size.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the observability configuration.
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// A sharded, batched, concurrent runtime for one filter protocol over one
/// stream population. Produces byte-identical answers, ledgers, and views
/// to [`asf_core::engine::Engine`] on the same event sequence, for any
/// shard count and either execution mode.
pub struct ShardedServer<P: Protocol> {
    partition: Partition,
    handles: Vec<ShardHandle>,
    core: ProtocolCore<P>,
    config: ServerConfig,
    n: usize,
    now: SimTime,
    events_processed: u64,
    metrics: ServerMetrics,
    /// One report buffer per shard: every `EvalWindow` carries its shard's
    /// out and the gathered `Evaluated` reply hands it back, holding the
    /// round's reports until the merge, so steady-state rounds scatter and
    /// gather without allocating.
    shard_reports: Vec<Vec<SpecEvent>>,
    /// Pooled read positions of the gather's merge, one per shard.
    merge_cursors: Vec<usize>,
    /// Reused per-round merge buffer for the gathered report streams.
    merged: Vec<(SpecEvent, usize)>,
    /// The current ingestion chunk as a shared columnar window. Refilled
    /// per chunk (recycled once every shard has dropped its clone, i.e.
    /// at every chunk boundary); each shard evaluates an `Arc` clone of
    /// it.
    shared_chunk: Arc<EventBatch>,
    /// The chunk's stream-occurrence index, consulted (and lazily built)
    /// by fleet touches and reset at every chunk boundary.
    occurrences: OccurrenceIndex,
    /// Pooled positions buffer of single-stream fleet touches (it makes
    /// the round trip to the shard and back with the flips).
    touch_positions: Vec<u64>,
    /// The fleet-op trace ring (the `fleet-ops` timeline track); threaded
    /// into the [`ShardRouter`] of every report drain.
    fleet_trace: TraceRing,
    /// Attached durability runtime (write-ahead journal + checkpoint
    /// writer), if [`ShardedServer::enable_durability`] ran.
    durability: Option<Durability>,
    /// The full image the next delta checkpoint would be taken against;
    /// `None` until this process encodes one, and again after `resync` and
    /// `enable_chaos`, so the next checkpoint is full.
    full_base: Option<FullBase>,
    /// Unreliable-channel simulation (fault injection, epochs, leases), if
    /// [`ShardedServer::enable_chaos`] ran. Composes with durability: the
    /// whole channel machine is serialized into every checkpoint, so a
    /// recovered server resumes mid-fault-storm bit-exact.
    chaos: Option<ChaosState>,
    /// The nested parts of the image being written or read, which their
    /// owners encode and decode themselves. Empty between checkpoints.
    fleet_rows: Vec<Nested>,
    chaos_rows: Option<Nested>,
    /// Pooled buffer for delayed report frames surfacing at chunk end.
    chaos_scratch: Vec<(StreamId, f64)>,
    /// Pooled repair plan of the chunk-end round.
    chaos_plan: RepairPlan,
}

impl<P: Protocol> ShardedServer<P> {
    /// Builds the server over sources with the given initial values.
    ///
    /// ```
    /// use asf_core::protocol::ZtNrp;
    /// use asf_core::query::RangeQuery;
    /// use asf_core::workload::UpdateEvent;
    /// use asf_server::{ServerConfig, ShardedServer};
    /// use streamnet::StreamId;
    ///
    /// let initial = vec![450.0, 700.0, 500.0, 100.0];
    /// let protocol = ZtNrp::new(RangeQuery::new(400.0, 600.0).unwrap());
    /// // 2 shards, one scatter/gather round per chunk.
    /// let mut server = ShardedServer::new(&initial, protocol, ServerConfig::with_shards(2));
    /// server.initialize();
    /// server.ingest_batch(&[UpdateEvent { time: 1.0, stream: StreamId(1), value: 550.0 }]);
    /// assert!(server.answer().contains(StreamId(1)));
    /// assert_eq!(server.events_processed(), 1);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `config.num_shards` is zero, exceeds the population, or
    /// `config.batch_size` is zero.
    pub fn new(initial_values: &[f64], protocol: P, config: ServerConfig) -> Self {
        assert!(config.num_shards >= 1, "need at least one shard");
        assert!(
            config.num_shards <= initial_values.len(),
            "more shards ({}) than streams ({})",
            config.num_shards,
            initial_values.len()
        );
        assert!(config.batch_size >= 1, "batch_size must be positive");
        let partition = Partition::new(config.num_shards);
        let mut handles: Vec<ShardHandle> = partition
            .split_values(initial_values)
            .iter()
            .enumerate()
            .map(|(s, values)| {
                ShardHandle::spawn(Shard::with_partition(values, partition, s), s, config.mode)
            })
            .collect();
        // All trace rings share one epoch so coordinator, fleet-op, and
        // shard tracks land on a single exportable timeline.
        let tcfg = config.telemetry;
        let epoch = Instant::now();
        let mut core =
            ProtocolCore::with_rank_parts(initial_values.len(), protocol, config.num_shards);
        core.telemetry_mut().set_causes_enabled(tcfg.causes);
        core.telemetry_mut().trace = TraceRing::new(tcfg.trace, tcfg.trace_capacity, epoch);
        if tcfg.trace != TraceDepth::Off {
            let ring = |_| ShardCmd::SetTrace {
                ring: TraceRing::new(tcfg.trace, tcfg.trace_capacity, epoch),
            };
            each_shard!(&mut handles, ring, ShardReply::Ack => ());
        }
        Self {
            partition,
            handles,
            core,
            config,
            n: initial_values.len(),
            now: 0.0,
            events_processed: 0,
            metrics: ServerMetrics::new(config.num_shards),
            shard_reports: vec![Vec::new(); config.num_shards],
            merge_cursors: Vec::new(),
            merged: Vec::new(),
            shared_chunk: Arc::new(EventBatch::new()),
            occurrences: OccurrenceIndex::new(initial_values.len()),
            touch_positions: Vec::new(),
            fleet_trace: TraceRing::new(tcfg.trace, tcfg.trace_capacity, epoch),
            durability: None,
            full_base: None,
            chaos: None,
            chaos_scratch: Vec::new(),
            chaos_plan: RepairPlan::default(),
            fleet_rows: Vec::new(),
            chaos_rows: None,
        }
    }

    /// Runs the protocol's Initialization phase across the shards.
    pub fn initialize(&mut self) {
        self.initialize_with_cause(Cause::Init);
    }

    /// Initialization with an explicit cause label — cold crash recovery
    /// attributes its startup probe storm to [`Cause::Recovery`].
    fn initialize_with_cause(&mut self, cause: Cause) {
        self.core.telemetry_mut().trace.begin(TraceDepth::Coarse, "initialize", 0);
        let mut router = ShardRouter::with_telemetry(
            &mut self.handles,
            self.partition,
            self.n,
            None,
            Some(&mut self.fleet_trace),
        );
        self.core.initialize_with_cause(&mut router, cause);
        self.core.telemetry_mut().trace.end(TraceDepth::Coarse);
    }

    /// Ingests one batch of time-ordered events and drains all induced
    /// resolution work; the server is quiescent when this returns.
    ///
    /// Each `batch_size` chunk is materialized once into the pooled
    /// columnar chunk (metered as `window_build_ns`); feeders that already
    /// produce [`EventBatch`]es — [`ShardedServer::run`] via
    /// [`Workload::next_batch`], or [`ShardedServer::ingest_event_batch`]
    /// — skip or amortize that copy.
    ///
    /// # Panics
    ///
    /// Panics if the server is not initialized, if event times regress, if
    /// a value is not finite, or if a stream id is outside the population.
    /// A rejected chunk is never journaled, so the durability directory
    /// still recovers to the chunks before it.
    pub fn ingest_batch(&mut self, events: &[UpdateEvent]) {
        assert!(self.core.is_initialized(), "server must be initialized before events");
        for chunk in events.chunks(self.config.batch_size) {
            let build_start = Instant::now();
            let buf = self.unique_chunk();
            buf.clear();
            buf.extend_from_events(chunk);
            self.metrics.window_build_ns += build_start.elapsed().as_nanos() as u64;
            self.apply_shared_chunk();
        }
    }

    /// Ingests a columnar batch of time-ordered events (chunked to
    /// `batch_size`); the server is quiescent when this returns.
    ///
    /// # Panics
    ///
    /// As for [`ShardedServer::ingest_batch`].
    pub fn ingest_event_batch(&mut self, events: &EventBatch) {
        assert!(self.core.is_initialized(), "server must be initialized before events");
        let mut start = 0;
        while start < events.len() {
            let end = events.len().min(start + self.config.batch_size);
            let build_start = Instant::now();
            let buf = self.unique_chunk();
            buf.clear();
            buf.extend_from_batch(events, start, end);
            self.metrics.window_build_ns += build_start.elapsed().as_nanos() as u64;
            self.apply_shared_chunk();
            start = end;
        }
    }

    /// Exclusive access to the pooled chunk buffer for refilling. At chunk
    /// boundaries every shard has dropped its window clone (all `Evaluated`
    /// replies were gathered), so the `Arc` is unique and the
    /// buffer — columns and all — is recycled; the fallback allocation only
    /// triggers if a caller kept a clone alive.
    fn unique_chunk(&mut self) -> &mut EventBatch {
        if Arc::get_mut(&mut self.shared_chunk).is_none() {
            self.shared_chunk = Arc::new(EventBatch::new());
        }
        Arc::get_mut(&mut self.shared_chunk).expect("fresh Arc is unique")
    }

    /// Applies the filled `shared_chunk` as one round (see the module
    /// docs). With durability enabled, the chunk is journaled and
    /// synced **before** it applies (write-ahead); a poisoned durability
    /// handle drops the chunk un-applied, exactly as a crashed process
    /// would have.
    fn apply_shared_chunk(&mut self) {
        let batch_start = Instant::now();
        // Validate before the write-ahead append: a chunk journaled and
        // then rejected would fail every later recovery of the directory.
        // Branch-free folds keep the check cheap on the ingest path.
        let chunk = Arc::clone(&self.shared_chunk);
        let times = chunk.times();
        let max_id = chunk.streams().iter().fold(0, |max, id| max.max(id.0));
        let valid = times.first().is_none_or(|&t| t >= self.now)
            & times.windows(2).fold(true, |ok, w| ok & (w[0] <= w[1]))
            & chunk.values().iter().fold(true, |ok, v| ok & v.is_finite())
            & ((max_id as usize) < self.n);
        assert!(
            valid,
            "events must be time-ordered from {}, finite, and of the {} streams",
            self.now, self.n
        );
        if self.durability.is_some() && !self.journal_shared_chunk() {
            return;
        }
        self.now = times.last().copied().unwrap_or(self.now);
        // One round: the shards evaluate the whole chunk, its reports drain
        // in `seq` order, and every speculative application commits.
        self.scatter_window();
        self.metrics.critical_path_ns += self.gather_window();
        self.drain_reports();
        ShardRouter::new(&mut self.handles, self.partition, self.n).commit_all(u64::MAX);
        self.occurrences.reset(chunk.streams());
        self.events_processed += chunk.len() as u64;
        self.metrics.events += chunk.len() as u64;
        self.metrics.record_batch(batch_start.elapsed().as_nanos() as u64);
        // Chunk-end quiescence doubles as the repair round: deliver due
        // delayed frames, run heartbeats/leases, re-probe gapped channels.
        if self.chaos.is_some() {
            self.chaos_chunk_end(chunk.len() as u64);
        }
        // Chunk-end quiescence: every shard's speculation is committed, so
        // this is a checkpointable point.
        let due =
            self.durability.as_ref().is_some_and(|d| d.should_checkpoint(self.events_processed));
        if due {
            self.checkpoint_now();
        }
        // Journal compaction shares the quiescent boundary: rotate an
        // oversized active file, prune segments the durable-checkpoint
        // floor supersedes. A compaction failure poisons the handle, so
        // the next chunk is dropped un-applied like any write failure.
        if let Some(d) = self.durability.as_mut() {
            let _ = d.maybe_compact();
            self.metrics.journal_bytes = d.journal_bytes();
        }
    }

    /// Write-ahead barrier: appends the filled `shared_chunk` (keyed by the
    /// event sequence it starts at) to the journal and syncs. Returns
    /// whether the chunk may apply — `false` means the write failed (or the
    /// handle was already poisoned) and the chunk must be dropped.
    fn journal_shared_chunk(&mut self) -> bool {
        let d = self.durability.as_mut().expect("caller checked durability");
        if d.is_poisoned() {
            return false;
        }
        self.core.telemetry_mut().trace.begin(
            TraceDepth::Coarse,
            "journal_append",
            self.shared_chunk.len() as u64,
        );
        let mut w = StateWriter::new();
        self.shared_chunk.encode(&mut w);
        let ok = d.journal_chunk(self.events_processed, w.bytes()).is_ok();
        self.metrics.journal_bytes = d.journal_bytes();
        self.core.telemetry_mut().trace.end(TraceDepth::Coarse);
        ok
    }

    /// Serializes the server state ([`Self::encode_checkpoint`]) and hands
    /// it to the checkpoint writer, or, when a busy background writer
    /// would coalesce it, does neither. The serialization (and, in
    /// `CheckpointMode::Sync`, the save itself) is the metered
    /// `checkpoint_ns` critical-path cost.
    fn checkpoint_now(&mut self) {
        let start = Instant::now();
        self.core.telemetry_mut().trace.begin(
            TraceDepth::Coarse,
            "checkpoint",
            self.events_processed,
        );
        let seq = self.events_processed;
        let mut d = self.durability.take().expect("caller checked durability");
        let mut written = None;
        let saved = d.save_with(seq, || {
            let (base, image) = self.encode_checkpoint();
            written = Some((base.is_some(), image.len()));
            (base, image)
        });
        self.durability = Some(d);
        self.note_checkpoint(written.filter(|_| matches!(saved, Ok(true))), start);
        self.core.telemetry_mut().trace.end(TraceDepth::Coarse);
    }

    /// The image a due checkpoint writes, and its base: the delta against
    /// the last full image while it is below `1 / DELTA_DIVISOR` of that
    /// image's bytes ([`DELTA_DIVISOR`]), the full image otherwise. The
    /// rule weighs the delta as encoded; a rejected one is dropped before
    /// the full image is encoded.
    fn encode_checkpoint(&mut self) -> (Option<u64>, StateWriter) {
        if let Some(base) = self.full_base {
            let delta = self.snapshot_state(Rows::Dirty);
            if delta.len() as u64 * DELTA_DIVISOR < base.bytes {
                return (Some(base.seq), delta);
            }
        }
        (None, self.snapshot_state(Rows::All))
    }

    /// Meters one checkpoint: the critical-path time since `start`, and
    /// what the writer took, if anything — `(delta, bytes)`, a delta or a
    /// full image of `bytes`.
    fn note_checkpoint(&mut self, written: Option<(bool, usize)>, start: Instant) {
        if let Some((delta, bytes)) = written {
            self.metrics.checkpoints += 1;
            self.metrics.delta_checkpoints += u64::from(delta);
            self.metrics.checkpoint_bytes += bytes as u64;
        }
        self.metrics.checkpoint_ns += start.elapsed().as_nanos() as u64;
    }

    /// The chunk-end repair round of the unreliable-fleet simulation: the
    /// logical clock advances (one tick per ingested event), crash-restarts
    /// are drawn, delayed report frames whose delivery tick arrived are fed
    /// through the protocol (stale/duplicate frames were already rejected
    /// idempotently by epoch/sequence), every up source heartbeats, expired
    /// leases mark sources dead (degradation hook), and channels with
    /// sequence gaps, restarts, or rejoins are healed with repair
    /// re-probes — all attributed to [`Cause::Repair`] and metered as
    /// `repair_ns`.
    fn chaos_chunk_end(&mut self, ticks: u64) {
        let repair_start = Instant::now();
        self.core.telemetry_mut().trace.begin(TraceDepth::Coarse, "chaos_repair", ticks);
        let mut chaos = self.chaos.take().expect("caller checked chaos");
        chaos.advance(ticks);
        chaos.draw_crashes();
        // Delayed frames surfacing now re-enter the normal report path (at
        // quiescence, so no speculation guard is needed).
        let mut due = std::mem::take(&mut self.chaos_scratch);
        chaos.take_due_reports(&mut due);
        for &(id, value) in &due {
            let mut inner = ShardRouter::with_telemetry(
                &mut self.handles,
                self.partition,
                self.n,
                Some(&mut self.metrics.fleet),
                Some(&mut self.fleet_trace),
            );
            let mut faulty = ChaosFleet::new(&mut chaos, &mut inner);
            self.core.ingest_report(id, value, &mut faulty);
            self.metrics.reports_consumed += 1;
        }
        self.chaos_scratch = due;
        let mut plan = std::mem::take(&mut self.chaos_plan);
        chaos.heartbeat_round_into(&mut plan);
        if !plan.newly_dead.is_empty() {
            let mut inner = ShardRouter::with_telemetry(
                &mut self.handles,
                self.partition,
                self.n,
                Some(&mut self.metrics.fleet),
                Some(&mut self.fleet_trace),
            );
            let mut faulty = ChaosFleet::new(&mut chaos, &mut inner);
            self.core.degrade(&mut faulty, &plan.newly_dead);
        }
        if !plan.reprobe.is_empty() {
            // The repair window lets the channel layer charge the whole
            // gap-list probe as one batched fan-out frame instead of one
            // frame per channel.
            chaos.set_repair_window(true);
            let mut inner = ShardRouter::with_telemetry(
                &mut self.handles,
                self.partition,
                self.n,
                Some(&mut self.metrics.fleet),
                Some(&mut self.fleet_trace),
            );
            let mut faulty = ChaosFleet::new(&mut chaos, &mut inner);
            self.core.repair_sources(&mut faulty, &plan.reprobe);
            chaos.set_repair_window(false);
        }
        chaos.finish_round();
        self.chaos_plan = plan;
        let stats = *chaos.stats();
        self.metrics.retries = stats.retries;
        self.metrics.timeouts = stats.timeouts;
        self.metrics.epoch_rejects = stats.epoch_rejects;
        self.metrics.dead_sources = chaos.dead_count() as u64;
        self.metrics.lease_renewals = stats.lease_renewals;
        self.metrics.spurious_expirations = stats.spurious_expirations;
        self.metrics.repair_batches = stats.repair_batches;
        for ticks in chaos.drain_lease_samples() {
            self.metrics.record_lease_len(ticks);
        }
        self.chaos = Some(chaos);
        self.metrics.repair_ns += repair_start.elapsed().as_nanos() as u64;
        self.core.telemetry_mut().trace.end(TraceDepth::Coarse);
    }

    /// Scatters `shared_chunk` to the shards as one speculative evaluation
    /// round: every shard gets one `Arc` clone of the chunk (and a pooled
    /// report buffer), selects its own events, and owes exactly one
    /// `Evaluated` reply. Only the coordinator-side share is metered as
    /// `scatter_ns`; the sends are not. A coordinator-run shard evaluates
    /// when its reply is received, so every worker has the chunk before
    /// the coordinator starts on its own shard.
    fn scatter_window(&mut self) {
        self.core.telemetry_mut().trace.begin(TraceDepth::Coarse, "scatter_window", 0);
        let scatter_start = Instant::now();
        let chunk = Arc::clone(&self.shared_chunk);
        let end = chunk.len();
        self.metrics.scatter_ns += scatter_start.elapsed().as_nanos() as u64;
        for (handle, reports) in self.handles.iter_mut().zip(&mut self.shard_reports) {
            let (window, reports) = (Arc::clone(&chunk), std::mem::take(reports));
            handle.send(ShardCmd::EvalWindow { window, start: 0, end, reports });
        }
        self.metrics.rounds += 1;
        self.core.telemetry_mut().trace.end(TraceDepth::Coarse);
    }

    /// Gathers every shard's `Evaluated` reply and merges the per-shard
    /// report lists into the pooled `merged` buffer in sequence order
    /// ([`merge_by_seq`]: each list is already ascending and seqs are
    /// unique across shards, so no sort is needed). Every application it
    /// reports commits at the chunk's quiescent point, since nothing rolls
    /// back. Returns the round's maximum per-shard busy time — the chunk's
    /// evaluation critical path.
    fn gather_window(&mut self) -> u64 {
        self.core.telemetry_mut().trace.begin(
            TraceDepth::Coarse,
            "gather_window",
            self.handles.len() as u64,
        );
        let mut round_max_busy = 0u64;
        for (s, handle) in self.handles.iter_mut().enumerate() {
            let (reports, evaluated, busy_ns, scan_ns) = match handle.recv() {
                ShardReply::Evaluated { reports, evaluated, busy_ns, scan_ns } => {
                    (reports, evaluated, busy_ns, scan_ns)
                }
                other => unreachable!("EvalWindow got {other:?}"),
            };
            self.metrics.shard_events[s] += u64::from(evaluated);
            self.metrics.speculative_commits += u64::from(evaluated);
            self.metrics.shard_busy_ns[s] += busy_ns;
            self.metrics.shard_scan_ns[s] += scan_ns;
            round_max_busy = round_max_busy.max(busy_ns);
            self.shard_reports[s] = reports;
        }
        merge_by_seq(&self.shard_reports, &mut self.merge_cursors, &mut self.merged);
        self.core.telemetry_mut().trace.end(TraceDepth::Coarse);
        round_max_busy
    }

    /// Consumes the gathered reports serially through the protocol. A fleet
    /// touch respeculates the positions between the report and the chunk
    /// end that it can reach, and patches the flips into `merged` (the loop
    /// re-reads it by index). Before each report the loop hints the source
    /// row of the report `PREFETCH_DISTANCE` entries ahead to its shard
    /// ([`ShardHandle::prefetch_row`]), so the handler's re-install there
    /// finds the row in cache if a coordinator-run shard owns it; a patch
    /// can move the entry the hint named, which costs a wasted prefetch and
    /// nothing else. Meters the drain's pure-serial time (fleet-op shard
    /// busy excluded — that is attributed to `metrics.fleet`).
    fn drain_reports(&mut self) {
        let serial_start = Instant::now();
        self.core.telemetry_mut().trace.begin(
            TraceDepth::Coarse,
            "drain_reports",
            self.merged.len() as u64,
        );
        let fleet_hidden_before = self.metrics.fleet.hidden_ns;
        let index_before =
            (self.core.ctx_stats().index_busy_sum_ns, self.core.ctx_stats().index_hidden_ns);
        let mut consumed = 0u64;
        let mut merged = std::mem::take(&mut self.merged);
        let chunk = Arc::clone(&self.shared_chunk);
        let mut chaos = self.chaos.take();
        let mut next = 0;
        while let Some(&(ev, shard)) = merged.get(next) {
            if let Some(&(ahead, s)) = merged.get(next + PREFETCH_DISTANCE) {
                self.handles[s].prefetch_row(ahead.local);
            }
            next += 1;
            let id = self.partition.global_of(shard, ev.local);
            // Unreliable channels: the source emitted the report (its
            // last-reported state advanced in the shard), but the frame may
            // never reach the protocol — that inconsistency is what the
            // chunk-end repair round detects and heals.
            if let Some(ch) = chaos.as_mut() {
                match ch.admit_report(id, ev.value) {
                    ReportFate::Deliver => {}
                    ReportFate::Lost | ReportFate::Parked => continue,
                }
            }
            let inner = ShardRouter::with_telemetry(
                &mut self.handles,
                self.partition,
                self.n,
                Some(&mut self.metrics.fleet),
                Some(&mut self.fleet_trace),
            );
            let inflight = InflightWindow {
                merged: &mut merged,
                chunk: &chunk,
                occurrences: &mut self.occurrences,
                positions: &mut self.touch_positions,
                scoped_touches: &mut self.metrics.scoped_touches,
                respeculated: &mut self.metrics.respeculated,
                respec_flips: &mut self.metrics.respec_flips,
            };
            let mut router = GuardedRouter::with_inflight(inner, ev.seq + 1, inflight);
            match chaos.as_mut() {
                Some(ch) => {
                    let mut faulty = ChaosFleet::new(ch, &mut router);
                    self.core.ingest_report(id, ev.value, &mut faulty);
                }
                None => self.core.ingest_report(id, ev.value, &mut router),
            }
            consumed += 1;
            self.metrics.reports_consumed += 1;
        }
        self.chaos = chaos;
        self.merged = merged;
        self.core.telemetry_mut().trace.end(TraceDepth::Coarse);
        if consumed > 0 {
            self.metrics.report_groups += 1;
        }
        // Subtract the *hidden* portions — per-op/per-pass `min(busy sum,
        // wall)` — not the raw busy sums: with threaded shards (or scoped-
        // thread forest refreshes) the work overlapped the coordinator, so
        // an unbounded subtraction would erase unrelated serial time.
        let fleet_hidden_delta = self.metrics.fleet.hidden_ns - fleet_hidden_before;
        let stats = *self.core.ctx_stats();
        self.metrics.index_busy_sum_ns += stats.index_busy_sum_ns - index_before.0;
        let index_hidden_delta = stats.index_hidden_ns - index_before.1;
        self.metrics.serial_ns += (serial_start.elapsed().as_nanos() as u64)
            .saturating_sub(fleet_hidden_delta + index_hidden_delta);
    }

    /// Initializes (if needed) and consumes the whole workload in batches
    /// of `config.batch_size` — the trace-replay / generator feeder. The
    /// workload writes each chunk straight into the pooled shared columnar
    /// window ([`Workload::next_batch`]), so feeding allocates and copies
    /// nothing per round.
    pub fn run<W: Workload + ?Sized>(&mut self, workload: &mut W) {
        if !self.core.is_initialized() {
            self.initialize();
        }
        let max = self.config.batch_size;
        loop {
            let buf = self.unique_chunk();
            if workload.next_batch(max, buf) == 0 {
                break;
            }
            self.apply_shared_chunk();
        }
    }

    /// The globally consistent answer `A(t)` — valid at quiescent points
    /// (between [`ShardedServer::ingest_batch`] calls).
    pub fn answer(&self) -> AnswerSet {
        self.core.answer()
    }

    /// The authoritative message ledger (serial-identical counts).
    pub fn ledger(&self) -> &Ledger {
        self.core.ledger()
    }

    /// The server's view of last-known values.
    pub fn view(&self) -> &ServerView {
        self.core.view()
    }

    /// The protocol state.
    pub fn protocol(&self) -> &P {
        self.core.protocol()
    }

    /// Runtime metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Timing/counters of the core's fleet operations — the probe /
    /// index-build split of initialization and batch-op counts.
    pub fn ctx_stats(&self) -> &CtxStats {
        self.core.ctx_stats()
    }

    /// The per-cause message matrix: every ledger message attributed to the
    /// protocol decision that sent it (empty when
    /// [`TelemetryConfig::causes`] is off).
    pub fn causes(&self) -> &asf_telemetry::CauseLedger {
        self.core.telemetry().causes()
    }

    /// Multi-line per-cause message breakdown with the streamnet
    /// message-kind labels (empty when attribution is off or quiet).
    pub fn cause_breakdown(&self) -> String {
        self.core.telemetry().cause_breakdown()
    }

    /// One flat JSON object of every metric the server keeps — the
    /// [`ServerMetrics`] counters and latency histogram, the fleet-op and
    /// ctx splits, and the per-cause message matrix — re-registered through
    /// one [`Registry`] so all consumers read the same dotted-key schema.
    pub fn telemetry_snapshot(&self) -> String {
        let mut reg = Registry::new();
        self.metrics.register_into(&mut reg);
        let stats = self.core.ctx_stats();
        reg.counter("ctx.probe_ns", stats.probe_ns);
        reg.counter("ctx.index_build_ns", stats.index_build_ns);
        reg.counter("ctx.index_delta_refreshes", stats.index_delta_refreshes);
        reg.counter("ctx.index_delta_rekeys", stats.index_delta_rekeys);
        reg.counter("ctx.index_bulk_builds", stats.index_bulk_builds);
        reg.counter("ctx.batch_probe_ops", stats.batch_probe_ops);
        reg.counter("ctx.batch_probe_streams", stats.batch_probe_streams);
        reg.counter("ctx.batch_install_ops", stats.batch_install_ops);
        reg.counter("ctx.batch_install_streams", stats.batch_install_streams);
        reg.counter("ctx.deferred_installs", stats.deferred_installs);
        reg.counter("ctx.deferred_flushes", stats.deferred_flushes);
        reg.counter("ctx.routed_reports", stats.routed_reports);
        reg.counter("ctx.queries_touched", stats.queries_touched);
        reg.counter("ctx.routing_ns", stats.routing_ns);
        // Mean multi-query fan-out: how many of the m registered queries
        // each report actually reached (0 when no routing protocol ran).
        let fan_out = if stats.routed_reports == 0 {
            0.0
        } else {
            stats.queries_touched as f64 / stats.routed_reports as f64
        };
        reg.gauge("ctx.queries_touched_per_report", fan_out);
        let causes = self.core.telemetry().causes();
        // The full cause × kind matrix registers every slot (zeros
        // included) so the snapshot's key set never depends on which
        // protocol decisions happened to fire.
        for cause in Cause::ALL {
            let row = causes.row(cause);
            for (k, kind) in MessageKind::ALL.iter().enumerate() {
                reg.counter(&format!("causes.{}.{}", cause.label(), kind.label()), row[k]);
            }
        }
        reg.counter("causes.total", causes.grand_total());
        reg.to_json()
    }

    /// Drains every trace ring — the coordinator track, the fleet-op
    /// track, and one track per shard, all sharing one epoch — and returns
    /// the merged timeline as Chrome trace-event JSON (open in Perfetto or
    /// `chrome://tracing`; machine-checkable via
    /// [`asf_telemetry::validate_chrome_trace`]). Rings keep recording
    /// afterwards. With tracing off the export is a valid, empty timeline.
    pub fn export_chrome_trace(&mut self) -> String {
        let coordinator = self.core.telemetry_mut().trace.take();
        let fleet = self.fleet_trace.take();
        let mut shard_events: Vec<Vec<TraceEvent>> = Vec::new();
        if self.config.telemetry.trace != TraceDepth::Off {
            shard_events =
                each_shard!(&mut self.handles, |_| ShardCmd::TakeTrace, ShardReply::Trace(e) => e);
        }
        let shard_names: Vec<String> =
            (0..shard_events.len()).map(|s| format!("shard-{s}")).collect();
        let mut tracks: Vec<(u32, &str, Vec<TraceEvent>)> =
            vec![(0, "coordinator", coordinator), (1, "fleet-ops", fleet)];
        for (s, events) in shard_events.into_iter().enumerate() {
            tracks.push(((2 + s) as u32, shard_names[s].as_str(), events));
        }
        chrome_trace(&tracks)
    }

    /// Trace events suppressed because a ring was full, summed over the
    /// coordinator, fleet-op and shard rings. Zero means every exported
    /// timeline is complete; rings keep the count across exports.
    pub fn trace_spans_dropped(&mut self) -> u64 {
        let mut dropped = self.core.telemetry().trace.dropped() + self.fleet_trace.dropped();
        if self.config.telemetry.trace != TraceDepth::Off {
            let per_shard = each_shard!(
                &mut self.handles,
                |_| ShardCmd::TraceDropped,
                ShardReply::TraceDropped(n) => n
            );
            dropped += per_shard.iter().sum::<u64>();
        }
        dropped
    }

    /// The maintained rank index, if the protocol is rank-based
    /// (differential-test hook).
    pub fn rank_index(&self) -> Option<&RankForest> {
        self.core.rank_index()
    }

    /// Number of streams.
    pub fn num_streams(&self) -> usize {
        self.n
    }

    /// Current simulation time (last ingested event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Workload events ingested so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Reports (workload-triggered + induced syncs) the protocol handled.
    pub fn reports_processed(&self) -> u64 {
        self.core.reports_processed()
    }

    /// Ground-truth values of every stream, reassembled from the shards —
    /// for the oracle and tests (a real deployment has no such backdoor).
    pub fn truth_values(&mut self) -> Vec<f64> {
        let mut values = vec![0.0f64; self.n];
        let truth =
            each_shard!(&mut self.handles, |_| ShardCmd::TruthSnapshot, ShardReply::Truth(v) => v);
        for (shard, local_values) in truth.into_iter().enumerate() {
            for (local, v) in local_values.into_iter().enumerate() {
                values[self.partition.global_of(shard, local as u32).index()] = v;
            }
        }
        values
    }

    /// The messages every source exchanged with the server, summed over the
    /// sources' traffic counters — for tests: every message the ledger
    /// counts touches exactly one source, so on a loss-free channel this
    /// equals the ledger's total.
    pub fn source_traffic(&mut self) -> u64 {
        each_shard!(&mut self.handles, |_| ShardCmd::CountTraffic, ShardReply::Traffic(n) => n)
            .iter()
            .sum()
    }

    /// Ground truth as a throwaway [`SourceFleet`] (values only) so the
    /// oracle helpers of `asf-core` can run against the sharded server.
    pub fn truth_fleet(&mut self) -> SourceFleet {
        SourceFleet::from_values(&self.truth_values())
    }

    asf_persist::persist!(
        /// The server image: simulation clock, event sequence, each shard's
        /// fleet rows, the protocol core, then the channel machine if
        /// attached — the shards and the machine write and read their own.
        fn put_image, get_image(rows) {
            now,
            events_processed,
            fleet_rows,
            core: rows,
            chaos_rows,
        } check Self::check_image
    );

    /// What a server image must agree on with the server it is read into.
    fn check_image(&mut self, rows: Rows) -> asf_persist::Result<()> {
        if self.now.is_nan() {
            return Err(PersistError::corrupt("snapshot time is NaN"));
        }
        if self.fleet_rows.len() != self.config.num_shards {
            return Err(PersistError::corrupt("snapshot shard count differs from configuration"));
        }
        // A delta's channel rows land on the base's machine, which must
        // exist exactly when the delta carries one.
        if rows == Rows::Dirty && self.chaos_rows.is_some() != self.chaos.is_some() {
            return Err(PersistError::corrupt("delta and base differ in chaos"));
        }
        Ok(())
    }

    /// The server image at chunk-boundary quiescence. [`Rows::All`] is a
    /// full image: it clears the dirty bits and becomes the base of the
    /// deltas after it; [`Rows::Dirty`] is a delta against that base.
    fn snapshot_state(&mut self, rows: Rows) -> StateWriter {
        self.fleet_rows = each_shard!(
            &mut self.handles,
            |_| ShardCmd::SaveState { rows },
            ShardReply::State(image) => image.into()
        );
        // The channel layer travels with the checkpoint: chaos and
        // durability compose, and a recovered server resumes the exact
        // fault-decision stream. Checkpoints happen after the chunk-end
        // repair round, so the serialized machine is post-round state.
        if let Some(chaos) = self.chaos.as_mut() {
            let mut cw = StateWriter::new();
            chaos.encode_rows(&mut cw, rows);
            if rows == Rows::All {
                chaos.clear_dirty();
            }
            self.metrics.chaos_state_bytes = cw.len() as u64;
            self.chaos_rows = Some(cw.into());
        }
        let mut w = StateWriter::new();
        self.put_image(&mut w, rows);
        self.fleet_rows.clear();
        self.chaos_rows = None;
        if rows == Rows::All {
            self.core.clear_view_dirty();
            self.full_base = Some(FullBase { seq: self.events_processed, bytes: w.len() as u64 });
        }
        w
    }

    /// Restores a [`ShardedServer::snapshot_state`] checkpoint written with
    /// the same `rows`: a full image into a freshly built server of the
    /// same configuration, then a delta onto the full image's state. The
    /// sequence must be the event count the image holds; corruption is an
    /// error, never a panic (the caller discards the server on error).
    fn restore_state(&mut self, checkpoint: SnapshotImage, rows: Rows) -> asf_persist::Result<()> {
        let seq = checkpoint.seq();
        let image = Arc::new(checkpoint.into_state());
        let mut r = StateReader::new(&image);
        self.get_image(&mut r, rows)?;
        r.finish()?;
        if self.events_processed != seq {
            return Err(PersistError::corrupt("checkpoint sequence mismatch"));
        }
        // The nested parts' owners decode them in place: the channel
        // machine here, and each shard its rows, on its own worker, from
        // the shared image.
        match self.chaos_rows.take() {
            Some(Nested { at, .. }) => {
                let chaos = match rows {
                    Rows::All => self.chaos.insert(ChaosState::default()),
                    Rows::Dirty => self.chaos.as_mut().expect("checked against the delta"),
                };
                let mut cr = StateReader::new(&image[at]);
                chaos.decode_rows(&mut cr, rows)?;
                cr.finish()?;
                if chaos.len() != self.n {
                    return Err(PersistError::corrupt("snapshot channel count differs"));
                }
            }
            None if rows == Rows::All => self.chaos = None,
            None => {}
        }
        let fleet_rows = std::mem::take(&mut self.fleet_rows);
        let restore = |s: usize| ShardCmd::RestoreState {
            image: Arc::clone(&image),
            range: fleet_rows[s].at.clone(),
            rows,
        };
        each_shard!(&mut self.handles, restore, ShardReply::Restored(result) => result)
            .into_iter()
            .collect()
    }

    /// Attaches the unreliable-fleet simulation: every subsequent
    /// source↔server frame crosses a seeded fault-injecting channel
    /// ([`streamnet::chaos`]) that can drop, delay, duplicate, and reorder
    /// it, and individual sources can crash-restart. Reports carry filter
    /// epochs and sequence numbers (stale/duplicate frames are rejected
    /// idempotently); dropped requests retry with capped exponential
    /// backoff on the simulated clock; heartbeat leases detect silently
    /// dead sources; and every chunk boundary runs a repair round.
    ///
    /// The authoritative ledger still meters only the logical protocol —
    /// retransmissions, ghosts, and heartbeats are counted separately in
    /// [`ChaosStats::overhead_frames`]. Once the schedule's fault horizon
    /// passes, the channel is byte-transparent, which is what the chaos
    /// differential suite's convergence proof rests on.
    ///
    /// Composes with durability in either order: every checkpoint includes
    /// the serialized channel machine, and enabling chaos on an
    /// already-durable server forces an immediate checkpoint so recovery
    /// never replays pre-chaos chunks under post-chaos rules.
    ///
    /// # Panics
    ///
    /// Panics if the server is not initialized (initialization probes the
    /// world over a reliable channel) or chaos is already enabled.
    pub fn enable_chaos(&mut self, cfg: ChaosConfig) {
        assert!(self.chaos.is_none(), "chaos already enabled");
        assert!(self.core.is_initialized(), "initialize the server before enabling chaos");
        self.chaos = Some(ChaosState::new(self.n, cfg));
        // A checkpoint written before this call knows nothing about the
        // channel layer; replaying journal chunks from it would run them
        // without chaos and diverge.
        self.reanchor();
    }

    /// Anchors durability (if attached) after a state change the journal
    /// cannot replay — enabling chaos, a resync: full images into BOTH
    /// snapshot slots, because a checkpoint at the same sequence taken
    /// before the change (the durability anchor, or a cadence checkpoint
    /// that fired this very chunk) would tie with a single write and
    /// recovery's tie-break could resurrect it. A full save also retires
    /// the delta.
    fn reanchor(&mut self) {
        if self.durability.is_some() {
            for _ in 0..2 {
                self.full_base = None;
                self.checkpoint_now();
            }
        }
    }

    /// The unreliable-channel state, if chaos is enabled — the oracle and
    /// the differential suite read leases, epochs, and the verified-live
    /// population through this.
    pub fn chaos(&self) -> Option<&ChaosState> {
        self.chaos.as_ref()
    }

    /// Fault-layer counters, if chaos is enabled.
    pub fn chaos_stats(&self) -> Option<&ChaosStats> {
        self.chaos.as_ref().map(ChaosState::stats)
    }

    /// The server view with every dead source (expired lease) marked
    /// unknown — what the server can actually vouch for under faults.
    /// Identical to [`ShardedServer::view`] without chaos or when no
    /// source is dead.
    pub fn live_view(&self) -> ServerView {
        let mut view = self.core.view().clone();
        if let Some(chaos) = &self.chaos {
            for id in chaos.dead_ids() {
                view.mark_unknown(id);
            }
        }
        view
    }

    /// Rebuilds protocol state from fresh probes at the current quiescent
    /// point, swapping in `fresh` (a protocol configured identically to the
    /// running one): the repair path's answer to accumulated channel
    /// damage, and the convergence boundary of the chaos differential
    /// suite. The view, ledger, and cause matrix are kept (probes are
    /// attributed to [`Cause::Repair`]); in-flight chaos frames are
    /// discarded as superseded. With durability attached the resynced
    /// state is checkpointed at once (full images into both slots): the
    /// journal holds ingested chunks only and could not replay it.
    ///
    /// # Panics
    ///
    /// Panics if the server is not initialized.
    pub fn resync(&mut self, fresh: P) {
        self.core.telemetry_mut().trace.begin(TraceDepth::Coarse, "resync", 0);
        let mut chaos = self.chaos.take();
        if let Some(ch) = chaos.as_mut() {
            ch.resync_boundary();
        }
        let mut inner = ShardRouter::with_telemetry(
            &mut self.handles,
            self.partition,
            self.n,
            Some(&mut self.metrics.fleet),
            Some(&mut self.fleet_trace),
        );
        match chaos.as_mut() {
            Some(ch) => {
                let mut faulty = ChaosFleet::new(ch, &mut inner);
                self.core.resync(&mut faulty, fresh);
            }
            None => self.core.resync(&mut inner, fresh),
        }
        self.chaos = chaos;
        // The journal holds ingested chunks only, so a checkpoint from
        // before the resync plus the journal would replay without it.
        self.reanchor();
        self.core.telemetry_mut().trace.end(TraceDepth::Coarse);
    }

    /// Attaches a durability runtime: opens (or creates) the journal and
    /// snapshot store in `cfg.dir`, durably writes an anchor checkpoint of
    /// the current state, and journals + checkpoints all further ingestion.
    ///
    /// Composes with chaos in either order: the anchor checkpoint written
    /// here (like every later checkpoint) embeds the serialized channel
    /// machine when chaos is enabled.
    ///
    /// # Panics
    ///
    /// Panics if durability is already enabled or the server is not
    /// initialized (an uninitialized server has no state worth anchoring).
    pub fn enable_durability(&mut self, cfg: DurabilityConfig) -> asf_persist::Result<()> {
        assert!(self.durability.is_none(), "durability already enabled");
        assert!(self.core.is_initialized(), "initialize the server before enabling durability");
        let start = Instant::now();
        let state = self.snapshot_state(Rows::All);
        let d = Durability::new(&cfg, self.events_processed, &state)?;
        self.note_checkpoint(Some((false, state.len())), start);
        self.metrics.journal_bytes = d.journal_bytes();
        self.durability = Some(d);
        Ok(())
    }

    /// Rebuilds a server from the durability directory: loads the latest
    /// valid full checkpoint (if any survived), applies the delta taken
    /// against it (if one is whole and newer), and replays the journal
    /// suffix through the deterministic engine. The recovered server is
    /// byte-identical — answers, ledgers, views, rank order, cause matrix —
    /// to one that processed the same durable prefix without crashing.
    ///
    /// If no checkpoint is readable, recovery cold-starts the protocol
    /// (attributing the startup probe storm to [`Cause::Recovery`]) and
    /// replays the whole journal. Torn or corrupt journal tails were
    /// already truncated by the open; a *gap* (an unreachable suffix) is
    /// corruption and fails recovery.
    ///
    /// `initial_values` and `config` must match the crashed server's; the
    /// restore is metered as `recovery_restore_ns` and the replay as
    /// `recovery_replay_ns`. Durability is
    /// re-attached before returning, anchor-free: the loaded checkpoint
    /// plus the journal already cover the recovered state, so recovery
    /// never pays an extra O(state) snapshot write. The next checkpoint is
    /// a full image: dirty bits mean something only against a full image
    /// this process wrote.
    ///
    /// A server whose checkpoints embedded chaos state recovers it
    /// automatically (the record is self-describing); see
    /// [`ShardedServer::recover_with_chaos`] for the checkpoint-free cold
    /// path.
    pub fn recover(
        initial_values: &[f64],
        protocol: P,
        config: ServerConfig,
        durability: DurabilityConfig,
    ) -> asf_persist::Result<Self> {
        Self::recover_with_chaos(initial_values, protocol, config, durability, None)
    }

    /// [`ShardedServer::recover`], with a chaos config for the cold path.
    ///
    /// The warm path ignores `chaos_cfg`: a readable checkpoint carries the
    /// authoritative serialized channel machine (or its absence), and that
    /// record wins. Only a cold recovery — no readable checkpoint, whole
    /// journal replayed from a fresh initialization — needs the config, to
    /// re-attach the channel layer before replay. Cold chaotic recovery is
    /// byte-identical to the original run only when that run enabled chaos
    /// before its first ingested chunk, since replay re-enters the fault
    /// stream from tick zero.
    pub fn recover_with_chaos(
        initial_values: &[f64],
        protocol: P,
        config: ServerConfig,
        durability: DurabilityConfig,
        chaos_cfg: Option<ChaosConfig>,
    ) -> asf_persist::Result<Self> {
        // One pass per file: the store open loads the newest valid
        // checkpoint, the journal open (which physically truncates any
        // torn tail) yields the replayable entries from its single scan,
        // and both handles go to `attach` below, so nothing is re-read.
        let restore_start = Instant::now();
        let (store, snapshot) = SnapshotStore::open_and_latest(&durability.dir)?;
        let (journal, entries) = Journal::open_and_read(&durability.dir)?;
        let mut server = Self::new(initial_values, protocol, config);
        // The full image is decoded and dropped before the delta taken
        // against it is read, so recovery never holds two images at once.
        let checkpoint_seq = match snapshot {
            Some(full) => {
                let base_seq = full.seq();
                server.restore_state(full, Rows::All)?;
                match store.delta_for(base_seq)? {
                    Some(delta) => {
                        let seq = delta.seq();
                        server.restore_state(delta, Rows::Dirty)?;
                        seq
                    }
                    None => base_seq,
                }
            }
            None => {
                server.initialize_with_cause(Cause::Recovery);
                if let Some(cfg) = chaos_cfg {
                    server.chaos = Some(ChaosState::new(server.n, cfg));
                }
                0
            }
        };
        server.metrics.recovery_restore_ns = restore_start.elapsed().as_nanos() as u64;
        // Compaction guard: pruning destroys journal history below the
        // durable-checkpoint floor. If every checkpoint has since been
        // lost or corrupted, the surviving journal suffix alone does NOT
        // reconstruct the state — replaying it from a cold start (or from
        // a stale checkpoint below the floor) would silently produce a
        // partial history. The guard compares the sequence recovery
        // reached — the delta's, when one applied, since the floor may
        // stand there. Fail loudly; the operator must resync from the
        // live fleet instead.
        if let Some(floor) = asf_persist::pruned_floor(&durability.dir)? {
            if checkpoint_seq < floor {
                return Err(PersistError::corrupt(
                    "journal history pruned past every readable checkpoint; resync required",
                ));
            }
        }
        // The replay meter starts once the checkpoint is restored and counts
        // only the entries it does not supersede.
        let replay_start = Instant::now();
        let replayed = entries.iter().filter(|entry| entry.seq >= checkpoint_seq).count();
        server.core.telemetry_mut().trace.begin(
            TraceDepth::Coarse,
            "recovery_replay",
            replayed as u64,
        );
        let mut next_seq = checkpoint_seq;
        for entry in entries {
            if entry.seq < next_seq {
                // Superseded by the checkpoint.
                continue;
            }
            if entry.seq != next_seq {
                return Err(PersistError::corrupt("journal gap after checkpoint"));
            }
            let mut r = StateReader::new(&entry.payload);
            let batch = EventBatch::decode(&mut r)?;
            r.finish()?;
            if batch.times().first().is_some_and(|&t| t < server.now) {
                return Err(PersistError::corrupt("journal chunk regresses time"));
            }
            // A cold recovery over a smaller population than the crashed
            // server's has no checkpoint to reject the mismatch; the shards
            // would index past their fleets.
            if batch.streams().iter().any(|id| id.index() >= server.n) {
                return Err(PersistError::corrupt(
                    "journal chunk names a stream outside the population",
                ));
            }
            let buf = server.unique_chunk();
            buf.clear();
            buf.extend_from_batch(&batch, 0, batch.len());
            // Durability is not attached yet, so replay does not re-journal.
            server.apply_shared_chunk();
            next_seq = server.events_processed;
        }
        server.core.telemetry_mut().trace.end(TraceDepth::Coarse);
        server.metrics.recovery_replay_ns = replay_start.elapsed().as_nanos() as u64;
        // Re-attach without writing a fresh anchor: the checkpoint we just
        // loaded plus the journal already cover this state, and an O(state)
        // synchronous save would dominate the recovery path. The cadence
        // counts from the loaded checkpoint, so a long replayed suffix
        // earns a new checkpoint at the next chunk boundary.
        let d = Durability::attach(&durability, store, journal, checkpoint_seq)?;
        server.metrics.journal_bytes = d.journal_bytes();
        server.durability = Some(d);
        Ok(server)
    }

    /// The attached durability runtime, if any — tests arm crash injection
    /// and inspect the poison latch through this.
    pub fn durability_mut(&mut self) -> Option<&mut Durability> {
        self.durability.as_mut()
    }

    /// Stops all workers and returns final metrics (worker shards report
    /// their cumulative busy time on shutdown).
    pub fn shutdown(mut self) -> ServerMetrics {
        if let Some(d) = self.durability.take() {
            d.shutdown();
        }
        for (s, handle) in self.handles.iter_mut().enumerate() {
            let busy = handle.shutdown();
            // The worker's figure is cumulative (eval + batch fleet ops);
            // the coordinator only accumulated eval time from replies, so
            // take whichever is larger.
            self.metrics.shard_busy_ns[s] = self.metrics.shard_busy_ns[s].max(busy);
        }
        self.metrics.clone()
    }
}

/// Merges per-shard report lists, each ascending in `seq` with seqs unique
/// across lists, into `out` as `(report, shard)` pairs in ascending `seq`:
/// each step takes the least head of every list, reading through `cursors`
/// (one position per list). Both buffers are pooled: neither allocates
/// once warm.
fn merge_by_seq(
    lists: &[Vec<SpecEvent>],
    cursors: &mut Vec<usize>,
    out: &mut Vec<(SpecEvent, usize)>,
) {
    out.clear();
    cursors.clear();
    cursors.resize(lists.len(), 0);
    loop {
        let mut least: Option<(u64, usize)> = None;
        for (s, list) in lists.iter().enumerate() {
            match list.get(cursors[s]) {
                Some(ev) if least.is_none_or(|(seq, _)| ev.seq < seq) => least = Some((ev.seq, s)),
                _ => {}
            }
        }
        let Some((_, s)) = least else { return };
        out.push((lists[s][cursors[s]], s));
        cursors[s] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::{merge_by_seq, ServerConfig, ShardedServer};
    use crate::handle::ExecMode;
    use crate::shard::{SpecEvent, PREFETCH_DISTANCE};
    use asf_core::engine::Engine;
    use asf_core::multi_query::MultiRangeZt;
    use asf_core::protocol::{Rtp, ZtNrp};
    use asf_core::query::{RangeQuery, RankQuery};
    use asf_core::workload::{UpdateEvent, VecWorkload, Workload};
    use streamnet::{MessageKind, StreamId};
    use workloads::{SyntheticConfig, SyntheticWorkload};

    fn fixture(n: usize, horizon: f64, seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: n,
            horizon,
            seed,
            ..Default::default()
        });
        let initial = w.initial_values();
        let mut events = Vec::new();
        while let Some(ev) = w.next_event() {
            events.push(ev);
        }
        (initial, events)
    }

    #[test]
    fn gather_merge_equals_a_sort_by_seq() {
        let mut rng = simkit::SimRng::seed_from_u64(0x3E_46E);
        let (mut cursors, mut out) = (Vec::new(), Vec::new());
        for k in [1, 2, 3, 8] {
            for len in [0, 1, 2, 17, 500] {
                // Deal seqs 0..len to the k lists at random, each ascending:
                // empty and single-element lists included.
                let mut lists = vec![Vec::new(); k];
                for seq in 0..len as u64 {
                    let ev = SpecEvent { seq, local: seq as u32 * 3, value: seq as f64 };
                    lists[rng.index(k)].push(ev);
                }
                let mut sorted: Vec<(SpecEvent, usize)> = lists
                    .iter()
                    .enumerate()
                    .flat_map(|(s, list)| list.iter().map(move |&ev| (ev, s)))
                    .collect();
                sorted.sort_by_key(|(ev, _)| ev.seq);
                merge_by_seq(&lists, &mut cursors, &mut out);
                let key = |v: &[(SpecEvent, usize)]| -> Vec<(u64, u32, usize)> {
                    v.iter().map(|(ev, s)| (ev.seq, ev.local, *s)).collect()
                };
                assert_eq!(key(&out), key(&sorted), "k = {k}, {len} reports");
            }
        }
    }

    #[test]
    fn one_round_per_chunk_matches_serial_engine() {
        let (initial, events) = fixture(32, 200.0, 5);
        let query = RangeQuery::new(400.0, 600.0).unwrap();

        let mut engine = Engine::new(&initial, ZtNrp::new(query));
        engine.initialize();
        let mut w = VecWorkload::new(initial.clone(), events.clone());
        engine.run(&mut w);

        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            let config = ServerConfig::with_shards(4).batch_size(64).mode(mode);
            let mut server = ShardedServer::new(&initial, ZtNrp::new(query), config);
            server.initialize();
            server.ingest_batch(&events);
            assert_eq!(server.answer(), engine.answer(), "{mode:?}");
            assert_eq!(server.ledger(), engine.ledger(), "{mode:?}");
            let m = server.metrics();
            assert_eq!(m.batches, events.len().div_ceil(64) as u64, "{mode:?}");
            assert_eq!(m.rounds, m.batches, "one round per chunk ({mode:?})");
            assert_eq!(m.speculative_commits, m.events, "every event commits exactly once");
            assert_eq!(m.shard_events.iter().sum::<u64>(), m.events);
            server.shutdown();
        }
    }

    #[test]
    fn fleet_touches_respeculate_to_the_chunk_end() {
        // RTP's overflow/expansion handlers probe and install (the paper's
        // deployment broadcasts), so a moving workload reliably touches the
        // fleet mid-drain. A broadcast must respeculate every position past
        // its report to the end of its chunk; the scoped deployment's
        // probes and installs must respeculate their streams' positions.
        // Both must match the serial engine byte for byte, in small chunks
        // and in a wide batch.
        for (n, horizon, seed, k, shards, batch_size) in
            [(30, 150.0, 11, 4, 3, 32), (40, 180.0, 23, 5, 4, 128)]
        {
            let (initial, events) = fixture(n, horizon, seed);
            let query = RankQuery::knn(500.0, k).unwrap();
            for paper in [true, false] {
                let make =
                    || if paper { Rtp::paper(query, 2) } else { Rtp::new(query, 2) }.unwrap();
                // The serial engine, event by event, summing over the
                // broadcasts the positions between each one's report and
                // the end of its chunk.
                let mut engine = Engine::new(&initial, make());
                engine.initialize();
                let mut broadcast_suffixes = 0;
                for (p, &ev) in events.iter().enumerate() {
                    let before = engine.ledger().count(MessageKind::FilterBroadcast);
                    engine.apply_event(ev);
                    let broadcasts =
                        (engine.ledger().count(MessageKind::FilterBroadcast) - before) / n as u64;
                    let chunk_end = events.len().min((p / batch_size + 1) * batch_size);
                    broadcast_suffixes += broadcasts * (chunk_end - p - 1) as u64;
                }

                let config = ServerConfig::with_shards(shards).batch_size(batch_size);
                let mut server = ShardedServer::new(&initial, make(), config);
                server.initialize();
                server.ingest_batch(&events);

                let m = server.metrics().clone();
                let tag = format!("n={n} paper={paper}");
                assert!(m.respeculated > 0, "{tag}: touches should respeculate");
                assert_eq!(broadcast_suffixes > 0, paper, "{tag}: fixture shape");
                assert!(
                    m.respeculated >= broadcast_suffixes,
                    "{tag}: a broadcast respeculates to its chunk's end"
                );
                assert_eq!(m.batches, events.len().div_ceil(batch_size) as u64, "{tag}");
                assert_eq!(m.rounds, m.batches, "{tag}: no chunk is evaluated twice");
                assert_eq!(server.answer(), engine.answer(), "{tag}");
                assert_eq!(server.ledger(), engine.ledger(), "{tag}");
                assert_eq!(server.reports_processed(), engine.reports_processed(), "{tag}");
                for i in 0..initial.len() {
                    let id = StreamId(i as u32);
                    assert_eq!(
                        server.view().get(id),
                        engine.view().get(id),
                        "{tag}: view diverged for {id}"
                    );
                }
                let truth = server.truth_values();
                let serial_truth: Vec<f64> = engine.fleet().iter().map(|s| s.value()).collect();
                assert_eq!(truth, serial_truth, "{tag}: respeculation lost source state");
            }
        }
    }

    #[test]
    fn drain_lookahead_at_every_report_count_matches_serial_engine() {
        // Chunks whose drains handle 0, 1, D − 1, D, D + 1 and 2D + 1
        // reports, D being the lookahead distance. Server-managed cells
        // re-install at every reporter, and each reporter recurs in its
        // chunk, stepping through three cells in turn: a report speculated
        // under the old cell turns silent or a silent step turns into a
        // report under the new one, so respeculation inserts and removes
        // `merged` entries ahead of the drain's cursor, the prefetched one
        // among them.
        const D: usize = PREFETCH_DISTANCE;
        let queries =
            vec![RangeQuery::new(100.0, 140.0).unwrap(), RangeQuery::new(150.0, 240.0).unwrap()];
        let (n, reporters, chunk_len) = (12usize, 5usize, 4 * D + 8);
        let initial = vec![50.0; n];
        // Three cells a reporter walks through: every step leaves its cell.
        let cells = [160.0, 120.0, 60.0];
        let mut step = vec![0usize; reporters];
        let mut value = initial.clone();
        let counts = [0, 1, D - 1, D, D + 1, 2 * D + 1];
        let chunks: Vec<Vec<UpdateEvent>> = counts
            .iter()
            .enumerate()
            .map(|(c, &reports)| {
                (0..chunk_len)
                    .map(|t| {
                        // Reporting steps at the chunk's even positions
                        // first, then silent repeats of a current value.
                        let r = t / 2;
                        let (stream, v) = if t % 2 == 0 && r < reports {
                            let s = (r * 3) % reporters;
                            step[s] += 1;
                            value[s] = cells[step[s] % cells.len()];
                            (s, value[s])
                        } else {
                            let s = (t * 7) % n;
                            (s, value[s])
                        };
                        let time = (c * chunk_len + t) as f64;
                        UpdateEvent { time, stream: StreamId(stream as u32), value: v }
                    })
                    .collect()
            })
            .collect();

        let make = || MultiRangeZt::new(queries.clone()).unwrap();
        let mut engine = Engine::new(&initial, make());
        engine.initialize();
        let mut serial_reports = Vec::new();
        for chunk in &chunks {
            let before = engine.reports_processed();
            chunk.iter().for_each(|&ev| engine.apply_event(ev));
            serial_reports.push(engine.reports_processed() - before);
        }
        assert_eq!(serial_reports, counts.map(|c| c as u64), "fixture shape");

        let placements = [(1, ExecMode::Inline), (2, ExecMode::Inline), (3, ExecMode::Inline)]
            .into_iter()
            .chain([(2, ExecMode::Threaded)]);
        for (shards, mode) in placements {
            let tag = format!("{shards} shards, {mode:?}");
            let config = ServerConfig::with_shards(shards).batch_size(chunk_len).mode(mode);
            let mut server = ShardedServer::new(&initial, make(), config);
            server.initialize();
            let mut drained = Vec::new();
            for chunk in &chunks {
                let before = server.metrics().reports_consumed;
                server.ingest_batch(chunk);
                drained.push(server.metrics().reports_consumed - before);
            }
            assert_eq!(drained, serial_reports, "{tag}: reports drained per chunk");
            assert!(server.metrics().respec_flips > 0, "{tag}: no report flipped");
            for j in 0..queries.len() {
                let answer = server.protocol().answer_of(j);
                assert_eq!(answer, engine.protocol().answer_of(j), "{tag}: query {j}");
            }
            assert_eq!(server.ledger(), engine.ledger(), "{tag}");
            let known = |view: &streamnet::ServerView| -> Vec<(StreamId, u64)> {
                view.iter_known().map(|(id, v)| (id, v.to_bits())).collect()
            };
            assert_eq!(known(server.view()), known(engine.view()), "{tag}: view");
            server.shutdown();
        }
    }
}
