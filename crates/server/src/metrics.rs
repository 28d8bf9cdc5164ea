//! Runtime metrics of the sharded server: batches, rounds, messages,
//! shard occupancy, and batch-apply latency percentiles.
//!
//! Everything here is observational — nothing feeds back into protocol
//! decisions, so wall-clock noise can never perturb determinism.
//!
//! Latency samples live in a bounded-memory [`LogHistogram`] rather than a
//! sample ring: **every** batch since startup contributes to the
//! percentiles (the old fixed ring silently forgot tail samples once it
//! wrapped), memory stays at one fixed bucket array regardless of uptime,
//! and histograms from different servers or shards merge exactly.

use asf_telemetry::{LogHistogram, Registry};

/// Where the time of **batch fleet operations** went — the `probe_many` /
/// `install_many` / `probe_all` / `broadcast` scatter/gathers issued by
/// protocol handlers against the shards.
///
/// The coordinator wall-clock of such an operation splits into shard-side
/// work (each shard runs its slice; concurrent in a multi-core deployment)
/// and coordinator-side fan-out/reassembly. `parallel_ns` sums, per
/// operation, the **maximum** shard busy time — what a perfectly parallel
/// execution waits for — while `busy_sum_ns` sums all shard busy time, so
/// `wall_ns − busy_sum_ns` is the genuinely serial coordinator overhead.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetOpStats {
    /// Coordinator wall time inside batch fleet operations, ns.
    pub wall_ns: u64,
    /// Σ over operations of the maximum per-shard busy time, ns — the
    /// parallel component.
    pub parallel_ns: u64,
    /// Σ of all shard busy time inside batch operations, ns.
    pub busy_sum_ns: u64,
    /// Σ per operation of `min(busy_sum, wall)` — the portion of the
    /// coordinator's wall that was shard-side work. This is what the
    /// serial accounting subtracts: with inline shards the busy sum is
    /// fully contained in the wall; with threaded shards the work
    /// overlapped and only up to the op's own wall can have contributed,
    /// so the subtraction is bounded per operation and can never erase
    /// unrelated coordinator time.
    pub hidden_ns: u64,
    /// Batch fleet operations executed.
    pub batch_ops: u64,
}

impl FleetOpStats {
    /// Re-registers the batch fleet-op split under `<prefix>.*`.
    pub fn register_into(&self, prefix: &str, reg: &mut Registry) {
        reg.counter(&format!("{prefix}.wall_ns"), self.wall_ns);
        reg.counter(&format!("{prefix}.parallel_ns"), self.parallel_ns);
        reg.counter(&format!("{prefix}.busy_sum_ns"), self.busy_sum_ns);
        reg.counter(&format!("{prefix}.hidden_ns"), self.hidden_ns);
        reg.counter(&format!("{prefix}.batch_ops"), self.batch_ops);
    }
}

/// Counters and samples collected while the server ingests batches.
#[derive(Clone, Debug, Default)]
pub struct ServerMetrics {
    /// Batches ingested.
    pub batches: u64,
    /// Speculative scatter/gather rounds: one per batch, so this equals
    /// `batches`.
    pub rounds: u64,
    /// Workload events ingested.
    pub events: u64,
    /// Events whose speculative application was committed (every event
    /// commits exactly once, so this reaches `events` at quiescence).
    pub speculative_commits: u64,
    /// Always 0 (every fleet touch respeculates); `asf_bench` reads it.
    pub rolled_back: u64,
    /// Reports consumed by the protocol core.
    pub reports_consumed: u64,
    /// Always 0 (every fleet touch respeculates); `asf_bench` reads it.
    pub cuts: u64,
    /// Fleet touches issued by report handlers during ingestion, every one
    /// respeculated: a `probe` / `install` / `deliver`, single or batch,
    /// at the touched streams' speculated positions, a `broadcast` /
    /// `probe_all` at every position past the report.
    pub scoped_touches: u64,
    /// Speculated applications rewound and re-applied around a fleet touch
    /// (zero for touches of streams with no speculated successor).
    pub respeculated: u64,
    /// Respeculated applications whose report bit flipped, each inserted
    /// into or removed from the tentative report stream.
    pub respec_flips: u64,
    /// Per-shard committed-event counts (occupancy), counted as each
    /// chunk is gathered.
    pub shard_events: Vec<u64>,
    /// Per-shard cumulative speculative-evaluation busy time (ns).
    pub shard_busy_ns: Vec<u64>,
    /// Sum over rounds of the *maximum* shard busy time in that round —
    /// the data-plane critical path of a perfectly parallel execution.
    pub critical_path_ns: u64,
    /// Coordinator-side scatter work per round (ns): sharing the window
    /// behind its `Arc`. Channel sends and any inline shard execution are
    /// excluded — those are data-plane time, metered via shard busy.
    pub scatter_ns: u64,
    /// Per-shard time spent scanning shared windows for owned events —
    /// the partition work, done by every shard inside the parallel region.
    /// Included in the corresponding shard busy / critical-path figures.
    pub shard_scan_ns: Vec<u64>,
    /// Coordinator time spent materializing ingested event slices into the
    /// pooled columnar chunk (ns). Zero when the feeder writes the chunk
    /// directly (`ShardedServer::run` via `Workload::next_batch`).
    pub window_build_ns: u64,
    /// Time the coordinator spent in serial report handling (ns),
    /// **excluding** the shard-side busy time of batch fleet operations
    /// issued inside handlers (attributed to [`ServerMetrics::fleet`]).
    pub serial_ns: u64,
    /// Batch fleet operations issued by report handlers during ingestion
    /// (handler probes, deployments, broadcasts).
    pub fleet: FleetOpStats,
    /// Σ of all per-partition busy time inside those maintenance passes
    /// (subtracted from `serial_ns`).
    pub index_busy_sum_ns: u64,
    /// Always 0 (a chunk's reports drain after its one evaluation round,
    /// so nothing overlaps); `asf_bench` reads it.
    pub overlap_saved_ns: u64,
    /// Quiescent commit points that closed at least one consumed report —
    /// the denominator of the report-coalescing gauge.
    pub report_groups: u64,
    /// Always 0 (every fleet touch respeculates); `asf_bench` reads it.
    pub discarded_window_busy_ns: u64,
    /// Checkpoints written (or scheduled on the background writer) since
    /// durability was enabled, full images and deltas alike. Zero without
    /// durability.
    pub checkpoints: u64,
    /// How many of `checkpoints` were deltas: the rows changed since the
    /// last full image plus the whole-state parts.
    pub delta_checkpoints: u64,
    /// Image bytes handed to the checkpoint writer, full images plus
    /// deltas (file framing excluded).
    pub checkpoint_bytes: u64,
    /// Coordinator critical-path time spent producing checkpoints (ns):
    /// state serialization plus the writer handoff — and, under
    /// `CheckpointMode::Sync`, the inline `fsync` as well.
    pub checkpoint_ns: u64,
    /// Total write-ahead journal bytes on disk (headers included): the
    /// active file plus any sealed segments not yet pruned by compaction.
    pub journal_bytes: u64,
    /// Time spent replaying the journal suffix during
    /// `ShardedServer::recover` (ns), from the restored checkpoint on: the
    /// restore itself is not included. Zero for servers that never
    /// recovered.
    pub recovery_replay_ns: u64,
    /// Server→source request frames retransmitted after a channel timeout.
    /// Zero without chaos (reliable channels never retry).
    pub retries: u64,
    /// Channel timeouts observed (one per dropped request frame). Zero
    /// without chaos.
    pub timeouts: u64,
    /// Sources currently considered dead (heartbeat lease expired). Zero
    /// without chaos.
    pub dead_sources: u64,
    /// Frames rejected idempotently by filter epoch or sequence number.
    /// Zero without chaos.
    pub epoch_rejects: u64,
    /// Coordinator time spent in the chunk-end fault-repair round (ns):
    /// parked-frame delivery, heartbeat/lease bookkeeping, degradation
    /// hooks, and repair re-probes. Zero without chaos.
    pub repair_ns: u64,
    /// Delivered heartbeats that refreshed a channel's lease. Zero without
    /// chaos.
    pub lease_renewals: u64,
    /// Lease expirations of sources that were actually up — the false
    /// positives adaptive leases exist to cut. Zero without chaos.
    pub spurious_expirations: u64,
    /// Chunk-end repair fan-outs charged as a single batched frame. Zero
    /// without chaos (or with per-channel repair charging).
    pub repair_batches: u64,
    /// The channel bytes of the most recent checkpoint, full or delta (a
    /// delta carries only the channels that changed). Zero without chaos
    /// or without durability.
    pub chaos_state_bytes: u64,
    /// Wall-clock batch-apply durations (ns) as a mergeable log-bucketed
    /// histogram: bounded memory, no sample loss.
    batch_hist: LogHistogram,
    /// Adaptive per-channel lease lengths (ticks) at each change, as a
    /// mergeable log-bucketed histogram. Empty without chaos or with
    /// adaptive leases off.
    lease_hist: LogHistogram,
}

impl ServerMetrics {
    /// Creates empty metrics for `num_shards` shards.
    pub fn new(num_shards: usize) -> Self {
        Self {
            shard_events: vec![0; num_shards],
            shard_busy_ns: vec![0; num_shards],
            shard_scan_ns: vec![0; num_shards],
            ..Default::default()
        }
    }

    /// Records one completed batch apply into the latency histogram —
    /// O(1), allocation-free, bounded memory however long the server runs.
    pub fn record_batch(&mut self, wall_ns: u64) {
        self.batch_hist.record(wall_ns);
        self.batches += 1;
    }

    /// Batch-apply latency percentile in nanoseconds (p in `[0, 100]`),
    /// over **every** batch since startup (within the histogram's ~3%
    /// bucket quantization); `None` before the first batch.
    pub fn batch_latency_ns(&self, p: f64) -> Option<f64> {
        self.batch_hist.percentile(p)
    }

    /// The batch-apply latency histogram itself — mergeable across servers
    /// (`LogHistogram::merge` is exact).
    pub fn batch_latency_hist(&self) -> &LogHistogram {
        &self.batch_hist
    }

    /// Records one adaptive-lease change (the channel's new lease length in
    /// ticks) into the lease histogram.
    pub fn record_lease_len(&mut self, ticks: u64) {
        self.lease_hist.record(ticks);
    }

    /// The adaptive lease-length histogram — one sample per per-channel
    /// lease change, mergeable across servers.
    pub fn lease_len_hist(&self) -> &LogHistogram {
        &self.lease_hist
    }

    /// Fraction of ingested events that never reached the coordinator (the
    /// parallel fast path: silent under their filter).
    pub fn parallel_fraction(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            (self.events.saturating_sub(self.reports_consumed)) as f64 / self.events as f64
        }
    }

    /// Reports consumed per quiescent commit point — how many independent
    /// reports one quiescent point covers on average. 1.0 means every
    /// report forced its own commit (no coalescing); higher is better.
    /// `None` before the first group closes.
    pub fn coalesced_reports_per_group(&self) -> Option<f64> {
        if self.report_groups == 0 {
            None
        } else {
            Some(self.reports_consumed as f64 / self.report_groups as f64)
        }
    }

    /// Shard occupancy skew: max / mean committed events per shard (1.0 is
    /// perfectly balanced); `None` until events have been committed.
    pub fn occupancy_skew(&self) -> Option<f64> {
        let total: u64 = self.shard_events.iter().sum();
        if total == 0 || self.shard_events.is_empty() {
            return None;
        }
        let mean = total as f64 / self.shard_events.len() as f64;
        let max = *self.shard_events.iter().max().expect("non-empty") as f64;
        Some(max / mean)
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        // `-` for readings that have no defined value yet — never `NaN`.
        fn opt(v: Option<f64>, decimals: usize) -> String {
            match v {
                Some(v) => format!("{v:.decimals$}"),
                None => "-".to_string(),
            }
        }
        format!(
            "batches={} rounds={} scoped_touches={} respeculated={} respec_flips={} \
             events={} reports={} \
             parallel_fraction={:.3} occupancy_skew={} coalesced_reports_per_group={} \
             batch_apply p50={}us p99={}us",
            self.batches,
            self.rounds,
            self.scoped_touches,
            self.respeculated,
            self.respec_flips,
            self.events,
            self.reports_consumed,
            self.parallel_fraction(),
            opt(self.occupancy_skew(), 3),
            opt(self.coalesced_reports_per_group(), 2),
            opt(self.batch_latency_ns(50.0).map(|ns| ns / 1_000.0), 1),
            opt(self.batch_latency_ns(99.0).map(|ns| ns / 1_000.0), 1),
        )
    }

    /// Re-registers every server metric into `reg` under `server.*` /
    /// `fleet.*` — the snapshot schema `crates/bench/README.md` documents.
    /// Per-shard vectors register as sums plus derived gauges so the key
    /// set is shard-count independent.
    pub fn register_into(&self, reg: &mut Registry) {
        reg.counter("server.batches", self.batches);
        reg.counter("server.rounds", self.rounds);
        reg.counter("server.events", self.events);
        reg.counter("server.speculative_commits", self.speculative_commits);
        reg.counter("server.rolled_back", self.rolled_back);
        reg.counter("server.reports_consumed", self.reports_consumed);
        reg.counter("server.cuts", self.cuts);
        reg.counter("server.scoped_touches", self.scoped_touches);
        reg.counter("server.respeculated", self.respeculated);
        reg.counter("server.respec_flips", self.respec_flips);
        reg.counter("server.report_groups", self.report_groups);
        reg.counter("server.shard_busy_ns", self.shard_busy_ns.iter().sum());
        reg.counter("server.shard_scan_ns", self.shard_scan_ns.iter().sum());
        reg.counter("server.critical_path_ns", self.critical_path_ns);
        reg.counter("server.scatter_ns", self.scatter_ns);
        reg.counter("server.window_build_ns", self.window_build_ns);
        reg.counter("server.serial_ns", self.serial_ns);
        reg.counter("server.index_busy_sum_ns", self.index_busy_sum_ns);
        reg.counter("server.overlap_saved_ns", self.overlap_saved_ns);
        reg.counter("server.discarded_window_busy_ns", self.discarded_window_busy_ns);
        reg.counter("server.checkpoints", self.checkpoints);
        reg.counter("server.delta_checkpoints", self.delta_checkpoints);
        reg.counter("server.checkpoint_bytes", self.checkpoint_bytes);
        reg.counter("server.checkpoint_ns", self.checkpoint_ns);
        reg.counter("server.journal_bytes", self.journal_bytes);
        reg.counter("server.recovery_replay_ns", self.recovery_replay_ns);
        reg.counter("server.retries", self.retries);
        reg.counter("server.timeouts", self.timeouts);
        reg.counter("server.dead_sources", self.dead_sources);
        reg.counter("server.epoch_rejects", self.epoch_rejects);
        reg.counter("server.repair_ns", self.repair_ns);
        reg.counter("server.lease_renewals", self.lease_renewals);
        reg.counter("server.spurious_expirations", self.spurious_expirations);
        reg.counter("server.repair_batches", self.repair_batches);
        reg.counter("server.chaos_state_bytes", self.chaos_state_bytes);
        reg.gauge("server.parallel_fraction", self.parallel_fraction());
        reg.gauge("server.occupancy_skew", self.occupancy_skew().unwrap_or(f64::NAN));
        reg.gauge(
            "server.coalesced_reports_per_group",
            self.coalesced_reports_per_group().unwrap_or(f64::NAN),
        );
        reg.histogram("server.batch_apply_ns", &self.batch_hist);
        reg.histogram("server.lease_len", &self.lease_hist);
        self.fleet.register_into("fleet", reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_skew() {
        let mut m = ServerMetrics::new(2);
        for ns in [100u64, 200, 300, 400] {
            m.record_batch(ns);
        }
        m.events = 10;
        m.reports_consumed = 2;
        m.shard_events = vec![6, 2];
        assert_eq!(m.batches, 4);
        let p50 = m.batch_latency_ns(50.0).unwrap();
        assert!((200.0..=300.0).contains(&p50), "p50 = {p50}");
        assert!((m.parallel_fraction() - 0.8).abs() < 1e-12);
        assert!((m.occupancy_skew().unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_quiet() {
        let m = ServerMetrics::new(4);
        assert!(m.batch_latency_ns(99.0).is_none());
        assert!(m.occupancy_skew().is_none());
        assert_eq!(m.parallel_fraction(), 0.0);
        let s = m.summary();
        assert!(!s.contains("NaN"), "undefined readings must print as '-': {s}");
        assert!(s.contains("occupancy_skew=-"), "summary was: {s}");
        assert!(s.contains("p50=-us"), "summary was: {s}");
    }

    #[test]
    fn latency_histogram_merges_and_registers() {
        let mut a = ServerMetrics::new(1);
        let mut b = ServerMetrics::new(1);
        for ns in [100u64, 300] {
            a.record_batch(ns);
        }
        for ns in [200u64, 400] {
            b.record_batch(ns);
        }
        let mut merged = a.batch_latency_hist().clone();
        merged.merge(b.batch_latency_hist());
        assert_eq!(merged.count(), 4);
        assert_eq!(merged.min(), Some(100));
        assert_eq!(merged.max(), Some(400));

        let mut reg = Registry::new();
        a.register_into(&mut reg);
        let json = reg.to_json();
        let parsed = asf_telemetry::json::parse(&json).expect("snapshot is valid JSON");
        assert_eq!(parsed.get("server.batches").and_then(|v| v.as_f64()), Some(2.0));
        let hist = parsed.get("server.batch_apply_ns").expect("histogram present");
        assert_eq!(hist.get("count").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(parsed.get("fleet.batch_ops").and_then(|v| v.as_f64()), Some(0.0));
    }
}
