//! One pass of one workload: repetitions of set-up + warm-up + the measured
//! closed loop with its correctness checks, then a durable phase with crash
//! + recovery on the last repetition's server.
//!
//! **Load shape.** Closed loop, one client, one generator thread: the
//! server has no wire frontend and ingest is a synchronous call, so the
//! driver alternates `SyntheticWorkload::next_batch(4096)` (timed apart,
//! never part of throughput) with `ShardedServer::ingest_event_batch`
//! (timed per call). A repetition stops at a fixed event count, and every
//! repetition feeds the same events to a fresh server, so call `i` does
//! identical work in each of them: what differs between its walls is what
//! the shared box added. The wall of every call of every repetition is kept.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use asf_core::engine::Engine;
use asf_core::protocol::{CtxStats, Protocol};
use asf_core::workload::{EventBatch, Workload};
use asf_core::AnswerSet;
use asf_server::{
    CheckpointMode, DurabilityConfig, ExecMode, ServerConfig, ServerMetrics, ShardedServer,
    TelemetryConfig, TraceDepth,
};
use asf_telemetry::CauseLedger;
use simkit::FaultMix;
use streamnet::{ChaosConfig, ChaosStats, Ledger};
use workloads::{SyntheticConfig, SyntheticWorkload};

use crate::spans::{SelfTimes, SpanLog};
use crate::workloads::Spec;

/// Events per ingest call (= the server's `batch_size`).
pub const CHUNK: usize = 4096;
/// Warm-up chunks at full scale (262,144 events), counted in `setup_s`.
pub const WARMUP_CHUNKS: usize = 64;
/// Chunks between oracle checks.
const CHECK_EVERY_CHUNKS: u64 = 256;
/// `ShardedServer::recover` calls timed after the crash.
const RECOVER_REPS: usize = 5;
/// Chunks the durable phase ingests past its cadence checkpoint before the
/// crash, so every recovery replays the same non-empty journal suffix.
const CRASH_SUFFIX_CHUNKS: u64 = 8;
/// Trace ring capacity of the traced pass (events per ring).
pub const TRACE_CAPACITY: usize = 1 << 20;

/// How much of a workload one pass runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Streams (the spec's population, divided at smoke scale).
    pub population: usize,
    /// Warm-up chunks of each repetition.
    pub warmup_chunks: usize,
    /// Measured chunks of each repetition.
    pub chunks: u64,
    /// Repetitions of set-up + measured part.
    pub reps: usize,
    /// Record and fold spans (`TraceDepth::Fine`).
    pub trace: bool,
}

impl Plan {
    /// Measured events of one repetition.
    pub fn measured_events(&self) -> u64 {
        self.chunks * CHUNK as u64
    }
}

/// What a workload plugs into the generic pass.
pub struct Hooks<'a, P: Protocol> {
    /// A fresh protocol (every server, the serial engine, every recovery).
    pub make: &'a dyn Fn() -> P,
    /// The tolerance oracle: one entry per check, `Some` = violated.
    pub check: &'a dyn Fn(&mut ShardedServer<P>) -> Vec<Option<String>>,
    /// Elementary cells of a multi-query protocol (0 otherwise).
    pub num_cells: usize,
}

/// The always-on public counters, read at one instant.
#[derive(Clone, Debug)]
pub struct Counters {
    /// `ShardedServer::metrics`.
    pub server: ServerMetrics,
    /// `ShardedServer::ctx_stats`.
    pub ctx: CtxStats,
    /// `ShardedServer::chaos_stats` (zeros without chaos).
    pub chaos: ChaosStats,
    /// `ShardedServer::causes`.
    pub causes: CauseLedger,
}

impl Counters {
    fn read<P: Protocol>(server: &ShardedServer<P>) -> Self {
        Self {
            server: server.metrics().clone(),
            ctx: *server.ctx_stats(),
            chaos: server.chaos_stats().copied().unwrap_or_default(),
            causes: server.causes().clone(),
        }
    }
}

/// One timed stretch of ingest calls on one server, with the counters
/// around it.
#[derive(Debug)]
pub struct Phase {
    /// Events ingested in the stretch.
    pub events: u64,
    /// Σ wall inside its `ingest_event_batch` calls, ns.
    pub ingest_ns: u64,
    /// Counters at its start.
    pub before: Counters,
    /// Counters at its end.
    pub after: Counters,
    /// Folded program spans of its chunks (traced pass).
    pub self_times: SelfTimes,
}

impl Phase {
    /// Mean wall inside `ingest_event_batch` per event, ns.
    pub fn ns_per_event(&self) -> f64 {
        self.ingest_ns as f64 / self.events as f64
    }
}

/// The durable phase: durability switched on after the measured part, one
/// checkpoint cadence plus a fixed suffix ingested, crash, recoveries.
#[derive(Debug)]
pub struct Durable {
    /// The ingest calls made with durability on.
    pub phase: Phase,
    /// Largest per-chunk growth of the journal footprint, bytes.
    pub journal_chunk_bytes: u64,
    /// Wall of each `ShardedServer::recover`, s.
    pub recover_s: Vec<f64>,
    /// `recovery_replay_ns` of each recovery.
    pub replay_ns: Vec<f64>,
    /// Events each recovery replayed past the loaded checkpoint.
    pub replayed_events: u64,
    /// Bytes in the durability directory at the crash.
    pub disk_bytes: u64,
    /// Bytes of the larger snapshot slot at the crash.
    pub snapshot_bytes: u64,
}

/// Everything one pass measured.
#[derive(Debug)]
pub struct Pass {
    /// Shards ran on the coordinator's thread.
    pub inline_shards: bool,
    /// Wall of each repetition's set-up, s.
    pub setup_s: Vec<f64>,
    /// Wall of every measured `ingest_event_batch` call, ns: `[repetition][call]`.
    pub call_ns: Vec<Vec<u64>>,
    /// Σ wall inside the measured `next_batch` calls of all repetitions, ns.
    pub gen_ns: u64,
    /// The measured part of the last repetition (the per-layer counters).
    pub measured: Phase,
    /// `initialize()` wall of the last repetition, ms.
    pub init_ms: f64,
    /// Counters right after that `initialize()`.
    pub after_init: CtxStats,
    /// Ledger messages since `initialize()`, over warm-up + measured part.
    pub messages: u64,
    /// Events ingested by then (warm-up + measured part).
    pub events_total: u64,
    /// Dead sources at the end of the measured part (chaos).
    pub dead_sources_end: u64,
    /// Elementary cells (multi-query).
    pub num_cells: usize,
    /// Serial `Engine::apply_batch` cost over the warm-up chunks, ns/event.
    pub engine_ns_per_event: f64,
    /// Correctness checks made (the run's operations).
    pub checks: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// The durable phase.
    pub durable: Durable,
    /// The process's `VmHWM` once the servers were done, KiB — read before
    /// the reference engine builds its own copy of the population.
    pub peak_rss_kb: u64,
    /// The driver's own spans (traced pass).
    pub span_log: SpanLog,
}

impl Pass {
    /// Σ over the measured calls of each call's fastest repetition, ns: the
    /// measured part's ingest wall with what the box added taken out. The
    /// repetitions do identical work call by call, so whatever a call costs
    /// in every repetition stays in.
    pub fn uncontended_ingest_ns(&self) -> u64 {
        (0..self.call_ns[0].len())
            .map(|call| self.call_ns.iter().map(|rep| rep[call]).min().expect("one repetition"))
            .sum()
    }
}

/// Removes its directory on drop: on success, on failed checks, and when a
/// panic unwinds.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server that went through set-up, with what later phases need.
struct Live<P: Protocol> {
    gen: SyntheticWorkload,
    server: ShardedServer<P>,
    initial: Vec<f64>,
    config: ServerConfig,
    inline_shards: bool,
    init_ms: f64,
    after_init: CtxStats,
    ledger_after_init: u64,
}

/// What one timed chunk cost.
struct ChunkCost {
    gen_ns: u64,
    ingest_ns: u64,
}

impl<P: Protocol> Live<P> {
    /// Generates one chunk and ingests it, each timed apart; in a traced
    /// pass, drains the program's spans and folds them into `fold`.
    fn chunk(
        &mut self,
        buf: &mut EventBatch,
        index: u64,
        log: &mut SpanLog,
        fold: Option<&mut SelfTimes>,
    ) -> Result<ChunkCost, String> {
        log.begin("gen", index);
        let t = Instant::now();
        self.gen.next_batch(CHUNK, buf);
        let gen_ns = t.elapsed().as_nanos() as u64;
        log.end();
        log.begin("ingest", index);
        let t = Instant::now();
        self.server.ingest_event_batch(buf);
        let ingest_ns = t.elapsed().as_nanos() as u64;
        log.end();
        if let Some(self_times) = fold {
            log.begin("drain_trace", index);
            let json = self.server.export_chrome_trace();
            self_times.fold(&json, self.inline_shards)?;
            log.end();
        }
        Ok(ChunkCost { gen_ns, ingest_ns })
    }
}

fn synthetic(population: usize, seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticConfig {
        num_streams: population,
        horizon: f64::INFINITY,
        seed,
        ..Default::default()
    })
}

/// Generator + server construction, `initialize()`, `enable_chaos`,
/// warm-up. Durability is not part of set-up: see [`durable_phase`].
fn set_up<P: Protocol>(
    spec: &Spec,
    seed: u64,
    plan: &Plan,
    hooks: &Hooks<'_, P>,
    log: &mut SpanLog,
) -> Live<P> {
    let telemetry = if plan.trace {
        TelemetryConfig { causes: true, trace: TraceDepth::Fine, trace_capacity: TRACE_CAPACITY }
    } else {
        TelemetryConfig::default()
    };
    let config =
        ServerConfig::with_shards(2).batch_size(CHUNK).mode(spec.mode).telemetry(telemetry);
    let mut gen = synthetic(plan.population, seed);
    let initial = gen.initial_values();
    let mut server = ShardedServer::new(&initial, (hooks.make)(), config);
    log.begin("initialize", 0);
    let t = Instant::now();
    server.initialize();
    let init_ms = t.elapsed().as_secs_f64() * 1e3;
    log.end();
    let after_init = *server.ctx_stats();
    let ledger_after_init = server.ledger().total();
    if spec.chaos {
        log.begin("enable_chaos", 0);
        server.enable_chaos(
            ChaosConfig::new(seed ^ 5, FaultMix::loss_only(0.05), u64::MAX)
                .lease_ticks(4 * CHUNK as u64),
        );
        log.end();
    }
    let mut buf = EventBatch::with_capacity(CHUNK);
    log.begin("warmup", 0);
    for _ in 0..plan.warmup_chunks {
        gen.next_batch(CHUNK, &mut buf);
        server.ingest_event_batch(&buf);
        if plan.trace {
            // Keep the rings from filling; warm-up spans are not folded.
            drop(server.export_chrome_trace());
        }
    }
    log.end();
    Live {
        gen,
        server,
        initial,
        config,
        inline_shards: spec.mode == ExecMode::Inline,
        init_ms,
        after_init,
        ledger_after_init,
    }
}

/// The warm-up chunks again, through the serial reference engine: answer
/// and ledger must be byte-identical to the server's after warm-up.
/// Returns the engine's ns/event and the verdict.
fn engine_differential<P: Protocol>(
    seed: u64,
    plan: &Plan,
    hooks: &Hooks<'_, P>,
    warm: &(AnswerSet, Ledger),
) -> (f64, Option<String>) {
    let mut gen = synthetic(plan.population, seed);
    let mut engine = Engine::new(&gen.initial_values(), (hooks.make)());
    engine.initialize();
    let mut buf = EventBatch::with_capacity(CHUNK);
    let mut ns = 0u64;
    for _ in 0..plan.warmup_chunks {
        gen.next_batch(CHUNK, &mut buf);
        let t = Instant::now();
        engine.apply_batch(&buf);
        ns += t.elapsed().as_nanos() as u64;
    }
    let verdict = if engine.answer() != warm.0 {
        Some("engine differential: answers differ after warm-up".to_string())
    } else if engine.ledger() != &warm.1 {
        Some("engine differential: ledgers differ after warm-up".to_string())
    } else {
        None
    };
    (ns as f64 / (plan.warmup_chunks * CHUNK) as f64, verdict)
}

/// Peak resident set of this process so far (`VmHWM`), KiB; 0 where
/// `/proc` does not say.
fn vm_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// `(all files, larger snapshot slot)` of a durability directory, bytes.
fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut total = 0;
    let mut snapshot = 0;
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let len = entry.metadata().map(|m| m.len()).unwrap_or(0);
        total += len;
        if entry.file_name().to_string_lossy().starts_with("snap-") {
            snapshot = snapshot.max(len);
        }
    }
    (total, snapshot)
}

/// The durable phase, after the measured part so that no timing metric
/// waits on the disk (on the sandbox's virtual disk a 64 MiB write + fsync
/// takes anything from 0.1 s to 4.6 s for minutes on end, and ingest that
/// journals through it spread 83% of its median over ten runs).
///
/// Durability is switched on (anchor checkpoint), the server ingests until
/// one cadence checkpoint was written and [`CRASH_SUFFIX_CHUNKS`] chunks
/// follow it, and is then dropped without shutdown. `recover` is timed
/// [`RECOVER_REPS`] times from the same directory and each result checked
/// against the crashed server. Checkpoints are written inline
/// (`CheckpointMode::Sync`): the default background writer coalesces a
/// checkpoint it is too busy for only after the image was encoded, and
/// re-encodes it at every following chunk, so what it writes follows disk
/// speed.
fn durable_phase<P: Protocol>(
    mut live: Live<P>,
    plan: &Plan,
    tmp: &Path,
    hooks: &Hooks<'_, P>,
    log: &mut SpanLog,
    checks: &mut u64,
    failures: &mut Vec<String>,
) -> Result<Durable, String> {
    // Unique per pass even when tests run passes on parallel threads.
    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
    let dir = TempDir(tmp.join(format!(
        "durable-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    )));
    let _ = std::fs::remove_dir_all(&dir.0);
    let cfg = DurabilityConfig::new(&dir.0).mode(CheckpointMode::Sync);
    log.begin("enable_durability", 0);
    live.server.enable_durability(cfg.clone()).map_err(|e| format!("enable_durability: {e}"))?;
    log.end();

    let before = Counters::read(&live.server);
    let start = live.server.events_processed();
    let mut self_times = SelfTimes::default();
    let mut buf = EventBatch::with_capacity(CHUNK);
    let (mut ingest_ns, mut journal_chunk_bytes, mut chunk) = (0u64, 0u64, 0u64);
    let mut last_checkpoint = None;
    let suffix = CRASH_SUFFIX_CHUNKS * CHUNK as u64;
    while last_checkpoint.is_none_or(|seq| live.server.events_processed() - seq != suffix) {
        chunk += 1;
        let (checkpoints, journal) = {
            let m = live.server.metrics();
            (m.checkpoints, m.journal_bytes)
        };
        ingest_ns +=
            live.chunk(&mut buf, chunk, log, plan.trace.then_some(&mut self_times))?.ingest_ns;
        let m = live.server.metrics();
        if m.checkpoints > checkpoints {
            last_checkpoint = Some(live.server.events_processed());
        }
        journal_chunk_bytes = journal_chunk_bytes.max(m.journal_bytes.saturating_sub(journal));
    }
    let after = Counters::read(&live.server);
    let events = live.server.events_processed();
    let answer = live.server.answer();
    let messages = live.server.ledger().total();
    let Live { server, initial, config, .. } = live;
    drop(server); // the crash: no shutdown, no final checkpoint
    let (disk_bytes, snapshot_bytes) = dir_bytes(&dir.0);

    let mut out = Durable {
        phase: Phase { events: events - start, ingest_ns, before, after, self_times },
        journal_chunk_bytes,
        recover_s: Vec::new(),
        replay_ns: Vec::new(),
        replayed_events: suffix,
        disk_bytes,
        snapshot_bytes,
    };
    for rep in 0..RECOVER_REPS {
        log.begin("recover", rep as u64);
        let t = Instant::now();
        let recovered = ShardedServer::recover(&initial, (hooks.make)(), config, cfg.clone());
        out.recover_s.push(t.elapsed().as_secs_f64());
        log.end();
        let recovered = recovered.map_err(|e| format!("recover: {e}"))?;
        out.replay_ns.push(recovered.metrics().recovery_replay_ns as f64);
        *checks += 3;
        if recovered.answer() != answer {
            failures.push(format!("recovery {rep}: answer differs from the crashed server's"));
        }
        if recovered.ledger().total() != messages {
            failures.push(format!("recovery {rep}: ledger total differs"));
        }
        if recovered.events_processed() != events {
            failures.push(format!("recovery {rep}: events_processed differs"));
        }
        recovered.shutdown();
    }
    Ok(out)
}

/// Runs one pass.
pub fn run_pass<P: Protocol>(
    spec: &Spec,
    seed: u64,
    plan: &Plan,
    tmp: &Path,
    hooks: &Hooks<'_, P>,
) -> Result<Pass, String> {
    let mut log = SpanLog::new(plan.trace);
    let mut checks = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut setup_s = Vec::with_capacity(plan.reps);
    let mut call_ns = Vec::with_capacity(plan.reps);
    let mut gen_ns = 0u64;
    // After warm-up, and at the end of the measured part, of repetition 0.
    let mut warm = None;
    let mut end: Option<(AnswerSet, Ledger)> = None;
    // The last repetition: its server, and its measured part.
    let mut last = None;

    for rep in 0..plan.reps {
        log.begin("setup", rep as u64);
        let t = Instant::now();
        let mut live = set_up(spec, seed, plan, hooks, &mut log);
        setup_s.push(t.elapsed().as_secs_f64());
        log.end();
        if rep == 0 {
            warm = Some((live.server.answer(), live.server.ledger().clone()));
        }

        let mut run_checks = |server: &mut ShardedServer<P>, log: &mut SpanLog, chunk: u64| {
            log.begin("oracle", chunk);
            for verdict in (hooks.check)(server) {
                checks += 1;
                if let Some(why) = verdict {
                    failures.push(format!("repetition {rep}, chunk {chunk}: {why}"));
                }
            }
            log.end();
        };
        let mut self_times = SelfTimes::default();
        let before = Counters::read(&live.server);
        let mut buf = EventBatch::with_capacity(CHUNK);
        let mut walls = Vec::with_capacity(plan.chunks as usize);
        for chunk in 1..=plan.chunks {
            let cost =
                live.chunk(&mut buf, chunk, &mut log, plan.trace.then_some(&mut self_times))?;
            gen_ns += cost.gen_ns;
            walls.push(cost.ingest_ns);
            if chunk % CHECK_EVERY_CHUNKS == 0 {
                run_checks(&mut live.server, &mut log, chunk);
            }
        }
        run_checks(&mut live.server, &mut log, plan.chunks);
        let after = Counters::read(&live.server);

        // Every repetition must have done the same work.
        match &end {
            None => end = Some((live.server.answer(), live.server.ledger().clone())),
            Some((answer, ledger)) => {
                checks += 1;
                if live.server.answer() != *answer || live.server.ledger() != ledger {
                    failures.push(format!("repetition {rep} did not repeat repetition 0"));
                }
            }
        }
        let ingest_ns = walls.iter().sum();
        call_ns.push(walls);
        if rep + 1 == plan.reps {
            let measured =
                Phase { events: plan.measured_events(), ingest_ns, before, after, self_times };
            last = Some((live, measured));
        } else {
            live.server.shutdown();
        }
    }

    let (live, measured) = last.expect("a plan has at least one repetition");
    let messages = live.server.ledger().total() - live.ledger_after_init;
    let events_total = live.server.events_processed();
    let dead_sources_end = live.server.chaos().map_or(0, |c| c.dead_count() as u64);
    let (init_ms, after_init, inline_shards) = (live.init_ms, live.after_init, live.inline_shards);
    let durable = durable_phase(live, plan, tmp, hooks, &mut log, &mut checks, &mut failures)?;
    let peak_rss_kb = vm_hwm_kb();

    // Last, so the reference engine's copy of the population is not part of
    // the peak RSS just read. Under chaos the ledger legitimately differs
    // (lost reports, repair probes), so only the cost is kept.
    let warm = warm.expect("repetition 0 ran");
    let (engine_ns_per_event, verdict) = engine_differential(seed, plan, hooks, &warm);
    if !spec.chaos {
        checks += 1;
        failures.extend(verdict);
    }

    Ok(Pass {
        inline_shards,
        setup_s,
        call_ns,
        gen_ns,
        measured,
        init_ms,
        after_init,
        messages,
        events_total,
        dead_sources_end,
        num_cells: hooks.num_cells,
        engine_ns_per_event,
        checks,
        failures,
        durable,
        peak_rss_kb,
        span_log: log,
    })
}
