//! Durable-chaos differential suite: crash recovery **during** a fault
//! storm.
//!
//! Every protocol runs the same seeded workload through the same seeded
//! fault-injecting channels twice:
//!
//! * a **reference** run — chaos enabled, no durability, never crashed —
//!   ingests the whole stream, and
//! * a **crashed** run — chaos *and* durability enabled — ingests a prefix
//!   that ends while faults are still active, crashes (drop without
//!   shutdown), recovers from disk, and ingests the rest.
//!
//! The checkpoint carries the full per-channel chaos machine (epochs,
//! sequences, leases, parked frames, dead set, counters, RNG words), and
//! replaying the journal suffix resumes the fault schedule's decision
//! stream mid-storm. The contract: the recovered run is **byte-identical**
//! to the never-crashed chaotic run — answers, views, ground truth, the
//! cumulative ledger, chaos statistics, per-channel epochs and adaptive
//! lease lengths, and the dead set — swept per protocol × fault mix ×
//! shard count × crash point inside the fault window.
//!
//! Also proven here: `enable_chaos`/`enable_durability` compose in either
//! order, and a cold recovery (checkpoints lost, whole journal replayed)
//! re-enters the fault stream from tick zero via
//! [`ShardedServer::recover_with_chaos`].

use std::path::PathBuf;

use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::protocol::{
    FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Protocol, Rtp, VtMax, ZtNrp, ZtRp,
};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::{UpdateEvent, Workload};
use asf_core::AnswerSet;
use asf_server::{CheckpointMode, DurabilityConfig, ServerConfig, ShardedServer};
use asf_telemetry::Cause;
use simkit::FaultMix;
use streamnet::{ChaosConfig, ChaosStats, StreamId};
use workloads::{SyntheticConfig, SyntheticWorkload};

const NUM_STREAMS: usize = 64;
const BATCH: usize = 128;

fn fixture(seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    fixture_of(NUM_STREAMS, 600.0, seed)
}

fn fixture_of(num_streams: usize, horizon: f64, seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams,
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

fn config(shards: usize) -> ServerConfig {
    ServerConfig::with_shards(shards).batch_size(BATCH)
}

fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("asf-chaos-rec-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &PathBuf) -> DurabilityConfig {
    // A cadence longer than two chunks, so some crash points land with a
    // journal suffix behind them: recovery must *replay* events through
    // the restored channel machine, resuming the fault schedule's RNG
    // mid-storm, not just deserialize a conveniently aligned checkpoint.
    DurabilityConfig::new(dir).checkpoint_every(300).mode(CheckpointMode::Sync)
}

/// Every deterministic observable the byte-identity contract compares —
/// protocol state, the full channel machine, and the cumulative ledger
/// (bit-exact encodings, no float comparisons).
#[derive(Debug, PartialEq)]
struct Observed {
    answer: AnswerSet,
    view: Vec<(bool, u64)>,
    truth: Vec<u64>,
    ledger: [u64; 5],
    reports: u64,
    events: u64,
    stats: ChaosStats,
    epochs: Vec<u64>,
    leases: Vec<u64>,
    dead: Vec<StreamId>,
}

fn capture<P: Protocol>(server: &mut ShardedServer<P>) -> Observed {
    let n = server.num_streams();
    let view = (0..n)
        .map(|i| {
            let id = StreamId(i as u32);
            let known = server.view().is_known(id);
            (known, if known { server.view().get(id).to_bits() } else { 0 })
        })
        .collect();
    let truth = server.truth_values().iter().map(|v| v.to_bits()).collect();
    let state = server.chaos().expect("chaos enabled");
    let epochs = (0..n).map(|i| state.epoch_of(StreamId(i as u32))).collect();
    let leases = (0..n).map(|i| state.lease_len_of(StreamId(i as u32))).collect();
    Observed {
        answer: server.answer(),
        view,
        truth,
        ledger: server.ledger().kind_counts(),
        reports: server.reports_processed(),
        events: server.events_processed(),
        stats: *server.chaos_stats().expect("chaos enabled"),
        epochs,
        leases,
        dead: server.chaos().expect("chaos enabled").dead_ids(),
    }
}

/// The never-crashed chaotic run. No durability attached — durability must
/// be purely observational, so the recovered run is held to the state an
/// undisturbed chaotic server reaches.
fn reference<P: Protocol, F: Fn() -> P>(
    initial: &[f64],
    events: &[UpdateEvent],
    make: &F,
    cfg: ChaosConfig,
) -> Observed {
    let mut server = ShardedServer::new(initial, make(), config(1));
    server.initialize();
    server.enable_chaos(cfg);
    server.ingest_batch(events);
    capture(&mut server)
}

/// Crash at `crash_at` (a chunk multiple inside the fault window), recover
/// from disk, ingest the rest, and capture the final state.
fn crashed_run<P: Protocol, F: Fn() -> P>(
    tag: &str,
    initial: &[f64],
    events: &[UpdateEvent],
    make: &F,
    shards: usize,
    cfg: ChaosConfig,
    crash_at: usize,
) -> Observed {
    let config = config(shards);
    let dir = test_dir("storm");
    let durable = durable(&dir);

    let mut crashed = ShardedServer::new(initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.enable_chaos(cfg);
    crashed.ingest_batch(&events[..crash_at]);
    assert!(
        crashed.chaos().expect("chaos enabled").faults_active(),
        "{tag}: the crash point must land inside the fault window"
    );
    assert!(crashed.metrics().checkpoints >= 1, "{tag}: no checkpoint became durable");
    assert!(crashed.metrics().chaos_state_bytes > 0, "{tag}: chaos state never serialized");
    // Crash: drop without shutdown — no final checkpoint, no flush.
    drop(crashed);

    let mut recovered = ShardedServer::recover(initial, make(), config, durable).unwrap();
    assert_eq!(
        recovered.events_processed(),
        crash_at as u64,
        "{tag}: recovery lost durable events"
    );
    let state = recovered.chaos().expect("{tag}: recovery must restore the channel machine");
    assert!(state.faults_active(), "{tag}: recovery must re-enter the still-open fault window");
    recovered.ingest_batch(&events[crash_at..]);
    let out = capture(&mut recovered);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// The full sweep for one protocol: per fault mix, the recovered run is
/// byte-identical to the never-crashed chaotic run across shard counts and
/// crash points inside the fault window. (Chaos runs are
/// backend-invariant — proven by `chaos_differential` — so one reference
/// per mix serves every backend.)
fn assert_storm_recovery_identical<P: Protocol, F: Fn() -> P>(name: &str, make: F) {
    let (initial, events) = fixture(0xFA17);
    // The storm never ends: repair probes advance the logical clock by
    // protocol-dependent timeout/backoff ticks, so an unbounded horizon is
    // the only way to guarantee every crash point lands mid-storm for
    // every protocol. (The finite-horizon case — a checkpoint carrying an
    // already-quiet schedule — is covered separately below.)
    let horizon = u64::MAX;
    // Chunk-aligned crash points: one on a checkpoint-free stretch right
    // after the anchor, one past the first cadence checkpoint — both force
    // a journal replay through the restored fault schedule.
    let crash_points = [2 * BATCH, 4 * BATCH];

    let mixes: [(&str, FaultMix); 3] = [
        ("loss", FaultMix::loss_only(0.1)),
        ("delay+reorder", FaultMix::delay_reorder(0.1)),
        ("crash-restart", FaultMix::crash_restart(0.01)),
    ];
    for (mix_name, mix) in mixes {
        let cfg = ChaosConfig::new(0xC4A05, mix, horizon).lease_ticks(512);
        let want = reference(&initial, &events, &make, cfg.clone());
        assert!(want.stats.lease_renewals > 0, "{name}: leases never renewed");
        for shards in [1usize, 2, 8] {
            for crash_at in crash_points {
                let tag = format!("{name} mix={mix_name} shards={shards} crash@{crash_at}");
                let got =
                    crashed_run(&tag, &initial, &events, &make, shards, cfg.clone(), crash_at);
                assert_eq!(got, want, "{tag}: recovered run diverged from the uncrashed run");
            }
        }
    }
}

#[test]
fn no_filter_storm_recovery_is_byte_identical() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    assert_storm_recovery_identical("no-filter/range", move || NoFilter::range(query));
}

#[test]
fn zt_nrp_storm_recovery_is_byte_identical() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    assert_storm_recovery_identical("ZT-NRP", move || ZtNrp::new(query));
}

#[test]
fn ft_nrp_storm_recovery_is_byte_identical() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::new(0.25, 0.25).unwrap();
    assert_storm_recovery_identical("FT-NRP", move || {
        FtNrp::new(query, tol, FtNrpConfig::default(), 42).unwrap()
    });
}

#[test]
fn zt_rp_storm_recovery_is_byte_identical() {
    let query = RankQuery::knn(500.0, 6).unwrap();
    assert_storm_recovery_identical("ZT-RP", move || ZtRp::new(query).unwrap());
}

#[test]
fn ft_rp_storm_recovery_is_byte_identical() {
    let query = RankQuery::knn(500.0, 8).unwrap();
    let tol = FractionTolerance::symmetric(0.25).unwrap();
    assert_storm_recovery_identical("FT-RP", move || {
        FtRp::new(query, tol, FtRpConfig::default(), 7).unwrap()
    });
}

#[test]
fn rtp_storm_recovery_is_byte_identical() {
    let query = RankQuery::knn(500.0, 5).unwrap();
    assert_storm_recovery_identical("RTP", move || Rtp::new(query, 3).unwrap());
}

#[test]
fn vt_max_storm_recovery_is_byte_identical() {
    assert_storm_recovery_identical("VT-MAX", || VtMax::new(50.0).unwrap());
}

#[test]
fn multi_query_storm_recovery_is_byte_identical() {
    let queries = vec![
        RangeQuery::new(100.0, 300.0).unwrap(),
        RangeQuery::new(200.0, 500.0).unwrap(),
        RangeQuery::new(450.0, 700.0).unwrap(),
    ];
    assert_storm_recovery_identical("MULTI-ZT", move || {
        MultiRangeZt::with_mode(queries.clone(), CellMode::ServerManaged).unwrap()
    });
}

/// What one delta storm showed besides byte identity.
struct DeltaStorm {
    /// The longest crashed run's checkpoint kinds per pair (`F` full, `D`
    /// delta; a pair's fulls are listed before its delta).
    kinds: String,
    /// The kind of the checkpoint each crash recovered through.
    through: String,
    /// Whether a delta that a crash recovered through was taken with
    /// report frames parked in the network.
    parked_at_delta: bool,
    /// The never-crashed run's fault counters.
    stats: ChaosStats,
}

/// The delta cadence under a storm: 1024 streams, 32-event server chunks
/// fed two at a time, a checkpoint per 64 events and a resync after every
/// fifth pair. A delta carries only the channels whose row changed, so
/// deltas follow one another until a resync re-anchors with full images;
/// the resync's probes make every channel an exception, so the checkpoint
/// after it is full by the half-image bound. Each crash lands one server
/// chunk past a checkpoint, so recovery replays it through the restored
/// channel machine, and the run must end byte-identical to the
/// never-crashed chaotic run with the same resyncs. Every delta's channel
/// bytes must be below the full image's before it.
fn assert_delta_storm_recovery_identical<P: Protocol, F: Fn() -> P>(
    name: &str,
    mix: FaultMix,
    make: F,
) -> DeltaStorm {
    const PAIR: usize = 64;
    let (initial, events) = fixture_of(1024, 30.0, 0xFA17);
    let pairs: Vec<&[UpdateEvent]> = events.chunks(PAIR).collect();
    let cfg = ChaosConfig::new(0xC4A05, mix, u64::MAX).lease_ticks(512);
    let drive = |server: &mut ShardedServer<P>, pairs_done: std::ops::Range<usize>| {
        for k in pairs_done {
            server.ingest_batch(pairs[k]);
            if (k + 1) % 5 == 0 {
                server.resync(make());
            }
        }
    };
    let config = ServerConfig::with_shards(2).batch_size(PAIR / 2);
    let mut reference = ShardedServer::new(&initial, make(), config);
    reference.initialize();
    reference.enable_chaos(cfg.clone());
    drive(&mut reference, 0..pairs.len());
    let want = capture(&mut reference);
    let mut storm = DeltaStorm {
        kinds: String::new(),
        through: String::new(),
        parked_at_delta: false,
        stats: want.stats,
    };
    for crash_after in [2, 3, 4, 7, 11] {
        let tag = format!("{name} crash in pair {crash_after}");
        let dir = test_dir("delta-storm");
        let durable =
            DurabilityConfig::new(&dir).checkpoint_every(PAIR as u64).mode(CheckpointMode::Sync);
        let mut crashed = ShardedServer::new(&initial, make(), config);
        crashed.initialize();
        crashed.enable_durability(durable.clone()).unwrap();
        crashed.enable_chaos(cfg.clone());
        let mut kinds = String::from("FFF");
        let mut full_chaos_bytes = crashed.metrics().chaos_state_bytes;
        for k in 0..crash_after {
            let m = crashed.metrics();
            let (full, delta) = (m.checkpoints - m.delta_checkpoints, m.delta_checkpoints);
            drive(&mut crashed, k..k + 1);
            let m = crashed.metrics();
            let (fulls, deltas) =
                (m.checkpoints - m.delta_checkpoints - full, m.delta_checkpoints - delta);
            kinds.push_str(&"F".repeat(fulls as usize));
            kinds.push_str(&"D".repeat(deltas as usize));
            // A pair's fulls come after its delta (a resync), so the last
            // checkpoint of the pair is a full one if there is any.
            if fulls > 0 {
                full_chaos_bytes = m.chaos_state_bytes;
            } else if deltas > 0 {
                let tag = format!("{tag}, pair {k}");
                assert!(
                    m.chaos_state_bytes < full_chaos_bytes,
                    "{tag}: delta channels not smaller"
                );
            }
        }
        let through = kinds.chars().last().unwrap();
        storm.through.push(through);
        storm.parked_at_delta |= through == 'D' && crashed.chaos().unwrap().parked_len() > 0;
        // Half of the next pair: one server chunk, journaled, no checkpoint.
        let (first, second) = pairs[crash_after].split_at(PAIR / 2);
        let checkpoints = crashed.metrics().checkpoints;
        crashed.ingest_batch(first);
        assert_eq!(crashed.metrics().checkpoints, checkpoints, "{tag}");
        assert!(crashed.chaos().unwrap().faults_active(), "{tag}: crash outside the storm");
        let split = crashed.events_processed();
        drop(crashed);

        let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
        assert_eq!(recovered.events_processed(), split, "{tag}: recovery lost durable events");
        assert_eq!(
            recovered.metrics().events,
            first.len() as u64,
            "{tag}: recovery must replay only past the last checkpoint ({kinds})"
        );
        recovered.ingest_batch(second);
        if (crash_after + 1) % 5 == 0 {
            recovered.resync(make());
        }
        drive(&mut recovered, crash_after + 1..pairs.len());
        assert_eq!(capture(&mut recovered), want, "{tag}: recovered run diverged ({kinds})");
        let _ = std::fs::remove_dir_all(&dir);
        storm.kinds = kinds;
    }
    storm
}

#[test]
fn delta_checkpoints_recover_mid_storm_byte_identical() {
    // ZT-NRP re-installs at each reporter and the repair rounds re-probe
    // gapped channels; paper RTP broadcasts on every shrink; every resync
    // probes every source.
    let range = RangeQuery::new(400.0, 600.0).unwrap();
    let knn = RankQuery::knn(500.0, 5).unwrap();
    let loss = FaultMix::loss_only(0.1);
    let storm = assert_delta_storm_recovery_identical("ZT-NRP", loss, || ZtNrp::new(range));
    let (kinds, through) = (storm.kinds, storm.through);
    // Three deltas in a row on one base: with the channel machine written
    // whole, the bound forced a full image after two.
    assert!(kinds.contains("FDDD"), "ZT-NRP: no delta chain: {kinds}");
    assert!(through.contains('D'), "ZT-NRP: no crash recovered through a delta: {through}");
    // Paper RTP's broadcasts touch every source: few of its checkpoints
    // stay under the bound, but those that do must recover.
    let storm = assert_delta_storm_recovery_identical("RTP/paper", loss, move || {
        Rtp::paper(knn, 3).unwrap()
    });
    assert!(storm.kinds.contains('D'), "RTP/paper: no delta: {}", storm.kinds);
}

#[test]
fn delta_checkpoints_recover_through_delays_duplicates_and_crashes() {
    // Without filters every update reports, so delayed frames (which
    // outlive a chunk) and crashed sources (down for several) straddle the
    // delta checkpoints a crash recovers through.
    let mix = FaultMix {
        drop_p: 0.05,
        delay_p: 0.1,
        dup_p: 0.05,
        crash_p: 0.01,
        max_delay_ticks: 100,
        max_outage_ticks: 300,
    };
    let range = RangeQuery::new(400.0, 600.0).unwrap();
    let storm =
        assert_delta_storm_recovery_identical("no-filter mixed", mix, || NoFilter::range(range));
    assert!(storm.through.contains('D'), "no crash recovered through a delta: {}", storm.through);
    assert!(storm.parked_at_delta, "no parked frame straddled a delta: {}", storm.kinds);
    let stats = storm.stats;
    assert!(stats.crashes > 0 && stats.dup_frames > 0, "{stats:?}");
}

#[test]
fn enable_order_is_irrelevant_to_durable_chaos() {
    // `enable_chaos` then `enable_durability` (the anchor checkpoint embeds
    // the channel machine) and the reverse (`enable_chaos` forces a fresh
    // anchor so no checkpoint predates the channel layer) both crash and
    // recover byte-identical to the uncrashed chaotic run.
    let (initial, events) = fixture(0xFA17);
    let crash_at = 2 * BATCH;
    let make = || ZtNrp::new(RangeQuery::new(400.0, 600.0).unwrap());
    let cfg = ChaosConfig::new(0xC4A05, FaultMix::loss_only(0.1), u64::MAX).lease_ticks(512);
    let want = reference(&initial, &events, &make, cfg.clone());

    for chaos_first in [true, false] {
        let tag = format!("order chaos_first={chaos_first}");
        let server_config = config(2);
        let dir = test_dir("order");
        let durable = durable(&dir);

        let mut crashed = ShardedServer::new(&initial, make(), server_config);
        crashed.initialize();
        if chaos_first {
            crashed.enable_chaos(cfg.clone());
            crashed.enable_durability(durable.clone()).unwrap();
        } else {
            crashed.enable_durability(durable.clone()).unwrap();
            crashed.enable_chaos(cfg.clone());
        }
        crashed.ingest_batch(&events[..crash_at]);
        assert!(crashed.chaos().unwrap().faults_active(), "{tag}: crash outside the window");
        drop(crashed);

        let mut recovered =
            ShardedServer::recover(&initial, make(), server_config, durable).unwrap();
        assert_eq!(recovered.events_processed(), crash_at as u64, "{tag}: lost events");
        recovered.ingest_batch(&events[crash_at..]);
        let got = capture(&mut recovered);
        assert_eq!(got, want, "{tag}: recovered run diverged");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_after_the_horizon_restores_a_quiet_schedule() {
    // The storm is over by the time the server crashes: the checkpoint
    // carries a schedule past its horizon (draws deliver without consuming
    // randomness), plus whatever channel damage the storm left behind.
    // Recovery restores the quiet schedule and the damage, and the rest of
    // the run still matches the uncrashed one byte for byte.
    let (initial, events) = fixture(0xFA17);
    let horizon = BATCH as u64; // one chunk of faults, then silence
    let crash_at = 4 * BATCH;
    let make = || ZtNrp::new(RangeQuery::new(400.0, 600.0).unwrap());
    let cfg = ChaosConfig::new(0xC4A05, FaultMix::loss_only(0.1), horizon).lease_ticks(512);
    let want = reference(&initial, &events, &make, cfg.clone());

    let server_config = config(2);
    let dir = test_dir("quiet");
    let durable = durable(&dir);
    let mut crashed = ShardedServer::new(&initial, make(), server_config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.enable_chaos(cfg);
    crashed.ingest_batch(&events[..crash_at]);
    assert!(
        !crashed.chaos().unwrap().faults_active(),
        "the horizon must have passed before this crash point"
    );
    drop(crashed);

    let mut recovered = ShardedServer::recover(&initial, make(), server_config, durable).unwrap();
    assert_eq!(recovered.events_processed(), crash_at as u64, "quiet: lost events");
    assert!(
        !recovered.chaos().unwrap().faults_active(),
        "recovery must restore the schedule as already quiet"
    );
    recovered.ingest_batch(&events[crash_at..]);
    let got = capture(&mut recovered);
    assert_eq!(got, want, "post-horizon recovery diverged from the uncrashed run");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_chaotic_recovery_replays_the_fault_stream_from_tick_zero() {
    // Both checkpoint slots lost: the cold path re-initializes (the probe
    // storm is attributed to `Cause::Recovery`), re-attaches the channel
    // layer from the config passed to `recover_with_chaos`, and replays the
    // whole journal — re-entering the fault schedule from tick zero. The
    // final state still matches the uncrashed chaotic run; only the cause
    // labels differ.
    let (initial, events) = fixture(0xFA17);
    let crash_at = 4 * BATCH;
    let make = || ZtNrp::new(RangeQuery::new(400.0, 600.0).unwrap());
    let cfg = ChaosConfig::new(0xC4A05, FaultMix::loss_only(0.1), u64::MAX).lease_ticks(512);
    let want = reference(&initial, &events, &make, cfg.clone());

    let server_config = config(2);
    let dir = test_dir("cold");
    let durable = durable(&dir);
    let mut crashed = ShardedServer::new(&initial, make(), server_config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.enable_chaos(cfg.clone());
    crashed.ingest_batch(&events[..crash_at]);
    drop(crashed);
    for snap in ["snap-a.bin", "snap-b.bin"] {
        std::fs::remove_file(dir.join(snap)).unwrap();
    }

    let mut recovered =
        ShardedServer::recover_with_chaos(&initial, make(), server_config, durable, Some(cfg))
            .unwrap();
    assert_eq!(recovered.events_processed(), crash_at as u64, "cold: lost events");
    assert!(
        recovered.causes().total(Cause::Recovery) > 0,
        "cold recovery must attribute its startup storm to the recovery cause"
    );
    assert!(recovered.chaos().unwrap().faults_active(), "cold: fault window must be re-open");
    recovered.ingest_batch(&events[crash_at..]);
    let got = capture(&mut recovered);
    assert_eq!(got, want, "cold chaotic recovery diverged from the uncrashed run");
    let _ = std::fs::remove_dir_all(&dir);
}
