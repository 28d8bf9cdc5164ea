//! Crash-recovery correctness of `asf-server`'s durability layer: for
//! **every** protocol, a server that crashes mid-stream and recovers from
//! its durability directory (latest valid checkpoint + journal-suffix
//! replay) is **byte-identical** — answers, message ledgers, views, rank
//! order, cause matrix, ground truth — to a server that processed the same
//! durable prefix without ever crashing, across shard counts.
//! Fault-injection cases (torn journal tails, torn checkpoints, lost
//! checkpoints, bit flips) recover to the last durable quiescent point
//! instead of panicking or silently replaying corruption.

use std::path::PathBuf;
use std::time::Instant;

use asf_core::engine::Engine;
use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::protocol::{
    FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Protocol, Rtp, VtMax, ZtNrp, ZtRp,
};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::{UpdateEvent, VecWorkload, Workload};
use asf_persist::SnapshotStore;
use asf_server::{
    CheckpointMode, DurabilityConfig, ExecMode, ServerConfig, ServerMetrics, ShardedServer,
};
use asf_telemetry::Cause;
use streamnet::StreamId;
use workloads::{SyntheticConfig, SyntheticWorkload};

const NUM_STREAMS: usize = 64;

fn fixture(seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    fixture_of(NUM_STREAMS, 150.0, seed)
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

fn test_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("asf-recovery-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts every deterministic observable of `got` matches `want`:
/// answers, ledger, report/event counts, the full view, the maintained
/// rank order, the per-cause message matrix (unless `skip_causes` — cold
/// recovery intentionally relabels its startup storm), and ground truth.
fn assert_state_identical<P: Protocol>(
    tag: &str,
    got: &mut ShardedServer<P>,
    want: &mut ShardedServer<P>,
    skip_causes: bool,
) {
    assert_eq!(got.answer(), want.answer(), "{tag}: answers diverged");
    assert_eq!(got.ledger(), want.ledger(), "{tag}: ledgers diverged");
    assert_eq!(got.reports_processed(), want.reports_processed(), "{tag}: report counts diverged");
    assert_eq!(got.events_processed(), want.events_processed(), "{tag}: event counts diverged");
    for i in 0..got.num_streams() {
        let id = StreamId(i as u32);
        assert_eq!(
            got.view().is_known(id),
            want.view().is_known(id),
            "{tag}: view knowledge diverged for {id}"
        );
        if got.view().is_known(id) {
            assert_eq!(got.view().get(id), want.view().get(id), "{tag}: view diverged for {id}");
        }
    }
    assert_eq!(
        got.rank_index().map(|f| f.ordered_pairs()),
        want.rank_index().map(|f| f.ordered_pairs()),
        "{tag}: rank order diverged"
    );
    if !skip_causes {
        assert_eq!(got.causes(), want.causes(), "{tag}: cause matrices diverged");
    }
    assert_eq!(got.truth_values(), want.truth_values(), "{tag}: ground truth diverged");
    // Everything the protocol checkpoints — for RTP that includes the
    // held-bound ledger the next deployment is computed from.
    let saved = |server: &ShardedServer<P>| {
        let mut w = asf_persist::StateWriter::new();
        server.protocol().save_state(&mut w);
        w.into_bytes()
    };
    assert_eq!(saved(got), saved(want), "{tag}: protocol state diverged");
}

/// Runs `make()`'s protocol to the end without crashing (no durability
/// attached — durability must be observational).
fn reference<P: Protocol, F: Fn() -> P>(
    initial: &[f64],
    events: &[UpdateEvent],
    make: &F,
    config: ServerConfig,
) -> ShardedServer<P> {
    let mut server = ShardedServer::new(initial, make(), config);
    server.initialize();
    server.ingest_batch(events);
    server
}

/// The tentpole differential: crash `make()`'s protocol at 60% of the
/// stream, recover from disk, feed the rest, and demand byte-identity with
/// the never-crashed run — across shard counts.
fn assert_crash_recovery_identical<P, F>(name: &str, make: F)
where
    P: Protocol,
    F: Fn() -> P,
{
    let (initial, events) = fixture(0xFEED);
    let split = events.len() * 6 / 10;
    assert_crash_at_recovers_identical(name, make, &initial, &events, split);
}

/// [`assert_crash_recovery_identical`] with the crash after
/// `events[..split]`.
fn assert_crash_at_recovers_identical<P, F>(
    name: &str,
    make: F,
    initial: &[f64],
    events: &[UpdateEvent],
    split: usize,
) where
    P: Protocol,
    F: Fn() -> P,
{
    for shards in [1usize, 2, 8] {
        let tag = format!("{name} shards={shards}");
        let config = ServerConfig::with_shards(shards).batch_size(64);
        let dir = test_dir("diff");
        let durable = DurabilityConfig::new(&dir).checkpoint_every(100).mode(CheckpointMode::Sync);

        let mut crashed = ShardedServer::new(initial, make(), config);
        crashed.initialize();
        crashed.enable_durability(durable.clone()).unwrap();
        crashed.ingest_batch(&events[..split]);
        assert_eq!(crashed.events_processed(), split as u64);
        assert!(crashed.metrics().checkpoints > 1, "{tag}: cadence never fired");
        // Crash: drop without shutdown — no final checkpoint, no flush.
        drop(crashed);

        let wall = Instant::now();
        let mut recovered = ShardedServer::recover(initial, make(), config, durable).unwrap();
        let wall_ns = wall.elapsed().as_nanos() as u64;
        assert_eq!(
            recovered.events_processed(),
            split as u64,
            "{tag}: recovery lost durable events"
        );
        // A warm recovery: the checkpoint restore and the journal replay
        // are metered apart, and together fit inside the call.
        let (restore_ns, replay_ns) =
            (recovered.metrics().recovery_restore_ns, recovered.metrics().recovery_replay_ns);
        assert!(restore_ns > 0, "{tag}: restore not metered");
        assert!(replay_ns > 0, "{tag}: replay not metered");
        assert!(
            restore_ns + replay_ns <= wall_ns,
            "{tag}: restore {restore_ns} + replay {replay_ns} ns exceed the call's {wall_ns} ns"
        );
        recovered.ingest_batch(&events[split..]);

        let mut want = reference(initial, events, &make, config);
        assert_state_identical(&tag, &mut recovered, &mut want, false);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The delta cadence: 512 streams, 64-event chunks, a checkpoint every two
/// chunks and a resync after every seventh, so checkpoints cycle full →
/// delta → delta → … → full (a delta carries only the sources touched
/// since its full image, and the rule writes a full image once that
/// passes half of one; a resync re-anchors with full images). The run
/// crashes after each chunk of a sweep — one chunk of journal past a
/// checkpoint, or none — and must recover byte-identical to a
/// never-crashed run with the same resyncs, replaying only the journal
/// past the crashed run's last checkpoint, delta or full. Every delta
/// stays below half the bytes of the last full image. Returns the longest
/// crashed run's checkpoint kinds, in order (`F` full, `D` delta), and the
/// kind each crash recovered through.
fn assert_delta_cadence_recovers_identical<P, F>(name: &str, make: F) -> (String, String)
where
    P: Protocol,
    F: Fn() -> P,
{
    const CHUNK: usize = 64;
    let (initial, events) = fixture_of(512, 80.0, 0xDE17A);
    let chunks: Vec<&[UpdateEvent]> = events.chunks(CHUNK).collect();
    // `seen` reads the metrics after every chunk and every resync.
    let drive = |server: &mut ShardedServer<P>,
                 chunks_done: std::ops::Range<usize>,
                 seen: &mut dyn FnMut(&ServerMetrics)| {
        for k in chunks_done {
            server.ingest_batch(chunks[k]);
            seen(server.metrics());
            if (k + 1) % 7 == 0 {
                server.resync(make());
                seen(server.metrics());
            }
        }
    };
    let (mut kinds, mut recovered_through) = (String::new(), String::new());
    for shards in [1usize, 3] {
        let config = ServerConfig::with_shards(shards).batch_size(CHUNK);
        let mut want = ShardedServer::new(&initial, make(), config);
        want.initialize();
        drive(&mut want, 0..chunks.len(), &mut |_| {});
        for crash_after in [3, 7, 9, 16, 19, 24] {
            let tag = format!("{name} shards={shards} crash after chunk {crash_after}");
            let dir = test_dir("delta");
            let durable = DurabilityConfig::new(&dir)
                .checkpoint_every(2 * CHUNK as u64)
                .mode(CheckpointMode::Sync);
            let mut crashed = ShardedServer::new(&initial, make(), config);
            crashed.initialize();
            crashed.enable_durability(durable.clone()).unwrap();
            let mut log = CheckpointLog::anchored(crashed.metrics());
            drive(&mut crashed, 0..crash_after, &mut |m| log.observe(&tag, m));
            let CheckpointLog { kinds: run_kinds, last_checkpoint, .. } = log;
            kinds = run_kinds;
            let split = crashed.events_processed();
            recovered_through.extend(kinds.chars().last());
            drop(crashed);

            let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
            assert_eq!(recovered.events_processed(), split, "{tag}: recovery lost durable events");
            assert_eq!(
                recovered.metrics().events,
                split - last_checkpoint,
                "{tag}: recovery must replay only past the last checkpoint ({kinds})"
            );
            drive(&mut recovered, crash_after..chunks.len(), &mut |_| {});
            assert_state_identical(&tag, &mut recovered, &mut want, false);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    (kinds, recovered_through)
}

/// The checkpoints a durable run wrote, read off its metrics after every
/// step that can write one: an ingested chunk writes at most one, a
/// resync two full images of one state.
struct CheckpointLog {
    /// Their kinds, in order (`F` full, `D` delta), the anchor first.
    kinds: String,
    /// The event sequence of the newest.
    last_checkpoint: u64,
    /// The bytes of the newest full image.
    full_bytes: u64,
    /// `(checkpoints, delta_checkpoints, checkpoint_bytes)` when last read.
    seen: (u64, u64, u64),
}

impl CheckpointLog {
    /// The log of a run whose only checkpoint is its anchor.
    fn anchored(m: &ServerMetrics) -> Self {
        assert_eq!((m.checkpoints, m.delta_checkpoints), (1, 0), "one full anchor");
        let seen = (m.checkpoints, m.delta_checkpoints, m.checkpoint_bytes);
        Self { kinds: "F".into(), last_checkpoint: m.events, full_bytes: m.checkpoint_bytes, seen }
    }

    /// Logs the checkpoints written since the last read. A delta must be
    /// below half the bytes of the last full image (the full-or-delta
    /// rule's bound).
    fn observe(&mut self, tag: &str, m: &ServerMetrics) {
        let (checkpoints, deltas, bytes) = (
            m.checkpoints - self.seen.0,
            m.delta_checkpoints - self.seen.1,
            m.checkpoint_bytes - self.seen.2,
        );
        self.seen = (m.checkpoints, m.delta_checkpoints, m.checkpoint_bytes);
        if checkpoints == 0 {
            return;
        }
        self.last_checkpoint = m.events;
        if deltas == 0 {
            self.full_bytes = bytes / checkpoints;
            self.kinds.push_str(&"F".repeat(checkpoints as usize));
        } else {
            assert_eq!((checkpoints, deltas), (1, 1), "{tag}: a delta is a chunk's one checkpoint");
            assert!(
                2 * bytes < self.full_bytes,
                "{tag}: a {bytes}-byte delta against a {}-byte full image ({})",
                self.full_bytes,
                self.kinds
            );
            self.kinds.push('D');
        }
    }
}

#[test]
fn delta_checkpoints_recover_byte_identical() {
    // ZT-NRP re-installs at each reporter; scoped RTP installs in batches
    // (`install_many`) and probes rings; paper RTP broadcasts on every
    // shrink; FT-RP probes every source when it reinitializes. Every
    // resync probes every source again.
    let range = RangeQuery::new(400.0, 600.0).unwrap();
    let knn = RankQuery::knn(500.0, 5).unwrap();
    let tol = FractionTolerance::symmetric(0.25).unwrap();
    let query = RankQuery::knn(500.0, 8).unwrap();
    let kinds = [
        assert_delta_cadence_recovers_identical("ZT-NRP", || ZtNrp::new(range)),
        assert_delta_cadence_recovers_identical("RTP", move || Rtp::new(knn, 3).unwrap()),
        assert_delta_cadence_recovers_identical("RTP/paper", move || Rtp::paper(knn, 3).unwrap()),
        assert_delta_cadence_recovers_identical("FT-RP", move || {
            FtRp::new(query, tol, FtRpConfig::default(), 7).unwrap()
        }),
    ];
    for (kinds, through) in kinds {
        assert!(kinds.contains("FDDF") || kinds.contains("FDDDF"), "no delta cycle: {kinds}");
        assert!(through.contains('D'), "no crash recovered through a delta: {through}");
    }
}

#[test]
fn no_filter_recovers_byte_identical() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    assert_crash_recovery_identical("no-filter/range", || NoFilter::range(query));
}

#[test]
fn zt_nrp_recovers_byte_identical() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    assert_crash_recovery_identical("ZT-NRP", || ZtNrp::new(query));
}

#[test]
fn ft_nrp_recovers_byte_identical() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::new(0.25, 0.25).unwrap();
    assert_crash_recovery_identical("FT-NRP", move || {
        FtNrp::new(query, tol, FtNrpConfig::default(), 42).unwrap()
    });
}

#[test]
fn zt_rp_recovers_byte_identical() {
    let query = RankQuery::knn(500.0, 6).unwrap();
    assert_crash_recovery_identical("ZT-RP", move || ZtRp::new(query).unwrap());
}

#[test]
fn ft_rp_recovers_byte_identical() {
    let query = RankQuery::knn(500.0, 8).unwrap();
    let tol = FractionTolerance::symmetric(0.25).unwrap();
    assert_crash_recovery_identical("FT-RP", move || {
        FtRp::new(query, tol, FtRpConfig::default(), 7).unwrap()
    });
}

#[test]
fn rtp_recovers_byte_identical() {
    let query = RankQuery::knn(500.0, 5).unwrap();
    assert_crash_recovery_identical("RTP", move || Rtp::new(query, 3).unwrap());
}

#[test]
fn rtp_crash_between_a_shrink_and_the_next_expansion_recovers_the_ledger() {
    // The held-bound ledger decides where the next expansion installs, so a
    // recovered server must carry the crashed server's exact ledger: crash
    // right before an expansion search that starts from a non-empty
    // exception list (left there by earlier overflow shrinks).
    let (initial, events) = fixture(0xFEED);
    let query = RankQuery::knn(500.0, 5).unwrap();
    let make = move || Rtp::new(query, 1).unwrap();
    let mut serial = Engine::new(&initial, make());
    serial.initialize();
    let split = events
        .iter()
        .position(|&ev| {
            let before = (serial.protocol().expansions(), serial.protocol().held_exceptions());
            serial.apply_event(ev);
            let p = serial.protocol();
            // Past the second checkpoint, an expansion that did not
            // broadcast, out of a ledger with exceptions in it.
            serial.events_processed() > 200
                && before.1 > 0
                && p.expansions() > before.0
                && p.full_broadcasts() == 1
        })
        .expect("fixture has no scoped expansion after a shrink");
    assert_crash_at_recovers_identical("RTP", make, &initial, &events, split);
}

#[test]
fn vt_max_recovers_byte_identical() {
    assert_crash_recovery_identical("VT-MAX", || VtMax::new(50.0).unwrap());
}

#[test]
fn multi_query_recovers_byte_identical() {
    let queries = vec![
        RangeQuery::new(100.0, 300.0).unwrap(),
        RangeQuery::new(200.0, 500.0).unwrap(),
        RangeQuery::new(450.0, 700.0).unwrap(),
    ];
    assert_crash_recovery_identical("MULTI-ZT", move || {
        MultiRangeZt::new(queries.clone()).unwrap()
    });
}

#[test]
fn routed_multi_query_fleet_recovers_byte_identical() {
    // Fleet scale: 1024 routed queries (seeded random + duplicates, shared
    // endpoints, a point query) — the per-query answer sets and the
    // stream's last-routed values all live in protocol state, so recovery
    // must restore the whole routing picture, not just the union answer.
    let mut rng = simkit::SimRng::seed_from_u64(0x9EC0);
    let mut queries: Vec<RangeQuery> = (0..1020)
        .map(|_| {
            let lo = rng.range_f64(0.0, 950.0);
            RangeQuery::new(lo, lo + rng.range_f64(0.0, 120.0)).unwrap()
        })
        .collect();
    queries.extend([
        RangeQuery::new(0.0, 1000.0).unwrap(),
        RangeQuery::new(400.0, 600.0).unwrap(),
        RangeQuery::new(400.0, 600.0).unwrap(),
        RangeQuery::new(500.0, 500.0).unwrap(),
    ]);
    assert_eq!(queries.len(), 1024);
    assert_crash_recovery_identical("MULTI-ZT-1K", move || {
        MultiRangeZt::new(queries.clone()).unwrap()
    });
}

#[test]
fn journal_replay_through_scoped_touches_recovers_byte_identical() {
    // Server-managed MULTI-ZT over 100 narrow queries re-installs at the
    // reporter on nearly every event. Replay is ordinary ingest, so the
    // journal suffix goes through the same touch rule: reports whose
    // stream has no speculated successor are forwarded as they are, the
    // rest collide and respeculate. A cadence longer than
    // the run leaves the whole crashed prefix to the replay.
    let (initial, events) = fixture(0x5C09ED);
    let split = events.len() * 6 / 10;
    let queries: Vec<RangeQuery> = (0..100)
        .map(|j| RangeQuery::new(j as f64 * 10.0, j as f64 * 10.0 + 10.0).unwrap())
        .collect();
    let make = || MultiRangeZt::with_mode(queries.clone(), CellMode::ServerManaged).unwrap();

    let mut engine = Engine::new(&initial, make());
    engine.initialize();
    engine.run(&mut VecWorkload::new(initial.clone(), events.clone()));

    for (shards, mode) in
        [(1usize, ExecMode::Inline), (2, ExecMode::Threaded), (8, ExecMode::Inline)]
    {
        let tag = format!("scoped replay shards={shards} {mode:?}");
        let config = ServerConfig::with_shards(shards).batch_size(64).mode(mode);
        let dir = test_dir("scoped");
        let durable =
            DurabilityConfig::new(&dir).checkpoint_every(1 << 40).mode(CheckpointMode::Sync);

        let mut crashed = ShardedServer::new(&initial, make(), config);
        crashed.initialize();
        crashed.enable_durability(durable.clone()).unwrap();
        crashed.ingest_batch(&events[..split]);
        drop(crashed);

        let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
        assert_eq!(recovered.events_processed(), split as u64, "{tag}: replay lost events");
        // A recovered server's metrics start at zero: these are the replay's.
        let replay = recovered.metrics().clone();
        assert!(replay.scoped_touches > 0, "{tag}: replay should forward scoped touches");
        assert!(replay.respeculated > 0, "{tag}: replay should also hit collisions");
        assert!(replay.respec_flips > 0, "{tag}: respeculation should flip report bits");
        assert_eq!(replay.batches, split.div_ceil(64) as u64, "{tag}: replay is every chunk");
        assert_eq!(replay.rounds, replay.batches, "{tag}: one round per replayed chunk");
        recovered.ingest_batch(&events[split..]);

        let mut want = reference(&initial, &events, &make, config);
        assert_state_identical(&tag, &mut recovered, &mut want, false);
        // And both agree with the serial engine, per query.
        assert_eq!(recovered.ledger(), engine.ledger(), "{tag}: ledger vs engine");
        assert_eq!(recovered.reports_processed(), engine.reports_processed(), "{tag}");
        for j in 0..queries.len() {
            assert_eq!(
                recovered.protocol().answer_of(j),
                engine.protocol().answer_of(j),
                "{tag}: answer of query {j} vs engine"
            );
        }
        recovered.shutdown();
        want.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn multi_rank_recovers_byte_identical() {
    // The shared-rank multi-query protocol: cuts and the shared top list
    // are protocol state; the rank forest is rebuilt from the view.
    let queries: Vec<asf_core::query::RankQuery> = [2usize, 5, 5, 9]
        .iter()
        .map(|&k| asf_core::query::RankQuery::knn(500.0, k).unwrap())
        .collect();
    assert_crash_recovery_identical("MULTI-ZT-RANK", move || {
        asf_core::multi_rank::MultiRankZt::new(queries.clone()).unwrap()
    });
}

#[test]
fn threaded_background_checkpoints_recover_byte_identical() {
    // Background checkpoints race the coordinator (a busy writer coalesces,
    // and whichever image lands last wins) — recovery must be identical no
    // matter which checkpoint survived, because every checkpoint sequence
    // has full journal coverage behind it.
    let (initial, events) = fixture(0xFEED);
    let split = events.len() / 2;
    let query = RankQuery::knn(500.0, 5).unwrap();
    let make = || Rtp::new(query, 3).unwrap();
    let config = ServerConfig::with_shards(4).batch_size(64).mode(ExecMode::Threaded);
    let dir = test_dir("bg");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(50);

    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.ingest_batch(&events[..split]);
    drop(crashed);

    let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
    recovered.ingest_batch(&events[split..]);
    let mut want = reference(&initial, &events, &make, config);
    assert_state_identical("threaded/background", &mut recovered, &mut want, false);
    recovered.shutdown();
    want.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rejected_chunk_is_never_journaled() {
    // A chunk the server rejects — time regressing at its first event or
    // inside it, a non-finite value, a stream outside the population —
    // panics before the write-ahead append, so the directory still
    // recovers to the chunks before it instead of failing every recovery.
    let (initial, events) = fixture(0xFEED);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let make = || ZtNrp::new(query);
    let config = ServerConfig::with_shards(2).batch_size(64);
    let prefix = 3 * 64;
    let chunk = &events[prefix..prefix + 64];
    let outside = StreamId(NUM_STREAMS as u32);
    let bad_chunks: [(&str, Vec<UpdateEvent>); 4] = [
        ("regression at the first event", {
            let mut c = chunk.to_vec();
            c[0].time = events[prefix - 1].time - 1.0;
            c
        }),
        ("regression inside the chunk", {
            let mut c = chunk.to_vec();
            c[1].time = c[0].time - 1.0;
            c
        }),
        ("non-finite value", {
            let mut c = chunk.to_vec();
            c[5].value = f64::NAN;
            c
        }),
        ("stream outside the population", {
            let mut c = chunk.to_vec();
            c[9].stream = outside;
            c
        }),
    ];
    let mut want = reference(&initial, &events[..prefix], &make, config);
    for (case, bad) in bad_chunks {
        let dir = test_dir("rejected");
        let durable = DurabilityConfig::new(&dir).checkpoint_every(100).mode(CheckpointMode::Sync);
        let mut crashed = ShardedServer::new(&initial, make(), config);
        crashed.initialize();
        crashed.enable_durability(durable.clone()).unwrap();
        crashed.ingest_batch(&events[..prefix]);
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crashed.ingest_batch(&bad);
        }));
        assert!(rejected.is_err(), "{case}: the chunk must be rejected");
        // The panic is the crash: no destructor runs.
        std::mem::forget(crashed);

        let mut recovered = ShardedServer::recover(&initial, make(), config, durable)
            .unwrap_or_else(|e| panic!("{case}: recovery failed: {e}"));
        assert_eq!(recovered.events_processed(), prefix as u64, "{case}");
        assert_state_identical(case, &mut recovered, &mut want, false);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_journal_tail_recovers_to_durable_prefix() {
    // A crash mid-journal-append poisons the handle: the torn chunk (and
    // everything after it) is dropped un-applied. Recovery truncates the
    // tear and rebuilds exactly the durable prefix — then keeps working.
    let (initial, events) = fixture(0xFEED);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let make = || ZtNrp::new(query);
    let config = ServerConfig::with_shards(2).batch_size(64);
    let dir = test_dir("torn");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(100).mode(CheckpointMode::Sync);

    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    // Let ~3 chunks land, then tear mid-record on a later append.
    crashed.durability_mut().unwrap().arm_journal_crash(4000);
    crashed.ingest_batch(&events);
    let d = crashed.durability_mut().unwrap();
    assert!(d.is_poisoned(), "the tear must poison the handle");
    let durable_events = crashed.events_processed();
    assert!(
        durable_events > 0 && durable_events < events.len() as u64,
        "tear should land mid-stream, got {durable_events}/{}",
        events.len()
    );
    drop(crashed);

    let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
    assert_eq!(recovered.events_processed(), durable_events, "recovery != durable prefix");
    let mut want = reference(&initial, &events[..durable_events as usize], &make, config);
    assert_state_identical("torn-journal", &mut recovered, &mut want, false);

    // The recovered server is fully live: feed it the rest of the stream
    // and it matches a never-crashed full run.
    recovered.ingest_batch(&events[durable_events as usize..]);
    let mut full = reference(&initial, &events, &make, config);
    assert_state_identical("torn-journal/resumed", &mut recovered, &mut full, false);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_at_every_byte_of_a_delta_write_recovers_the_durable_prefix() {
    // A checkpoint per 8-event chunk over 64 streams is a delta (a chunk
    // touches at most 8 sources). Tear the second delta at every byte of
    // its file: the handle poisons, the previous delta stays whole, and
    // recovery rebuilds exactly the durable prefix from the anchor plus
    // that delta, replaying only the chunk journaled after it.
    let (initial, events) = fixture(0xFEED);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let make = || ZtNrp::new(query);
    let config = ServerConfig::with_shards(2).batch_size(8);
    let mut want = reference(&initial, &events[..16], &make, config);
    let run = |dir: &PathBuf, budget: Option<u64>| {
        let durable = DurabilityConfig::new(dir).checkpoint_every(8).mode(CheckpointMode::Sync);
        let mut crashed = ShardedServer::new(&initial, make(), config);
        crashed.initialize();
        crashed.enable_durability(durable.clone()).unwrap();
        crashed.ingest_batch(&events[..8]);
        assert_eq!(crashed.metrics().delta_checkpoints, 1, "the first cadence checkpoint");
        if let Some(budget) = budget {
            crashed.durability_mut().unwrap().arm_checkpoint_crash(budget);
        }
        let before = crashed.metrics().checkpoint_bytes;
        crashed.ingest_batch(&events[8..16]);
        let delta_bytes = crashed.metrics().checkpoint_bytes - before;
        let torn = crashed.durability_mut().unwrap().is_poisoned();
        drop(crashed);
        (durable, delta_bytes, torn)
    };
    // Header, record frame, the two sequence numbers, then the coded
    // image, which decodes to exactly the image the server serialized.
    let probe = test_dir("delta-tear");
    let (_, delta_bytes, _) = run(&probe, None);
    let file_len = std::fs::metadata(probe.join("delta.bin")).unwrap().len();
    let (store, full) = SnapshotStore::open_and_latest(&probe).unwrap();
    let delta = store.delta_for(full.unwrap().seq()).unwrap().unwrap();
    assert_eq!(delta.state().len() as u64, delta_bytes);
    let _ = std::fs::remove_dir_all(&probe);
    for budget in 0..=file_len {
        let dir = test_dir("delta-tear");
        let (durable, _, torn) = run(&dir, Some(budget));
        assert_eq!(torn, budget < file_len, "budget={budget}");
        let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
        assert_eq!(recovered.events_processed(), 16, "budget={budget}");
        let replayed = if torn { 8 } else { 0 };
        assert_eq!(recovered.metrics().events, replayed, "budget={budget}");
        assert_state_identical(
            &format!("delta tear at {budget}"),
            &mut recovered,
            &mut want,
            false,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_delta_rekeys_the_rank_forest_without_a_second_bulk_build() {
    // Recovery through a full image and a delta: the full image builds
    // the rank forest in bulk, once, and the delta re-keys only the view
    // entries it carries. Rank order and answer match a server that never
    // crashed.
    let (initial, events) = fixture(0xFEED);
    let query = RankQuery::knn(500.0, 5).unwrap();
    let make = || Rtp::new(query, 3).unwrap();
    let config = ServerConfig::with_shards(2).batch_size(8);
    let dir = test_dir("delta-rank");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(8).mode(CheckpointMode::Sync);
    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    // Chunk by chunk, until a later chunk ends on a delta checkpoint: the
    // crash then leaves no journal suffix to replay.
    let mut end = 0;
    for chunk in events.chunks(8) {
        let deltas = crashed.metrics().delta_checkpoints;
        crashed.ingest_batch(chunk);
        end += chunk.len();
        if end >= 32 && crashed.metrics().delta_checkpoints > deltas {
            break;
        }
    }
    assert!(end < events.len(), "the fixture must end a chunk on a delta");
    drop(crashed);

    let recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
    assert_eq!((recovered.events_processed(), recovered.metrics().events), (end as u64, 0));
    let want = reference(&initial, &events[..end], &make, config);
    assert_eq!(
        recovered.rank_index().map(|f| f.ordered_pairs()),
        want.rank_index().map(|f| f.ordered_pairs())
    );
    assert_eq!(recovered.answer(), want.answer());
    let stats = recovered.ctx_stats();
    assert_eq!((stats.index_bulk_builds, stats.index_delta_refreshes), (1, 1));
    assert!(stats.index_delta_rekeys < initial.len() as u64, "the delta names every entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_checkpoint_crash_falls_back_to_an_older_checkpoint() {
    // Tearing a checkpoint write must not lose the previous checkpoint
    // (double-buffered slots) and must not corrupt recovery: the older
    // image plus a longer journal replay reproduces the durable prefix.
    let (initial, events) = fixture(0xFEED);
    let query = RankQuery::knn(500.0, 5).unwrap();
    let make = || Rtp::new(query, 3).unwrap();
    let config = ServerConfig::with_shards(2).batch_size(64);
    let dir = test_dir("ckpt");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(100).mode(CheckpointMode::Sync);

    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    // The anchor checkpoint has landed; tear partway into the next one.
    crashed.durability_mut().unwrap().arm_checkpoint_crash(200);
    crashed.ingest_batch(&events);
    assert!(crashed.durability_mut().unwrap().is_poisoned());
    let durable_events = crashed.events_processed();
    assert!(durable_events > 0, "the first cadence checkpoint fires after ~100 events");
    drop(crashed);

    let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
    assert_eq!(recovered.events_processed(), durable_events);
    let mut want = reference(&initial, &events[..durable_events as usize], &make, config);
    assert_state_identical("torn-checkpoint", &mut recovered, &mut want, false);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lost_checkpoints_cold_recover_from_the_journal_alone() {
    // Deleting every snapshot forces the cold path: re-initialize the
    // protocol (the probe storm is attributed to `Cause::Recovery`) and
    // replay the whole journal from sequence zero. Answers, ledgers, views,
    // and rank order still match; only the cause *labels* differ.
    let (initial, events) = fixture(0xFEED);
    let split = events.len() / 2;
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let make = || ZtNrp::new(query);
    let config = ServerConfig::with_shards(2).batch_size(64);
    let dir = test_dir("cold");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(100).mode(CheckpointMode::Sync);

    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.ingest_batch(&events[..split]);
    drop(crashed);
    for snap in ["snap-a.bin", "snap-b.bin"] {
        let _ = std::fs::remove_file(dir.join(snap));
    }

    let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
    assert_eq!(recovered.events_processed(), split as u64);
    let mut want = reference(&initial, &events[..split], &make, config);
    assert_state_identical("cold", &mut recovered, &mut want, true);
    assert!(
        recovered.causes().total(Cause::Recovery) > 0,
        "cold recovery must attribute its startup storm to the recovery cause"
    );
    assert_eq!(want.causes().total(Cause::Recovery), 0);
    assert_eq!(
        recovered.causes().grand_total(),
        want.causes().grand_total(),
        "relabeling must not change the message totals"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_recovery_over_a_shrunk_population_is_an_error_not_a_panic() {
    // With every snapshot gone nothing checks the population against the
    // crashed server's, so the journal's stream ids must be: a chunk that
    // names a stream the recovering server does not have is corruption.
    let (initial, events) = fixture(0xFEED);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let config = ServerConfig::with_shards(2).batch_size(64);
    let dir = test_dir("shrunk");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(100).mode(CheckpointMode::Sync);

    let mut crashed = ShardedServer::new(&initial, ZtNrp::new(query), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.ingest_batch(&events[..events.len() / 2]);
    drop(crashed);
    for snap in ["snap-a.bin", "snap-b.bin"] {
        let _ = std::fs::remove_file(dir.join(snap));
    }

    let shrunk = &initial[..NUM_STREAMS / 2];
    let err = match ShardedServer::recover(shrunk, ZtNrp::new(query), config, durable) {
        Ok(_) => panic!("recovery over a shrunk population must fail"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("outside the population"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_journal_tail_is_truncated_not_replayed() {
    // Flip the last byte of the journal (inside the final record's CRC or
    // payload): recovery must detect the corruption, drop exactly that
    // suffix, and rebuild the state the surviving records describe.
    let (initial, events) = fixture(0xFEED);
    let split = events.len() / 2;
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let make = || ZtNrp::new(query);
    let config = ServerConfig::with_shards(2).batch_size(64);
    let dir = test_dir("flip");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(100_000).mode(CheckpointMode::Sync);

    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.ingest_batch(&events[..split]);
    drop(crashed);

    let journal = dir.join("journal.log");
    let mut bytes = std::fs::read(&journal).unwrap();
    *bytes.last_mut().unwrap() ^= 0x40;
    std::fs::write(&journal, &bytes).unwrap();

    let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
    let durable_events = recovered.events_processed();
    assert!(durable_events < split as u64, "the corrupt final chunk must not have been replayed");
    // Self-consistency: the recovered server equals a clean run over
    // exactly the events it claims to hold.
    let mut want = reference(&initial, &events[..durable_events as usize], &make, config);
    assert_state_identical("bit-flip", &mut recovered, &mut want, false);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_rejects_a_mismatched_configuration() {
    let (initial, events) = fixture(0xFEED);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let make = || ZtNrp::new(query);
    let config = ServerConfig::with_shards(4).batch_size(64);
    let dir = test_dir("mismatch");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(100).mode(CheckpointMode::Sync);

    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.ingest_batch(&events[..events.len() / 2]);
    drop(crashed);

    // A different shard count cannot load the 4-shard snapshot image: the
    // mismatch is detected and reported, never a panic or a silent
    // mis-restore.
    let err = match ShardedServer::recover(
        &initial,
        make(),
        ServerConfig::with_shards(2).batch_size(64),
        durable,
    ) {
        Ok(_) => panic!("recovery with a mismatched shard count must fail"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("shard count"), "unexpected error: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}
