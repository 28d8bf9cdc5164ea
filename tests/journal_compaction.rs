//! Journal compaction correctness: segment rotation + pruning keep the
//! write-ahead log bounded **without** changing a single recovered byte.
//! A server that rotates (and prunes behind the durable-checkpoint floor)
//! recovers byte-identical to an uncompacted run, and a crash at *every*
//! intermediate step of a rotation — before the rename, after the rename
//! (no active journal on disk at all), mid-write of the fresh header —
//! still recovers exactly the durable prefix and keeps working.

use std::path::PathBuf;

use asf_core::protocol::{Protocol, ZtNrp};
use asf_core::query::RangeQuery;
use asf_core::workload::{UpdateEvent, Workload};
use asf_server::{CheckpointMode, DurabilityConfig, RotateStep, ServerConfig, ShardedServer};
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
    let dir = std::env::temp_dir().join(format!("asf-compact-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn make() -> ZtNrp {
    ZtNrp::new(RangeQuery::new(400.0, 600.0).unwrap())
}

/// A compaction-enabled durability config aggressive enough that the
/// ~470-event fixture rotates several times: seal the journal every 2 KiB
/// (about two 64-event chunks), checkpoint every 100 events.
fn durable(dir: &PathBuf) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .checkpoint_every(100)
        .mode(CheckpointMode::Sync)
        .rotate_journal_every(Some(2048))
}

fn assert_state_identical<P: Protocol>(
    tag: &str,
    got: &mut ShardedServer<P>,
    want: &mut ShardedServer<P>,
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
    assert_eq!(got.causes(), want.causes(), "{tag}: cause matrices diverged");
    assert_eq!(got.truth_values(), want.truth_values(), "{tag}: ground truth diverged");
}

fn reference(
    initial: &[f64],
    events: &[UpdateEvent],
    config: ServerConfig,
) -> ShardedServer<ZtNrp> {
    let mut server = ShardedServer::new(initial, make(), config);
    server.initialize();
    server.ingest_batch(events);
    server
}

#[test]
fn compaction_bounds_the_journal_and_recovery_stays_identical() {
    let (initial, events) = fixture(0xFEED);
    let split = events.len() * 6 / 10;
    let config = ServerConfig::with_shards(2).batch_size(64);
    let dir = test_dir("bound");
    let cfg = durable(&dir);

    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(cfg.clone()).unwrap();
    crashed.ingest_batch(&events[..split]);
    {
        let d = crashed.durability_mut().unwrap();
        assert!(d.journal_rotations() >= 2, "rotation never fired: {}", d.journal_rotations());
        assert!(d.durable_floor() > 0, "no checkpoint ever became durable");
        // Pruning keeps at most the segments the floor has not yet
        // caught up with — far fewer than the rotations performed.
        assert!(
            d.journal_sealed_segments() < d.journal_rotations() as usize,
            "pruning never dropped a sealed segment"
        );
    }
    let compacted_bytes = crashed.metrics().journal_bytes;
    drop(crashed);

    // The same prefix journaled without rotation: compaction must have
    // strictly shrunk the on-disk journal footprint.
    let nodir = test_dir("bound-ref");
    let mut uncompacted = ShardedServer::new(&initial, make(), config);
    uncompacted.initialize();
    uncompacted
        .enable_durability(
            DurabilityConfig::new(&nodir)
                .checkpoint_every(100)
                .mode(CheckpointMode::Sync)
                .rotate_journal_every(None),
        )
        .unwrap();
    uncompacted.ingest_batch(&events[..split]);
    assert!(
        compacted_bytes < uncompacted.metrics().journal_bytes,
        "compaction did not shrink the journal: {compacted_bytes} vs {}",
        uncompacted.metrics().journal_bytes
    );
    drop(uncompacted);
    let _ = std::fs::remove_dir_all(&nodir);

    // Recovery over sealed segments + active file is byte-identical to a
    // never-crashed run.
    let mut recovered = ShardedServer::recover(&initial, make(), config, cfg).unwrap();
    assert_eq!(recovered.events_processed(), split as u64, "recovery lost durable events");
    recovered.ingest_batch(&events[split..]);
    let mut want = reference(&initial, &events, config);
    assert_state_identical("compacted", &mut recovered, &mut want);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_recovery_after_pruning_fails_loudly_instead_of_replaying_a_suffix() {
    let (initial, events) = fixture(0xFEED);
    let config = ServerConfig::with_shards(2).batch_size(64);
    let dir = test_dir("cold-pruned");
    let cfg = durable(&dir);

    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(cfg.clone()).unwrap();
    crashed.ingest_batch(&events);
    {
        let d = crashed.durability_mut().unwrap();
        assert!(
            d.journal_sealed_segments() < d.journal_rotations() as usize,
            "fixture must actually prune history for this test to mean anything"
        );
    }
    drop(crashed);
    assert!(
        asf_persist::pruned_floor(&dir).unwrap().unwrap_or(0) > 0,
        "pruning must leave a durable floor marker"
    );

    // Disaster: both checkpoint slots are lost. The journal's surviving
    // suffix starts *after* the pruned history, so a cold recovery that
    // replayed it from a fresh initialization would silently build a
    // partial state. It must refuse instead.
    for slot in ["snap-a.bin", "snap-b.bin"] {
        std::fs::remove_file(dir.join(slot)).unwrap();
    }
    let err = ShardedServer::recover(&initial, make(), config, cfg.clone())
        .err()
        .expect("cold recovery over pruned history must fail");
    assert!(
        format!("{err}").contains("resync required"),
        "error must direct the operator to resync, got: {err}"
    );

    // Same disaster with a *stale* checkpoint below the floor: write-time
    // ordering makes this nearly impossible (the floor only advances past
    // durable checkpoints), but a restored-from-backup snapshot can race
    // it. Simulated here by just checking the guard is floor-relative:
    // an intact directory still recovers fine.
    let dir_ok = test_dir("cold-pruned-ok");
    let cfg_ok = durable(&dir_ok);
    let mut server = ShardedServer::new(&initial, make(), config);
    server.initialize();
    server.enable_durability(cfg_ok.clone()).unwrap();
    server.ingest_batch(&events);
    drop(server);
    let mut recovered = ShardedServer::recover(&initial, make(), config, cfg_ok).unwrap();
    let mut want = reference(&initial, &events, config);
    assert_state_identical("pruned-intact", &mut recovered, &mut want);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir_ok);
}

#[test]
fn crash_at_every_rotation_step_recovers_the_durable_prefix() {
    let (initial, events) = fixture(0xFEED);
    let config = ServerConfig::with_shards(2).batch_size(64);
    for step in [RotateStep::BeforeRename, RotateStep::AfterRename, RotateStep::TornHeader] {
        let tag = format!("rotate-crash/{step:?}");
        let dir = test_dir("rot");
        let cfg = durable(&dir);

        let mut crashed = ShardedServer::new(&initial, make(), config);
        crashed.initialize();
        crashed.enable_durability(cfg.clone()).unwrap();
        // Arm before ingesting: the first rotation (a few chunks in) dies
        // at `step`, poisoning the handle mid-stream.
        crashed.durability_mut().unwrap().arm_rotate_crash(step);
        crashed.ingest_batch(&events);
        assert!(
            crashed.durability_mut().unwrap().is_poisoned(),
            "{tag}: the rotation crash must poison the handle"
        );
        let durable_events = crashed.events_processed();
        assert!(
            durable_events > 0 && durable_events < events.len() as u64,
            "{tag}: crash should land mid-stream, got {durable_events}/{}",
            events.len()
        );
        drop(crashed);

        // Recovery absorbs whatever intermediate directory state the step
        // left and rebuilds exactly the durable prefix.
        let mut recovered = ShardedServer::recover(&initial, make(), config, cfg).unwrap();
        assert_eq!(
            recovered.events_processed(),
            durable_events,
            "{tag}: recovery != durable prefix"
        );
        let mut want = reference(&initial, &events[..durable_events as usize], config);
        assert_state_identical(&tag, &mut recovered, &mut want);

        // The recovered server is fully live — rotation included: feed
        // the rest and it matches a never-crashed full run.
        recovered.ingest_batch(&events[durable_events as usize..]);
        assert!(
            !recovered.durability_mut().unwrap().is_poisoned(),
            "{tag}: recovered server must journal (and rotate) cleanly"
        );
        let mut full = reference(&initial, &events, config);
        assert_state_identical(&format!("{tag}/resumed"), &mut recovered, &mut full);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn pruning_to_a_delta_recovers_through_the_delta() {
    // 512 streams, a checkpoint every two 64-event chunks: the cadence
    // checkpoints are deltas, and the durable floor — hence pruning —
    // advances to a delta's sequence once it lands over its landed base.
    // Recovery reaches that sequence through the full image plus the
    // delta, so the pruned-floor guard must compare it, not the full
    // image's, and the recovered server must match the uncompacted run.
    const CHUNK: usize = 64;
    let (initial, events) = fixture_of(512, 80.0, 0xFEED);
    let config = ServerConfig::with_shards(2).batch_size(CHUNK);
    let dir = test_dir("delta-floor");
    let cfg = DurabilityConfig::new(&dir)
        .checkpoint_every(2 * CHUNK as u64)
        .mode(CheckpointMode::Sync)
        .rotate_journal_every(Some(2048));
    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(cfg.clone()).unwrap();
    let mut last_full = 0;
    let mut split = 0;
    for chunk in events.chunks(CHUNK) {
        let m = crashed.metrics();
        let fulls = m.checkpoints - m.delta_checkpoints;
        crashed.ingest_batch(chunk);
        split += chunk.len();
        let m = crashed.metrics();
        if m.checkpoints - m.delta_checkpoints > fulls {
            last_full = split as u64;
        }
        let floor = asf_persist::pruned_floor(&dir).unwrap().unwrap_or(0);
        if floor > last_full && split as u64 > floor {
            break;
        }
    }
    let floor = asf_persist::pruned_floor(&dir).unwrap().unwrap_or(0);
    assert!(
        floor > last_full && crashed.durability_mut().unwrap().durable_floor() == floor,
        "pruning never reached a delta: floor {floor}, last full image at {last_full}"
    );
    drop(crashed);

    let mut recovered = ShardedServer::recover(&initial, make(), config, cfg).unwrap();
    assert_eq!(recovered.events_processed(), split as u64);
    assert_eq!(recovered.metrics().events, split as u64 - floor, "replayed past the delta");
    recovered.ingest_batch(&events[split..]);
    let mut want = reference(&initial, &events, config);
    assert_state_identical("delta-floor", &mut recovered, &mut want);
    let _ = std::fs::remove_dir_all(&dir);
}
