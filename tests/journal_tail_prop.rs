//! End-to-end property tests of the on-disk record format, driven through
//! a real durability directory produced by a `ShardedServer`:
//!
//! * Truncating the journal at **every** byte offset never panics, never
//!   yields a partial record, and every surviving payload decodes to a
//!   complete, valid `EventBatch`.
//! * Flipping **each byte** of the final record (CRC included) drops
//!   exactly that record and leaves the durable prefix intact.
//! * Full-stack spot checks: `ShardedServer::recover` over truncated
//!   journals rebuilds exactly the state the surviving records describe.
//! * The checkpoints, whose bodies are column-coded: recovery over every
//!   truncation and every single-byte flip of `delta.bin` ignores the
//!   delta (its CRC fails) and rebuilds the same state from the full image
//!   and the journal; the same damage to the full image's slot skips it;
//!   a CRC-valid delta whose coded payload is truncated is an error, and
//!   one with any byte flipped is an error or a recovery — never a panic.

use std::path::{Path, PathBuf};

use asf_core::protocol::ZtNrp;
use asf_core::query::RangeQuery;
use asf_core::workload::{EventBatch, UpdateEvent, Workload};
use asf_persist::{encode_record, Journal, StateReader, HEADER_LEN, RECORD_OVERHEAD, TAG_DELTA};
use asf_server::{CheckpointMode, DurabilityConfig, ServerConfig, ShardedServer};
use simkit::FaultMix;
use streamnet::ChaosConfig;
use workloads::{SyntheticConfig, SyntheticWorkload};

const NUM_STREAMS: usize = 32;
const BATCH: usize = 16;

fn fixture() -> (Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: NUM_STREAMS,
        horizon: 60.0,
        seed: 0xBEEF,
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
    let dir =
        std::env::temp_dir().join(format!("asf-journal-prop-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Builds a durability directory by running the fixture through a server,
/// then "crashing" (dropping) it. Returns the journal bytes.
fn build_journal(dir: &Path, initial: &[f64], events: &[UpdateEvent]) -> Vec<u8> {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let config = ServerConfig::with_shards(2).batch_size(BATCH);
    let mut server = ShardedServer::new(initial, ZtNrp::new(query), config);
    server.initialize();
    server
        .enable_durability(
            DurabilityConfig::new(dir).checkpoint_every(1_000_000).mode(CheckpointMode::Sync),
        )
        .unwrap();
    server.ingest_batch(events);
    drop(server);
    std::fs::read(dir.join("journal.log")).unwrap()
}

/// Reads the journal in `dir` and asserts every entry is a complete, valid
/// chunk record; returns `(entry_count, event_count)`.
fn scan(dir: &Path) -> (usize, u64) {
    let entries = Journal::read_all(dir).unwrap();
    let mut expect_seq = 0u64;
    for entry in &entries {
        assert_eq!(entry.seq, expect_seq, "journal sequence numbers must be gapless");
        let mut r = StateReader::new(&entry.payload);
        let batch = EventBatch::decode(&mut r).expect("surviving payload must decode fully");
        r.finish().expect("no trailing bytes in a chunk record");
        assert!(!batch.is_empty(), "journaled chunks are never empty");
        expect_seq += batch.len() as u64;
    }
    (entries.len(), expect_seq)
}

#[test]
fn truncation_at_every_byte_yields_only_whole_records() {
    let (initial, events) = fixture();
    let dir = test_dir("build");
    let journal = build_journal(&dir, &initial, &events);
    let _ = std::fs::remove_dir_all(&dir);
    let (full_records, full_events) = {
        let dir = test_dir("full");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("journal.log"), &journal).unwrap();
        let counts = scan(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        counts
    };
    assert!(full_records >= 4, "fixture too small to exercise the format");
    assert_eq!(full_events, events.len() as u64);

    let scratch = test_dir("cuts");
    std::fs::create_dir_all(&scratch).unwrap();
    let mut last_records = full_records;
    for cut in (HEADER_LEN..journal.len()).rev() {
        std::fs::write(scratch.join("journal.log"), &journal[..cut]).unwrap();
        let (records, evs) = scan(&scratch);
        assert!(records <= last_records, "cut={cut}: shrinking a file grew the scan");
        last_records = records;
        // A cut strictly inside record k+1 keeps exactly records 0..=k:
        // events are batch-sized, so the surviving count is a multiple of
        // the chunk size except for the (complete) final chunk.
        assert!(
            evs == events.len() as u64 || evs % BATCH as u64 == 0,
            "cut={cut}: partial chunk leaked ({evs} events)"
        );
    }
    // Cutting into the header (or at it) is an empty journal or a reported
    // corruption — never a panic, never records.
    for cut in 0..HEADER_LEN {
        std::fs::write(scratch.join("journal.log"), &journal[..cut]).unwrap();
        if let Ok(entries) = Journal::read_all(&scratch) {
            assert!(entries.is_empty(), "cut={cut}: records from a headerless file");
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn flipping_any_byte_of_the_final_record_drops_only_that_record() {
    let (initial, events) = fixture();
    let dir = test_dir("flip-build");
    let journal = build_journal(&dir, &initial, &events);
    let _ = std::fs::remove_dir_all(&dir);

    // Find the final record: walk the gapless record chain from the header.
    let mut offset = HEADER_LEN;
    let mut last_start = offset;
    while offset < journal.len() {
        last_start = offset;
        let len = u32::from_le_bytes(journal[offset + 4..offset + 8].try_into().unwrap());
        offset += RECORD_OVERHEAD + len as usize;
    }
    assert_eq!(offset, journal.len(), "journal must end on a record boundary");

    let scratch = test_dir("flips");
    std::fs::create_dir_all(&scratch).unwrap();
    std::fs::write(scratch.join("journal.log"), &journal).unwrap();
    let (full_records, full_events) = scan(&scratch);

    let mut copy = journal.clone();
    for i in last_start..journal.len() {
        copy[i] ^= 0x20;
        std::fs::write(scratch.join("journal.log"), &copy).unwrap();
        let (records, evs) = scan(&scratch);
        assert_eq!(records, full_records - 1, "flip at byte {i} did not drop the tail record");
        assert!(evs < full_events, "flip at byte {i} kept the tail record's events");
        copy[i] ^= 0x20;
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn recovery_over_truncated_journals_matches_the_surviving_prefix() {
    let (initial, events) = fixture();
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let config = ServerConfig::with_shards(2).batch_size(BATCH);
    let build = test_dir("recover-build");
    let journal = build_journal(&build, &initial, &events);

    // Record boundaries, via the record chain.
    let mut boundaries = vec![];
    let mut offset = HEADER_LEN;
    while offset < journal.len() {
        let len = u32::from_le_bytes(journal[offset + 4..offset + 8].try_into().unwrap());
        offset += RECORD_OVERHEAD + len as usize;
        boundaries.push(offset);
    }

    // Cut one byte short of each boundary: the final record tears, and the
    // recovered server must equal a clean run over the surviving events.
    for &boundary in &boundaries {
        let scratch = test_dir("recover-cut");
        std::fs::create_dir_all(&scratch).unwrap();
        // Only slots that were ever written exist (the anchor uses one).
        for snap in ["snap-a.bin", "snap-b.bin"] {
            let _ = std::fs::copy(build.join(snap), scratch.join(snap));
        }
        std::fs::write(scratch.join("journal.log"), &journal[..boundary - 1]).unwrap();

        let durable = DurabilityConfig::new(&scratch).mode(CheckpointMode::Sync);
        let mut recovered =
            ShardedServer::recover(&initial, ZtNrp::new(query), config, durable).unwrap();
        let kept = recovered.events_processed() as usize;
        assert!(kept < events.len(), "boundary={boundary}: torn tail was replayed");

        let mut want = ShardedServer::new(&initial, ZtNrp::new(query), config);
        want.initialize();
        want.ingest_batch(&events[..kept]);
        assert_eq!(recovered.answer(), want.answer(), "boundary={boundary}");
        assert_eq!(recovered.ledger(), want.ledger(), "boundary={boundary}");
        assert_eq!(recovered.truth_values(), want.truth_values(), "boundary={boundary}");
        let _ = std::fs::remove_dir_all(&scratch);
    }
    let _ = std::fs::remove_dir_all(&build);
}

#[test]
fn every_truncation_and_byte_flip_of_a_delta_is_ignored_or_an_error() {
    assert_delta_damage_is_ignored_or_an_error(None, 20, 2, 0);
}

#[test]
fn every_truncation_and_byte_flip_of_a_chaos_delta_is_ignored_or_an_error() {
    // The channel layer attached after the anchor, under every fault kind:
    // its re-anchoring full images are the base of the delta at 8, which
    // carries channel rows (the checkpoint at 16 would be a full image,
    // so the run stops at 12).
    let mix = FaultMix {
        drop_p: 0.05,
        delay_p: 0.05,
        dup_p: 0.05,
        crash_p: 0.01,
        max_delay_ticks: 16,
        max_outage_ticks: 64,
    };
    let cfg = ChaosConfig::new(0xC4A05, mix, u64::MAX).lease_ticks(32);
    assert_delta_damage_is_ignored_or_an_error(Some(cfg), 12, 1, 0);
}

/// 96 streams and `events` updates in 8-event chunks, a checkpoint per
/// chunk: the checkpoints after the anchor are deltas while they stay
/// under half the full image (`deltas` of them, the first at 8; the last
/// full image is at `last_full`). The directory ends with a delta and one
/// more 4-event chunk in the journal.
fn assert_delta_damage_is_ignored_or_an_error(
    chaos: Option<ChaosConfig>,
    events: usize,
    deltas: u64,
    last_full: u64,
) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: 96,
        horizon: 20.0,
        seed: 0xBEEF,
        ..Default::default()
    });
    let initial = w.initial_values();
    let events: Vec<UpdateEvent> = std::iter::from_fn(|| w.next_event()).take(events).collect();
    let total = events.len() as u64;
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let config = ServerConfig::with_shards(2).batch_size(8);
    let dir = test_dir("delta-build");
    let durable = DurabilityConfig::new(&dir).checkpoint_every(8).mode(CheckpointMode::Sync);
    let mut server = ShardedServer::new(&initial, ZtNrp::new(query), config);
    server.initialize();
    server.enable_durability(durable.clone()).unwrap();
    let chaotic = chaos.is_some();
    if let Some(cfg) = chaos {
        server.enable_chaos(cfg);
    }
    server.ingest_batch(&events[..8]);
    assert_eq!(server.metrics().delta_checkpoints, 1, "the checkpoint at event 8 is a delta");
    server.ingest_batch(&events[8..]);
    assert_eq!(server.metrics().delta_checkpoints, deltas, "the fixture must end on a delta");
    let (answer, ledger, truth) = (server.answer(), server.ledger().clone(), server.truth_values());
    let stats = server.chaos_stats().copied();
    drop(server);
    let delta = std::fs::read(dir.join("delta.bin")).unwrap();

    let recover = |bytes: &[u8]| {
        std::fs::write(dir.join("delta.bin"), bytes).unwrap();
        ShardedServer::recover(&initial, ZtNrp::new(query), config, durable.clone())
    };
    // Untouched, the delta is applied: only the last chunk replays.
    let recovered = recover(&delta).unwrap();
    assert_eq!((recovered.events_processed(), recovered.metrics().events), (total, 4));
    // A torn or flipped file fails its CRC: the last full image plus the
    // journal after it rebuild the same state. (`asf-persist` sweeps every
    // truncation and byte of the file; through recovery go the framing —
    // header, tag, length, the two sequence numbers, checksum — and a
    // stride of cuts.)
    let framing = || (0..HEADER_LEN + 24).chain(delta.len() - 4..delta.len());
    let cuts = framing().chain((HEADER_LEN + 24..delta.len()).step_by(37));
    let mut damaged: Vec<Vec<u8>> = cuts.map(|cut| delta[..cut].to_vec()).collect();
    for i in framing() {
        let mut flipped = delta.clone();
        flipped[i] ^= 0x10;
        damaged.push(flipped);
    }
    for bytes in &damaged {
        let mut recovered = recover(bytes).unwrap();
        let tag = format!("{} bytes", bytes.len());
        let replayed = (recovered.events_processed(), recovered.metrics().events);
        assert_eq!(replayed, (total, total - last_full), "{tag}");
        assert_eq!(recovered.answer(), answer, "{tag}");
        assert_eq!(*recovered.ledger(), ledger, "{tag}");
        assert_eq!(recovered.truth_values(), truth, "{tag}");
        assert_eq!(recovered.chaos_stats().copied(), stats, "{tag}");
    }
    // The same damage to the newest full image: its slot is skipped, and
    // with it the delta taken against it. Without chaos that leaves no
    // checkpoint, and a cold start replays the whole journal to the same
    // state. With chaos the other slot holds a re-anchoring image, so
    // recovery may only fail or succeed, never panic.
    let slot = dir.join(if last_full == 0 { "snap-a.bin" } else { "snap-b.bin" });
    let full = std::fs::read(&slot).unwrap();
    let framing = || (0..HEADER_LEN + 16).chain(full.len() - 4..full.len());
    let cuts = framing().chain((HEADER_LEN + 16..full.len()).step_by(37));
    let mut damaged: Vec<Vec<u8>> = cuts.map(|cut| full[..cut].to_vec()).collect();
    for i in framing().chain((HEADER_LEN + 16..full.len()).step_by(41)) {
        let mut flipped = full.clone();
        flipped[i] ^= 0x10;
        damaged.push(flipped);
    }
    for bytes in &damaged {
        std::fs::write(&slot, bytes).unwrap();
        let recovered = recover(&delta);
        if chaotic {
            continue;
        }
        let mut recovered = recovered.unwrap();
        let tag = format!("full image of {} bytes", bytes.len());
        let replayed = (recovered.events_processed(), recovered.metrics().events);
        assert_eq!(replayed, (total, total), "{tag}");
        assert_eq!(recovered.answer(), answer, "{tag}");
        assert_eq!(*recovered.ledger(), ledger, "{tag}");
        assert_eq!(recovered.truth_values(), truth, "{tag}");
    }
    std::fs::write(&slot, &full).unwrap();
    // A CRC-valid record around a damaged payload: the delta's own
    // validation must catch a truncation, and a flip may only yield an
    // error or a recovered server.
    let payload = &delta[HEADER_LEN + 8..delta.len() - 4];
    let reframed = |payload: &[u8]| {
        let mut file = delta[..HEADER_LEN].to_vec();
        encode_record(TAG_DELTA, payload, &mut file);
        file
    };
    for cut in 16..payload.len() {
        assert!(recover(&reframed(&payload[..cut])).is_err(), "payload cut at {cut}");
    }
    for i in 16..payload.len() {
        let mut flipped = payload.to_vec();
        flipped[i] ^= 0x10;
        let _ = recover(&reframed(&flipped));
    }
    let _ = std::fs::remove_dir_all(&dir);
}
