//! The size gate of column-coded checkpoints (`asf_persist::column`),
//! checked as deterministic counts on a 50k-source ZT-NRP server: its
//! anchor codes to at most half its logical bytes, and its delta's
//! gap-coded index columns take at most 1.25 bytes a row. Every row of the
//! fleet, view and answer tables must lie in a coded block, so a writer
//! that stops declaring its table fails the row counts even where the
//! byte ratio would still pass.

use std::path::PathBuf;

use asf_core::protocol::ZtNrp;
use asf_core::query::RangeQuery;
use asf_core::workload::{UpdateEvent, Workload};
use asf_persist::{SnapshotStore, StateReader};
use asf_server::{CheckpointMode, DurabilityConfig, ServerConfig, ShardedServer};
use workloads::{SyntheticConfig, SyntheticWorkload};

const NUM_STREAMS: usize = 50_000;
const BATCH: usize = 4096;

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("asf-checkpoint-coding-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The source rows and view entries a server checkpoint carries: the
/// counts its fleet tables (one per shard) and its view table begin with.
fn table_rows(state: &[u8]) -> asf_persist::Result<u64> {
    let mut r = StateReader::new(state);
    let (_now, _events, shards) = (r.get_f64()?, r.get_u64()?, r.get_u64()?);
    let mut rows = 0;
    for _ in 0..shards {
        rows += StateReader::new(r.get_bytes()?).get_u64()?;
    }
    let (_initialized, _reports) = (r.get_bool()?, r.get_u64()?);
    Ok(rows + r.get_u64()?)
}

#[test]
fn a_zt_nrp_anchor_codes_to_half_and_its_delta_index_to_a_byte_a_row() {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: NUM_STREAMS,
        horizon: 8.0,
        seed: 0xC0DE,
        ..Default::default()
    });
    let initial = w.initial_values();
    let mut events: Vec<UpdateEvent> = std::iter::from_fn(|| w.next_event()).collect();
    // Whole chunks, with the cadence checkpoint — a delta — after the last.
    events.truncate(events.len() / BATCH * BATCH);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let config = ServerConfig::with_shards(2).batch_size(BATCH);
    let dir = test_dir();
    let durable = DurabilityConfig::new(&dir)
        .checkpoint_every(events.len() as u64)
        .mode(CheckpointMode::Sync);
    let mut server = ShardedServer::new(&initial, ZtNrp::new(query), config);
    server.initialize();
    server.enable_durability(durable).unwrap();
    let anchor_members = server.answer().len();
    server.ingest_batch(&events);
    let m = server.metrics();
    assert_eq!((m.checkpoints, m.delta_checkpoints), (2, 1), "an anchor, then one delta");
    let members = server.answer().len();
    drop(server);

    let (store, anchor) = SnapshotStore::open_and_latest(&dir).unwrap();
    let anchor = anchor.expect("the anchor checkpoint");
    let coding = *anchor.coding();
    assert_eq!(table_rows(anchor.state()).unwrap(), 2 * NUM_STREAMS as u64);
    assert_eq!(coding.positional_rows, 2 * NUM_STREAMS, "every source row and view entry");
    assert_eq!(coding.indexed_rows, anchor_members, "every answer member");
    let logical = anchor.state().len();
    assert!(
        2 * coding.coded_bytes <= logical,
        "anchor coded to {} of {logical} logical bytes",
        coding.coded_bytes
    );

    let delta = store.delta_for(anchor.seq()).unwrap().expect("the delta checkpoint");
    let coding = *delta.coding();
    let rows = table_rows(delta.state()).unwrap() as usize;
    assert!(rows > NUM_STREAMS / 10, "a dense delta: {rows} rows");
    assert_eq!(coding.positional_rows, 0);
    assert_eq!(coding.indexed_rows, rows + members, "every delta row and answer member");
    assert!(
        4 * coding.index_bytes <= 5 * coding.indexed_rows,
        "delta index columns took {} bytes for {} rows",
        coding.index_bytes,
        coding.indexed_rows
    );
    let _ = std::fs::remove_dir_all(&dir);
}
