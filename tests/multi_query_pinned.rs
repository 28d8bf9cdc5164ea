//! Multi-query state, pinned.
//!
//! How `MultiRangeZt` organises its per-query answers in memory is free to
//! change; what it answers, what it sends and what it checkpoints is not.
//! Each fixture runs `asf_bench`'s `multi_range` deployment — m = 1000
//! seeded ranges of width `1000/m · U(0.5, 1.5)`, server-managed cells —
//! over n = 20k synthetic streams, through the serial `Engine` and through a 2-shard
//! `ShardedServer` that crashes at 60% of the stream and recovers from its
//! checkpoint and journal. At the crash point and at the end it folds into
//! one FNV digest the protocol's `save_state` payload, every per-query
//! answer and the ledger's per-kind counts; the recovered server must
//! match the engine at both points.
//!
//! **The constants were generated on commit
//! bc8e6c2e458353ad1a84314d4e406e9360b5e0c2**, the last one whose
//! `MultiRangeZt` kept one sorted id set per query. A mismatch means an
//! answer, a message or a checkpoint byte changed: a bug, never a re-pin.

use std::path::PathBuf;

use asf_core::engine::Engine;
use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::protocol::Protocol;
use asf_core::query::RangeQuery;
use asf_core::workload::{UpdateEvent, Workload};
use asf_persist::StateWriter;
use asf_server::{CheckpointMode, DurabilityConfig, ServerConfig, ShardedServer};
use simkit::SimRng;
use streamnet::Ledger;
use workloads::{SyntheticConfig, SyntheticWorkload};

const M: usize = 1000;
const N: usize = 20_000;

/// FNV-1a over 64-bit words and byte strings.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// `asf_bench`'s `multi_range` query generator at m = 1000.
fn bench_queries(seed: u64) -> Vec<RangeQuery> {
    let mut rng = SimRng::seed_from_u64(seed ^ (M as u64).rotate_left(17));
    (0..M)
        .map(|_| {
            let width = 1000.0 / M as f64 * (0.5 + rng.next_f64());
            let lo = rng.range_f64(0.0, 1000.0 - width);
            RangeQuery::new(lo, lo + width).unwrap()
        })
        .collect()
}

fn fixture(seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: N,
        horizon: 20.0,
        seed,
        ..Default::default()
    });
    let initial = w.initial_values();
    (initial, std::iter::from_fn(|| w.next_event()).collect())
}

/// The checkpoint payload, every per-query answer and the ledger.
fn digest(p: &MultiRangeZt, ledger: &Ledger) -> u64 {
    let mut d = Digest::new();
    let mut w = StateWriter::new();
    p.save_state(&mut w);
    d.bytes(&w.into_bytes());
    for j in 0..M {
        let answer = p.answer_of(j);
        d.word(answer.len() as u64);
        answer.iter().for_each(|id| d.word(u64::from(id.0)));
    }
    ledger.kind_counts().iter().for_each(|&c| d.word(c));
    d.0
}

fn test_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("asf-multi-query-pinned-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `(digest at the crash point, digest at the end)` of one fixture, after
/// checking that the crashed-and-recovered server agrees at both points.
fn pinned_run(seed: u64) -> (u64, u64) {
    let queries = bench_queries(seed);
    let make = || MultiRangeZt::with_mode(queries.clone(), CellMode::ServerManaged).unwrap();
    let (initial, events) = fixture(seed);
    let split = events.len() * 6 / 10;

    let mut engine = Engine::new(&initial, make());
    engine.initialize();
    events[..split].iter().for_each(|&e| engine.apply_event(e));
    let at_split = digest(engine.protocol(), engine.ledger());
    events[split..].iter().for_each(|&e| engine.apply_event(e));
    let at_end = digest(engine.protocol(), engine.ledger());

    let dir = test_dir(&seed.to_string());
    let config = ServerConfig::with_shards(2);
    let durable = DurabilityConfig::new(&dir).checkpoint_every(4096).mode(CheckpointMode::Sync);
    let mut crashed = ShardedServer::new(&initial, make(), config);
    crashed.initialize();
    crashed.enable_durability(durable.clone()).unwrap();
    crashed.ingest_batch(&events[..split]);
    drop(crashed);
    let mut recovered = ShardedServer::recover(&initial, make(), config, durable).unwrap();
    assert_eq!(recovered.events_processed(), split as u64, "seed {seed}: replay lost events");
    assert_eq!(
        digest(recovered.protocol(), recovered.ledger()),
        at_split,
        "seed {seed}: recovered server differs from the engine at the crash point"
    );
    recovered.ingest_batch(&events[split..]);
    assert_eq!(
        digest(recovered.protocol(), recovered.ledger()),
        at_end,
        "seed {seed}: recovered server differs from the engine at the end"
    );
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (at_split, at_end)
}

/// Generated on bc8e6c2 (see the module docs): `(seed, at the crash point,
/// at the end)`.
const PINNED: [(u64, u64, u64); 2] = [
    (48_764, 0x2d42_f83e_5599_aa4b, 0x2b6d_2920_aa10_b80b),
    (7, 0xc21a_92e7_a3dc_cbd5, 0x1605_2c27_ceb0_5488),
];

#[test]
fn multi_query_state_matches_parent_commit_digests() {
    let got: Vec<(u64, u64, u64)> = PINNED
        .iter()
        .map(|&(seed, _, _)| {
            let (split, end) = pinned_run(seed);
            (seed, split, end)
        })
        .collect();
    let render = |rows: &[(u64, u64, u64)]| {
        rows.iter()
            .map(|(s, a, b)| format!("    ({s}, {a:#018x}, {b:#018x}),\n"))
            .collect::<String>()
    };
    assert_eq!(got, PINNED, "multi-query state drifted; this run produced\n{}", render(&got));
}
