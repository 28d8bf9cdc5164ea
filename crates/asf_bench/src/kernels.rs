//! Layers alone, timed from outside: one public entry point of each hot
//! layer with a fixed iteration count, one warm-up pass, and `black_box`
//! on inputs and outputs. Population 100k on a 2-way partition, like the
//! workloads.
//!
//! These interpret the in-situ shares: a kernel that improves while its
//! in-situ share does not means the time is in waiting, not in work.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use asf_core::multi_query::QueryRouter;
use asf_core::rank::RankForest;
use asf_core::workload::{EventBatch, Workload};
use asf_core::{RangeQuery, RankSpace};
use asf_persist::StateWriter;
use asf_server::shard::{Shard, ShardCmd, ShardReply};
use asf_server::{CheckpointMode, Durability, DurabilityConfig, Partition};
use simkit::{FaultMix, SimRng};
use streamnet::{ChaosConfig, ChaosState, Filter, StreamId};
use workloads::{SyntheticConfig, SyntheticWorkload};

use crate::run::CHUNK;

/// Name and unit of each timing, in the order [`run`] returns them.
pub const KERNELS: [(&str, &str); 6] = [
    ("kernel.shard_eval_ns_per_event", "ns/event"),
    ("kernel.rank_update_ns", "ns"),
    ("kernel.router_affected_ns", "ns"),
    ("kernel.heartbeat_round_ns_per_source", "ns/source"),
    ("kernel.journal_chunk_us", "us"),
    ("kernel.checkpoint_save_ms", "ms"),
];

const POPULATION: usize = 100_000;
const SEED: u64 = 48_764;

/// Runs `body` once to warm up, then `iters` times; returns the mean ns
/// per timed iteration.
fn time(iters: usize, mut body: impl FnMut(usize)) -> f64 {
    body(0);
    let start = Instant::now();
    for i in 0..iters {
        body(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn window() -> (Vec<f64>, EventBatch) {
    let mut gen = SyntheticWorkload::new(SyntheticConfig {
        num_streams: POPULATION,
        horizon: f64::INFINITY,
        seed: SEED,
        ..Default::default()
    });
    let mut batch = EventBatch::with_capacity(CHUNK);
    gen.next_batch(CHUNK, &mut batch);
    (gen.initial_values(), batch)
}

/// `Shard::exec(EvalWindow)` + `Commit` on an all-silent 4096-event
/// window, ns per window event (the shard scans all, evaluates its half).
fn shard_eval(initial: &[f64], batch: &EventBatch) -> f64 {
    let partition = Partition::new(2);
    let mut shard = Shard::with_partition(&partition.split_values(initial)[0], partition, 0);
    // Every source known to the server and behind a filter nothing can
    // violate: every event is silent.
    shard.exec(ShardCmd::ProbeAll);
    shard.exec(ShardCmd::Broadcast { filter: Filter::wildcard() });
    let window = Arc::new(batch.clone());
    let mut reports = Vec::new();
    let per_window = time(2_000, |_| {
        let reply = shard.exec(ShardCmd::EvalWindow {
            window: Arc::clone(black_box(&window)),
            start: 0,
            end: window.len(),
            reports: std::mem::take(&mut reports),
        });
        if let ShardReply::Evaluated { reports: r, .. } = reply {
            assert!(r.is_empty(), "the kernel window must stay silent");
            reports = r;
        }
        black_box(shard.exec(ShardCmd::Commit { keep_below: u64::MAX }));
    });
    per_window / batch.len() as f64
}

/// `RankForest::update` + `midpoint`, ns per pair.
fn rank_update(initial: &[f64]) -> f64 {
    let mut forest = RankForest::new(RankSpace::Knn { q: 500.0 }, POPULATION, 2);
    for (i, &v) in initial.iter().enumerate() {
        forest.update(StreamId(i as u32), v);
    }
    let mut rng = SimRng::seed_from_u64(SEED);
    let moves: Vec<(StreamId, f64)> = (0..65_536)
        .map(|_| (StreamId(rng.index(POPULATION) as u32), rng.range_f64(0.0, 1000.0)))
        .collect();
    time(200_000, |i| {
        let (id, value) = black_box(moves[i % moves.len()]);
        forest.update(id, value);
        black_box(forest.midpoint(32));
    })
}

/// `QueryRouter::affected` over m = 1000 ranges, ns per transition of one
/// Gaussian-step size.
fn router_affected() -> f64 {
    let mut rng = SimRng::seed_from_u64(SEED);
    let queries: Vec<RangeQuery> = (0..1000)
        .map(|_| {
            let width = 0.5 + rng.next_f64();
            let lo = rng.range_f64(0.0, 1000.0 - width);
            RangeQuery::new(lo, lo + width).expect("generated query is valid")
        })
        .collect();
    let mut router = QueryRouter::new(&queries);
    let moves: Vec<(f64, f64)> = (0..65_536)
        .map(|_| {
            let old = rng.range_f64(20.0, 980.0);
            (old, old + rng.range_f64(-20.0, 20.0))
        })
        .collect();
    let mut out = Vec::new();
    time(1_000_000, |i| {
        let (old, new) = black_box(moves[i % moves.len()]);
        router.affected(old, new, &mut out);
        black_box(&out);
    })
}

/// `ChaosState::heartbeat_round` + `finish_round` at 5% loss, ns per source.
fn heartbeat_round() -> f64 {
    let cfg = ChaosConfig::new(SEED ^ 5, FaultMix::loss_only(0.05), u64::MAX)
        .lease_ticks(4 * CHUNK as u64);
    let mut chaos = ChaosState::new(POPULATION, cfg);
    let per_round = time(200, |_| {
        chaos.advance(CHUNK as u64);
        black_box(chaos.heartbeat_round());
        chaos.finish_round();
    });
    per_round / POPULATION as f64
}

/// `Durability::journal_chunk` (append + sync) of one encoded 4096-event
/// chunk, µs; and `Durability::save_checkpoint` of a 5 MiB image in
/// `CheckpointMode::Sync`, ms.
fn durability(batch: &EventBatch, dir: &Path) -> Result<(f64, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let cfg = DurabilityConfig::new(dir).mode(CheckpointMode::Sync).rotate_journal_every(None);
    let mut d = Durability::new(&cfg, 0, &[0u8; 64]).map_err(|e| format!("kernel dir: {e}"))?;
    let mut w = StateWriter::new();
    batch.encode(&mut w);
    let payload = w.into_bytes();
    let mut seq = 0u64;
    let mut failed = None;
    let journal_ns = time(100, |_| {
        seq += CHUNK as u64;
        if let Err(e) = d.journal_chunk(seq, black_box(&payload)) {
            failed = Some(e.to_string());
        }
    });
    let image = vec![0xA5u8; 5 << 20];
    let mut save_ns = 0u128;
    let saves = 6;
    for i in 0..=saves {
        let state = black_box(image.clone());
        let t = Instant::now();
        let saved = d.save_checkpoint(seq + i, state);
        if i > 0 {
            save_ns += t.elapsed().as_nanos(); // save 0 is the warm-up pass
        }
        if let Err(e) = black_box(saved) {
            failed = Some(e.to_string());
        }
    }
    d.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    match failed {
        Some(e) => Err(format!("durability kernel: {e}")),
        None => Ok((journal_ns / 1e3, save_ns as f64 / saves as f64 / 1e6)),
    }
}

/// All kernel timings, in [`KERNELS`] order. `tmp` is where the
/// durability kernels may write.
pub fn run(tmp: &Path) -> Result<Vec<f64>, String> {
    let (initial, batch) = window();
    let (journal_us, checkpoint_ms) =
        durability(&batch, &tmp.join(format!("kernel-{}", std::process::id())))?;
    Ok(vec![
        shard_eval(&initial, &batch),
        rank_update(&initial),
        router_affected(),
        heartbeat_round(),
        journal_us,
        checkpoint_ms,
    ])
}
