//! Microbenches for the hot kernels of the reproduction: filter crossing
//! checks, ranking, protocol maintenance steps, event-queue operations, and
//! workload generation.
//!
//! Dependency-free harness (`harness = false`): each kernel is timed over a
//! fixed iteration count and reported as ns/iter. Run with
//! `cargo bench -p bench_harness` (or `--bench micro -- --quick`).

use std::hint::black_box;
use std::time::Instant;

use asf_core::engine::Engine;
use asf_core::protocol::{FtNrp, FtNrpConfig, Rtp, ZtNrp};
use asf_core::query::{RangeQuery, RankQuery, RankSpace};
use asf_core::rank::{midpoint_threshold, rank_values};
use asf_core::tolerance::FractionTolerance;
use asf_core::workload::Workload;
use simkit::{EventQueue, SimRng};
use streamnet::{Filter, StreamId};
use workloads::{SyntheticConfig, SyntheticWorkload};

/// Times `f` over `iters` iterations (after one warm-up) and prints ns/iter.
fn bench<T>(name: &str, iters: u64, mut f: impl FnMut() -> T) {
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = start.elapsed();
    let per = total.as_nanos() as f64 / iters as f64;
    println!("{name:<44} {per:>14.1} ns/iter   ({iters} iters)");
}

fn scale() -> u64 {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("ASF_QUICK").is_ok_and(|v| v == "1");
    if quick {
        1
    } else {
        10
    }
}

fn bench_filter_checks(mul: u64) {
    let filter = Filter::interval(400.0, 600.0);
    bench("filter/violated_1k", 100 * mul, || {
        let mut hits = 0u32;
        for i in 0..1000 {
            let prev = (i * 7 % 1000) as f64;
            let cur = (i * 13 % 1000) as f64;
            if filter.violated(black_box(prev), black_box(cur)) {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_ranking(mul: u64) {
    for n in [800usize, 5000] {
        let mut rng = SimRng::seed_from_u64(1);
        let values: Vec<(StreamId, f64)> =
            (0..n).map(|i| (StreamId(i as u32), rng.next_f64() * 1000.0)).collect();
        bench(&format!("rank/rank_values_{n}"), 20 * mul, || {
            rank_values(RankSpace::Knn { q: 500.0 }, values.iter().copied())
        });
        bench(&format!("rank/midpoint_threshold_{n}"), 20 * mul, || {
            midpoint_threshold(RankSpace::Knn { q: 500.0 }, values.iter().copied(), 50)
        });
    }
}

fn bench_event_queue(mul: u64) {
    bench("event_queue/schedule_pop_1k", 100 * mul, || {
        let mut q = EventQueue::with_capacity(1024);
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..1000u32 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            q.schedule((x >> 11) as f64, i);
        }
        let mut sum = 0u64;
        while let Some((_, i)) = q.pop() {
            sum += i as u64;
        }
        sum
    });
}

fn bench_workload_generation(mul: u64) {
    bench("workload/synthetic_10k_events", 5 * mul, || {
        let cfg =
            SyntheticConfig { num_streams: 1000, horizon: 200.0, seed: 7, ..Default::default() };
        let mut w = SyntheticWorkload::new(cfg);
        let mut n = 0u32;
        while w.next_event().is_some() {
            n += 1;
        }
        n
    });
}

fn bench_protocol_maintenance(mul: u64) {
    let cfg = SyntheticConfig { num_streams: 1000, horizon: 100.0, seed: 3, ..Default::default() };
    let range = RangeQuery::new(400.0, 600.0).unwrap();

    bench("protocol_run/zt_nrp_1k_streams", 3 * mul, || {
        let mut w = SyntheticWorkload::new(cfg);
        let mut engine = Engine::new(&w.initial_values(), ZtNrp::new(range));
        engine.run(&mut w);
        engine.ledger().total()
    });
    bench("protocol_run/ft_nrp_1k_streams", 3 * mul, || {
        let mut w = SyntheticWorkload::new(cfg);
        let tol = FractionTolerance::symmetric(0.2).unwrap();
        let p = FtNrp::new(range, tol, FtNrpConfig::default(), 1).unwrap();
        let mut engine = Engine::new(&w.initial_values(), p);
        engine.run(&mut w);
        engine.ledger().total()
    });
    bench("protocol_run/rtp_1k_streams", 3 * mul, || {
        let mut w = SyntheticWorkload::new(cfg);
        let q = RankQuery::knn(500.0, 20).unwrap();
        let mut engine = Engine::new(&w.initial_values(), Rtp::new(q, 10).unwrap());
        engine.run(&mut w);
        engine.ledger().total()
    });
}

fn bench_multidim(mul: u64) {
    use asf_core::multidim::{Point2, Projection};
    use workloads::{Walk2dConfig, Walk2dWorkload};

    // 2-D k-NN: RTP over each object's projected distance to q.
    bench("multidim_run/rtp_projected_500_objects", 3 * mul, || {
        let cfg = Walk2dConfig { num_objects: 500, horizon: 100.0, seed: 3, ..Default::default() };
        let q = Projection::distance_to(Point2::new(500.0, 500.0)).unwrap();
        let mut w = Walk2dWorkload::new(cfg, q);
        let rtp = Rtp::new(RankQuery::k_min(10).unwrap(), 5).unwrap();
        let mut engine = Engine::new(&w.initial_values(), rtp);
        engine.run(&mut w);
        engine.ledger().total()
    });
}

fn bench_multi_query(mul: u64) {
    use asf_core::multi_query::{CellMode, MultiRangeZt};

    let queries: Vec<RangeQuery> = (0..8)
        .map(|j| RangeQuery::new(100.0 * j as f64, 100.0 * j as f64 + 250.0).unwrap())
        .collect();
    let cfg = SyntheticConfig { num_streams: 1000, horizon: 100.0, seed: 5, ..Default::default() };

    for (mode, label) in
        [(CellMode::ServerManaged, "server_cells"), (CellMode::SourceResident, "resident_cells")]
    {
        bench(&format!("multi_query_run/{label}"), 3 * mul, || {
            let mut w = SyntheticWorkload::new(cfg);
            let p = MultiRangeZt::with_mode(queries.clone(), mode).unwrap();
            let mut engine = Engine::new(&w.initial_values(), p);
            engine.run(&mut w);
            engine.ledger().total()
        });
    }
}

fn main() {
    let mul = scale();
    println!("# micro benches (multiplier {mul}x; use --quick for 1x)\n");
    bench_filter_checks(mul);
    bench_ranking(mul);
    bench_event_queue(mul);
    bench_workload_generation(mul);
    bench_protocol_maintenance(mul);
    bench_multidim(mul);
    bench_multi_query(mul);
}
