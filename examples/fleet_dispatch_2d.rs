//! 2-D fleet dispatch — the multi-dimensional extension in action
//! (paper §7): taxis move on a city map; dispatch continuously tracks the
//! k nearest to a hotspot with rank tolerance, and a geofenced downtown
//! rectangle with fraction tolerance.
//!
//! Neither query needs a 2-D protocol. Each taxi reports one value, its
//! position under a `Projection` — the distance to the hotspot, or the
//! signed distance to the geofence — and the 1-D RTP and FT-NRP run on the
//! one engine. The k-NN half runs again on the 4-shard server, which must
//! agree with the engine byte for byte; both 2-D guarantees are checked
//! against the true positions.
//!
//! Run with: `cargo run --release --example fleet_dispatch_2d`

use asf_core::engine::Engine;
use asf_core::multidim::{oracle2d, Point2, Projection, Region};
use asf_core::protocol::{FtNrp, FtNrpConfig, Rtp, SelectionHeuristic};
use asf_core::query::RankQuery;
use asf_core::tolerance::{FractionTolerance, RankTolerance};
use asf_core::workload::{VecWorkload, Workload};
use asf_server::{ExecMode, ServerConfig, ShardedServer};
use workloads::{Walk2dConfig, Walk2dWorkload};

fn main() {
    let cfg = Walk2dConfig {
        num_objects: 800,
        width: 1000.0,
        height: 1000.0,
        sigma: 12.0,
        horizon: 1200.0,
        ..Default::default()
    };
    let hotspot = Point2::new(650.0, 420.0);
    let (k, r) = (6usize, 4usize);

    // Rank-tolerant k-NN around the hotspot: RTP over |p − hotspot|.
    let mut w = Walk2dWorkload::new(cfg, Projection::distance_to(hotspot).unwrap());
    let initial = w.initial_values();
    let events: Vec<_> = std::iter::from_fn(|| w.next_event()).collect();
    let rtp = || Rtp::new(RankQuery::k_min(k).unwrap(), r).unwrap();
    let mut knn = Engine::new(&initial, rtp());
    knn.run(&mut VecWorkload::new(initial.clone(), events.clone()));
    let rank_tol = RankTolerance::new(k, r).unwrap();
    let rank_ok =
        oracle2d::rank_violation_2d(hotspot, rank_tol, &knn.answer(), w.positions()).is_none();
    println!(
        "k-NN dispatch at {hotspot}: {} messages for {} moves, {} expansions, bound radius {:.1}, \
         guarantee {}",
        knn.ledger().total(),
        events.len(),
        knn.protocol().expansions(),
        knn.protocol().threshold(),
        if rank_ok { "holds ✓" } else { "VIOLATED ✗" }
    );
    assert!(rank_ok);

    // The same k-NN on the sharded server (3 worker threads plus the
    // coordinator).
    let config = ServerConfig::with_shards(4).mode(ExecMode::Threaded);
    let mut server = ShardedServer::new(&initial, rtp(), config);
    server.initialize();
    server.ingest_batch(&events);
    let identical = server.answer() == knn.answer() && server.ledger() == knn.ledger();
    println!(
        "asf-server (4 shards, threaded) agrees with the engine (answer + ledger): {}",
        if identical { "yes" } else { "NO (bug!)" }
    );
    assert!(identical);
    server.shutdown();

    // Fraction-tolerant downtown geofence: FT-NRP over the signed distance
    // to the rectangle.
    let region = Region::rect(Point2::new(300.0, 300.0), Point2::new(600.0, 550.0)).unwrap();
    let tol = FractionTolerance::symmetric(0.2).unwrap();
    let mut w = Walk2dWorkload::new(cfg, Projection::window(region));
    let config =
        FtNrpConfig { heuristic: SelectionHeuristic::BoundaryNearest, ..Default::default() };
    let mut fence = Engine::new(
        &w.initial_values(),
        FtNrp::new(region.range_query(), tol, config, 99).unwrap(),
    );
    fence.run(&mut w);
    let fence_ok =
        oracle2d::fraction_region_violation(&region, tol, &fence.answer(), w.positions()).is_none();
    println!(
        "downtown geofence: {} messages, |A| = {}, n+ = {}, n- = {}, guarantee {}",
        fence.ledger().total(),
        fence.answer().len(),
        fence.protocol().n_plus(),
        fence.protocol().n_minus(),
        if fence_ok { "holds ✓" } else { "VIOLATED ✗" }
    );
    assert!(fence_ok);

    println!("\nthe 1-D protocols generalize to the plane exactly as §7 of the paper predicts.");
}
