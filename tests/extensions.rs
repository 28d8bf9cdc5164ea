//! Integration tests for the §7 extensions: 2-D queries projected onto the
//! 1-D engine and the multi-query shared-filter group, driven by real
//! workload generators and checked against ground truth at every
//! quiescent point.

use asf_core::engine::Engine;
use asf_core::multi_query::MultiRangeZt;
use asf_core::multidim::{oracle2d, Point2, Projection, Region};
use asf_core::protocol::{FtNrp, FtNrpConfig, Protocol, Rtp, SelectionHeuristic};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::{FractionTolerance, RankTolerance};
use asf_core::workload::Workload;
use asf_core::AnswerSet;
use streamnet::MessageKind;
use workloads::{SyntheticConfig, SyntheticWorkload, Walk2dConfig, Walk2dWorkload};

fn walk(seed: u64, n: usize, horizon: f64, projection: Projection) -> Walk2dWorkload {
    let config = Walk2dConfig { num_objects: n, horizon, seed, ..Default::default() };
    Walk2dWorkload::new(config, projection)
}

/// Runs `protocol` on the serial engine over the projected walk, handing
/// `check` the engine and the true positions at every quiescent point.
fn run_2d<P: Protocol>(
    w: &mut Walk2dWorkload,
    protocol: P,
    mut check: impl FnMut(&Engine<P>, &[Point2]),
) -> Engine<P> {
    let mut engine = Engine::new(&w.initial_values(), protocol);
    engine.initialize();
    check(&engine, w.positions());
    while let Some(ev) = w.next_event() {
        engine.apply_event(ev);
        check(&engine, w.positions());
    }
    engine
}

/// k-NN around `q`: RTP over the projected distance `|p − q|`.
fn knn_2d(q: Point2, k: usize, r: usize) -> (Projection, Rtp) {
    let rtp = Rtp::new(RankQuery::k_min(k).unwrap(), r).unwrap();
    (Projection::distance_to(q).unwrap(), rtp)
}

#[test]
fn rtp2d_rank_tolerance_holds_on_random_walks() {
    // The last case is a regression input: an RTP whose expansion search
    // rebuilds X from A and the probed candidates, instead of the set the
    // server believes inside R, breaks Definition 1 on it (S36 at true
    // rank 6 > ε = 5, t ≈ 64.3).
    for (k, r, seed, n) in
        [(4usize, 2usize, 1u64, 50usize), (6, 0, 2, 50), (3, 5, 3, 50), (3, 2, 0, 60)]
    {
        let q = Point2::new(500.0, 500.0);
        let (projection, rtp) = knn_2d(q, k, r);
        let mut w = walk(seed, n, 200.0, projection);
        let tol = RankTolerance::new(k, r).unwrap();
        run_2d(&mut w, rtp, |engine, positions| {
            let v = oracle2d::rank_violation_2d(q, tol, &engine.answer(), positions);
            assert!(v.is_none(), "k={k} r={r} seed={seed} t={}: {}", engine.now(), v.unwrap());
        });
    }
}

#[test]
fn rtp2d_saves_messages_over_report_everything() {
    let (projection, rtp) = knn_2d(Point2::new(500.0, 500.0), 5, 5);
    let mut w = walk(7, 200, 400.0, projection);
    let engine = run_2d(&mut w, rtp, |_, _| {});
    let events = engine.events_processed();
    assert!(
        engine.ledger().total() < events,
        "RTP in 2-D ({}) should beat one message per movement ({events})",
        engine.ledger().total()
    );
}

#[test]
fn ft_rect2d_fraction_tolerance_holds_on_random_walks() {
    for (eps, seed) in [(0.2, 11u64), (0.5, 12), (0.0, 13)] {
        let region = Region::rect(Point2::new(300.0, 300.0), Point2::new(700.0, 600.0)).unwrap();
        let mut w = walk(seed, 60, 200.0, Projection::window(region));
        let tol = FractionTolerance::symmetric(eps).unwrap();
        let config =
            FtNrpConfig { heuristic: SelectionHeuristic::BoundaryNearest, ..Default::default() };
        let protocol = FtNrp::new(region.range_query(), tol, config, seed).unwrap();
        run_2d(&mut w, protocol, |engine, positions| {
            let v = oracle2d::fraction_region_violation(&region, tol, &engine.answer(), positions);
            assert!(v.is_none(), "eps={eps} seed={seed} t={}: {}", engine.now(), v.unwrap());
        });
    }
}

#[test]
fn multi_query_answers_match_independent_instances() {
    let queries = vec![
        RangeQuery::new(100.0, 350.0).unwrap(),
        RangeQuery::new(300.0, 650.0).unwrap(),
        RangeQuery::new(600.0, 900.0).unwrap(),
    ];
    let cfg = SyntheticConfig { num_streams: 80, horizon: 300.0, seed: 21, ..Default::default() };

    // Shared group.
    let mut w = SyntheticWorkload::new(cfg);
    let mut shared = Engine::new(&w.initial_values(), MultiRangeZt::new(queries.clone()).unwrap());
    shared.run(&mut w);

    // Independent exact instances over the same trace.
    for (j, &q) in queries.iter().enumerate() {
        let mut w = SyntheticWorkload::new(cfg);
        let mut solo = Engine::new(&w.initial_values(), asf_core::protocol::ZtNrp::new(q));
        solo.run(&mut w);
        assert_eq!(shared.protocol().answer_of(j), solo.answer(), "query {j} answers diverge");
    }
}

#[test]
fn multi_query_truth_holds_at_every_quiescent_point() {
    let queries =
        vec![RangeQuery::new(200.0, 500.0).unwrap(), RangeQuery::new(400.0, 800.0).unwrap()];
    let cfg = SyntheticConfig { num_streams: 50, horizon: 250.0, seed: 22, ..Default::default() };
    let mut w = SyntheticWorkload::new(cfg);
    let qs = queries.clone();
    let mut engine = Engine::new(&w.initial_values(), MultiRangeZt::new(queries).unwrap());
    engine.run_with_hook(&mut w, |fleet, protocol, t| {
        for (j, q) in qs.iter().enumerate() {
            let truth: AnswerSet =
                fleet.iter().filter(|s| q.contains(s.value())).map(|s| s.id()).collect();
            assert_eq!(protocol.answer_of(j), truth, "query {j} at t={t}");
        }
    });
}

#[test]
fn multi_query_shares_updates_across_overlapping_queries() {
    // With heavily overlapping queries, the shared group must send fewer
    // update messages than the sum of independent instances (a crossing in
    // the overlap is one shared report instead of several).
    let queries: Vec<RangeQuery> =
        (0..6).map(|j| RangeQuery::new(300.0 + 10.0 * j as f64, 700.0).unwrap()).collect();
    let cfg = SyntheticConfig { num_streams: 120, horizon: 400.0, seed: 23, ..Default::default() };

    let mut w = SyntheticWorkload::new(cfg);
    let mut shared = Engine::new(&w.initial_values(), MultiRangeZt::new(queries.clone()).unwrap());
    shared.run(&mut w);
    let shared_total = shared.ledger().total();

    let mut independent_total = 0;
    for &q in &queries {
        let mut w = SyntheticWorkload::new(cfg);
        let mut solo = Engine::new(&w.initial_values(), asf_core::protocol::ZtNrp::new(q));
        solo.run(&mut w);
        independent_total += solo.ledger().total();
    }
    assert!(
        shared_total < independent_total,
        "shared {shared_total} should beat independent {independent_total}"
    );
}

#[test]
fn multi_query_routing_is_byte_identical_to_naive_scan() {
    use asf_core::multi_query::{CellMode, RoutingMode};
    // The routing index only counts the queries a report flips; at 128
    // queries over a long trace, routed and naive-scan execution must agree
    // on every observable: per-query answers, the union answer, the message
    // ledger, the server view, and that count.
    let mut rng = simkit::SimRng::seed_from_u64(0x9047);
    let queries: Vec<RangeQuery> = (0..128)
        .map(|_| {
            let lo = rng.range_f64(0.0, 900.0);
            RangeQuery::new(lo, lo + rng.range_f64(0.0, 200.0)).unwrap()
        })
        .collect();
    let cfg = SyntheticConfig { num_streams: 96, horizon: 300.0, seed: 47, ..Default::default() };
    for mode in [CellMode::ServerManaged, CellMode::SourceResident] {
        let run = |routing| {
            let mut w = SyntheticWorkload::new(cfg);
            let p = MultiRangeZt::with_config(queries.clone(), mode, routing).unwrap();
            let mut engine = Engine::new(&w.initial_values(), p);
            engine.run(&mut w);
            engine
        };
        let routed = run(RoutingMode::Routed);
        let naive = run(RoutingMode::NaiveScan);
        assert_eq!(routed.answer(), naive.answer(), "{mode:?}: union answers diverge");
        assert_eq!(routed.ledger(), naive.ledger(), "{mode:?}: ledgers diverge");
        let touched = |e: &Engine<MultiRangeZt>| {
            (e.ctx_stats().routed_reports, e.ctx_stats().queries_touched)
        };
        assert_eq!(touched(&routed), touched(&naive), "{mode:?}: fan-out counts diverge");
        for j in 0..queries.len() {
            assert_eq!(
                routed.protocol().answer_of(j),
                naive.protocol().answer_of(j),
                "{mode:?}: query {j} diverges"
            );
        }
        for i in 0..96u32 {
            let id = streamnet::StreamId(i);
            assert_eq!(
                (
                    routed.view().is_known(id),
                    routed.view().is_known(id).then(|| routed.view().get(id))
                ),
                (
                    naive.view().is_known(id),
                    naive.view().is_known(id).then(|| naive.view().get(id))
                ),
                "{mode:?}: view diverges for {id}"
            );
        }
    }
}

#[test]
fn multi_query_at_scale_matches_independent_engines() {
    // The satellite differential: one routed group serving 128 queries vs
    // 128 single-query exact engines over the same trace — answers must be
    // identical per query, and the shared group must still beat the
    // independent-message total (the point of sharing cells).
    let mut rng = simkit::SimRng::seed_from_u64(0xD1FF);
    let mut queries: Vec<RangeQuery> = (0..122)
        .map(|_| {
            let lo = rng.range_f64(0.0, 850.0);
            RangeQuery::new(lo, lo + rng.range_f64(0.0, 300.0)).unwrap()
        })
        .collect();
    queries.extend([
        RangeQuery::new(0.0, 1000.0).unwrap(),
        RangeQuery::new(400.0, 600.0).unwrap(),
        RangeQuery::new(400.0, 600.0).unwrap(), // duplicate
        RangeQuery::new(600.0, 800.0).unwrap(), // shared bound
        RangeQuery::new(500.0, 500.0).unwrap(), // point
        RangeQuery::new(500.0f64.next_up(), 501.0).unwrap(),
    ]);
    let cfg = SyntheticConfig { num_streams: 64, horizon: 200.0, seed: 48, ..Default::default() };

    let mut w = SyntheticWorkload::new(cfg);
    let mut shared = Engine::new(&w.initial_values(), MultiRangeZt::new(queries.clone()).unwrap());
    shared.run(&mut w);

    let mut independent_total = 0;
    for (j, &q) in queries.iter().enumerate() {
        let mut w = SyntheticWorkload::new(cfg);
        let mut solo = Engine::new(&w.initial_values(), asf_core::protocol::ZtNrp::new(q));
        solo.run(&mut w);
        assert_eq!(shared.protocol().answer_of(j), solo.answer(), "query {j} answers diverge");
        independent_total += solo.ledger().total();
    }
    assert!(
        shared.ledger().total() < independent_total,
        "shared {} should beat {} independent messages at m=128",
        shared.ledger().total(),
        independent_total
    );
}

#[test]
fn multi_rank_answers_match_independent_rank_engines() {
    use asf_core::multi_rank::MultiRankZt;
    use asf_core::query::RankQuery;
    // The shared-rank group vs one exact ZT-RP engine per query: every
    // per-query top-k must agree at the end of the same seeded trace.
    let ks = [1usize, 2, 4, 4, 8, 15];
    let queries: Vec<RankQuery> = ks.iter().map(|&k| RankQuery::knn(420.0, k).unwrap()).collect();
    let cfg = SyntheticConfig { num_streams: 72, horizon: 250.0, seed: 49, ..Default::default() };

    let mut w = SyntheticWorkload::new(cfg);
    let mut shared = Engine::new(&w.initial_values(), MultiRankZt::new(queries.clone()).unwrap());
    shared.run(&mut w);

    for (j, &q) in queries.iter().enumerate() {
        let mut w = SyntheticWorkload::new(cfg);
        let mut solo = Engine::new(&w.initial_values(), asf_core::protocol::ZtRp::new(q).unwrap());
        solo.run(&mut w);
        assert_eq!(
            shared.protocol().answer_of(j),
            solo.answer(),
            "rank query {j} (k={}) diverges from its solo engine",
            q.k()
        );
    }
}

#[test]
fn multidim_message_accounting_is_conserved() {
    let (projection, rtp) = knn_2d(Point2::new(500.0, 500.0), 5, 3);
    let mut w = walk(31, 60, 200.0, projection);
    let mut engine = Engine::new(&w.initial_values(), rtp);
    engine.run(&mut w);
    let per_source: u64 = engine.fleet().iter().map(|s| s.traffic()).sum();
    assert_eq!(per_source, engine.ledger().total());
    assert_eq!(
        engine.ledger().count(MessageKind::ProbeRequest),
        engine.ledger().count(MessageKind::ProbeReply)
    );
}

#[test]
fn multi_query_fan_out_stays_small_at_thousands_of_queries() {
    use asf_core::multi_query::{CellMode, RoutingMode};
    use asf_server::{ServerConfig, ShardedServer};
    // m = 2000 shared-cell queries whose widths shrink as 1000/m, so a value
    // sits in about one query: a report flips only the few queries whose
    // bounds it crosses, and routing must count only those, not all 2000
    // queries; this scale measures 1.91.
    let m = 2_000;
    let mut rng = simkit::SimRng::seed_from_u64(0xBE7C ^ (m as u64).rotate_left(17));
    let queries: Vec<RangeQuery> = (0..m)
        .map(|_| {
            let width = 1000.0 / m as f64 * (0.5 + rng.next_f64());
            let lo = rng.range_f64(0.0, 1000.0 - width);
            RangeQuery::new(lo, lo + width).unwrap()
        })
        .collect();
    let cfg = SyntheticConfig { num_streams: 1_000, horizon: 40.0, seed: 50, ..Default::default() };
    let mut w = SyntheticWorkload::new(cfg);
    let initial = w.initial_values();
    let events: Vec<_> = std::iter::from_fn(|| w.next_event()).collect();
    let protocol =
        MultiRangeZt::with_config(queries, CellMode::ServerManaged, RoutingMode::Routed).unwrap();
    let mut server = ShardedServer::new(&initial, protocol, ServerConfig::with_shards(4));
    server.initialize();
    server.ingest_batch(&events);
    let stats = *server.ctx_stats();
    assert!(stats.routed_reports > 1_000, "too few reports to measure: {stats:?}");
    let fan_out = stats.queries_touched as f64 / stats.routed_reports as f64;
    assert!(fan_out < 2.0, "{fan_out:.2} queries touched per report at m = {m}");
}
