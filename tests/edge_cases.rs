//! Edge-case integration tests: degenerate populations, extreme
//! parameters, tie-heavy value distributions, and pathological workloads.

use asf_core::engine::Engine;
use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::oracle;
use asf_core::protocol::{FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Rtp, VtMax, ZtNrp, ZtRp};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::{FractionTolerance, RankTolerance};
use asf_core::workload::{UpdateEvent, VecWorkload};
use streamnet::StreamId;

fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
    UpdateEvent { time: t, stream: StreamId(s), value: v }
}

#[test]
fn ft_nrp_with_empty_initial_answer() {
    // Nobody satisfies the query at t0: |A| = 0, budgets floor to 0, and
    // the protocol must still track entries correctly.
    let initial = vec![10.0, 20.0, 30.0];
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::symmetric(0.5).unwrap();
    let p = FtNrp::new(query, tol, FtNrpConfig::default(), 1).unwrap();
    let mut engine = Engine::new(&initial, p);
    engine.initialize();
    assert!(engine.answer().is_empty());
    assert_eq!(engine.protocol().n_plus(), 0);
    assert_eq!(engine.protocol().n_minus(), 0);

    engine.apply_event(ev(1.0, 0, 500.0));
    assert!(engine.answer().contains(StreamId(0)));
    assert!(
        oracle::fraction_range_violation(query, tol, &engine.answer(), engine.fleet()).is_none()
    );
}

#[test]
fn ft_nrp_with_everything_inside() {
    // The whole population satisfies the query: Y(t0) is empty, so no
    // suppress filters can be placed even with budget.
    let initial = vec![450.0, 500.0, 550.0, 420.0];
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::symmetric(0.5).unwrap();
    let p = FtNrp::new(query, tol, FtNrpConfig::default(), 2).unwrap();
    let mut engine = Engine::new(&initial, p);
    engine.initialize();
    assert_eq!(engine.answer().len(), 4);
    assert_eq!(engine.protocol().n_plus(), 2); // floor(4 * 0.5)
    assert_eq!(engine.protocol().n_minus(), 0, "no outsiders to suppress");
}

#[test]
fn rtp_with_k_equal_one() {
    let initial = vec![100.0, 200.0, 300.0, 400.0, 500.0];
    let query = RankQuery::top_k(1).unwrap();
    let mut engine = Engine::new(&initial, Rtp::new(query, 2).unwrap());
    engine.initialize();
    assert_eq!(engine.answer().iter().collect::<Vec<_>>(), vec![StreamId(4)]);
    // Churn the maximum around.
    engine.apply_event(ev(1.0, 0, 900.0));
    engine.apply_event(ev(2.0, 4, 50.0));
    engine.apply_event(ev(3.0, 1, 950.0));
    let tol = RankTolerance::new(1, 2).unwrap();
    assert!(oracle::rank_violation(query, tol, &engine.answer(), engine.fleet()).is_none());
}

#[test]
fn rtp_at_maximum_feasible_epsilon() {
    // n = 6, k = 2, r = 3 -> eps = 5 = n - 1: the bound sits between the
    // 5th and 6th ranked streams.
    let initial = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
    let query = RankQuery::k_min(2).unwrap();
    let mut engine = Engine::new(&initial, Rtp::new(query, 3).unwrap());
    engine.initialize();
    assert_eq!(engine.protocol().x_set().len(), 5);
    engine.apply_event(ev(1.0, 0, 5.5)); // rank 1 drops to rank 5
    let tol = RankTolerance::new(2, 3).unwrap();
    assert!(oracle::rank_violation(query, tol, &engine.answer(), engine.fleet()).is_none());
}

#[test]
fn duplicate_values_rank_deterministically() {
    // All streams share one value: ranks are decided purely by id, and
    // every protocol must still initialize and answer coherently.
    let initial = vec![500.0; 8];
    let query = RankQuery::knn(500.0, 3).unwrap();
    let mut engine = Engine::new(&initial, NoFilter::rank(query));
    engine.initialize();
    assert_eq!(
        engine.answer().iter().collect::<Vec<_>>(),
        vec![StreamId(0), StreamId(1), StreamId(2)],
        "ties break by ascending id"
    );
}

#[test]
fn zt_rp_with_duplicate_values_stays_exact() {
    // Midpoint thresholds between tied keys produce zero-width margins;
    // the protocol must still resolve to a correct (tie-broken) answer.
    let initial = vec![500.0, 500.0, 500.0, 700.0];
    let query = RankQuery::knn(500.0, 2).unwrap();
    let mut engine = Engine::new(&initial, ZtRp::new(query).unwrap());
    engine.initialize();
    engine.apply_event(ev(1.0, 3, 500.0)); // now a 4-way tie
    engine.apply_event(ev(2.0, 0, 900.0)); // S0 leaves
    let truth = oracle::true_rank_answer(query, engine.fleet());
    assert_eq!(engine.answer(), truth);
}

#[test]
fn two_stream_population_smallest_viable_protocols() {
    let initial = vec![450.0, 700.0];
    // ZT-NRP works with any n.
    let range = RangeQuery::new(400.0, 600.0).unwrap();
    let mut engine = Engine::new(&initial, ZtNrp::new(range));
    engine.initialize();
    assert_eq!(engine.answer().len(), 1);
    // ZT-RP needs n > k: k = 1, n = 2 is the minimum.
    let knn = RankQuery::knn(500.0, 1).unwrap();
    let mut engine = Engine::new(&initial, ZtRp::new(knn).unwrap());
    engine.initialize();
    assert_eq!(engine.answer().iter().collect::<Vec<_>>(), vec![StreamId(0)]);
}

#[test]
fn repeated_boundary_bouncing_is_stable() {
    // A stream oscillating exactly across the range boundary: every bounce
    // is one message, answers stay exact, nothing leaks.
    let initial = vec![500.0, 100.0];
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let mut engine = Engine::new(&initial, ZtNrp::new(query));
    engine.initialize();
    let base = engine.ledger().total();
    let mut t = 1.0;
    for i in 0..100 {
        let v = if i % 2 == 0 { 600.0f64.next_up() } else { 600.0 };
        engine.apply_event(ev(t, 0, v));
        t += 1.0;
    }
    assert_eq!(engine.ledger().total(), base + 100);
    assert!(engine.answer().contains(StreamId(0)), "ends inside (closed bound)");
}

#[test]
fn ft_rp_handles_coincident_streams_at_query_point() {
    // Several streams exactly at the query point (distance 0 ties).
    let initial = vec![500.0, 500.0, 500.0, 480.0, 520.0, 100.0, 900.0, 300.0];
    let query = RankQuery::knn(500.0, 3).unwrap();
    let tol = FractionTolerance::symmetric(0.4).unwrap();
    let p = FtRp::new(query, tol, FtRpConfig::default(), 3).unwrap();
    let mut engine = Engine::new(&initial, p);
    engine.initialize();
    engine.apply_event(ev(1.0, 5, 501.0));
    engine.apply_event(ev(2.0, 0, 880.0));
    assert!(oracle::fraction_rank_violation(query, tol, &engine.answer(), engine.fleet()).is_none());
}

#[test]
fn vt_max_with_zero_epsilon_is_exact() {
    let initial = vec![10.0, 50.0, 30.0];
    let mut engine = Engine::new(&initial, VtMax::new(0.0).unwrap());
    engine.initialize();
    engine.apply_event(ev(1.0, 0, 60.0));
    engine.apply_event(ev(2.0, 0, 40.0));
    // With eps = 0 the answer must always be the true maximum.
    let max_id = (0..3)
        .map(StreamId)
        .max_by(|&a, &b| {
            engine.fleet().true_value(a).partial_cmp(&engine.fleet().true_value(b)).unwrap()
        })
        .unwrap();
    assert_eq!(engine.answer().iter().collect::<Vec<_>>(), vec![max_id]);
}

#[test]
fn multi_query_with_identical_queries_collapses_cuts() {
    let q = RangeQuery::new(400.0, 600.0).unwrap();
    let p = MultiRangeZt::new(vec![q, q, q]).unwrap();
    // Three identical queries contribute one pair of cuts: 3 cells.
    assert_eq!(p.num_cells(), 3);
    let initial = vec![500.0, 100.0];
    let mut engine = Engine::new(&initial, p);
    engine.initialize();
    for j in 0..3 {
        assert!(engine.protocol().answer_of(j).contains(StreamId(0)));
        assert!(!engine.protocol().answer_of(j).contains(StreamId(1)));
    }
}

#[test]
fn multi_query_point_queries() {
    // Degenerate [v, v] queries: membership flips exactly at one value.
    let q = RangeQuery::new(500.0, 500.0).unwrap();
    let initial = vec![500.0, 499.0];
    let p = MultiRangeZt::with_mode(vec![q], CellMode::SourceResident).unwrap();
    let mut engine = Engine::new(&initial, p);
    engine.initialize();
    assert!(engine.protocol().answer_of(0).contains(StreamId(0)));
    engine.apply_event(ev(1.0, 0, 500.0f64.next_up()));
    assert!(!engine.protocol().answer_of(0).contains(StreamId(0)));
    engine.apply_event(ev(2.0, 1, 500.0));
    assert!(engine.protocol().answer_of(0).contains(StreamId(1)));
}

#[test]
fn multi_query_cut_set_collapses_duplicate_and_adjacent_bounds() {
    // Cuts are {l_i} ∪ {next_up(u_i)}, deduplicated under total f64 order.
    // Duplicate queries, u_i == l_j adjacency (the closed bounds share one
    // point), and l_j == next_up(u_i) (the intervals tile with no gap) must
    // all collapse to the minimal cut set — and the surviving cells must
    // still separate membership exactly at every one-ulp transition.
    let a = RangeQuery::new(100.0, 200.0).unwrap();
    let b = RangeQuery::new(200.0, 300.0).unwrap(); // l == a.hi
    let c = RangeQuery::new(200.0f64.next_up(), 250.0).unwrap(); // l == next_up(a.hi)
    let point = RangeQuery::new(200.0, 200.0).unwrap(); // point on the shared bound
    let dup = a; // exact duplicate
    let queries = vec![a, b, c, point, dup];
    let p = MultiRangeZt::new(queries.clone()).unwrap();
    // Distinct cuts: {100, 200, next_up(200), next_up(250), next_up(300)}.
    // a/dup/point's upper cut and c's lower bound are the same f64; b's
    // lower bound equals a's upper value. 5 cuts -> 6 cells, one of which
    // is the single-point cell [200, 200].
    assert_eq!(p.num_cells(), 6);

    let initial = vec![150.0, 200.0, 200.0f64.next_up(), 260.0];
    let mut engine = Engine::new(&initial, p);
    engine.initialize();
    let steps = [
        ev(1.0, 0, 200.0),                // onto the shared bound: a, b, point, dup — not c
        ev(2.0, 0, 200.0f64.next_up()),   // one ulp up: leaves a/point/dup, enters c
        ev(3.0, 1, 300.0f64.next_up()),   // one ulp past b's top: member of nothing
        ev(4.0, 2, 100.0f64.next_down()), // one ulp below every query
        ev(5.0, 3, 250.0),                // c's closed top bound
        ev(6.0, 3, 250.0f64.next_up()),   // leaves c, stays inside b
    ];
    for e in steps {
        engine.apply_event(e);
        for (j, q) in queries.iter().enumerate() {
            let truth: asf_core::AnswerSet =
                engine.fleet().iter().filter(|s| q.contains(s.value())).map(|s| s.id()).collect();
            assert_eq!(engine.protocol().answer_of(j), truth, "query {j} after t={}", e.time);
        }
    }
}

#[test]
fn workload_with_simultaneous_events_processes_fifo() {
    // Multiple events at the identical timestamp must process in insertion
    // order and leave a consistent exact answer.
    let initial = vec![450.0, 460.0, 470.0];
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let events = vec![
        ev(5.0, 0, 700.0),
        ev(5.0, 1, 800.0),
        ev(5.0, 0, 450.0), // back in, same instant
        ev(5.0, 2, 900.0),
    ];
    let mut engine = Engine::new(&initial, ZtNrp::new(query));
    let mut w = VecWorkload::new(initial.clone(), events);
    engine.run(&mut w);
    let truth = oracle::true_range_answer(query, engine.fleet());
    assert_eq!(engine.answer(), truth);
    assert_eq!(engine.answer().iter().collect::<Vec<_>>(), vec![StreamId(0)]);
}

#[test]
fn rtp_survives_mass_exodus_and_reinitializes() {
    // Every X member (and more) leaves at once; RTP must fall back to the
    // expansion search and possibly a full re-initialization, ending
    // correct either way.
    let initial: Vec<f64> = (0..12).map(|i| 500.0 + i as f64).collect();
    let query = RankQuery::knn(500.0, 3).unwrap();
    let mut engine = Engine::new(&initial, Rtp::new(query, 2).unwrap());
    engine.initialize();
    let mut t = 1.0;
    for s in 0..8u32 {
        engine.apply_event(ev(t, s, 5000.0 + s as f64));
        t += 1.0;
    }
    let tol = RankTolerance::new(3, 2).unwrap();
    let v = oracle::rank_violation(query, tol, &engine.answer(), engine.fleet());
    assert!(v.is_none(), "{}", v.unwrap());
    assert!(engine.protocol().expansions() + engine.protocol().reinits() > 0);
}

#[test]
fn tiny_batch_sizes_match_serial_engine() {
    // Chunks of 1, 2, 3 and 5 events, each evaluated in one round.
    // RTP on a moving workload reports often: the paper's deployment
    // broadcasts, so a broadcast respeculates the suffix past its report
    // to the end of its chunk, on every one of those shapes. Server-managed
    // dense ranges over four streams install at every reporter, whose next
    // event is often the very next one, so per-stream respeculation lands
    // on every shape that speculates past the report. On every shape every
    // round stands: no chunk is evaluated twice.
    use asf_core::protocol::Protocol;
    use asf_core::workload::Workload;
    use asf_server::{ExecMode, ServerConfig, ServerMetrics, ShardedServer};
    use workloads::{SyntheticConfig, SyntheticWorkload};

    fn sweep<P: Protocol>(
        name: &str,
        initial: &[f64],
        events: &[UpdateEvent],
        make: impl Fn() -> P,
        path: impl Fn(&ServerMetrics, usize) -> bool,
    ) {
        let mut engine = Engine::new(initial, make());
        engine.initialize();
        engine.run(&mut VecWorkload::new(initial.to_vec(), events.to_vec()));
        assert!(engine.reports_processed() > 0, "{name}: workload must be report-heavy");
        for batch_size in [1usize, 2, 3, 5] {
            for mode in [ExecMode::Inline, ExecMode::Threaded] {
                let config = ServerConfig::with_shards(3).batch_size(batch_size).mode(mode);
                let mut server = ShardedServer::new(initial, make(), config);
                server.initialize();
                server.ingest_batch(events);
                let tag = format!("{name} batch_size={batch_size} {mode:?}");
                let m = server.metrics();
                assert!(path(m, batch_size), "{tag}: touch path not taken: {}", m.summary());
                assert_eq!(m.batches, events.len().div_ceil(batch_size) as u64, "{tag}");
                assert_eq!(m.rounds, m.batches, "{tag}: a chunk was evaluated twice");
                assert_eq!(server.answer(), engine.answer(), "{tag}: answers diverged");
                assert_eq!(server.ledger(), engine.ledger(), "{tag}: ledgers diverged");
                assert_eq!(
                    server.reports_processed(),
                    engine.reports_processed(),
                    "{tag}: report counts diverged"
                );
            }
        }
    }

    let fixture = |num_streams: usize, horizon: f64| {
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams,
            horizon,
            seed: 11,
            ..Default::default()
        });
        let initial = w.initial_values();
        let mut events = Vec::new();
        while let Some(ev) = w.next_event() {
            events.push(ev);
        }
        (initial, events)
    };
    let (initial, events) = fixture(30, 120.0);
    let query = RankQuery::knn(500.0, 4).unwrap();
    // The broadcasts take the touch path on every shape; whether a suffix
    // follows their report depends on where in its tiny chunk it lands.
    sweep(
        "RTP paper",
        &initial,
        &events,
        || Rtp::paper(query, 2).unwrap(),
        |m, _| m.scoped_touches > 0,
    );
    sweep("RTP", &initial, &events, || Rtp::new(query, 2).unwrap(), |_, _| true);
    let (initial, events) = fixture(4, 2_000.0);
    let dense: Vec<RangeQuery> = (0..100)
        .map(|j| RangeQuery::new(j as f64 * 10.0, j as f64 * 10.0 + 10.0).unwrap())
        .collect();
    sweep(
        "dense MULTI-ZT",
        &initial,
        &events,
        || MultiRangeZt::with_mode(dense.clone(), CellMode::ServerManaged).unwrap(),
        // One-event chunks speculate nothing past the report.
        |m, batch_size| batch_size == 1 || m.respeculated > 0,
    );
}
