//! Concurrency correctness of `asf-server`: for **every** protocol, running
//! the same seeded workload with 1, 2, and 8 shards — inline and threaded,
//! telemetry off and fully on — through the coordinator (one round per
//! chunk) yields byte-identical `AnswerSet`s, message ledgers, views, and
//! ground-truth states to the single-threaded `Engine`, and the tolerance
//! oracle reaches the same verdict on the sharded runtime as on the serial
//! one.

use asf_core::engine::Engine;
use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::oracle;
use asf_core::protocol::{
    FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Protocol, Rtp, VtMax, ZtNrp, ZtRp,
};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::{FractionTolerance, RankTolerance};
use asf_core::workload::{UpdateEvent, VecWorkload, Workload};
use asf_server::{ExecMode, ServerConfig, ShardedServer, TelemetryConfig, TraceDepth};
use streamnet::StreamId;
use workloads::{SyntheticConfig, SyntheticWorkload};

const NUM_STREAMS: usize = 64;

fn fixture(seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: NUM_STREAMS,
        horizon: 150.0,
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

/// Runs `make()`'s protocol serially and under every shard/mode combination
/// and asserts the outcomes are byte-identical. Returns the serial engine
/// and one sharded truth snapshot for protocol-specific oracle checks.
fn assert_shard_invariant<P, F>(name: &str, make: F) -> (Engine<P>, Vec<f64>)
where
    P: Protocol,
    F: Fn() -> P,
{
    let (initial, events) = fixture(0xC0FFEE);

    let mut engine = Engine::new(&initial, make());
    engine.initialize();
    let mut w = VecWorkload::new(initial.clone(), events.clone());
    engine.run(&mut w);
    let serial_truth: Vec<f64> = engine.fleet().iter().map(|s| s.value()).collect();
    // Everything the protocol checkpoints (for RTP: A, X, R and the
    // held-bound ledger) must come out of every backend the same.
    let saved = |protocol: &P| {
        let mut w = asf_persist::StateWriter::new();
        protocol.save_state(&mut w);
        w.into_bytes()
    };

    let mut sharded_truth = Vec::new();
    // Telemetry must be purely observational, so the sweep runs every
    // combination with everything off and with cause attribution + fine
    // tracing on: any divergence between the halves would fail against the
    // one shared serial baseline.
    let telemetry_off =
        TelemetryConfig { causes: false, trace: TraceDepth::Off, trace_capacity: 0 };
    let telemetry_on =
        TelemetryConfig { causes: true, trace: TraceDepth::Fine, trace_capacity: 4096 };
    for shards in [1usize, 2, 8] {
        for mode in [ExecMode::Inline, ExecMode::Threaded] {
            for telemetry in [telemetry_off, telemetry_on] {
                let config = ServerConfig::with_shards(shards)
                    .batch_size(128)
                    .mode(mode)
                    .telemetry(telemetry);
                let mut server = ShardedServer::new(&initial, make(), config);
                server.initialize();
                server.ingest_batch(&events);

                let tag = format!("{name} shards={shards} {mode:?} trace={:?}", telemetry.trace);
                assert_eq!(server.answer(), engine.answer(), "{tag}: answers diverged");
                assert_eq!(server.ledger(), engine.ledger(), "{tag}: ledgers diverged");
                assert_eq!(
                    server.reports_processed(),
                    engine.reports_processed(),
                    "{tag}: report counts diverged"
                );
                assert_eq!(
                    server.events_processed(),
                    engine.events_processed(),
                    "{tag}: event counts diverged"
                );
                for i in 0..NUM_STREAMS {
                    let id = StreamId(i as u32);
                    assert_eq!(
                        server.view().is_known(id),
                        engine.view().is_known(id),
                        "{tag}: view knowledge diverged for {id}"
                    );
                    if server.view().is_known(id) {
                        assert_eq!(
                            server.view().get(id),
                            engine.view().get(id),
                            "{tag}: view diverged for {id}"
                        );
                    }
                }
                let truth = server.truth_values();
                assert_eq!(truth, serial_truth, "{tag}: ground truth diverged");
                sharded_truth = truth;
                assert_eq!(
                    saved(server.protocol()),
                    saved(engine.protocol()),
                    "{tag}: protocol state diverged"
                );
            }
        }
    }
    (engine, sharded_truth)
}

#[test]
fn no_filter_range_is_shard_invariant() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    assert_shard_invariant("no-filter/range", || NoFilter::range(query));
}

#[test]
fn zt_nrp_is_shard_invariant() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    assert_shard_invariant("ZT-NRP", || ZtNrp::new(query));
}

#[test]
fn ft_nrp_is_shard_invariant_and_oracle_agrees() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::new(0.25, 0.25).unwrap();
    let (engine, truth) = assert_shard_invariant("FT-NRP", || {
        FtNrp::new(query, tol, FtNrpConfig::default(), 42).unwrap()
    });
    // Same tolerance-oracle verdict on the sharded truth as on the serial
    // fleet (the answers and truths are byte-identical, so a differing
    // verdict would indicate an oracle/fleet reconstruction bug).
    let sharded_fleet = streamnet::SourceFleet::from_values(&truth);
    let serial_verdict =
        oracle::fraction_range_violation(query, tol, &engine.answer(), engine.fleet());
    let sharded_verdict =
        oracle::fraction_range_violation(query, tol, &engine.answer(), &sharded_fleet);
    assert_eq!(serial_verdict, sharded_verdict);
    assert!(sharded_verdict.is_none(), "tolerance violated: {sharded_verdict:?}");
}

#[test]
fn rtp_is_shard_invariant_and_oracle_agrees() {
    let (k, r) = (5usize, 3usize);
    let tol = RankTolerance::new(k, r).unwrap();
    let queries = [
        RankQuery::knn(500.0, k).unwrap(),
        RankQuery::top_k(k).unwrap(),
        RankQuery::k_min(k).unwrap(),
    ];
    for query in queries {
        let space = query.space();
        let name = format!("RTP {space:?}");
        let (engine, truth) = assert_shard_invariant(&name, || Rtp::new(query, r).unwrap());
        let sharded_fleet = streamnet::SourceFleet::from_values(&truth);
        let serial_verdict = oracle::rank_violation(query, tol, &engine.answer(), engine.fleet());
        let sharded_verdict = oracle::rank_violation(query, tol, &engine.answer(), &sharded_fleet);
        assert_eq!(serial_verdict, sharded_verdict);
        assert!(sharded_verdict.is_none(), "{name}: tolerance violated: {sharded_verdict:?}");
        // The held-bound ledger (shown above to be the same on every
        // backend) matches the filters the serial fleet carries, and what
        // it is for holds on the shards' own ground truth — `truth` is
        // values only — too: truly inside R = X.
        let p = engine.protocol();
        assert!(p.held_exceptions() > 0, "{name}: the scoped deployment never engaged");
        let ledger_verdict = oracle::rtp_held_bound_violation(p, engine.fleet());
        assert!(ledger_verdict.is_none(), "{name}: {}", ledger_verdict.unwrap());
        for s in sharded_fleet.iter() {
            let inside = space.in_ball(s.value(), p.threshold());
            assert_eq!(inside, p.x_set().contains(&s.id()), "{name}: {} vs R", s.id());
        }
    }
}

#[test]
fn zt_rp_is_shard_invariant() {
    let query = RankQuery::knn(500.0, 6).unwrap();
    assert_shard_invariant("ZT-RP", || ZtRp::new(query).unwrap());
}

#[test]
fn ft_rp_is_shard_invariant_and_oracle_agrees() {
    let k = 8;
    let query = RankQuery::knn(500.0, k).unwrap();
    let tol = FractionTolerance::symmetric(0.25).unwrap();
    let (engine, truth) = assert_shard_invariant("FT-RP", || {
        FtRp::new(query, tol, FtRpConfig::default(), 7).unwrap()
    });
    let sharded_fleet = streamnet::SourceFleet::from_values(&truth);
    let serial_verdict =
        oracle::fraction_rank_violation(query, tol, &engine.answer(), engine.fleet());
    let sharded_verdict =
        oracle::fraction_rank_violation(query, tol, &engine.answer(), &sharded_fleet);
    assert_eq!(serial_verdict, sharded_verdict);
    assert!(sharded_verdict.is_none(), "tolerance violated: {sharded_verdict:?}");
}

#[test]
fn ft_rp_zero_tolerance_reinit_storm_is_shard_invariant() {
    // Zero tolerance makes every boundary crossing a reinitialisation: a
    // `probe_all` plus a fleet-wide `install_many`, mid-drain, each
    // respeculating the suffix past its report.
    let query = RankQuery::knn(500.0, 16).unwrap();
    let tol = FractionTolerance::symmetric(0.0).unwrap();
    let (engine, _) = assert_shard_invariant("FT-RP zero tolerance", || {
        FtRp::new(query, tol, FtRpConfig::default(), 7).unwrap()
    });
    assert!(engine.protocol().reinits() >= 10, "a storm: {}", engine.protocol().reinits());
}

#[test]
fn vt_max_is_shard_invariant() {
    assert_shard_invariant("VT-MAX", || VtMax::new(50.0).unwrap());
}

#[test]
fn telemetry_depth_sweep_is_invisible_to_the_protocol() {
    // RTP on a moving workload exercises respeculation, probe storms, and
    // reinit broadcasts; the outcome must be byte-identical across every
    // trace depth × cause-attribution setting, and the trace export must
    // always be well-formed Chrome trace JSON (empty when tracing is off).
    let (initial, events) = fixture(0xC0FFEE);
    let query = RankQuery::knn(500.0, 5).unwrap();

    let mut engine = Engine::new(&initial, Rtp::new(query, 3).unwrap());
    engine.initialize();
    let mut w = VecWorkload::new(initial.clone(), events.clone());
    engine.run(&mut w);

    for causes in [false, true] {
        for trace in [TraceDepth::Off, TraceDepth::Coarse, TraceDepth::Fine] {
            let config = ServerConfig::with_shards(2).batch_size(64).telemetry(TelemetryConfig {
                causes,
                trace,
                trace_capacity: 1024,
            });
            let mut server = ShardedServer::new(&initial, Rtp::new(query, 3).unwrap(), config);
            server.initialize();
            server.ingest_batch(&events);
            let tag = format!("causes={causes} trace={trace:?}");
            assert_eq!(server.answer(), engine.answer(), "{tag}: answers diverged");
            assert_eq!(server.ledger(), engine.ledger(), "{tag}: ledgers diverged");

            let json = server.export_chrome_trace();
            let n = asf_telemetry::validate_chrome_trace(&json)
                .unwrap_or_else(|e| panic!("{tag}: invalid trace: {e}"));
            if trace == TraceDepth::Off {
                assert_eq!(n, 0, "{tag}: off-depth trace must be empty");
            } else {
                assert!(n > 0, "{tag}: tracing on but no events recorded");
            }
            // Cause attribution follows its switch: the matrix is empty
            // exactly when attribution is disabled.
            assert_eq!(server.causes().grand_total() > 0, causes, "{tag}: cause matrix");
        }
    }
}

#[test]
fn multi_query_plan_sharing_is_shard_invariant() {
    let queries = vec![
        RangeQuery::new(100.0, 300.0).unwrap(),
        RangeQuery::new(200.0, 500.0).unwrap(),
        RangeQuery::new(450.0, 700.0).unwrap(),
        RangeQuery::new(800.0, 900.0).unwrap(),
    ];
    for mode in [CellMode::ServerManaged, CellMode::SourceResident] {
        let qs = queries.clone();
        let (engine, _) = assert_shard_invariant("MULTI-ZT", move || {
            MultiRangeZt::with_mode(qs.clone(), mode).unwrap()
        });
        // Per-query answers stay exact under the sharded runtime (they are
        // byte-identical to the serial protocol, which is exact).
        for (j, q) in queries.iter().enumerate() {
            let truth: asf_core::AnswerSet =
                engine.fleet().iter().filter(|s| q.contains(s.value())).map(|s| s.id()).collect();
            assert_eq!(engine.protocol().answer_of(j), truth, "query {j} inexact");
        }
    }
}

/// A pathological 64-query set: seeded random intervals plus the shapes
/// the routing index must not mishandle — duplicates, nesting, shared and
/// one-ulp-adjacent endpoints, point queries.
fn pathological_queries() -> Vec<RangeQuery> {
    let mut rng = simkit::SimRng::seed_from_u64(0xBAD5E7);
    let mut queries: Vec<RangeQuery> = (0..56)
        .map(|_| {
            let lo = rng.range_f64(0.0, 900.0);
            RangeQuery::new(lo, lo + rng.range_f64(0.0, 250.0)).unwrap()
        })
        .collect();
    queries.extend([
        RangeQuery::new(0.0, 1000.0).unwrap(),
        RangeQuery::new(400.0, 600.0).unwrap(),
        RangeQuery::new(400.0, 600.0).unwrap(), // duplicate
        RangeQuery::new(600.0, 800.0).unwrap(), // shares a bound
        RangeQuery::new(600.0f64.next_up(), 700.0).unwrap(), // one ulp adjacent
        RangeQuery::new(500.0, 500.0).unwrap(), // point
        RangeQuery::new(500.0, 500.0).unwrap(), // duplicate point
        RangeQuery::new(100.0, 100.0).unwrap(),
    ]);
    queries
}

#[test]
fn multi_query_routing_modes_are_shard_invariant_and_interchangeable() {
    use asf_core::multi_query::RoutingMode;
    // The routed index is a pure execution optimization: for every cell
    // mode, both routing modes must pass the full shard/mode/coordinator
    // invariance sweep AND be byte-identical to each other — answers,
    // per-query answers, ledgers, views, and the fan-out count.
    let queries = pathological_queries();
    for mode in [CellMode::ServerManaged, CellMode::SourceResident] {
        let engines: Vec<Engine<MultiRangeZt>> = [RoutingMode::Routed, RoutingMode::NaiveScan]
            .into_iter()
            .map(|routing| {
                let qs = queries.clone();
                let (engine, _) =
                    assert_shard_invariant(&format!("MULTI-ZT {mode:?} {routing:?}"), move || {
                        MultiRangeZt::with_config(qs.clone(), mode, routing).unwrap()
                    });
                engine
            })
            .collect();
        let (routed, naive) = (&engines[0], &engines[1]);
        let tag = format!("{mode:?} routed vs naive");
        assert_eq!(routed.answer(), naive.answer(), "{tag}: union answers diverged");
        assert_eq!(routed.ledger(), naive.ledger(), "{tag}: ledgers diverged");
        let touched = |e: &Engine<MultiRangeZt>| {
            (e.ctx_stats().routed_reports, e.ctx_stats().queries_touched)
        };
        assert_eq!(touched(routed), touched(naive), "{tag}: fan-out counts diverged");
        for j in 0..queries.len() {
            assert_eq!(
                routed.protocol().answer_of(j),
                naive.protocol().answer_of(j),
                "{tag}: query {j} diverged"
            );
        }
        for i in 0..NUM_STREAMS {
            let id = StreamId(i as u32);
            assert_eq!(
                routed.view().is_known(id),
                naive.view().is_known(id),
                "{tag}: view knowledge diverged for {id}"
            );
            if routed.view().is_known(id) {
                assert_eq!(routed.view().get(id), naive.view().get(id), "{tag}: view for {id}");
            }
        }
    }
}

#[test]
fn multi_rank_shared_views_are_shard_invariant() {
    use asf_core::multi_rank::MultiRankZt;
    // The shared-rank protocol: several k-NN queries of different k served
    // from one rank index and one band filter per source. Sweep the full
    // shard/mode/coordinator matrix, then check every per-query view
    // against ground truth (the protocol is zero-tolerance).
    let ks = [1usize, 3, 3, 7, 12];
    let queries: Vec<RankQuery> = ks.iter().map(|&k| RankQuery::knn(500.0, k).unwrap()).collect();
    let qs = queries.clone();
    let (engine, _) =
        assert_shard_invariant("MULTI-ZT-RANK", move || MultiRankZt::new(qs.clone()).unwrap());
    for (j, q) in queries.iter().enumerate() {
        let truth = oracle::true_rank_answer(*q, engine.fleet());
        assert_eq!(engine.protocol().answer_of(j), truth, "rank query {j} (k={}) inexact", q.k());
    }
}
