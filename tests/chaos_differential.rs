//! Chaos differential suite: the unreliable-fleet tolerance proof.
//!
//! Every protocol runs the same seeded workload twice per fault mix:
//!
//! * a **baseline** run over perfectly reliable channels, and
//! * a **chaos** run where every source↔server frame crosses a seeded
//!   fault-injecting channel (drops, delays, duplicates, reorders,
//!   crash-restarts) until the schedule's fault horizon passes.
//!
//! Both runs resync at the fault-off boundary (the repair path's answer to
//! accumulated channel damage — the baseline performs the identical resync
//! so its ledger pays the same logical messages). The convergence contract:
//! once faults cease and repair quiesces, the chaos run's answers, views,
//! ground truth, and post-resync ledger/report deltas are **byte-identical**
//! to the baseline's — swept per protocol × shard count × fault mix. While
//! faults are active, the tolerance oracle checks rank/fraction/exactness
//! bounds over the verified-live (leased) population, surfacing every dead
//! answer member as a potential violation.
//!
//! The chaos run itself must also be byte-identical across shard counts —
//! fault draws are consumed in the protocol's deterministic consumed-report
//! order, never in backend-dependent order.

use asf_core::multi_query::{CellMode, MultiRangeZt};
use asf_core::oracle;
use asf_core::protocol::{
    FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Protocol, Rtp, VtMax, ZtNrp, ZtRp,
};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::{FractionTolerance, RankTolerance};
use asf_core::workload::{UpdateEvent, Workload};
use asf_core::AnswerSet;
use asf_server::{ServerConfig, ServerMetrics, ShardedServer};
use simkit::FaultMix;
use streamnet::{ChaosConfig, ChaosStats, SourceFleet, StreamId};
use workloads::{SyntheticConfig, SyntheticWorkload};

const NUM_STREAMS: usize = 64;
const BATCH: usize = 128;

fn fixture(seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: NUM_STREAMS,
        horizon: 600.0,
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

/// A protocol-specific tolerance check over the live population:
/// `(answer, truth, is_live) -> violation`.
type LiveCheck = fn(&AnswerSet, &SourceFleet, &dyn Fn(StreamId) -> bool) -> Option<String>;

/// Everything the convergence contract compares, captured at the end of a
/// run (bit-exact encodings, no float comparisons).
#[derive(Debug, PartialEq)]
struct Outcome {
    answer: AnswerSet,
    view: Vec<(bool, u64)>,
    truth: Vec<u64>,
    /// Ledger kind counts accumulated **after** the resync boundary.
    ledger_delta: [u64; 5],
    /// Reports processed after the resync boundary.
    reports_delta: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_one<P: Protocol, F: Fn() -> P>(
    tag: &str,
    initial: &[f64],
    prefix: &[UpdateEvent],
    suffix: &[UpdateEvent],
    make: &F,
    shards: usize,
    chaos: Option<ChaosConfig>,
    live_check: Option<LiveCheck>,
) -> (Outcome, Option<ChaosStats>, [u64; 5], ServerMetrics) {
    let config = ServerConfig::with_shards(shards).batch_size(BATCH);
    let mut server = ShardedServer::new(initial, make(), config);
    server.initialize();
    let faulted = chaos.is_some();
    if let Some(cfg) = chaos {
        server.enable_chaos(cfg);
    }
    // The faulted phase, in slices whose length is a multiple of the batch
    // size (so chunk boundaries — and with them fault draws — are identical
    // to one contiguous ingest). Between slices the server is quiescent and
    // the in-fault oracle checks the leased population.
    for slice in prefix.chunks(8 * BATCH) {
        server.ingest_batch(slice);
        if faulted {
            check_in_fault(tag, &mut server, live_check);
        }
    }
    if let Some(state) = server.chaos() {
        assert!(
            !state.faults_active(),
            "{tag}: fault horizon must pass before the resync boundary"
        );
    }
    // The fault-off boundary: rebuild protocol state from fresh probes.
    // The baseline resyncs identically so both ledgers pay the same
    // logical repair messages.
    server.resync(make());
    if faulted {
        let state = server.chaos().expect("chaos enabled");
        assert_eq!(state.dead_count(), 0, "{tag}: resync probes must revive every source");
        assert_eq!(state.parked_len(), 0, "{tag}: resync must discard in-flight frames");
    }
    let ledger_at_resync = server.ledger().kind_counts();
    let reports_at_resync = server.reports_processed();
    server.ingest_batch(suffix);

    let truth = server.truth_values().iter().map(|v| v.to_bits()).collect();
    let view = (0..NUM_STREAMS)
        .map(|i| {
            let id = StreamId(i as u32);
            let known = server.view().is_known(id);
            (known, if known { server.view().get(id).to_bits() } else { 0 })
        })
        .collect();
    let after = server.ledger().kind_counts();
    let mut ledger_delta = [0u64; 5];
    for k in 0..5 {
        ledger_delta[k] = after[k] - ledger_at_resync[k];
    }
    let outcome = Outcome {
        answer: server.answer(),
        view,
        truth,
        ledger_delta,
        reports_delta: server.reports_processed() - reports_at_resync,
    };
    let stats = server.chaos_stats().copied();
    (outcome, stats, after, server.metrics().clone())
}

/// In-fault oracle: dead sources are never verified, the degraded view
/// forgets them, and the tolerance bound holds over the verified-live
/// population — any violation must be attributable to sources the server
/// has already flagged (dead or unverified), never to a fully-verified
/// population.
fn check_in_fault<P: Protocol>(
    tag: &str,
    server: &mut ShardedServer<P>,
    live_check: Option<LiveCheck>,
) {
    let answer = server.answer();
    let truth = server.truth_fleet();
    let live_view = server.live_view();
    let state = server.chaos().expect("chaos enabled");
    for id in state.dead_ids() {
        assert!(!state.is_verified(id), "{tag}: dead {id} must not be verified");
        assert!(!live_view.is_known(id), "{tag}: dead {id} must be unknown in the live view");
    }
    let verified = state.verified_live_ids();
    let unverified = NUM_STREAMS - verified.len();
    let dead_members = oracle::dead_members(&answer, |id| !state.is_dead(id));
    if state.dead_count() == 0 {
        assert_eq!(dead_members, 0, "{tag}: no dead sources, yet dead answer members");
    }
    if let Some(check) = live_check {
        let is_live = |id: StreamId| state.is_verified(id);
        if let Some(violation) = check(&answer, &truth, &is_live) {
            assert!(
                unverified > 0,
                "{tag}: oracle violated over a fully-verified population: {violation}"
            );
        }
    }
}

/// Runs the full sweep for one protocol: baseline vs chaos per fault mix ×
/// shard count, asserting post-resync convergence and
/// cross-backend identity of the chaos runs themselves. Returns the server
/// metrics of every chaos run, for protocol-specific path checks.
fn assert_chaos_converges<P: Protocol, F: Fn() -> P>(
    name: &str,
    make: F,
    live_check: Option<LiveCheck>,
) -> Vec<(String, ServerMetrics)> {
    let (initial, events) = fixture(0xFA17);
    // The faulted phase ends on a chunk boundary so every run — sliced or
    // contiguous — sees identical chunk ends (= identical repair rounds).
    let split = (events.len() * 2 / 3) / BATCH * BATCH;
    let (prefix, suffix) = events.split_at(split);
    assert!(!suffix.is_empty(), "fixture must leave a post-fault suffix");

    let (baseline, ..) =
        run_one(&format!("{name} baseline"), &initial, prefix, suffix, &make, 1, None, live_check);
    let mut chaos_metrics = Vec::new();

    let horizon = (split / 2) as u64;
    let mixes: [(&str, FaultMix); 3] = [
        ("loss", FaultMix::loss_only(0.1)),
        ("delay+reorder", FaultMix::delay_reorder(0.1)),
        ("crash-restart", FaultMix::crash_restart(0.01)),
    ];
    for (mix_name, mix) in mixes {
        let mut reference: Option<(Outcome, ChaosStats, [u64; 5])> = None;
        for shards in [1usize, 2, 8] {
            let tag = format!("{name} mix={mix_name} shards={shards}");
            let cfg = ChaosConfig::new(0xC4A05, mix, horizon).lease_ticks(512);
            let (outcome, stats, ledger, metrics) =
                run_one(&tag, &initial, prefix, suffix, &make, shards, Some(cfg), live_check);
            let stats = stats.expect("chaos enabled");
            chaos_metrics.push((tag.clone(), metrics));

            // Convergence: byte-identical to the never-faulted run once
            // faults ceased and repair quiesced.
            assert_eq!(outcome.answer, baseline.answer, "{tag}: answers diverged");
            assert_eq!(outcome.view, baseline.view, "{tag}: views diverged");
            assert_eq!(outcome.truth, baseline.truth, "{tag}: ground truth diverged");
            assert_eq!(
                outcome.ledger_delta, baseline.ledger_delta,
                "{tag}: post-resync ledger deltas diverged"
            );
            assert_eq!(
                outcome.reports_delta, baseline.reports_delta,
                "{tag}: post-resync report counts diverged"
            );

            // The fault layer must actually have engaged.
            match mix_name {
                "loss" => assert!(
                    stats.reports_lost + stats.heartbeats_lost > 0,
                    "{tag}: loss mix injected nothing: {stats:?}"
                ),
                // Report-frugal protocols (FT) may expose the delay mix
                // only through duplicated heartbeats/requests, which
                // land in `overhead_frames` beyond the per-round
                // heartbeat baseline.
                "delay+reorder" => assert!(
                    stats.reports_delayed
                        + stats.dup_frames
                        + (stats.overhead_frames - stats.heartbeats_sent)
                        > 0,
                    "{tag}: delay mix injected nothing: {stats:?}"
                ),
                _ => assert!(stats.crashes > 0, "{tag}: crash mix injected nothing: {stats:?}"),
            }

            // Backend invariance of the chaos run itself: fault draws
            // follow the consumed-report order, so the whole run —
            // cumulative ledger included — is identical across shard
            // counts.
            match &reference {
                None => reference = Some((outcome, stats, ledger)),
                Some((ref_outcome, ref_stats, ref_ledger)) => {
                    assert_eq!(&outcome, ref_outcome, "{tag}: chaos outcome backend-dependent");
                    assert_eq!(&stats, ref_stats, "{tag}: chaos stats backend-dependent");
                    assert_eq!(&ledger, ref_ledger, "{tag}: chaos ledger backend-dependent");
                }
            }
        }
    }
    chaos_metrics
}

fn live_range_exact(
    answer: &AnswerSet,
    truth: &SourceFleet,
    is_live: &dyn Fn(StreamId) -> bool,
) -> Option<String> {
    oracle::live_range_exact_violation(
        RangeQuery::new(400.0, 600.0).unwrap(),
        answer,
        truth,
        is_live,
    )
}

#[test]
fn no_filter_converges_under_chaos() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    assert_chaos_converges(
        "no-filter/range",
        move || NoFilter::range(query),
        Some(live_range_exact),
    );
}

#[test]
fn zt_nrp_converges_under_chaos() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    assert_chaos_converges("ZT-NRP", move || ZtNrp::new(query), Some(live_range_exact));
}

#[test]
fn ft_nrp_converges_under_chaos() {
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::new(0.25, 0.25).unwrap();
    fn check(
        answer: &AnswerSet,
        truth: &SourceFleet,
        is_live: &dyn Fn(StreamId) -> bool,
    ) -> Option<String> {
        oracle::live_fraction_range_violation(
            RangeQuery::new(400.0, 600.0).unwrap(),
            FractionTolerance::new(0.25, 0.25).unwrap(),
            answer,
            truth,
            is_live,
        )
    }
    assert_chaos_converges(
        "FT-NRP",
        move || FtNrp::new(query, tol, FtNrpConfig::default(), 42).unwrap(),
        Some(check),
    );
}

#[test]
fn rtp_converges_under_chaos() {
    let (k, r) = (5usize, 3usize);
    let query = RankQuery::knn(500.0, k).unwrap();
    fn check(
        answer: &AnswerSet,
        truth: &SourceFleet,
        is_live: &dyn Fn(StreamId) -> bool,
    ) -> Option<String> {
        oracle::live_rank_violation(
            RankQuery::knn(500.0, 5).unwrap(),
            RankTolerance::new(5, 3).unwrap(),
            answer,
            truth,
            is_live,
        )
    }
    assert_chaos_converges("RTP", move || Rtp::new(query, r).unwrap(), Some(check));
}

#[test]
fn zt_rp_converges_under_chaos() {
    let query = RankQuery::knn(500.0, 6).unwrap();
    fn check(
        answer: &AnswerSet,
        truth: &SourceFleet,
        is_live: &dyn Fn(StreamId) -> bool,
    ) -> Option<String> {
        oracle::live_rank_violation(
            RankQuery::knn(500.0, 6).unwrap(),
            RankTolerance::new(6, 0).unwrap(),
            answer,
            truth,
            is_live,
        )
    }
    assert_chaos_converges("ZT-RP", move || ZtRp::new(query).unwrap(), Some(check));
}

#[test]
fn ft_rp_converges_under_chaos() {
    let k = 8;
    let query = RankQuery::knn(500.0, k).unwrap();
    let tol = FractionTolerance::symmetric(0.25).unwrap();
    assert_chaos_converges(
        "FT-RP",
        move || FtRp::new(query, tol, FtRpConfig::default(), 7).unwrap(),
        None,
    );
}

#[test]
fn vt_max_converges_under_chaos() {
    assert_chaos_converges("VT-MAX", || VtMax::new(50.0).unwrap(), None);
}

#[test]
fn multi_query_converges_under_chaos() {
    let queries = vec![
        RangeQuery::new(100.0, 300.0).unwrap(),
        RangeQuery::new(200.0, 500.0).unwrap(),
        RangeQuery::new(450.0, 700.0).unwrap(),
        RangeQuery::new(800.0, 900.0).unwrap(),
    ];
    assert_chaos_converges(
        "MULTI-ZT",
        move || MultiRangeZt::with_mode(queries.clone(), CellMode::ServerManaged).unwrap(),
        None,
    );
}

#[test]
fn dense_multi_query_takes_scoped_touches_under_chaos() {
    // 100 narrow server-managed queries: nearly every event reports and
    // re-installs at its reporter, through `ChaosFleet` wrapping the
    // `GuardedRouter`. Lost and delayed report frames leave sources
    // inconsistent with the view, so installs sync-report mid-handler —
    // on a stream with no speculated successor and on a colliding one
    // that respeculates alike, the whole convergence contract must hold.
    let queries: Vec<RangeQuery> = (0..100)
        .map(|j| RangeQuery::new(j as f64 * 10.0, j as f64 * 10.0 + 10.0).unwrap())
        .collect();
    let runs = assert_chaos_converges(
        "MULTI-ZT-DENSE",
        move || MultiRangeZt::with_mode(queries.clone(), CellMode::ServerManaged).unwrap(),
        None,
    );
    for (tag, m) in &runs {
        assert!(m.scoped_touches > 0, "{tag}: scoped path never taken");
        assert!(m.respeculated > 0, "{tag}: collisions never respeculated");
    }
}

#[test]
fn routed_multi_query_fleet_converges_under_chaos() {
    // The fleet-scale tentpole under fire: 1024 routed queries sharing one
    // cell structure keep the whole convergence contract byte-for-byte.
    // The query set mixes seeded random intervals with the pathological
    // shapes the routing property suite hammers — duplicates, full-domain
    // nesting, shared endpoints, and point queries.
    let mut rng = simkit::SimRng::seed_from_u64(0xF1EE7);
    let mut queries: Vec<RangeQuery> = (0..1018)
        .map(|_| {
            let lo = rng.range_f64(0.0, 950.0);
            RangeQuery::new(lo, lo + rng.range_f64(0.0, 120.0)).unwrap()
        })
        .collect();
    queries.extend([
        RangeQuery::new(0.0, 1000.0).unwrap(),  // contains everything
        RangeQuery::new(400.0, 600.0).unwrap(), // nested mid-band
        RangeQuery::new(400.0, 600.0).unwrap(), // exact duplicate
        RangeQuery::new(600.0, 800.0).unwrap(), // shares a bound
        RangeQuery::new(500.0, 500.0).unwrap(), // point query
        RangeQuery::new(500.0f64.next_up(), 501.0).unwrap(), // one ulp above the point
    ]);
    assert_eq!(queries.len(), 1024);
    assert_chaos_converges(
        "MULTI-ZT-1K",
        move || MultiRangeZt::with_mode(queries.clone(), CellMode::ServerManaged).unwrap(),
        None,
    );
}
