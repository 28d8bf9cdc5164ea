//! Differential proof that the incremental rank index is byte-identical to
//! a sort of the server's view: every rank protocol runs over a synthetic
//! workload, and after initialization and after every event the engine's
//! [`asf_core::rank::RankForest`] must hold exactly the view's
//! `(key, id)` pairs in [`cmp_key`] order, keys compared bit for bit — the
//! order every rank protocol reads is the one a full re-sort would give.

use asf_core::engine::Engine;
use asf_core::oracle;
use asf_core::protocol::{FtRp, FtRpConfig, NoFilter, Protocol, Rtp, ZtRp};
use asf_core::query::{RankQuery, RankSpace};
use asf_core::rank::cmp_key;
use asf_core::tolerance::{FractionTolerance, RankTolerance};
use asf_core::workload::{UpdateEvent, Workload};
use streamnet::StreamId;
use workloads::{SyntheticConfig, SyntheticWorkload};

/// Collects a synthetic workload into a replayable event list.
fn events_for(n: usize, horizon: f64, sigma: f64, seed: u64) -> (Vec<f64>, Vec<UpdateEvent>) {
    let mut w = SyntheticWorkload::new(SyntheticConfig {
        num_streams: n,
        horizon,
        sigma,
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

/// The engine's rank forest against the reference: the view's
/// `(key, id)` pairs sorted by [`cmp_key`], as `(key bits, id)`.
fn assert_index_is_sorted_view<P: Protocol>(engine: &Engine<P>, space: RankSpace, when: &str) {
    assert!(engine.view().all_known(), "{when}: view partially known");
    let index = engine.rank_index().expect("rank protocols maintain a rank forest");
    let mut sorted: Vec<(f64, StreamId)> =
        engine.view().iter_known().map(|(id, v)| (space.key(v), id)).collect();
    sorted.sort_by(|&a, &b| cmp_key(a, b));
    let bits = |pairs: Vec<(f64, StreamId)>| -> Vec<(u64, StreamId)> {
        pairs.into_iter().map(|(key, id)| (key.to_bits(), id)).collect()
    };
    assert_eq!(bits(index.ordered_pairs()), bits(sorted), "{when}: index differs from sorted view");
}

/// Runs `protocol` through `events` on one engine, checking its rank index
/// against a sort of the view at every quiescent point. Returns the engine
/// for protocol-specific follow-up assertions.
fn run_checked<P: Protocol>(
    initial: &[f64],
    events: &[UpdateEvent],
    protocol: P,
    space: RankSpace,
    label: &str,
) -> Engine<P> {
    let mut engine = Engine::new(initial, protocol);
    engine.initialize();
    assert_index_is_sorted_view(&engine, space, &format!("{label} at init"));
    for (i, ev) in events.iter().enumerate() {
        engine.apply_event(*ev);
        assert_index_is_sorted_view(
            &engine,
            space,
            &format!("{label} at event {i} (t={})", ev.time),
        );
    }
    assert!(engine.reports_processed() > 0, "{label}: workload never reported");
    engine
}

#[test]
fn rtp_indexed_is_byte_identical_to_sorted() {
    for seed in [1u64, 7, 23, 99, 4242] {
        let (initial, events) = events_for(120, 150.0, 30.0, seed);
        let query = RankQuery::knn(500.0, 6).unwrap();
        run_checked(
            &initial,
            &events,
            Rtp::new(query, 4).unwrap(),
            query.space(),
            &format!("RTP knn seed={seed}"),
        );
    }
}

#[test]
fn rtp_topk_with_tight_slack_exercises_expansion_search() {
    // Small population + zero rank slack forces the expansion-search and
    // overflow paths often; the index must still match the sorted view.
    for seed in [3u64, 17, 31] {
        let (initial, events) = events_for(24, 200.0, 60.0, seed);
        let query = RankQuery::top_k(3).unwrap();
        let label = format!("RTP topk seed={seed}");
        let engine =
            run_checked(&initial, &events, Rtp::new(query, 0).unwrap(), query.space(), &label);
        assert!(
            engine.protocol().expansions() > 0,
            "{label}: workload never hit the expansion search"
        );
    }
}

#[test]
fn zt_rp_indexed_is_byte_identical_to_sorted() {
    for seed in [2u64, 11, 77] {
        let (initial, events) = events_for(80, 120.0, 25.0, seed);
        let query = RankQuery::knn(500.0, 5).unwrap();
        run_checked(
            &initial,
            &events,
            ZtRp::new(query).unwrap(),
            query.space(),
            &format!("ZT-RP seed={seed}"),
        );
    }
}

#[test]
fn ft_rp_indexed_is_byte_identical_to_sorted() {
    for seed in [5u64, 13, 101] {
        let (initial, events) = events_for(100, 120.0, 25.0, seed);
        let query = RankQuery::knn(500.0, 12).unwrap();
        let tol = FractionTolerance::symmetric(0.3).unwrap();
        run_checked(
            &initial,
            &events,
            FtRp::new(query, tol, FtRpConfig::default(), seed).unwrap(),
            query.space(),
            &format!("FT-RP seed={seed}"),
        );
    }
}

#[test]
fn no_filter_rank_indexed_is_byte_identical_to_sorted() {
    for (seed, query) in [
        (4u64, RankQuery::knn(500.0, 5).unwrap()),
        (9, RankQuery::top_k(7).unwrap()),
        (15, RankQuery::k_min(4).unwrap()),
    ] {
        let (initial, events) = events_for(60, 100.0, 20.0, seed);
        run_checked(
            &initial,
            &events,
            NoFilter::rank(query),
            query.space(),
            &format!("no-filter {:?} seed={seed}", query.space()),
        );
    }
}

#[test]
fn indexed_and_sorted_oracles_agree_along_a_run() {
    let (initial, events) = events_for(60, 150.0, 30.0, 8);
    let query = RankQuery::knn(500.0, 5).unwrap();
    let tol = RankTolerance::new(5, 3).unwrap();
    let mut engine = Engine::new(&initial, Rtp::new(query, 3).unwrap());
    let mut truth = oracle::TruthRanks::new(query.space(), engine.fleet());
    engine.initialize();
    for ev in &events {
        engine.apply_event(*ev);
        truth.apply(ev);
        let indexed = truth.rank_violation(tol, &engine.answer());
        let sorted = oracle::rank_violation(query, tol, &engine.answer(), engine.fleet());
        assert_eq!(indexed.is_some(), sorted.is_some(), "oracle verdicts diverge at t={}", ev.time);
        assert_eq!(truth.ranking(), oracle::true_ranking(query.space(), engine.fleet()));
    }
}
