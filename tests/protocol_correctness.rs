//! Cross-crate integration tests: every protocol's tolerance guarantee is
//! checked against ground truth at **every quiescent point** of a real
//! workload (the paper's Correctness Requirement 1), via the oracle.

use asf_core::engine::Engine;
use asf_core::oracle;
use asf_core::protocol::{
    FtNrp, FtNrpConfig, FtRp, FtRpConfig, NoFilter, Protocol, Rtp, SelectionHeuristic, ZtNrp, ZtRp,
};
use asf_core::query::{RangeQuery, RankQuery};
use asf_core::tolerance::{FractionTolerance, RankTolerance};
use asf_core::workload::Workload;
use workloads::{SyntheticConfig, SyntheticWorkload, TcpLikeConfig, TcpLikeWorkload};

fn synthetic(n: usize, horizon: f64, sigma: f64, seed: u64) -> SyntheticWorkload {
    SyntheticWorkload::new(SyntheticConfig {
        num_streams: n,
        horizon,
        sigma,
        seed,
        ..Default::default()
    })
}

#[test]
fn no_filter_range_is_always_exact() {
    let mut w = synthetic(50, 300.0, 20.0, 1);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let mut engine = Engine::new(&w.initial_values(), NoFilter::range(query));
    engine.run_with_hook(&mut w, |fleet, protocol, t| {
        let truth = oracle::true_range_answer(query, fleet);
        assert_eq!(protocol.answer(), truth, "at t={t}");
    });
}

#[test]
fn no_filter_rank_is_always_exact() {
    let mut w = synthetic(50, 300.0, 20.0, 2);
    let query = RankQuery::knn(500.0, 5).unwrap();
    let mut engine = Engine::new(&w.initial_values(), NoFilter::rank(query));
    // Incremental ground truth: O(log n) per event instead of a re-sort.
    let mut truth = oracle::TruthRanks::new(query.space(), engine.fleet());
    engine.run_with_event_hook(&mut w, |fleet, protocol, t, ev| {
        if let Some(ev) = ev {
            truth.apply(ev);
        }
        assert_eq!(protocol.answer(), truth.true_answer(query.k()), "at t={t}");
        assert_eq!(truth.true_answer(query.k()), oracle::true_rank_answer(query, fleet));
    });
}

#[test]
fn zt_nrp_is_always_exact() {
    let mut w = synthetic(60, 400.0, 30.0, 3);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let mut engine = Engine::new(&w.initial_values(), ZtNrp::new(query));
    engine.run_with_hook(&mut w, |fleet, protocol, t| {
        let truth = oracle::true_range_answer(query, fleet);
        assert_eq!(protocol.answer(), truth, "at t={t}");
    });
}

#[test]
fn zt_rp_is_always_exact() {
    let mut w = synthetic(60, 200.0, 20.0, 4);
    let query = RankQuery::knn(500.0, 4).unwrap();
    let mut engine = Engine::new(&w.initial_values(), ZtRp::new(query).unwrap());
    let mut truth = oracle::TruthRanks::new(query.space(), engine.fleet());
    engine.run_with_event_hook(&mut w, |_, protocol, t, ev| {
        if let Some(ev) = ev {
            truth.apply(ev);
        }
        assert_eq!(protocol.answer(), truth.true_answer(query.k()), "at t={t}");
    });
}

#[test]
fn rtp_rank_tolerance_holds_at_every_quiescent_point() {
    let knn = |k| RankQuery::knn(500.0, k).unwrap();
    for (query, r, seed) in [
        (knn(5), 3usize, 10u64),
        (knn(3), 0, 11),
        (knn(8), 5, 12),
        (knn(4), 10, 13),
        (RankQuery::k_min(5).unwrap(), 3, 14),
        (RankQuery::top_k(3).unwrap(), 1, 15),
    ] {
        let k = query.k();
        let mut w = synthetic(60, 250.0, 25.0, seed);
        let tol = RankTolerance::new(k, r).unwrap();
        let mut engine = Engine::new(&w.initial_values(), Rtp::new(query, r).unwrap());
        let mut truth = oracle::TruthRanks::new(query.space(), engine.fleet());
        engine.run_with_event_hook(&mut w, |fleet, protocol, t, ev| {
            if let Some(ev) = ev {
                truth.apply(ev);
            }
            let v = truth.rank_violation(tol, &protocol.answer());
            // The indexed and sort-based oracles must agree.
            let v_sorted = oracle::rank_violation(query, tol, &protocol.answer(), fleet);
            assert_eq!(v.is_some(), v_sorted.is_some(), "oracle paths disagree at t={t}");
            assert!(v.is_none(), "{query:?} r={r} seed={seed} t={t}: {}", v.unwrap());
            let v = oracle::rtp_held_bound_violation(protocol, fleet);
            assert!(v.is_none(), "{query:?} r={r} seed={seed} t={t}: {}", v.unwrap());
        });
    }
}

#[test]
fn rtp_rank_tolerance_holds_for_topk_on_tcp_like() {
    let cfg = TcpLikeConfig { subnets: 80, total_events: 3_000, seed: 5, ..Default::default() };
    let mut w = TcpLikeWorkload::new(cfg);
    let (k, r) = (10usize, 4usize);
    let query = RankQuery::top_k(k).unwrap();
    let tol = RankTolerance::new(k, r).unwrap();
    let mut engine = Engine::new(&w.initial_values(), Rtp::new(query, r).unwrap());
    let mut truth = oracle::TruthRanks::new(query.space(), engine.fleet());
    engine.run_with_event_hook(&mut w, |fleet, protocol, t, ev| {
        if let Some(ev) = ev {
            truth.apply(ev);
        }
        let v = truth.rank_violation(tol, &protocol.answer());
        assert!(v.is_none(), "t={t}: {}", v.unwrap());
        let v = oracle::rtp_held_bound_violation(protocol, fleet);
        assert!(v.is_none(), "t={t}: {}", v.unwrap());
    });
}

#[test]
fn ft_nrp_fraction_tolerance_holds_at_every_quiescent_point() {
    for heuristic in [SelectionHeuristic::Random, SelectionHeuristic::BoundaryNearest] {
        for (ep, em, seed) in
            [(0.2, 0.2, 20u64), (0.5, 0.5, 21), (0.1, 0.4, 22), (0.4, 0.1, 23), (0.0, 0.0, 24)]
        {
            let mut w = synthetic(60, 250.0, 25.0, seed);
            let query = RangeQuery::new(400.0, 600.0).unwrap();
            let tol = FractionTolerance::new(ep, em).unwrap();
            let config = FtNrpConfig { heuristic, reinit_on_exhaustion: false };
            let protocol = FtNrp::new(query, tol, config, seed).unwrap();
            let mut engine = Engine::new(&w.initial_values(), protocol);
            engine.run_with_hook(&mut w, |fleet, protocol, t| {
                let v = oracle::fraction_range_violation(query, tol, &protocol.answer(), fleet);
                assert!(
                    v.is_none(),
                    "eps=({ep},{em}) seed={seed} {heuristic:?} t={t}: {}",
                    v.unwrap()
                );
            });
        }
    }
}

#[test]
fn ft_nrp_with_reinit_keeps_the_guarantee() {
    let mut w = synthetic(60, 400.0, 30.0, 30);
    let query = RangeQuery::new(400.0, 600.0).unwrap();
    let tol = FractionTolerance::symmetric(0.3).unwrap();
    let config =
        FtNrpConfig { heuristic: SelectionHeuristic::BoundaryNearest, reinit_on_exhaustion: true };
    let protocol = FtNrp::new(query, tol, config, 30).unwrap();
    let mut engine = Engine::new(&w.initial_values(), protocol);
    engine.run_with_hook(&mut w, |fleet, protocol, t| {
        let v = oracle::fraction_range_violation(query, tol, &protocol.answer(), fleet);
        assert!(v.is_none(), "t={t}: {}", v.unwrap());
    });
}

#[test]
fn ft_rp_fraction_tolerance_holds_at_every_quiescent_point() {
    for (k, eps, seed) in [(10usize, 0.3, 40u64), (20, 0.2, 41), (10, 0.5, 42), (15, 0.4, 43)] {
        let mut w = synthetic(80, 200.0, 20.0, seed);
        let query = RankQuery::knn(500.0, k).unwrap();
        let tol = FractionTolerance::symmetric(eps).unwrap();
        let protocol = FtRp::new(query, tol, FtRpConfig::default(), seed).unwrap();
        let mut engine = Engine::new(&w.initial_values(), protocol);
        engine.run_with_hook(&mut w, |fleet, protocol, t| {
            let v = oracle::fraction_rank_violation(query, tol, &protocol.answer(), fleet);
            assert!(v.is_none(), "k={k} eps={eps} seed={seed} t={t}: {}", v.unwrap());
        });
    }
}

#[test]
fn ft_rp_answer_size_stays_in_the_equations_7_and_9_window() {
    let (k, eps) = (12usize, 0.25);
    let mut w = synthetic(80, 250.0, 25.0, 50);
    let query = RankQuery::knn(500.0, k).unwrap();
    let tol = FractionTolerance::symmetric(eps).unwrap();
    let protocol = FtRp::new(query, tol, FtRpConfig::default(), 50).unwrap();
    let mut engine = Engine::new(&w.initial_values(), protocol);
    let lo = tol.min_answer_size(k);
    let hi = tol.max_answer_size(k);
    engine.run_with_hook(&mut w, |_, protocol, t| {
        let sz = protocol.answer().len() as f64;
        assert!(sz >= lo - 1e-9 && sz <= hi + 1e-9, "|A| = {sz} outside [{lo}, {hi}] at t={t}");
        // Equations 8 and 10: the absolute bounds k/2 and 2k.
        assert!(sz >= k as f64 / 2.0 - 1e-9 && sz <= 2.0 * k as f64 + 1e-9);
    });
}
