//! Randomized property tests on the core invariants: filter semantics,
//! rank math, Equation-16 admissibility, and — most importantly — the
//! tolerance guarantees of the protocols under random workloads, checked by
//! the oracle at every quiescent point.
//!
//! Cases are generated from a fixed-seed [`SimRng`] (no external
//! property-testing dependency), so every run explores exactly the same
//! case set and failures are reproducible from the printed case seed.

use asf_core::engine::Engine;
use asf_core::oracle;
use asf_core::protocol::{FtNrp, FtNrpConfig, FtRp, FtRpConfig, Protocol, Rtp, SelectionHeuristic};
use asf_core::query::{RangeQuery, RankQuery, RankSpace};
use asf_core::rank::{midpoint_threshold, rank_values};
use asf_core::tolerance::{derive_rho, FractionTolerance, RankTolerance, RhoPolicy};
use asf_core::workload::Workload;
use simkit::{reflect_into, SimRng};
use streamnet::{Filter, StreamId};
use workloads::{SyntheticConfig, SyntheticWorkload};

/// Runs `case` for `n` seeded random cases.
fn cases(n: usize, mut case: impl FnMut(&mut SimRng)) {
    let mut rng = SimRng::seed_from_u64(0xA5F_14F0);
    for _ in 0..n {
        case(&mut rng);
    }
}

/// A filter violation happens iff interval membership changed.
#[test]
fn filter_violation_iff_membership_changed() {
    cases(256, |rng| {
        let lo = rng.range_f64(-1000.0, 1000.0);
        let width = rng.range_f64(0.0_f64.next_up(), 500.0);
        let prev = rng.range_f64(-2000.0, 2000.0);
        let cur = rng.range_f64(-2000.0, 2000.0);
        let f = Filter::interval(lo, lo + width);
        assert_eq!(f.violated(prev, cur), f.contains(prev) != f.contains(cur));
        // Symmetry: crossing in either direction is a violation.
        assert_eq!(f.violated(prev, cur), f.violated(cur, prev));
    });
}

/// Reflection always lands inside the interval and is idempotent for
/// interior points.
#[test]
fn reflection_stays_inside() {
    cases(256, |rng| {
        let v = rng.range_f64(-1e6, 1e6);
        let lo = rng.range_f64(-100.0, 100.0);
        let hi = lo + rng.range_f64(1.0, 500.0);
        let r = reflect_into(v, lo, hi);
        assert!(r >= lo && r <= hi, "reflect_into({v}, {lo}, {hi}) = {r} escaped");
        // Idempotent up to float round-off (the periodic fold of a distant
        // value can carry ~1 ulp of modulo dust).
        let r2 = reflect_into(r, lo, hi);
        assert!((r2 - r).abs() <= 1e-9 * (1.0 + r.abs()));
    });
}

/// `midpoint_threshold(m)` splits any value multiset into exactly `m`
/// inside and the rest outside (absent key ties).
#[test]
fn midpoint_separates_ranks() {
    cases(256, |rng| {
        let len = 3 + rng.index(37);
        let q = rng.range_f64(-500.0, 500.0);
        let space = RankSpace::Knn { q };
        let mut keyed: Vec<f64> =
            (0..len).map(|_| space.key(rng.range_f64(-1000.0, 1000.0))).collect();
        keyed.sort_by(|a, b| a.partial_cmp(b).unwrap());
        keyed.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        if keyed.len() < 3 {
            return;
        }
        let m = 1 + rng.index(keyed.len() - 1);

        // Rebuild values having unique keys.
        let vals: Vec<(StreamId, f64)> =
            keyed.iter().enumerate().map(|(i, &k)| (StreamId(i as u32), q + k)).collect();
        let d = midpoint_threshold(space, vals.clone(), m);
        let inside = vals.iter().filter(|&&(_, v)| space.in_ball(v, d)).count();
        assert_eq!(inside, m);
    });
}

/// Ranking is a permutation and respects key order.
#[test]
fn ranking_is_a_sorted_permutation() {
    cases(256, |rng| {
        let len = 1 + rng.index(59);
        let q = rng.range_f64(-500.0, 500.0);
        let values: Vec<f64> = (0..len).map(|_| rng.range_f64(-1000.0, 1000.0)).collect();
        let space = RankSpace::Knn { q };
        let pairs: Vec<(StreamId, f64)> =
            values.iter().enumerate().map(|(i, &v)| (StreamId(i as u32), v)).collect();
        let order = rank_values(space, pairs.clone());
        assert_eq!(order.len(), values.len());
        let mut seen: Vec<u32> = order.iter().map(|s| s.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..values.len() as u32).collect::<Vec<_>>());
        for w in order.windows(2) {
            let ka = space.key(values[w[0].index()]);
            let kb = space.key(values[w[1].index()]);
            assert!(ka < kb || (ka == kb && w[0] < w[1]));
        }
    });
}

/// Every rho policy yields an admissible pair (Equation 15 slack >= 0)
/// that is itself a valid tolerance.
#[test]
fn rho_pairs_are_admissible() {
    cases(256, |rng| {
        let ep = rng.range_f64(0.0, 0.5);
        let em = rng.range_f64(0.0, 0.5);
        let tol = FractionTolerance::new(ep, em).unwrap();
        for policy in [RhoPolicy::Balanced, RhoPolicy::MaxPositive, RhoPolicy::MaxNegative] {
            let pair = derive_rho(&tol, policy).unwrap();
            assert!(pair.equation_15_slack(&tol) >= -1e-12);
            assert!(pair.rho_plus >= 0.0 && pair.rho_minus >= 0.0);
            assert!(FractionTolerance::new(pair.rho_plus, pair.rho_minus).is_ok());
        }
    });
}

/// A `Filter::Cells` cut table is violated exactly when the value's
/// membership signature over the originating queries changes.
#[test]
fn cells_filter_matches_query_signatures() {
    cases(256, |rng| {
        let m = 1 + rng.index(5);
        let queries: Vec<RangeQuery> = (0..m)
            .map(|_| {
                let lo = rng.range_f64(0.0, 900.0);
                RangeQuery::new(lo, lo + rng.range_f64(1.0, 100.0)).unwrap()
            })
            .collect();
        let a = rng.range_f64(-100.0, 1100.0);
        let b = rng.range_f64(-100.0, 1100.0);
        let mut cuts: Vec<f64> = queries.iter().flat_map(|q| [q.lo(), q.hi().next_up()]).collect();
        cuts.sort_by(|x, y| x.partial_cmp(y).unwrap());
        cuts.dedup();
        let filter = Filter::cells(cuts.into());
        let signature = |v: f64| queries.iter().map(|q| q.contains(v)).collect::<Vec<bool>>();
        // Completeness: a signature change is never missed. (The converse
        // does not hold: jumping clean across a band changes cells without
        // changing membership — a harmless extra report.)
        if signature(a) != signature(b) {
            assert!(filter.violated(a, b));
        }
    });
}

/// VT-MAX keeps its value guarantee (answer >= true max - eps) at every
/// quiescent point, whatever eps.
#[test]
fn vt_max_value_guarantee_holds() {
    cases(64, |rng| {
        let seed = rng.next_u64() % 10_000;
        let eps = rng.range_f64(0.0, 500.0);
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: 30,
            horizon: 100.0,
            seed,
            ..Default::default()
        });
        let protocol = asf_core::protocol::VtMax::new(eps).unwrap();
        let mut engine = Engine::new(&w.initial_values(), protocol);
        let mut violated: Option<String> = None;
        engine.run_with_hook(&mut w, |fleet, protocol, t| {
            if violated.is_some() {
                return;
            }
            let answer = protocol.answer().iter().next().expect("answer never empty");
            let answer_value = fleet.true_value(answer);
            let true_max = fleet.iter().map(|s| s.value()).fold(f64::NEG_INFINITY, f64::max);
            if answer_value < true_max - eps - 1e-9 {
                violated =
                    Some(format!("t={t}: answer {answer_value} < max {true_max} - eps {eps}"));
            }
        });
        assert!(violated.is_none(), "seed={}: {}", seed, violated.unwrap());
    });
}

/// RTP over the projected distance `|p − q|` keeps Definition 1 on random
/// planar walks.
#[test]
fn rtp2d_never_violates_rank_tolerance() {
    use asf_core::multidim::{oracle2d, Point2, Projection};
    use workloads::{Walk2dConfig, Walk2dWorkload};

    cases(24, |rng| {
        let seed = rng.next_u64() % 10_000;
        let k = 2 + rng.index(4);
        let r = rng.index(4);
        let q = Point2::new(500.0, 500.0);
        let config = Walk2dConfig { num_objects: 30, horizon: 80.0, seed, ..Default::default() };
        let mut w = Walk2dWorkload::new(config, Projection::distance_to(q).unwrap());
        let tol = RankTolerance::new(k, r).unwrap();
        let rtp = Rtp::new(RankQuery::k_min(k).unwrap(), r).unwrap();
        let mut engine = Engine::new(&w.initial_values(), rtp);
        engine.initialize();
        let mut violation = oracle2d::rank_violation_2d(q, tol, &engine.answer(), w.positions());
        while violation.is_none() {
            let Some(ev) = w.next_event() else { break };
            engine.apply_event(ev);
            violation = oracle2d::rank_violation_2d(q, tol, &engine.answer(), w.positions());
        }
        assert!(violation.is_none(), "seed={seed} k={k} r={r}: {}", violation.unwrap());
    });
}

/// Shared-cell multi-query answers always match per-query ground truth.
#[test]
fn multi_query_is_always_exact() {
    use asf_core::multi_query::{CellMode, MultiRangeZt};

    cases(24, |rng| {
        let seed = rng.next_u64() % 10_000;
        let m = 1 + rng.index(4);
        let queries: Vec<RangeQuery> = (0..m)
            .map(|_| {
                let lo = rng.range_f64(0.0, 800.0);
                RangeQuery::new(lo, lo + rng.range_f64(20.0, 250.0)).unwrap()
            })
            .collect();
        let mode =
            if rng.index(2) == 0 { CellMode::SourceResident } else { CellMode::ServerManaged };
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: 30,
            horizon: 100.0,
            seed,
            ..Default::default()
        });
        let qs = queries.clone();
        let p = MultiRangeZt::with_mode(queries, mode).unwrap();
        let mut engine = Engine::new(&w.initial_values(), p);
        let mut failure: Option<String> = None;
        engine.run_with_hook(&mut w, |fleet, protocol, t| {
            if failure.is_some() {
                return;
            }
            for (j, q) in qs.iter().enumerate() {
                let truth: asf_core::AnswerSet =
                    fleet.iter().filter(|s| q.contains(s.value())).map(|s| s.id()).collect();
                if protocol.answer_of(j) != truth {
                    failure = Some(format!("query {j} diverged at t={t}"));
                    return;
                }
            }
        });
        assert!(failure.is_none(), "seed={seed}: {}", failure.unwrap());
    });
}

/// RTP keeps Definition 1 — and the held-bound ledger it rests on — at
/// every quiescent point on random walks, in every rank space.
#[test]
fn rtp_never_violates_rank_tolerance() {
    let mut case_no = 0;
    cases(24, |rng| {
        let seed = rng.next_u64() % 10_000;
        let k = 2 + rng.index(6);
        let r = rng.index(6);
        let sigma = rng.range_f64(5.0, 60.0);
        case_no += 1;
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: 40,
            horizon: 120.0,
            sigma,
            seed,
            ..Default::default()
        });
        let query = match case_no % 3 {
            0 => RankQuery::top_k(k),
            1 => RankQuery::knn(500.0, k),
            _ => RankQuery::k_min(k),
        }
        .unwrap();
        let tol = RankTolerance::new(k, r).unwrap();
        let mut engine = Engine::new(&w.initial_values(), Rtp::new(query, r).unwrap());
        // O(k log n) per quiescent point via the maintained truth index.
        let mut truth = oracle::TruthRanks::new(query.space(), engine.fleet());
        let mut violation: Option<String> = None;
        engine.run_with_event_hook(&mut w, |fleet, protocol, _, ev| {
            if let Some(ev) = ev {
                truth.apply(ev);
            }
            if violation.is_none() {
                violation = truth
                    .rank_violation(tol, &protocol.answer())
                    .or_else(|| oracle::rtp_held_bound_violation(protocol, fleet));
            }
        });
        assert!(violation.is_none(), "seed={seed} {query:?} r={r}: {}", violation.unwrap());
    });
}

/// FT-NRP keeps Definition 3 at every quiescent point on random walks.
#[test]
fn ft_nrp_never_violates_fraction_tolerance() {
    cases(24, |rng| {
        let seed = rng.next_u64() % 10_000;
        let ep = rng.range_f64(0.0, 0.5);
        let em = rng.range_f64(0.0, 0.5);
        let sigma = rng.range_f64(5.0, 60.0);
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: 40,
            horizon: 120.0,
            sigma,
            seed,
            ..Default::default()
        });
        let query = RangeQuery::new(400.0, 600.0).unwrap();
        let tol = FractionTolerance::new(ep, em).unwrap();
        let heuristic = if rng.index(2) == 0 {
            SelectionHeuristic::BoundaryNearest
        } else {
            SelectionHeuristic::Random
        };
        let config = FtNrpConfig { heuristic, reinit_on_exhaustion: false };
        let protocol = FtNrp::new(query, tol, config, seed).unwrap();
        let mut engine = Engine::new(&w.initial_values(), protocol);
        let mut violation: Option<String> = None;
        engine.run_with_hook(&mut w, |fleet, protocol, _| {
            if violation.is_none() {
                violation = oracle::fraction_range_violation(query, tol, &protocol.answer(), fleet);
            }
        });
        assert!(violation.is_none(), "seed={seed} eps=({ep},{em}): {}", violation.unwrap());
    });
}

/// FT-RP keeps Definition 3 for k-NN at every quiescent point.
#[test]
fn ft_rp_never_violates_fraction_tolerance() {
    cases(24, |rng| {
        let seed = rng.next_u64() % 10_000;
        let k = 5 + rng.index(10);
        let eps = rng.range_f64(0.0, 0.5);
        let mut w = SyntheticWorkload::new(SyntheticConfig {
            num_streams: 50,
            horizon: 80.0,
            seed,
            ..Default::default()
        });
        let query = RankQuery::knn(500.0, k).unwrap();
        let tol = FractionTolerance::symmetric(eps).unwrap();
        let protocol = FtRp::new(query, tol, FtRpConfig::default(), seed).unwrap();
        let mut engine = Engine::new(&w.initial_values(), protocol);
        let mut violation: Option<String> = None;
        engine.run_with_hook(&mut w, |fleet, protocol, _| {
            if violation.is_none() {
                violation = oracle::fraction_rank_violation(query, tol, &protocol.answer(), fleet);
            }
        });
        assert!(violation.is_none(), "seed={seed} k={k} eps={eps}: {}", violation.unwrap());
    });
}
