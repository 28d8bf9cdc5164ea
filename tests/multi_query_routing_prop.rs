//! Property tests for the multi-query routing layer.
//!
//! The [`QueryRouter`] claims that for a value transition `old -> new`
//! the set of affected queries — those whose membership of the reporting
//! stream changes — is the symmetric difference of the containing-query
//! lists of the two values' elementary cells, since every query is a union
//! of whole cells. Every test here pits that structure against the obvious
//! O(m) contains-diff scan over adversarial query sets — shared endpoints,
//! nested and identical intervals, point queries, `next_up`-adjacent bounds
//! and the edges of the value domain (signed zeros, `f64::MAX` bounds,
//! infinite transitions). `MultiRangeZt`'s answers, which are the
//! population partitioned by those cells, are checked against ground truth
//! at the same edges.
//!
//! The shared rank-view machinery rides along: `RankForest::rank_of` /
//! `count_before` (the per-query view primitives over one shared
//! population index) are checked against the sorted ground truth.

use asf_core::engine::Engine;
use asf_core::multi_query::{MultiRangeZt, QueryRouter};
use asf_core::oracle;
use asf_core::protocol::Protocol;
use asf_core::query::{RangeQuery, RankSpace};
use asf_core::rank::{cmp_key, RankForest};
use asf_core::workload::UpdateEvent;
use asf_core::AnswerSet;
use asf_persist::{StateReader, StateWriter};
use simkit::SimRng;
use streamnet::StreamId;

/// The specification: membership diff by direct evaluation, O(m).
fn naive_affected(queries: &[RangeQuery], old: f64, new: f64) -> Vec<u32> {
    queries
        .iter()
        .enumerate()
        .filter(|(_, q)| q.contains(old) != q.contains(new))
        .map(|(j, _)| j as u32)
        .collect()
}

fn assert_router_matches(queries: &[RangeQuery], transitions: &[(f64, f64)], tag: &str) {
    let mut router = QueryRouter::new(queries);
    let mut out = Vec::new();
    for &(old, new) in transitions {
        router.affected(old, new, &mut out);
        assert_eq!(
            out,
            naive_affected(queries, old, new),
            "{tag}: routed set diverged on {old} -> {new}"
        );
    }
}

/// Dense transition probes around every query endpoint: the exact bound,
/// one ulp either side, and far outside — both directions.
fn boundary_transitions(queries: &[RangeQuery]) -> Vec<(f64, f64)> {
    let mut points: Vec<f64> = vec![f64::NEG_INFINITY, -1e9, 0.0, 500.0, 1e9];
    for q in queries {
        for b in [q.lo(), q.hi()] {
            points.extend([b.next_down(), b, b.next_up()]);
        }
    }
    let mut out = Vec::new();
    for &a in &points {
        for &b in &points {
            out.push((a, b));
        }
    }
    out
}

#[test]
fn router_matches_naive_scan_on_random_query_sets() {
    let mut rng = SimRng::seed_from_u64(0x5EED_CAFE);
    for case in 0..60 {
        let m = 1 + rng.index(64);
        let queries: Vec<RangeQuery> = (0..m)
            .map(|_| {
                let lo = rng.range_f64(0.0, 900.0);
                let width = rng.range_f64(0.0, 300.0);
                RangeQuery::new(lo, lo + width).unwrap()
            })
            .collect();
        let transitions: Vec<(f64, f64)> = (0..200)
            .map(|_| (rng.range_f64(-100.0, 1100.0), rng.range_f64(-100.0, 1100.0)))
            .collect();
        assert_router_matches(&queries, &transitions, &format!("random case {case}"));
    }
}

#[test]
fn router_handles_shared_and_adjacent_endpoints() {
    // Chains sharing bounds exactly, u_i == l_j adjacency, and bounds one
    // ulp apart — the cut-construction edge cases.
    let queries = vec![
        RangeQuery::new(100.0, 200.0).unwrap(),
        RangeQuery::new(200.0, 300.0).unwrap(), // l == previous u
        RangeQuery::new(100.0, 300.0).unwrap(), // shares both outer bounds
        RangeQuery::new(200.0f64.next_up(), 250.0).unwrap(), // opens one ulp above
        RangeQuery::new(100.0, 200.0f64.next_down().next_down()).unwrap(),
        RangeQuery::new(100.0, 200.0).unwrap(), // exact duplicate
    ];
    assert_router_matches(&queries, &boundary_transitions(&queries), "shared endpoints");
}

#[test]
fn router_handles_nested_identical_and_point_queries() {
    let queries = vec![
        RangeQuery::new(0.0, 1000.0).unwrap(),
        RangeQuery::new(400.0, 600.0).unwrap(), // nested
        RangeQuery::new(499.0, 501.0).unwrap(), // deeper nest
        RangeQuery::new(500.0, 500.0).unwrap(), // point query
        RangeQuery::new(500.0, 500.0).unwrap(), // duplicate point
        RangeQuery::new(400.0, 600.0).unwrap(), // duplicate interval
        RangeQuery::new(600.0, 600.0).unwrap(), // point on a shared bound
    ];
    let mut transitions = boundary_transitions(&queries);
    // Full jumps across every nested level: membership of jumped-over
    // queries must cancel (both endpoint tests fire), not double-count.
    transitions.extend([
        (300.0, 700.0),
        (700.0, 300.0),
        (499.5, 500.5),
        (-1.0, 1001.0),
        (500.0, 500.0), // identity transition: nothing is affected
    ]);
    assert_router_matches(&queries, &transitions, "nested/point");
}

#[test]
fn router_init_from_negative_infinity_yields_containing_queries() {
    // The protocol seeds unseen streams at -inf; routing -inf -> v must
    // produce exactly the queries containing v (no query contains -inf).
    let mut rng = SimRng::seed_from_u64(0xD1CE);
    let queries: Vec<RangeQuery> = (0..48)
        .map(|_| {
            let lo = rng.range_f64(0.0, 900.0);
            RangeQuery::new(lo, lo + rng.range_f64(0.0, 200.0)).unwrap()
        })
        .collect();
    let mut router = QueryRouter::new(&queries);
    let mut out = Vec::new();
    for _ in 0..200 {
        let v = rng.range_f64(-50.0, 1050.0);
        router.affected(f64::NEG_INFINITY, v, &mut out);
        let containing: Vec<u32> = queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.contains(v))
            .map(|(j, _)| j as u32)
            .collect();
        assert_eq!(out, containing, "init routing for v={v}");
    }
}

#[test]
fn router_output_is_sorted_and_duplicate_free() {
    let mut rng = SimRng::seed_from_u64(0x50F7);
    let queries: Vec<RangeQuery> = (0..128)
        .map(|_| {
            let lo = rng.range_f64(0.0, 800.0);
            RangeQuery::new(lo, lo + rng.range_f64(0.0, 400.0)).unwrap()
        })
        .collect();
    let mut router = QueryRouter::new(&queries);
    assert_eq!(router.num_queries(), queries.len());
    let mut out = Vec::new();
    for _ in 0..500 {
        let (a, b) = (rng.range_f64(-100.0, 1100.0), rng.range_f64(-100.0, 1100.0));
        router.affected(a, b, &mut out);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "unsorted/duplicated output for {a} -> {b}");
    }
}

/// Queries whose cuts sit on the edges of the value domain: a lower bound
/// at `zero` (`+0.0` or `-0.0`; a value of the other sign must count as
/// reaching that cut), a `-0.0` upper bound (cut `next_up(-0.0)`, the
/// smallest subnormal), `hi = f64::MAX` (cut `next_up(MAX) = +∞`),
/// `lo = -f64::MAX`, and duplicate, point and one-ulp-adjacent bounds.
fn edge_queries(zero: f64) -> Vec<RangeQuery> {
    vec![
        RangeQuery::new(zero, 10.0).unwrap(),
        RangeQuery::new(-10.0, -0.0).unwrap(),
        RangeQuery::new(1e300, f64::MAX).unwrap(),
        RangeQuery::new(-f64::MAX, -1e300).unwrap(),
        RangeQuery::new(2.0, 3.0).unwrap(),
        RangeQuery::new(2.0, 3.0).unwrap(),
        RangeQuery::new(3.0, 3.0).unwrap(),
        RangeQuery::new(3.0f64.next_up(), 4.0).unwrap(),
    ]
}

/// Every finite cut of `queries` and one ulp either side, both signed
/// zeros and both finite extremes, ascending.
fn edge_values(queries: &[RangeQuery]) -> Vec<f64> {
    let mut values = vec![-0.0, 0.0, f64::MAX, -f64::MAX, 500.0, -500.0];
    for q in queries {
        for cut in [q.lo(), q.hi().next_up()] {
            values.extend([cut.next_down(), cut, cut.next_up()]);
        }
    }
    values.retain(|v| v.is_finite());
    values.sort_by(f64::total_cmp);
    values.dedup_by(|a, b| a.to_bits() == b.to_bits());
    values
}

#[test]
fn router_handles_value_domain_edges() {
    for zero in [0.0, -0.0] {
        let queries = edge_queries(zero);
        let mut points = edge_values(&queries);
        points.extend([f64::NEG_INFINITY, f64::INFINITY]);
        let transitions: Vec<(f64, f64)> =
            points.iter().flat_map(|&a| points.iter().map(move |&b| (a, b))).collect();
        assert_router_matches(&queries, &transitions, &format!("edges, zero bound {zero:?}"));
    }
}

#[test]
fn partition_answers_hold_at_value_domain_edges() {
    assert_partition_exact_at_edges(0.0);
    assert_partition_exact_at_edges(-0.0);
}

/// `MultiRangeZt`'s answers at the value-domain edges, against ground truth
/// after every event. The engine resumes from a checkpoint whose protocol
/// part is a never-initialized protocol's — no answers, an empty last-value
/// table — so every stream starts never heard, in the uncovered cell 0, and
/// its first report grows the table past its length.
fn assert_partition_exact_at_edges(zero: f64) {
    let queries = edge_queries(zero);
    let n = 16;
    // 500 lies in no query, so "never heard" agrees with the truth.
    let initial = vec![500.0; n];
    let image = |save: &dyn Fn(&mut StateWriter)| {
        let mut w = StateWriter::new();
        save(&mut w);
        w.into_bytes()
    };
    let mut seeded = Engine::new(&initial, MultiRangeZt::new(queries.clone()).unwrap());
    seeded.initialize();
    let full = image(&|w| seeded.save_state(w));
    let initialized = image(&|w| seeded.protocol().save_state(w));
    let blank = image(&|w| MultiRangeZt::new(queries.clone()).unwrap().save_state(w));
    let at = full.windows(initialized.len()).position(|w| w == initialized).unwrap();
    let crafted = [&full[..at], &blank, &full[at + initialized.len()..]].concat();
    let mut engine = Engine::new(&initial, MultiRangeZt::new(queries.clone()).unwrap());
    engine.load_state(&mut StateReader::new(&crafted)).unwrap();

    let mut t = 0.0;
    let mut step = |engine: &mut Engine<MultiRangeZt>, s: usize, v: f64| {
        t += 1.0;
        engine.apply_event(UpdateEvent { time: t, stream: StreamId(s as u32), value: v });
        let p = engine.protocol();
        let mut union = AnswerSet::new();
        for (j, &q) in queries.iter().enumerate() {
            let answer = p.answer_of(j);
            let truth = oracle::true_range_answer(q, engine.fleet());
            assert_eq!(answer, truth, "query {j} {q:?} after stream {s} -> {v:e} ({zero:?})");
            answer.iter().for_each(|id| {
                union.insert(id);
            });
        }
        assert_eq!(p.answer(), union, "union answer after stream {s} -> {v:e}");
    };
    let values = edge_values(&queries);
    // Stream 0 walks every edge value up, then down: one-ulp steps across
    // every cut, in both directions.
    for &v in values.iter().chain(values.iter().rev()) {
        step(&mut engine, 0, v);
    }
    // Streams 1..12 jump between edge values; 12..16 only move inside
    // their initial cell, so they are never heard.
    let mut rng = SimRng::seed_from_u64(0xED6E);
    for _ in 0..600 {
        step(&mut engine, 1 + rng.index(11), values[rng.index(values.len())]);
    }
    let bill = engine.ledger().total();
    for s in 12..n {
        step(&mut engine, s, 600.0);
    }
    assert_eq!(engine.ledger().total(), bill, "moves inside the cell of 500 are silent");
    // The grown table and the partition round-trip through a checkpoint:
    // `load_state` checks every answer against the last-value table.
    let saved = image(&|w| engine.protocol().save_state(w));
    let mut back = MultiRangeZt::new(queries.clone()).unwrap();
    let mut r = StateReader::new(&saved);
    back.load_state(&mut r).unwrap();
    r.finish().unwrap();
    assert_eq!(back.answer(), engine.protocol().answer());
}

/// The shared index's `rank_of` / `count_before` against a from-scratch
/// sort.
#[test]
fn shared_rank_views_agree_with_sorted_ground_truth() {
    let mut rng = SimRng::seed_from_u64(0xBEEF);
    for space in [RankSpace::Knn { q: 500.0 }, RankSpace::TopK, RankSpace::KMin] {
        let n = 64;
        let mut values: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 1000.0)).collect();
        let mut forest = RankForest::new(space, n, 4);
        for (i, &v) in values.iter().enumerate() {
            forest.update(StreamId(i as u32), v);
        }
        for step in 0..50 {
            let id = rng.index(n);
            let v = rng.range_f64(0.0, 1000.0);
            values[id] = v;
            forest.update(StreamId(id as u32), v);

            let mut truth: Vec<(f64, StreamId)> = values
                .iter()
                .enumerate()
                .map(|(i, &x)| (space.key(x), StreamId(i as u32)))
                .collect();
            truth.sort_by(|&a, &b| cmp_key(a, b));

            for (probe, &pv) in values.iter().enumerate() {
                let pid = StreamId(probe as u32);
                let want = truth.iter().position(|&(_, i)| i == pid).map(|p| p + 1);
                assert_eq!(forest.rank_of(pid), want, "{space:?} step {step} rank");
                let at = (space.key(pv), pid);
                let before = truth.iter().take_while(|&&p| cmp_key(p, at).is_lt()).count();
                assert_eq!(forest.count_before(at), before, "{space:?} step {step} count_before");
            }
        }
    }
}
