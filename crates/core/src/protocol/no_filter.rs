//! The no-filter baseline (§6: "the case when no filter is used at all").
//!
//! Every source reports every update, so the server's view is always exact
//! and the answer is always the true answer. The communication cost is one
//! `Update` message per workload event — the paper's reference line.

use streamnet::StreamId;

use crate::answer::AnswerSet;
use crate::protocol::{Protocol, ServerCtx};
use crate::query::{RangeQuery, RankQuery, RankSpace};

/// Which query the baseline is answering.
#[derive(Clone, Copy, Debug)]
enum QueryKind {
    Range(RangeQuery),
    Rank(RankQuery),
}

/// Exact continuous query answering with no filters installed.
pub struct NoFilter {
    kind: QueryKind,
    /// Current answer, recomputed from the (always fresh) view after every
    /// report.
    answer: Option<AnswerSet>,
    n: usize,
}

impl NoFilter {
    /// Baseline for a range query.
    pub fn range(query: RangeQuery) -> Self {
        Self { kind: QueryKind::Range(query), answer: None, n: 0 }
    }

    /// Baseline for a rank-based query.
    pub fn rank(query: RankQuery) -> Self {
        Self { kind: QueryKind::Rank(query), answer: None, n: 0 }
    }

    fn compute_answer(&self, ctx: &ServerCtx<'_>) -> AnswerSet {
        match self.kind {
            QueryKind::Range(q) => {
                ctx.view().iter_known().filter(|&(_, v)| q.contains(v)).map(|(id, _)| id).collect()
            }
            // O(k log n) off the maintained index — the baseline's per-event
            // server computation no longer re-sorts all n streams. Unlike
            // the filter protocols, the baseline accepts k > n and answers
            // with every stream.
            QueryKind::Rank(q) => {
                let ranks = ctx.ranks(q.space());
                ranks.top_ids(q.k().min(ranks.len())).into_iter().collect()
            }
        }
    }
}

impl Protocol for NoFilter {
    fn name(&self) -> &'static str {
        "no-filter"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        self.n = ctx.n();
        // The server still needs the initial values to answer at t0; sources
        // keep their default report-all behaviour (no filter installed).
        ctx.probe_all();
        self.answer = Some(self.compute_answer(ctx));
    }

    fn on_update(&mut self, _id: StreamId, _value: f64, ctx: &mut ServerCtx<'_>) {
        // The view is already refreshed; just recompute the exact answer.
        self.answer = Some(self.compute_answer(ctx));
    }

    fn answer(&self) -> AnswerSet {
        self.answer.clone().unwrap_or_default()
    }

    asf_persist::persist!(fn save_state, load_state { answer, n });

    fn rank_space(&self) -> Option<RankSpace> {
        match self.kind {
            QueryKind::Range(_) => None,
            QueryKind::Rank(q) => Some(q.space()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::workload::{UpdateEvent, VecWorkload};

    fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
        UpdateEvent { time: t, stream: StreamId(s), value: v }
    }

    #[test]
    fn range_baseline_tracks_exactly() {
        let initial = vec![450.0, 700.0, 500.0];
        let q = RangeQuery::new(400.0, 600.0).unwrap();
        let mut engine = Engine::new(&initial, NoFilter::range(q));
        engine.initialize();
        let a = engine.answer();
        assert!(a.contains(StreamId(0)) && a.contains(StreamId(2)) && !a.contains(StreamId(1)));

        engine.apply_event(ev(1.0, 1, 420.0)); // 1 enters
        engine.apply_event(ev(2.0, 0, 100.0)); // 0 leaves
        let a = engine.answer();
        assert!(!a.contains(StreamId(0)) && a.contains(StreamId(1)) && a.contains(StreamId(2)));
    }

    #[test]
    fn every_update_costs_one_message() {
        let initial = vec![1.0, 2.0];
        let q = RangeQuery::new(0.0, 10.0).unwrap();
        let mut engine = Engine::new(&initial, NoFilter::range(q));
        let events = vec![ev(1.0, 0, 1.1), ev(2.0, 0, 1.2), ev(3.0, 1, 2.1), ev(4.0, 1, 2.1)];
        let mut w = VecWorkload::new(initial.clone(), events);
        engine.run(&mut w);
        // 2n init probes + 4 updates.
        assert_eq!(engine.ledger().total(), 4 + 4);
        assert_eq!(
            engine.ledger().count(streamnet::MessageKind::Update),
            4,
            "every update reported, even value-identical ones"
        );
    }

    #[test]
    fn topk_baseline_tracks_rank_changes() {
        let initial = vec![10.0, 20.0, 30.0, 40.0];
        let q = RankQuery::top_k(2).unwrap();
        let mut engine = Engine::new(&initial, NoFilter::rank(q));
        engine.initialize();
        let a = engine.answer();
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![StreamId(2), StreamId(3)]);

        engine.apply_event(ev(1.0, 0, 99.0)); // 0 becomes the max
        let a = engine.answer();
        assert!(a.contains(StreamId(0)) && a.contains(StreamId(3)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn rank_baseline_accepts_k_larger_than_population() {
        let initial = vec![10.0, 20.0, 30.0];
        let q = RankQuery::top_k(10).unwrap();
        let mut engine = Engine::new(&initial, NoFilter::rank(q));
        engine.initialize();
        assert_eq!(engine.answer().len(), 3, "baseline answers with every stream");
        engine.apply_event(ev(1.0, 0, 99.0));
        assert_eq!(engine.answer().len(), 3);
    }

    #[test]
    fn knn_baseline() {
        let initial = vec![100.0, 480.0, 520.0, 900.0];
        let q = RankQuery::knn(500.0, 2).unwrap();
        let mut engine = Engine::new(&initial, NoFilter::rank(q));
        engine.initialize();
        let a = engine.answer();
        assert!(a.contains(StreamId(1)) && a.contains(StreamId(2)));
        engine.apply_event(ev(1.0, 3, 501.0)); // 3 jumps next to q
        let a = engine.answer();
        assert!(a.contains(StreamId(3)) && a.contains(StreamId(1)));
    }
}
