//! ZT-NRP — zero-tolerance protocol for non-rank-based (range) queries
//! (paper §5.1).
//!
//! Every filter is assigned the query interval `[l, u]` itself, so each
//! filter evaluates the range query locally: a source speaks only when its
//! answer membership actually changes. Correctness is exact; the protocol
//! simply cannot exploit any tolerance.

use streamnet::StreamId;

use crate::answer::AnswerSet;
use crate::protocol::{Protocol, ServerCtx};
use crate::query::RangeQuery;

/// The zero-tolerance range-query protocol.
pub struct ZtNrp {
    query: RangeQuery,
    answer: AnswerSet,
}

impl ZtNrp {
    /// Creates the protocol for a range query.
    pub fn new(query: RangeQuery) -> Self {
        Self { query, answer: AnswerSet::new() }
    }

    /// The query being maintained.
    pub fn query(&self) -> RangeQuery {
        self.query
    }
}

impl Protocol for ZtNrp {
    fn name(&self) -> &'static str {
        "ZT-NRP"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        self.answer = ctx
            .view()
            .iter_known()
            .filter(|&(_, v)| self.query.contains(v))
            .map(|(id, _)| id)
            .collect();
        ctx.broadcast(self.query.as_filter());
    }

    fn on_update(&mut self, id: StreamId, value: f64, _ctx: &mut ServerCtx<'_>) {
        if self.query.contains(value) {
            self.answer.insert(id);
        } else {
            self.answer.remove(id);
        }
    }

    fn answer(&self) -> AnswerSet {
        self.answer.clone()
    }

    asf_persist::persist!(fn save_state, load_state { answer });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::workload::UpdateEvent;
    use streamnet::MessageKind;

    fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
        UpdateEvent { time: t, stream: StreamId(s), value: v }
    }

    fn query() -> RangeQuery {
        RangeQuery::new(400.0, 600.0).unwrap()
    }

    #[test]
    fn initial_answer_and_cost() {
        let initial = vec![450.0, 700.0, 500.0, 100.0];
        let mut engine = Engine::new(&initial, ZtNrp::new(query()));
        engine.initialize();
        let a = engine.answer();
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![StreamId(0), StreamId(2)]);
        // 2n probes + n broadcast
        assert_eq!(engine.ledger().total(), 8 + 4);
    }

    #[test]
    fn interior_moves_are_free_crossings_cost_one() {
        let initial = vec![450.0, 700.0];
        let mut engine = Engine::new(&initial, ZtNrp::new(query()));
        engine.initialize();
        let base = engine.ledger().total();

        engine.apply_event(ev(1.0, 0, 550.0)); // inside -> inside
        engine.apply_event(ev(2.0, 1, 900.0)); // outside -> outside
        assert_eq!(engine.ledger().total(), base, "non-crossing updates are silent");

        engine.apply_event(ev(3.0, 0, 650.0)); // leaves
        assert_eq!(engine.ledger().total(), base + 1);
        assert!(!engine.answer().contains(StreamId(0)));

        engine.apply_event(ev(4.0, 1, 410.0)); // enters
        assert_eq!(engine.ledger().total(), base + 2);
        assert!(engine.answer().contains(StreamId(1)));
        assert_eq!(engine.ledger().count(MessageKind::Update), 2);
    }

    #[test]
    fn answer_is_always_exact() {
        // ZT-NRP answers must match ground truth at every quiescent point.
        let initial = vec![500.0, 300.0, 610.0];
        let q = query();
        let mut engine = Engine::new(&initial, ZtNrp::new(q));
        engine.initialize();
        let events = vec![
            ev(1.0, 1, 420.0),
            ev(2.0, 0, 399.0),
            ev(3.0, 2, 600.0),
            ev(4.0, 1, 401.0),
            ev(5.0, 0, 500.5),
        ];
        for e in events {
            engine.apply_event(e);
            let truth: AnswerSet = (0..3)
                .map(StreamId)
                .filter(|&id| q.contains(engine.fleet().true_value(id)))
                .collect();
            assert_eq!(engine.answer(), truth, "at t={}", engine.now());
        }
    }
}
