//! ZT-RP — zero-tolerance k-NN via the range-query transformation
//! (paper §5.2.1).
//!
//! The k-NN query is viewed as a range query over the bound `R` that
//! encloses exactly the k nearest objects (threshold halfway between ranks
//! `k` and `k+1`). `R` is every source's filter, so the server hears every
//! boundary crossing — and because **no** error is allowed, each crossing
//! forces `R` to be recomputed and re-announced to every stream. This
//! per-crossing broadcast is the drawback FT-RP exists to fix.

use streamnet::StreamId;

use crate::answer::AnswerSet;
use crate::error::ConfigError;
use crate::protocol::{Protocol, ServerCtx};
use crate::query::{RankQuery, RankSpace};

/// The zero-tolerance rank-query protocol.
pub struct ZtRp {
    query: RankQuery,
    d: f64,
    answer: AnswerSet,
    recomputes: u64,
}

impl ZtRp {
    /// Creates ZT-RP; requires (checked at initialization) `n > k`.
    pub fn new(query: RankQuery) -> Result<Self, ConfigError> {
        Ok(Self { query, d: f64::NAN, answer: AnswerSet::new(), recomputes: 0 })
    }

    /// The query.
    pub fn query(&self) -> RankQuery {
        self.query
    }

    /// Current ball threshold.
    pub fn threshold(&self) -> f64 {
        self.d
    }

    /// How many times `R` was recomputed and re-broadcast.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    fn recompute(&mut self, ctx: &mut ServerCtx<'_>) {
        let k = self.query.k();
        assert!(ctx.n() > k, "ZT-RP requires n > k, got n = {}", ctx.n());
        self.recomputes += 1;
        // One ranked pass yields the answer and the bound position:
        // O(k log n) on the maintained index (the broadcast below still
        // costs n messages — that is the protocol's drawback, not the
        // server's).
        let top = ctx.ranks(self.query.space()).top_pairs(k + 1);
        self.answer = top[..k].iter().map(|&(_, id)| id).collect();
        self.d = (top[k - 1].0 + top[k].0) / 2.0;
        ctx.broadcast(self.query.space().ball(self.d));
    }
}

impl Protocol for ZtRp {
    fn name(&self) -> &'static str {
        "ZT-RP"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        self.recompute(ctx);
    }

    fn on_update(&mut self, _id: StreamId, _value: f64, ctx: &mut ServerCtx<'_>) {
        // Any crossing invalidates R: recompute and re-announce.
        ctx.set_cause(asf_telemetry::Cause::BoundRecompute);
        self.recompute(ctx);
    }

    fn answer(&self) -> AnswerSet {
        self.answer.clone()
    }

    asf_persist::persist!(fn save_state, load_state { d, answer, recomputes });

    fn rank_space(&self) -> Option<RankSpace> {
        Some(self.query.space())
    }
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

    fn engine5() -> Engine<ZtRp> {
        // distances from q=100: S0:5 S1:10 S2:20 S3:30 S4:45
        let initial = vec![105.0, 90.0, 120.0, 70.0, 145.0];
        let query = RankQuery::knn(100.0, 2).unwrap();
        let mut e = Engine::new(&initial, ZtRp::new(query).unwrap());
        e.initialize();
        e
    }

    #[test]
    fn initial_bound_between_ranks_k_and_k_plus_1() {
        let engine = engine5();
        // d between 10 (S1) and 20 (S2) = 15.
        assert!((engine.protocol().threshold() - 15.0).abs() < 1e-12);
        let a = engine.answer();
        assert!(a.contains(StreamId(0)) && a.contains(StreamId(1)));
    }

    #[test]
    fn interior_movement_is_silent() {
        let mut engine = engine5();
        let base = engine.ledger().total();
        engine.apply_event(ev(1.0, 0, 97.0)); // d 5 -> 3: still inside
        engine.apply_event(ev(2.0, 4, 160.0)); // d 45 -> 60: still outside
        assert_eq!(engine.ledger().total(), base);
    }

    #[test]
    fn every_crossing_broadcasts() {
        let mut engine = engine5();
        let bops = engine.ledger().broadcast_ops();
        // S2 (d=20) moves to d=12: crosses into R.
        engine.apply_event(ev(1.0, 2, 112.0));
        assert!(engine.ledger().broadcast_ops() > bops, "crossing must re-announce R");
        // Answer is now exact: S0 (5), S1 (10) vs S2 (12)? S0=5, S1=10 stay
        // the two nearest.
        let a = engine.answer();
        assert!(a.contains(StreamId(0)) && a.contains(StreamId(1)));
        // New bound separates rank 2 (10) from rank 3 (12): d = 11.
        assert!((engine.protocol().threshold() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn answer_tracks_truth_exactly_at_quiescence() {
        let mut engine = engine5();
        let events = vec![
            ev(1.0, 2, 101.0), // S2 becomes nearest (d=1)
            ev(2.0, 0, 400.0), // S0 leaves far away
            ev(3.0, 3, 99.0),  // S3 becomes d=1
            ev(4.0, 1, 250.0), // S1 leaves
        ];
        for e in events {
            engine.apply_event(e);
            // Compute the true 2-NN.
            let truth = crate::rank::rank_values(
                engine.protocol().query().space(),
                (0..5).map(|i| (StreamId(i), engine.fleet().true_value(StreamId(i)))),
            );
            let expected: AnswerSet = truth.into_iter().take(2).collect();
            assert_eq!(engine.answer(), expected, "at t={}", engine.now());
        }
    }

    #[test]
    fn stale_interior_drift_is_resolved_by_sync() {
        let mut engine = engine5();
        // S0 drifts inside R silently: 105 -> 95 (d=5). Silent.
        engine.apply_event(ev(1.0, 0, 95.0));
        let updates_before = engine.ledger().count(MessageKind::Update);
        assert_eq!(updates_before, 0);
        // S2 crosses in; recompute ranks S0 by its stale view value (105).
        // The re-broadcast may sync-report stale sources; either way the
        // final answer matches ground truth.
        engine.apply_event(ev(2.0, 2, 108.0));
        let truth = crate::rank::rank_values(
            engine.protocol().query().space(),
            (0..5).map(|i| (StreamId(i), engine.fleet().true_value(StreamId(i)))),
        );
        let expected: AnswerSet = truth.into_iter().take(2).collect();
        assert_eq!(engine.answer(), expected);
    }
}
