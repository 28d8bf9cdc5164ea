//! VT-MAX — a value-based tolerance baseline for maximum queries
//! (the strawman of the paper's introduction / Figure 1).
//!
//! Prior filter work (Olston et al., SIGMOD 2003) bounds the error of a
//! *value*: each source holds a window `[v' − ε/2, v' + ε/2]` around its
//! last report, so the server knows every value within `±ε/2` and the
//! returned maximum's value is within `ε` of the true maximum. The paper's
//! introduction argues this is the wrong interface for entity-based
//! queries: the user must guess a numeric `ε` with knowledge of the data
//! spread, and
//!
//! * too large an `ε` lets the returned stream "rank far from the true
//!   maximum" (Figure 1's `ε_l`) — the value guarantee says nothing about
//!   *rank*;
//! * too small an `ε` "cannot fully benefit from the tolerance protocol"
//!   (Figure 1's `ε_s`) — every wiggle escapes the window.
//!
//! `bin/motivation_fig01` quantifies both failure modes against RTP.
//!
//! Correctness (checked by a property test at every quiescent point): at
//! quiescence every true value lies within `±ε/2` of the server's view, so
//! `answer_true ≥ answer_view − ε/2 ≥ view_max − ε/2 ≥ true_max − ε`.

use streamnet::{Filter, StreamId};

use crate::answer::AnswerSet;
use crate::error::ConfigError;
use crate::protocol::{Protocol, ServerCtx};
use crate::rank::cmp_key;

/// Value-tolerant continuous maximum query: the returned stream's value is
/// guaranteed `>= true_max − ε` at every quiescent point.
pub struct VtMax {
    epsilon: f64,
    /// Current answer (the stream with the largest last-reported value).
    answer_stream: Option<StreamId>,
    /// Per-source window re-installations so far.
    reinstalls: u64,
}

impl VtMax {
    /// Creates the protocol with value tolerance `ε >= 0`.
    pub fn new(epsilon: f64) -> Result<Self, ConfigError> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(ConfigError::InvalidTolerance(format!(
                "value tolerance must be a finite non-negative number, got {epsilon}"
            )));
        }
        Ok(Self { epsilon, answer_stream: None, reinstalls: 0 })
    }

    /// The value tolerance `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Window re-installations so far.
    pub fn reinstalls(&self) -> u64 {
        self.reinstalls
    }

    fn window(&self, center: f64) -> Filter {
        Filter::interval(center - self.epsilon / 2.0, center + self.epsilon / 2.0)
    }

    fn recompute_answer(&mut self, ctx: &ServerCtx<'_>) {
        self.answer_stream = ctx
            .view()
            .iter_known()
            .min_by(|a, b| cmp_key((-a.1, a.0), (-b.1, b.0)))
            .map(|(id, _)| id);
    }
}

impl Protocol for VtMax {
    fn name(&self) -> &'static str {
        "VT-MAX"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        // One batch deployment of the per-stream windows (shard-parallel on
        // the sharded backend).
        let installs: Vec<(StreamId, Filter)> =
            ctx.view().iter_known().map(|(id, v)| (id, self.window(v))).collect();
        ctx.install_many(&installs);
        self.recompute_answer(ctx);
    }

    fn on_update(&mut self, id: StreamId, value: f64, ctx: &mut ServerCtx<'_>) {
        // The source escaped its window: recentre it (1 message) and
        // refresh the believed maximum.
        self.reinstalls += 1;
        ctx.install(id, self.window(value));
        self.recompute_answer(ctx);
    }

    fn answer(&self) -> AnswerSet {
        self.answer_stream.into_iter().collect()
    }

    asf_persist::persist!(fn save_state, load_state { answer_stream, reinstalls });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::workload::UpdateEvent;

    fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
        UpdateEvent { time: t, stream: StreamId(s), value: v }
    }

    fn engine(eps: f64) -> Engine<VtMax> {
        let initial = vec![10.0, 50.0, 30.0, 45.0];
        let mut e = Engine::new(&initial, VtMax::new(eps).unwrap());
        e.initialize();
        e
    }

    #[test]
    fn initial_answer_is_the_maximum() {
        let e = engine(10.0);
        assert_eq!(e.answer().iter().collect::<Vec<_>>(), vec![StreamId(1)]);
        // 2n probes + n installs.
        assert_eq!(e.ledger().total(), 12);
    }

    #[test]
    fn in_window_drift_is_silent() {
        let mut e = engine(10.0);
        let base = e.ledger().total();
        e.apply_event(ev(1.0, 1, 52.0)); // within [45, 55]
        e.apply_event(ev(2.0, 0, 13.0)); // within [5, 15]
        assert_eq!(e.ledger().total(), base);
        assert_eq!(e.answer().iter().collect::<Vec<_>>(), vec![StreamId(1)]);
    }

    #[test]
    fn window_escape_recentres_and_updates_answer() {
        let mut e = engine(10.0);
        let base = e.ledger().total();
        // S3 jumps from 45 to 70: escapes [40, 50], becomes the answer.
        e.apply_event(ev(1.0, 3, 70.0));
        assert_eq!(e.ledger().total(), base + 2, "one report + one reinstall");
        assert_eq!(e.answer().iter().collect::<Vec<_>>(), vec![StreamId(3)]);
        assert_eq!(e.protocol().reinstalls(), 1);
    }

    #[test]
    fn value_guarantee_holds_at_quiescence() {
        let mut e = engine(10.0);
        let events = vec![
            ev(1.0, 1, 44.0),
            ev(2.0, 3, 46.0),
            ev(3.0, 0, 43.0),
            ev(4.0, 2, 55.0),
            ev(5.0, 1, 20.0),
        ];
        for event in events {
            e.apply_event(event);
            let answer = e.answer().iter().next().unwrap();
            let answer_value = e.fleet().true_value(answer);
            let true_max =
                (0..4).map(|i| e.fleet().true_value(StreamId(i))).fold(f64::NEG_INFINITY, f64::max);
            assert!(
                answer_value >= true_max - 10.0 - 1e-9,
                "answer {answer_value} vs max {true_max} at t={}",
                e.now()
            );
        }
    }

    #[test]
    fn large_epsilon_can_return_a_deep_rank() {
        // The Figure-1 argument: with eps larger than the value spread the
        // windows swallow every movement; the stale answer can sink to the
        // bottom rank while the value guarantee still holds.
        let mut e = engine(1000.0);
        let base = e.ledger().total();
        e.apply_event(ev(1.0, 0, 49.0));
        e.apply_event(ev(2.0, 2, 48.0));
        e.apply_event(ev(3.0, 3, 47.0));
        e.apply_event(ev(4.0, 1, 5.0)); // the answer quietly becomes the minimum
        assert_eq!(e.ledger().total(), base, "everything inside the huge windows");
        let answer = e.answer().iter().next().unwrap();
        assert_eq!(answer, StreamId(1), "stale answer kept");
        let rank = (0..4)
            .filter(|&i| e.fleet().true_value(StreamId(i)) > e.fleet().true_value(answer))
            .count()
            + 1;
        assert_eq!(rank, 4, "the returned 'maximum' truly ranks last");
    }

    #[test]
    fn zero_epsilon_reports_every_change() {
        let mut e = engine(0.0);
        let base = e.ledger().total();
        e.apply_event(ev(1.0, 0, 10.5));
        assert_eq!(e.ledger().total(), base + 2);
        // With eps = 0 the answer is always the true maximum.
        e.apply_event(ev(2.0, 0, 60.0));
        assert_eq!(e.answer().iter().collect::<Vec<_>>(), vec![StreamId(0)]);
    }

    #[test]
    fn rejects_negative_epsilon() {
        assert!(VtMax::new(-1.0).is_err());
        assert!(VtMax::new(f64::NAN).is_err());
    }
}
