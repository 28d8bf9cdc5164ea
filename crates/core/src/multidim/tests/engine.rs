//! 2-D queries on the one [`Engine`], in the place of the `Engine2d` it
//! replaced: a source reports its projected value, and the engine never
//! sees the plane.
//!
//! [`Engine`]: crate::engine::Engine

mod tests {
    use streamnet::{Filter, StreamId};

    use crate::answer::AnswerSet;
    use crate::engine::Engine;
    use crate::multidim::support::{drive, p, project_all};
    use crate::multidim::Projection;
    use crate::protocol::{Protocol, ServerCtx};

    /// Probes everything, then shuts every source down.
    struct Null;
    impl Protocol for Null {
        fn name(&self) -> &'static str {
            "null"
        }
        fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
            ctx.probe_all();
            ctx.broadcast(Filter::wildcard());
        }
        fn on_update(&mut self, _: StreamId, _: f64, _: &mut ServerCtx<'_>) {}
        fn answer(&self) -> AnswerSet {
            AnswerSet::new()
        }
    }

    #[test]
    fn wildcard_broadcast_silences_everything() {
        let mut pts = [p(0.0, 0.0), p(5.0, 5.0)];
        let proj = Projection::distance_to(p(1.0, 1.0)).unwrap();
        let mut engine = Engine::new(&project_all(proj, &pts), Null);
        engine.initialize();
        let base = engine.ledger().total();
        assert_eq!(base, 4 + 2); // 2n probes + n broadcast
        drive(&mut engine, proj, &mut pts, &[(0, p(100.0, 100.0))], |_, _| {});
        assert_eq!(engine.ledger().total(), base);
        assert_eq!(engine.events_processed(), 1);
    }
}
