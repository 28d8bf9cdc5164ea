//! 2-D window `[lo, hi]`: `FtNrp` over [`Region::range_query`] on the
//! signed distance [`Projection::window`], in the place of the `FtRect2d`
//! protocol it replaced. `tests/window_pinned.rs` pins the two to the same
//! ledger and answer after every event.
//!
//! [`Region::range_query`]: crate::multidim::Region::range_query
//! [`Projection::window`]: crate::multidim::Projection::window

mod tests {
    use crate::multidim::oracle2d;
    use crate::multidim::support::{drive, p, scattered, window, window_engine};
    use crate::multidim::{Point2, Projection};
    use crate::tolerance::FractionTolerance;

    #[test]
    fn initialization_budgets() {
        let engine = window_engine(FractionTolerance::symmetric(0.25).unwrap());
        assert_eq!(engine.answer().len(), 10);
        assert_eq!(engine.protocol().n_plus(), 2);
        assert_eq!(engine.protocol().n_minus(), 2);
    }

    #[test]
    fn silenced_objects_never_report() {
        let mut engine = window_engine(FractionTolerance::symmetric(0.25).unwrap());
        let silenced: Vec<(u32, Point2)> =
            engine.protocol().silenced().map(|id| (id.0, p(500.0, 500.0))).collect();
        assert_eq!(silenced.len(), 4);
        let base = engine.ledger().total();
        let proj = Projection::window(window());
        drive(&mut engine, proj, &mut scattered(), &silenced, |_, _| {});
        assert_eq!(engine.ledger().total(), base);
    }

    #[test]
    fn fraction_tolerance_holds_through_churn() {
        let region = window();
        let tol = FractionTolerance::symmetric(0.25).unwrap();
        let mut engine = window_engine(tol);
        let churn = [
            (0, p(50.0, 5.0)),
            (12, p(5.0, 5.0)),
            (3, p(5.0, 50.0)),
            (1, p(-5.0, 5.0)),
            (15, p(2.0, 2.0)),
        ];
        let proj = Projection::window(region);
        drive(&mut engine, proj, &mut scattered(), &churn, |e, pos| {
            let v = oracle2d::fraction_region_violation(&region, tol, &e.answer(), pos);
            assert!(v.is_none(), "at t={}: {}", e.now(), v.unwrap());
        });
    }
}
