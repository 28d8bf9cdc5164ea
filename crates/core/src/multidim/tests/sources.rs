//! 2-D sources on the 1-D [`SourceFleet`], in the place of the `PointFleet`
//! it replaced: each source holds its projected value and a 1-D filter
//! over it, so a filter on the projection is a region of the plane.
//!
//! [`SourceFleet`]: streamnet::SourceFleet

mod tests {
    use streamnet::{Filter, Ledger, ServerView, SourceFleet, StreamId};

    use crate::multidim::support::{p, project_all};
    use crate::multidim::{Point2, Projection};
    use crate::query::RankSpace;

    fn origin() -> Projection {
        Projection::distance_to(p(0.0, 0.0)).unwrap()
    }

    /// The disk of `radius` around the origin, as a filter over
    /// [`origin`]'s projection.
    fn disk(radius: f64) -> Filter {
        RankSpace::KMin.ball(radius)
    }

    fn setup() -> (SourceFleet, Ledger, ServerView) {
        let points = [p(0.0, 0.0), p(10.0, 0.0), p(0.0, 10.0)];
        let fleet = SourceFleet::from_values(&project_all(origin(), &points));
        (fleet, Ledger::new(), ServerView::new(points.len()))
    }

    fn deliver(
        fleet: &mut SourceFleet,
        s: u32,
        to: Point2,
        ledger: &mut Ledger,
        view: &mut ServerView,
    ) -> Option<f64> {
        fleet.deliver_update(StreamId(s), origin().project(to), ledger, view)
    }

    #[test]
    fn probe_all_fills_view() {
        let (mut fleet, mut ledger, mut view) = setup();
        fleet.probe_all(&mut ledger, &mut view);
        assert!(view.all_known());
        assert_eq!(ledger.total(), 6);
        assert_eq!(view.get(StreamId(1)), origin().project(p(10.0, 0.0)));
    }

    #[test]
    fn disk_filter_suppresses_interior_movement() {
        let (mut fleet, mut ledger, mut view) = setup();
        fleet.probe_all(&mut ledger, &mut view);
        fleet.install(StreamId(0), disk(5.0), &mut ledger, &mut view);
        let before = ledger.total();
        assert!(deliver(&mut fleet, 0, p(1.0, 1.0), &mut ledger, &mut view).is_none());
        assert_eq!(ledger.total(), before);
        // Crossing out reports.
        assert!(deliver(&mut fleet, 0, p(6.0, 0.0), &mut ledger, &mut view).is_some());
        assert_eq!(ledger.total(), before + 1);
    }

    #[test]
    fn broadcast_syncs_inconsistent_sources() {
        let (mut fleet, mut ledger, mut view) = setup();
        fleet.probe_all(&mut ledger, &mut view);
        fleet.broadcast(disk(100.0), &mut ledger, &mut view);
        // Inside the broad disk: silent, so the server still believes (0, 0).
        assert!(deliver(&mut fleet, 0, p(3.0, 0.0), &mut ledger, &mut view).is_none());
        // Radius 2 separates the believed (0, 0) from the true (3, 0): S0
        // syncs; S1 and S2 are outside on both counts.
        let syncs = fleet.broadcast(disk(2.0), &mut ledger, &mut view);
        assert_eq!(syncs, vec![(StreamId(0), 3.0)]);
        assert_eq!(view.get(StreamId(0)), 3.0);
    }

    #[test]
    fn traffic_is_conserved() {
        let (mut fleet, mut ledger, mut view) = setup();
        fleet.probe_all(&mut ledger, &mut view);
        fleet.broadcast(disk(5.0), &mut ledger, &mut view);
        assert!(deliver(&mut fleet, 1, p(1.0, 0.0), &mut ledger, &mut view).is_some());
        let source_sum: u64 = fleet.iter().map(|s| s.traffic()).sum();
        assert_eq!(source_sum, ledger.total());
    }
}
