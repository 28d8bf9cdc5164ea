//! 2-D sources on the 1-D [`SourceFleet`], in the place of the `PointFleet`
//! it replaced: each source holds its projected value and a 1-D filter
//! over it, so a filter on the projection is a region of the plane.
//!
//! [`SourceFleet`]: streamnet::SourceFleet

mod tests {
    use streamnet::{Filter, FleetOps, SourceFleet, StreamId};

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

    fn setup() -> SourceFleet {
        let points = [p(0.0, 0.0), p(10.0, 0.0), p(0.0, 10.0)];
        SourceFleet::from_values(&project_all(origin(), &points))
    }

    fn deliver(fleet: &mut SourceFleet, s: u32, to: Point2) -> Option<f64> {
        fleet.deliver(StreamId(s), origin().project(to))
    }

    fn traffic(fleet: &SourceFleet) -> u64 {
        fleet.iter().map(|s| s.traffic()).sum()
    }

    #[test]
    fn probe_all_fills_view() {
        let mut fleet = setup();
        let mut values = Vec::new();
        fleet.probe_all(&mut values);
        assert_eq!(values.len(), 3);
        assert_eq!(traffic(&fleet), 6);
        assert_eq!(values[1], origin().project(p(10.0, 0.0)));
    }

    #[test]
    fn disk_filter_suppresses_interior_movement() {
        let mut fleet = setup();
        fleet.probe_all(&mut Vec::new());
        fleet.install(StreamId(0), disk(5.0));
        let before = traffic(&fleet);
        assert!(deliver(&mut fleet, 0, p(1.0, 1.0)).is_none());
        assert_eq!(traffic(&fleet), before);
        // Crossing out reports.
        assert!(deliver(&mut fleet, 0, p(6.0, 0.0)).is_some());
        assert_eq!(traffic(&fleet), before + 1);
    }

    #[test]
    fn broadcast_syncs_inconsistent_sources() {
        let mut fleet = setup();
        let mut syncs = Vec::new();
        fleet.probe_all(&mut Vec::new());
        fleet.broadcast(disk(100.0), &mut syncs);
        // Inside the broad disk: silent, so the server still believes (0, 0).
        assert!(deliver(&mut fleet, 0, p(3.0, 0.0)).is_none());
        // Radius 2 separates the believed (0, 0) from the true (3, 0): S0
        // syncs; S1 and S2 are outside on both counts.
        fleet.broadcast(disk(2.0), &mut syncs);
        assert_eq!(syncs, vec![(StreamId(0), 3.0)]);
        assert_eq!(fleet.source(StreamId(0)).last_reported(), Some(3.0));
    }

    #[test]
    fn traffic_is_conserved() {
        let mut fleet = setup();
        fleet.probe_all(&mut Vec::new());
        fleet.broadcast(disk(5.0), &mut Vec::new());
        assert!(deliver(&mut fleet, 1, p(1.0, 0.0)).is_some());
        // The cost model's bill: 2n probe messages, n broadcast, 1 report.
        assert_eq!(traffic(&fleet), 2 * 3 + 3 + 1);
    }
}
