//! The 2-D window: a closed axis-aligned rectangle.

use super::point::Point2;
use crate::error::ConfigError;
use crate::query::RangeQuery;

/// A closed axis-aligned rectangle `[lo, hi]` — the 2-D range (window)
/// query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Region {
    lo: Point2,
    hi: Point2,
}

impl Region {
    /// The rectangle with lower-left corner `lo` and upper-right corner
    /// `hi`.
    ///
    /// Fails unless both corners are finite and `lo.x <= hi.x && lo.y <=
    /// hi.y`.
    pub fn rect(lo: Point2, hi: Point2) -> Result<Self, ConfigError> {
        let finite = [lo.x, lo.y, hi.x, hi.y].iter().all(|c| c.is_finite());
        if !finite || lo.x > hi.x || lo.y > hi.y {
            return Err(ConfigError::InvalidQuery(format!(
                "rectangle requires finite corners with lo <= hi, got {lo} .. {hi}"
            )));
        }
        Ok(Self { lo, hi })
    }

    /// Membership test (the boundary is inside).
    #[inline]
    pub fn contains(&self, p: Point2) -> bool {
        let (lo, hi) = (self.lo, self.hi);
        lo.x <= p.x && p.x <= hi.x && lo.y <= p.y && p.y <= hi.y
    }

    /// Signed distance to the boundary: −(distance to the nearest edge)
    /// inside, the Euclidean distance to the rectangle outside. Its sign
    /// is exact membership: an outside point never maps to 0, even where
    /// the squared distance would underflow.
    pub(crate) fn signed_distance(&self, p: Point2) -> f64 {
        let (lo, hi) = (self.lo, self.hi);
        if self.contains(p) {
            -(p.x - lo.x).min(hi.x - p.x).min(p.y - lo.y).min(hi.y - p.y)
        } else {
            let nearest = Point2 { x: p.x.clamp(lo.x, hi.x), y: p.y.clamp(lo.y, hi.y) };
            p.distance(nearest).max(f64::MIN_POSITIVE)
        }
    }

    /// The range query that selects this window over the signed distance
    /// ([`crate::multidim::Projection::window`]): `[−min(w, h), 0]`. An
    /// inside point projects to at least `−min(w, h) / 2`, so the lower
    /// bound is never the nearer one and [`RangeQuery::boundary_distance`]
    /// of the projection is the point's distance to the rectangle's
    /// boundary — boundary-nearest selection picks the same sources.
    pub fn range_query(&self) -> RangeQuery {
        let m = (self.hi.x - self.lo.x).min(self.hi.y - self.lo.y);
        RangeQuery::new(-m, 0.0).expect("a validated rectangle has a finite, non-negative side")
    }
}

#[cfg(test)]
mod tests {
    use streamnet::Filter;

    use super::*;
    use crate::multidim::support::p;
    use crate::multidim::Projection;
    use crate::query::RankSpace;

    /// The disk of `radius` around the origin: RTP's ball `(−∞, radius]`
    /// over the projected distance.
    fn disk(radius: f64) -> (Projection, Filter) {
        (Projection::distance_to(p(0.0, 0.0)).unwrap(), RankSpace::KMin.ball(radius))
    }

    /// Whether moving from `from` to `to` violates `filter` over `proj`.
    fn violated(proj: Projection, filter: &Filter, from: Point2, to: Point2) -> bool {
        filter.violated(proj.project(from), proj.project(to))
    }

    #[test]
    fn disk_membership_is_closed() {
        let (proj, d) = disk(5.0);
        assert!(d.contains(proj.project(p(3.0, 4.0)))); // on the boundary
        assert!(d.contains(proj.project(p(0.0, 0.0))));
        assert!(!d.contains(proj.project(p(3.1, 4.0))));
    }

    #[test]
    fn rect_membership_is_closed() {
        let r = Region::rect(p(0.0, 0.0), p(10.0, 5.0)).unwrap();
        assert!(r.contains(p(0.0, 0.0)) && r.contains(p(10.0, 5.0)));
        assert!(r.contains(p(5.0, 2.5)));
        assert!(!r.contains(p(10.1, 2.0)) && !r.contains(p(5.0, -0.1)));
    }

    #[test]
    fn violation_requires_crossing() {
        let (proj, d) = disk(5.0);
        assert!(!violated(proj, &d, p(1.0, 1.0), p(2.0, 2.0))); // inside -> inside
        assert!(!violated(proj, &d, p(10.0, 0.0), p(0.0, 10.0))); // outside -> outside
        assert!(violated(proj, &d, p(1.0, 1.0), p(10.0, 0.0)));
        assert!(violated(proj, &d, p(10.0, 0.0), p(1.0, 1.0)));
        // The window's filter over the signed distance is the rectangle.
        let r = Region::rect(p(0.0, 0.0), p(10.0, 10.0)).unwrap();
        let (proj, w) = (Projection::window(r), r.range_query().as_filter());
        assert!(!violated(proj, &w, p(1.0, 1.0), p(9.0, 9.0)));
        assert!(!violated(proj, &w, p(-1.0, 5.0), p(5.0, 11.0)));
        assert!(violated(proj, &w, p(1.0, 1.0), p(10.5, 5.0)));
        assert!(violated(proj, &w, p(5.0, -0.5), p(5.0, 0.0)));
    }

    #[test]
    fn all_and_empty_never_report() {
        // The wildcard and suppress filters carry over from 1-D: no move of
        // the projected point crosses them.
        let r = Region::rect(p(0.0, 0.0), p(10.0, 10.0)).unwrap();
        for proj in [disk(5.0).0, Projection::window(r)] {
            for filter in [Filter::wildcard(), Filter::suppress()] {
                assert!(!violated(proj, &filter, p(0.0, 0.0), p(1e6, -1e6)));
                assert!(!violated(proj, &filter, p(5.0, 5.0), p(-3.0, 2.0)));
                assert_eq!(filter.contains(proj.project(p(1e9, 1e9))), filter.is_wildcard());
                assert_eq!(filter.contains(proj.project(p(5.0, 5.0))), filter.is_wildcard());
            }
        }
    }

    #[test]
    fn report_all_always_reports() {
        let r = Region::rect(p(0.0, 0.0), p(10.0, 10.0)).unwrap();
        for proj in [disk(5.0).0, Projection::window(r)] {
            assert!(violated(proj, &Filter::ReportAll, p(1.0, 1.0), p(1.0, 1.0)));
        }
    }

    /// Distance from `p` to the rectangle's boundary, the least over its
    /// four edges: the 2-D boundary-nearest score, computed independently
    /// of `signed_distance`.
    fn boundary_distance(r: &Region, q: Point2) -> f64 {
        let (lo, hi) = (r.lo, r.hi);
        let horizontal = |y: f64| q.distance(p(q.x.clamp(lo.x, hi.x), y));
        let vertical = |x: f64| q.distance(p(x, q.y.clamp(lo.y, hi.y)));
        horizontal(lo.y).min(horizontal(hi.y)).min(vertical(lo.x)).min(vertical(hi.x))
    }

    #[test]
    fn rect_boundary_distance() {
        let r = Region::rect(p(0.0, 0.0), p(10.0, 10.0)).unwrap();
        for (pt, d) in [
            (p(1.0, 5.0), 1.0),   // inside, near left
            (p(12.0, 5.0), 2.0),  // right of rect
            (p(13.0, 14.0), 5.0), // corner: 3-4-5
        ] {
            assert_eq!(boundary_distance(&r, pt), d);
            assert_eq!(r.signed_distance(pt).abs(), d);
        }
    }

    #[test]
    fn signed_distance_sign_is_membership() {
        let r = Region::rect(p(0.0, 0.0), p(10.0, 4.0)).unwrap();
        assert_eq!(r.signed_distance(p(5.0, 1.0)), -1.0);
        assert_eq!(r.signed_distance(p(10.0, 2.0)), 0.0); // on an edge: -0
        assert_eq!(r.signed_distance(p(-3.0, 8.0)), 5.0);
        // An outside point whose squared distance underflows still maps
        // above 0.
        let tiny = f64::MIN_POSITIVE * f64::EPSILON;
        assert!(!r.contains(p(-tiny, 2.0)) && r.signed_distance(p(-tiny, 2.0)) > 0.0);
    }

    #[test]
    fn projected_boundary_distance_matches_the_plane() {
        let r = Region::rect(p(300.0, 300.0), p(700.0, 600.0)).unwrap();
        let q = r.range_query();
        assert_eq!((q.lo(), q.hi()), (-300.0, 0.0));
        let points = [
            p(310.0, 450.0),  // inside, nearest the left edge
            p(500.0, 450.0),  // the centre line: -150 = -min(w, h)/2
            p(650.0, 580.0),  // inside, nearest the top edge
            p(800.0, 450.0),  // outside, beside an edge
            p(900.0, 1000.0), // outside, beyond a corner
            p(300.0, 300.0),  // a corner
            p(700.0, 412.5),  // on an edge
        ];
        for pt in points {
            let v = r.signed_distance(pt);
            assert_eq!(q.contains(v), r.contains(pt), "{pt}");
            assert_eq!(q.boundary_distance(v), boundary_distance(&r, pt), "{pt}");
        }
    }

    #[test]
    fn rejects_inverted_and_non_finite_rects() {
        let bad = [
            (p(10.0, 0.0), p(0.0, 10.0)),
            (p(0.0, 10.0), p(10.0, 0.0)),
            (Point2 { x: f64::NAN, y: 0.0 }, p(1.0, 1.0)),
            (p(0.0, 0.0), Point2 { x: f64::INFINITY, y: 1.0 }),
        ];
        for (lo, hi) in bad {
            assert!(matches!(Region::rect(lo, hi), Err(ConfigError::InvalidQuery(_))));
        }
        assert!(Region::rect(p(1.0, 1.0), p(1.0, 1.0)).is_ok()); // a point
    }
}
