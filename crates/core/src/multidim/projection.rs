//! Projection of a point stream onto the scalar the 1-D protocols filter.

use super::point::Point2;
use super::region::Region;
use crate::error::ConfigError;

/// Maps each position to one `f64`, applied at the source, so a 2-D query
/// runs on the unmodified [`crate::engine::Engine`] with a 1-D protocol:
///
/// * [`Projection::distance_to`] `q` gives `|p − q|`; k-NN around `q` is
///   `RankQuery::k_min(k)` over it, and RTP's ball `(−∞, d]` is the disk of
///   radius `d` around `q`.
/// * [`Projection::window`] gives the signed distance to the rectangle
///   (−(distance to the nearest edge) inside, the Euclidean distance
///   outside); the window is the range query [`Region::range_query`] over
///   it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Projection(Shape);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Distance(Point2),
    Window(Region),
}

impl Projection {
    /// Euclidean distance to the query point `q`.
    ///
    /// Fails unless `q` is finite.
    pub fn distance_to(q: Point2) -> Result<Self, ConfigError> {
        if !(q.x.is_finite() && q.y.is_finite()) {
            return Err(ConfigError::InvalidQuery(format!("query point must be finite, got {q}")));
        }
        Ok(Self(Shape::Distance(q)))
    }

    /// Signed distance to the window `region` (negative inside).
    pub fn window(region: Region) -> Self {
        Self(Shape::Window(region))
    }

    /// The scalar a source at `p` reports.
    #[inline]
    pub fn project(&self, p: Point2) -> f64 {
        match self.0 {
            Shape::Distance(q) => q.distance(p),
            Shape::Window(region) => region.signed_distance(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multidim::support::p;

    #[test]
    fn rejects_non_finite_query_point() {
        for q in [Point2 { x: f64::NAN, y: 0.0 }, Point2 { x: 0.0, y: f64::NEG_INFINITY }] {
            assert!(matches!(Projection::distance_to(q), Err(ConfigError::InvalidQuery(_))));
        }
    }

    #[test]
    fn projections_are_distance_and_signed_distance() {
        let knn = Projection::distance_to(p(0.0, 0.0)).unwrap();
        assert_eq!(knn.project(p(3.0, 4.0)), 5.0);
        let window = Projection::window(Region::rect(p(0.0, 0.0), p(10.0, 10.0)).unwrap());
        assert_eq!(window.project(p(2.0, 5.0)), -2.0);
        assert_eq!(window.project(p(13.0, 14.0)), 5.0);
    }
}
