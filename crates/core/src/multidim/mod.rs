//! Multi-dimensional extension (paper §7: "The concepts of our protocols
//! can be extended to multiple dimensions. … Although the protocols and
//! examples presented in this paper are one-dimensional, our techniques can
//! be generalized to higher dimension cases.").
//!
//! The protocols only ever reason about membership of a region and about
//! rank, so a 2-D point stream — the location-monitoring scenario of the
//! paper's introduction — needs no 2-D protocol: each source reports one
//! scalar, its position under a [`Projection`], and the query runs on the
//! unmodified [`crate::engine::Engine`] (or `asf-server`'s `ShardedServer`)
//! with a 1-D protocol:
//!
//! * **k-NN around `q`** — [`Projection::distance_to`] `q` and
//!   `Rtp::new(RankQuery::k_min(k), r)`: the bound `R = (−∞, d]` is the
//!   disk of radius `d` around `q`;
//! * **window `[lo, hi]`** — [`Projection::window`] (signed distance to
//!   the rectangle) and `FtNrp` over [`Region::range_query`]. Membership
//!   and the boundary-nearest score are the rectangle's own, so FT-NRP's
//!   wildcard and suppress filters carry over exactly.
//!
//! A projection serves one query per population. [`oracle2d`] checks the
//! tolerance definitions against the true positions, independently of
//! the projection.

pub mod oracle2d;
pub mod point;
pub mod projection;
pub mod region;

pub use point::Point2;
pub use projection::Projection;
pub use region::Region;

// Tests of the 2-D queries on the 1-D engine, each under the path of the
// 2-D engine, fleet or protocol it replaced.
#[cfg(test)]
#[path = "tests/engine.rs"]
mod engine2d;
#[cfg(test)]
#[path = "tests/sources.rs"]
mod fleet;
#[cfg(test)]
#[path = "tests/window.rs"]
mod ft_rect;
#[cfg(test)]
#[path = "tests/knn.rs"]
mod rtp2d;
#[cfg(test)]
#[path = "tests/support.rs"]
mod support;
