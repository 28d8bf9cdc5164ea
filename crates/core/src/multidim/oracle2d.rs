//! Ground-truth tolerance checking in the plane, from the true positions
//! (indexed by stream id), independent of any projection.

use streamnet::StreamId;

use super::point::Point2;
use super::region::Region;
use crate::answer::AnswerSet;
use crate::rank::cmp_key;
use crate::tolerance::{FractionTolerance, RankTolerance};

/// The true distance ranking of all objects around `q` (best first).
pub fn true_ranking(q: Point2, positions: &[Point2]) -> Vec<StreamId> {
    let mut keyed: Vec<(f64, StreamId)> =
        positions.iter().enumerate().map(|(i, &p)| (q.distance(p), StreamId(i as u32))).collect();
    keyed.sort_by(|&a, &b| cmp_key(a, b));
    keyed.into_iter().map(|(_, id)| id).collect()
}

/// Checks Definition 1 for a 2-D k-NN answer.
pub fn rank_violation_2d(
    q: Point2,
    tol: RankTolerance,
    answer: &AnswerSet,
    positions: &[Point2],
) -> Option<String> {
    if answer.len() != tol.k() {
        return Some(format!("|A| = {} but k = {}", answer.len(), tol.k()));
    }
    let ranking = true_ranking(q, positions);
    for member in answer.iter() {
        let Some(rank) = ranking.iter().position(|&s| s == member).map(|p| p + 1) else {
            return Some(format!("{member} is not one of the {} objects", positions.len()));
        };
        if rank > tol.epsilon() {
            return Some(format!(
                "{member} has true rank {rank} > epsilon {} (at {})",
                tol.epsilon(),
                positions[member.index()]
            ));
        }
    }
    None
}

/// Checks Definition 3 for a 2-D region (window) answer.
pub fn fraction_region_violation(
    region: &Region,
    tol: FractionTolerance,
    answer: &AnswerSet,
    positions: &[Point2],
) -> Option<String> {
    let m = answer.fraction_metrics(positions.len(), |id| region.contains(positions[id.index()]));
    if m.within(&tol) {
        None
    } else {
        Some(format!(
            "F+ = {:.4} (eps+ = {}), F- = {:.4} (eps- = {})",
            m.f_plus(),
            tol.eps_plus(),
            m.f_minus(),
            tol.eps_minus()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point2 {
        Point2::new(x, y)
    }

    #[test]
    fn true_ranking_orders_by_distance() {
        let positions = [p(3.0, 0.0), p(1.0, 0.0), p(2.0, 0.0)];
        assert_eq!(
            true_ranking(p(0.0, 0.0), &positions),
            vec![StreamId(1), StreamId(2), StreamId(0)]
        );
    }

    #[test]
    fn rank_violation_detects_deep_member() {
        let positions = [p(1.0, 0.0), p(2.0, 0.0), p(3.0, 0.0), p(4.0, 0.0)];
        let tol = RankTolerance::new(2, 1).unwrap();
        let good: AnswerSet = [StreamId(0), StreamId(2)].into_iter().collect();
        assert!(rank_violation_2d(p(0.0, 0.0), tol, &good, &positions).is_none());
        let bad: AnswerSet = [StreamId(0), StreamId(3)].into_iter().collect();
        assert!(rank_violation_2d(p(0.0, 0.0), tol, &bad, &positions).is_some());
        let unknown: AnswerSet = [StreamId(0), StreamId(9)].into_iter().collect();
        assert!(rank_violation_2d(p(0.0, 0.0), tol, &unknown, &positions).is_some());
    }

    #[test]
    fn fraction_violation_detects_excess_errors() {
        let positions = [p(1.0, 1.0), p(2.0, 2.0), p(50.0, 50.0)];
        let region = Region::rect(p(0.0, 0.0), p(10.0, 10.0)).unwrap();
        // Answer {S0, S2}: E+ = 1 (S2), E- = 1 (S1) -> F+ = 0.5, F- = 0.5.
        let a: AnswerSet = [StreamId(0), StreamId(2)].into_iter().collect();
        let half = FractionTolerance::new(0.5, 0.5).unwrap();
        assert!(fraction_region_violation(&region, half, &a, &positions).is_none());
        let tight = FractionTolerance::new(0.2, 0.5).unwrap();
        assert!(fraction_region_violation(&region, tight, &a, &positions).is_some());
    }
}
