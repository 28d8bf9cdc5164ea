//! 2-D k-NN around `q`: `Rtp::new(RankQuery::k_min(k), r)` over
//! [`Projection::distance_to`] `q` on the 1-D engine, in the place of the
//! `Rtp2d` protocol it replaced. RTP's ball `(−∞, d]` is the disk of
//! radius `d` around `q`.

mod tests {
    use streamnet::StreamId;

    use crate::multidim::oracle2d;
    use crate::multidim::support::{drive, knn_engine, p, ring};
    use crate::multidim::Projection;
    use crate::protocol::Rtp;
    use crate::query::RankQuery;
    use crate::tolerance::RankTolerance;

    fn origin() -> Projection {
        Projection::distance_to(p(0.0, 0.0)).unwrap()
    }

    fn ids(v: &[u32]) -> Vec<StreamId> {
        v.iter().map(|&s| StreamId(s)).collect()
    }

    #[test]
    fn initialization_picks_nearest_disk() {
        let engine = knn_engine(2, 2);
        // Distances are 5, 10, 15, ... so A = {S0, S1}, X = {S0..S3} and
        // the disk's radius sits between 20 (S3) and 25 (S4).
        assert_eq!(engine.answer().iter().collect::<Vec<_>>(), ids(&[0, 1]));
        assert_eq!(
            engine.protocol().x_set().iter().copied().collect::<Vec<_>>(),
            ids(&[0, 1, 2, 3])
        );
        assert_eq!(engine.protocol().threshold(), 22.5);
    }

    #[test]
    fn interior_movement_is_silent() {
        let mut engine = knn_engine(2, 2);
        let base = engine.ledger().total();
        // S0 and S2 move within the disk (distances 8 and 12 < 22.5); S6
        // moves about outside it.
        let quiet = [(0, p(8.0, 0.0)), (2, p(0.0, 12.0)), (6, p(-40.0, 10.0))];
        drive(&mut engine, origin(), &mut ring(), &quiet, |_, _| {});
        assert_eq!(engine.ledger().total(), base);
    }

    #[test]
    fn answer_member_leaving_promotes_buffer() {
        let mut engine = knn_engine(2, 2);
        let base = engine.ledger().total();
        // S1 (answer) leaves the disk entirely: the nearest buffered object
        // of X − A is promoted, and S1's report is the only message.
        drive(&mut engine, origin(), &mut ring(), &[(1, p(100.0, 100.0))], |_, _| {});
        assert_eq!(engine.answer().iter().collect::<Vec<_>>(), ids(&[0, 2]));
        assert_eq!(engine.ledger().total(), base + 1);
    }

    #[test]
    fn rank_tolerance_holds_through_churn() {
        let q = p(0.0, 0.0);
        let mut engine = knn_engine(3, 2);
        let tol = RankTolerance::new(3, 2).unwrap();
        let churn = [
            (0, p(40.0, 0.0)),
            (7, p(1.0, 1.0)),
            (2, p(-60.0, 0.0)),
            (4, p(2.0, -2.0)),
            (1, p(0.0, 55.0)),
        ];
        drive(&mut engine, origin(), &mut ring(), &churn, |e, pos| {
            // Every answer member truly ranks <= k + r = 5.
            assert_eq!(e.answer().len(), 3, "at t={}", e.now());
            let v = oracle2d::rank_violation_2d(q, tol, &e.answer(), pos);
            assert!(v.is_none(), "at t={}: {}", e.now(), v.unwrap());
        });
    }

    #[test]
    fn rejects_k_zero() {
        assert!(RankQuery::k_min(0).is_err());
        // Any k >= 1 is accepted, with or without slack.
        assert!(Rtp::new(RankQuery::k_min(1).unwrap(), 0).is_ok());
    }
}
