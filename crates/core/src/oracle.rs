//! Ground-truth tolerance checking.
//!
//! The oracle sees what the server cannot: the actual current value of every
//! source. At quiescent points (the precondition of the paper's Correctness
//! Requirement 1) it evaluates the tolerance definitions §3.3/§3.4 against
//! ground truth. Tests and property tests drive it through
//! [`crate::engine::Engine::run_with_hook`], or — for long rank-protocol
//! runs — through [`crate::engine::Engine::run_with_event_hook`] with a
//! [`TruthRanks`] index, which keeps every per-quiescent-point Definition-1
//! check at O(k log n) instead of an O(n log n) ground-truth re-sort.

use streamnet::{SourceFleet, StreamId};

use crate::answer::AnswerSet;
use crate::protocol::Rtp;
use crate::query::{RangeQuery, RankQuery, RankSpace};
use crate::rank::{rank_values, RankIndex};
use crate::tolerance::{FractionTolerance, RankTolerance};
use crate::workload::UpdateEvent;

/// The true best-first ranking of all sources under a rank space.
pub fn true_ranking(space: RankSpace, fleet: &SourceFleet) -> Vec<StreamId> {
    rank_values(space, fleet.iter().map(|s| (s.id(), s.value())))
}

/// The true answer of a rank query (the k best sources).
pub fn true_rank_answer(query: RankQuery, fleet: &SourceFleet) -> AnswerSet {
    true_ranking(query.space(), fleet).into_iter().take(query.k()).collect()
}

/// The true answer of a range query.
pub fn true_range_answer(query: RangeQuery, fleet: &SourceFleet) -> AnswerSet {
    fleet.iter().filter(|s| query.contains(s.value())).map(|s| s.id()).collect()
}

/// Checks Definition 1 (rank-based tolerance) against ground truth.
/// Returns a violation description, or `None` if the answer is correct.
pub fn rank_violation(
    query: RankQuery,
    tol: RankTolerance,
    answer: &AnswerSet,
    fleet: &SourceFleet,
) -> Option<String> {
    if answer.len() != tol.k() {
        return Some(format!("|A| = {} but k = {}", answer.len(), tol.k()));
    }
    // One pass builds the id -> rank lookup; per-member checks are then
    // O(1) instead of an O(n) `.position()` scan each.
    let ranking = true_ranking(query.space(), fleet);
    let mut rank_of: Vec<Option<usize>> = vec![None; fleet.len()];
    for (pos, id) in ranking.into_iter().enumerate() {
        rank_of[id.index()] = Some(pos + 1);
    }
    for member in answer.iter() {
        let rank = rank_of.get(member.index()).copied().flatten()?;
        if rank > tol.epsilon() {
            return Some(format!(
                "{member} has true rank {rank} > epsilon {} (value {})",
                tol.epsilon(),
                fleet.true_value(member)
            ));
        }
    }
    None
}

/// Checks RTP's held-bound ledger against the fleet at a quiescent point:
/// every source carries exactly the ball the server believes it deployed
/// there, every `X` member holds `R` itself (invariant (a) of the
/// [`Rtp`] module docs), and every other source holds a ball at least as
/// wide as `R` that its last report lies outside (invariant (b)) — the two
/// facts from which "truly inside `R`" = `X` and Definition 1 follow.
pub fn rtp_held_bound_violation(rtp: &Rtp, fleet: &SourceFleet) -> Option<String> {
    let space = rtp.query().space();
    let d = rtp.threshold();
    for s in fleet.iter() {
        let id = s.id();
        let h = rtp.held_bound(id);
        if *s.filter() != space.ball(h) {
            return Some(format!("{id} carries {:?} but the ledger says ball({h})", s.filter()));
        }
        if rtp.x_set().contains(&id) {
            if h != d {
                return Some(format!("X member {id} holds {h}, not d = {d}"));
            }
        } else if h < d {
            return Some(format!("{id} outside X holds {h}, tighter than d = {d}"));
        } else if s.last_reported().is_none_or(|v| space.key(v) <= h) {
            return Some(format!(
                "{id} outside X last reported {:?}, inside the ball({h}) it holds",
                s.last_reported()
            ));
        }
    }
    None
}

/// An incrementally maintained ground-truth ranking for rank-query oracles.
///
/// Ground truth changes only through workload events, so feeding every
/// event to [`TruthRanks::apply`] (e.g. from
/// [`crate::engine::Engine::run_with_event_hook`]) keeps the index exact at
/// O(log n) per event, and each quiescent-point Definition-1 check costs
/// O(k log n) — the sort-based [`rank_violation`] pays an O(n log n)
/// ground-truth re-sort per check instead.
pub struct TruthRanks {
    index: RankIndex,
}

impl TruthRanks {
    /// Builds the index from the fleet's current ground truth.
    pub fn new(space: RankSpace, fleet: &SourceFleet) -> Self {
        let mut index = RankIndex::new(space, fleet.len());
        for s in fleet.iter() {
            index.insert(s.id(), s.value());
        }
        Self { index }
    }

    /// Applies one workload event (the only way ground truth changes).
    pub fn apply(&mut self, ev: &UpdateEvent) {
        self.index.update(ev.stream, ev.value);
    }

    /// The true 1-based rank of `id`.
    pub fn rank_of(&self, id: StreamId) -> Option<usize> {
        self.index.rank_of(id)
    }

    /// The true best-first ranking (O(n); prefer the per-member queries in
    /// hot loops).
    pub fn ranking(&self) -> Vec<StreamId> {
        self.index.ordered_ids()
    }

    /// The true answer of a rank query of size `k`.
    pub fn true_answer(&self, k: usize) -> AnswerSet {
        self.index.top_ids(k).into_iter().collect()
    }

    /// Checks Definition 1 against the maintained ground truth — the
    /// indexed equivalent of [`rank_violation`] (identical verdicts, proved
    /// by `tests/rank_differential.rs`).
    pub fn rank_violation(&self, tol: RankTolerance, answer: &AnswerSet) -> Option<String> {
        if answer.len() != tol.k() {
            return Some(format!("|A| = {} but k = {}", answer.len(), tol.k()));
        }
        for member in answer.iter() {
            let rank = self.rank_of(member)?;
            if rank > tol.epsilon() {
                return Some(format!(
                    "{member} has true rank {rank} > epsilon {} (key {})",
                    tol.epsilon(),
                    self.index.key_of(member).expect("ranked member has a key")
                ));
            }
        }
        None
    }
}

/// Checks Definition 3 (fraction-based tolerance) for a range query.
pub fn fraction_range_violation(
    query: RangeQuery,
    tol: FractionTolerance,
    answer: &AnswerSet,
    fleet: &SourceFleet,
) -> Option<String> {
    let m = answer.fraction_metrics(fleet.len(), |id| query.contains(fleet.true_value(id)));
    if m.within(&tol) {
        None
    } else {
        Some(format!(
            "F+ = {:.4} (eps+ = {}), F- = {:.4} (eps- = {}), |A| = {}, E+ = {}, E- = {}",
            m.f_plus(),
            tol.eps_plus(),
            m.f_minus(),
            tol.eps_minus(),
            m.answer_size,
            m.e_plus,
            m.e_minus
        ))
    }
}

/// Checks Definition 3 for a rank query: the "streams that satisfy Q" are
/// exactly the true k nearest (so the F⁻ denominator is `k`, Equation 5).
pub fn fraction_rank_violation(
    query: RankQuery,
    tol: FractionTolerance,
    answer: &AnswerSet,
    fleet: &SourceFleet,
) -> Option<String> {
    let truth = true_rank_answer(query, fleet);
    let m = answer.fraction_metrics(fleet.len(), |id| truth.contains(id));
    if m.within(&tol) {
        None
    } else {
        Some(format!(
            "F+ = {:.4} (eps+ = {}), F- = {:.4} (eps- = {}), |A| = {}, E+ = {}, E- = {}",
            m.f_plus(),
            tol.eps_plus(),
            m.f_minus(),
            tol.eps_minus(),
            m.answer_size,
            m.e_plus,
            m.e_minus
        ))
    }
}

/// Number of answer members that are not live — each is a *potential*
/// violation under degraded operation: the server cannot currently
/// substantiate the membership of a dead source, and the live-population
/// oracle checks surface them through this count.
pub fn dead_members(answer: &AnswerSet, is_live: impl Fn(StreamId) -> bool) -> usize {
    answer.iter().filter(|&id| !is_live(id)).count()
}

/// Zero-tolerance membership check restricted to the live population: every
/// live source must be in the answer exactly when its true value satisfies
/// the query. Dead sources are skipped (use [`dead_members`] to surface
/// them as potential violations); this is the in-fault guarantee of the
/// zero-tolerance protocols — exactness over every source the server can
/// currently vouch for.
pub fn live_range_exact_violation(
    query: RangeQuery,
    answer: &AnswerSet,
    fleet: &SourceFleet,
    is_live: impl Fn(StreamId) -> bool,
) -> Option<String> {
    for s in fleet.iter() {
        let id = s.id();
        if !is_live(id) {
            continue;
        }
        let in_truth = query.contains(s.value());
        let in_answer = answer.contains(id);
        if in_truth != in_answer {
            return Some(format!(
                "live {id} (value {}) is {} the answer but {} the range",
                s.value(),
                if in_answer { "in" } else { "not in" },
                if in_truth { "in" } else { "not in" },
            ));
        }
    }
    None
}

/// Definition-3 fraction check over the live population. Live sources are
/// scored normally; dead truth members leave the `F⁻` denominator (the
/// server cannot hear from them), while every dead *answer* member is
/// counted as a potential false positive in `E⁺` — a dead source the
/// server still serves is exactly the "potential violation" the degraded
/// tolerance accounting must absorb within `eps_plus`.
pub fn live_fraction_range_violation(
    query: RangeQuery,
    tol: FractionTolerance,
    answer: &AnswerSet,
    fleet: &SourceFleet,
    is_live: impl Fn(StreamId) -> bool,
) -> Option<String> {
    let mut e_plus = dead_members(answer, &is_live);
    let mut e_minus = 0usize;
    let mut live_truth = 0usize;
    for s in fleet.iter() {
        let id = s.id();
        if !is_live(id) {
            continue;
        }
        let in_truth = query.contains(s.value());
        let in_answer = answer.contains(id);
        if in_truth {
            live_truth += 1;
            if !in_answer {
                e_minus += 1;
            }
        } else if in_answer {
            e_plus += 1;
        }
    }
    let f_plus = if answer.is_empty() { 0.0 } else { e_plus as f64 / answer.len() as f64 };
    let f_minus = if live_truth == 0 { 0.0 } else { e_minus as f64 / live_truth as f64 };
    if f_plus <= tol.eps_plus() && f_minus <= tol.eps_minus() {
        None
    } else {
        Some(format!(
            "live F+ = {f_plus:.4} (eps+ = {}), F- = {f_minus:.4} (eps- = {}), \
             |A| = {}, E+ = {e_plus} (incl. {} dead members), E- = {e_minus}, live truth = {live_truth}",
            tol.eps_plus(),
            tol.eps_minus(),
            answer.len(),
            dead_members(answer, &is_live),
        ))
    }
}

/// Definition-1 rank check over the live population: the true ranking is
/// computed among live sources only, and every live answer member must rank
/// within `epsilon` of it. Dead answer members are skipped here and
/// surfaced via [`dead_members`]; the size precondition `|A| = k` still
/// applies to the whole answer (the server keeps serving `k` entries, some
/// of which it can no longer vouch for).
pub fn live_rank_violation(
    query: RankQuery,
    tol: RankTolerance,
    answer: &AnswerSet,
    fleet: &SourceFleet,
    is_live: impl Fn(StreamId) -> bool,
) -> Option<String> {
    if answer.len() != tol.k() {
        return Some(format!("|A| = {} but k = {}", answer.len(), tol.k()));
    }
    let ranking = rank_values(
        query.space(),
        fleet.iter().filter(|s| is_live(s.id())).map(|s| (s.id(), s.value())),
    );
    let mut rank_of: Vec<Option<usize>> = vec![None; fleet.len()];
    for (pos, id) in ranking.into_iter().enumerate() {
        rank_of[id.index()] = Some(pos + 1);
    }
    for member in answer.iter() {
        if !is_live(member) {
            continue;
        }
        let rank = rank_of.get(member.index()).copied().flatten()?;
        if rank > tol.epsilon() {
            return Some(format!(
                "live {member} has live-population rank {rank} > epsilon {} (value {})",
                tol.epsilon(),
                fleet.true_value(member)
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(values: &[f64]) -> SourceFleet {
        SourceFleet::from_values(values)
    }

    fn ids(v: &[u32]) -> AnswerSet {
        v.iter().map(|&i| StreamId(i)).collect()
    }

    #[test]
    fn true_ranking_orders_ground_truth() {
        let f = fleet(&[30.0, 10.0, 20.0]);
        assert_eq!(true_ranking(RankSpace::TopK, &f), vec![StreamId(0), StreamId(2), StreamId(1)]);
    }

    #[test]
    fn rank_violation_detects_size_and_rank() {
        let f = fleet(&[50.0, 40.0, 30.0, 20.0, 10.0]);
        let q = RankQuery::top_k(2).unwrap();
        let tol = RankTolerance::new(2, 1).unwrap();
        // {S0, S1} = true top 2: fine.
        assert_eq!(rank_violation(q, tol, &ids(&[0, 1]), &f), None);
        // {S0, S2}: S2 ranks 3 <= eps 3: fine.
        assert_eq!(rank_violation(q, tol, &ids(&[0, 2]), &f), None);
        // {S0, S3}: S3 ranks 4 > 3: violation.
        assert!(rank_violation(q, tol, &ids(&[0, 3]), &f).is_some());
        // Wrong size.
        assert!(rank_violation(q, tol, &ids(&[0]), &f).is_some());
    }

    #[test]
    fn truth_ranks_tracks_events_and_matches_sort_oracle() {
        use crate::workload::UpdateEvent;
        let mut f = fleet(&[50.0, 40.0, 30.0, 20.0, 10.0]);
        let q = RankQuery::top_k(2).unwrap();
        let tol = RankTolerance::new(2, 1).unwrap();
        let mut truth = TruthRanks::new(q.space(), &f);
        assert_eq!(truth.ranking(), true_ranking(q.space(), &f));
        assert_eq!(truth.true_answer(2), true_rank_answer(q, &f));

        // S4 jumps to the top; apply the event to both fleet and index.
        let ev = UpdateEvent { time: 1.0, stream: StreamId(4), value: 99.0 };
        streamnet::FleetOps::deliver(&mut f, ev.stream, ev.value);
        truth.apply(&ev);
        assert_eq!(truth.ranking(), true_ranking(q.space(), &f));
        assert_eq!(truth.rank_of(StreamId(4)), Some(1));

        for ans in [ids(&[0, 1]), ids(&[0, 2]), ids(&[0, 3]), ids(&[0])] {
            assert_eq!(
                truth.rank_violation(tol, &ans).is_some(),
                rank_violation(q, tol, &ans, &f).is_some(),
                "verdicts must agree for {ans:?}"
            );
        }
    }

    #[test]
    fn fraction_range_violation_thresholds() {
        let f = fleet(&[450.0, 460.0, 470.0, 480.0, 700.0]);
        let q = RangeQuery::new(400.0, 600.0).unwrap();
        // answer {0,1,2,4}: E+ = 1 (S4), E- = 1 (S3), truth = 4.
        let a = ids(&[0, 1, 2, 4]);
        let loose = FractionTolerance::new(0.25, 0.25).unwrap();
        assert_eq!(fraction_range_violation(q, loose, &a, &f), None);
        let tight = FractionTolerance::new(0.2, 0.25).unwrap();
        let v = fraction_range_violation(q, tight, &a, &f);
        assert!(v.is_some());
        assert!(v.unwrap().contains("F+"));
    }

    #[test]
    fn fraction_rank_violation_uses_k_denominator() {
        let f = fleet(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let q = RankQuery::knn(0.0, 2).unwrap(); // true 2-NN: S0, S1
                                                 // Answer {S0, S2}: E+ = 1, E- = 1, |A| = 2 -> F+ = 0.5, F- = 0.5.
        let a = ids(&[0, 2]);
        let half = FractionTolerance::new(0.5, 0.5).unwrap();
        assert_eq!(fraction_rank_violation(q, half, &a, &f), None);
        let tight = FractionTolerance::new(0.4, 0.5).unwrap();
        assert!(fraction_rank_violation(q, tight, &a, &f).is_some());
    }

    #[test]
    fn live_exact_check_skips_dead_sources() {
        let f = fleet(&[450.0, 700.0, 500.0]);
        let q = RangeQuery::new(400.0, 600.0).unwrap();
        // S1 (dead) is wrongly in the answer, S2 (dead) wrongly missing:
        // both are only *potential* violations.
        let a = ids(&[0, 1]);
        let live = |id: StreamId| id == StreamId(0);
        assert_eq!(live_range_exact_violation(q, &a, &f, live), None);
        assert_eq!(dead_members(&a, live), 1);
        // A live mismatch is a hard violation.
        let all_live = |_: StreamId| true;
        assert!(live_range_exact_violation(q, &a, &f, all_live).is_some());
    }

    #[test]
    fn live_fraction_check_counts_dead_answer_members_as_e_plus() {
        let f = fleet(&[450.0, 460.0, 470.0, 480.0]);
        let q = RangeQuery::new(400.0, 600.0).unwrap();
        let a = ids(&[0, 1, 2, 3]);
        let live = |id: StreamId| id != StreamId(3);
        // One dead member out of four: F+ = 0.25 against |A| = 4.
        assert_eq!(
            live_fraction_range_violation(
                q,
                FractionTolerance::new(0.25, 0.0).unwrap(),
                &a,
                &f,
                live
            ),
            None
        );
        let v = live_fraction_range_violation(
            q,
            FractionTolerance::new(0.2, 0.0).unwrap(),
            &a,
            &f,
            live,
        );
        assert!(v.is_some());
        assert!(v.unwrap().contains("dead members"));
    }

    #[test]
    fn live_rank_check_ranks_among_live_only() {
        let f = fleet(&[50.0, 40.0, 30.0, 20.0, 10.0]);
        let q = RankQuery::top_k(2).unwrap();
        let tol = RankTolerance::new(2, 1).unwrap(); // epsilon = k + 1 = 3
                                                     // With S0 dead, S3's live-population rank improves to 3 = epsilon.
        let live = |id: StreamId| id != StreamId(0);
        assert_eq!(live_rank_violation(q, tol, &ids(&[0, 3]), &f, live), None);
        // S4 ranks 4 among live: violation even degraded.
        assert!(live_rank_violation(q, tol, &ids(&[0, 4]), &f, live).is_some());
    }

    #[test]
    fn empty_answer_is_not_a_fraction_violation_by_definition() {
        // Degenerate but well-defined: F+ = 0; F- = 1 when truth exists.
        let f = fleet(&[450.0]);
        let q = RangeQuery::new(400.0, 600.0).unwrap();
        let tol = FractionTolerance::new(0.1, 0.1).unwrap();
        let v = fraction_range_violation(q, tol, &AnswerSet::new(), &f);
        assert!(v.is_some(), "missing the only true answer violates F-");
    }
}
