//! Multiple concurrent rank queries over one shared population index
//! (paper §7's multi-query direction, applied to §5's rank protocols).
//!
//! Running `m` independent ZT-RP instances maintains `m` rank structures
//! and broadcasts `m` ball filters per crossing. This protocol shares
//! **everything** instead:
//!
//! * **One rank index.** The protocol declares a single
//!   [`RankSpace`], so the engine maintains one [`crate::rank::RankForest`]
//!   over the population; every query's answer is a *prefix view* of the
//!   same best-first order (`top-k_j` = the first `k_j` entries), so a
//!   query costs O(1) state beyond its `k`.
//! * **One filter per source.** The distinct `k` values induce *rank
//!   cells*: key thresholds `d_k = (key(rank k) + key(rank k+1)) / 2`
//!   (the paper's `Deploy_bound` position, one per tracked `k`) partition
//!   the key space into bands. A source's filter is the value-preimage of
//!   its current band, so it reports **exactly** when it crosses a
//!   boundary some query's answer depends on — swaps confined to one band
//!   stay silent because no tracked top-k set can change without a key
//!   crossing a cut.
//!
//! Per report the protocol re-walks the top `K + 1` entries of the shared
//! index (`K` = max k), refreshes the shared answer prefix and the cuts,
//! and re-installs band filters only for sources in bands adjacent to a
//! cut that actually moved. The walk cost is O(K log n) — independent of
//! the *query count* `m`, which is the multi-query win: 100k top-k queries
//! cost the same maintenance as one.
//!
//! Like ZT-RP (which this degenerates to at `m = 1`, modulo its broadcast
//! being band-targeted here), exactness assumes no two streams tie at a
//! deployed cut: equal keys cannot be separated by any key filter. Ties
//! are measure-zero for continuous values; the paper ignores them.

use std::collections::HashMap;

use asf_telemetry::Cause;
use streamnet::{Filter, StreamId};

use crate::answer::AnswerSet;
use crate::error::ConfigError;
use crate::protocol::{Protocol, ServerCtx};
use crate::query::{RankQuery, RankSpace};

/// Zero-tolerance maintenance of several rank queries (same
/// [`RankSpace`], arbitrary `k`s) over one shared rank index and one
/// shared band filter per source.
pub struct MultiRankZt {
    queries: Vec<RankQuery>,
    space: RankSpace,
    /// All query `k`s, ascending (duplicates kept — used to count the
    /// queries a report's answer changes actually touch).
    sorted_ks: Vec<usize>,
    /// Distinct `k`s, ascending — one cut per entry.
    distinct_ks: Vec<usize>,
    /// `max(k)`: the shared answer prefix length.
    max_k: usize,
    /// Key-space cut `d_k` per entry of `distinct_ks` (NaN before
    /// initialization; NaN compares unequal, so the first recompute treats
    /// every cut as moved and deploys all bands).
    cuts: Vec<f64>,
    /// The shared answer prefix: ids of ranks `1..=max_k`, best first.
    /// Query `j`'s answer is `top_ids[..k_j]`.
    top_ids: Vec<StreamId>,
    recomputes: u64,
}

impl MultiRankZt {
    /// Creates the protocol over a non-empty set of rank queries sharing
    /// one [`RankSpace`]. Requires (checked at initialization) `n > max k`.
    pub fn new(queries: Vec<RankQuery>) -> Result<Self, ConfigError> {
        let Some(first) = queries.first() else {
            return Err(ConfigError::InvalidQuery("need at least one rank query".into()));
        };
        let space = first.space();
        if queries.iter().any(|q| q.space() != space) {
            return Err(ConfigError::InvalidQuery(
                "all multi-rank queries must share one rank space".into(),
            ));
        }
        let mut sorted_ks: Vec<usize> = queries.iter().map(|q| q.k()).collect();
        sorted_ks.sort_unstable();
        let mut distinct_ks = sorted_ks.clone();
        distinct_ks.dedup();
        let max_k = *distinct_ks.last().expect("non-empty");
        let cuts = vec![f64::NAN; distinct_ks.len()];
        Ok(Self {
            queries,
            space,
            sorted_ks,
            distinct_ks,
            max_k,
            cuts,
            top_ids: Vec::new(),
            recomputes: 0,
        })
    }

    /// The queries being maintained.
    pub fn queries(&self) -> &[RankQuery] {
        &self.queries
    }

    /// The shared rank space.
    pub fn space(&self) -> RankSpace {
        self.space
    }

    /// The number of key bands the population is divided into (distinct
    /// `k`s + 1).
    pub fn num_bands(&self) -> usize {
        self.distinct_ks.len() + 1
    }

    /// How many times the shared top walk ran.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// The answer of query `j`, materialized as a dense set.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range or before initialization.
    pub fn answer_of(&self, j: usize) -> AnswerSet {
        let k = self.queries[j].k();
        assert!(self.top_ids.len() >= k, "answer_of before initialization");
        self.top_ids[..k].iter().copied().collect()
    }

    /// The band index of key `κ`: bands are `[0th cut..]`-delimited
    /// half-open key intervals `(d_{i-1}, d_i]` (balls are closed above).
    fn band_of(&self, key: f64) -> usize {
        self.cuts.partition_point(|&c| c < key)
    }

    /// The value-space filter of band `i` for a source believed at `v`.
    ///
    /// The filter is a **subset** of the band's value-preimage (endpoints
    /// are nudged inward until their keys verifiably land in the band, so
    /// f64 rounding in `key()` can only cause extra reports, never false
    /// silence), and always contains `v` — falling back to the degenerate
    /// `[v, v]` (report any change) if rounding leaves no room.
    fn band_filter(&self, i: usize, v: f64) -> Filter {
        let a = if i == 0 { f64::NEG_INFINITY } else { self.cuts[i - 1] };
        let b = if i == self.cuts.len() { f64::INFINITY } else { self.cuts[i] };
        let (mut lo, mut hi) = match self.space {
            RankSpace::KMin => (
                if a.is_finite() { a.next_up() } else { f64::NEG_INFINITY },
                if b.is_finite() { b } else { f64::INFINITY },
            ),
            RankSpace::TopK => (
                if b.is_finite() { -b } else { f64::NEG_INFINITY },
                if a.is_finite() { (-a).next_down() } else { f64::INFINITY },
            ),
            RankSpace::Knn { q } => {
                if !a.is_finite() || a < 0.0 {
                    // Innermost band: the closed ball around q.
                    (
                        if b.is_finite() { q - b } else { f64::NEG_INFINITY },
                        if b.is_finite() { q + b } else { f64::INFINITY },
                    )
                } else if v >= q {
                    ((q + a).next_up(), if b.is_finite() { q + b } else { f64::INFINITY })
                } else {
                    (if b.is_finite() { q - b } else { f64::NEG_INFINITY }, (q - a).next_down())
                }
            }
        };
        let in_band = |key: f64| key > a && key <= b;
        for _ in 0..8 {
            if lo.is_finite() && !in_band(self.space.key(lo)) {
                lo = lo.next_up();
            } else {
                break;
            }
        }
        for _ in 0..8 {
            if hi.is_finite() && !in_band(self.space.key(hi)) {
                hi = hi.next_down();
            } else {
                break;
            }
        }
        let lo_ok = !lo.is_finite() || in_band(self.space.key(lo));
        let hi_ok = !hi.is_finite() || in_band(self.space.key(hi));
        if lo_ok && hi_ok && lo <= v && v <= hi {
            Filter::interval(lo, hi)
        } else {
            Filter::interval(v, v)
        }
    }

    /// How many queries' answer sets differ between the old and new shared
    /// prefix — exact: a query with parameter `k` is touched iff the id
    /// *sets* `old[..k]` and `new[..k]` differ (prefix *rotations* leave
    /// deeper queries untouched).
    fn touched_queries(&self, new_top: &[StreamId]) -> u64 {
        let old = &self.top_ids;
        if old.len() != new_top.len() {
            return self.queries.len() as u64; // initialization: all answers form
        }
        let mut lo = 0;
        while lo < new_top.len() && old[lo] == new_top[lo] {
            lo += 1;
        }
        if lo == new_top.len() {
            return 0;
        }
        // Walk the prefix lengths past the first difference, maintaining
        // the multiset delta between the two prefixes; a prefix length is
        // touched while the delta is non-empty.
        let mut delta: HashMap<u32, i32> = HashMap::new();
        let mut nonzero = 0usize;
        let mut touched = 0u64;
        for k in (lo + 1)..=new_top.len() {
            for (id, sgn) in [(old[k - 1].0, 1), (new_top[k - 1].0, -1)] {
                let e = delta.entry(id).or_insert(0);
                let was = *e;
                *e += sgn;
                if was == 0 && *e != 0 {
                    nonzero += 1;
                } else if was != 0 && *e == 0 {
                    nonzero -= 1;
                }
            }
            if nonzero > 0 {
                let s = self.sorted_ks.partition_point(|&x| x < k);
                let e = self.sorted_ks.partition_point(|&x| x <= k);
                touched += (e - s) as u64;
            }
        }
        touched
    }

    /// One shared maintenance pass: re-walk the top `K + 1` entries,
    /// refresh the answer prefix and cuts, and queue band re-installs for
    /// sources adjacent to cuts that moved. Returns the number of query
    /// answers the pass changed.
    fn recompute(&mut self, ctx: &mut ServerCtx<'_>) -> u64 {
        let kmax = self.max_k;
        assert!(ctx.n() > kmax, "MULTI-ZT-RANK requires n > max k, got n = {}", ctx.n());
        self.recomputes += 1;
        let walk = ctx.ranks(self.space).top_pairs(kmax + 1);
        let new_top: Vec<StreamId> = walk[..kmax].iter().map(|&(_, id)| id).collect();
        let touched = self.touched_queries(&new_top);
        let new_cuts: Vec<f64> =
            self.distinct_ks.iter().map(|&k| (walk[k - 1].0 + walk[k].0) / 2.0).collect();
        // Bands needing redeployment: both neighbours of every moved cut.
        // (NaN initial cuts compare unequal, so the first pass deploys all.)
        let num_bands = self.num_bands();
        let mut affected = vec![false; num_bands];
        for (i, (&new, &old)) in new_cuts.iter().zip(self.cuts.iter()).enumerate() {
            if new != old {
                affected[i] = true;
                affected[i + 1] = true;
            }
        }
        self.cuts = new_cuts;
        self.top_ids = new_top;
        // Inner affected bands: contiguous rank ranges of the walk. The
        // outermost band spans every remaining source (the ZT-RP broadcast
        // drawback, paid once for all m queries instead of m times).
        let mut in_top_affected = vec![false; kmax + 1];
        for (i, &hit) in affected.iter().enumerate().take(num_bands - 1) {
            if hit {
                let r_lo = if i == 0 { 0 } else { self.distinct_ks[i - 1] };
                let r_hi = self.distinct_ks[i];
                for flag in &mut in_top_affected[r_lo..r_hi] {
                    *flag = true;
                }
            }
        }
        // Rank kmax+1 belongs to the outermost band.
        if affected[num_bands - 1] {
            in_top_affected[kmax] = true;
        }
        for (r, &hit) in in_top_affected.iter().enumerate() {
            if hit {
                let (key, id) = walk[r];
                let v = ctx.view().get(id);
                debug_assert_eq!(self.space.key(v), key);
                ctx.install_later(id, self.band_filter(self.band_of(key), v));
            }
        }
        if affected[num_bands - 1] {
            // Everyone below rank kmax+1: all ids minus the walked prefix.
            let mut walked = vec![false; ctx.n()];
            for &(_, id) in &walk {
                walked[id.index()] = true;
            }
            for (idx, _) in walked.iter().enumerate().filter(|&(_, &w)| !w) {
                let id = StreamId(idx as u32);
                let v = ctx.view().get(id);
                ctx.install_later(id, self.band_filter(num_bands - 1, v));
            }
        }
        touched
    }

    /// A decoded state has one cut per distinct k and `max_k` top ids.
    fn check_lengths(&self) -> asf_persist::Result<()> {
        if self.cuts.len() != self.distinct_ks.len() {
            return Err(asf_persist::PersistError::corrupt("cut count != distinct k count"));
        }
        if self.top_ids.len() != self.max_k {
            return Err(asf_persist::PersistError::corrupt("top list length != max k"));
        }
        Ok(())
    }
}

impl Protocol for MultiRankZt {
    fn name(&self) -> &'static str {
        "MULTI-ZT-RANK"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        self.recompute(ctx);
    }

    fn on_update(&mut self, _id: StreamId, _value: f64, ctx: &mut ServerCtx<'_>) {
        ctx.set_cause(Cause::BoundRecompute);
        let clock = ctx.routing_clock();
        let touched = self.recompute(ctx);
        ctx.note_routing(touched, clock);
    }

    /// The union of all query answers — the largest prefix, i.e. the whole
    /// shared top list (per-query answers via [`MultiRankZt::answer_of`]).
    fn answer(&self) -> AnswerSet {
        self.top_ids.iter().copied().collect()
    }

    asf_persist::persist!(fn save_state, load_state {
        recomputes,
        cuts,
        top_ids,
    } check MultiRankZt::check_lengths);

    fn rank_space(&self) -> Option<RankSpace> {
        Some(self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::oracle::TruthRanks;
    use crate::protocol::ZtRp;
    use crate::workload::UpdateEvent;

    fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
        UpdateEvent { time: t, stream: StreamId(s), value: v }
    }

    #[test]
    fn rejects_empty_and_mixed_spaces() {
        assert!(MultiRankZt::new(vec![]).is_err());
        let mixed = vec![RankQuery::top_k(2).unwrap(), RankQuery::k_min(2).unwrap()];
        assert!(MultiRankZt::new(mixed).is_err());
    }

    #[test]
    fn shared_prefix_serves_every_k() {
        let initial = vec![10.0, 90.0, 50.0, 70.0, 30.0, 60.0];
        let queries: Vec<RankQuery> =
            [1, 2, 2, 4].iter().map(|&k| RankQuery::top_k(k).unwrap()).collect();
        let mut engine = Engine::new(&initial, MultiRankZt::new(queries).unwrap());
        engine.initialize();
        let p = engine.protocol();
        assert_eq!(p.num_bands(), 4); // distinct ks {1, 2, 4} -> 3 cuts
        assert_eq!(p.answer_of(0).iter().collect::<Vec<_>>(), vec![StreamId(1)]);
        assert_eq!(p.answer_of(1), p.answer_of(2), "duplicate ks share one view");
        assert_eq!(p.answer_of(3).len(), 4);
        assert!(p.answer_of(3).contains(StreamId(3)) && p.answer_of(3).contains(StreamId(5)));
    }

    /// Every answer equals ground truth top-k at every quiescent point, for
    /// every k simultaneously, across all three rank spaces.
    #[test]
    fn answers_track_truth_for_all_ks() {
        let initial = vec![105.0, 90.0, 120.0, 70.0, 145.0, 200.0, 45.0, 131.0];
        let events = vec![
            ev(1.0, 4, 101.0), // jumps to best (knn)
            ev(2.0, 0, 400.0), // best leaves entirely
            ev(3.0, 6, 99.0),
            ev(4.0, 2, 102.0),
            ev(5.0, 5, 98.5),
            ev(6.0, 3, 250.0),
            ev(7.0, 1, 101.5),
        ];
        for space in [RankSpace::Knn { q: 100.0 }, RankSpace::TopK, RankSpace::KMin] {
            let ks = [1usize, 3, 5];
            let queries: Vec<RankQuery> =
                ks.iter().map(|&k| RankQuery::new(space, k).unwrap()).collect();
            let mut engine = Engine::new(&initial, MultiRankZt::new(queries).unwrap());
            engine.initialize();
            let mut truth = TruthRanks::new(space, engine.fleet());
            let check = |engine: &Engine<MultiRankZt>, truth: &TruthRanks, when: &str| {
                for (j, &k) in ks.iter().enumerate() {
                    let want: AnswerSet = truth.true_answer(k);
                    assert_eq!(
                        engine.protocol().answer_of(j),
                        want,
                        "space {space:?} k {k} {when}"
                    );
                }
            };
            check(&engine, &truth, "after init");
            for e in &events {
                engine.apply_event(*e);
                truth.apply(e);
                check(&engine, &truth, &format!("after event t={}", e.time));
            }
        }
    }

    /// In-band swaps below every tracked boundary stay silent.
    #[test]
    fn moves_within_a_band_are_silent() {
        let initial = vec![100.0, 90.0, 80.0, 20.0, 10.0];
        let queries = vec![RankQuery::top_k(3).unwrap(), RankQuery::top_k(1).unwrap()];
        let mut engine = Engine::new(&initial, MultiRankZt::new(queries).unwrap());
        engine.initialize();
        let base = engine.ledger().total();
        // Ranks 2 and 3 swap (90 -> 85 stays above the k=3 cut, below k=1).
        engine.apply_event(ev(1.0, 1, 85.0));
        assert_eq!(engine.ledger().total(), base, "swap between tracked cuts is free");
        // Crossing the k=3 boundary reports.
        engine.apply_event(ev(2.0, 2, 12.0));
        assert!(engine.ledger().total() > base);
        let p = engine.protocol();
        assert!(!p.answer_of(0).contains(StreamId(2)));
        assert!(p.answer_of(0).contains(StreamId(3)));
    }

    /// m = 1 agrees with ZT-RP's answer at every quiescent point (the
    /// degenerate case; message patterns differ — bands beat broadcasts).
    #[test]
    fn single_query_matches_zt_rp_answers() {
        let initial = vec![105.0, 90.0, 120.0, 70.0, 145.0, 44.0];
        let events =
            vec![ev(1.0, 4, 101.0), ev(2.0, 0, 300.0), ev(3.0, 5, 99.0), ev(4.0, 1, 260.0)];
        let query = RankQuery::knn(100.0, 2).unwrap();
        let mut multi = Engine::new(&initial, MultiRankZt::new(vec![query]).unwrap());
        let mut solo = Engine::new(&initial, ZtRp::new(query).unwrap());
        multi.initialize();
        solo.initialize();
        assert_eq!(multi.protocol().answer_of(0), solo.answer());
        for e in &events {
            multi.apply_event(*e);
            solo.apply_event(*e);
            assert_eq!(multi.protocol().answer_of(0), solo.answer(), "at t={}", e.time);
        }
        // No message-count claim at m = 1: a single cut's two bands cover
        // the whole population, so maintenance degenerates to ZT-RP's
        // broadcast. The sharing win is one sweep vs *m* broadcasts.
    }

    #[test]
    fn touched_counts_are_prefix_set_exact() {
        let queries: Vec<RankQuery> =
            [1usize, 2, 3, 3, 5].iter().map(|&k| RankQuery::top_k(k).unwrap()).collect();
        let mut p = MultiRankZt::new(queries).unwrap();
        let ids = |v: &[u32]| v.iter().map(|&i| StreamId(i)).collect::<Vec<_>>();
        p.top_ids = ids(&[0, 1, 2, 3, 4]);
        // Swap of ranks 2 and 3: only k = 2 queries touched.
        assert_eq!(p.touched_queries(&ids(&[0, 2, 1, 3, 4])), 1);
        // Rotation 1->3: prefixes of length 1 and 2 change, k=3 absorbs it.
        assert_eq!(p.touched_queries(&ids(&[1, 2, 0, 3, 4])), 2);
        // New entrant at rank 5: every prefix from its insertion down
        // changes; here only k=5 (ranks 1..4 unchanged).
        assert_eq!(p.touched_queries(&ids(&[0, 1, 2, 3, 9])), 1);
        // Entrant at rank 1: all prefixes change -> all 5 queries.
        assert_eq!(p.touched_queries(&ids(&[9, 0, 1, 2, 3])), 5);
        // No change.
        assert_eq!(p.touched_queries(&ids(&[0, 1, 2, 3, 4])), 0);
    }

    #[test]
    fn band_filters_never_cover_a_cut() {
        // Regression guard for f64 rounding in key()-preimages: every
        // filter endpoint must land strictly inside its band.
        let initial = vec![105.0, 90.0, 120.0, 70.0, 145.0, 44.0, 131.0];
        for space in [RankSpace::Knn { q: 100.0 }, RankSpace::TopK, RankSpace::KMin] {
            let queries: Vec<RankQuery> =
                [1usize, 3, 5].iter().map(|&k| RankQuery::new(space, k).unwrap()).collect();
            let mut engine = Engine::new(&initial, MultiRankZt::new(queries).unwrap());
            engine.initialize();
            let p = engine.protocol();
            for &v in &initial {
                let band = p.band_of(space.key(v));
                if let Filter::Interval { lo, hi } = p.band_filter(band, v) {
                    for probe in [lo, hi] {
                        if probe.is_finite() {
                            assert_eq!(
                                p.band_of(space.key(probe)),
                                band,
                                "space {space:?} v {v} endpoint {probe} escapes its band"
                            );
                        }
                    }
                }
            }
        }
    }
}
