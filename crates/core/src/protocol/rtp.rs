//! RTP — the rank-based tolerance protocol for k-NN/top-k queries
//! (paper §4, Figure 5).
//!
//! RTP maintains a region `R` (a rank-key ball of threshold `d`) positioned
//! halfway between the `(k+r)`-th and `(k+r+1)`-st best streams, and two
//! server-side sets: `X(t)` — the streams believed inside `R` (at most
//! `ε = k + r` of them) — and the answer `A(t) ⊆ X(t)` with exactly `k`
//! members. The server hears the boundary crossings of `R`:
//!
//! * **Case 1** — a non-answer `X` member leaves `R`: drop it from `X`
//!   (free).
//! * **Case 2** — an answer member leaves `R`: replace it from `X − A`; if
//!   `X − A` is empty, run the *expansion search* (step 4), probing
//!   outward in the server's old rank order until at least two candidates
//!   are found, then redeploy the bound.
//! * **Case 3** — a stream enters `R`: absorb it while `|X| < ε`; once `X`
//!   would overflow, probe `X`, shrink `R` to the best `ε` and redeploy.
//!
//! # Deploying a bound: paper-faithful and scoped
//!
//! In the paper every source carries `R` itself as its filter, so every
//! redeployment is a broadcast of `n` messages — [`Rtp::paper`], the
//! deployment the figure binaries reproduce (it skips the non-shrink
//! rebuild of rule 1, so it does not keep Definition 1 in every run).
//! [`Rtp::new`] sends a bound
//! only where the one a source already holds has stopped being
//! *conservative*. The server keeps a **held-bound ledger** — `floor_d`,
//! the bound of the last fleet-wide broadcast, plus a sparse map of the
//! sources holding anything else — and maintains:
//!
//! * **(a)** every `s ∈ X` holds exactly `ball(d)`;
//! * **(b)** every `s ∉ X` holds `ball(h(s))` with `h(s) ≥ d`, and the key
//!   of its last report is `> h(s)`.
//!
//! A source under (a) reports when it leaves `R`; a source under (b)
//! reports when it enters `ball(h(s)) ⊇ R`, before it can be inside `R`
//! unseen. So at every quiescent point the streams truly inside `R` are
//! exactly `X`, `|X| ≤ ε`, and every member of `A ⊆ X` has at most
//! `ε − 1` streams ranked above it — Definition 1, by the paper's own
//! argument. Four rules keep (a) and (b):
//!
//! 1. **Shrink** (Case 3 overflow, `R_new ⊂ R_old`): install `ball(d_new)`
//!    at the `ε + 1` candidates `X ∪ {entering}` only — the dropped
//!    candidate included, because its last report lies *inside* the old
//!    ball. Everyone else already holds something at least as wide. (When
//!    the probe of `X` finds members outside `R` — their own reports are
//!    still queued — the candidates' midpoint can come out *wider* than
//!    `R`. That is no shrink: `A`, `X` and `R` are then rebuilt from the
//!    ranked view and deployed under rule 3 or 4.)
//! 2. **Refresh** (a report from a source with `h(s) ≠ d`): answer it with
//!    one install of `ball(d)` — when the report lands in the annulus
//!    `ball(h(s)) ∖ R` (no change to `A`/`X`; left alone, the source would
//!    next report on *leaving* the wide ball and could enter `R`
//!    silently), and when it is absorbed into `X` (a member holding a wide
//!    ball could drift out of `R` silently).
//! 3. **Scoped expansion** (expansion search or re-initialization with
//!    `d_new ≤ floor_d`): only a source holding a *tighter* bound can have
//!    drifted into `R_new ∖ R_old` unseen, so install, in ascending id
//!    order, at `{s : h(s) < d_new}` and at the `X_new` members not
//!    holding `d_new`. A target outside `X_new` whose last known key is
//!    beyond `floor_d` is reset to `floor_d` and leaves the exception map,
//!    which therefore tracks the sources that entered `ball(floor_d)`
//!    since their last reset instead of growing towards `n`.
//! 4. **Broadcast** (`d_new > floor_d`, initialization included): the one
//!    case left where unlisted sources hold too tight a bound. It resets
//!    `floor_d` and clears the map.
//!
//! Worst case: rules 1, 3 and 4 never install at more sources than the
//! broadcast they replace, so the bill exceeds the paper-faithful one by at
//! most the rule-2 traffic — 2 messages (report + refresh) per entry of a
//! source into `ball(floor_d)`.
//!
//! Implementation notes (DESIGN.md §3.4): the expansion search probes
//! incrementally (2 messages per candidate) using the key snapshot taken at
//! entry as the paper's "old ranking scores"; bound redeployments rank over
//! the server's best-known values, and any source whose reality disagrees
//! with the new bound sync-reports and is re-processed, so state
//! self-corrects within the same resolution step.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use asf_persist::PersistError;
use asf_telemetry::Cause;
use streamnet::{Filter, ServerView, StreamId};

use crate::answer::AnswerSet;
use crate::error::ConfigError;
use crate::protocol::{Protocol, ServerCtx};
use crate::query::{RankQuery, RankSpace};
use crate::rank::{cmp_key, RankForest};

/// An f64 rank key with the total order of [`cmp_key`], so probed
/// expansion-search candidates can live in a `BTreeSet` ordered exactly
/// like the ranking.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TotalKey(f64);

impl Eq for TotalKey {}

impl Ord for TotalKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("rank keys must not be NaN")
    }
}

impl PartialOrd for TotalKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The expansion search's "old ranking scores": the ranking at its entry,
/// read lazily. The search stops a few ranks past `ε + 1`, so it starts
/// from the top `2(ε + 1)` pairs instead of all `n`, and doubles the
/// snapshot whenever a ring passes it.
///
/// Extending from the *current* ranking is exact because the search
/// re-keys only streams it probed, and it probes only snapshot members:
/// every other stream keeps its entry key, hence its relative order and its
/// place behind the whole snapshot. The old pairs past the snapshot are
/// therefore the current ranking minus the snapshot's ids, and among the
/// current top `2L` at least `L` are not snapshot members.
struct OldRanking {
    pairs: Vec<(f64, StreamId)>,
    /// How many streams the ranking holds.
    total: usize,
}

impl OldRanking {
    fn new(ranks: &RankForest, len: usize) -> Self {
        Self { pairs: ranks.top_pairs(len.min(ranks.len())), total: ranks.len() }
    }

    /// The number of old pairs read so far.
    fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Doubles the snapshot (capped at the population) from `ranks`, the
    /// current ranking.
    fn extend(&mut self, ranks: &RankForest) {
        let len = self.pairs.len();
        let want = (2 * len).min(self.total);
        let mut taken: Vec<StreamId> = self.pairs.iter().map(|&(_, id)| id).collect();
        taken.sort_unstable();
        let fresh =
            ranks.top_pairs(want).into_iter().filter(|(_, id)| taken.binary_search(id).is_err());
        self.pairs.extend(fresh.take(want - len));
    }
}

/// The rank-tolerance protocol.
pub struct Rtp {
    query: RankQuery,
    /// Rank slack `r`; the tolerance bound is `ε = k + r`.
    r: usize,
    /// Current ball threshold (the position of `R`).
    d: f64,
    answer: AnswerSet,
    x: BTreeSet<StreamId>,
    /// The bound of the last fleet-wide broadcast, held by every source
    /// not listed in `held` (NaN until initialization).
    floor_d: f64,
    /// The sources holding a bound other than `floor_d`.
    held: BTreeMap<StreamId, f64>,
    /// The paper's deployment: every redeployment is a broadcast.
    paper: bool,
    /// Statistics: how many full re-initializations were forced.
    reinits: u64,
    /// Statistics: how many expansion searches ran.
    expansions: u64,
    /// Statistics: how many deployments were fleet-wide broadcasts.
    full_broadcasts: u64,
}

impl Rtp {
    /// Creates RTP for a rank query with rank tolerance `r`, deploying each
    /// bound only where the held one stopped being conservative (the
    /// module docs give the invariant and the rules).
    ///
    /// Fails unless the population can hold `k + r + 1` streams — the bound
    /// `R` sits between ranks `k + r` and `k + r + 1`, so both must exist.
    /// The population size is checked again at initialization.
    pub fn new(query: RankQuery, r: usize) -> Result<Self, ConfigError> {
        Ok(Self {
            query,
            r,
            d: f64::NAN,
            answer: AnswerSet::new(),
            x: BTreeSet::new(),
            floor_d: f64::NAN,
            held: BTreeMap::new(),
            paper: false,
            reinits: 0,
            expansions: 0,
            full_broadcasts: 0,
        })
    }

    /// The paper's RTP: every source carries `R` itself, so every
    /// redeployment is a broadcast. The reference bill the figure binaries
    /// reproduce and the scoped deployment is compared against.
    ///
    /// It does **not** keep Definition 1 in every run. When a Case-3
    /// overflow's probe of `X` finds members already outside `R` (their
    /// reports still queued), the candidates' midpoint can come out wider
    /// than `R`. [`Rtp::new`] then rebuilds `A`, `X` and `R` from the
    /// ranked view; this deployment broadcasts the wider ball over the
    /// candidates anyway, so a source inside the new ball but outside the
    /// candidates goes untracked. On random walks that is rare: 9 of 3,600
    /// projected 2-D k-NN runs, and 4 of 1,000 synthetic 1-D runs of
    /// `knn(500, 3)` with r = 2 (n = 60, horizon 200, seeds 0–999). It
    /// stays because the figures and `tests/rtp_paper_pinned.rs` pin this
    /// behaviour.
    pub fn paper(query: RankQuery, r: usize) -> Result<Self, ConfigError> {
        Ok(Self { paper: true, ..Self::new(query, r)? })
    }

    /// The maximum tolerated rank `ε = k + r`.
    pub fn epsilon(&self) -> usize {
        self.query.k() + self.r
    }

    /// The query.
    pub fn query(&self) -> RankQuery {
        self.query
    }

    /// Current ball threshold `d` (key-space position of `R`).
    pub fn threshold(&self) -> f64 {
        self.d
    }

    /// The buffer set `X(t)` (streams believed inside `R`).
    pub fn x_set(&self) -> &BTreeSet<StreamId> {
        &self.x
    }

    /// Forced full re-initializations so far.
    pub fn reinits(&self) -> u64 {
        self.reinits
    }

    /// Expansion searches run so far.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Deployments that were fleet-wide broadcasts (initialization
    /// included; every deployment under [`Rtp::paper`]).
    pub fn full_broadcasts(&self) -> u64 {
        self.full_broadcasts
    }

    /// The threshold of the ball the server last deployed at `id`.
    pub fn held_bound(&self, id: StreamId) -> f64 {
        self.held.get(&id).copied().unwrap_or(self.floor_d)
    }

    /// How many sources hold a bound other than the last broadcast one.
    pub fn held_exceptions(&self) -> usize {
        self.held.len()
    }

    fn set_held(&mut self, id: StreamId, bound: f64) {
        if bound == self.floor_d {
            self.held.remove(&id);
        } else {
            self.held.insert(id, bound);
        }
    }

    fn view_key(&self, view: &ServerView, id: StreamId) -> f64 {
        self.query.space().key(view.get(id))
    }

    /// Ranks the whole view and rebuilds `A`, `X`, and `R` (Initialization
    /// steps 2–4 / Maintenance step 7).
    fn full_recompute(&mut self, entering: Option<StreamId>, ctx: &mut ServerCtx<'_>) {
        let eps = self.epsilon();
        assert!(ctx.n() > eps, "RTP requires n > k + r (= {eps}), got n = {}", ctx.n());
        self.answer = ctx.ranks(self.query.space()).top_ids(self.query.k()).into_iter().collect();
        self.deploy_bound(entering, ctx);
    }

    /// `Deploy_bound(t)`: position `R` halfway between ranks `ε` and `ε+1`
    /// (by the server's best knowledge) and deploy it.
    ///
    /// One ranked pass produces both the threshold `d` and the tracked set
    /// `X` — O(ε log n) on the indexed path.
    fn deploy_bound(&mut self, entering: Option<StreamId>, ctx: &mut ServerCtx<'_>) {
        let eps = self.epsilon();
        // One ranked pass yields both the bound position (midpoint of
        // ranks ε and ε+1) and the tracked set. X must track *exactly* the
        // streams the server believes inside the new bound: an untracked
        // believed-inside stream would be missing from the candidate set
        // of a later overflow shrink, which could then position R with
        // more than epsilon streams truly inside it — a Definition-1
        // violation.
        let top = ctx.ranks(self.query.space()).top_pairs(eps + 1);
        let d_new = (top[eps - 1].0 + top[eps].0) / 2.0;
        let x_new = top[..eps].iter().map(|&(_, id)| id).collect();
        self.deploy(d_new, x_new, entering, ctx);
    }

    /// Moves `R` to `d_new` with tracked set `x_new`, installing the new
    /// bound wherever invariants (a) and (b) of the module docs would
    /// otherwise break. `entering` is the Case-3 reporter, if any: like the
    /// old `X` members, its last report lies inside the ball it holds.
    fn deploy(
        &mut self,
        d_new: f64,
        x_new: BTreeSet<StreamId>,
        entering: Option<StreamId>,
        ctx: &mut ServerCtx<'_>,
    ) {
        let space = self.query.space();
        let d_old = std::mem::replace(&mut self.d, d_new);
        let x_old = std::mem::replace(&mut self.x, x_new);
        // Unlisted sources hold `floor_d`: a wider `R` (or no broadcast
        // yet — `floor_d` is NaN) leaves them too tight, fleet-wide.
        let scoped = !self.paper && d_new <= self.floor_d;
        if !scoped {
            self.full_broadcasts += 1;
            self.floor_d = d_new;
            self.held.clear();
            ctx.broadcast(space.ball(d_new));
            return;
        }
        let mut targets = x_old;
        targets.extend(self.x.iter().copied().chain(entering));
        if d_new > d_old {
            // Every held bound is >= d_old, so a shrink skips this scan.
            targets.extend(self.held.iter().filter(|&(_, &h)| h < d_new).map(|(&s, _)| s));
        }
        let mut installs: Vec<(StreamId, Filter)> = Vec::with_capacity(targets.len());
        for s in targets {
            // A target outside X last seen beyond `floor_d` goes back to
            // the default and leaves the exception map.
            let want = if self.x.contains(&s) || self.view_key(ctx.view(), s) <= self.floor_d {
                d_new
            } else {
                self.floor_d
            };
            if self.held_bound(s) != want {
                self.set_held(s, want);
                installs.push((s, space.ball(want)));
            }
        }
        ctx.install_many(&installs);
    }

    /// Answers a report from a source whose held bound is not `R` with one
    /// install of `R` (deployment rule 2).
    fn refresh_bound(&mut self, id: StreamId, ctx: &mut ServerCtx<'_>) {
        ctx.set_cause(Cause::BoundRecompute);
        self.set_held(id, self.d);
        ctx.install(id, self.query.space().ball(self.d));
    }

    /// Maintenance Case 2: an answer member left `R`.
    fn answer_member_left(&mut self, id: StreamId, ctx: &mut ServerCtx<'_>) {
        self.answer.remove(id);
        self.x.remove(&id);
        if self.x.len() > self.answer.len() {
            // Step 3: promote the best-ranked buffered stream.
            let best = self
                .x
                .iter()
                .filter(|s| !self.answer.contains(**s))
                .map(|&s| (self.view_key(ctx.view(), s), s))
                .min_by(|&a, &b| cmp_key(a, b))
                .expect("X - A is non-empty")
                .1;
            self.answer.insert(best);
        } else {
            self.expansion_search(ctx);
        }
    }

    /// Maintenance step 4: expanding ring search for replacement candidates.
    ///
    /// The old ranking is an [`OldRanking`]: the top `2(ε + 1)` pairs at
    /// entry, doubled only when a ring passes them. The candidate set
    /// `U(t)` is maintained *incrementally*: each ring
    /// step probes only the streams it newly covers and files them in a
    /// `(key, id)`-ordered set, so checking "does `R'` hold two candidates
    /// yet?" is a bounded range peek instead of a full re-scan of `probed`
    /// — O(n log n) worst case over the whole search, down from O(n²).
    /// Each ring's newly covered streams are probed as **one batch** fleet
    /// operation (the first ring covers `ε + 1` streams at once), so the
    /// sharded backend fans the probes out instead of round-tripping the
    /// coordinator per stream.
    fn expansion_search(&mut self, ctx: &mut ServerCtx<'_>) {
        self.expansions += 1;
        ctx.set_cause(Cause::ExpansionRing);
        let space = self.query.space();
        // The server's "old ranking scores" at entry, read lazily.
        let mut old = OldRanking::new(ctx.ranks(space), 2 * (self.epsilon() + 1));
        let n = old.total;
        let mut probed: BTreeSet<StreamId> = BTreeSet::new();
        // U(t): probed non-answer streams ordered by *current* (post-probe)
        // key. Values are frozen during resolution, so a candidate's key is
        // final once probed and the set only ever grows.
        let mut u_set: BTreeSet<(TotalKey, StreamId)> = BTreeSet::new();
        let mut covered = 0usize;
        let mut ring: Vec<StreamId> = Vec::new();

        for j in (self.epsilon() + 1)..=n {
            if j > old.len() {
                old.extend(ctx.ranks(space));
            }
            // R' reaches the old j-th ranked stream.
            let d_prime = old.pairs[j - 1].0;
            // Probe every stream the ring newly covers (streams of old rank
            // <= j, skipping answer members), in old rank order, as one
            // batch.
            ring.clear();
            while covered < j {
                let id = old.pairs[covered].1;
                covered += 1;
                if !self.answer.contains(id) && probed.insert(id) {
                    ring.push(id);
                }
            }
            // Rings after the first cover at most one new stream — a scalar
            // probe there skips the batch scatter/gather machinery.
            match ring.as_slice() {
                [] => {}
                [id] => {
                    ctx.probe(*id);
                }
                _ => ctx.probe_many(&ring),
            }
            for &id in &ring {
                u_set.insert((TotalKey(space.key(ctx.view().get(id))), id));
            }
            // Does R' now hold at least two candidates? Peek at the two
            // best entries instead of re-filtering the whole set.
            let within = u_set.range(..=(TotalKey(d_prime), StreamId(u32::MAX)));
            if within.clone().take(2).count() >= 2 {
                let u: Vec<(f64, StreamId)> = within.map(|&(TotalKey(k), id)| (k, id)).collect();
                // Refresh the surviving answer members too: the rebuilt
                // answer and bound below must rank fresh values against
                // fresh values, or a stale answer member could end up
                // outside the redeployed bound without ever sync-reporting.
                let survivors: Vec<StreamId> =
                    self.answer.iter().filter(|&m| probed.insert(m)).collect();
                ctx.probe_many(&survivors);
                // Step 4(iv)(a-b), strengthened: rebuild A as the k best
                // among the refreshed candidates (surviving answer members
                // plus the ring candidates), so every member of A ranks
                // within the believed-inside set of the new bound.
                let mut cand: Vec<(f64, StreamId)> = self
                    .answer
                    .iter()
                    .chain(u.iter().map(|&(_, id)| id))
                    .map(|id| (self.view_key(ctx.view(), id), id))
                    .collect();
                cand.sort_by(|&a, &b| cmp_key(a, b));
                self.answer = cand.iter().take(self.query.k()).map(|&(_, s)| s).collect();
                // Step 4(iv)(c): redeploy the bound (also rebuilds X as the
                // believed-inside set, which contains A by construction).
                self.deploy_bound(None, ctx);
                return;
            }
        }
        // Step 5: nothing found — re-run Initialization.
        self.reinits += 1;
        ctx.set_cause(Cause::ReinitStorm);
        ctx.probe_all();
        self.full_recompute(None, ctx);
    }

    /// Maintenance Case 3: a stream entered `R`.
    fn stream_entered(&mut self, id: StreamId, ctx: &mut ServerCtx<'_>) {
        if self.x.len() < self.epsilon() {
            // Step 6: absorb (free when the source already holds `R`).
            self.x.insert(id);
            if self.held_bound(id) != self.d {
                self.refresh_bound(id, ctx);
            }
            return;
        }
        // Step 7: X would overflow — probe X in one batch, keep the best ε
        // of X ∪ {id}, and shrink R between the candidate ranks ε and ε+1.
        ctx.set_cause(Cause::OverflowShrink);
        let members: Vec<StreamId> = self.x.iter().copied().collect();
        ctx.probe_many(&members);
        let mut candidates: Vec<(f64, StreamId)> = self
            .x
            .iter()
            .copied()
            .chain(std::iter::once(id))
            .map(|s| (self.view_key(ctx.view(), s), s))
            .collect();
        candidates.sort_by(|&a, &b| cmp_key(a, b));
        let eps = self.epsilon();
        debug_assert_eq!(candidates.len(), eps + 1);
        let d_new = (candidates[eps - 1].0 + candidates[eps].0) / 2.0;
        if d_new > self.d && !self.paper {
            // Not a shrink: the probe found members outside R (their own
            // reports are still queued), so a source beyond the candidates
            // may be believed inside the wider ball, and a scoped install
            // would leave it there untracked. Rank the whole view instead.
            return self.full_recompute(Some(id), ctx);
        }
        self.answer = candidates.iter().take(self.query.k()).map(|&(_, s)| s).collect();
        let x_new = candidates.iter().take(eps).map(|&(_, s)| s).collect();
        self.deploy(d_new, x_new, Some(id), ctx);
    }

    /// Rejects a decoded held-bound ledger that breaks invariants (a)/(b)
    /// of the module docs: a recovered server would trust it to stay
    /// silent.
    fn check_ledger(&self) -> asf_persist::Result<()> {
        let (d, floor_d) = (self.d, self.floor_d);
        // Both are NaN exactly until initialization.
        let infinite = d.is_infinite() || floor_d.is_infinite();
        if d.is_nan() != floor_d.is_nan() || infinite || floor_d < d {
            return Err(PersistError::corrupt("RTP bounds are not finite with floor >= d"));
        }
        for (id, &h) in &self.held {
            let conservative = if self.x.contains(id) { h == d } else { h >= d };
            if !h.is_finite() || !conservative {
                return Err(PersistError::corrupt("held bound breaks the RTP ledger invariant"));
            }
        }
        if floor_d != d && self.x.iter().any(|id| !self.held.contains_key(id)) {
            return Err(PersistError::corrupt("an X member holds a bound other than d"));
        }
        Ok(())
    }
}

impl Protocol for Rtp {
    fn name(&self) -> &'static str {
        "RTP"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        self.full_recompute(None, ctx);
    }

    fn on_update(&mut self, id: StreamId, value: f64, ctx: &mut ServerCtx<'_>) {
        let key = self.query.space().key(value);
        let inside = key <= self.d;
        let in_a = self.answer.contains(id);
        let in_x = self.x.contains(&id);
        match (in_a, in_x, inside) {
            (true, _, false) => self.answer_member_left(id, ctx),
            (false, true, false) => {
                // Case 1: buffered non-answer stream left R.
                self.x.remove(&id);
            }
            (false, false, true) => self.stream_entered(id, ctx),
            // Entered the wider ball it holds but not R: no change to A/X.
            (false, false, false) if key <= self.held_bound(id) => self.refresh_bound(id, ctx),
            // Stale races across bound redeployments within one resolution
            // step; the view is already refreshed, nothing else to do.
            _ => {}
        }
    }

    fn answer(&self) -> AnswerSet {
        self.answer.clone()
    }

    asf_persist::persist!(fn save_state, load_state {
        d,
        answer,
        x,
        reinits,
        expansions,
        full_broadcasts,
        floor_d,
        held,
    } check Rtp::check_ledger);

    fn rank_space(&self) -> Option<RankSpace> {
        Some(self.query.space())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::workload::UpdateEvent;

    fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
        UpdateEvent { time: t, stream: StreamId(s), value: v }
    }

    /// Figure 6 layout: a k-NN query with k = 2, r = 2 over streams spread
    /// around q = 100.
    fn fig6_engine() -> Engine<Rtp> {
        fig6_with(Rtp::new)
    }

    fn fig6_with(make: fn(RankQuery, usize) -> Result<Rtp, ConfigError>) -> Engine<Rtp> {
        // distances from q=100: S0:5, S1:10, S2:20, S3:30, S4:45, S5:60, S6:80
        let initial = vec![105.0, 90.0, 120.0, 70.0, 145.0, 40.0, 180.0];
        let query = RankQuery::knn(100.0, 2).unwrap();
        let mut engine = Engine::new(&initial, make(query, 2).unwrap());
        engine.initialize();
        engine
    }

    /// The held-bound ledger matches the fleet and keeps invariants (a)/(b).
    fn assert_ledger_exact(engine: &Engine<Rtp>) {
        let v = crate::oracle::rtp_held_bound_violation(engine.protocol(), engine.fleet());
        assert!(v.is_none(), "{}", v.unwrap());
    }

    /// A 1-NN query at q = 0 with r = 1 (ε = 2) over keys 1, 2, 10, 20, 30,
    /// 40, 50, 60, driven to a state with a wide broadcast floor (25), a
    /// tight `R` (15.5) and three sources parked in the annulus between:
    /// X = {S2: 10, S4: 15}, A = {S2}; S5 (16) and S6 (24) hold 15.5, S3
    /// (20) holds 17.5; S7, S1, S0 (60, 70, 100) hold the floor.
    fn annulus_engine() -> Engine<Rtp> {
        let initial = vec![1.0, 2.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0];
        let query = RankQuery::knn(0.0, 1).unwrap();
        let mut engine = Engine::new(&initial, Rtp::new(query, 1).unwrap());
        engine.initialize();
        // Empty X; the expansion lands between S3 (20) and S4 (30), wider
        // than the initial floor of 6: a second broadcast.
        engine.apply_event(ev(1.0, 1, 70.0));
        engine.apply_event(ev(2.0, 0, 100.0));
        assert_eq!(engine.protocol().threshold(), 25.0);
        assert_eq!(engine.protocol().full_broadcasts(), 2);
        // Two overflow shrinks (S3, then S5 dropped) and one annulus report.
        engine.apply_event(ev(3.0, 4, 15.0));
        engine.apply_event(ev(4.0, 5, 16.0));
        engine.apply_event(ev(5.0, 6, 24.0));
        let p = engine.protocol();
        assert_eq!(p.threshold(), 15.5);
        assert_eq!(p.x_set().iter().map(|s| s.0).collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(p.held_exceptions(), 5);
        assert_ledger_exact(&engine);
        engine
    }

    #[test]
    fn initialization_sets_a_x_and_bound() {
        let engine = fig6_engine();
        let p = engine.protocol();
        // A = 2 nearest {S0, S1}; X = 4 nearest {S0..S3}; d between ranks
        // 4 (S3, d=30) and 5 (S4, d=45) = 37.5.
        assert_eq!(engine.answer().iter().collect::<Vec<_>>(), vec![StreamId(0), StreamId(1)]);
        assert_eq!(p.x_set().len(), 4);
        assert!((p.threshold() - 37.5).abs() < 1e-12);
        // Cost: 2n probes + n broadcast = 21.
        assert_eq!(engine.ledger().total(), 21);
    }

    #[test]
    fn case1_x_member_leaving_is_one_message() {
        let mut engine = fig6_engine();
        let base = engine.ledger().total();
        // S3 (in X, not in A) moves far away: crosses R.
        engine.apply_event(ev(1.0, 3, 0.0));
        assert_eq!(engine.ledger().total(), base + 1);
        assert!(!engine.protocol().x_set().contains(&StreamId(3)));
        assert_eq!(engine.answer().len(), 2);
    }

    #[test]
    fn case2_promotes_from_x() {
        let mut engine = fig6_engine();
        let base = engine.ledger().total();
        // S0 (answer) leaves; S2 (d=20) is the best X - A member.
        engine.apply_event(ev(1.0, 0, 300.0));
        assert_eq!(engine.ledger().total(), base + 1, "promotion costs only the report");
        let a = engine.answer();
        assert!(a.contains(StreamId(1)) && a.contains(StreamId(2)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn case3_enters_free_while_x_below_epsilon() {
        let mut engine = fig6_engine();
        // Empty one X slot first.
        engine.apply_event(ev(1.0, 3, 0.0));
        let base = engine.ledger().total();
        // S5 (d=60) moves to d=35, inside R (37.5).
        engine.apply_event(ev(2.0, 5, 135.0));
        assert_eq!(engine.ledger().total(), base + 1);
        assert!(engine.protocol().x_set().contains(&StreamId(5)));
    }

    #[test]
    fn case3_overflow_shrinks_bound() {
        let mut engine = fig6_engine();
        let d_before = engine.protocol().threshold();
        let base = engine.ledger().total();
        // X is full (4 members). S5 moves inside: overflow path.
        engine.apply_event(ev(1.0, 5, 135.0)); // d = 35 < 37.5
        let p = engine.protocol();
        assert!(p.threshold() < d_before, "R must shrink");
        assert_eq!(p.x_set().len(), 4, "X keeps the best epsilon members");
        // The farthest candidate (S4-was-S3? -> S3 at d=30 vs S5 at 35) --
        // candidates were S0(5) S1(10) S2(20) S3(30) S5(35): drop S5.
        assert!(!p.x_set().contains(&StreamId(5)));
        // Cost: report + 2|X| probes + an install at the ε + 1 candidates
        // = 1 + 8 + 5; S4 and S6 keep the wider ball of the broadcast.
        assert_eq!(engine.ledger().total(), base + 1 + 8 + 5);
        assert_eq!(p.held_exceptions(), 5);
        assert_eq!(p.held_bound(StreamId(5)), p.threshold(), "the dropped candidate is reset");
        assert_eq!(p.held_bound(StreamId(4)), d_before);
        assert_eq!(p.full_broadcasts(), 1, "only the initialization was a broadcast");
        assert_ledger_exact(&engine);
    }

    #[test]
    fn case3_overflow_broadcasts_under_the_paper_deployment() {
        let mut engine = fig6_with(Rtp::paper);
        let base = engine.ledger().total();
        engine.apply_event(ev(1.0, 5, 135.0));
        let p = engine.protocol();
        assert!((p.threshold() - 32.5).abs() < 1e-12);
        // Cost: report + 2|X| probes + n broadcast = 1 + 8 + 7.
        assert_eq!(engine.ledger().total(), base + 1 + 8 + 7);
        assert_eq!((p.held_exceptions(), p.full_broadcasts()), (0, 2));
        assert_ledger_exact(&engine);
    }

    #[test]
    fn annulus_report_costs_one_install_and_leaves_a_and_x_alone() {
        let mut engine = fig6_engine();
        engine.apply_event(ev(1.0, 5, 135.0)); // shrink to 32.5; S4 keeps 37.5
        let (answer, x) = (engine.answer(), engine.protocol().x_set().clone());
        let base = engine.ledger().total();
        // S4 (d=45) enters the ball it holds (37.5) but not R (32.5).
        let refreshes = engine.telemetry().causes().total(Cause::BoundRecompute);
        engine.apply_event(ev(2.0, 4, 135.0));
        assert_eq!(engine.ledger().total(), base + 2, "report + one install");
        assert_eq!((engine.answer(), engine.protocol().x_set()), (answer, &x));
        // The install is billed as a bound refresh, not as the report.
        assert_eq!(engine.telemetry().causes().total(Cause::BoundRecompute), refreshes + 1);
        assert_eq!(engine.protocol().held_bound(StreamId(4)), 32.5);
        assert_ledger_exact(&engine);
        // Holding R itself it is now silent on both sides of the old ball...
        engine.apply_event(ev(3.0, 4, 133.0));
        engine.apply_event(ev(4.0, 4, 150.0));
        engine.apply_event(ev(5.0, 4, 136.0));
        assert_eq!(engine.ledger().total(), base + 2);
        // ...until it crosses R (overflow: report + 8 probes + 5 installs).
        engine.apply_event(ev(6.0, 4, 125.0));
        assert_eq!(engine.ledger().total(), base + 2 + 14);
        assert!(engine.protocol().x_set().contains(&StreamId(4)));
        assert_ledger_exact(&engine);
    }

    #[test]
    fn absorbing_a_stale_bound_source_costs_one_install() {
        let mut engine = fig6_engine();
        engine.apply_event(ev(1.0, 5, 135.0)); // shrink to 32.5; S4 keeps 37.5
        engine.apply_event(ev(2.0, 3, 0.0)); // Case 1 frees an X slot
        let base = engine.ledger().total();
        // S4 enters R with the wide ball: absorbed, and given R so that it
        // reports when it leaves.
        engine.apply_event(ev(3.0, 4, 125.0));
        assert_eq!(engine.ledger().total(), base + 2, "report + one install");
        assert_eq!(engine.telemetry().causes().total(Cause::BoundRecompute), 1);
        assert!(engine.protocol().x_set().contains(&StreamId(4)));
        assert_ledger_exact(&engine);
        engine.apply_event(ev(4.0, 4, 134.0)); // leaves R inside the old ball
        assert_eq!(engine.ledger().total(), base + 3);
        assert!(!engine.protocol().x_set().contains(&StreamId(4)));
        assert_ledger_exact(&engine);
    }

    #[test]
    fn scoped_expansion_installs_only_at_tighter_bound_holders() {
        let mut engine = annulus_engine();
        // Silent drift inside the annulus, then X drains and the answer
        // member leaves: the expansion search runs.
        engine.apply_event(ev(6.0, 3, 18.0));
        engine.apply_event(ev(7.0, 6, 23.0));
        engine.apply_event(ev(8.0, 4, 200.0));
        let base = engine.ledger().total();
        engine.apply_event(ev(9.0, 2, 300.0));
        let p = engine.protocol();
        assert_eq!(p.expansions(), 2);
        // The ring probes S5, S3, S6 (16, 18, 23): R moves out to 20.5,
        // still inside the floor of 25.
        assert_eq!(p.threshold(), 20.5);
        assert_eq!(p.x_set().iter().map(|s| s.0).collect::<Vec<_>>(), vec![3, 5]);
        assert_eq!(p.full_broadcasts(), 2, "no new broadcast");
        // Cost: report + 3 ring probes + installs at exactly the five
        // sources holding less than 20.5; S7, S1, S0 keep the floor.
        assert_eq!(engine.ledger().total(), base + 1 + 6 + 5);
        // S2 and S4, last seen beyond the floor, went back to it.
        assert_eq!((p.held_bound(StreamId(2)), p.held_bound(StreamId(4))), (25.0, 25.0));
        assert_eq!(p.held_bound(StreamId(6)), 20.5);
        assert_eq!(p.held_exceptions(), 3);
        assert_ledger_exact(&engine);
    }

    #[test]
    fn expansion_beyond_the_floor_falls_back_to_one_broadcast() {
        let mut engine = fig6_engine();
        engine.apply_event(ev(1.0, 5, 135.0)); // shrink: five exceptions
        engine.apply_event(ev(2.0, 2, 250.0)); // Case 1
        engine.apply_event(ev(3.0, 3, 260.0)); // Case 1
        let base = engine.ledger().total();
        engine.apply_event(ev(4.0, 0, 350.0)); // Case 2, X - A empty
        let p = engine.protocol();
        // R lands between S6 (80) and S2 (150), wider than the floor 37.5.
        assert_eq!(p.threshold(), 115.0);
        // Cost: report + 4 ring probes + survivor probe + n broadcast.
        assert_eq!(engine.ledger().total(), base + 1 + 8 + 2 + 7);
        assert_eq!((p.held_exceptions(), p.full_broadcasts()), (0, 2));
        assert_eq!(p.held_bound(StreamId(5)), 115.0);
        assert_ledger_exact(&engine);
    }

    #[test]
    fn overflow_that_is_not_a_shrink_reranks_the_view() {
        // 1-NN at q = 0, r = 2 (ε = 3); keys are the values.
        let initial = vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 40.0, 50.0];
        let query = RankQuery::knn(0.0, 1).unwrap();
        let mut engine = Engine::new(&initial, Rtp::new(query, 2).unwrap());
        engine.initialize();
        engine.apply_event(ev(1.0, 1, 70.0)); // Case 1
        engine.apply_event(ev(2.0, 2, 80.0)); // Case 1
        let base = engine.ledger().total();
        // Outside R = ball(6.5), all of this is silent.
        for (s, v) in [(5, 300.0), (6, 400.0), (7, 500.0), (1, 30.0)] {
            engine.apply_event(ev(3.0, s, v));
        }
        assert_eq!(engine.ledger().total(), base);
        // The answer leaves. The ring probes S3..S6 (10, 20, 300, 400), so
        // the ranked view puts the stale S7 (50) into X and R at 60: a
        // broadcast, which S1 (truly 30, inside) and S7 (truly 500,
        // outside) both answer with a sync-report — S1's first. Its
        // overflow probe finds S7 at 500 and the candidates' midpoint at
        // 265: wider than R, with S2 (80) and S0 (100) believed inside it
        // and not among the candidates.
        engine.apply_event(ev(4.0, 0, 100.0));
        let p = engine.protocol();
        // Ranked from the view instead: R between S1 (30) and S2 (80).
        assert_eq!(p.threshold(), 55.0);
        assert_eq!(p.x_set().iter().map(|s| s.0).collect::<Vec<_>>(), vec![1, 3, 4]);
        assert_eq!(engine.answer().iter().collect::<Vec<_>>(), vec![StreamId(3)]);
        // Cost: report + 4 ring probes + broadcast + 2 sync-reports + 3
        // overflow probes + installs at the new X; S7 keeps the floor its
        // last report is beyond, and its queued report is a no-op.
        assert_eq!(engine.ledger().total(), base + 1 + 8 + 8 + 2 + 6 + 3);
        assert_eq!((p.full_broadcasts(), p.held_exceptions()), (2, 3));
        assert_ledger_exact(&engine);
    }

    /// Protocol-state bytes in `save_state`'s layout (no answer members).
    fn state_bytes(d: f64, x: &[u32], floor_d: f64, held_len: u64, held: &[(u32, f64)]) -> Vec<u8> {
        let mut w = asf_persist::StateWriter::new();
        w.put_f64(d);
        w.put_u64(0);
        w.put_u64(x.len() as u64);
        x.iter().for_each(|&id| w.put_u32(id));
        (0..3).for_each(|_| w.put_u64(0));
        w.put_f64(floor_d);
        w.put_u64(held_len);
        for &(id, h) in held {
            w.put_u32(id);
            w.put_f64(h);
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> asf_persist::Result<Rtp> {
        let mut p = Rtp::new(RankQuery::knn(0.0, 1).unwrap(), 1).unwrap();
        let mut r = asf_persist::StateReader::new(bytes);
        p.load_state(&mut r)?;
        r.finish()?;
        Ok(p)
    }

    #[test]
    fn saved_ledger_round_trips_and_every_truncation_is_an_error() {
        let engine = annulus_engine();
        let mut w = asf_persist::StateWriter::new();
        engine.protocol().save_state(&mut w);
        let bytes = w.into_bytes();
        let back = load(&bytes).unwrap();
        let p = engine.protocol();
        assert_eq!(back.held, p.held);
        assert_eq!((back.d, back.floor_d, &back.x), (p.d, p.floor_d, &p.x));
        assert_eq!(back.answer(), p.answer());
        assert_eq!(back.full_broadcasts(), 2);
        for cut in 0..bytes.len() {
            assert!(load(&bytes[..cut]).is_err(), "truncation at {cut} was accepted");
        }
        // A protocol that was never initialized round-trips too.
        let mut w = asf_persist::StateWriter::new();
        Rtp::new(p.query(), 1).unwrap().save_state(&mut w);
        assert!(load(&w.into_bytes()).unwrap().threshold().is_nan());
    }

    #[test]
    fn hostile_ledger_bytes_are_rejected_not_trusted() {
        let ok = [(2, 10.0), (5, 12.0), (7, 10.0)];
        assert!(load(&state_bytes(10.0, &[2, 7], 20.0, 3, &ok)).is_ok());
        let bad: [(&str, Vec<u8>); 11] = [
            ("length beyond the payload", state_bytes(10.0, &[], 20.0, u64::MAX / 2, &ok)),
            ("non-finite floor", state_bytes(10.0, &[], f64::INFINITY, 0, &[])),
            ("non-finite d", state_bytes(f64::NEG_INFINITY, &[], 20.0, 0, &[])),
            ("NaN floor under a set d", state_bytes(10.0, &[], f64::NAN, 0, &[])),
            ("floor tighter than d", state_bytes(10.0, &[], 9.0, 0, &[])),
            ("non-finite held bound", state_bytes(10.0, &[], 20.0, 1, &[(3, f64::INFINITY)])),
            ("NaN held bound", state_bytes(10.0, &[], 20.0, 1, &[(3, f64::NAN)])),
            ("duplicate id", state_bytes(10.0, &[], 20.0, 2, &[(3, 12.0), (3, 12.0)])),
            ("descending id", state_bytes(10.0, &[], 20.0, 2, &[(4, 12.0), (3, 12.0)])),
            ("X member not holding d", state_bytes(10.0, &[2], 20.0, 1, &[(2, 12.0)])),
            ("outsider tighter than d", state_bytes(10.0, &[], 20.0, 1, &[(3, 9.0)])),
        ];
        for (what, bytes) in bad {
            assert!(load(&bytes).is_err(), "{what} was accepted");
        }
        // An unlisted X member holds the floor, which must then equal d.
        assert!(load(&state_bytes(10.0, &[2], 20.0, 0, &[])).is_err());
        assert!(load(&state_bytes(10.0, &[2], 10.0, 0, &[])).is_ok());
    }

    #[test]
    fn old_ranking_extended_past_its_snapshot_equals_the_full_snapshot() {
        // Between extensions, re-key some snapshot members — what the
        // ring probes do — and the extended snapshot must still be the
        // full ranking taken at entry by sorting the view, off the index
        // at 1–4 parts. Keys tie often.
        let mut rng = simkit::SimRng::seed_from_u64(0x01D_4A4C);
        let space = RankSpace::Knn { q: 500.0 };
        let value = |rng: &mut simkit::SimRng| (rng.index(40) * 25) as f64;
        for case in 0..60 {
            let n = 2 + rng.index(200);
            let mut view = ServerView::new(n);
            for i in 0..n {
                view.set(StreamId(i as u32), value(&mut rng));
            }
            let mut forest = RankForest::new(space, n, 1 + rng.index(4));
            forest.rebuild_from_view(&view);
            let mut full: Vec<(f64, StreamId)> =
                view.iter_known().map(|(id, v)| (space.key(v), id)).collect();
            full.sort_by(|&a, &b| cmp_key(a, b));
            let first = 1 + rng.index(12);
            let mut old = OldRanking::new(&forest, first);
            while old.len() < n {
                for _ in 0..rng.index(old.len() + 1) {
                    let (_, id) = old.pairs[rng.index(old.len())];
                    let v = value(&mut rng);
                    view.set(id, v);
                    forest.update(id, v);
                }
                old.extend(&forest);
            }
            assert_eq!(old.pairs, full, "case {case}");
        }
    }

    #[test]
    fn expansion_ring_past_the_first_snapshot_matches_the_full_ranking() {
        // 1-NN at q = 0 with r = 1 (ε = 2, a first snapshot of 6 pairs)
        // over keys 1..=40. S2..S25 drift far away silently, X drains, and
        // the answer leaves: the ring must walk the stale view past ranks
        // 6, 12 and 24 until S26 and S27 (27, 28) are the two candidates,
        // exactly as a search over the full ranking does.
        let initial: Vec<f64> = (1..=40).map(f64::from).collect();
        let query = RankQuery::knn(0.0, 1).unwrap();
        let mut engine = Engine::new(&initial, Rtp::new(query, 1).unwrap());
        engine.initialize();
        assert_eq!(engine.protocol().threshold(), 2.5);
        for s in 2..26u32 {
            engine.apply_event(ev(1.0, s, 1000.0 + f64::from(s)));
        }
        engine.apply_event(ev(2.0, 1, 500.0)); // Case 1
        let base = engine.ledger().total();
        engine.apply_event(ev(3.0, 0, 600.0)); // Case 2, X - A empty
        let p = engine.protocol();
        assert_eq!((p.expansions(), p.reinits()), (1, 0));
        assert_eq!(engine.answer().iter().collect::<Vec<_>>(), vec![StreamId(26)]);
        assert_eq!(p.x_set().iter().map(|s| s.0).collect::<Vec<_>>(), vec![26, 27]);
        // Between S27 (28) and S28 (29), wider than the floor: a broadcast.
        assert_eq!(p.threshold(), 28.5);
        // Cost: report + 26 ring probes (S2..=S27, old ranks 1..=26) +
        // the broadcast.
        assert_eq!(engine.ledger().total(), base + 1 + 2 * 26 + 40);
        assert_ledger_exact(&engine);
    }

    #[test]
    fn case2_expansion_search_when_x_exhausted() {
        let mut engine = fig6_engine();
        // Drain X - A: S2 and S3 leave R.
        engine.apply_event(ev(1.0, 2, 250.0)); // Case 1
        engine.apply_event(ev(2.0, 3, 260.0)); // Case 1
        assert_eq!(engine.protocol().x_set().len(), 2);
        // Now an answer member leaves: X - A is empty -> expansion search.
        engine.apply_event(ev(3.0, 0, 350.0));
        let p = engine.protocol();
        assert_eq!(p.expansions(), 1);
        let a = engine.answer();
        assert_eq!(a.len(), 2, "answer restored to k members");
        assert!(a.contains(StreamId(1)), "surviving member kept");
        // All current answer members must rank within epsilon of the truth.
        let truth = crate::rank::rank_values(
            RankSpace::Knn { q: 100.0 },
            (0..7).map(|i| (StreamId(i), engine.fleet().true_value(StreamId(i)))),
        );
        for member in a.iter() {
            let rank = truth.iter().position(|&s| s == member).unwrap() + 1;
            assert!(rank <= 4, "member {member} ranks {rank} > epsilon");
        }
    }

    #[test]
    fn topk_variant_works() {
        // Top-2 with r = 1 over five streams.
        let initial = vec![10.0, 50.0, 30.0, 20.0, 40.0];
        let query = RankQuery::top_k(2).unwrap();
        let mut engine = Engine::new(&initial, Rtp::new(query, 1).unwrap());
        engine.initialize();
        // Best 2: S1 (50), S4 (40); X adds S2 (30); bound between 30 and 20
        // -> threshold in key space -25 => region v >= 25.
        let a = engine.answer();
        assert!(a.contains(StreamId(1)) && a.contains(StreamId(4)));
        assert_eq!(engine.protocol().x_set().len(), 3);

        // S0 rises to 60: enters R (Case 3 overflow since |X| = 3 = eps).
        engine.apply_event(ev(1.0, 0, 60.0));
        let a = engine.answer();
        assert!(a.contains(StreamId(0)) && a.contains(StreamId(1)));
    }

    #[test]
    fn rejects_population_smaller_than_epsilon() {
        let initial = vec![1.0, 2.0, 3.0];
        let query = RankQuery::top_k(2).unwrap();
        let mut engine = Engine::new(&initial, Rtp::new(query, 1).unwrap());
        // eps = 3 = n: needs n > eps.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.initialize();
        }));
        assert!(result.is_err());
    }
}
