//! FT-RP — fraction-based tolerance for k-NN/top-k queries
//! (paper §5.2.2–5.2.3).
//!
//! The k-NN query is transformed to a range query over the bound `R`
//! enclosing the k nearest objects, and FT-NRP machinery runs over `R` —
//! but with the **internal** tolerances `(ρ⁺, ρ⁻)` of Equation 16 instead
//! of the user's `(ε⁺, ε⁻)`: silent crossings of `R` manufacture false
//! positives *and* false negatives (Figure 8), so the budgets must be
//! discounted. `⌊kρ⁺⌋` answer streams get wildcard filters, `⌊kρ⁻⌋`
//! non-answer streams get suppress filters.
//!
//! Unlike ZT-RP, `R` is **not** recomputed when objects cross it; it is an
//! estimate that is only rebuilt when the answer size leaves the window
//! `k(1−ε⁻) ≤ |A(t)| ≤ k/(1−ε⁺)` (Equations 7 and 9) — i.e. when `R` has
//! become "too tight" or "too loose".

use std::collections::BTreeSet;

use simkit::SimRng;
use streamnet::{Filter, StreamId};

use crate::answer::AnswerSet;
use crate::error::ConfigError;
use crate::protocol::heuristics::SelectionHeuristic;
use crate::protocol::{Protocol, ServerCtx};
use crate::query::{RankQuery, RankSpace};
use crate::tolerance::{derive_rho, FractionTolerance, RhoPair, RhoPolicy};

/// Tunables beyond the paper's required parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FtRpConfig {
    /// Placement of the special silent filters.
    pub heuristic: SelectionHeuristic,
    /// Where on the Equation-16 line to sit (see `bin/ablation_rho`).
    pub rho_policy: RhoPolicy,
}

/// The fraction-tolerant rank-query protocol.
pub struct FtRp {
    query: RankQuery,
    tol: FractionTolerance,
    rho: RhoPair,
    config: FtRpConfig,
    rng: SimRng,
    /// Current ball threshold defining `R`.
    d: f64,
    answer: AnswerSet,
    count: u64,
    fp_filters: Vec<StreamId>,
    fn_filters: Vec<StreamId>,
    reinits: u64,
    fix_errors: u64,
}

impl FtRp {
    /// Creates FT-RP; `seed` drives the random selection heuristic.
    ///
    /// Requires (checked at initialization) `n > k`.
    pub fn new(
        query: RankQuery,
        tol: FractionTolerance,
        config: FtRpConfig,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        let rho = derive_rho(&tol, config.rho_policy)?;
        Ok(Self {
            query,
            tol,
            rho,
            config,
            rng: SimRng::seed_from_u64(seed),
            d: f64::NAN,
            answer: AnswerSet::new(),
            count: 0,
            fp_filters: Vec::new(),
            fn_filters: Vec::new(),
            reinits: 0,
            fix_errors: 0,
        })
    }

    /// The query.
    pub fn query(&self) -> RankQuery {
        self.query
    }

    /// The internal `(ρ⁺, ρ⁻)` pair in use.
    pub fn rho(&self) -> RhoPair {
        self.rho
    }

    /// Current ball threshold.
    pub fn threshold(&self) -> f64 {
        self.d
    }

    /// Live wildcard filters (`n⁺`).
    pub fn n_plus(&self) -> usize {
        self.fp_filters.len()
    }

    /// Live suppress filters (`n⁻`).
    pub fn n_minus(&self) -> usize {
        self.fn_filters.len()
    }

    /// Bound recomputations forced by the answer-size window.
    pub fn reinits(&self) -> u64 {
        self.reinits
    }

    /// `Fix_Error` executions.
    pub fn fix_errors(&self) -> u64 {
        self.fix_errors
    }

    fn region(&self) -> Filter {
        self.query.space().ball(self.d)
    }

    fn in_region(&self, v: f64) -> bool {
        self.query.space().in_ball(v, self.d)
    }

    /// Finds `R` and deploys filters from a fully-known view (§5.2.2).
    fn deploy(&mut self, ctx: &mut ServerCtx<'_>) {
        let k = self.query.k();
        assert!(ctx.n() > k, "FT-RP requires n > k, got n = {}", ctx.n());
        self.answer.clear();
        self.fp_filters.clear();
        self.fn_filters.clear();
        self.count = 0;

        let n_plus = (k as f64 * self.rho.rho_plus).floor() as usize;
        let n_minus = (k as f64 * self.rho.rho_minus).floor() as usize;

        // No special-filter budgets (small k·ρ, e.g. zero tolerance): every
        // stream gets the *same* region filter, which is exactly one
        // broadcast — O(k log n) coordinator work plus a shard-parallel
        // fleet-wide install, instead of ranking all n streams and building
        // an n-entry install plan. This is the reinit-storm hot path.
        if n_plus == 0 && n_minus == 0 {
            let top = ctx.ranks(self.query.space()).top_pairs(k + 1);
            self.d = (top[k - 1].0 + top[k].0) / 2.0;
            self.answer = top[..k].iter().map(|&(_, id)| id).collect();
            ctx.broadcast(self.region());
            return;
        }

        // One ranked pass produces both R's position and the inside/outside
        // split (the full order is needed — every stream gets a filter, in
        // rank order).
        let ranks = ctx.ranks(self.query.space());
        let ranked = ranks.ordered_ids();
        self.d = ranks.midpoint(k);
        let inside: Vec<StreamId> = ranked[..k].to_vec();
        let outside: Vec<StreamId> = ranked[k..].to_vec();
        self.answer = inside.iter().copied().collect();

        // Boundary distance in key space: |key(v) - d|.
        let space = self.query.space();
        let d = self.d;
        let view = ctx.view();
        let dist = |id: StreamId| (space.key(view.get(id)) - d).abs();
        self.fp_filters = self.config.heuristic.select(&inside, n_plus, dist, &mut self.rng);
        self.fn_filters = self.config.heuristic.select(&outside, n_minus, dist, &mut self.rng);

        let fp: BTreeSet<StreamId> = self.fp_filters.iter().copied().collect();
        let fn_: BTreeSet<StreamId> = self.fn_filters.iter().copied().collect();
        // One batch deployment in rank order (insiders then outsiders, as
        // the scalar loops did), queued on the deferred-op queue: the
        // engine flushes it as a single shard-parallel `install_many` when
        // this handler returns, so a reinit storm costs one scatter/gather
        // however it was triggered — and the engine's pooled queue buffer
        // replaces a fresh n-entry plan allocation per storm. Nothing reads
        // the affected view entries before the handler returns, so the
        // deferral is observation-equivalent to installing here.
        for id in inside {
            let f = if fp.contains(&id) { Filter::wildcard() } else { self.region() };
            ctx.install_later(id, f);
        }
        for id in outside {
            let f = if fn_.contains(&id) { Filter::suppress() } else { self.region() };
            ctx.install_later(id, f);
        }
    }

    /// FT-NRP's `Fix_Error`, over the region `R` instead of `[l, u]`.
    fn fix_error(&mut self, ctx: &mut ServerCtx<'_>) {
        self.fix_errors += 1;
        ctx.set_cause(asf_telemetry::Cause::FixError);
        if let Some(sy) = self.fp_filters.pop() {
            let vy = ctx.probe(sy);
            ctx.install(sy, self.region());
            if self.in_region(vy) {
                return;
            }
            self.answer.remove(sy);
        }
        if let Some(sz) = self.fn_filters.pop() {
            let vz = ctx.probe(sz);
            ctx.install(sz, self.region());
            if self.in_region(vz) {
                self.answer.insert(sz);
            }
        }
    }

    /// §5.2.3(2): when `|A|` exits the Equations-7/9 window, `R` is no
    /// longer a usable estimate — rebuild everything.
    fn answer_size_out_of_window(&self) -> bool {
        const SLOP: f64 = 1e-9;
        let sz = self.answer.len() as f64;
        let k = self.query.k();
        sz > self.tol.max_answer_size(k) + SLOP || sz < self.tol.min_answer_size(k) - SLOP
    }
}

impl Protocol for FtRp {
    fn name(&self) -> &'static str {
        "FT-RP"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        self.deploy(ctx);
    }

    fn on_update(&mut self, id: StreamId, value: f64, ctx: &mut ServerCtx<'_>) {
        if self.in_region(value) {
            if self.answer.insert(id) {
                self.count += 1;
            }
        } else if self.answer.remove(id) {
            if self.count > 0 {
                self.count -= 1;
            } else {
                self.fix_error(ctx);
            }
        }
        if self.answer_size_out_of_window() {
            self.reinits += 1;
            ctx.set_cause(asf_telemetry::Cause::ReinitStorm);
            ctx.probe_all();
            self.deploy(ctx);
        }
    }

    fn answer(&self) -> AnswerSet {
        self.answer.clone()
    }

    asf_persist::persist!(fn save_state, load_state {
        rng,
        d,
        answer,
        count,
        fp_filters,
        fn_filters,
        reinits,
        fix_errors,
    });

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

    /// 20 streams at distances 1..=20 from q = 0 (values 1..=20).
    fn initial_20() -> Vec<f64> {
        (1..=20).map(|i| i as f64).collect()
    }

    fn make(k: usize, eps: f64) -> FtRp {
        FtRp::new(
            RankQuery::knn(0.0, k).unwrap(),
            FractionTolerance::symmetric(eps).unwrap(),
            FtRpConfig { heuristic: SelectionHeuristic::Random, rho_policy: RhoPolicy::Balanced },
            11,
        )
        .unwrap()
    }

    #[test]
    fn initialization_bounds_and_budgets() {
        let mut engine = Engine::new(&initial_20(), make(10, 0.4));
        engine.initialize();
        // R between ranks 10 (d=10) and 11 (d=11).
        assert!((engine.protocol().threshold() - 10.5).abs() < 1e-12);
        assert_eq!(engine.answer().len(), 10);
        // rho balanced for eps 0.4: m = min(0.6*0.4, 0.4) = 0.24;
        // rho = 0.24*0.6/1.6 = 0.09; floor(10 * 0.09) = 0.
        // Budgets are small by design at small k — Figure 15's point.
        let p = engine.protocol();
        let expected = (10.0 * p.rho().rho_plus).floor() as usize;
        assert_eq!(p.n_plus(), expected);
        assert_eq!(p.n_minus(), expected);
    }

    #[test]
    fn r_is_not_recomputed_on_ordinary_crossings() {
        let mut engine = Engine::new(&initial_20(), make(10, 0.4));
        engine.initialize();
        let d = engine.protocol().threshold();
        let reinits = engine.protocol().reinits();
        // One stream leaves R, one enters: |A| stays inside the window
        // [6, 16.6], so R must not move.
        engine.apply_event(ev(1.0, 0, 100.0)); // d=1 -> 100, leaves
        engine.apply_event(ev(2.0, 14, 3.5)); // d=15 -> 3.5, enters
        assert_eq!(engine.protocol().threshold(), d);
        assert_eq!(engine.protocol().reinits(), reinits);
    }

    #[test]
    fn too_loose_answer_forces_recompute() {
        let mut engine = Engine::new(&initial_20(), make(10, 0.2));
        engine.initialize();
        // Window: [k(1-0.2), k/(1-0.2)] = [8, 12.5]. Push outsiders in
        // until |A| exceeds 12.
        let d = engine.protocol().threshold(); // 10.5
        assert!((d - 10.5).abs() < 1e-12);
        let mut t = 1.0;
        for s in 10..13u32 {
            // streams at d=11..13 move inside R
            engine.apply_event(ev(t, s, 1.0 + 0.1 * s as f64));
            t += 1.0;
        }
        // After the third insertion |A| = 13 > 12.5: recompute fired.
        assert!(engine.protocol().reinits() >= 1);
        assert_eq!(engine.answer().len(), 10, "recompute restores |A| = k");
        assert!(engine.protocol().threshold() < d, "R tightened around the new k nearest");
    }

    #[test]
    fn too_tight_answer_forces_recompute() {
        let mut engine = Engine::new(&initial_20(), make(10, 0.2));
        engine.initialize();
        // Window lower bound: 8. Kick answer members out until |A| < 8.
        let mut t = 1.0;
        for s in 0..3u32 {
            engine.apply_event(ev(t, s, 500.0 + s as f64));
            t += 1.0;
        }
        assert!(engine.protocol().reinits() >= 1);
        assert_eq!(engine.answer().len(), 10);
    }

    #[test]
    fn budgets_exist_at_large_k() {
        // k = 100 over 300 streams, eps = 0.3: rho = (0.21)(0.7)/1.7 ≈ 0.0865
        // -> floor(100 * 0.0865) = 8 filters of each kind.
        let initial: Vec<f64> = (1..=300).map(|i| i as f64).collect();
        let mut engine = Engine::new(&initial, {
            FtRp::new(
                RankQuery::knn(0.0, 100).unwrap(),
                FractionTolerance::symmetric(0.3).unwrap(),
                FtRpConfig::default(),
                3,
            )
            .unwrap()
        });
        engine.initialize();
        assert!(engine.protocol().n_plus() >= 8);
        assert!(engine.protocol().n_minus() >= 8);
        // Silenced streams cost nothing even when they wander.
        let silenced: Vec<StreamId> = engine
            .protocol()
            .fp_filters
            .iter()
            .chain(&engine.protocol().fn_filters)
            .copied()
            .collect();
        let base = engine.ledger().total();
        let mut t = 1.0;
        for id in silenced {
            engine.apply_event(ev(t, id.0, 10_000.0));
            t += 1.0;
        }
        assert_eq!(engine.ledger().total(), base);
    }

    #[test]
    fn zero_tolerance_recomputes_every_crossing() {
        let mut engine = Engine::new(&initial_20(), make(10, 0.0));
        engine.initialize();
        let reinits = engine.protocol().reinits();
        // Window degenerates to [10, 10]: any crossing recomputes.
        engine.apply_event(ev(1.0, 0, 100.0));
        assert_eq!(engine.protocol().reinits(), reinits + 1);
        assert_eq!(engine.answer().len(), 10);
    }
}
