//! FT-NRP — fraction-based tolerance protocol for range queries
//! (paper §5.1.1, Figure 7).
//!
//! Out of the `|A(t₀)|` initial answers, `n⁺ = ⌊|A₀|·ε⁺⌋` sources get the
//! `[-∞, ∞]` *false positive filter* (they are shut down — any error they
//! accumulate is tolerated by the false-positive budget), and of the
//! non-answers `n⁻ = ⌊|A₀|·ε⁻(1−ε⁺)/(1−ε⁻)⌋` get the `[∞, ∞]` *false
//! negative filter*. Everyone else gets the query interval `[l, u]` itself.
//!
//! Maintenance tracks a surplus counter `count` (extra correct insertions);
//! when a removal arrives with `count = 0`, correctness can no longer be
//! argued and `Fix_Error` spends a probe on a silent stream to restore it.
//!
//! Interpretation note (DESIGN.md §3.4): `Fix_Error` installs `[l, u]` on
//! the probed stream in **both** branches — the probe "uses up" the special
//! filter — matching the paper's correctness proof (its pseudocode is
//! explicit about this only for the false-negative stream `S_z`).

use std::collections::BTreeSet;

use simkit::SimRng;
use streamnet::{Filter, StreamId};

use crate::answer::AnswerSet;
use crate::error::ConfigError;
use crate::protocol::heuristics::SelectionHeuristic;
use crate::protocol::{Protocol, ServerCtx};
use crate::query::RangeQuery;
use crate::tolerance::FractionTolerance;

/// Tunables beyond the paper's required parameters.
#[derive(Clone, Copy, Debug, Default)]
pub struct FtNrpConfig {
    /// How to choose which streams receive the special silent filters
    /// (Figure 14 compares the options).
    pub heuristic: SelectionHeuristic,
    /// Re-run the Initialization phase when both special-filter budgets are
    /// exhausted ("To exploit tolerance, the Initialization Phase of FT-NRP
    /// may be run again", §5.1.1). Off by default; `bin/ablation_reinit`
    /// quantifies the trade-off.
    pub reinit_on_exhaustion: bool,
}

/// The fraction-tolerant range-query protocol.
pub struct FtNrp {
    query: RangeQuery,
    tol: FractionTolerance,
    config: FtNrpConfig,
    rng: SimRng,
    answer: AnswerSet,
    /// Surplus of Case-1 insertions over Case-2 removals since the last
    /// correct point `t_c`.
    count: u64,
    /// Streams currently holding `[-∞, ∞]` filters (all in `answer`).
    fp_filters: Vec<StreamId>,
    /// Streams currently holding `[∞, ∞]` filters (none in `answer`).
    fn_filters: Vec<StreamId>,
    /// Disabled once a re-initialization fails to mint any special filters.
    reinit_enabled: bool,
    reinits: u64,
    fix_errors: u64,
}

impl FtNrp {
    /// Creates the protocol.
    ///
    /// `seed` drives the random selection heuristic (and nothing else).
    pub fn new(
        query: RangeQuery,
        tol: FractionTolerance,
        config: FtNrpConfig,
        seed: u64,
    ) -> Result<Self, ConfigError> {
        Ok(Self {
            query,
            tol,
            config,
            rng: SimRng::seed_from_u64(seed),
            answer: AnswerSet::new(),
            count: 0,
            fp_filters: Vec::new(),
            fn_filters: Vec::new(),
            reinit_enabled: true,
            reinits: 0,
            fix_errors: 0,
        })
    }

    /// The query being maintained.
    pub fn query(&self) -> RangeQuery {
        self.query
    }

    /// Current number of live false-positive filters (`n⁺`).
    pub fn n_plus(&self) -> usize {
        self.fp_filters.len()
    }

    /// Current number of live false-negative filters (`n⁻`).
    pub fn n_minus(&self) -> usize {
        self.fn_filters.len()
    }

    /// Streams currently shut down (holding either special filter) — the
    /// basis of the paper's sensor-battery argument.
    pub fn silenced(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.fp_filters.iter().chain(self.fn_filters.iter()).copied()
    }

    /// How many times the Initialization phase has been re-run.
    pub fn reinits(&self) -> u64 {
        self.reinits
    }

    /// How many times `Fix_Error` ran.
    pub fn fix_errors(&self) -> u64 {
        self.fix_errors
    }

    /// Deploys filters from a fully-known view (assumes `probe_all` just
    /// ran). Figure 7, Initialization steps 2–5.
    fn deploy(&mut self, ctx: &mut ServerCtx<'_>) {
        self.answer.clear();
        self.fp_filters.clear();
        self.fn_filters.clear();
        self.count = 0;

        let mut inside = Vec::new();
        let mut outside = Vec::new();
        for (id, v) in ctx.view().iter_known() {
            if self.query.contains(v) {
                inside.push(id);
            } else {
                outside.push(id);
            }
        }
        self.answer = inside.iter().copied().collect();

        let n_plus = self.tol.max_false_positive_filters(inside.len());
        let n_minus = self.tol.max_false_negative_filters(inside.len());

        let q = self.query;
        let view = ctx.view();
        let dist = |id: StreamId| q.boundary_distance(view.get(id));
        self.fp_filters = self.config.heuristic.select(&inside, n_plus, dist, &mut self.rng);
        self.fn_filters = self.config.heuristic.select(&outside, n_minus, dist, &mut self.rng);

        let fp: BTreeSet<StreamId> = self.fp_filters.iter().copied().collect();
        let fn_: BTreeSet<StreamId> = self.fn_filters.iter().copied().collect();
        // One batch deployment (insiders first, like the scalar loops the
        // seed ran), queued on the deferred-op queue and flushed by the
        // engine as a single shard-parallel `install_many` at the handler
        // boundary; sync-reports queue in installation order. Nothing reads
        // the affected view entries before the handler returns, so the
        // deferral is observation-equivalent to installing here.
        for id in inside {
            let f = if fp.contains(&id) { Filter::wildcard() } else { self.query.as_filter() };
            ctx.install_later(id, f);
        }
        for id in outside {
            let f = if fn_.contains(&id) { Filter::suppress() } else { self.query.as_filter() };
            ctx.install_later(id, f);
        }
    }

    /// Figure 7, `Fix_Error`.
    fn fix_error(&mut self, ctx: &mut ServerCtx<'_>) {
        self.fix_errors += 1;
        ctx.set_cause(asf_telemetry::Cause::FixError);
        // Step 1: consume a false-positive filter if available. Popping from
        // the back means boundary-nearest placement consults the stream
        // *farthest* from the boundary first — the likeliest to still
        // satisfy the query, which lets Fix_Error quit after one probe.
        if let Some(sy) = self.fp_filters.pop() {
            let vy = ctx.probe(sy);
            ctx.install(sy, self.query.as_filter());
            if self.query.contains(vy) {
                return; // S_y is a true positive again; budgets restored.
            }
            self.answer.remove(sy);
            // Fall through to compensate via a false-negative filter.
        }
        // Step 2: consume a false-negative filter if available.
        if let Some(sz) = self.fn_filters.pop() {
            let vz = ctx.probe(sz);
            ctx.install(sz, self.query.as_filter());
            if self.query.contains(vz) {
                self.answer.insert(sz);
            }
            return;
        }
        // Both budgets exhausted: the protocol has degenerated to ZT-NRP.
        if self.config.reinit_on_exhaustion
            && self.reinit_enabled
            && self.fp_filters.is_empty()
            && self.fn_filters.is_empty()
        {
            self.reinits += 1;
            ctx.set_cause(asf_telemetry::Cause::ReinitStorm);
            ctx.probe_all();
            self.deploy(ctx);
            if self.fp_filters.is_empty() && self.fn_filters.is_empty() {
                // The answer is too small for the tolerance to mint any
                // filters; retrying every removal would thrash.
                self.reinit_enabled = false;
            }
        }
    }
}

impl Protocol for FtNrp {
    fn name(&self) -> &'static str {
        "FT-NRP"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        self.deploy(ctx);
    }

    fn on_update(&mut self, id: StreamId, value: f64, ctx: &mut ServerCtx<'_>) {
        if self.query.contains(value) {
            // Maintenance Case 1: a new satisfying stream.
            if self.answer.insert(id) {
                self.count += 1;
            }
        } else if self.answer.remove(id) {
            // Maintenance Case 2: an answer stream left the range.
            if self.count > 0 {
                self.count -= 1;
            } else {
                self.fix_error(ctx);
            }
        }
    }

    fn answer(&self) -> AnswerSet {
        self.answer.clone()
    }

    // The RNG stream drives heuristic selection; recovery must resume it
    // exactly, so the raw generator state is saved, not the seed.
    asf_persist::persist!(fn save_state, load_state {
        rng,
        answer,
        count,
        fp_filters,
        fn_filters,
        reinit_enabled,
        reinits,
        fix_errors,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::workload::UpdateEvent;
    use streamnet::MessageKind;

    fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
        UpdateEvent { time: t, stream: StreamId(s), value: v }
    }

    fn query() -> RangeQuery {
        RangeQuery::new(400.0, 600.0).unwrap()
    }

    /// 10 inside streams, 10 outside.
    fn initial_20() -> Vec<f64> {
        let mut v: Vec<f64> = (0..10).map(|i| 410.0 + 18.0 * i as f64).collect();
        v.extend((0..10).map(|i| 700.0 + 10.0 * i as f64));
        v
    }

    fn protocol(eps: f64, heuristic: SelectionHeuristic) -> FtNrp {
        FtNrp::new(
            query(),
            FractionTolerance::symmetric(eps).unwrap(),
            FtNrpConfig { heuristic, reinit_on_exhaustion: false },
            7,
        )
        .unwrap()
    }

    #[test]
    fn initialization_budgets_match_equations() {
        let initial = initial_20();
        let mut engine = Engine::new(&initial, protocol(0.25, SelectionHeuristic::Random));
        engine.initialize();
        // |A0| = 10: n+ = floor(2.5) = 2, n- = floor(10*0.25*0.75/0.75) = 2
        assert_eq!(engine.protocol().n_plus(), 2);
        assert_eq!(engine.protocol().n_minus(), 2);
        assert_eq!(engine.answer().len(), 10);
        // Cost: 2n probes + n installs.
        assert_eq!(engine.ledger().total(), 40 + 20);
        assert_eq!(engine.ledger().count(MessageKind::FilterInstall), 20);
    }

    #[test]
    fn silenced_streams_never_report() {
        let initial = initial_20();
        let mut engine = Engine::new(&initial, protocol(0.25, SelectionHeuristic::Random));
        engine.initialize();
        let silenced: Vec<StreamId> = engine.protocol().silenced().collect();
        assert_eq!(silenced.len(), 4);
        let before = engine.ledger().total();
        // Move every silenced stream far out of (or into) the range — all
        // must stay silent.
        for (i, &id) in silenced.iter().enumerate() {
            engine.apply_event(ev(1.0 + i as f64, id.0, 10_000.0));
        }
        assert_eq!(engine.ledger().total(), before);
    }

    #[test]
    fn case1_insertion_banks_a_removal() {
        let initial = initial_20();
        let mut engine = Engine::new(&initial, protocol(0.25, SelectionHeuristic::Random));
        engine.initialize();
        let base = engine.ledger().total();

        // An outside [l,u]-filtered stream enters (Case 1): +1 message.
        let outsider = (10..20)
            .map(StreamId)
            .find(|id| !engine.protocol().silenced().any(|s| s == *id))
            .unwrap();
        engine.apply_event(ev(1.0, outsider.0, 500.0));
        assert_eq!(engine.ledger().total(), base + 1);
        assert!(engine.answer().contains(outsider));

        // Now a removal with count > 0 must not trigger Fix_Error.
        let insider = (0..10)
            .map(StreamId)
            .find(|id| !engine.protocol().silenced().any(|s| s == *id))
            .unwrap();
        engine.apply_event(ev(2.0, insider.0, 900.0));
        assert_eq!(engine.ledger().total(), base + 2, "no probes expected");
        assert_eq!(engine.protocol().fix_errors(), 0);
    }

    #[test]
    fn removal_at_zero_count_triggers_fix_error() {
        let initial = initial_20();
        let mut engine = Engine::new(&initial, protocol(0.25, SelectionHeuristic::Random));
        engine.initialize();
        let n_plus_before = engine.protocol().n_plus();
        let insider = (0..10)
            .map(StreamId)
            .find(|id| !engine.protocol().silenced().any(|s| s == *id))
            .unwrap();
        engine.apply_event(ev(1.0, insider.0, 900.0));
        assert_eq!(engine.protocol().fix_errors(), 1);
        // The probed wildcard stream was still inside, so one fp filter was
        // spent and the fallthrough never reached the fn budget.
        assert_eq!(engine.protocol().n_plus(), n_plus_before - 1);
    }

    #[test]
    fn fix_error_fallthrough_consumes_fn_filter() {
        let initial = initial_20();
        let mut engine = Engine::new(&initial, protocol(0.25, SelectionHeuristic::Random));
        engine.initialize();
        // Secretly move every wildcard stream out of range (silent), so the
        // Fix_Error probe finds a true negative and falls through.
        let fps: Vec<StreamId> = engine.protocol().fp_filters.clone();
        for (i, &id) in fps.iter().enumerate() {
            engine.apply_event(ev(1.0 + i as f64 * 0.01, id.0, 5_000.0));
        }
        let n_minus_before = engine.protocol().n_minus();
        let insider = (0..10)
            .map(StreamId)
            .find(|id| {
                !engine.protocol().silenced().any(|s| s == *id) && engine.answer().contains(*id)
            })
            .unwrap();
        engine.apply_event(ev(2.0, insider.0, 900.0));
        assert_eq!(engine.protocol().n_minus(), n_minus_before - 1);
        // The probed fp stream was wrong and got removed from the answer.
        assert!(!engine.answer().contains(*fps.last().unwrap()));
    }

    #[test]
    fn zero_tolerance_degenerates_to_zt_nrp() {
        let initial = initial_20();
        let mut engine = Engine::new(&initial, protocol(0.0, SelectionHeuristic::BoundaryNearest));
        engine.initialize();
        assert_eq!(engine.protocol().n_plus(), 0);
        assert_eq!(engine.protocol().n_minus(), 0);
        // With no budgets every crossing is reported, like ZT-NRP.
        let base = engine.ledger().total();
        engine.apply_event(ev(1.0, 0, 900.0));
        assert!(engine.ledger().total() > base);
        assert!(!engine.answer().contains(StreamId(0)));
    }

    #[test]
    fn boundary_nearest_silences_boundary_streams() {
        let initial = initial_20();
        let mut engine = Engine::new(&initial, protocol(0.25, SelectionHeuristic::BoundaryNearest));
        engine.initialize();
        // Inside values are 410..572 (step 18); nearest to a boundary are
        // 410 (id 0, d=10) and 428 (id 1, d=28).
        let fps = &engine.protocol().fp_filters;
        assert_eq!(fps, &vec![StreamId(0), StreamId(1)]);
        // Outside values are 700..790; nearest are 700 (id 10, d=100) and
        // 710 (id 11).
        let fns = &engine.protocol().fn_filters;
        assert_eq!(fns, &vec![StreamId(10), StreamId(11)]);
    }

    #[test]
    fn reinit_on_exhaustion_restores_budgets() {
        let initial = initial_20();
        let mut p = FtNrp::new(
            query(),
            FractionTolerance::symmetric(0.25).unwrap(),
            FtNrpConfig { heuristic: SelectionHeuristic::Random, reinit_on_exhaustion: true },
            7,
        )
        .unwrap();
        p.config.reinit_on_exhaustion = true;
        let mut engine = Engine::new(&initial, p);
        engine.initialize();
        // Exhaust both budgets: four Fix_Errors each consuming one filter.
        // Drive them by bouncing plain-filtered insiders out (and not back).
        let mut t = 1.0;
        let mut kicked = 0;
        for id in 0..10u32 {
            if engine.protocol().silenced().any(|s| s == StreamId(id)) {
                continue;
            }
            engine.apply_event(ev(t, id, 2_000.0 + id as f64));
            t += 1.0;
            kicked += 1;
            if kicked == 5 {
                break;
            }
        }
        // After enough removals the budgets must have been exhausted and a
        // re-initialization must have run.
        assert!(engine.protocol().reinits() >= 1, "expected a re-init");
    }
}
