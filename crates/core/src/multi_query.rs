//! Multiple concurrent queries over one stream population (paper §7: "We
//! plan to extend the protocols to support multiple queries").
//!
//! Running `m` independent ZT-NRP instances installs `m` filters per source
//! and reports every boundary crossing of every query separately. This
//! module shares **one** filter per source instead: the *elementary cell*
//! of the current value — the maximal interval over which the value's
//! membership signature (inside/outside of each query) is constant.
//!
//! Cells are built from the *cut set*: each query `[l, u]` changes
//! membership at `l` (values `< l` vs `>= l`) and just above `u` (values
//! `<= u` vs `> u`), so the cuts are `{l_i} ∪ {next_up(u_i)}`. The cell of
//! `v` is `[a, next_down(b)]` with `a` the greatest cut `<= v` and `b` the
//! least cut `> v`. A source's filter is violated **exactly** when its
//! membership signature changes — no false silence, no spurious reports
//! beyond the per-crossing filter reinstallation.
//!
//! ## Answers: the population partitioned by cell
//!
//! Every query is a union of whole cells — `[l, u]` covers the cells from
//! the one opening at cut `l` to the one closing below cut `next_up(u)` —
//! so the m per-query answers are fully determined by which cell each
//! stream's last reported value lies in. That partition is all the server
//! keeps: each stream's cell, one unordered bucket of stream ids per cell,
//! and each stream's slot in its bucket (2n `u32`s plus n bucket entries,
//! whatever m is). Cell and slot share one 16-byte row with the stream's
//! last value, so a report touches one line of per-stream state. A report
//! costs one binary search of the cut table, which also yields the
//! server-managed filter to re-install, and one O(1) bucket move
//! (`swap_remove`, fix the moved id's slot, `push`). Reads pay
//! instead: [`MultiRangeZt::answer_of`] gathers the buckets of the query's
//! cell span, [`Protocol::answer`] those of every covered cell, and a
//! checkpoint sorts each query's gathered ids into its [`IdSet`] encoding.
//!
//! ## Routing: the exact fan-out
//!
//! [`QueryRouter`] lists, per cell, the queries containing it. A value
//! transition `old → new` flips exactly the queries in one of the two
//! cells' lists but not the other — one merge of two short sorted lists,
//! O(log m) for the cut search plus the lists' lengths. The protocol needs
//! only the count (the `queries_touched` fan-out gauge of
//! [`ServerCtx::note_routing`]); [`QueryRouter::affected`] lists them.

use std::cmp::Ordering;
use std::sync::Arc;

use streamnet::{Filter, StreamId};

use crate::answer::{AnswerSet, IdSet};
use crate::error::ConfigError;
use crate::protocol::{Protocol, ServerCtx};
use crate::query::RangeQuery;

/// How the elementary cells reach the sources.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CellMode {
    /// The server installs the current elementary interval and re-installs
    /// it after every report (2 messages per signature change). Stays
    /// strictly within the paper's interval-filter model.
    #[default]
    ServerManaged,
    /// The whole cut table is shipped to every source once
    /// ([`Filter::cells`]); sources re-derive their own cell forever after
    /// (1 message per signature change, no reinstallations). This
    /// library's extension of the filter model.
    SourceResident,
}

/// How a report counts the queries whose answers it changes.
///
/// Answers do not depend on it — a report moves its stream to its new cell
/// either way — only the `queries_touched` gauge
/// ([`ServerCtx::note_routing`]) is computed differently, to the same
/// value.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoutingMode {
    /// Merge the old and new cell's lists in the [`QueryRouter`] —
    /// O(log m + list lengths) per report.
    #[default]
    Routed,
    /// Re-test every query against the old and new value — O(m) per
    /// report. Kept as the differential baseline: its count must equal
    /// [`RoutingMode::Routed`]'s.
    NaiveScan,
}

/// The elementary cells of a query set and, per cell, the queries
/// containing it: given a value transition `old → new`, yields exactly the
/// queries whose membership changed.
///
/// Cell `c` holds the values with exactly `c` cuts `<=` them, so one binary
/// search of the cut table finds a value's cell. The per-cell lists are
/// stored back to back (CSR), `Σⱼ cells(qⱼ)` query indices in all: at most
/// `m·(2m + 1)` (m nested queries reach `m²`), ≈ 3k for `asf_bench`'s
/// 1000 narrow ranges. The per-query id sets this replaced held `Σⱼ |Aⱼ|`
/// ids instead, which reaches `n·m` once a population sits inside m nested
/// queries.
pub struct QueryRouter {
    /// Sorted, deduplicated membership cut points.
    cuts: Arc<[f64]>,
    /// The queries containing cell `c` are `members[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Query indices, ascending within each cell.
    members: Vec<u32>,
    num_queries: usize,
}

impl QueryRouter {
    /// Builds the index over a query set.
    pub fn new(queries: &[RangeQuery]) -> Self {
        let mut cuts: Vec<f64> = queries.iter().flat_map(|q| [q.lo(), q.hi().next_up()]).collect();
        cuts.sort_unstable_by(f64::total_cmp);
        cuts.dedup();
        let cell_of = |v: f64| cuts.partition_point(|&c| c <= v);
        let spans: Vec<(usize, usize)> =
            queries.iter().map(|q| (cell_of(q.lo()), cell_of(q.hi()))).collect();
        // Counting sort by cell; filling in query order keeps every list
        // ascending.
        let mut starts = vec![0; cuts.len() + 2];
        for &(s, e) in &spans {
            starts[s + 1..=e + 1].iter_mut().for_each(|n| *n += 1);
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut members = vec![0; starts[starts.len() - 1]];
        let mut fill = starts.clone();
        for (j, &(s, e)) in spans.iter().enumerate() {
            for at in &mut fill[s..=e] {
                members[*at] = j as u32;
                *at += 1;
            }
        }
        Self { cuts: cuts.into(), starts, members, num_queries: queries.len() }
    }

    /// The elementary cell of `v`: the number of cuts `<= v`.
    #[inline]
    fn cell_of(&self, v: f64) -> u32 {
        self.cuts.partition_point(|&c| c <= v) as u32
    }

    /// The queries containing cell `c`, ascending.
    #[inline]
    fn containing(&self, c: u32) -> &[u32] {
        let c = c as usize;
        &self.members[self.starts[c]..self.starts[c + 1]]
    }

    /// Cell `c` as a closed-interval filter: `[a, next_down(b)]` between
    /// its bounding cuts, unbounded past the first and last.
    fn filter(&self, c: u32) -> Filter {
        let c = c as usize;
        let lo = if c == 0 { f64::NEG_INFINITY } else { self.cuts[c - 1] };
        let hi = self.cuts.get(c).map_or(f64::INFINITY, |b| b.next_down());
        Filter::interval(lo, hi)
    }

    /// Calls `f`, in ascending order, with every query containing exactly
    /// one of cells `a` and `b`: one merge of their sorted lists.
    fn for_each_flipped(&self, a: u32, b: u32, mut f: impl FnMut(u32)) {
        if a == b {
            return;
        }
        let (x, y) = (self.containing(a), self.containing(b));
        let (mut i, mut k) = (0, 0);
        while i < x.len() && k < y.len() {
            match x[i].cmp(&y[k]) {
                Ordering::Less => {
                    f(x[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    f(y[k]);
                    k += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    k += 1;
                }
            }
        }
        x[i..].iter().chain(&y[k..]).for_each(|&j| f(j));
    }

    /// How many queries a transition from cell `a` to cell `b` flips.
    fn flipped(&self, a: u32, b: u32) -> u64 {
        let mut n = 0;
        self.for_each_flipped(a, b, |_| n += 1);
        n
    }

    /// Appends to `out` the indices of every query whose membership differs
    /// between `old` and `new`, in ascending query order. `out` is cleared
    /// first.
    ///
    /// `old = f64::NEG_INFINITY` (no finite query contains it) serves as
    /// "previously unknown": the affected set is then exactly the queries
    /// containing `new`.
    pub fn affected(&mut self, old: f64, new: f64, out: &mut Vec<u32>) {
        out.clear();
        debug_assert!(!old.is_nan() && !new.is_nan(), "routed values must be ordered");
        self.for_each_flipped(self.cell_of(old), self.cell_of(new), |j| out.push(j));
    }

    /// Number of indexed queries.
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    fn num_cells(&self) -> usize {
        self.starts.len() - 1
    }
}

/// Zero-tolerance maintenance of several range queries with one shared
/// elementary-cell filter per source; the per-query answers are the
/// population partitioned by cell (see the module docs).
pub struct MultiRangeZt {
    queries: Vec<RangeQuery>,
    mode: CellMode,
    routing: RoutingMode,
    router: QueryRouter,
    /// Per stream, its last value and its place in the partition.
    rows: Vec<Row>,
    /// Per cell, the ids of the streams in it, unordered.
    buckets: Vec<Vec<u32>>,
}

/// One stream's state in [`MultiRangeZt`].
#[derive(Clone, Copy, Debug)]
struct Row {
    /// The value as of the stream's last handled report (`-inf` = never
    /// heard, which lies in the uncovered cell 0). The checkpointed state:
    /// `cell` and `slot` are derived from it.
    last: f64,
    /// The cell of `last`.
    cell: u32,
    /// `buckets[cell][slot]` is this stream.
    slot: u32,
}

// A row's image is its `last`; `cell` and `slot` are derived from it.
asf_persist::persist!(impl Persist for Row { last: f64, ..Row::UNHEARD } check Row::check);

impl Row {
    /// A stream never heard, before it is placed in a bucket.
    const UNHEARD: Row = Row { last: f64::NEG_INFINITY, cell: 0, slot: 0 };

    fn check(&self) -> asf_persist::Result<()> {
        if self.last.is_nan() {
            return Err(asf_persist::PersistError::corrupt("NaN last value"));
        }
        Ok(())
    }
}

impl MultiRangeZt {
    /// Creates the protocol over a non-empty set of range queries with the
    /// default server-managed cells and routed fan-out counting.
    pub fn new(queries: Vec<RangeQuery>) -> Result<Self, ConfigError> {
        Self::with_mode(queries, CellMode::default())
    }

    /// Creates the protocol with an explicit [`CellMode`].
    pub fn with_mode(queries: Vec<RangeQuery>, mode: CellMode) -> Result<Self, ConfigError> {
        Self::with_config(queries, mode, RoutingMode::default())
    }

    /// Creates the protocol with explicit cell and routing modes.
    pub fn with_config(
        queries: Vec<RangeQuery>,
        mode: CellMode,
        routing: RoutingMode,
    ) -> Result<Self, ConfigError> {
        if queries.is_empty() {
            return Err(ConfigError::InvalidQuery("need at least one range query".into()));
        }
        let router = QueryRouter::new(&queries);
        let buckets = vec![Vec::new(); router.num_cells()];
        Ok(Self { queries, mode, routing, router, rows: Vec::new(), buckets })
    }

    /// The queries being maintained.
    pub fn queries(&self) -> &[RangeQuery] {
        &self.queries
    }

    /// The answer of query `j`, materialized as a dense set: the streams in
    /// the cells from `cell(lo)` to `cell(hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn answer_of(&self, j: usize) -> AnswerSet {
        self.span(j).iter().flatten().map(|&i| StreamId(i)).collect()
    }

    /// The number of elementary cells the value domain is divided into.
    pub fn num_cells(&self) -> usize {
        self.router.num_cells()
    }

    /// The cell mode in use.
    pub fn mode(&self) -> CellMode {
        self.mode
    }

    /// The routing mode in use.
    pub fn routing(&self) -> RoutingMode {
        self.routing
    }

    /// The buckets of the cells query `j` covers.
    fn span(&self, j: usize) -> &[Vec<u32>] {
        let q = &self.queries[j];
        let (s, e) = (self.router.cell_of(q.lo()), self.router.cell_of(q.hi()));
        &self.buckets[s as usize..=e as usize]
    }

    /// Query `j`'s members in ascending id order.
    fn sorted_answer(&self, j: usize) -> IdSet {
        let mut ids = self.span(j).concat();
        ids.sort_unstable();
        IdSet::from_sorted(ids)
    }

    /// Every query's members, in query order.
    fn answers(&self) -> Vec<IdSet> {
        (0..self.queries.len()).map(|j| self.sorted_answer(j)).collect()
    }

    /// Grows the per-stream tables to `n` streams; the new ones are never
    /// heard, so they join the uncovered cell 0.
    fn ensure_rows(&mut self, n: usize) {
        for id in self.rows.len()..n {
            let slot = self.buckets[0].len() as u32;
            self.rows.push(Row { slot, ..Row::UNHEARD });
            self.buckets[0].push(id as u32);
        }
    }

    /// Moves stream `id` into cell `to` in O(1).
    fn move_to(&mut self, id: usize, to: u32) {
        let Row { cell: from, slot, .. } = self.rows[id];
        if from == to {
            return;
        }
        let bucket = &mut self.buckets[from as usize];
        bucket.swap_remove(slot as usize);
        if let Some(&moved) = bucket.get(slot as usize) {
            self.rows[moved as usize].slot = slot;
        }
        let bucket = &mut self.buckets[to as usize];
        self.rows[id].cell = to;
        self.rows[id].slot = bucket.len() as u32;
        bucket.push(id as u32);
    }

    /// Rebuilds the partition (every row's cell and slot, and the buckets)
    /// from the rows' last values.
    fn rebuild_partition(&mut self) {
        self.buckets.iter_mut().for_each(Vec::clear);
        for (id, row) in self.rows.iter_mut().enumerate() {
            row.cell = self.router.cell_of(row.last);
            let bucket = &mut self.buckets[row.cell as usize];
            row.slot = bucket.len() as u32;
            bucket.push(id as u32);
        }
    }

    /// The check after a read: the partition, rebuilt from the rows read.
    fn repartition(&mut self) -> asf_persist::Result<()> {
        self.rebuild_partition();
        Ok(())
    }
}

impl Protocol for MultiRangeZt {
    fn name(&self) -> &'static str {
        "MULTI-ZT"
    }

    fn initialize(&mut self, ctx: &mut ServerCtx<'_>) {
        ctx.probe_all();
        self.rows = vec![Row::UNHEARD; ctx.n()];
        for (id, v) in ctx.view().iter_known() {
            self.rows[id.index()].last = v;
        }
        self.rebuild_partition();
        // One batch deployment of the cell filters (shard-parallel on the
        // sharded backend), in view order.
        let installs: Vec<(StreamId, Filter)> = ctx
            .view()
            .iter_known()
            .map(|(id, _)| {
                let filter = match self.mode {
                    CellMode::ServerManaged => self.router.filter(self.rows[id.index()].cell),
                    CellMode::SourceResident => Filter::cells(Arc::clone(&self.router.cuts)),
                };
                (id, filter)
            })
            .collect();
        ctx.install_many(&installs);
    }

    fn on_update(&mut self, id: StreamId, value: f64, ctx: &mut ServerCtx<'_>) {
        self.ensure_rows(ctx.n().max(id.index() + 1));
        let i = id.index();
        let clock = ctx.routing_clock();
        let to = self.router.cell_of(value);
        let touched = match self.routing {
            RoutingMode::Routed => self.router.flipped(self.rows[i].cell, to),
            RoutingMode::NaiveScan => {
                let old = self.rows[i].last;
                self.queries.iter().filter(|q| q.contains(old) != q.contains(value)).count() as u64
            }
        };
        self.move_to(i, to);
        self.rows[i].last = value;
        ctx.note_routing(touched, clock);
        // Server-managed cells must be re-installed after every report
        // (1 extra message); a source-resident cut table already knows
        // every cell.
        if self.mode == CellMode::ServerManaged {
            ctx.install(id, self.router.filter(to));
        }
    }

    /// The union of all query answers (per-query answers via
    /// [`MultiRangeZt::answer_of`]): the streams in every covered cell.
    fn answer(&self) -> AnswerSet {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(c, _)| !self.router.containing(c as u32).is_empty())
            .flat_map(|(_, bucket)| bucket)
            .map(|&i| StreamId(i))
            .collect()
    }

    asf_persist::persist!(
        /// The per-query answers, then the rows. `last` is protocol state,
        /// not view state: the partition is rebuilt from it, and an image
        /// whose answers disagree with it is corrupt, whatever its checksum.
        fn save_state, load_state { answers: derived, rows } check Self::repartition
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::workload::UpdateEvent;
    use simkit::SimRng;

    fn ev(t: f64, s: u32, v: f64) -> UpdateEvent {
        UpdateEvent { time: t, stream: StreamId(s), value: v }
    }

    fn queries() -> Vec<RangeQuery> {
        vec![
            RangeQuery::new(100.0, 300.0).unwrap(),
            RangeQuery::new(200.0, 500.0).unwrap(), // overlaps the first
            RangeQuery::new(800.0, 900.0).unwrap(), // disjoint
        ]
    }

    /// Naive affected-set: every query whose membership differs.
    fn scan_affected(queries: &[RangeQuery], old: f64, new: f64) -> Vec<u32> {
        queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.contains(old) != q.contains(new))
            .map(|(j, _)| j as u32)
            .collect()
    }

    #[test]
    fn cells_partition_the_line() {
        let p = MultiRangeZt::new(queries()).unwrap();
        // Cuts: 100, next_up(300), 200, next_up(500), 800, next_up(900) -> 6
        // cells = 7.
        assert_eq!(p.num_cells(), 7);
        // A value and its cell agree on every query's membership.
        for v in [0.0, 100.0, 150.0, 200.0, 250.0, 300.0, 300.1, 499.0, 650.0, 850.0, 950.0] {
            let cell = p.router.filter(p.router.cell_of(v));
            assert!(cell.contains(v), "cell of {v} must contain it");
            // Sample the cell edges: membership must match v's.
            for q in p.queries() {
                if let Filter::Interval { lo, hi } = cell {
                    for probe in [lo.max(-1e6), v, hi.min(1e6)] {
                        assert_eq!(
                            q.contains(probe),
                            q.contains(v),
                            "query {q:?} differs within cell {lo}..{hi} (v={v}, probe={probe})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn router_matches_naive_scan_on_fixed_transitions() {
        let qs = queries();
        let mut router = QueryRouter::new(&qs);
        let probes = [
            (f64::NEG_INFINITY, 250.0),
            (250.0, 250.0),
            (150.0, 350.0),
            (350.0, 150.0),
            (50.0, 950.0), // jumps over everything
            (950.0, 50.0),
            (100.0, 300.0), // both inside Q0
            (300.0, 300.0f64.next_up()),
            (200.0, 199.0),
            (850.0, 860.0),
        ];
        let mut out = Vec::new();
        for (old, new) in probes {
            router.affected(old, new, &mut out);
            assert_eq!(out, scan_affected(&qs, old, new), "transition {old} -> {new}");
        }
    }

    /// The per-cell lists cost Σⱼ cells(qⱼ) entries: a few per query on
    /// `asf_bench`'s shape, m² — within the m·(2m + 1) bound — on nested
    /// queries.
    #[test]
    fn per_cell_lists_stay_within_their_bound() {
        let m = 1000;
        // `asf_bench`'s `multi_range` queries at its default seed.
        let mut rng = SimRng::seed_from_u64(48_764 ^ (m as u64).rotate_left(17));
        let bench: Vec<RangeQuery> = (0..m)
            .map(|_| {
                let width = 1000.0 / m as f64 * (0.5 + rng.next_f64());
                let lo = rng.range_f64(0.0, 1000.0 - width);
                RangeQuery::new(lo, lo + width).unwrap()
            })
            .collect();
        let router = QueryRouter::new(&bench);
        assert_eq!(router.num_cells(), 2001);
        assert_eq!(router.members.len(), 3_054);

        let nested: Vec<RangeQuery> =
            (0..m).map(|j| RangeQuery::new(499.0 - j as f64, 501.0 + j as f64).unwrap()).collect();
        let router = QueryRouter::new(&nested);
        assert_eq!(router.num_cells(), 2 * m + 1);
        assert_eq!(router.members.len(), m * m);
        assert!(router.members.len() <= m * (2 * m + 1));
        // Every list is ascending, and the innermost cell lies in every query.
        for c in 0..router.num_cells() as u32 {
            assert!(router.containing(c).windows(2).all(|w| w[0] < w[1]), "cell {c}");
        }
        assert_eq!(router.containing(router.cell_of(500.0)).len(), m);
    }

    #[test]
    fn answers_track_truth_exactly() {
        let initial = vec![150.0, 250.0, 400.0, 850.0, 600.0];
        let mut engine = Engine::new(&initial, MultiRangeZt::new(queries()).unwrap());
        engine.initialize();
        let p = engine.protocol();
        assert_eq!(p.answer_of(0).iter().collect::<Vec<_>>(), vec![StreamId(0), StreamId(1)]);
        assert_eq!(p.answer_of(1).iter().collect::<Vec<_>>(), vec![StreamId(1), StreamId(2)]);
        assert_eq!(p.answer_of(2).iter().collect::<Vec<_>>(), vec![StreamId(3)]);

        // S4 (600, in nothing) moves into the overlap of Q0 and Q1.
        engine.apply_event(ev(1.0, 4, 250.0));
        let p = engine.protocol();
        assert!(p.answer_of(0).contains(StreamId(4)) && p.answer_of(1).contains(StreamId(4)));

        // S1 leaves Q0 but stays in Q1 (signature change within [200, 300] ->
        // (300, 500]).
        engine.apply_event(ev(2.0, 1, 350.0));
        let p = engine.protocol();
        assert!(!p.answer_of(0).contains(StreamId(1)));
        assert!(p.answer_of(1).contains(StreamId(1)));
    }

    #[test]
    fn same_signature_moves_are_silent() {
        let initial = vec![150.0, 600.0];
        let mut engine = Engine::new(&initial, MultiRangeZt::new(queries()).unwrap());
        engine.initialize();
        let base = engine.ledger().total();
        engine.apply_event(ev(1.0, 0, 199.0)); // still only in Q0
        engine.apply_event(ev(2.0, 1, 700.0)); // still in nothing
        assert_eq!(engine.ledger().total(), base, "signature-preserving moves are free");
        // Crossing into Q1's overlap reports once and reinstalls once.
        engine.apply_event(ev(3.0, 0, 250.0));
        assert_eq!(engine.ledger().total(), base + 2);
    }

    #[test]
    fn boundary_values_are_handled_exactly() {
        let qs = vec![RangeQuery::new(100.0, 300.0).unwrap()];
        let initial = vec![300.0]; // exactly on the closed upper bound: inside
        let mut engine = Engine::new(&initial, MultiRangeZt::new(qs).unwrap());
        engine.initialize();
        assert!(engine.protocol().answer_of(0).contains(StreamId(0)));
        // The smallest possible move out must be caught.
        engine.apply_event(ev(1.0, 0, 300.0f64.next_up()));
        assert!(!engine.protocol().answer_of(0).contains(StreamId(0)));
        // And back in.
        engine.apply_event(ev(2.0, 0, 300.0));
        assert!(engine.protocol().answer_of(0).contains(StreamId(0)));
    }

    #[test]
    fn union_answer_combines_queries() {
        let initial = vec![150.0, 850.0];
        let mut engine = Engine::new(&initial, MultiRangeZt::new(queries()).unwrap());
        engine.initialize();
        let union = engine.answer();
        assert!(union.contains(StreamId(0)) && union.contains(StreamId(1)));
    }

    #[test]
    fn rejects_empty_query_set() {
        assert!(MultiRangeZt::new(vec![]).is_err());
    }

    #[test]
    fn routed_and_naive_scan_are_byte_identical() {
        let initial = vec![150.0, 250.0, 400.0, 850.0, 600.0, 50.0];
        let events = vec![
            ev(1.0, 4, 250.0),
            ev(2.0, 1, 350.0),
            ev(3.0, 5, 120.0),
            ev(4.0, 0, 880.0),
            ev(5.0, 2, 210.0),
            ev(6.0, 4, 40.0),
        ];
        let run = |routing: RoutingMode| {
            let p = MultiRangeZt::with_config(queries(), CellMode::ServerManaged, routing).unwrap();
            let mut engine = Engine::new(&initial, p);
            engine.initialize();
            for e in &events {
                engine.apply_event(*e);
            }
            let answers: Vec<AnswerSet> = (0..3).map(|j| engine.protocol().answer_of(j)).collect();
            let stats = engine.ctx_stats();
            (answers, engine.ledger().total(), stats.routed_reports, stats.queries_touched)
        };
        let routed = run(RoutingMode::Routed);
        assert_eq!(routed, run(RoutingMode::NaiveScan));
        // 4 → 250 enters Q0 and Q1, 1 → 350 leaves Q0, 5 → 120 enters Q0,
        // 0 → 880 leaves Q0 for Q2, 2 → 210 leaves Q1 for Q0 ∩ Q1 (enters
        // Q0), 4 → 40 leaves Q0 and Q1: 2 + 1 + 1 + 2 + 1 + 2.
        assert_eq!((routed.2, routed.3), (6, 9), "the exact fan-out, not m per report");
    }

    #[test]
    fn routing_counts_stay_exact_under_the_sampled_clock() {
        let qs = queries();
        let initial = vec![150.0, 250.0, 400.0, 850.0, 600.0, 50.0];
        let mut engine = Engine::new(&initial, MultiRangeZt::new(qs.clone()).unwrap());
        engine.initialize();
        let mut rng = SimRng::seed_from_u64(0x5A_3F1E);
        // A source reports exactly when its value leaves the cell of its
        // last report; count those reports and their fan-out unsampled.
        let (mut last, mut reports, mut touched, mut t) = (initial.clone(), 0u64, 0u64, 0.0);
        while reports < 1_000 {
            t += 1.0;
            let (s, v) = (rng.index(initial.len()), rng.range_f64(0.0, 1000.0));
            let router = &engine.protocol().router;
            if router.cell_of(v) != router.cell_of(last[s]) {
                reports += 1;
                touched += scan_affected(&qs, last[s], v).len() as u64;
                last[s] = v;
            }
            engine.apply_event(ev(t, s as u32, v));
        }
        let stats = engine.ctx_stats();
        assert_eq!((stats.routed_reports, stats.queries_touched), (1_000, touched));
        assert!(stats.routing_ns > 0, "the first report is timed");
        assert_eq!(stats.routing_ns % crate::protocol::ROUTING_SAMPLE, 0, "a scaled sample");
    }

    #[test]
    fn load_state_rejects_answers_that_disagree_with_last_values() {
        let initial = vec![150.0, 250.0, 400.0, 850.0, 600.0, 50.0];
        let mut engine = Engine::new(&initial, MultiRangeZt::new(queries()).unwrap());
        engine.initialize();
        engine.apply_event(ev(1.0, 4, 250.0));
        let mut w = asf_persist::StateWriter::new();
        engine.protocol().save_state(&mut w);
        let bytes = w.into_bytes();
        let load = |bytes: &[u8]| {
            let mut p = MultiRangeZt::new(queries()).unwrap();
            let mut r = asf_persist::StateReader::new(bytes);
            p.load_state(&mut r).and_then(|()| r.finish()).map(|()| p)
        };
        let back = load(&bytes).expect("a faithful image loads");
        for j in 0..3 {
            assert_eq!(back.answer_of(j), engine.protocol().answer_of(j));
        }
        assert_eq!(back.answer(), engine.answer());

        // Q0's answer is {0, 1, 4}: raising its largest id to 5 keeps the
        // set strictly ascending, so it decodes, but stream 5 sits at 50.
        // Layout: m, then Q0's length and ids.
        let at = 8 + 8 + 2 * 4;
        assert_eq!(u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()), 4);
        let mut flipped = bytes.clone();
        flipped[at..at + 4].copy_from_slice(&5u32.to_le_bytes());
        // Framed as a checkpoint record, the image passes its CRC.
        let mut image = Vec::new();
        asf_persist::record::encode_record(7, &flipped, &mut image);
        let payload = asf_persist::record::read_single_record(&image, 7).expect("CRC-valid");
        assert!(matches!(load(payload), Err(asf_persist::PersistError::Corrupt(_))));
    }

    #[test]
    fn source_resident_matches_server_managed_with_fewer_messages() {
        let initial = vec![150.0, 250.0, 400.0, 850.0, 600.0, 50.0];
        let events = vec![
            ev(1.0, 4, 250.0),
            ev(2.0, 1, 350.0),
            ev(3.0, 5, 120.0),
            ev(4.0, 0, 880.0),
            ev(5.0, 2, 210.0),
        ];

        let run = |mode: CellMode| {
            let p = MultiRangeZt::with_mode(queries(), mode).unwrap();
            let mut engine = Engine::new(&initial, p);
            engine.initialize();
            for e in &events {
                engine.apply_event(*e);
            }
            let answers: Vec<AnswerSet> = (0..3).map(|j| engine.protocol().answer_of(j)).collect();
            (answers, engine.ledger().total())
        };

        let (managed_answers, managed_msgs) = run(CellMode::ServerManaged);
        let (resident_answers, resident_msgs) = run(CellMode::SourceResident);
        assert_eq!(managed_answers, resident_answers, "both modes are exact");
        assert!(
            resident_msgs < managed_msgs,
            "source-resident ({resident_msgs}) must beat server-managed ({managed_msgs})"
        );
    }

    #[test]
    fn source_resident_signature_moves_cost_one_message() {
        let initial = vec![150.0];
        let p = MultiRangeZt::with_mode(queries(), CellMode::SourceResident).unwrap();
        let mut engine = Engine::new(&initial, p);
        engine.initialize();
        let base = engine.ledger().total();
        engine.apply_event(ev(1.0, 0, 199.0)); // same signature: free
        assert_eq!(engine.ledger().total(), base);
        engine.apply_event(ev(2.0, 0, 250.0)); // crossing: exactly 1 update
        assert_eq!(engine.ledger().total(), base + 1);
    }

    use crate::answer::AnswerSet;
}
