//! The collection of all stream sources, and the operations the server
//! may perform on them.
//!
//! [`FleetOps`] moves source state and nothing else: delivering a workload
//! update, probing, installing filters and broadcasting change what the
//! sources hold and return what reaches the server. Metering those
//! messages and refreshing the server's view is the caller's job, done in
//! one place for every backend (`asf-core`'s `ServerCtx`).
//!
//! ## Batched fleet operations
//!
//! Fleet-wide phases — Initialization's probe-everything, a tolerance
//! protocol deploying a filter per stream, a `Reinit` repair — would run as
//! one call per stream, which serializes them through the coordinator of a
//! sharded backend. The batch operations ([`FleetOps::probe_all`],
//! [`FleetOps::probe_many`], [`FleetOps::install_many`],
//! [`FleetOps::broadcast`]) move the loop *into* the backend: the
//! in-process [`SourceFleet`] walks its sources in one pass, and the
//! sharded fleet of `asf-server` scatters each batch so every shard works
//! its slice concurrently. Results come back in a fixed order, so batched
//! and per-stream execution are byte-identical
//! (`tests/batch_differential.rs` proves it per protocol and backend).
//! Batch outputs are written into caller-provided buffers so hot callers
//! can reuse one allocation across rounds.

use asf_persist::{Persist, Rows};

use crate::filter::{interval_violated, Filter};
use crate::rows::DirtyRows;
use crate::source::{must_report, must_sync, StreamSource};
use crate::StreamId;

/// The server-side operations a fleet of sources must support.
///
/// The protocols of `asf-core` talk to the sources exclusively through this
/// surface (via their `ServerCtx`), so the *same* protocol code drives the
/// in-process [`SourceFleet`] of the single-threaded engine, the sharded
/// fleet of `asf-server` (each call routed to the shard owning the source)
/// and the fault-injecting `ChaosFleet` around either. Every method only
/// moves source state — values, last-reported values, filters, per-source
/// traffic — and returns what reached the server. No method records a
/// message or writes a view: the caller meters each operation by the
/// paper's cost model (probe = 2, install = 1, broadcast = `n`, report or
/// sync = 1) from what it returns. Byte-identical answers across backends
/// depend on the result orders below:
///
/// * batch outputs are cleared first, then filled in the order each
///   method states;
/// * [`FleetOps::probe_all`] returns values in id order;
/// * [`FleetOps::install_many`] returns sync reports in installation
///   order, [`FleetOps::broadcast`] in ascending id order.
pub trait FleetOps {
    /// Number of sources `n`.
    fn len(&self) -> usize;

    /// Whether the fleet is empty (never true post-construction).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Delivers a workload update to a source; `Some(value)` iff the
    /// source's filter was violated and it reported (one message of its
    /// traffic).
    fn deliver(&mut self, id: StreamId, value: f64) -> Option<f64>;

    /// Probes one source (two messages of its traffic); returns its value.
    fn probe(&mut self, id: StreamId) -> f64;

    /// Probes every source, writing the values into `out` in id order.
    fn probe_all(&mut self, out: &mut Vec<f64>);

    /// Probes a set of sources in one batch, writing the values into `out`
    /// aligned with `ids`.
    ///
    /// Byte-identical to probing the ids one by one in order: sources are
    /// independent, so per-source state cannot depend on probe order.
    ///
    /// ```
    /// use streamnet::{FleetOps, SourceFleet, StreamId};
    ///
    /// let mut fleet = SourceFleet::from_values(&[100.0, 500.0, 900.0]);
    /// let mut values = Vec::new();
    /// fleet.probe_many(&[StreamId(2), StreamId(0)], &mut values);
    /// assert_eq!(values, vec![900.0, 100.0]);
    /// assert_eq!(fleet.source(StreamId(2)).traffic(), 2, "a request and a reply");
    /// ```
    fn probe_many(&mut self, ids: &[StreamId], out: &mut Vec<f64>);

    /// Installs a filter at one source (one message of its traffic);
    /// `Some(value)` iff the source sync-reported (one more).
    fn install(&mut self, id: StreamId, filter: Filter) -> Option<f64>;

    /// Installs a filter per `(id, filter)` pair in one batch, writing the
    /// sync reports into `syncs` in **installation order** — the order the
    /// serial path would queue them. Installs touch only their own source,
    /// so batching cannot change any source's sync decision.
    fn install_many(&mut self, installs: &[(StreamId, Filter)], syncs: &mut Vec<(StreamId, f64)>);

    /// Installs `filter` at every source, writing the sync reports into
    /// `syncs` in ascending id order.
    fn broadcast(&mut self, filter: Filter, syncs: &mut Vec<(StreamId, f64)>);
}

/// The per-source state a workload update reads and writes, packed into
/// one 32-byte record so the §3.1 test of a silent update touches half a
/// cache line.
///
/// Two NaN sentinels keep it flat. Stream values are finite by contract
/// (`from_values`, every update, and `decode` enforce it), so a NaN
/// `last_reported` can only mean "never reported". NaN bounds mean the
/// filter is not an `Interval` (`ReportAll` or `Cells`): the update then
/// takes the cold path through [`Cold::filter`], which stays authoritative
/// — the bounds here are a cache that only an install writes.
#[derive(Clone, Copy, Debug)]
#[repr(C, align(32))]
struct Hot {
    value: f64,
    last_reported: f64,
    lo: f64,
    hi: f64,
}

impl Hot {
    fn last_reported(&self) -> Option<f64> {
        (!self.last_reported.is_nan()).then_some(self.last_reported)
    }

    /// Caches `filter`'s bounds (NaN unless it is an `Interval`).
    fn set_bounds(&mut self, filter: &Filter) {
        (self.lo, self.hi) = match *filter {
            Filter::Interval { lo, hi } => (lo, hi),
            Filter::ReportAll | Filter::Cells(_) => (f64::NAN, f64::NAN),
        };
    }
}

const _: () = assert!(std::mem::size_of::<Hot>() == 32);

/// The per-source state only installs, reports and snapshots touch.
#[derive(Clone, Debug)]
struct Cold {
    filter: Filter,
    traffic: u64,
}

/// All `n` stream sources of the simulated system.
///
/// Stored as two parallel columns, a hot 32-byte record per source
/// and a cold record holding the filter and the traffic counter; callers
/// see whole [`StreamSource`] values only as snapshots
/// ([`SourceFleet::source`], [`SourceFleet::iter`]).
///
/// Every row write marks the row in a `DirtyRows` bitmap, so a delta
/// checkpoint can write just the sources changed since the last full image
/// ([`SourceFleet::encode_rows`]): delivering an update, marking a source
/// reported, installing a filter and decoding a row mark it at once, and a
/// speculative [`SpecLog`] application marks it when it commits — off the
/// evaluation loop, where a mark per event cost ≈ 15% of `asf_bench`'s
/// `range_hot` ingest rate on a 2-core x86-64 box. An application rolled
/// back instead restores its row exactly, so it needs no mark.
#[derive(Clone, Debug)]
pub struct SourceFleet {
    hot: Vec<Hot>,
    cold: Vec<Cold>,
    dirty: DirtyRows,
}

impl SourceFleet {
    /// Builds a fleet from initial values; ids are assigned `0..n` in order.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or contains non-finite values, or if
    /// there are more than `u32::MAX` streams.
    pub fn from_values(initial: &[f64]) -> Self {
        assert!(!initial.is_empty(), "a fleet needs at least one source");
        assert!(u32::try_from(initial.len()).is_ok(), "too many sources");
        let mut fleet = Self::with_capacity(initial.len());
        for (i, &v) in initial.iter().enumerate() {
            fleet.push(StreamSource::new(StreamId(i as u32), v));
        }
        fleet
    }

    fn with_capacity(n: usize) -> Self {
        Self { hot: Vec::with_capacity(n), cold: Vec::with_capacity(n), dirty: DirtyRows::new(n) }
    }

    /// A source's state in the fleet's hot/cold layout.
    fn split_row(s: StreamSource) -> (Hot, Cold) {
        let mut hot = Hot {
            value: s.value,
            last_reported: s.last_reported.unwrap_or(f64::NAN),
            lo: f64::NAN,
            hi: f64::NAN,
        };
        hot.set_bounds(&s.filter);
        (hot, Cold { filter: s.filter, traffic: s.traffic })
    }

    fn push(&mut self, s: StreamSource) {
        let (hot, cold) = Self::split_row(s);
        self.hot.push(hot);
        self.cold.push(cold);
    }

    /// Number of sources.
    pub fn len(&self) -> usize {
        self.hot.len()
    }

    /// Whether the fleet is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.hot.is_empty()
    }

    /// A snapshot of one source (ground truth — for oracles/tests).
    pub fn source(&self, id: StreamId) -> StreamSource {
        let (hot, cold) = (&self.hot[id.index()], &self.cold[id.index()]);
        StreamSource {
            id,
            value: hot.value,
            last_reported: hot.last_reported(),
            filter: cold.filter.clone(),
            traffic: cold.traffic,
        }
    }

    /// Snapshots of all sources in id order (ground truth — for
    /// oracles/tests; [`Self::values`] reads values without copying
    /// filters).
    pub fn iter(&self) -> impl Iterator<Item = StreamSource> + '_ {
        (0..self.len()).map(|i| self.source(StreamId(i as u32)))
    }

    /// Ground-truth current values in id order (oracle/test use only).
    pub fn values(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.hot.iter().map(|h| h.value)
    }

    /// Ground-truth current value of a stream (oracle/test use only; the
    /// server must [`Self::probe`] to learn it).
    pub fn true_value(&self, id: StreamId) -> f64 {
        self.hot[id.index()].value
    }

    /// Serializes the sources `rows` selects — every one, positionally, or
    /// each one changed since the dirty bits were last cleared, behind its
    /// index — as [`StreamSource`] rows, declared as one row table.
    pub fn encode_rows(&self, w: &mut asf_persist::StateWriter, rows: Rows) {
        let (count, selected) =
            (self.dirty.selected_count(rows, self.len()), self.dirty.selected(rows, self.len()));
        rows.put_rows(w, count, selected, |w, i| self.source(StreamId(i as u32)).put(w));
    }

    /// Overwrites the rows an [`SourceFleet::encode_rows`] image of the
    /// same selection names ([`Rows::All`]: every row, so the image must
    /// hold exactly this fleet's population). Corrupt input is an error,
    /// never a panic; rows read before it stay overwritten, so restore
    /// into a fleet that is discarded on error.
    pub fn decode_rows(
        &mut self,
        r: &mut asf_persist::StateReader<'_>,
        rows: Rows,
    ) -> asf_persist::Result<()> {
        rows.get_rows(r, self.len(), StreamSource::MIN_BYTES, |r, i| {
            // A decoded source has a finite value and last-reported and no
            // NaN bound, so no decoded number can alias a NaN sentinel.
            (self.hot[i], self.cold[i]) = Self::split_row(StreamSource::get(r)?);
            self.dirty.mark(i);
            Ok(())
        })
    }

    /// Clears the dirty bits: a full image of every source was taken.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Applies a workload value to source `i` and decides whether it must
    /// report ([`must_report`]), without marking it reported. The hot path
    /// of every update: an `Interval` filter on a reported source is
    /// decided from the 32-byte hot record alone. It leaves the dirty bit
    /// to its callers: [`FleetOps::deliver`] marks at once, a
    /// [`SpecLog`] application when it commits.
    #[inline]
    fn apply(&mut self, i: usize, value: f64) -> bool {
        assert!(value.is_finite(), "stream values must be finite, got {value}");
        let hot = &mut self.hot[i];
        hot.value = value;
        if hot.last_reported.is_nan() || hot.lo.is_nan() {
            return must_report(&self.cold[i].filter, hot.last_reported(), value);
        }
        interval_violated(hot.lo, hot.hi, hot.last_reported, value)
    }

    /// Source `i`'s current value reached the server, carried by
    /// `messages` messages of its traffic.
    #[inline]
    fn mark_reported(&mut self, i: usize, messages: u64) {
        self.dirty.mark(i);
        let hot = &mut self.hot[i];
        hot.last_reported = hot.value;
        self.cold[i].traffic += messages;
    }

    /// Installs `filter` at source `i` (one message of its traffic);
    /// `Some(value)` iff the source must sync ([`must_sync`]), already
    /// marked reported and charged.
    fn install_at(&mut self, i: usize, filter: Filter) -> Option<f64> {
        self.dirty.mark(i);
        let (hot, cold) = (&mut self.hot[i], &mut self.cold[i]);
        cold.traffic += 1;
        hot.set_bounds(&filter);
        let sync = must_sync(&filter, hot.last_reported(), hot.value);
        cold.filter = filter;
        sync.then(|| {
            self.mark_reported(i, 1);
            self.hot[i].value
        })
    }

    /// Probes source `i` (two messages of its traffic); returns its value.
    fn probe_at(&mut self, i: usize) -> f64 {
        self.mark_reported(i, 2);
        self.hot[i].value
    }

    /// Asks the CPU to start loading source `id`'s hot record into cache,
    /// so a loop that knows the rows it will touch can issue the load a
    /// few events before it needs the row. Changes nothing, reads nothing
    /// back, and ignores an id past the population.
    #[inline]
    pub fn prefetch(&self, id: StreamId) {
        if let Some(hot) = self.hot.get(id.index()) {
            prefetch_read(hot);
        }
    }

    /// Like [`Self::prefetch`] for the whole row, hot and cold records:
    /// for a loop ahead of installs and reports, which write the filter
    /// and the traffic counter as well as the hot record.
    #[inline]
    pub fn prefetch_row(&self, id: StreamId) {
        if let (Some(hot), Some(cold)) = (self.hot.get(id.index()), self.cold.get(id.index())) {
            prefetch_read(hot);
            prefetch_read(cold);
        }
    }
}

/// Issues a prefetch of the cache line holding `row`'s first byte into
/// every cache level; a no-op off x86_64. The crate's one `unsafe` block:
/// `std::hint::prefetch_read` would make it safe, but is unstable
/// (`hint_prefetch`).
#[inline(always)]
#[allow(unsafe_code)]
fn prefetch_read<T>(row: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is `unsafe` only because it takes a raw
    // pointer and needs SSE. The pointer comes from a live `&T`, and a
    // prefetch never dereferences it and cannot fault in any case. SSE is
    // part of the x86_64 baseline, so the target feature is always on.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(row).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

/// Undo log for speculative batch execution over a [`SourceFleet`].
///
/// `asf-server` shards evaluate whole batches optimistically — including
/// *through* filter violations, tentatively treating each violation as a
/// delivered report (value applied, last-reported refreshed, source traffic
/// charged, **nothing** recorded in any ledger or view: the coordinator
/// meters reports when it consumes them in sequence order). Every
/// application is journaled here with the source's prior value and
/// last-reported value and whether it reported, so that an invalidation —
/// the protocol touching the fleet while handling an earlier report — can
/// roll the fleet back to any sequence point exactly.
///
/// A fleet touch of a source with later journaled applications does not
/// need the whole suffix rolled back: [`SpecLog::respeculate`] rewinds just
/// that source's applications, runs the touch against its exact serial
/// state, and re-applies them in place against the new filter. A touch of
/// every source does the same to the whole journaled suffix
/// ([`SpecLog::commit_prefix`], then [`SpecLog::respeculate_all`]).
///
/// Rollback un-charges traffic (`-1` per undone report) rather than
/// restoring an absolute count. That is exact because nothing touches a
/// source between an application and its rollback except a respeculation,
/// which rewinds first and re-journals in place.
#[derive(Clone, Debug, Default)]
pub struct SpecLog {
    entries: Vec<SpecUndo>,
}

/// One journaled application — 32 bytes.
#[derive(Clone, Copy, Debug)]
struct SpecUndo {
    seq: u64,
    id: StreamId,
    reported: bool,
    prev_value: f64,
    /// The prior hot `last_reported`, NaN sentinel included.
    prev_last_reported: f64,
}

const _: () = assert!(std::mem::size_of::<SpecUndo>() == 32);

impl SpecLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of journaled applications.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sequence number of the newest journaled application, if any —
    /// telemetry uses it to tag shard trace spans with the speculation
    /// point they ran under.
    pub fn last_seq(&self) -> Option<u64> {
        self.entries.last().map(|e| e.seq)
    }

    /// Speculatively applies one update. Returns `Some(value)` iff the
    /// source's filter was violated, i.e. the update is a tentative
    /// *report*: the value is applied, marked reported, and one message of
    /// source traffic charged — but not metered anywhere else. A silent
    /// update applies the value only. Either way the prior state is
    /// journaled under `seq`; sequence numbers must be strictly
    /// increasing within one log generation.
    #[inline]
    pub fn apply(
        &mut self,
        fleet: &mut SourceFleet,
        seq: u64,
        id: StreamId,
        value: f64,
    ) -> Option<f64> {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.seq < seq),
            "speculative sequence numbers must increase"
        );
        let i = id.index();
        let prev = fleet.hot[i];
        let reported = fleet.apply(i, value);
        if reported {
            fleet.mark_reported(i, 1);
        }
        self.entries.push(SpecUndo {
            seq,
            id,
            reported,
            prev_value: prev.value,
            prev_last_reported: prev.last_reported,
        });
        reported.then_some(value)
    }

    /// Commits applications with `seq < keep_below` (marking their rows
    /// dirty), rolls back the rest (newest first), and clears the log.
    /// Returns `(kept, undone)`.
    pub fn commit_below(&mut self, fleet: &mut SourceFleet, keep_below: u64) -> (u32, u32) {
        let kept = self.entries.partition_point(|e| e.seq < keep_below);
        for k in (kept..self.entries.len()).rev() {
            self.rewind(fleet, k);
        }
        for e in &self.entries[..kept] {
            fleet.dirty.mark(e.id.index());
        }
        let undone = self.entries.len() - kept;
        self.entries.clear();
        (kept as u32, undone as u32)
    }

    /// Commits the applications with `seq < keep_below`: they leave the
    /// log, so nothing can rewind them again, and their rows are marked
    /// dirty. Later applications stay journaled for
    /// [`SpecLog::respeculate_all`].
    pub fn commit_prefix(&mut self, fleet: &mut SourceFleet, keep_below: u64) {
        let at = self.entries.partition_point(|e| e.seq < keep_below);
        for e in self.entries.drain(..at) {
            fleet.dirty.mark(e.id.index());
        }
    }

    /// Runs `touch` — a probe or install of some sources — as if it had
    /// executed before the applications at `seqs`, which must be ascending,
    /// journaled, and every later application of each source `touch`
    /// reaches (other sources' applications stand untouched).
    ///
    /// Those applications are rewound newest first, `touch` runs against
    /// the sources' exact serial state, and they are re-applied oldest
    /// first, re-journaled in place, so a later rollback stays exact. An
    /// entry's applied value is the source's value when the rewind reaches
    /// it; it waits in the entry's `prev_value` until the replay. Every
    /// application whose report bit changed is passed to
    /// `flipped(seq, id, value, now_reports)`. With no `seqs` this is just
    /// `touch`.
    pub fn respeculate<R>(
        &mut self,
        fleet: &mut SourceFleet,
        seqs: &[u64],
        touch: impl FnOnce(&mut SourceFleet) -> R,
        mut flipped: impl FnMut(u64, StreamId, f64, bool),
    ) -> R {
        let mut end = self.entries.len();
        for &seq in seqs.iter().rev() {
            end = self.find(seq, 0, end);
            self.rewind(fleet, end);
        }
        let out = touch(fleet);
        let mut start = 0;
        for &seq in seqs {
            let k = self.find(seq, start, self.entries.len());
            start = k + 1;
            self.replay(fleet, k, &mut flipped);
        }
        out
    }

    /// The suffix form of [`SpecLog::respeculate`], for a `touch` that may
    /// reach every source: it runs before **every** journaled application.
    /// After [`SpecLog::commit_prefix`]`(c + 1)` it sees the state that
    /// [`SpecLog::commit_below`]`(c + 1)` would roll back to, and the
    /// suffix is re-applied in place instead of discarded.
    pub fn respeculate_all<R>(
        &mut self,
        fleet: &mut SourceFleet,
        touch: impl FnOnce(&mut SourceFleet) -> R,
        mut flipped: impl FnMut(u64, StreamId, f64, bool),
    ) -> R {
        for k in (0..self.entries.len()).rev() {
            self.rewind(fleet, k);
        }
        let out = touch(fleet);
        for k in 0..self.entries.len() {
            self.replay(fleet, k, &mut flipped);
        }
        out
    }

    /// Undoes entry `k`'s application; the value it applied waits in its
    /// `prev_value` for [`SpecLog::replay`].
    fn rewind(&mut self, fleet: &mut SourceFleet, k: usize) {
        let e = &mut self.entries[k];
        let i = e.id.index();
        let hot = &mut fleet.hot[i];
        e.prev_value = std::mem::replace(&mut hot.value, e.prev_value);
        hot.last_reported = e.prev_last_reported;
        fleet.cold[i].traffic -= u64::from(e.reported);
    }

    /// Re-applies rewound entry `k` against the source's current state and
    /// re-journals it in place, reporting a changed report bit.
    fn replay(
        &mut self,
        fleet: &mut SourceFleet,
        k: usize,
        flipped: &mut impl FnMut(u64, StreamId, f64, bool),
    ) {
        let e = &mut self.entries[k];
        let (i, value) = (e.id.index(), e.prev_value);
        let prev = fleet.hot[i];
        let reported = fleet.apply(i, value);
        if reported {
            fleet.mark_reported(i, 1);
        }
        if reported != e.reported {
            flipped(e.seq, e.id, value, reported);
        }
        e.reported = reported;
        e.prev_value = prev.value;
        e.prev_last_reported = prev.last_reported;
    }

    /// Index of the entry journaled under `seq` within `entries[lo..hi]`.
    fn find(&self, seq: u64, lo: usize, hi: usize) -> usize {
        let at = self.entries[lo..hi].partition_point(|e| e.seq < seq);
        assert!(
            self.entries.get(lo + at).is_some_and(|e| e.seq == seq),
            "respeculated position {seq} is not journaled"
        );
        lo + at
    }
}

impl FleetOps for SourceFleet {
    fn len(&self) -> usize {
        self.hot.len()
    }

    fn deliver(&mut self, id: StreamId, value: f64) -> Option<f64> {
        let i = id.index();
        self.dirty.mark(i);
        self.apply(i, value).then(|| {
            self.mark_reported(i, 1);
            value
        })
    }

    fn probe(&mut self, id: StreamId) -> f64 {
        self.probe_at(id.index())
    }

    fn probe_all(&mut self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(self.probe_at(i));
        }
    }

    fn probe_many(&mut self, ids: &[StreamId], out: &mut Vec<f64>) {
        out.clear();
        out.reserve(ids.len());
        for &id in ids {
            out.push(self.probe_at(id.index()));
        }
    }

    fn install(&mut self, id: StreamId, filter: Filter) -> Option<f64> {
        self.install_at(id.index(), filter)
    }

    fn install_many(&mut self, installs: &[(StreamId, Filter)], syncs: &mut Vec<(StreamId, f64)>) {
        syncs.clear();
        for (id, filter) in installs {
            if let Some(v) = self.install_at(id.index(), filter.clone()) {
                syncs.push((*id, v));
            }
        }
    }

    fn broadcast(&mut self, filter: Filter, syncs: &mut Vec<(StreamId, f64)>) {
        syncs.clear();
        for i in 0..self.len() {
            if let Some(v) = self.install_at(i, filter.clone()) {
                syncs.push((StreamId(i as u32), v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> SourceFleet {
        SourceFleet::from_values(&[100.0, 500.0, 900.0])
    }

    /// Every source's traffic, in id order.
    fn traffic(fleet: &SourceFleet) -> Vec<u64> {
        fleet.iter().map(|s| s.traffic()).collect()
    }

    #[test]
    fn probe_all_costs_2n_and_fills_view() {
        let mut fleet = setup();
        let mut values = vec![f64::NAN; 8]; // stale scratch: must be cleared
        fleet.probe_all(&mut values);
        assert_eq!(values, vec![100.0, 500.0, 900.0], "every value, in id order");
        assert_eq!(traffic(&fleet), vec![2, 2, 2], "a request and a reply each");
        assert!(fleet.iter().all(|s| s.last_reported() == Some(s.value())));
    }

    #[test]
    fn unfiltered_update_reports() {
        let mut fleet = setup();
        assert_eq!(fleet.deliver(StreamId(0), 120.0), Some(120.0));
        assert_eq!(traffic(&fleet), vec![1, 0, 0]);
        assert_eq!(fleet.source(StreamId(0)).last_reported(), Some(120.0));
    }

    #[test]
    fn filtered_update_inside_is_silent_and_stale() {
        let mut fleet = setup();
        fleet.probe_all(&mut Vec::new());
        fleet.install(StreamId(1), Filter::interval(400.0, 600.0));
        let before = traffic(&fleet);
        assert_eq!(fleet.deliver(StreamId(1), 550.0), None);
        assert_eq!(traffic(&fleet), before);
        // What the server last heard is stale by design.
        assert_eq!(fleet.source(StreamId(1)).last_reported(), Some(500.0));
        // Ground truth moved.
        assert_eq!(fleet.true_value(StreamId(1)), 550.0);
    }

    #[test]
    fn crossing_update_reports_and_refreshes() {
        let mut fleet = setup();
        fleet.probe_all(&mut Vec::new());
        fleet.install(StreamId(1), Filter::interval(400.0, 600.0));
        assert_eq!(fleet.deliver(StreamId(1), 700.0), Some(700.0));
        assert_eq!(fleet.source(StreamId(1)).last_reported(), Some(700.0));
    }

    #[test]
    fn install_sync_when_inconsistent() {
        let mut fleet = setup();
        fleet.probe_all(&mut Vec::new());
        // Silent drift within a broad filter.
        fleet.install(StreamId(1), Filter::interval(0.0, 1000.0));
        assert_eq!(fleet.deliver(StreamId(1), 800.0), None);
        let before = fleet.source(StreamId(1)).traffic();
        // New filter separates believed (500) from true (800): sync expected.
        assert_eq!(fleet.install(StreamId(1), Filter::interval(750.0, 900.0)), Some(800.0));
        assert_eq!(fleet.source(StreamId(1)).traffic(), before + 2, "the install and the sync");
        assert_eq!(fleet.source(StreamId(1)).last_reported(), Some(800.0));
    }

    #[test]
    fn broadcast_costs_n_and_syncs_inconsistent_sources() {
        let mut fleet = setup();
        fleet.probe_all(&mut Vec::new());
        // All believed values: 100, 500, 900 — all consistent with ground
        // truth, so a broadcast of [0, 1000] yields no syncs.
        let mut syncs = vec![(StreamId(9), 0.0)]; // stale scratch: must be cleared
        fleet.broadcast(Filter::interval(0.0, 1000.0), &mut syncs);
        assert!(syncs.is_empty());
        assert_eq!(traffic(&fleet), vec![3, 3, 3], "one install message per source");

        // Drift silently, then broadcast a filter that separates believed
        // from true for streams 0 and 2, which sync in ascending id order.
        assert_eq!(fleet.deliver(StreamId(2), 460.0), None); // inside [0, 1000]: silent
        assert_eq!(fleet.deliver(StreamId(0), 450.0), None);
        fleet.broadcast(Filter::interval(400.0, 600.0), &mut syncs);
        assert_eq!(syncs, vec![(StreamId(0), 450.0), (StreamId(2), 460.0)]);
    }

    #[test]
    fn traffic_accounting_per_source() {
        let mut fleet = setup();
        fleet.probe(StreamId(0)); // 2
        fleet.install(StreamId(0), Filter::wildcard()); // 1
        assert_eq!(traffic(&fleet), vec![3, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn empty_fleet_rejected() {
        SourceFleet::from_values(&[]);
    }

    #[test]
    fn probe_many_equals_scalar_probes() {
        let ids = [StreamId(2), StreamId(0), StreamId(2)];

        let mut fleet = setup();
        let mut out = vec![f64::NAN; 8]; // stale scratch: must be cleared
        fleet.probe_many(&ids, &mut out);

        let mut fleet2 = setup();
        let scalar: Vec<f64> = ids.iter().map(|&id| fleet2.probe(id)).collect();

        assert_eq!(out, scalar);
        assert_eq!(out, vec![900.0, 100.0, 900.0]);
        assert_eq!(traffic(&fleet), traffic(&fleet2));
        assert_eq!(traffic(&fleet), vec![2, 0, 4]);
        assert_eq!(fleet.source(StreamId(1)).last_reported(), None, "never probed");
    }

    #[test]
    fn install_many_equals_scalar_installs_and_orders_syncs() {
        // Install order (2, 0) must be the sync order, not id order.
        let plan = |f: Filter| vec![(StreamId(2), f.clone()), (StreamId(0), f)];

        let mut fleet = setup();
        fleet.probe_all(&mut Vec::new());
        // Silent drift for both within broad filters.
        fleet.install(StreamId(0), Filter::interval(0.0, 1000.0));
        fleet.install(StreamId(2), Filter::interval(0.0, 1000.0));
        fleet.deliver(StreamId(0), 450.0);
        fleet.deliver(StreamId(2), 460.0);
        let mut fleet2 = fleet.clone();

        // New tight filter separates believed (100 / 900) from true values.
        let mut syncs = vec![(StreamId(9), 0.0)]; // stale scratch
        fleet.install_many(&plan(Filter::interval(400.0, 500.0)), &mut syncs);

        let mut syncs2 = Vec::new();
        for (id, f) in plan(Filter::interval(400.0, 500.0)) {
            if let Some(v) = fleet2.install(id, f) {
                syncs2.push((id, v));
            }
        }

        assert_eq!(syncs, syncs2);
        assert_eq!(syncs, vec![(StreamId(2), 460.0), (StreamId(0), 450.0)]);
        assert_eq!(observe(&fleet), observe(&fleet2));
    }

    #[test]
    fn spec_log_rolls_back_exactly() {
        let mut fleet = setup();
        fleet.probe_all(&mut Vec::new());
        fleet.install(StreamId(1), Filter::interval(400.0, 600.0));
        let traffic_before = fleet.source(StreamId(1)).traffic();

        let mut log = SpecLog::new();
        assert_eq!(log.apply(&mut fleet, 0, StreamId(1), 550.0), None, "silent");
        assert_eq!(log.apply(&mut fleet, 1, StreamId(1), 700.0), Some(700.0), "report");
        assert_eq!(log.len(), 2);
        // Tentative report charged one message of traffic and refreshed
        // last-reported.
        assert_eq!(fleet.source(StreamId(1)).traffic(), traffic_before + 1);
        assert_eq!(fleet.source(StreamId(1)).last_reported(), Some(700.0));

        // Keep the silent application, roll back the report.
        let (kept, undone) = log.commit_below(&mut fleet, 1);
        assert_eq!((kept, undone), (1, 1));
        assert!(log.is_empty());
        assert_eq!(fleet.true_value(StreamId(1)), 550.0);
        assert_eq!(fleet.source(StreamId(1)).traffic(), traffic_before);
        assert_eq!(fleet.source(StreamId(1)).last_reported(), Some(500.0));
    }

    /// Every observable field of every source.
    type Observed = Vec<(u64, Option<u64>, Filter, u64)>;

    fn observe(fleet: &SourceFleet) -> Observed {
        fleet
            .iter()
            .map(|s| {
                let last = s.last_reported().map(f64::to_bits);
                (s.value().to_bits(), last, s.filter().clone(), s.traffic())
            })
            .collect()
    }

    #[test]
    fn spec_log_rollback_equals_clone_before_apply() {
        let mut rng = simkit::SimRng::seed_from_u64(0x5BEC);
        let filter = |rng: &mut simkit::SimRng, v: f64| match rng.index(5) {
            0 => Filter::ReportAll,
            1 => Filter::wildcard(),
            2 => Filter::suppress(),
            3 => Filter::cells(std::sync::Arc::from([v - 90.0, v - 10.0, v + 40.0])),
            _ => Filter::interval(v - 60.0, v + 60.0),
        };
        for case in 0..300 {
            let n = 1 + rng.index(6);
            let initial: Vec<f64> = (0..n).map(|i| 100.0 * i as f64).collect();
            let mut fleet = SourceFleet::from_values(&initial);
            // Some sources stay never-reported; the rest carry any filter.
            for (i, &v) in initial.iter().enumerate() {
                if rng.index(4) > 0 {
                    let id = StreamId(i as u32);
                    fleet.probe(id);
                    let f = filter(&mut rng, v);
                    fleet.install(id, f);
                }
            }
            let mut log = SpecLog::new();
            let mut seq = 0u64;
            for round in 0..8 {
                // The reference: a clone of the observable state taken
                // before every application.
                let mut before = Vec::new();
                let first = seq;
                for _ in 0..rng.index(12) {
                    before.push((seq, observe(&fleet)));
                    let id = StreamId(rng.index(n) as u32);
                    let v = fleet.true_value(id) + rng.range_f64(-150.0, 150.0);
                    log.apply(&mut fleet, seq, id, v);
                    seq += 1 + rng.index(2) as u64;
                }
                let after = observe(&fleet);
                let keep_below = first + rng.index((seq - first) as usize + 2) as u64;
                log.commit_below(&mut fleet, keep_below);
                let want = before
                    .into_iter()
                    .find(|(s, _)| *s >= keep_below)
                    .map_or(after, |(_, observed)| observed);
                assert_eq!(observe(&fleet), want, "case {case} round {round}");
                // Between speculation generations the server may touch any
                // source.
                if rng.index(2) == 0 {
                    let id = StreamId(rng.index(n) as u32);
                    let f = filter(&mut rng, fleet.true_value(id));
                    fleet.install(id, f);
                }
            }
        }
    }

    /// One step of a serial history: a workload event, or a touch that ran
    /// right after the event at `anchor` (and after earlier touches there)
    /// at one source, or at every source when `id` is `None`.
    #[derive(Clone, Debug)]
    enum Step {
        Event { seq: u64, id: StreamId, value: f64 },
        Touch { anchor: u64, id: Option<StreamId>, install: Option<Filter> },
    }

    impl Step {
        /// Serial order: by position, events before the touches after them.
        fn key(&self) -> (u64, bool) {
            match *self {
                Step::Event { seq, .. } => (seq, false),
                Step::Touch { anchor, .. } => (anchor, true),
            }
        }
    }

    /// A touch's result: the probed values, or the sync reports.
    type TouchOut = Vec<(StreamId, f64)>;

    /// Runs a touch on `fleet`: the probed values, or the install's (or
    /// broadcast's) sync reports.
    fn run_touch(
        fleet: &mut SourceFleet,
        id: Option<StreamId>,
        install: &Option<Filter>,
    ) -> TouchOut {
        let mut out = Vec::new();
        match (id, install) {
            (Some(id), None) => out.push((id, fleet.probe(id))),
            (Some(id), Some(f)) => out.extend(fleet.install(id, f.clone()).map(|v| (id, v))),
            (None, None) => {
                let mut values = Vec::new();
                fleet.probe_all(&mut values);
                out.extend(values.into_iter().enumerate().map(|(i, v)| (StreamId(i as u32), v)));
            }
            (None, Some(f)) => fleet.broadcast(f.clone(), &mut out),
        }
        out
    }

    /// The history executed serially on a clone of `base`: the fleet, the
    /// report bit of every event by seq, and the result of the touch that
    /// runs last (the sort is stable, so with the greatest anchor it is
    /// the one pushed last).
    fn serial(base: &SourceFleet, history: &[Step]) -> (SourceFleet, Vec<(u64, bool)>, TouchOut) {
        let mut fleet = base.clone();
        let mut steps = history.to_vec();
        steps.sort_by_key(Step::key);
        let (mut bits, mut last) = (Vec::new(), Vec::new());
        for step in &steps {
            match step {
                Step::Event { seq, id, value } => {
                    bits.push((*seq, fleet.deliver(*id, *value).is_some()));
                }
                Step::Touch { id, install, .. } => last = run_touch(&mut fleet, *id, install),
            }
        }
        bits.sort_unstable_by_key(|&(seq, _)| seq);
        (fleet, bits, last)
    }

    #[test]
    fn spec_log_respeculation_equals_serial_execution() {
        // Random interleavings of speculative applications, touches (a probe
        // or an install) respeculating the touched source's later
        // applications, touches of every source (a probe of all, a
        // broadcast) respeculating the whole suffix, and commits, against
        // the same history executed serially on a clone — every source's
        // value, last-reported, filter and traffic, the flip list, and the
        // touch's result.
        let mut rng = simkit::SimRng::seed_from_u64(0x2E5BEC);
        let filter = |rng: &mut simkit::SimRng, v: f64| match rng.index(4) {
            0 => Filter::ReportAll,
            1 => Filter::wildcard(),
            2 => Filter::cells(std::sync::Arc::from([v - 90.0, v - 10.0, v + 40.0])),
            _ => Filter::interval(v - 60.0, v + 60.0),
        };
        let (mut flipped_to, mut touches_with_positions) = ([0u32; 2], 0u32);
        // Fleet-wide touches with a suffix to respeculate, and their flips.
        let mut fleet_wide = [0u32; 2];
        for case in 0..300 {
            let n = 1 + rng.index(4);
            let initial: Vec<f64> = (0..n).map(|i| 100.0 * i as f64).collect();
            let mut fleet = SourceFleet::from_values(&initial);
            for (i, &v) in initial.iter().enumerate() {
                if rng.index(4) > 0 {
                    run_touch(&mut fleet, Some(StreamId(i as u32)), &None);
                    run_touch(&mut fleet, Some(StreamId(i as u32)), &Some(filter(&mut rng, v)));
                }
            }
            // `base` is the state at the last commit, `history` everything
            // since; seqs start at 1 so that anchor 0 precedes them all.
            let (mut base, mut history) = (fleet.clone(), Vec::new());
            let mut log = SpecLog::new();
            let (mut next_seq, mut floor) = (1u64, 0u64);
            // Applications a fleet-wide touch committed since the last commit.
            let mut prefix_committed = 0usize;
            for op in 0..40 {
                let tag = format!("case {case} op {op}");
                match rng.index(5) {
                    0 | 1 => {
                        for _ in 0..1 + rng.index(4) {
                            let id = StreamId(rng.index(n) as u32);
                            let value = fleet.true_value(id) + rng.range_f64(-150.0, 150.0);
                            log.apply(&mut fleet, next_seq, id, value);
                            history.push(Step::Event { seq: next_seq, id, value });
                            next_seq += 1 + rng.index(2) as u64;
                        }
                    }
                    2 | 3 => {
                        // The report being handled: at or after the last
                        // touch's, before the speculation tip.
                        let anchor = floor + rng.index((next_seq - floor) as usize) as u64;
                        floor = anchor;
                        let id = (rng.index(4) > 0).then(|| StreamId(rng.index(n) as u32));
                        let near = fleet.true_value(id.unwrap_or(StreamId(0)))
                            + rng.range_f64(-80.0, 80.0);
                        let install = (rng.index(2) == 0).then(|| filter(&mut rng, near));
                        let event_at = |history: &[Step], seq| {
                            history.iter().find_map(|s| match *s {
                                Step::Event { seq: q, id, value } if q == seq => Some((id, value)),
                                _ => None,
                            })
                        };
                        let (_, before, _) = serial(&base, &history);
                        history.push(Step::Touch { anchor, id, install: install.clone() });
                        let (want, after, want_out) = serial(&base, &history);
                        let mut flips = Vec::new();
                        let flipped = |seq, fid, value: f64, reports| {
                            flips.push((seq, fid, value.to_bits(), reports))
                        };
                        let touch = |fleet: &mut SourceFleet| run_touch(fleet, id, &install);
                        let out = match id {
                            Some(id) => {
                                let seqs: Vec<u64> = (anchor + 1..next_seq)
                                    .filter(|&q| event_at(&history, q).is_some_and(|e| e.0 == id))
                                    .collect();
                                touches_with_positions += u32::from(!seqs.is_empty());
                                log.respeculate(&mut fleet, &seqs, touch, flipped)
                            }
                            None => {
                                // The suffix form, also against the rollback
                                // it replaces: roll the suffix back on a
                                // clone, run the touch, re-apply the suffix.
                                let (mut rolled, mut reference) = (log.clone(), fleet.clone());
                                rolled.commit_below(&mut reference, anchor + 1);
                                run_touch(&mut reference, None, &install);
                                let mut replay = SpecLog::new();
                                for e in log.entries.iter().filter(|e| e.seq > anchor) {
                                    let value = event_at(&history, e.seq).unwrap().1;
                                    replay.apply(&mut reference, e.seq, e.id, value);
                                }
                                assert_eq!(observe(&want), observe(&reference), "{tag}: rollback");
                                let journaled = log.len();
                                log.commit_prefix(&mut fleet, anchor + 1);
                                prefix_committed += journaled - log.len();
                                fleet_wide[0] += u32::from(!log.is_empty());
                                log.respeculate_all(&mut fleet, touch, flipped)
                            }
                        };
                        let want_flips: Vec<(u64, StreamId, u64, bool)> = before
                            .iter()
                            .zip(&after)
                            .filter(|(b, a)| b.1 != a.1)
                            .map(|(_, &(seq, reports))| {
                                let (fid, value) = event_at(&history, seq).unwrap();
                                (seq, fid, value.to_bits(), reports)
                            })
                            .collect();
                        assert_eq!(flips, want_flips, "{tag}: flips");
                        assert_eq!(out, want_out, "{tag}: result");
                        assert_eq!(observe(&fleet), observe(&want), "{tag}: fleet after the touch");
                        for f in &flips {
                            flipped_to[usize::from(f.3)] += 1;
                        }
                        fleet_wide[1] += if id.is_none() { flips.len() as u32 } else { 0 };
                    }
                    _ => {
                        // A cut just past the last touch's report, or the
                        // quiescent commit of everything.
                        let keep_below = if rng.index(3) == 0 {
                            u64::MAX
                        } else {
                            floor + 1 + rng.index(3) as u64
                        };
                        history.retain(
                            |s| !matches!(s, Step::Event { seq, .. } if *seq >= keep_below),
                        );
                        let (want, _, _) = serial(&base, &history);
                        let kept =
                            history.iter().filter(|s| matches!(s, Step::Event { .. })).count();
                        let (k, _) = log.commit_below(&mut fleet, keep_below);
                        assert_eq!(k as usize + prefix_committed, kept, "{tag}: kept");
                        assert_eq!(
                            observe(&fleet),
                            observe(&want),
                            "{tag}: fleet after the commit"
                        );
                        (base, history, prefix_committed) = (want, Vec::new(), 0);
                        next_seq = next_seq.min(keep_below);
                        floor = next_seq - 1;
                    }
                }
            }
        }
        assert!(touches_with_positions > 1000, "the model must respeculate");
        assert!(flipped_to.iter().all(|&f| f > 100), "flips both ways: {flipped_to:?}");
        assert!(fleet_wide.iter().all(|&f| f > 100), "fleet-wide respeculation: {fleet_wide:?}");
    }

    #[test]
    fn decode_never_aliases_the_nan_sentinels() {
        use asf_persist::{PersistError, StateReader, StateWriter};
        // A one-source fleet image: value, last-reported, interval filter,
        // traffic.
        let image = |last: Option<f64>, lo: f64, hi: f64| {
            let mut w = StateWriter::new();
            w.put_u64(1);
            w.put_f64(5.0);
            last.put(&mut w);
            w.put_u8(1);
            w.put_f64(lo);
            w.put_f64(hi);
            w.put_u64(3);
            w.into_bytes()
        };
        let decode = |bytes: Vec<u8>| {
            let mut fleet = SourceFleet::from_values(&[0.0]);
            fleet.decode_rows(&mut StateReader::new(&bytes), Rows::All).map(|()| fleet)
        };
        let corrupt =
            |r: asf_persist::Result<SourceFleet>| matches!(r, Err(PersistError::Corrupt(_)));

        let fleet = decode(image(Some(1.0), 0.0, 10.0)).unwrap();
        assert_eq!(fleet.source(StreamId(0)).last_reported(), Some(1.0));
        let fleet = decode(image(None, 0.0, 10.0)).unwrap();
        assert_eq!(fleet.source(StreamId(0)).last_reported(), None);
        for last in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(corrupt(decode(image(Some(last), 0.0, 10.0))), "last_reported {last}");
        }
        for (lo, hi) in [(f64::NAN, 10.0), (0.0, f64::NAN), (f64::NAN, f64::NAN)] {
            assert!(corrupt(decode(image(Some(1.0), lo, hi))), "bounds [{lo}, {hi}]");
        }
    }

    #[test]
    fn a_delta_of_the_dirty_rows_rebuilds_the_fleet_from_its_base() {
        // Random histories of every row writer — speculative applications
        // committed or rolled back, respeculated touches, probes, installs
        // and broadcasts — after a full image: the base plus the dirty rows
        // must equal the fleet in every observable field, and the dirty
        // count must stay at most the population.
        use asf_persist::{StateReader, StateWriter};
        let mut rng = simkit::SimRng::seed_from_u64(0xD1_27E);
        let (mut sparse, mut full) = (0u32, 0u32);
        for case in 0..200 {
            let n = 1 + rng.index(40);
            let initial: Vec<f64> = (0..n).map(|i| 10.0 * i as f64).collect();
            let mut fleet = SourceFleet::from_values(&initial);
            fleet.probe_all(&mut Vec::new());
            // Filters under which most updates are silent: a silent
            // application changes the row without marking it reported.
            for (i, &v) in initial.iter().enumerate() {
                fleet.install(StreamId(i as u32), Filter::interval(v - 40.0, v + 40.0));
            }
            fleet.clear_dirty();
            let base = fleet.clone();
            let mut log = SpecLog::new();
            let mut seq = 0u64;
            for _ in 0..rng.index(30) {
                let id = StreamId(rng.index(n) as u32);
                let v = fleet.true_value(id) + rng.range_f64(-50.0, 50.0);
                match rng.index(6) {
                    0 | 1 => {
                        log.apply(&mut fleet, seq, id, v);
                        seq += 1;
                    }
                    2 => {
                        // A cut that rolls the suffix back, or a commit of a
                        // prefix that leaves it journaled (the shard's path).
                        let keep_below = seq.saturating_sub(rng.index(3) as u64);
                        if rng.index(2) == 0 {
                            log.commit_below(&mut fleet, keep_below);
                        } else {
                            log.commit_prefix(&mut fleet, keep_below);
                        }
                    }
                    3 => {
                        fleet.install(id, Filter::interval(v - 20.0, v + 20.0));
                    }
                    4 => {
                        fleet.probe(id);
                    }
                    _ if rng.index(4) == 0 => {
                        fleet.broadcast(Filter::interval(v - 90.0, v + 90.0), &mut Vec::new());
                    }
                    _ => {
                        let touch = |f: &mut SourceFleet| f.probe(id);
                        log.respeculate_all(&mut fleet, touch, |_, _, _, _| {});
                    }
                }
            }
            log.commit_prefix(&mut fleet, u64::MAX);
            assert!(fleet.dirty.count() <= n);
            if fleet.dirty.count() < n {
                sparse += 1;
            } else {
                full += 1;
            }
            let mut w = StateWriter::new();
            fleet.encode_rows(&mut w, Rows::Dirty);
            let bytes = w.into_bytes();
            let mut rebuilt = base.clone();
            let mut r = StateReader::new(&bytes);
            rebuilt.decode_rows(&mut r, Rows::Dirty).unwrap();
            r.finish().unwrap();
            assert_eq!(observe(&rebuilt), observe(&fleet), "case {case}");
            // The full image is the all-rows case of the same writer.
            let mut w = StateWriter::new();
            fleet.encode_rows(&mut w, Rows::All);
            let mut from_full = SourceFleet::from_values(&vec![0.0; n]);
            from_full.decode_rows(&mut StateReader::new(w.bytes()), Rows::All).unwrap();
            assert_eq!(observe(&from_full), observe(&fleet), "case {case}: full image");
        }
        assert!(sparse > 50 && full > 10, "both shapes: {sparse} sparse, {full} full");
    }
}
