//! The server's view of stream values.
//!
//! The server only knows what sources have told it (reports and probe
//! replies), so its view may be stale. Protocols rank and select streams
//! based on this view; the ground truth lives in the sources and is only
//! accessible to the oracle (tests) or by paying probe messages.

use asf_persist::{persist, Persist, PersistError, Rows, StateReader, StateWriter};

use crate::rows::DirtyRows;
use crate::StreamId;

/// Last-known values of all `n` streams, indexed by [`StreamId`].
///
/// [`ServerView::set`] and [`ServerView::mark_unknown`], its only entry
/// writers, mark the entry in a `DirtyRows` bitmap, so a delta
/// checkpoint can write just the entries changed since the last full image
/// ([`ServerView::encode_rows`]). The bitmap is bookkeeping, not view
/// content: equality ignores it.
#[derive(Clone, Debug)]
pub struct ServerView {
    values: Vec<f64>,
    known: Vec<bool>,
    /// Number of `true` entries in `known`, so [`ServerView::all_known`] is
    /// O(1) — batch fleet operations consult it per call, not per stream.
    known_count: usize,
    dirty: DirtyRows,
}

/// One view entry's row in an image.
struct Entry {
    known: bool,
    value: f64,
}

persist!(impl Persist for Entry { known: bool, value: f64 } check Entry::check);

impl Entry {
    /// A known value is finite; an unknown one is `0.0`, as
    /// [`ServerView::mark_unknown`] leaves it.
    fn check(&self) -> asf_persist::Result<()> {
        let ok = if self.known { self.value.is_finite() } else { self.value.to_bits() == 0 };
        if !ok {
            return Err(PersistError::corrupt("view value not finite, or set while unknown"));
        }
        Ok(())
    }
}

impl PartialEq for ServerView {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values && self.known == other.known
    }
}

impl ServerView {
    /// Bytes of one entry's row in an image: known flag and value.
    const ROW_BYTES: usize = Entry::MIN_BYTES;

    /// Creates a view over `n` streams with no knowledge yet.
    pub fn new(n: usize) -> Self {
        Self {
            values: vec![0.0; n],
            known: vec![false; n],
            known_count: 0,
            dirty: DirtyRows::new(n),
        }
    }

    /// Number of streams.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the view is over zero streams.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Records a learned value.
    pub fn set(&mut self, id: StreamId, value: f64) {
        self.dirty.mark(id.index());
        self.values[id.index()] = value;
        if !self.known[id.index()] {
            self.known[id.index()] = true;
            self.known_count += 1;
        }
    }

    /// The last-known value of a stream.
    ///
    /// # Panics
    ///
    /// Panics if the server has never learned this stream's value; protocols
    /// must initialize (probe all) before ranking, so hitting this indicates
    /// a protocol bug.
    pub fn get(&self, id: StreamId) -> f64 {
        assert!(self.known[id.index()], "server has no value for {id} yet");
        self.values[id.index()]
    }

    /// Forgets a stream's value, returning the view to "never heard from".
    ///
    /// Used by the fault-tolerance layer when a source's lease expires: the
    /// server can no longer vouch for the cached value, so degraded views
    /// (e.g. [`ServerView::unknown_ids`]-driven re-probes and live-population
    /// answer checks) must treat the stream as unknown. Subsequent
    /// [`ServerView::get`] calls panic until the stream is re-probed, which
    /// is deliberate: protocol code must not silently rank a dead source.
    pub fn mark_unknown(&mut self, id: StreamId) {
        self.dirty.mark(id.index());
        if self.known[id.index()] {
            self.known[id.index()] = false;
            self.known_count -= 1;
            self.values[id.index()] = 0.0;
        }
    }

    /// Whether the server has ever learned this stream's value.
    pub fn is_known(&self, id: StreamId) -> bool {
        self.known[id.index()]
    }

    /// How many streams' values are known.
    pub fn known_count(&self) -> usize {
        self.known_count
    }

    /// Whether every stream's value is known — O(1) via the maintained
    /// counter.
    pub fn all_known(&self) -> bool {
        self.known_count == self.values.len()
    }

    /// Serializes the entries `rows` selects — every one, positionally, or
    /// each one changed since the dirty bits were last cleared, behind its
    /// index — as `known:bool, value:f64`, declared as one row table.
    pub fn encode_rows(&self, w: &mut StateWriter, rows: Rows) {
        let (count, selected) =
            (self.dirty.selected_count(rows, self.len()), self.dirty.selected(rows, self.len()));
        rows.put_rows(w, count, selected, |w, i| {
            Entry { known: self.known[i], value: self.values[i] }.put(w);
        });
    }

    /// Overwrites the entries an [`ServerView::encode_rows`] image of the
    /// same selection names ([`Rows::All`]: every entry, so the image must
    /// cover exactly this view's population); afterwards exactly those
    /// entries are marked dirty. The view's length is the population of
    /// the stream ids `r` reads after it. Corrupt input is an error, never
    /// a panic; entries read before it stay overwritten.
    pub fn decode_rows(&mut self, r: &mut StateReader<'_>, rows: Rows) -> asf_persist::Result<()> {
        r.set_population(self.len());
        self.dirty.clear();
        rows.get_rows(r, self.len(), Self::ROW_BYTES, |r, i| {
            let entry = Entry::get(r)?;
            let id = StreamId(i as u32);
            if entry.known {
                self.set(id, entry.value);
            } else {
                self.mark_unknown(id);
            }
            Ok(())
        })
    }

    /// The entries changed since the dirty bits were last cleared,
    /// ascending.
    pub fn dirty_ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.dirty.selected(Rows::Dirty, self.len()).map(|i| StreamId(i as u32))
    }

    /// Clears the dirty bits: a full image of every entry was taken.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Ids the server has never heard from, in ascending order — the probe
    /// list for partial-knowledge batch probes (probe only what is missing
    /// instead of re-probing the world).
    pub fn unknown_ids(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.known.iter().enumerate().filter(|&(_, &k)| !k).map(|(i, _)| StreamId(i as u32))
    }

    /// Iterates `(id, last_known_value)` over streams the server knows.
    pub fn iter_known(&self) -> impl Iterator<Item = (StreamId, f64)> + '_ {
        self.values
            .iter()
            .zip(self.known.iter())
            .enumerate()
            .filter(|(_, (_, &k))| k)
            .map(|(i, (&v, _))| (StreamId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_unknown() {
        let v = ServerView::new(3);
        assert_eq!(v.len(), 3);
        assert!(!v.is_known(StreamId(0)));
        assert!(!v.all_known());
        assert_eq!(v.known_count(), 0);
        assert_eq!(v.iter_known().count(), 0);
        assert_eq!(
            v.unknown_ids().collect::<Vec<_>>(),
            vec![StreamId(0), StreamId(1), StreamId(2)]
        );
    }

    #[test]
    fn known_count_ignores_re_sets() {
        let mut v = ServerView::new(3);
        v.set(StreamId(1), 1.0);
        v.set(StreamId(1), 2.0);
        assert_eq!(v.known_count(), 1);
        assert_eq!(v.unknown_ids().collect::<Vec<_>>(), vec![StreamId(0), StreamId(2)]);
        v.set(StreamId(0), 3.0);
        v.set(StreamId(2), 4.0);
        assert!(v.all_known());
        assert_eq!(v.unknown_ids().count(), 0);
    }

    #[test]
    fn set_then_get() {
        let mut v = ServerView::new(3);
        v.set(StreamId(1), 42.0);
        assert!(v.is_known(StreamId(1)));
        assert_eq!(v.get(StreamId(1)), 42.0);
        assert_eq!(v.iter_known().collect::<Vec<_>>(), vec![(StreamId(1), 42.0)]);
    }

    #[test]
    fn all_known_after_full_fill() {
        let mut v = ServerView::new(2);
        v.set(StreamId(0), 1.0);
        v.set(StreamId(1), 2.0);
        assert!(v.all_known());
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut v = ServerView::new(4);
        v.set(StreamId(1), 42.5);
        v.set(StreamId(3), -7.0);
        let mut w = StateWriter::new();
        v.encode_rows(&mut w, Rows::All);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let mut back = ServerView::new(4);
        back.decode_rows(&mut r, Rows::All).unwrap();
        r.finish().unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back.known_count(), 2);
        assert_eq!(back.get(StreamId(1)), 42.5);
        assert_eq!(back.get(StreamId(3)), -7.0);
        assert!(!back.is_known(StreamId(0)));
    }

    #[test]
    fn decode_rejects_oversized_length() {
        let mut w = StateWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut v = ServerView::new(4);
        assert!(v.decode_rows(&mut StateReader::new(&bytes), Rows::All).is_err());
        assert!(v.decode_rows(&mut StateReader::new(&bytes), Rows::Dirty).is_err());
    }

    #[test]
    fn a_delta_of_the_dirty_entries_rebuilds_the_view_from_its_base() {
        let mut v = ServerView::new(6);
        for i in 0..6 {
            v.set(StreamId(i), i as f64);
        }
        v.clear_dirty();
        let base = v.clone();
        v.set(StreamId(4), 40.0);
        v.mark_unknown(StreamId(1));
        v.set(StreamId(4), 41.0);
        assert_eq!(v.dirty.count(), 2);
        let mut w = StateWriter::new();
        v.encode_rows(&mut w, Rows::Dirty);
        assert_eq!(w.len(), 8 + 2 * 13, "count, then index + entry per dirty row");
        let mut rebuilt = base.clone();
        let mut r = StateReader::new(w.bytes());
        rebuilt.decode_rows(&mut r, Rows::Dirty).unwrap();
        r.finish().unwrap();
        assert_eq!(rebuilt, v);
        assert_eq!(rebuilt.known_count(), 5);
        assert_ne!(base, v, "equality compares content");
    }

    #[test]
    #[should_panic(expected = "no value")]
    fn get_unknown_panics() {
        let v = ServerView::new(1);
        v.get(StreamId(0));
    }

    #[test]
    fn mark_unknown_forgets_and_is_idempotent() {
        let mut v = ServerView::new(2);
        v.set(StreamId(0), 1.0);
        v.set(StreamId(1), 2.0);
        v.mark_unknown(StreamId(0));
        v.mark_unknown(StreamId(0));
        assert!(!v.is_known(StreamId(0)));
        assert_eq!(v.known_count(), 1);
        assert_eq!(v.unknown_ids().collect::<Vec<_>>(), vec![StreamId(0)]);
        // Re-learning restores the invariant.
        v.set(StreamId(0), 3.0);
        assert!(v.all_known());
        assert_eq!(v.get(StreamId(0)), 3.0);
    }
}
