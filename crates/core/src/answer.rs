//! Answer sets of entity-based queries.

use asf_persist::{Persist, PersistError, StateReader, StateWriter, Table};
use streamnet::StreamId;

use crate::tolerance::FractionMetrics;

/// The answer of an entity-based query: a set of stream identifiers.
///
/// Stream ids are dense (`0..n`), so the set is backed by a bitset:
/// membership updates are O(1) — they sit on the serial path of every
/// report the server handles — while iteration stays in ascending id
/// order, which keeps whole simulations reproducible.
#[derive(Clone, Default)]
pub struct AnswerSet {
    words: Vec<u64>,
    len: usize,
}

impl AnswerSet {
    /// Creates an empty answer set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members `|A(t)|`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    pub fn contains(&self, id: StreamId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words.get(w).is_some_and(|word| word & (1u64 << b) != 0)
    }

    /// Inserts a member; returns whether it was new.
    pub fn insert(&mut self, id: StreamId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << b;
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes a member; returns whether it was present.
    pub fn remove(&mut self, id: StreamId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let mask = 1u64 << b;
        match self.words.get_mut(w) {
            Some(word) if *word & mask != 0 => {
                *word &= !mask;
                self.len -= 1;
                true
            }
            _ => false,
        }
    }

    /// Clears all members.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> AnswerIter<'_> {
        AnswerIter {
            words: &self.words,
            word_idx: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Computes the Definition-2 error counts of this answer against a
    /// membership predicate over the whole population `0..n`.
    ///
    /// `satisfies(id)` must return the *ground-truth* answer membership.
    pub fn fraction_metrics(
        &self,
        n: usize,
        mut satisfies: impl FnMut(StreamId) -> bool,
    ) -> FractionMetrics {
        let mut e_plus = 0;
        let mut e_minus = 0;
        for i in 0..n {
            let id = StreamId(i as u32);
            let truth = satisfies(id);
            let claimed = self.contains(id);
            match (claimed, truth) {
                (true, false) => e_plus += 1,
                (false, true) => e_minus += 1,
                _ => {}
            }
        }
        FractionMetrics { e_plus, e_minus, answer_size: self.len() }
    }
}

impl PartialEq for AnswerSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        // Word storage may carry trailing zeros (removals never shrink it).
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for AnswerSet {}

impl std::fmt::Debug for AnswerSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A sparse answer set: a sorted vector of member ids.
///
/// [`AnswerSet`]'s bitset costs `n/8` bytes *per set*, which is the right
/// trade for a handful of answers but prohibitive for many (100k answers
/// over 100k streams ≈ 125 GB of bitsets). `IdSet` costs 4 bytes per
/// *member* instead. Membership updates are O(log |A| + |A|) (binary
/// search + shift). [`crate::multi_query::MultiRangeZt`] checkpoints its
/// per-query answers in this encoding.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdSet {
    ids: Vec<u32>,
}

impl IdSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from an ascending, duplicate-free id list.
    pub fn from_sorted(ids: Vec<u32>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted and unique");
        Self { ids }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, id: StreamId) -> bool {
        self.ids.binary_search(&id.0).is_ok()
    }

    /// Inserts a member; returns whether it was new.
    pub fn insert(&mut self, id: StreamId) -> bool {
        match self.ids.binary_search(&id.0) {
            Ok(_) => false,
            Err(pos) => {
                self.ids.insert(pos, id.0);
                true
            }
        }
    }

    /// Removes a member; returns whether it was present.
    pub fn remove(&mut self, id: StreamId) -> bool {
        match self.ids.binary_search(&id.0) {
            Ok(pos) => {
                self.ids.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = StreamId> + '_ {
        self.ids.iter().map(|&i| StreamId(i))
    }

    /// Materializes the set as a dense [`AnswerSet`].
    pub fn to_answer(&self) -> AnswerSet {
        self.iter().collect()
    }
}

/// The one answer-set layout, shared by [`AnswerSet`] and [`IdSet`]: the
/// member count, then the members ascending — history-independent bytes,
/// whatever insert/remove sequence built the set — declared as a
/// one-column indexed table, so the store keeps the ids as gaps.
fn put_members(w: &mut StateWriter, len: usize, ids: impl Iterator<Item = u32>) {
    w.put_u64(len as u64);
    w.put_table(Table::Indexed, ids, |w, id| w.put_u32(id));
}

/// Reads the members [`put_members`] wrote: ids of the reader's population,
/// strictly ascending, as the writer leaves them.
fn get_members(r: &mut StateReader<'_>) -> asf_persist::Result<Vec<u32>> {
    let ids: Vec<u32> = Vec::<StreamId>::get(r)?.into_iter().map(|id| id.0).collect();
    if !ids.windows(2).all(|w| w[0] < w[1]) {
        return Err(PersistError::corrupt("answer members not strictly ascending"));
    }
    Ok(ids)
}

impl Persist for AnswerSet {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut StateWriter) {
        put_members(w, self.len, self.iter().map(|id| id.0));
    }
    fn get(r: &mut StateReader<'_>) -> asf_persist::Result<Self> {
        Ok(get_members(r)?.into_iter().map(StreamId).collect())
    }
}

/// Byte-identical to the [`AnswerSet`] of the same members, and declared
/// the same way.
impl Persist for IdSet {
    const MIN_BYTES: usize = 8;
    fn put(&self, w: &mut StateWriter) {
        put_members(w, self.ids.len(), self.ids.iter().copied());
    }
    fn get(r: &mut StateReader<'_>) -> asf_persist::Result<Self> {
        Ok(Self { ids: get_members(r)? })
    }
}

/// Ascending-id iterator over an [`AnswerSet`].
pub struct AnswerIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    bits: u64,
}

impl Iterator for AnswerIter<'_> {
    type Item = StreamId;

    fn next(&mut self) -> Option<StreamId> {
        while self.bits == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.bits = self.words[self.word_idx];
        }
        let b = self.bits.trailing_zeros();
        self.bits &= self.bits - 1;
        Some(StreamId((self.word_idx * 64) as u32 + b))
    }
}

impl FromIterator<StreamId> for AnswerSet {
    fn from_iter<T: IntoIterator<Item = StreamId>>(iter: T) -> Self {
        let mut set = AnswerSet::new();
        for id in iter {
            set.insert(id);
        }
        set
    }
}

impl<'a> IntoIterator for &'a AnswerSet {
    type Item = StreamId;
    type IntoIter = AnswerIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> AnswerSet {
        v.iter().map(|&i| StreamId(i)).collect()
    }

    #[test]
    fn set_semantics() {
        let mut a = AnswerSet::new();
        assert!(a.insert(StreamId(3)));
        assert!(!a.insert(StreamId(3)), "duplicate insert is a no-op");
        assert!(a.contains(StreamId(3)));
        assert_eq!(a.len(), 1);
        assert!(a.remove(StreamId(3)));
        assert!(!a.remove(StreamId(3)));
        assert!(a.is_empty());
    }

    #[test]
    fn deterministic_iteration_order() {
        let a = ids(&[9, 1, 5, 64, 200, 63]);
        let order: Vec<u32> = a.iter().map(|s| s.0).collect();
        assert_eq!(order, vec![1, 5, 9, 63, 64, 200]);
    }

    #[test]
    fn equality_ignores_trailing_storage() {
        let mut a = ids(&[1, 500]);
        let b = ids(&[1]);
        assert_ne!(a, b);
        a.remove(StreamId(500));
        assert_eq!(a, b, "removal leaves zeroed trailing words behind");
        assert_eq!(b, a);
    }

    #[test]
    fn removals_outside_storage_are_noops() {
        let mut a = ids(&[1]);
        assert!(!a.remove(StreamId(1000)));
        assert!(!a.contains(StreamId(1000)));
    }

    #[test]
    fn encode_is_canonical_and_round_trips() {
        let mut a = ids(&[1, 500, 9]);
        a.remove(StreamId(500)); // leaves trailing zero words behind
        let b = ids(&[1, 9]);
        let enc = |s: &AnswerSet| {
            let mut w = StateWriter::new();
            s.put(&mut w);
            w.into_bytes()
        };
        assert_eq!(enc(&a), enc(&b), "encoding must not leak storage history");
        let bytes = enc(&a);
        let mut r = StateReader::new(&bytes);
        let back = AnswerSet::get(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn fraction_metrics_against_truth() {
        // Population 0..5; truth = {0, 1, 2}; answer = {1, 2, 3}.
        let a = ids(&[1, 2, 3]);
        let m = a.fraction_metrics(5, |id| id.0 <= 2);
        assert_eq!(m.e_plus, 1); // 3 claimed but wrong
        assert_eq!(m.e_minus, 1); // 0 missing
        assert_eq!(m.answer_size, 3);
        assert!((m.f_plus() - 1.0 / 3.0).abs() < 1e-12);
        assert!((m.f_minus() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn id_set_matches_answer_set_semantics() {
        let mut sparse = IdSet::new();
        let mut dense = AnswerSet::new();
        for &(insert, id) in
            &[(true, 9), (true, 1), (true, 500), (false, 9), (true, 9), (false, 1000)]
        {
            if insert {
                assert_eq!(sparse.insert(StreamId(id)), dense.insert(StreamId(id)));
            } else {
                assert_eq!(sparse.remove(StreamId(id)), dense.remove(StreamId(id)));
            }
        }
        assert_eq!(sparse.len(), dense.len());
        assert_eq!(sparse.to_answer(), dense);
        assert_eq!(
            sparse.iter().collect::<Vec<_>>(),
            dense.iter().collect::<Vec<_>>(),
            "iteration order matches"
        );
        let enc_sparse = {
            let mut w = StateWriter::new();
            sparse.put(&mut w);
            w.into_bytes()
        };
        let enc_dense = {
            let mut w = StateWriter::new();
            dense.put(&mut w);
            w.into_bytes()
        };
        assert_eq!(enc_sparse, enc_dense, "wire format is shared");
        let mut r = StateReader::new(&enc_dense);
        let back = IdSet::get(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, sparse);
    }

    #[test]
    fn id_set_decode_rejects_unsorted() {
        // Out of order, repeated, and outside the population: both readers
        // refuse what their writer never writes.
        let members = |ids: &[u32]| {
            let mut w = StateWriter::new();
            w.put_u64(ids.len() as u64);
            ids.iter().for_each(|&id| w.put_u32(id));
            w.into_bytes()
        };
        for bad in [&[5, 3][..], &[3, 3], &[0xFFFF_FFFF]] {
            let bytes = members(bad);
            let read = || {
                let mut r = StateReader::new(&bytes);
                r.set_population(100);
                r
            };
            assert!(IdSet::get(&mut read()).is_err(), "{bad:?}");
            assert!(AnswerSet::get(&mut read()).is_err(), "{bad:?}");
        }
        let bytes = members(&[3, 5]);
        assert_eq!(AnswerSet::get(&mut StateReader::new(&bytes)).unwrap(), ids(&[3, 5]));
    }

    #[test]
    fn perfect_answer_has_zero_errors() {
        let a = ids(&[0, 1]);
        let m = a.fraction_metrics(4, |id| id.0 <= 1);
        assert_eq!((m.e_plus, m.e_minus), (0, 0));
        assert_eq!(m.f_plus(), 0.0);
        assert_eq!(m.f_minus(), 0.0);
    }
}
