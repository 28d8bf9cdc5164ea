//! Row selection for checkpoints: which rows a snapshot writes, and the
//! dirty bitmap that says which rows changed since the last full image.
//!
//! [`crate::SourceFleet`], [`crate::ServerView`] and
//! [`crate::ChaosState`] each keep a `DirtyRows` bitmap that every row
//! write marks, so a row that changed is always marked (a marked row that
//! did not change is harmless: it is written again). A full checkpoint
//! writes every row ([`Rows::All`]) and clears the bits; a delta checkpoint
//! writes only the marked rows, each behind its index ([`Rows::Dirty`]),
//! and keeps them. (The channel machine's rule is a little wider; see
//! `streamnet::chaos`, "Durability".)

use asf_persist::{PersistError, StateReader, StateWriter, Table};

/// Which rows a row encoder writes (and its reader expects).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rows {
    /// Every row, positionally: the full-image layout
    /// `count:u64, row × count`.
    All,
    /// The rows marked dirty, each behind its index:
    /// `count:u64, (index:u32, row) × count`, indices ascending.
    Dirty,
}

impl Rows {
    /// Writes one row table: the count, then the `count` rows `selected`
    /// names, ascending, each through `put_row` — behind its index under
    /// [`Rows::Dirty`] — declared to the store as one table (a full image's
    /// rows positional, a delta's indexed). The one place a row table's
    /// framing is written: the caller states only its columns.
    pub(crate) fn put_rows(
        self,
        w: &mut StateWriter,
        count: usize,
        selected: impl Iterator<Item = usize>,
        mut put_row: impl FnMut(&mut StateWriter, usize),
    ) {
        w.put_u64(count as u64);
        let table = if self == Rows::All { Table::Positional } else { Table::Indexed };
        w.put_table(table, selected, |w, i| {
            if self == Rows::Dirty {
                w.put_u32(i as u32);
            }
            put_row(w, i);
        });
    }

    /// Reads a table [`Rows::put_rows`] wrote over a table of `len` rows,
    /// none shorter than `row_bytes`, handing each row's index to
    /// `get_row`. The count and the indices are validated
    /// ([`Rows::read_count`], [`Rows::read_index`]) before any row is read.
    pub(crate) fn get_rows(
        self,
        r: &mut StateReader<'_>,
        len: usize,
        row_bytes: usize,
        mut get_row: impl FnMut(&mut StateReader<'_>, usize) -> asf_persist::Result<()>,
    ) -> asf_persist::Result<()> {
        // A delta's row is behind its `u32` index.
        let index_bytes = if self == Rows::Dirty { 4 } else { 0 };
        let count = self.read_count(r, len, index_bytes + row_bytes)?;
        let mut next = 0;
        for k in 0..count {
            let i = self.read_index(r, k, next, len)?;
            next = i + 1;
            get_row(r, i)?;
        }
        Ok(())
    }

    /// Reads the row count a row encoder wrote and checks it against a
    /// table of `len` rows: [`Rows::All`] must name every row, and
    /// [`Rows::Dirty`] at most every row. A row is never shorter than
    /// `min_row` bytes, so a count the remaining payload cannot hold is
    /// corruption, not an allocation request.
    fn read_count(
        self,
        r: &mut StateReader<'_>,
        len: usize,
        min_row: usize,
    ) -> asf_persist::Result<usize> {
        let count = r.get_u64()?;
        let fits = count <= (r.remaining() / min_row) as u64;
        let ok = match self {
            Rows::All => count == len as u64,
            Rows::Dirty => count <= len as u64,
        };
        if !(fits && ok) {
            return Err(PersistError::corrupt("row count differs from the table"));
        }
        Ok(count as usize)
    }

    /// Reads the index of the `k`-th row: `k` itself for [`Rows::All`],
    /// the stored index for [`Rows::Dirty`], which must exceed the
    /// previous row's (`next` is one past it) and lie below `len`.
    fn read_index(
        self,
        r: &mut StateReader<'_>,
        k: usize,
        next: usize,
        len: usize,
    ) -> asf_persist::Result<usize> {
        match self {
            Rows::All => Ok(k),
            Rows::Dirty => {
                let i = r.get_u32()? as usize;
                if i < next || i >= len {
                    return Err(PersistError::corrupt("dirty row index out of order"));
                }
                Ok(i)
            }
        }
    }
}

/// One bit per row: set by every row write, cleared when a full image is
/// written. About 6 KiB for 50,000 rows, so marking a row is one OR into a
/// word that stays in L1.
#[derive(Clone, Debug, Default)]
pub(crate) struct DirtyRows {
    words: Vec<u64>,
}

impl DirtyRows {
    /// A clean bitmap over `len` rows.
    pub fn new(len: usize) -> Self {
        Self { words: vec![0; len.div_ceil(64)] }
    }

    /// Marks row `i` changed.
    #[inline]
    pub fn mark(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    /// Whether row `i` is marked.
    #[inline]
    pub fn is_marked(&self, i: usize) -> bool {
        self.words[i >> 6] >> (i & 63) & 1 == 1
    }

    /// How many rows are marked (a popcount).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Unmarks every row.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// How many rows `rows` selects out of `len`.
    pub fn selected_count(&self, rows: Rows, len: usize) -> usize {
        match rows {
            Rows::All => len,
            Rows::Dirty => self.count(),
        }
    }

    /// The indices `rows` selects out of `len`, ascending.
    pub fn selected(&self, rows: Rows, len: usize) -> impl Iterator<Item = usize> + '_ {
        (0..len).filter(move |&i| rows == Rows::All || self.is_marked(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_count_select_and_clear() {
        let mut d = DirtyRows::new(130);
        for i in [0, 63, 64, 129, 64] {
            d.mark(i);
        }
        assert_eq!(d.count(), 4);
        assert_eq!(d.selected(Rows::Dirty, 130).collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!(d.selected_count(Rows::All, 130), 130);
        assert_eq!(d.selected(Rows::All, 130).count(), 130);
        d.clear();
        assert_eq!(d.count(), 0);
        assert!(!d.is_marked(129));
    }

    #[test]
    fn counts_and_indices_are_validated() {
        let count = |rows: Rows, n: u64, len: usize| {
            let mut w = StateWriter::new();
            w.put_u64(n);
            w.put_bytes(&[0; 64]);
            let bytes = w.into_bytes();
            rows.read_count(&mut StateReader::new(&bytes), len, 9).is_ok()
        };
        assert!(count(Rows::All, 4, 4));
        assert!(!count(Rows::All, 3, 4), "a full image names every row");
        assert!(count(Rows::Dirty, 3, 4));
        assert!(!count(Rows::Dirty, 5, 4), "more dirty rows than rows");
        assert!(!count(Rows::All, 100, 100), "more rows than the payload holds");

        let index = |i: u32, next: usize| {
            let mut w = StateWriter::new();
            w.put_u32(i);
            let bytes = w.into_bytes();
            Rows::Dirty.read_index(&mut StateReader::new(&bytes), 0, next, 10).ok()
        };
        assert_eq!(index(3, 0), Some(3));
        assert_eq!(index(3, 4), None, "indices ascend");
        assert_eq!(index(10, 0), None, "index past the table");
    }
}
