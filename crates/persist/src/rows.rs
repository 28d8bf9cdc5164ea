//! Row selection for checkpoints: a full image writes every row of a
//! table ([`Rows::All`]), a delta only the changed ones, each behind its
//! index ([`Rows::Dirty`]). The table's owner keeps the dirty marks.

use crate::{PersistError, Result, StateReader, StateWriter, Table};

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
    pub fn put_rows(
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
    /// `get_row`; the count and every index are checked first.
    pub fn get_rows(
        self,
        r: &mut StateReader<'_>,
        len: usize,
        row_bytes: usize,
        mut get_row: impl FnMut(&mut StateReader<'_>, usize) -> Result<()>,
    ) -> Result<()> {
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
    fn read_count(self, r: &mut StateReader<'_>, len: usize, min_row: usize) -> Result<usize> {
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
    ) -> Result<usize> {
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

#[cfg(test)]
mod tests {
    use super::*;

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
