//! The dirty bitmap that says which rows of a table changed since the
//! last full image. [`crate::SourceFleet`], [`crate::ServerView`] and
//! [`crate::ChaosState`] mark a row at every write to it (a marked row
//! that did not change is harmless: it is written again); a full image
//! ([`Rows::All`]) clears the bits, a delta ([`Rows::Dirty`]) writes the
//! marked rows and keeps them. (The channel machine's rule is a little
//! wider; see `streamnet::chaos`, "Durability".)

use asf_persist::Rows;

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
}
