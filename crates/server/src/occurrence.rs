//! The per-chunk **stream-occurrence index**: where does a stream occur
//! later in the chunk being ingested?
//!
//! [`crate::router::GuardedRouter`] asks it for every stream a fleet
//! operation (`probe` / `install`, single or batch) touches while handling
//! the report at chunk position `c`: sources are independent, so the
//! operation can only invalidate speculated events *of the streams it
//! touches* in `(c, tip)`, and exactly those positions are respeculated on
//! the owning shard. A stream that does not occur there needs nothing but
//! the operation itself.
//!
//! Two `u32` columns — the first position per stream and, per chunk
//! position, the next position of the same stream — built lazily by one
//! reverse pass over the chunk's stream column on the first lookup, and
//! reset by walking the same column at the chunk boundary. Chunks whose
//! handlers never touch a stream pay nothing, and a server that never
//! does allocates nothing.

use streamnet::StreamId;

/// "No such position" in both columns.
const NONE: u32 = u32::MAX;

/// See the module docs. One instance lives in the server and is reused
/// across chunks.
#[derive(Debug)]
pub(crate) struct OccurrenceIndex {
    /// Population size (the length `first` takes once built).
    n: usize,
    /// `first[s]`: first chunk position of stream `s`; all-[`NONE`]
    /// whenever the index is not built.
    first: Vec<u32>,
    /// `next[p]`: next position after `p` of the stream at `p`.
    next: Vec<u32>,
    built: bool,
}

impl OccurrenceIndex {
    /// An unbuilt index over a population of `n` streams.
    pub(crate) fn new(n: usize) -> Self {
        Self { n, first: Vec::new(), next: Vec::new(), built: false }
    }

    /// The first position strictly after `pos` at which `id` occurs in
    /// `streams` (the current chunk's stream column), building the index
    /// if this is the chunk's first lookup. Starts from `pos` itself when
    /// `id` is the stream there (the reporter re-installing its own
    /// filter — one step), else walks `id`'s chain from its first
    /// occurrence.
    fn next_after(&mut self, streams: &[StreamId], id: StreamId, pos: usize) -> Option<usize> {
        if !self.built {
            self.build(streams);
        }
        let mut p = if streams[pos] == id { self.next[pos] } else { self.first[id.index()] };
        // `NONE as usize` exceeds every chunk position, so it ends the walk.
        while p as usize <= pos {
            p = self.next[p as usize];
        }
        (p != NONE).then_some(p as usize)
    }

    /// Appends every position of `id` in `(pos, tip)` to `out`, ascending
    /// (the chain walk of [`Self::next_after`], continued to the tip).
    pub(crate) fn positions_between(
        &mut self,
        streams: &[StreamId],
        id: StreamId,
        pos: usize,
        tip: usize,
        out: &mut Vec<u64>,
    ) {
        let Some(mut p) = self.next_after(streams, id, pos) else { return };
        // `NONE as usize` is past every tip, so it ends the walk.
        while p < tip {
            out.push(p as u64);
            p = self.next[p] as usize;
        }
    }

    /// Forgets the chunk: `first` goes back to all-[`NONE`] by walking the
    /// column that set it (O(chunk), not O(population)). A no-op for a
    /// chunk that never built the index.
    pub(crate) fn reset(&mut self, streams: &[StreamId]) {
        if self.built {
            for s in streams {
                self.first[s.index()] = NONE;
            }
            self.built = false;
        }
    }

    fn build(&mut self, streams: &[StreamId]) {
        assert!(streams.len() < NONE as usize, "chunk positions must fit the u32 columns");
        self.first.resize(self.n, NONE);
        self.next.clear();
        self.next.resize(streams.len(), NONE);
        for (p, s) in streams.iter().enumerate().rev() {
            self.next[p] = std::mem::replace(&mut self.first[s.index()], p as u32);
        }
        self.built = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column(ids: &[u32]) -> Vec<StreamId> {
        ids.iter().map(|&g| StreamId(g)).collect()
    }

    #[test]
    fn builds_lazily_and_reset_leaves_first_all_none() {
        let streams = column(&[3, 1, 3, 0, 1, 3]);
        let mut index = OccurrenceIndex::new(5);
        assert!(!index.built && index.first.is_empty() && index.next.is_empty());
        // A reset before any lookup touches nothing.
        index.reset(&streams);
        assert!(index.first.is_empty());

        assert_eq!(index.next_after(&streams, StreamId(3), 0), Some(2));
        assert!(index.built);
        assert_eq!(index.first, vec![3, 1, NONE, 0, NONE]);
        assert_eq!(index.next, vec![2, 4, 5, NONE, NONE, NONE]);

        index.reset(&streams);
        assert!(!index.built);
        assert!(index.first.iter().all(|&p| p == NONE), "reset must clear every entry it set");

        // The next chunk rebuilds over its own column.
        let streams = column(&[4, 4]);
        assert_eq!(index.next_after(&streams, StreamId(4), 0), Some(1));
        assert_eq!(index.next_after(&streams, StreamId(3), 0), None);
    }

    #[test]
    fn chain_lookup_for_streams_occurring_zero_one_and_many_times() {
        //                      0  1  2  3  4  5  6  7
        let streams = column(&[2, 0, 2, 1, 2, 0, 2, 0]);
        let mut index = OccurrenceIndex::new(4);
        // Stream 3 never occurs.
        for pos in 0..streams.len() {
            assert_eq!(index.next_after(&streams, StreamId(3), pos), None);
        }
        // Stream 1 occurs once, at 3: visible from before, gone from 3 on.
        assert_eq!(index.next_after(&streams, StreamId(1), 0), Some(3));
        assert_eq!(index.next_after(&streams, StreamId(1), 2), Some(3));
        assert_eq!(index.next_after(&streams, StreamId(1), 3), None);
        assert_eq!(index.next_after(&streams, StreamId(1), 7), None);
        // Stream 2 occurs at 0, 2, 4, 6 — asked both as the stream at `pos`
        // (one step) and from another stream's position (chain walk).
        assert_eq!(index.next_after(&streams, StreamId(2), 0), Some(2));
        assert_eq!(index.next_after(&streams, StreamId(2), 1), Some(2));
        assert_eq!(index.next_after(&streams, StreamId(2), 2), Some(4));
        assert_eq!(index.next_after(&streams, StreamId(2), 5), Some(6));
        assert_eq!(index.next_after(&streams, StreamId(2), 6), None);
        assert_eq!(index.next_after(&streams, StreamId(2), 7), None);
        // Every answer agrees with a forward scan of the column.
        for id in 0..4u32 {
            for pos in 0..streams.len() {
                let scan = (pos + 1..streams.len()).find(|&p| streams[p] == StreamId(id));
                assert_eq!(
                    index.next_after(&streams, StreamId(id), pos),
                    scan,
                    "id {id} pos {pos}"
                );
            }
        }
    }

    #[test]
    fn positions_between_lists_the_speculated_occurrences_before_the_tip() {
        //                      0  1  2  3  4  5  6  7
        let streams = column(&[2, 0, 2, 1, 2, 0, 2, 0]);
        let mut index = OccurrenceIndex::new(4);
        let between = |index: &mut OccurrenceIndex, id: u32, pos: usize, tip: usize| {
            let mut out = vec![99];
            index.positions_between(&streams, StreamId(id), pos, tip, &mut out);
            out
        };
        assert_eq!(between(&mut index, 2, 0, 8), vec![99, 2, 4, 6], "appends, from pos + 1");
        assert_eq!(between(&mut index, 2, 1, 6), vec![99, 2, 4], "the tip is not speculated");
        assert_eq!(between(&mut index, 0, 3, 7), vec![99, 5]);
        assert_eq!(between(&mut index, 1, 3, 8), vec![99], "nothing after the last occurrence");
        assert_eq!(between(&mut index, 3, 0, 8), vec![99], "a stream the chunk lacks");
        for id in 0..4u32 {
            for pos in 0..streams.len() {
                for tip in pos + 1..=streams.len() {
                    let scan: Vec<u64> = (pos + 1..tip)
                        .filter(|&p| streams[p] == StreamId(id))
                        .map(|p| p as u64)
                        .collect();
                    assert_eq!(between(&mut index, id, pos, tip)[1..], scan, "{id} {pos} {tip}");
                }
            }
        }
    }

    #[test]
    fn a_next_occurrence_exactly_at_the_tip_is_not_speculated() {
        // Positions `pos+1 .. tip` are speculated, `tip` itself is not.
        let streams = column(&[7, 1, 2, 7, 7]);
        let mut index = OccurrenceIndex::new(8);
        let next = index.next_after(&streams, StreamId(7), 0);
        assert_eq!(next, Some(3));
        let collides = |tip: usize| next.is_some_and(|p| p < tip);
        assert!(!collides(1) && !collides(3), "tip at the next occurrence: window stands");
        assert!(collides(4) && collides(5));
    }
}
