//! # streamnet — the distributed stream network substrate
//!
//! Models the architecture of the paper's Figure 3: `n` stream sources, each
//! equipped with an **adaptive filter**, talking to a central stream server.
//!
//! * [`filter`] — the filter-constraint semantics of §3.1: a closed interval
//!   `[l, u]`; a source reports an update exactly when the new value's
//!   membership in the interval differs from the last reported value's
//!   membership. Includes the special constraints `[-∞, ∞]` (wildcard — the
//!   source never reports; the paper's "false positive filter") and `[∞, ∞]`
//!   (suppress — likewise silent; the "false negative filter").
//! * [`source`] — a stream source holding its current value, its
//!   last-reported value, and its installed filter.
//! * [`fleet`] — the collection of all sources and the [`FleetOps`]
//!   surface (deliver / probe / install / broadcast) every backend
//!   implements; it moves source state, and the caller meters it.
//! * [`message`] — the message taxonomy and cost ledger (DESIGN.md §3.3).
//! * [`view`] — the server's (possibly stale) view of stream values.
//! * `rows` — the dirty bitmaps behind delta checkpoints
//!   ([`asf_persist::Rows`]): a delta writes only the changed rows.
//! * [`chaos`] — unreliable source↔server channels: seeded fault injection
//!   (drop / delay / duplicate / reorder / crash-restart), filter epochs,
//!   sequence numbers, and heartbeat leases.
//!
//! This crate knows nothing about queries or tolerances; those live in
//! `asf-core`.
//!
//! ## The one `unsafe` block
//!
//! Two callers issue cache prefetches a fixed distance ahead of the rows
//! they will touch. [`SourceFleet::prefetch`] loads a source's hot record
//! for the shard's evaluation loop, which otherwise stalls on every row it
//! reads once the rows exceed L2 (n = 500k). [`SourceFleet::prefetch_row`]
//! loads the hot and the cold record for the server's report drain, whose
//! handlers re-install a filter at most reporters. On stable Rust the
//! prefetch instruction is reachable only through
//! `std::arch::x86_64::_mm_prefetch`, an `unsafe fn`, so one private
//! helper, generic over the row type, serves both and holds the crate's
//! only `unsafe` block, with its `SAFETY` argument (a pointer from a live
//! reference, never dereferenced, SSE in the x86_64 baseline); off x86_64
//! the helper is a no-op. That is why this
//! crate root says `deny(unsafe_code)` where every other crate says
//! `forbid`: `forbid` cannot be relaxed for one item.
//! `deny(clippy::undocumented_unsafe_blocks)` keeps the argument attached,
//! and `tests/unsafe_containment.rs` fails on any second `unsafe`. Once
//! `std::hint::prefetch_read` (`hint_prefetch`) is stable the helper
//! becomes safe code and this crate returns to `forbid(unsafe_code)`.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod chaos;
pub mod filter;
pub mod fleet;
pub mod message;
mod rows;
pub mod source;
pub mod view;

pub use chaos::{ChaosConfig, ChaosFleet, ChaosState, ChaosStats, RepairPlan, ReportFate};
pub use filter::Filter;
pub use fleet::{FleetOps, SourceFleet, SpecLog};
pub use message::{Ledger, MessageKind};
pub use source::StreamSource;
pub use view::ServerView;

/// Identifier of a stream source (dense, `0..n`).
///
/// The paper indexes streams `S_1 … S_n`; we use 0-based dense ids so they
/// double as vector indices. Rank ties are broken by this id (ascending), so
/// the ordering of answers is total and deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A `u32`, which must lie below the population the reader declares
/// ([`asf_persist::StateReader::set_population`]).
impl asf_persist::Persist for StreamId {
    const MIN_BYTES: usize = 4;
    fn put(&self, w: &mut asf_persist::StateWriter) {
        w.put_u32(self.0);
    }
    fn get(r: &mut asf_persist::StateReader<'_>) -> asf_persist::Result<Self> {
        r.get_id().map(StreamId)
    }
}

impl std::fmt::Display for StreamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "S{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_display_and_index() {
        let id = StreamId(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "S7");
    }

    #[test]
    fn stream_id_orders_by_numeric_value() {
        assert!(StreamId(2) < StreamId(10));
    }
}
