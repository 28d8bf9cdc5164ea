//! Filter-constraint semantics (paper §3.1).
//!
//! A filter constraint is a closed interval `[l, u]`. With `V'` the last
//! reported value and `V` the current value, the constraint is **violated**
//! iff exactly one of `V'`, `V` lies in `[l, u]` — i.e. the value crossed the
//! boundary — and only then does the source send an update.

use std::sync::Arc;

use asf_persist::{Persist, PersistError, StateReader, StateWriter};

/// An adaptive filter installed at a stream source.
///
/// `ReportAll` models the no-filter case ("if no filter is installed at a
/// stream, all updates from the stream are reported"). `Interval` carries the
/// closed interval; the endpoints may be infinite:
///
/// * `Filter::wildcard()` = `[-∞, ∞]` contains every value, so it is never
///   violated — the source is effectively **shut down**. The paper calls
///   these *false positive filters* (FT-NRP Initialization, step 4(I)).
/// * `Filter::suppress()` = `[∞, ∞]` contains no finite value, so it is never
///   violated either — also silent. The paper's *false negative filters*
///   (step 5(I)). Keeping the two distinct matters only for bookkeeping; the
///   wire behaviour (silence) is identical, exactly as in the paper.
///
/// `Cells` is this library's multi-query extension (paper §7): the source
/// holds the whole sorted *cut table* of every standing query's membership
/// boundaries and reports exactly when its value crosses **any** cut —
/// equivalent to reinstalling the elementary-interval filter after every
/// report, but with zero reinstallation messages. The table is installed
/// once (one `FilterInstall` message; a real deployment would ship the
/// table as one payload).
#[derive(Clone, Debug, PartialEq)]
pub enum Filter {
    /// No filter: every update is reported.
    ReportAll,
    /// Closed interval constraint `[lo, hi]`.
    Interval {
        /// Lower bound (may be `-∞`).
        lo: f64,
        /// Upper bound (may be `+∞`).
        hi: f64,
    },
    /// Source-resident cut table: violated when the value crosses any cut.
    Cells(Arc<[f64]>),
}

impl Filter {
    /// Creates an interval filter `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if either bound is NaN or if `lo > hi` (except the special
    /// `[∞, ∞]` / `[-∞, -∞]` empty filters, which are equal-endpoint and thus
    /// allowed by `lo <= hi`).
    pub fn interval(lo: f64, hi: f64) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "filter bounds must not be NaN");
        assert!(lo <= hi, "filter requires lo <= hi, got [{lo}, {hi}]");
        Filter::Interval { lo, hi }
    }

    /// The paper's `[-∞, ∞]` false-positive filter: contains everything,
    /// never reports.
    pub fn wildcard() -> Self {
        Filter::Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY }
    }

    /// The paper's `[∞, ∞]` false-negative filter: contains no finite value,
    /// never reports.
    pub fn suppress() -> Self {
        Filter::Interval { lo: f64::INFINITY, hi: f64::INFINITY }
    }

    /// A source-resident cut table (multi-query extension). `cuts` must be
    /// sorted ascending and free of NaN.
    ///
    /// # Panics
    ///
    /// Panics if `cuts` is unsorted or contains NaN.
    pub fn cells(cuts: Arc<[f64]>) -> Self {
        assert!(
            cuts.windows(2).all(|w| w[0] <= w[1]) && cuts.iter().all(|c| !c.is_nan()),
            "cut table must be sorted and NaN-free"
        );
        Filter::Cells(cuts)
    }

    /// Index of the elementary cell containing `v` (for `Cells` filters):
    /// the number of cuts `<= v`.
    fn cell_index(cuts: &[f64], v: f64) -> usize {
        cuts.partition_point(|&c| c <= v)
    }

    /// Whether this is the `[-∞, ∞]` wildcard.
    pub fn is_wildcard(&self) -> bool {
        matches!(self, Filter::Interval { lo, hi }
            if *lo == f64::NEG_INFINITY && *hi == f64::INFINITY)
    }

    /// Whether this is the `[∞, ∞]` suppressor.
    pub fn is_suppress(&self) -> bool {
        matches!(self, Filter::Interval { lo, hi } if *lo == f64::INFINITY && *hi == f64::INFINITY)
    }

    /// Whether a (finite) value satisfies the constraint, i.e. lies inside
    /// the closed interval. `ReportAll` contains everything by convention
    /// (it is never consulted for crossing checks).
    ///
    /// # Panics
    ///
    /// Panics for `Cells` filters, which have no single inside/outside —
    /// use [`Filter::violated`] for them.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        debug_assert!(!v.is_nan(), "stream values must not be NaN");
        match *self {
            Filter::ReportAll => true,
            Filter::Interval { lo, hi } => lo <= v && v <= hi,
            Filter::Cells(_) => panic!("Cells filters have no membership; use violated()"),
        }
    }

    /// The §3.1 violation test: does moving from `last_reported` to
    /// `current` cross the filter boundary?
    ///
    /// For `ReportAll` every change is a violation (all updates reported);
    /// for `Cells` a violation is any cut crossing (cell index changed).
    #[inline]
    pub fn violated(&self, last_reported: f64, current: f64) -> bool {
        match self {
            Filter::ReportAll => true,
            Filter::Interval { lo, hi } => interval_violated(*lo, *hi, last_reported, current),
            Filter::Cells(cuts) => {
                Self::cell_index(cuts, last_reported) != Self::cell_index(cuts, current)
            }
        }
    }
}

/// A variant byte, then `lo, hi` for an interval or a `u32`-counted cut
/// table.
impl Persist for Filter {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut StateWriter) {
        match self {
            Filter::ReportAll => w.put_u8(0),
            Filter::Interval { lo, hi } => {
                w.put_u8(1);
                w.put_f64(*lo);
                w.put_f64(*hi);
            }
            Filter::Cells(cuts) => {
                w.put_u8(2);
                w.put_u32(u32::try_from(cuts.len()).expect("cut table too large"));
                for &c in cuts.iter() {
                    w.put_f64(c);
                }
            }
        }
    }

    /// Re-validates the constructor invariants (no NaN, ordered bounds,
    /// sorted cut table) so corrupt bytes surface as an error, never as a
    /// filter that could not have been built.
    fn get(r: &mut StateReader<'_>) -> asf_persist::Result<Self> {
        match r.get_u8()? {
            0 => Ok(Filter::ReportAll),
            1 => {
                let lo = r.get_f64()?;
                let hi = r.get_f64()?;
                if lo.is_nan() || hi.is_nan() || lo > hi {
                    return Err(PersistError::corrupt("invalid filter interval"));
                }
                Ok(Filter::Interval { lo, hi })
            }
            2 => {
                let len = r.get_u32()? as usize;
                if len > r.remaining() / 8 {
                    return Err(PersistError::corrupt("cut table longer than payload"));
                }
                let mut cuts = Vec::with_capacity(len);
                for _ in 0..len {
                    cuts.push(r.get_f64()?);
                }
                if cuts.iter().any(|c| c.is_nan()) || cuts.windows(2).any(|w| w[0] > w[1]) {
                    return Err(PersistError::corrupt("invalid cut table"));
                }
                Ok(Filter::Cells(Arc::from(cuts)))
            }
            _ => Err(PersistError::corrupt("unknown filter variant")),
        }
    }
}

/// The `Interval` arm of [`Filter::violated`] on bare bounds: exactly one
/// of `last_reported`, `current` lies in `[lo, hi]`. The fleet's hot path
/// evaluates its cached interval bounds through this, so the §3.1 test has
/// one definition.
#[inline]
pub(crate) fn interval_violated(lo: f64, hi: f64, last_reported: f64, current: f64) -> bool {
    debug_assert!(!last_reported.is_nan() && !current.is_nan(), "stream values must not be NaN");
    (lo <= last_reported && last_reported <= hi) != (lo <= current && current <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_closed_endpoints() {
        let f = Filter::interval(400.0, 600.0);
        assert!(f.contains(400.0));
        assert!(f.contains(600.0));
        assert!(f.contains(500.0));
        assert!(!f.contains(399.999));
        assert!(!f.contains(600.001));
    }

    #[test]
    fn violation_requires_crossing() {
        let f = Filter::interval(400.0, 600.0);
        // inside -> inside: no violation
        assert!(!f.violated(450.0, 550.0));
        // outside -> outside: no violation (even across the interval!)
        assert!(!f.violated(100.0, 900.0));
        // inside -> outside and outside -> inside: violations
        assert!(f.violated(450.0, 601.0));
        assert!(f.violated(399.0, 400.0));
    }

    #[test]
    fn wildcard_never_violated() {
        let f = Filter::wildcard();
        assert!(f.is_wildcard());
        assert!(!f.is_suppress());
        assert!(f.contains(-1e300) && f.contains(1e300) && f.contains(0.0));
        assert!(!f.violated(-1e300, 1e300));
    }

    #[test]
    fn suppress_never_violated() {
        let f = Filter::suppress();
        assert!(f.is_suppress());
        assert!(!f.is_wildcard());
        assert!(!f.contains(0.0) && !f.contains(1e308));
        assert!(!f.violated(-5.0, 5.0));
    }

    #[test]
    fn report_all_always_violated() {
        let f = Filter::ReportAll;
        assert!(f.violated(1.0, 1.0));
        assert!(f.violated(0.0, 100.0));
    }

    #[test]
    fn half_open_region_from_rank_space() {
        // top-k regions are [c, +inf): value >= c.
        let f = Filter::interval(250.0, f64::INFINITY);
        assert!(f.contains(250.0) && f.contains(1e12));
        assert!(!f.contains(249.9));
        assert!(f.violated(300.0, 200.0));
        assert!(!f.is_wildcard());
    }

    #[test]
    fn degenerate_point_interval() {
        let f = Filter::interval(5.0, 5.0);
        assert!(f.contains(5.0));
        assert!(!f.contains(5.0001));
    }

    #[test]
    fn cells_violated_on_any_cut_crossing() {
        let f = Filter::cells(Arc::from([100.0, 200.0, 500.0]));
        // Within one cell: silent.
        assert!(!f.violated(120.0, 180.0));
        assert!(!f.violated(0.0, 99.9));
        assert!(!f.violated(600.0, 1e9));
        // Across one cut: violated.
        assert!(f.violated(99.0, 100.0), "cut at 100 is inclusive-above");
        assert!(f.violated(150.0, 250.0));
        // Across several cuts at once: violated.
        assert!(f.violated(0.0, 1000.0));
    }

    #[test]
    fn cells_boundary_semantics_match_elementary_intervals() {
        // Cut at c separates v < c from v >= c.
        let f = Filter::cells(Arc::from([100.0]));
        assert!(!f.violated(100.0, 150.0), "both at or above the cut");
        assert!(f.violated(100.0f64.next_down(), 100.0));
    }

    #[test]
    #[should_panic(expected = "no membership")]
    fn cells_contains_is_undefined() {
        Filter::cells(Arc::from([1.0])).contains(0.5);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn cells_rejects_unsorted_cuts() {
        Filter::cells(Arc::from([5.0, 1.0]));
    }

    #[test]
    fn encode_decode_round_trip() {
        let filters = [
            Filter::ReportAll,
            Filter::interval(1.0, 2.0),
            Filter::interval(f64::NEG_INFINITY, 250.0),
            Filter::wildcard(),
            Filter::suppress(),
            Filter::cells(Arc::from([1.0, 5.0, 9.0])),
        ];
        for f in filters {
            let mut w = StateWriter::new();
            f.put(&mut w);
            let bytes = w.into_bytes();
            let mut r = StateReader::new(&bytes);
            assert_eq!(Filter::get(&mut r).unwrap(), f);
            r.finish().unwrap();
        }
    }

    #[test]
    fn decode_rejects_corrupt_filters() {
        // Unknown variant byte.
        assert!(Filter::get(&mut StateReader::new(&[9])).is_err());
        // Inverted interval.
        let mut w = StateWriter::new();
        w.put_u8(1);
        w.put_f64(5.0);
        w.put_f64(1.0);
        let bytes = w.into_bytes();
        assert!(Filter::get(&mut StateReader::new(&bytes)).is_err());
        // Cut-table length pointing past the payload must not allocate.
        let mut w = StateWriter::new();
        w.put_u8(2);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        assert!(Filter::get(&mut StateReader::new(&bytes)).is_err());
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn rejects_inverted_bounds() {
        Filter::interval(10.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan_bounds() {
        Filter::interval(f64::NAN, 1.0);
    }
}
