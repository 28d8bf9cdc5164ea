//! A single stream source with its adaptive filter.

use asf_persist::{persist, PersistError};

use crate::filter::Filter;
use crate::StreamId;

/// A stream source (sensor / subnet agent) in the Figure-3 architecture.
///
/// Holds the ground-truth current value, the value last reported to the
/// server, and the installed filter. All message accounting is done by the
/// caller, keeping this type pure state. [`crate::fleet::SourceFleet`]
/// stores its sources in its own hot/cold layout and hands out
/// `StreamSource` values as read-only snapshots; both apply the same two
/// rules, the §3.1 report rule and the install-time sync rule.
///
/// Its checkpoint row is everything but the id, which is positional in the
/// fleet's table: a decoded source reads as `S0` until the table places it.
#[derive(Clone, Debug)]
pub struct StreamSource {
    pub(crate) id: StreamId,
    pub(crate) value: f64,
    /// Last value the server has seen from this source (via report or
    /// probe). `None` until the first interaction: before the server knows
    /// anything, any update must be reported (there is no basis to filter).
    pub(crate) last_reported: Option<f64>,
    pub(crate) filter: Filter,
    /// Total messages this source has sent or received; used for the energy
    /// accounting extension (shut-down sensors send/receive nothing).
    pub(crate) traffic: u64,
}

persist!(impl Persist for StreamSource {
    value: f64,
    last_reported: Option<f64>,
    filter: Filter,
    traffic: u64,
    ..StreamSource::new(StreamId(0), 0.0)
} check StreamSource::check);

/// The §3.1 report rule: a source holding `filter`, whose server last heard
/// `last_reported`, must report `value` iff the filter is violated — or if
/// the server has never heard from it (there is no basis to filter).
#[inline]
pub(crate) fn must_report(filter: &Filter, last_reported: Option<f64>, value: f64) -> bool {
    last_reported.is_none_or(|prev| filter.violated(prev, value))
}

/// The install-time sync rule: a freshly installed `filter` forces an
/// immediate report iff the server's knowledge is inconsistent with it —
/// membership of the last reported value differs from membership of the
/// actual current `value`. `ReportAll` and a never-reported source never
/// sync (the next update reports anyway).
#[inline]
pub(crate) fn must_sync(filter: &Filter, last_reported: Option<f64>, value: f64) -> bool {
    !matches!(filter, Filter::ReportAll)
        && last_reported.is_some_and(|prev| filter.violated(prev, value))
}

impl StreamSource {
    /// Creates a source with an initial value and no filter installed.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not finite.
    pub fn new(id: StreamId, initial: f64) -> Self {
        assert!(initial.is_finite(), "stream values must be finite, got {initial}");
        Self { id, value: initial, last_reported: None, filter: Filter::ReportAll, traffic: 0 }
    }

    /// The source id.
    pub fn id(&self) -> StreamId {
        self.id
    }

    /// Ground-truth current value (visible to tests and the oracle; the
    /// server must pay messages to learn it).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The value the server last learned from this source, if any.
    pub fn last_reported(&self) -> Option<f64> {
        self.last_reported
    }

    /// The currently installed filter.
    pub fn filter(&self) -> &Filter {
        &self.filter
    }

    /// Message traffic (sent + received) observed at this source.
    pub fn traffic(&self) -> u64 {
        self.traffic
    }

    /// A decoded source's values must be finite, as a live one's are.
    fn check(&self) -> asf_persist::Result<()> {
        if !self.value.is_finite() || self.last_reported.is_some_and(|v| !v.is_finite()) {
            return Err(PersistError::corrupt("non-finite stream value"));
        }
        Ok(())
    }

    /// Applies a new value from the workload and decides whether the filter
    /// constraint is violated (⇒ the source must report).
    ///
    /// Does **not** mark the value as reported — call [`Self::mark_reported`]
    /// when the report is actually sent, so callers control accounting.
    ///
    /// # Panics
    ///
    /// Panics if `new_value` is not finite.
    pub fn apply_value(&mut self, new_value: f64) -> bool {
        assert!(new_value.is_finite(), "stream values must be finite, got {new_value}");
        self.value = new_value;
        must_report(&self.filter, self.last_reported, new_value)
    }

    /// Marks the current value as known to the server (report or probe
    /// reply just carried it).
    pub fn mark_reported(&mut self) {
        self.last_reported = Some(self.value);
    }

    /// Installs a filter and reports whether the source must immediately
    /// sync (the server's knowledge is inconsistent with the new filter:
    /// membership of the last reported value differs from membership of the
    /// actual current value).
    ///
    /// The paper assumes values do not change during constraint resolution
    /// (Correctness Requirement 2); this sync mechanism is what keeps the
    /// server's view consistent when a *re*configuration arrives while the
    /// true value has silently drifted within the old filter (see DESIGN.md
    /// §3.2).
    pub fn install(&mut self, filter: Filter) -> bool {
        self.filter = filter;
        must_sync(&self.filter, self.last_reported, self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asf_persist::{Persist, StateReader, StateWriter};

    fn src(v: f64) -> StreamSource {
        StreamSource::new(StreamId(0), v)
    }

    #[test]
    fn first_update_always_reports() {
        let mut s = src(10.0);
        assert_eq!(s.last_reported(), None);
        assert!(s.apply_value(11.0));
    }

    #[test]
    fn filtered_update_inside_is_silent() {
        let mut s = src(500.0);
        s.mark_reported();
        s.install(Filter::interval(400.0, 600.0));
        assert!(!s.apply_value(550.0));
        assert_eq!(
            s.last_reported(),
            Some(500.0),
            "silent update must not refresh the server view"
        );
    }

    #[test]
    fn crossing_reports_and_mark_refreshes() {
        let mut s = src(500.0);
        s.mark_reported();
        s.install(Filter::interval(400.0, 600.0));
        assert!(s.apply_value(700.0));
        s.mark_reported();
        assert_eq!(s.last_reported(), Some(700.0));
        // Now outside; moving outside->outside is silent.
        assert!(!s.apply_value(900.0));
        // outside -> inside violates again.
        assert!(s.apply_value(450.0));
    }

    #[test]
    fn report_all_reports_every_change() {
        let mut s = src(1.0);
        s.mark_reported();
        assert!(s.apply_value(1.5));
        s.mark_reported();
        assert!(s.apply_value(1.5)); // even a same-value update is an update message
    }

    #[test]
    fn wildcard_silences_source() {
        let mut s = src(500.0);
        s.mark_reported();
        assert!(!s.install(Filter::wildcard()));
        for v in [0.0, 1e6, -1e6] {
            assert!(!s.apply_value(v));
        }
    }

    #[test]
    fn install_detects_stale_view() {
        let mut s = src(500.0);
        s.mark_reported();
        s.install(Filter::interval(0.0, 1000.0));
        // Value drifts but stays inside: silent; server still believes 500.
        assert!(!s.apply_value(800.0));
        // New filter [700, 900]: server-believed 500 is outside, true 800 is
        // inside -> source must sync.
        assert!(s.install(Filter::interval(700.0, 900.0)));
        // Consistent reconfiguration needs no sync: both 500 (believed) and
        // 800 (true) are inside [0, 900].
        let mut s2 = src(500.0);
        s2.mark_reported();
        s2.install(Filter::interval(0.0, 1000.0));
        s2.apply_value(800.0); // silent drift within the broad filter
        assert!(!s2.install(Filter::interval(0.0, 900.0)));
    }

    #[test]
    fn install_before_any_report_never_syncs() {
        let mut s = src(500.0);
        assert!(!s.install(Filter::interval(0.0, 1.0)));
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut s = src(500.0);
        s.mark_reported();
        s.install(Filter::interval(400.0, 600.0));
        s.apply_value(550.0);
        s.traffic = 7;
        let mut w = StateWriter::new();
        s.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = StateReader::new(&bytes);
        let back = StreamSource::get(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.id(), s.id());
        assert_eq!(back.value(), s.value());
        assert_eq!(back.last_reported(), s.last_reported());
        assert_eq!(back.filter(), s.filter());
        assert_eq!(back.traffic(), s.traffic());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_value() {
        let mut s = src(0.0);
        s.apply_value(f64::INFINITY);
    }
}
