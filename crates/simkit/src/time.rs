//! Simulation time and small numeric helpers.

/// Simulation time in abstract time units.
///
/// The paper's synthetic model (§6.2) measures inter-arrival times in "time
/// units" with no physical scale; we follow suit and use a plain `f64`
/// wrapped for documentation purposes. Times must be finite and
/// non-decreasing within a run.
pub type SimTime = f64;

/// Deterministic logical clock measured in abstract integer ticks.
///
/// Timeout and lease machinery (retry backoff, heartbeat leases, crash
/// outages) must never read wall-clock time: every run has to be exactly
/// reproducible from its seed. `TickClock` is the only time source those
/// subsystems are allowed to use. Callers advance it explicitly — one tick
/// per ingested event plus explicit penalties for simulated timeouts — so
/// the same workload always observes the same clock readings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickClock {
    now: u64,
}

asf_persist::persist!(impl Persist for TickClock { now: u64 });

impl TickClock {
    /// Creates a clock at tick zero.
    pub fn new() -> Self {
        Self { now: 0 }
    }

    /// Current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock by `ticks`.
    pub fn advance(&mut self, ticks: u64) {
        self.now = self.now.saturating_add(ticks);
    }

    /// Advances the clock to `tick` if it is in the future; never rewinds.
    pub fn advance_to(&mut self, tick: u64) {
        self.now = self.now.max(tick);
    }
}

/// Reflects `value` into the closed interval `[lo, hi]`.
///
/// Used to confine random walks: the paper's synthetic workload draws values
/// initially uniform in `[0, 1000]` and perturbs them with `N(0, σ)` steps
/// but does not state a boundary rule. Reflection preserves the uniform
/// stationary distribution, so long simulations remain comparable to the
/// paper's (see DESIGN.md §5).
///
/// Reflection is applied repeatedly until the value lands inside, which
/// handles steps larger than the interval width.
///
/// # Panics
///
/// Panics if `lo >= hi` or any argument is non-finite.
pub fn reflect_into(mut value: f64, lo: f64, hi: f64) -> f64 {
    assert!(lo < hi, "reflect_into requires lo < hi, got [{lo}, {hi}]");
    assert!(
        value.is_finite() && lo.is_finite() && hi.is_finite(),
        "reflect_into requires finite arguments"
    );
    let width = hi - lo;
    // Map into the period-2w sawtooth analytically to avoid looping on
    // pathologically distant values.
    let mut offset = (value - lo) % (2.0 * width);
    if offset < 0.0 {
        offset += 2.0 * width;
    }
    value = if offset <= width { lo + offset } else { lo + 2.0 * width - offset };
    // Guard against floating-point edge dust.
    value.clamp(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inside_is_unchanged() {
        assert_eq!(reflect_into(5.0, 0.0, 10.0), 5.0);
        assert_eq!(reflect_into(0.0, 0.0, 10.0), 0.0);
        assert_eq!(reflect_into(10.0, 0.0, 10.0), 10.0);
    }

    #[test]
    fn just_outside_reflects_back() {
        assert_eq!(reflect_into(-3.0, 0.0, 10.0), 3.0);
        assert_eq!(reflect_into(12.0, 0.0, 10.0), 8.0);
    }

    #[test]
    fn far_outside_reflects_periodically() {
        // -25 -> period 20 sawtooth: -25 mod 20 = ... reflect twice.
        let v = reflect_into(-25.0, 0.0, 10.0);
        assert!((0.0..=10.0).contains(&v));
        assert!((v - 5.0).abs() < 1e-12, "got {v}");
        let v = reflect_into(47.0, 0.0, 10.0);
        assert!((v - 7.0).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn non_zero_lower_bound() {
        assert_eq!(reflect_into(390.0, 400.0, 600.0), 410.0);
        assert_eq!(reflect_into(610.0, 400.0, 600.0), 590.0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn rejects_inverted_interval() {
        reflect_into(1.0, 5.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        reflect_into(f64::NAN, 0.0, 1.0);
    }
}
