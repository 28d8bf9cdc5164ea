//! Seeded fault schedules for unreliable-channel simulation.
//!
//! The paper assumes filters live at *remote* stream sources, so every
//! install, probe, and report crosses a network that can drop, delay,
//! duplicate, or reorder frames — and sources themselves can crash and
//! restart. This module is the deterministic source of those faults: a
//! [`FaultSchedule`] draws one [`FaultDecision`] per frame from a seeded
//! [`SimRng`] stream, and a [`Backoff`] computes capped exponential retry
//! delays in logical ticks (see [`crate::time::TickClock`]).
//!
//! Determinism contract: given the same seed, mix, and the same sequence of
//! draw calls, a schedule produces the same decisions. Once the clock passes
//! the schedule's `horizon`, every frame delivers and no crashes are drawn —
//! this is the "faults cease" boundary the convergence proofs rely on.

use crate::rng::SimRng;

/// Per-frame fault probabilities plus crash/outage parameters.
///
/// Probabilities are evaluated in order drop → delay → duplicate on a single
/// uniform draw, so `drop_p + delay_p + dup_p` must be ≤ 1. `crash_p` is a
/// separate per-source, per-round probability drawn at quiescent points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultMix {
    /// Probability a frame is silently dropped.
    pub drop_p: f64,
    /// Probability a frame is delayed (delivered out of order later).
    pub delay_p: f64,
    /// Probability a frame is duplicated (delivered now and again later).
    pub dup_p: f64,
    /// Per-source probability of a crash-restart, drawn once per round.
    pub crash_p: f64,
    /// Maximum delay, in ticks, for a delayed frame (uniform in `1..=max`).
    pub max_delay_ticks: u64,
    /// Outage length, in ticks, of a crash-restart (uniform in `1..=max`).
    pub max_outage_ticks: u64,
}

impl FaultMix {
    /// A fully reliable channel: every frame delivers, nothing crashes.
    pub fn none() -> Self {
        Self {
            drop_p: 0.0,
            delay_p: 0.0,
            dup_p: 0.0,
            crash_p: 0.0,
            max_delay_ticks: 0,
            max_outage_ticks: 0,
        }
    }

    /// Pure message loss at probability `p`; no delays, no crashes.
    pub fn loss_only(p: f64) -> Self {
        Self { drop_p: p, ..Self::none() }
    }

    /// Delay/duplicate-heavy mix: frames are delayed or duplicated at
    /// probability `p` each, producing reordering without loss.
    pub fn delay_reorder(p: f64) -> Self {
        Self { delay_p: p, dup_p: p, max_delay_ticks: 512, ..Self::none() }
    }

    /// Crash-restart mix: light loss plus per-round source crashes with
    /// outages long enough to expire typical leases.
    pub fn crash_restart(crash_p: f64) -> Self {
        Self { drop_p: 0.02, crash_p, max_outage_ticks: 4096, ..Self::none() }
    }

    fn validate(&self) {
        let sum = self.drop_p + self.delay_p + self.dup_p;
        assert!(
            (0.0..=1.0).contains(&sum)
                && self.drop_p >= 0.0
                && self.delay_p >= 0.0
                && self.dup_p >= 0.0,
            "fault probabilities must be non-negative and sum to <= 1, got {self:?}"
        );
        assert!(
            (0.0..=1.0).contains(&self.crash_p),
            "crash_p must be a probability, got {}",
            self.crash_p
        );
        if self.delay_p > 0.0 {
            assert!(self.max_delay_ticks > 0, "delay_p > 0 requires max_delay_ticks > 0");
        }
        if self.crash_p > 0.0 {
            assert!(self.max_outage_ticks > 0, "crash_p > 0 requires max_outage_ticks > 0");
        }
    }
}

/// The fate of one frame on an unreliable channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Frame arrives intact, in order.
    Deliver,
    /// Frame is silently lost.
    Drop,
    /// Frame arrives, but only after the given number of ticks.
    Delay(u64),
    /// Frame arrives now *and* a ghost copy arrives again later.
    Duplicate,
}

/// Deterministic per-frame fault source with a hard fault horizon.
///
/// All draws come from one seeded [`SimRng`] stream, so the decision
/// sequence is a pure function of `(seed, mix, call sequence)`. Draws at or
/// past `horizon` ticks return [`FaultDecision::Deliver`] without consuming
/// randomness, which keeps post-horizon execution byte-identical to a run
/// that never had a fault schedule attached.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    rng: SimRng,
    mix: FaultMix,
    horizon: u64,
}

impl FaultSchedule {
    /// Creates a schedule; faults are active while `clock < horizon` ticks.
    ///
    /// # Panics
    ///
    /// Panics if the mix's probabilities are malformed.
    pub fn new(seed: u64, mix: FaultMix, horizon: u64) -> Self {
        mix.validate();
        Self { rng: SimRng::seed_from_u64(seed), mix, horizon }
    }

    /// Whether faults can still occur at tick `now`.
    pub fn active(&self, now: u64) -> bool {
        now < self.horizon
    }

    /// The tick at which faults cease.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The configured fault mix.
    pub fn mix(&self) -> &FaultMix {
        &self.mix
    }

    /// The RNG's raw state words — the checkpointing hook: persisting these
    /// four words (plus the mix and horizon) is enough to resume the exact
    /// decision stream mid-schedule after a crash.
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Rebuilds a schedule mid-stream: same mix and horizon, RNG resumed
    /// from a state captured by [`FaultSchedule::rng_state`]. The resumed
    /// schedule draws the byte-identical continuation of the original's
    /// decision sequence.
    ///
    /// # Panics
    ///
    /// Panics if the mix's probabilities are malformed.
    pub fn resume(state: [u64; 4], mix: FaultMix, horizon: u64) -> Self {
        mix.validate();
        Self { rng: SimRng::from_state(state), mix, horizon }
    }

    /// Draws the fate of one frame sent at tick `now`.
    #[inline]
    pub fn draw(&mut self, now: u64) -> FaultDecision {
        if !self.active(now) {
            return FaultDecision::Deliver;
        }
        let u = self.rng.next_f64();
        if u < self.mix.drop_p {
            FaultDecision::Drop
        } else if u < self.mix.drop_p + self.mix.delay_p {
            let ticks = 1 + self.rng.index(self.mix.max_delay_ticks as usize) as u64;
            FaultDecision::Delay(ticks)
        } else if u < self.mix.drop_p + self.mix.delay_p + self.mix.dup_p {
            FaultDecision::Duplicate
        } else {
            FaultDecision::Deliver
        }
    }

    /// Draws whether a source crashes at tick `now`; on a crash, returns the
    /// outage length in ticks.
    pub fn draw_crash(&mut self, now: u64) -> Option<u64> {
        if !self.active(now) || self.mix.crash_p == 0.0 {
            return None;
        }
        if self.rng.next_f64() < self.mix.crash_p {
            Some(1 + self.rng.index(self.mix.max_outage_ticks as usize) as u64)
        } else {
            None
        }
    }
}

/// Capped exponential backoff in logical ticks.
///
/// Attempt `k` (zero-based) waits `min(base << k, cap)` ticks; the shift
/// saturates, so large attempt numbers simply pin at the cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    base: u64,
    cap: u64,
}

impl Backoff {
    /// Creates a backoff policy.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero or `cap < base`.
    pub fn new(base: u64, cap: u64) -> Self {
        assert!(base > 0, "backoff base must be positive");
        assert!(cap >= base, "backoff cap must be >= base");
        Self { base, cap }
    }

    /// Delay, in ticks, before retry attempt `attempt` (zero-based).
    pub fn delay(&self, attempt: u32) -> u64 {
        self.base.checked_shl(attempt).unwrap_or(self.cap).min(self.cap)
    }

    /// The first-attempt delay (serialization hook).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The delay cap (serialization hook).
    pub fn cap(&self) -> u64 {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic() {
        let mix = FaultMix { drop_p: 0.3, delay_p: 0.2, dup_p: 0.1, ..FaultMix::none() };
        let mix = FaultMix { max_delay_ticks: 16, ..mix };
        let mut a = FaultSchedule::new(7, mix, 1000);
        let mut b = FaultSchedule::new(7, mix, 1000);
        for t in 0..500 {
            assert_eq!(a.draw(t), b.draw(t));
        }
    }

    #[test]
    fn horizon_forces_delivery() {
        let mut s = FaultSchedule::new(1, FaultMix::loss_only(1.0), 10);
        assert_eq!(s.draw(9), FaultDecision::Drop);
        for t in 10..100 {
            assert_eq!(s.draw(t), FaultDecision::Deliver);
        }
        assert_eq!(s.draw_crash(10), None);
    }

    #[test]
    fn loss_only_drops_at_rate() {
        let mut s = FaultSchedule::new(42, FaultMix::loss_only(0.25), u64::MAX);
        let drops = (0..10_000).filter(|_| s.draw(0) == FaultDecision::Drop).count();
        assert!((2200..=2800).contains(&drops), "drop count {drops} far from 25%");
    }

    #[test]
    fn delay_mix_produces_delays_and_dups() {
        let mut s = FaultSchedule::new(9, FaultMix::delay_reorder(0.2), u64::MAX);
        let mut delays = 0;
        let mut dups = 0;
        for _ in 0..10_000 {
            match s.draw(0) {
                FaultDecision::Delay(t) => {
                    assert!((1..=512).contains(&t));
                    delays += 1;
                }
                FaultDecision::Duplicate => dups += 1,
                FaultDecision::Drop => panic!("delay mix must not drop"),
                FaultDecision::Deliver => {}
            }
        }
        assert!(delays > 1000 && dups > 1000, "delays={delays} dups={dups}");
    }

    #[test]
    fn crash_draws_bounded_outages() {
        let mut s = FaultSchedule::new(3, FaultMix::crash_restart(0.5), u64::MAX);
        let mut crashes = 0;
        for _ in 0..1000 {
            if let Some(outage) = s.draw_crash(0) {
                assert!((1..=4096).contains(&outage));
                crashes += 1;
            }
        }
        assert!((350..=650).contains(&crashes), "crash count {crashes} far from 50%");
    }

    #[test]
    fn resumed_schedule_continues_exact_stream() {
        let mix = FaultMix { drop_p: 0.3, delay_p: 0.2, dup_p: 0.1, ..FaultMix::none() };
        let mix = FaultMix { max_delay_ticks: 16, ..mix };
        let mut original = FaultSchedule::new(99, mix, 10_000);
        for t in 0..257 {
            original.draw(t);
            original.draw_crash(t);
        }
        let mut resumed = FaultSchedule::resume(original.rng_state(), mix, 10_000);
        for t in 257..1_000 {
            assert_eq!(original.draw(t), resumed.draw(t));
            assert_eq!(original.draw_crash(t), resumed.draw_crash(t));
        }
    }

    #[test]
    fn backoff_caps() {
        let b = Backoff::new(4, 64);
        assert_eq!(b.delay(0), 4);
        assert_eq!(b.delay(1), 8);
        assert_eq!(b.delay(4), 64);
        assert_eq!(b.delay(10), 64);
        assert_eq!(b.delay(200), 64);
    }

    #[test]
    #[should_panic(expected = "sum to <= 1")]
    fn rejects_overfull_mix() {
        FaultSchedule::new(0, FaultMix { drop_p: 0.9, delay_p: 0.9, ..FaultMix::none() }, 1);
    }
}
