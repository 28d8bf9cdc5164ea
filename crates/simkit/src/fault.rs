//! Seeded fault schedules for unreliable-channel simulation.
//!
//! The paper assumes filters live at *remote* stream sources, so every
//! install, probe, and report crosses a network that can drop, delay,
//! duplicate, or reorder frames — and sources themselves can crash and
//! restart. This module is the deterministic source of those faults: a
//! [`FaultSchedule`] draws one [`FaultDecision`] per frame from a seeded
//! [`SimRng`] stream and the channels that fault at each quiescent round
//! from a second one, and a [`Backoff`] computes capped exponential retry
//! delays in logical ticks (see [`crate::time::TickClock`]).
//!
//! Determinism contract: given the same seed, mix, and the same sequence of
//! draw calls, a schedule produces the same decisions. Once the clock passes
//! the schedule's `horizon`, every frame delivers and no round faults —
//! this is the "faults cease" boundary the convergence proofs rely on.

use asf_persist::{persist, Persist, PersistError};

use crate::dist::Geometric;
use crate::rng::SimRng;

/// Per-frame fault probabilities plus crash/outage parameters.
///
/// Probabilities are evaluated in order drop → delay → duplicate on a single
/// uniform draw, so `drop_p + delay_p + dup_p` must be ≤ 1. `crash_p` is a
/// separate per-source, per-round probability applied at quiescent points.
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

    /// What is malformed about the mix, if anything.
    fn problem(&self) -> Option<&'static str> {
        let sum = self.drop_p + self.delay_p + self.dup_p;
        if !((0.0..=1.0).contains(&sum)
            && self.drop_p >= 0.0
            && self.delay_p >= 0.0
            && self.dup_p >= 0.0)
        {
            Some("fault probabilities must be non-negative and sum to <= 1")
        } else if !(0.0..=1.0).contains(&self.crash_p) {
            Some("crash_p must be a probability")
        } else if self.delay_p > 0.0 && self.max_delay_ticks == 0 {
            Some("delay_p > 0 requires max_delay_ticks > 0")
        } else if self.crash_p > 0.0 && self.max_outage_ticks == 0 {
            Some("crash_p > 0 requires max_outage_ticks > 0")
        } else {
            None
        }
    }

    fn validate(&self) {
        if let Some(problem) = self.problem() {
            panic!("{problem}, got {self:?}");
        }
    }

    /// A decoded mix must be one [`FaultSchedule::new`] accepts.
    fn check(&self) -> asf_persist::Result<()> {
        self.problem().map_or(Ok(()), |p| Err(PersistError::corrupt(p)))
    }
}

persist!(impl Persist for FaultMix {
    drop_p: f64,
    delay_p: f64,
    dup_p: f64,
    crash_p: f64,
    max_delay_ticks: u64,
    max_outage_ticks: u64,
} check FaultMix::check);

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

/// Label of the round stream, derived from the frame stream's initial state.
const ROUND_STREAM: u64 = 0x4842_4741_5053; // "HBGAPS"

/// Deterministic fault source with a hard fault horizon.
///
/// Two seeded [`SimRng`] streams, so every decision is a pure function of
/// `(seed, mix, call sequence)`:
///
/// * the **frame stream** draws one [`FaultDecision`] per report or request
///   frame ([`FaultSchedule::draw`]);
/// * the **round stream** decides which channels fault at a quiescent round
///   — heartbeat faults and crash-restarts — by drawing the geometric gap
///   from one faulted channel to the next, so a round costs one draw per
///   fault rather than one per channel.
///
/// At or past `horizon` ticks neither stream is consulted: frames deliver
/// and rounds fault nothing without consuming randomness, which keeps
/// post-horizon execution byte-identical to a run that never had a fault
/// schedule attached.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    rng: SimRng,
    mix: FaultMix,
    horizon: u64,
    rounds: SimRng,
    /// Gap between heartbeat faults (`None`: heartbeats never fault).
    heartbeat_gap: Option<Geometric>,
    /// Gap between crash-restarts (`None`: sources never crash).
    crash_gap: Option<Geometric>,
    /// Trials left before the next heartbeat fault. Trials run over every
    /// channel in ascending order, round after round, so the pending gap
    /// carries into the next round.
    heartbeat_skip: u64,
    /// Trials left before the next crash-restart, likewise.
    crash_skip: u64,
}

/// Everything a [`FaultSchedule`] needs, besides its mix and horizon, to
/// resume its exact decision stream after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleState {
    /// Frame-stream RNG words.
    pub frames: [u64; 4],
    /// Round-stream RNG words.
    pub rounds: [u64; 4],
    /// Pending heartbeat gap.
    pub heartbeat_skip: u64,
    /// Pending crash gap.
    pub crash_skip: u64,
}

persist!(impl Persist for ScheduleState {
    frames: [u64; 4],
    rounds: [u64; 4],
    heartbeat_skip: u64,
    crash_skip: u64,
});

/// A schedule's record is its [`ScheduleState`]; a schedule read back
/// faults nothing until its owner resumes it ([`FaultSchedule::resume`])
/// under the mix and horizon of its config.
impl Persist for FaultSchedule {
    const MIN_BYTES: usize = ScheduleState::MIN_BYTES;
    fn put(&self, w: &mut asf_persist::StateWriter) {
        self.state().put(w);
    }
    fn get(r: &mut asf_persist::StateReader<'_>) -> asf_persist::Result<Self> {
        Ok(Self::resume(ScheduleState::get(r)?, FaultMix::none(), 0))
    }
}

impl FaultSchedule {
    /// Creates a schedule; faults are active while `clock < horizon` ticks.
    ///
    /// # Panics
    ///
    /// Panics if the mix's probabilities are malformed.
    pub fn new(seed: u64, mix: FaultMix, horizon: u64) -> Self {
        mix.validate();
        let rng = SimRng::seed_from_u64(seed);
        let mut rounds = rng.clone().derive(ROUND_STREAM);
        let (heartbeat_gap, crash_gap) = Self::gaps(&mix);
        let mut first =
            |gap: &Option<Geometric>| gap.as_ref().map_or(0, |g| g.sample_u64(&mut rounds));
        let (heartbeat_skip, crash_skip) = (first(&heartbeat_gap), first(&crash_gap));
        Self { rng, mix, horizon, rounds, heartbeat_gap, crash_gap, heartbeat_skip, crash_skip }
    }

    /// Rebuilds a schedule mid-stream from a state captured by
    /// [`FaultSchedule::state`]; it draws the byte-identical continuation of
    /// the original's decisions.
    ///
    /// # Panics
    ///
    /// Panics if the mix's probabilities are malformed.
    pub fn resume(state: ScheduleState, mix: FaultMix, horizon: u64) -> Self {
        mix.validate();
        let (heartbeat_gap, crash_gap) = Self::gaps(&mix);
        Self {
            rng: SimRng::from_state(state.frames),
            mix,
            horizon,
            rounds: SimRng::from_state(state.rounds),
            heartbeat_gap,
            crash_gap,
            heartbeat_skip: state.heartbeat_skip,
            crash_skip: state.crash_skip,
        }
    }

    /// A heartbeat faults when it is dropped or duplicated; a delayed one
    /// still lands before the next round, so delay is no heartbeat fault.
    fn gaps(mix: &FaultMix) -> (Option<Geometric>, Option<Geometric>) {
        (Geometric::new(mix.drop_p + mix.dup_p), Geometric::new(mix.crash_p))
    }

    /// The checkpointing hook: persisting this (plus the mix and horizon) is
    /// enough to resume the exact decision stream mid-schedule.
    pub fn state(&self) -> ScheduleState {
        ScheduleState {
            frames: self.rng.state(),
            rounds: self.rounds.state(),
            heartbeat_skip: self.heartbeat_skip,
            crash_skip: self.crash_skip,
        }
    }

    /// Whether faults can still occur at tick `now`.
    pub fn active(&self, now: u64) -> bool {
        now < self.horizon
    }

    /// The tick at which faults cease.
    pub fn horizon(&self) -> u64 {
        self.horizon
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

    /// The heartbeat faults of one round at tick `now` over channels
    /// `0..n`: appends `(channel, dropped)` for each faulted channel in
    /// ascending order (`dropped` false means duplicated). Each channel's
    /// heartbeat faults independently with probability `drop_p + dup_p`;
    /// when the mix has both, one more draw splits the fault. Past the
    /// horizon, or when no heartbeat can fault, appends and draws nothing.
    pub fn heartbeat_faults(&mut self, now: u64, n: usize, out: &mut Vec<(u32, bool)>) {
        let Some(gap) = self.heartbeat_gap.as_ref().filter(|_| now < self.horizon) else {
            return;
        };
        let (drop_p, dup_p) = (self.mix.drop_p, self.mix.dup_p);
        walk(&mut self.rounds, gap, &mut self.heartbeat_skip, n, |rng, channel| {
            let dropped = match (drop_p > 0.0, dup_p > 0.0) {
                (true, true) => rng.next_f64() * (drop_p + dup_p) < drop_p,
                (dropping, _) => dropping,
            };
            out.push((channel, dropped));
        });
    }

    /// The crash-restarts of one round at tick `now` over channels `0..n`:
    /// appends `(channel, outage ticks)` for each crashed channel in
    /// ascending order. Each channel crashes independently with probability
    /// `crash_p`, for an outage uniform in `1..=max_outage_ticks`. Past the
    /// horizon, or at `crash_p == 0`, appends and draws nothing.
    pub fn crashes(&mut self, now: u64, n: usize, out: &mut Vec<(u32, u64)>) {
        let Some(gap) = self.crash_gap.as_ref().filter(|_| now < self.horizon) else {
            return;
        };
        let max_outage = self.mix.max_outage_ticks as usize;
        walk(&mut self.rounds, gap, &mut self.crash_skip, n, |rng, channel| {
            out.push((channel, 1 + rng.index(max_outage) as u64));
        });
    }
}

/// Walks one round of a Bernoulli trial stream over channels `0..n`,
/// calling `hit` at each success: `skip` is the pending gap on entry and
/// the gap carried into the next round on exit.
fn walk(
    rng: &mut SimRng,
    gap: &Geometric,
    skip: &mut u64,
    n: usize,
    mut hit: impl FnMut(&mut SimRng, u32),
) {
    let n = n as u64;
    let mut at = *skip;
    while at < n {
        hit(rng, at as u32);
        at = at.saturating_add(1).saturating_add(gap.sample_u64(rng));
    }
    *skip = at - n;
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

    /// A decoded policy must be one [`Backoff::new`] accepts.
    fn check(&self) -> asf_persist::Result<()> {
        if self.base == 0 || self.cap < self.base {
            return Err(PersistError::corrupt("backoff base is zero or above its cap"));
        }
        Ok(())
    }
}

persist!(impl Persist for Backoff { base: u64, cap: u64 } check Backoff::check);

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
        let mut s =
            FaultSchedule::new(1, FaultMix { crash_p: 1.0, ..FaultMix::crash_restart(0.0) }, 10);
        let before = s.state();
        let (mut faults, mut crashes) = (Vec::new(), Vec::new());
        s.heartbeat_faults(10, 64, &mut faults);
        s.crashes(10, 64, &mut crashes);
        assert!(faults.is_empty() && crashes.is_empty());
        assert_eq!(s.state(), before, "a quiet round draws nothing");
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
        let mut crashes = Vec::new();
        for _ in 0..10 {
            s.crashes(0, 100, &mut crashes);
        }
        assert!(crashes.iter().all(|&(_, outage)| (1..=4096).contains(&outage)));
        let count = crashes.len();
        assert!((350..=650).contains(&count), "crash count {count} far from 50%");
    }

    #[test]
    fn resumed_schedule_continues_exact_stream() {
        let mix = FaultMix { drop_p: 0.3, delay_p: 0.2, dup_p: 0.1, ..FaultMix::none() };
        let mix = FaultMix { max_delay_ticks: 16, crash_p: 0.05, max_outage_ticks: 9, ..mix };
        let round = |s: &mut FaultSchedule, t: u64| {
            let (mut faults, mut crashes) = (Vec::new(), Vec::new());
            s.heartbeat_faults(t, 37, &mut faults);
            s.crashes(t, 37, &mut crashes);
            (s.draw(t), faults, crashes)
        };
        let mut original = FaultSchedule::new(99, mix, 10_000);
        for t in 0..257 {
            round(&mut original, t);
        }
        let mut resumed = FaultSchedule::resume(original.state(), mix, 10_000);
        for t in 257..1_000 {
            assert_eq!(round(&mut original, t), round(&mut resumed, t));
        }
    }

    /// Heartbeat faults hit each channel with probability `drop_p + dup_p`
    /// per round, independently across channels and rounds — the gap
    /// stream is one Bernoulli trial per (round, channel), not per round.
    #[test]
    fn heartbeat_faults_are_bernoulli_per_channel_and_round() {
        let mix = FaultMix {
            drop_p: 0.06,
            dup_p: 0.04,
            delay_p: 0.3,
            max_delay_ticks: 8,
            ..FaultMix::none()
        };
        let (n, rounds) = (97usize, 4_000usize);
        let mut s = FaultSchedule::new(11, mix, u64::MAX);
        let (mut hit, mut both, mut dropped, mut total) = (vec![false; n], 0usize, 0usize, 0usize);
        let mut faults = Vec::new();
        for _ in 0..rounds {
            faults.clear();
            s.heartbeat_faults(0, n, &mut faults);
            assert!(faults.windows(2).all(|w| w[0].0 < w[1].0), "ascending, no repeats");
            let mut now = vec![false; n];
            for &(c, d) in &faults {
                now[c as usize] = true;
                dropped += usize::from(d);
            }
            both += (0..n).filter(|&c| hit[c] && now[c]).count();
            total += faults.len();
            hit = now;
        }
        let trials = (n * rounds) as f64;
        let rate = total as f64 / trials;
        assert!((rate - 0.1).abs() < 0.004, "fault rate {rate}");
        let repeat = both as f64 / trials;
        assert!((repeat - 0.01).abs() < 0.0015, "consecutive-round fault rate {repeat}");
        let drop_share = dropped as f64 / total as f64;
        assert!((drop_share - 0.6).abs() < 0.02, "drop share {drop_share}");
    }

    #[test]
    fn certain_and_impossible_heartbeat_faults_draw_nothing() {
        let mut faults = Vec::new();
        let mut s = FaultSchedule::new(2, FaultMix::loss_only(1.0), u64::MAX);
        let before = s.state();
        s.heartbeat_faults(0, 50, &mut faults);
        assert_eq!(faults, (0..50).map(|c| (c, true)).collect::<Vec<_>>());
        assert_eq!(s.state(), before);
        let mut s = FaultSchedule::new(2, FaultMix::delay_reorder(0.0), u64::MAX);
        let before = s.state();
        faults.clear();
        s.heartbeat_faults(0, 50, &mut faults);
        assert!(faults.is_empty());
        assert_eq!(s.state(), before);
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
