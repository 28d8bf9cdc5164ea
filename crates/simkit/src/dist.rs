//! Probability distributions, implemented from scratch over [`SimRng`].
//!
//! The paper's workloads need: exponential inter-arrival times (§6.2, mean 20
//! time units), normal value steps (§6.2, `N(0, σ)`), and — for the
//! TCP-trace substitute (DESIGN.md §5) — Zipf subnet activity; the fault
//! schedule needs geometric gaps between faulted channels. `rand_distr` is not among the
//! approved offline crates, so the transforms live here with their own tests.

use crate::rng::SimRng;

/// A distribution over `f64` that samples using a [`SimRng`].
pub trait Sample {
    /// Draws one variate.
    fn sample(&self, rng: &mut SimRng) -> f64;
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or bounds are non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid uniform bounds [{lo}, {hi})");
        Self { lo, hi }
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.range_f64(self.lo, self.hi)
    }
}

/// Exponential distribution with the given **mean** (not rate).
///
/// The paper specifies inter-arrival times by mean ("exponential distribution
/// with a mean of 20 time units"), so the constructor takes the mean; the
/// rate is `1/mean`. Sampling uses inverse transform `-mean · ln(u)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with mean `mean > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not a positive finite number.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "exponential mean must be positive, got {mean}");
        Self { mean }
    }

    /// The configured mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -self.mean * rng.next_f64_open().ln()
    }
}

/// Normal distribution `N(mean, sd²)` via the Box–Muller transform.
///
/// Each draw consumes two uniforms and discards the second variate; this is
/// marginally wasteful but keeps sampling stateless, which matters because
/// distributions are shared across simulated sources.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation `sd >= 0`.
    ///
    /// # Panics
    ///
    /// Panics on non-finite parameters or negative `sd`.
    pub fn new(mean: f64, sd: f64) -> Self {
        assert!(mean.is_finite() && sd.is_finite() && sd >= 0.0, "invalid normal({mean}, {sd})");
        Self { mean, sd }
    }

    /// Standard deviation.
    pub fn sd(&self) -> f64 {
        self.sd
    }
}

impl Sample for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u1 = rng.next_f64_open();
        let u2 = rng.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.mean + self.sd * r * theta.cos()
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s >= 0`:
/// `P(k) ∝ k^{-s}`.
///
/// Implemented with a precomputed cumulative table and binary search —
/// `O(n)` memory, `O(log n)` per sample — which is ideal here because `n` is
/// the number of stream sources (hundreds to a few thousand) and the table is
/// built once per workload.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0, got {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guarantee the last entry is exactly 1 so search never falls off.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Draws a rank in `1..=n`.
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        // partition_point returns the count of entries < u... we want the
        // first index with cdf[i] >= u.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) + 1
    }

    /// Probability mass of rank `k` (1-based).
    pub fn pmf(&self, k: usize) -> f64 {
        assert!((1..=self.cdf.len()).contains(&k));
        if k == 1 {
            self.cdf[0]
        } else {
            self.cdf[k - 1] - self.cdf[k - 2]
        }
    }
}

impl Sample for Zipf {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Geometric distribution on `{0, 1, 2, …}`: the number of failures before
/// the first success of independent Bernoulli(`p`) trials,
/// `P(G = k) = (1 − p)^k · p`.
///
/// Sampled without libm. `survival[k]` holds `⌊2⁶⁴ (1 − p)^(k+1)⌋`, computed
/// once in 128-bit fixed point; a draw is one `u64` word `y`, and `G` is the
/// number of thresholds above `y` (a prefix: they are non-increasing). The
/// search starts at `above[y >> 56]`, the count of thresholds above every
/// word with `y`'s top byte, so it scans only the thresholds inside that
/// byte's range — a quarter of one on average. A word below all 64
/// thresholds means `G ≥ 64`: the distribution is memoryless, so the sampler
/// adds 64 and redraws. The variate is a pure function of the RNG words on
/// every platform (no transcendental's last bit to disagree on), exact to
/// within 64 · 2⁻⁶⁴ per threshold, and costs one word per 64 skipped trials
/// at worst.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Geometric {
    survival: [u64; 64],
    above: [u8; 256],
}

impl Geometric {
    /// Creates the distribution for success probability `p`, or `None` when
    /// `p < 2⁻⁶⁴` (a success that never comes is not representable).
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn new(p: f64) -> Option<Self> {
        assert!(
            (0.0..=1.0).contains(&p),
            "geometric success probability must be in [0, 1], got {p}"
        );
        const ONE: u128 = 1 << 64;
        // `p · 2⁶⁴` is exact for p ≥ 2⁻¹²; below that it truncates by < 2⁻⁶⁴.
        let hit = (p * ONE as f64) as u128;
        if hit == 0 {
            return None;
        }
        let miss = ONE - hit;
        let mut s = ONE;
        let mut survival = [0u64; 64];
        for slot in &mut survival {
            // s ≤ 2⁶⁴ and miss < 2⁶⁴, so the product fits in 128 bits.
            s = (s * miss) >> 64;
            *slot = s as u64;
        }
        let (mut above, mut count) = ([0u8; 256], survival.len());
        for (byte, slot) in above.iter_mut().enumerate() {
            let top = (byte as u64) << 56 | ((1 << 56) - 1);
            while count > 0 && survival[count - 1] <= top {
                count -= 1;
            }
            *slot = count as u8;
        }
        Some(Self { survival, above })
    }

    /// Draws one variate. At `p = 1` it is always 0 and draws nothing.
    #[inline]
    pub fn sample_u64(&self, rng: &mut SimRng) -> u64 {
        if self.survival[0] == 0 {
            return 0;
        }
        let mut skipped = 0u64;
        loop {
            let y = rng.next_u64();
            let mut k = usize::from(self.above[(y >> 56) as usize]);
            while k < self.survival.len() && self.survival[k] > y {
                k += 1;
            }
            if k < self.survival.len() {
                return skipped.saturating_add(k as u64);
            }
            skipped = skipped.saturating_add(64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(0xD15EA5E)
    }

    fn mean_of(d: &impl Sample, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(20.0);
        let m = mean_of(&d, 200_000);
        assert!((m - 20.0).abs() < 0.3, "sample mean {m}");
    }

    #[test]
    fn exponential_is_nonnegative() {
        let d = Exponential::with_mean(1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 0.0);
        }
    }

    #[test]
    fn normal_moments_match() {
        let d = Normal::new(5.0, 20.0);
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - 20.0).abs() < 0.2, "sd {}", var.sqrt());
    }

    #[test]
    fn normal_zero_sd_is_constant() {
        let d = Normal::new(3.0, 0.0);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 3.0);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 1.1);
        let total: f64 = (1..=50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let n = 100_000;
        let mut counts = vec![0usize; 101];
        for _ in 0..n {
            counts[z.sample_rank(&mut r)] += 1;
        }
        assert!(counts[1] > counts[2] && counts[2] > counts[5]);
        let expected1 = z.pmf(1);
        let got1 = counts[1] as f64 / n as f64;
        assert!((got1 - expected1).abs() < 0.01, "rank-1 freq {got1} vs pmf {expected1}");
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 1..=10 {
            assert!((z.pmf(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_ranks_in_bounds() {
        let z = Zipf::new(7, 2.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let k = z.sample_rank(&mut r);
            assert!((1..=7).contains(&k));
        }
    }

    /// Pearson's χ² of the empirical pmf against `(1 − p)^k p`, over bins
    /// expecting ≥ 20 draws each plus one tail bin, must stay under the
    /// 0.9999 quantile (Wilson–Hilferty) of its degrees of freedom.
    #[test]
    fn geometric_pmf_passes_chi_square() {
        for p in [0.01, 0.05, 0.2, 0.5] {
            let g = Geometric::new(p).unwrap();
            let draws = 200_000usize;
            let pmf = |k: usize| (1.0 - p).powi(k as i32) * p;
            let bins = (0..).take_while(|&k| pmf(k) * draws as f64 >= 20.0).count();
            let mut counts = vec![0usize; bins + 1];
            let mut r = rng();
            for _ in 0..draws {
                counts[(g.sample_u64(&mut r) as usize).min(bins)] += 1;
            }
            let tail = 1.0 - (0..bins).map(pmf).sum::<f64>();
            let chi2: f64 = counts
                .iter()
                .enumerate()
                .map(|(k, &seen)| {
                    let want = draws as f64 * if k < bins { pmf(k) } else { tail };
                    (seen as f64 - want).powi(2) / want
                })
                .sum();
            let df = bins as f64;
            let z = 3.72;
            let critical = df * (1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt()).powi(3);
            assert!(chi2 < critical, "p={p}: chi2 {chi2:.1} over {critical:.1} at df {df}");
        }
    }

    #[test]
    fn geometric_mean_and_variance_match() {
        for p in [0.01, 0.05, 0.2, 0.5] {
            let g = Geometric::new(p).unwrap();
            let mut r = rng();
            let n = 200_000;
            let xs: Vec<f64> = (0..n).map(|_| g.sample_u64(&mut r) as f64).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
            let (want_mean, want_var) = ((1.0 - p) / p, (1.0 - p) / (p * p));
            assert!((mean / want_mean - 1.0).abs() < 0.02, "p={p}: mean {mean} vs {want_mean}");
            assert!((var / want_var - 1.0).abs() < 0.05, "p={p}: var {var} vs {want_var}");
        }
    }

    /// The byte index only shortens the search: every draw equals the full
    /// count of thresholds above its word.
    #[test]
    fn geometric_index_agrees_with_a_full_count() {
        for p in [0.001, 0.05, 0.5, 0.999] {
            let g = Geometric::new(p).unwrap();
            let mut r = rng();
            for _ in 0..100_000 {
                let y = SimRng::from_state(r.state()).next_u64();
                let count = g.survival.iter().filter(|&&t| t > y).count() as u64;
                let got = g.sample_u64(&mut r);
                if count < 64 {
                    assert_eq!(got, count, "p={p} y={y:#x}");
                } else {
                    assert!(got >= 64);
                }
            }
        }
    }

    #[test]
    fn geometric_certain_success_is_zero_without_drawing() {
        let g = Geometric::new(1.0).unwrap();
        let mut r = rng();
        let before = r.state();
        assert!((0..1000).all(|_| g.sample_u64(&mut r) == 0));
        assert_eq!(r.state(), before);
    }

    #[test]
    fn geometric_impossible_success_is_unrepresentable() {
        assert_eq!(Geometric::new(0.0), None);
        assert_eq!(Geometric::new(1e-30), None);
        assert!(Geometric::new(1e-12).is_some());
    }

    #[test]
    fn geometric_resumes_from_rng_words() {
        let g = Geometric::new(0.003).unwrap();
        let mut a = rng();
        for _ in 0..17 {
            g.sample_u64(&mut a);
        }
        let mut b = SimRng::from_state(a.state());
        for _ in 0..1000 {
            assert_eq!(g.sample_u64(&mut a), g.sample_u64(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_mean() {
        Exponential::with_mean(0.0);
    }

    #[test]
    #[should_panic(expected = "invalid normal")]
    fn normal_rejects_negative_sd() {
        Normal::new(0.0, -1.0);
    }
}
