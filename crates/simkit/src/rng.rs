//! Seeded random-number layer.
//!
//! All stochastic behaviour in the reproduction flows through [`SimRng`] so
//! that every experiment is reproducible from a single `u64` seed. The
//! distributions in [`crate::dist`] draw uniform variates from here and apply
//! their own transforms; we depend on no external RNG crate — the generator
//! is implemented here (xoshiro256++ seeded through SplitMix64), so results
//! are reproducible across toolchains and dependency upgrades.

/// SplitMix64 step — used to expand a 64-bit seed into generator state and
/// to mix labels in [`SimRng::derive`].
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable PRNG stream.
///
/// xoshiro256++ (Blackman & Vigna) with the API surface the simulation uses:
/// uniform `f64` in `[0, 1)`, integer ranges, and sub-stream derivation for
/// independent components.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

// The raw state words, so recovery resumes the exact stream.
asf_persist::persist!(impl Persist for SimRng { s: [u64; 4] });

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { s }
    }

    /// Uniform variate in `[0, 1)` (53 random mantissa bits).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform variate in `[0, 1)` that is never exactly zero.
    ///
    /// Inverse-CDF transforms (exponential, Box–Muller) need `u > 0` to avoid
    /// `ln(0)`.
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform variate in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    #[inline]
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid range [{lo}, {hi})");
        // Clamp guards against the affine transform rounding up to `hi`.
        (lo + self.next_f64() * (hi - lo)).min(hi.next_down())
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Rejection sampling: accept below the largest multiple of `n`.
        let n64 = n as u64;
        let zone = u64::MAX - (u64::MAX % n64);
        loop {
            let x = self.next_u64();
            if x < zone {
                return (x % n64) as usize;
            }
        }
    }

    /// Raw 64 random bits (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// The generator's raw internal state, for durable checkpointing.
    ///
    /// Recovery must resume the *exact* random stream (protocol decisions
    /// derive from it), so the state words are exposed rather than a seed.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from [`state`](Self::state) — continues the
    /// stream bit-for-bit where the saved generator left off.
    pub fn from_state(s: [u64; 4]) -> Self {
        Self { s }
    }

    /// Derives an independent sub-stream.
    ///
    /// Used to give each simulated stream source its own generator so that
    /// changing one source's consumption pattern does not perturb the others
    /// (a standard variance-reduction/reproducibility practice in
    /// discrete-event simulation).
    pub fn derive(&mut self, label: u64) -> SimRng {
        // Mix the label into fresh entropy from this stream via SplitMix64.
        let mut z = self.next_u64() ^ label.wrapping_mul(0x9E3779B97F4A7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        SimRng::seed_from_u64(z)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (order unspecified but
    /// deterministic). Uses partial Fisher–Yates on an index vector.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct indices from 0..{n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trip_resumes_exact_stream() {
        let mut a = SimRng::seed_from_u64(123);
        for _ in 0..17 {
            a.next_u64();
        }
        let mut b = SimRng::from_state(a.state());
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = SimRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = r.range_f64(400.0, 600.0);
            assert!((400.0..600.0).contains(&v));
        }
    }

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let mut base1 = SimRng::seed_from_u64(5);
        let mut base2 = SimRng::seed_from_u64(5);
        let mut d1 = base1.derive(3);
        let mut d2 = base2.derive(3);
        assert_eq!(d1.next_u64(), d2.next_u64());

        let mut base = SimRng::seed_from_u64(5);
        let mut da = base.derive(1);
        let mut db = base.derive(1);
        // Two derivations from the same parent consume parent entropy and so
        // must differ even with the same label.
        assert_ne!(da.next_u64(), db.next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle left slice unchanged");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = SimRng::seed_from_u64(13);
        let s = r.sample_indices(100, 20);
        assert_eq!(s.len(), 20);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_all_indices() {
        let mut r = SimRng::seed_from_u64(14);
        let mut s = r.sample_indices(10, 10);
        s.sort_unstable();
        assert_eq!(s, (0..10).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_n_panics() {
        let mut r = SimRng::seed_from_u64(15);
        r.sample_indices(3, 4);
    }
}
