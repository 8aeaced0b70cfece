//! Deterministic pseudo-random number generation.
//!
//! Every stochastic choice in the simulator (page placement, synthetic
//! workload generation) flows through [`Xoshiro256`], a small, fast,
//! well-studied generator (xoshiro256** by Blackman & Vigna). Keeping the
//! generator in-tree guarantees bit-identical traces across platforms and
//! `rand`-crate versions, which the test suite relies on.
//!
//! # Examples
//!
//! ```
//! use ringsim_types::rng::Xoshiro256;
//!
//! let mut a = Xoshiro256::seed_from_u64(42);
//! let mut b = Xoshiro256::seed_from_u64(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! let x = a.next_f64();
//! assert!((0.0..1.0).contains(&x));
//! ```

use serde::{Deserialize, Serialize};

/// The xoshiro256** generator with a SplitMix64 seeding routine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Xoshiro256 {
    s: [u64; 4],
}

/// One step of SplitMix64, used to expand a 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Xoshiro256 {
    /// Creates a generator whose 256-bit state is expanded from `seed` with
    /// SplitMix64 (the seeding procedure recommended by the xoshiro authors).
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Self { s }
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Used to give each processor / pool its own stream so that changing one
    /// parameter does not perturb unrelated random choices.
    #[must_use]
    pub fn fork(&mut self, stream: u64) -> Self {
        let mixed = self.next_u64() ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Self::seed_from_u64(mixed)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` (Lemire's unbiased method).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire rejection sampling for an unbiased result.
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_below(hi - lo)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks one index in `0..weights.len()` with probability proportional to
    /// its weight. Returns `None` when all weights are zero or the slice is
    /// empty.
    #[inline]
    pub fn pick_weighted(&mut self, weights: &[f64]) -> Option<usize> {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        if total <= 0.0 {
            return None;
        }
        let mut target = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return Some(i);
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        weights.iter().rposition(|&w| w > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Xoshiro256::seed_from_u64(7);
        let mut b = Xoshiro256::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn differs_for_different_seed() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Xoshiro256::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_respects_bound_and_is_roughly_uniform() {
        let mut g = Xoshiro256::seed_from_u64(9);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[g.next_below(8) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10k; allow generous slack.
            assert!((8_000..12_000).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn range_endpoints() {
        let mut g = Xoshiro256::seed_from_u64(4);
        for _ in 0..1_000 {
            let v = g.range(10, 12);
            assert!((10..12).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut g = Xoshiro256::seed_from_u64(5);
        assert!(!g.chance(0.0));
        assert!(g.chance(1.0));
    }

    #[test]
    fn weighted_pick_skips_zero_weights() {
        let mut g = Xoshiro256::seed_from_u64(6);
        for _ in 0..1_000 {
            let i = g.pick_weighted(&[0.0, 1.0, 0.0]).unwrap();
            assert_eq!(i, 1);
        }
        assert_eq!(g.pick_weighted(&[]), None);
        assert_eq!(g.pick_weighted(&[0.0, 0.0]), None);
    }

    #[test]
    fn weighted_pick_tracks_proportions() {
        let mut g = Xoshiro256::seed_from_u64(8);
        let mut hits = [0u32; 2];
        for _ in 0..30_000 {
            hits[g.pick_weighted(&[1.0, 3.0]).unwrap()] += 1;
        }
        let frac = f64::from(hits[1]) / 30_000.0;
        assert!((0.72..0.78).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut base = Xoshiro256::seed_from_u64(10);
        let mut a = base.fork(0);
        let mut b = base.fork(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
