//! Deterministic pseudo-random number generation for reproducible experiments.
//!
//! Every stochastic component of the Ansible Wisdom reproduction (corpus
//! synthesis, weight initialization, data shuffling, sampling decoders) draws
//! from [`Prng`], a xoshiro256++ generator. Using our own ~100-line generator
//! instead of an external crate guarantees bit-identical experiment streams
//! across platforms and dependency upgrades, which is what makes the paper's
//! tables regenerable.
//!
//! # Examples
//!
//! ```
//! use wisdom_prng::Prng;
//!
//! let mut rng = Prng::seed_from_u64(42);
//! let roll = rng.range_usize(0, 6);
//! assert!(roll < 6);
//! // Identical seeds yield identical streams.
//! let mut rng2 = Prng::seed_from_u64(42);
//! assert_eq!(rng2.range_usize(0, 6), roll);
//! ```
//!
//! The crate also holds [`FoldHash`], the keyed hash of the curation
//! stages' dedup maps and the grammar's mask cache.

mod fold_hash;

pub use fold_hash::{FoldHash, FoldHasher};

/// A deterministic xoshiro256++ pseudo-random number generator.
///
/// The generator is intentionally *not* cryptographically secure; it exists to
/// make every experiment in this repository bit-reproducible from a single
/// `u64` seed.
///
/// # Examples
///
/// ```
/// use wisdom_prng::Prng;
///
/// let mut rng = Prng::seed_from_u64(7);
/// let x: f64 = rng.f64();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Prng {
    s: [u64; 4],
}

impl Default for Prng {
    fn default() -> Self {
        Self::seed_from_u64(0)
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator whose entire stream is determined by `seed`.
    ///
    /// The four 64-bit lanes of internal state are derived from the seed via
    /// SplitMix64, as recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent child generator for a named sub-stream.
    ///
    /// Streams for different `label`s are decorrelated, so e.g. the corpus
    /// generator and the model initializer can each fork their own stream
    /// from one experiment seed without interfering.
    pub fn fork(&mut self, label: &str) -> Prng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        Prng::seed_from_u64(self.u64() ^ h)
    }

    /// Returns the next raw 64-bit output of the generator.
    pub fn u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Returns a uniformly distributed `u32`.
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f32` in `[0, 1)`.
    pub fn f32(&mut self) -> f32 {
        (self.u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Returns a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        lo + (self.bounded_u64(span) as usize)
    }

    /// Returns a uniform `u64` in `[0, bound)` using widening-multiply with
    /// rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn bounded_u64(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.u64();
            let m = (x as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.f64() * (hi - lo)
    }

    /// Returns a standard-normal sample via the Box–Muller transform.
    pub fn normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > f64::EPSILON {
                break u;
            }
        };
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Returns a normal sample with the given mean and standard deviation as `f32`.
    pub fn normal_f32(&mut self, mean: f32, std_dev: f32) -> f32 {
        mean + std_dev * self.normal() as f32
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choice<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choice on empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// Picks a uniformly random element of `items`, by value.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        *self.choice(items)
    }

    /// Picks an index according to non-negative `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be non-empty with positive sum"
        );
        let mut target = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_usize(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `0..n` (order randomized).
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        self.shuffle(&mut idx);
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Prng::seed_from_u64(123);
        let mut b = Prng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Prng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_usize_respects_bounds() {
        let mut rng = Prng::seed_from_u64(5);
        for _ in 0..1000 {
            let x = rng.range_usize(3, 17);
            assert!((3..17).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_usize_empty_panics() {
        let mut rng = Prng::seed_from_u64(0);
        rng.range_usize(4, 4);
    }

    #[test]
    fn bounded_u64_covers_small_range() {
        let mut rng = Prng::seed_from_u64(77);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.bounded_u64(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn normal_has_sane_moments() {
        let mut rng = Prng::seed_from_u64(31);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn weighted_index_biases_toward_heavy_weight() {
        let mut rng = Prng::seed_from_u64(8);
        let weights = [0.05, 0.9, 0.05];
        let mut counts = [0usize; 3];
        for _ in 0..2000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert!(counts[1] > counts[0] * 5);
        assert!(counts[1] > counts[2] * 5);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Prng::seed_from_u64(4);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct() {
        let mut rng = Prng::seed_from_u64(12);
        let s = rng.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn fork_streams_decorrelated() {
        let mut root = Prng::seed_from_u64(99);
        let mut a = root.fork("corpus");
        let mut root2 = Prng::seed_from_u64(99);
        let mut b = root2.fork("model");
        let va: Vec<u64> = (0..8).map(|_| a.u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Prng::seed_from_u64(2);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.0));
        }
    }
}
