//! Minimal deterministic PRNG used by every synthetic graph generator.
//!
//! The generators must be bit-for-bit reproducible across platforms and across
//! releases of third-party crates, because the golden fixtures, the
//! differential matrix and the benchmark's exact counts pin cover sizes per
//! seed. A vendored
//! xoshiro256** (seeded through SplitMix64, as recommended by its authors) keeps
//! that guarantee independent of the `rand` crate's evolution.

/// xoshiro256** generator seeded via SplitMix64.
#[derive(Debug, Clone)]
pub struct Xoshiro256 {
    state: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Xoshiro256 {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Xoshiro256 { state }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. Panics if `bound == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    #[inline]
    pub fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire (2019), "Fast Random Integer Generation in an Interval".
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` in `[0, bound)`.
    #[inline]
    pub fn next_index(&mut self, bound: usize) -> usize {
        self.next_bounded(bound as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        let n = slice.len();
        if n <= 1 {
            return;
        }
        for i in (1..n).rev() {
            let j = self.next_index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Sample `count` distinct indices from `[0, bound)` (Floyd's algorithm).
    ///
    /// Panics if `count > bound`.
    pub fn sample_distinct(&mut self, bound: usize, count: usize) -> Vec<usize> {
        assert!(
            count <= bound,
            "cannot sample {count} distinct from {bound}"
        );
        let mut chosen = std::collections::HashSet::with_capacity(count);
        let mut out = Vec::with_capacity(count);
        for j in bound - count..bound {
            let t = self.next_index(j + 1);
            let pick = if chosen.contains(&t) { j } else { t };
            chosen.insert(pick);
            out.push(pick);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256::seed_from_u64(42);
        let mut b = Xoshiro256::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Xoshiro256::seed_from_u64(1);
        let mut b = Xoshiro256::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn bounded_values_respect_bound() {
        let mut r = Xoshiro256::seed_from_u64(7);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(r.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Xoshiro256::seed_from_u64(9);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = Xoshiro256::seed_from_u64(3);
        assert!(!(0..100).any(|_| r.next_bool(0.0)));
        assert!((0..100).all(|_| r.next_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Xoshiro256::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn sample_distinct_has_no_duplicates() {
        let mut r = Xoshiro256::seed_from_u64(13);
        let sample = r.sample_distinct(100, 40);
        assert_eq!(sample.len(), 40);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(set.len(), 40);
        assert!(sample.iter().all(|&x| x < 100));
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut r = Xoshiro256::seed_from_u64(17);
        let mut counts = [0usize; 10];
        for _ in 0..10_000 {
            counts[r.next_index(10)] += 1;
        }
        for &c in &counts {
            assert!(
                (700..1300).contains(&c),
                "bucket count {c} far from uniform"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        Xoshiro256::seed_from_u64(0).next_bounded(0);
    }
}
