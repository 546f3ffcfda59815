//! The benchmark's own input generator.
//!
//! SplitMix64, not the workspace's `rand` shim: the request mixes and
//! arrival schedules a seed produces must stay the same across commits
//! even when a change touches the shim's stream, or parent and change
//! would no longer be measured on the same inputs.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// An independent stream for one sub-generator (a connection, a phase).
    pub fn fork(&mut self, salt: u64) -> Self {
        Self(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Log-uniform integer in `1..=max`.
    pub fn log_uniform(&mut self, max: usize) -> usize {
        let v = ((max as f64 + 1.0).ln() * self.unit()).exp();
        (v as usize).clamp(1, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
            let n = a.log_uniform(64);
            assert!((1..=64).contains(&n));
            b.log_uniform(64);
            assert!(a.below(5) < 5);
            b.below(5);
            assert!(a.exp(1.0) >= 0.0);
            b.exp(1.0);
        }
    }
}
