//! Seeded input generation: every input of every workload is a pure
//! function of the workload seed.

/// splitmix64 (Steele, Lea & Flood): tiny, dependency-free, reproducible.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `[0, bound)` (multiply-shift; the bias is irrelevant here).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// `n` exponential inter-arrival gaps of mean 1 (Poisson arrivals),
    /// stratified: the distribution's `n` mid-quantiles in seeded order,
    /// so every seed offers exactly the same load and seeds differ only
    /// in when the short and long gaps fall.
    pub fn exp_gaps(&mut self, n: usize) -> Vec<f64> {
        let mut g: Vec<f64> = (0..n)
            .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln())
            .collect();
        let mean = g.iter().sum::<f64>() / n.max(1) as f64;
        g.iter_mut().for_each(|x| *x /= mean);
        self.shuffle(&mut g);
        g
    }

    /// `n` draws from `shapes`, stratified: consecutive blocks of
    /// `shapes.len()` jobs each hold every shape once, in seeded order, so
    /// every seed serves the same mix.
    pub fn blocks<T: Clone>(&mut self, shapes: &[T], n: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block = shapes.to_vec();
            self.shuffle(&mut block);
            out.extend(block.into_iter().take(n - out.len()));
        }
        out
    }

    /// An independent stream for sub-purpose `tag`.
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng(self.next_u64() ^ mix64(tag))
    }
}

/// The splitmix64 finalizer, also the element hash of the multiset checksum.
pub fn mix64(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sort keys: `n` values uniform in `[0, 2n)`, as in the paper's §6.4.
pub fn sort_keys(rng: &mut Rng, n: usize) -> Vec<u32> {
    let hi = (2 * n).max(2) as u64;
    (0..n).map(|_| rng.below(hi) as u32).collect()
}

/// Summands small enough that no total of these sizes can wrap.
pub fn summands(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.below(1 << 20)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(sort_keys(&mut a, 64), sort_keys(&mut b, 64));
        assert_ne!(sort_keys(&mut a, 64), sort_keys(&mut Rng::new(8), 64));
    }

    #[test]
    fn stratified_draws_keep_the_mix_and_the_mean() {
        let g = Rng::new(3).exp_gaps(1000);
        assert!((g.iter().sum::<f64>() / 1000.0 - 1.0).abs() < 1e-9);
        let b = Rng::new(3).blocks(&[1, 2, 3], 7);
        assert_eq!(b.len(), 7);
        let mut first: Vec<i32> = b[..3].to_vec();
        first.sort();
        assert_eq!(first, vec![1, 2, 3]);
    }

    #[test]
    fn splitmix_reference_vector() {
        assert_eq!(Rng::new(1234567).next_u64(), 0x599E_D017_FB08_FC85);
    }
}
