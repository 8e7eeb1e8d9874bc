//! Deterministic random-number streams.
//!
//! The kernel itself is deterministic; all stochastic behaviour (arrival
//! processes, service-time jitter) flows through [`RngStream`]s derived from a
//! root seed and a stream *name*, so adding a new consumer of randomness never
//! perturbs existing streams.
//!
//! The generator is xoshiro256++ seeded via SplitMix64 — both implemented here
//! to keep the kernel dependency-free and the bit streams stable forever.

/// A named, seeded pseudo-random stream (xoshiro256++).
///
/// ```
/// use fabricsim_des::RngStream;
/// let mut a = RngStream::derive(42, "clients");
/// let mut b = RngStream::derive(42, "clients");
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed + name => same stream
/// let mut c = RngStream::derive(42, "network");
/// assert_ne!(a.next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngStream {
    s: [u64; 4],
}

/// SplitMix64 step, used for seeding and for name hashing.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RngStream {
    /// Creates a stream from a raw 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x1234_5678_9ABC_DEF0;
        }
        RngStream { s }
    }

    /// Derives an independent stream from a root seed and a stable name.
    pub fn derive(root_seed: u64, name: &str) -> Self {
        // FNV-1a over the name, mixed with the root seed through SplitMix64.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut mix = root_seed ^ h;
        let _ = splitmix64(&mut mix);
        Self::new(mix)
    }

    /// Derives a child stream from this stream's name-space (e.g. per-node).
    pub fn child(&self, index: u64) -> Self {
        let mut clone = self.clone();
        let a = clone.next_u64();
        Self::new(a ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64 bits (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
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

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits into the mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift with rejection for unbiased sampling.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= low.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// An exponentially distributed sample with the given mean.
    ///
    /// # Panics
    /// Panics if `mean` is not positive and finite.
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "invalid mean: {mean}");
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -mean * u.ln()
    }

    /// A standard-normal sample (Box–Muller).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Picks a uniformly random element index for a slice of length `len`.
    pub fn pick_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }
}

/// Runs the property `f` on `n` seeded cases; case `i` draws its inputs from
/// `RngStream::derive(i, name)`.
///
/// There is no shrinker: generators are expected to be size-bounded, so the
/// failing case is already the small case. A panicking case prints
/// `property {name}: case {i}` while unwinding; calling
/// `f(&mut RngStream::derive(i, name))` runs that case alone.
pub fn cases(name: &str, n: u64, mut f: impl FnMut(&mut RngStream)) {
    struct Running<'a>(&'a str, u64);
    impl Drop for Running<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("property {}: case {}", self.0, self.1);
            }
        }
    }
    for case in 0..n {
        let _running = Running(name, case);
        f(&mut RngStream::derive(case, name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_splitmix_vector() {
        // Reference values from the SplitMix64 paper's test vector (seed = 0).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = RngStream::derive(7, "x");
        let mut b = RngStream::derive(7, "x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_differ() {
        let mut a = RngStream::derive(7, "x");
        let mut b = RngStream::derive(7, "y");
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn child_streams_are_independent() {
        let root = RngStream::derive(7, "peers");
        let mut c0 = root.child(0);
        let mut c1 = root.child(1);
        assert_ne!(c0.next_u64(), c1.next_u64());
        // Children are reproducible.
        let mut c0b = root.child(0);
        let mut c0a = root.child(0);
        assert_eq!(c0a.next_u64(), c0b.next_u64());
    }

    #[test]
    fn uniform_bounds_hold() {
        let mut r = RngStream::new(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            let y = r.next_below(13);
            assert!(y < 13);
            let z = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&z));
        }
    }

    #[test]
    fn exp_mean_is_close() {
        let mut r = RngStream::new(2);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| r.exp(0.02)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.02).abs() < 0.0005, "mean was {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = RngStream::new(3);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.15, "var was {var}");
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut r = RngStream::new(4);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "counts: {counts:?}");
        }
    }

    #[test]
    fn cases_runs_each_case_on_its_own_derived_stream() {
        let mut seen = Vec::new();
        cases("p", 3, |rng| seen.push(rng.clone()));
        let want: Vec<RngStream> = (0..3).map(|i| RngStream::derive(i, "p")).collect();
        assert_eq!(seen, want);
    }

    #[test]
    #[should_panic(expected = "case 2 fails")]
    fn cases_lets_a_failing_case_unwind() {
        let mut case = 0;
        cases("p", 5, |_| {
            assert!(case != 2, "case {case} fails");
            case += 1;
        });
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        RngStream::new(0).next_below(0);
    }
}
