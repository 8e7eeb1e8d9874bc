//! Modular arithmetic over `u64` moduli and a deterministic Miller–Rabin
//! primality test, used to verify the Schnorr group constants and available to
//! user code that wants to pick its own group.

/// `(a * b) mod m` without overflow, via 128-bit intermediates.
pub const fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `(base ^ exp) mod m` by square-and-multiply.
///
/// # Panics
/// Panics if `m == 0`.
pub fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    assert!(m != 0, "modulus must be non-zero");
    if m == 1 {
        return 0;
    }
    let mut acc: u64 = 1;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Modular inverse of `a` modulo prime `p` (via Fermat's little theorem).
///
/// # Panics
/// Panics if `a % p == 0`.
pub fn inv_mod(a: u64, p: u64) -> u64 {
    assert!(!a.is_multiple_of(p), "zero has no inverse");
    pow_mod(a, p - 2, p)
}

/// Deterministic Miller–Rabin for all 64-bit integers.
///
/// Uses the witness set `{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}`, which
/// is proven sufficient for `n < 3.3 * 10^24` — far beyond `u64`.
///
/// ```
/// use fabricsim_crypto::prime::is_prime;
/// assert!(is_prime(2305843009213699919)); // the fabricsim Schnorr modulus
/// assert!(!is_prime(2305843009213699917));
/// ```
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(p) {
            return n == p;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Returns `true` if `p` is a *safe prime*: `p` and `(p-1)/2` are both prime.
pub fn is_safe_prime(p: u64) -> bool {
    p > 5 && is_prime(p) && is_prime((p - 1) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes() {
        let primes = [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 97, 7919];
        for p in primes {
            assert!(is_prime(p), "{p} should be prime");
        }
        for c in [0u64, 1, 4, 6, 9, 15, 21, 91, 561, 7917] {
            assert!(!is_prime(c), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Classic strong pseudoprime traps.
        for c in [561u64, 41041, 825265, 321197185] {
            assert!(!is_prime(c), "{c} is a Carmichael number");
        }
    }

    #[test]
    fn large_known_primes() {
        assert!(is_prime(18446744073709551557)); // largest 64-bit prime
        assert!(is_prime(2305843009213693951)); // Mersenne prime 2^61 - 1
        assert!(!is_prime(18446744073709551555));
    }

    #[test]
    fn pow_mod_matches_naive() {
        for base in [2u64, 3, 10, 1_000_003] {
            for exp in [0u64, 1, 2, 5, 16, 31] {
                let m = 1_000_000_007u64;
                let mut naive = 1u64;
                for _ in 0..exp {
                    naive = mul_mod(naive, base, m);
                }
                assert_eq!(pow_mod(base, exp, m), naive);
            }
        }
    }

    #[test]
    fn inverse_is_an_inverse() {
        let p = 1_000_000_007u64;
        for a in [1u64, 2, 12345, p - 1] {
            let inv = inv_mod(a, p);
            assert_eq!(mul_mod(a, inv, p), 1);
        }
    }

    #[test]
    fn safe_prime_detection() {
        assert!(is_safe_prime(23)); // 11 prime
        assert!(is_safe_prime(2305843009213699919));
        assert!(!is_safe_prime(2305843009213693951)); // M61: (p-1)/2 composite
        assert!(!is_safe_prime(97)); // 48 not prime
    }

    #[test]
    #[should_panic(expected = "modulus must be non-zero")]
    fn pow_mod_zero_modulus_panics() {
        pow_mod(2, 2, 0);
    }
}
