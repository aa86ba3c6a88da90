//! Divisor and factorization utilities.
//!
//! The co-design space only admits loop tilings whose tile sizes evenly
//! divide the layer extents (Section IV-A2), so legal tile sizes for a
//! dimension of extent `n` are exactly the divisors of `n`, and a legal
//! 3-level tiling is a *divisor chain* `t2 | t1 | n`. This module
//! enumerates and counts those objects.

/// Divisors a [`Divisors`] holds inline before it spills to the heap.
/// Every integer below 10080 has at most 64 divisors, so the layer
/// extents and PE counts of this workspace never spill.
const INLINE_DIVISORS: usize = 64;

/// The divisors of `n` in ascending order, enumerated without allocating
/// while there are at most 64 of them (every `n` below 10080); past that
/// the list moves to the heap, so any extent stays correct. This is the
/// one divisor enumeration: [`divisors`] collects it into a `Vec`, and
/// the tile samplers draw from it directly (it dereferences to `[u64]`).
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use spotlight_conv::factor::Divisors;
/// assert_eq!(&*Divisors::of(12), &[1, 2, 3, 4, 6, 12]);
/// assert_eq!(Divisors::of(720_720).len(), 240); // spills, still exact
/// ```
#[derive(Debug, Clone)]
pub struct Divisors {
    inline: [u64; INLINE_DIVISORS],
    len: usize,
    spilled: Vec<u64>,
}

impl Divisors {
    /// Enumerates the divisors of `n` by trial division up to `sqrt(n)`.
    pub fn of(n: u64) -> Self {
        assert!(n > 0, "divisors of zero are undefined");
        let mut out = Divisors {
            inline: [0; INLINE_DIVISORS],
            len: 0,
            spilled: Vec::new(),
        };
        // The divisors up to sqrt(n), ascending...
        let mut d = 1;
        while d * d <= n {
            if n.is_multiple_of(d) {
                out.push(d);
            }
            d += 1;
        }
        // ...then their cofactors, ascending because `small` descends.
        for i in (0..out.len).rev() {
            let small = out[i];
            if small * small != n {
                out.push(n / small);
            }
        }
        out
    }

    fn push(&mut self, d: u64) {
        if self.len < INLINE_DIVISORS {
            self.inline[self.len] = d;
        } else {
            if self.spilled.is_empty() {
                self.spilled.extend_from_slice(&self.inline);
            }
            self.spilled.push(d);
        }
        self.len += 1;
    }
}

impl std::ops::Deref for Divisors {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        if self.len > INLINE_DIVISORS {
            &self.spilled
        } else {
            &self.inline[..self.len]
        }
    }
}

/// Returns all divisors of `n` in ascending order.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// use spotlight_conv::factor::divisors;
/// assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
/// ```
pub fn divisors(n: u64) -> Vec<u64> {
    Divisors::of(n).to_vec()
}

/// Number of divisors of `n`.
///
/// ```
/// use spotlight_conv::factor::divisor_count;
/// assert_eq!(divisor_count(36), 9);
/// ```
pub fn divisor_count(n: u64) -> u64 {
    prime_factorization(n)
        .into_iter()
        .map(|(_, e)| e as u64 + 1)
        .product()
}

/// Prime factorization of `n` as `(prime, exponent)` pairs in ascending
/// prime order. Returns an empty vector for `n == 1`.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// ```
/// use spotlight_conv::factor::prime_factorization;
/// assert_eq!(prime_factorization(360), vec![(2, 3), (3, 2), (5, 1)]);
/// ```
pub fn prime_factorization(mut n: u64) -> Vec<(u64, u32)> {
    assert!(n > 0, "cannot factor zero");
    let mut out = Vec::new();
    let mut p = 2;
    while p * p <= n {
        if n.is_multiple_of(p) {
            let mut e = 0;
            while n.is_multiple_of(p) {
                n /= p;
                e += 1;
            }
            out.push((p, e));
        }
        p += if p == 2 { 1 } else { 2 };
    }
    if n > 1 {
        out.push((n, 1));
    }
    out
}

/// Number of length-`levels` divisor chains `t_{levels-1} | ... | t_1 | n`
/// ending at `n`. Equivalently, the number of ordered factorizations of `n`
/// into `levels` factors.
///
/// For `n = p1^e1 * p2^e2 * ...` this is the product over primes of the
/// number of weak compositions of `e_i` into `levels` parts,
/// `C(e_i + levels - 1, levels - 1)`.
///
/// ```
/// use spotlight_conv::factor::divisor_chain_count;
/// // 12 = 2^2 * 3: C(4,2) * C(3,2) = 6 * 3 = 18 ordered triples.
/// assert_eq!(divisor_chain_count(12, 3), 18);
/// assert_eq!(divisor_chain_count(1, 3), 1);
/// ```
pub fn divisor_chain_count(n: u64, levels: u32) -> u64 {
    prime_factorization(n)
        .into_iter()
        .map(|(_, e)| binomial(e as u64 + levels as u64 - 1, levels as u64 - 1))
        .product()
}

/// Enumerates every 3-level divisor chain `(t0, t1, t2)` with
/// `t0 = n`, `t1 | t0` and `t2 | t1`. The first component is always `n`
/// because the outermost "tile" of a dimension is the full extent.
///
/// ```
/// use spotlight_conv::factor::tiling_chains;
/// let chains = tiling_chains(4);
/// assert!(chains.contains(&(4, 2, 1)));
/// assert!(chains.iter().all(|&(a, b, c)| a % b == 0 && b % c == 0));
/// ```
pub fn tiling_chains(n: u64) -> Vec<(u64, u64, u64)> {
    let mut out = Vec::new();
    for t1 in divisors(n) {
        for t2 in divisors(t1) {
            out.push((n, t1, t2));
        }
    }
    out
}

/// Binomial coefficient `C(n, k)` computed without overflow for the small
/// arguments used here.
///
/// ```
/// use spotlight_conv::factor::binomial;
/// assert_eq!(binomial(5, 2), 10);
/// assert_eq!(binomial(4, 0), 1);
/// ```
pub fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u64 = 1;
    for i in 0..k {
        acc = acc * (n - i) / (i + 1);
    }
    acc
}

/// Greatest common divisor.
///
/// ```
/// use spotlight_conv::factor::gcd;
/// assert_eq!(gcd(12, 18), 6);
/// ```
pub fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = b;
        b = a % b;
        a = t;
    }
    a
}

/// Divides `a / b` rounding up.
///
/// # Panics
///
/// Panics if `b == 0`.
///
/// ```
/// use spotlight_conv::factor::ceil_div;
/// assert_eq!(ceil_div(10, 3), 4);
/// assert_eq!(ceil_div(9, 3), 3);
/// ```
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    assert!(b > 0, "division by zero");
    a.div_ceil(b)
}

/// Returns the divisor of `n` closest to `target` (ties resolved downward).
///
/// Used to snap continuous search proposals onto the legal (ordinal) tile
/// grid.
///
/// ```
/// use spotlight_conv::factor::nearest_divisor;
/// assert_eq!(nearest_divisor(12, 5), 4);
/// assert_eq!(nearest_divisor(12, 100), 12);
/// ```
pub fn nearest_divisor(n: u64, target: u64) -> u64 {
    divisors(n)
        .into_iter()
        .min_by_key(|&d| {
            let dist = d.abs_diff(target);
            (dist, d) // prefer the smaller divisor on ties
        })
        .expect("n > 0 always has divisors")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn divisors_of_prime() {
        assert_eq!(divisors(13), vec![1, 13]);
    }

    #[test]
    fn divisors_of_one() {
        assert_eq!(divisors(1), vec![1]);
    }

    /// Trial division over every candidate: the oracle for the walk.
    fn naive_divisors(n: u64) -> Vec<u64> {
        (1..=n).filter(|&d| n.is_multiple_of(d)).collect()
    }

    #[test]
    fn divisors_spill_past_the_inline_capacity() {
        // 7560 is the first integer with 64 divisors and 10080 the first
        // with more; 720720 has 240 and spills well past the buffer.
        for (n, count) in [(7560, 64), (10080, 72), (720_720, 240)] {
            let ds = Divisors::of(n);
            assert_eq!(ds.len(), count, "n={n}");
            assert_eq!(&*ds, naive_divisors(n).as_slice(), "n={n}");
            assert_eq!(divisors(n), naive_divisors(n), "n={n}");
        }
        assert!((1..10_080u64).all(|n| Divisors::of(n).len() <= INLINE_DIVISORS));
    }

    #[test]
    fn chain_count_matches_enumeration_small() {
        for n in 1..=64u64 {
            assert_eq!(
                divisor_chain_count(n, 3),
                tiling_chains(n).len() as u64,
                "mismatch at n={n}"
            );
        }
    }

    #[test]
    fn binomial_symmetry() {
        for n in 0..20u64 {
            for k in 0..=n {
                assert_eq!(binomial(n, k), binomial(n, n - k));
            }
        }
    }

    #[test]
    fn nearest_divisor_is_exact_when_target_divides() {
        assert_eq!(nearest_divisor(24, 6), 6);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(5, 0), 5);
        assert_eq!(gcd(7, 13), 1);
    }

    proptest! {
        #[test]
        fn divisors_divide(n in 1u64..10_000) {
            for d in divisors(n) {
                prop_assert_eq!(n % d, 0);
            }
        }

        #[test]
        fn divisors_match_trial_division(n in 1u64..20_000) {
            prop_assert_eq!(divisors(n), naive_divisors(n));
        }

        #[test]
        fn divisors_sorted_and_unique(n in 1u64..10_000) {
            let ds = divisors(n);
            prop_assert!(ds.windows(2).all(|w| w[0] < w[1]));
        }

        #[test]
        fn divisor_count_matches_list(n in 1u64..5_000) {
            prop_assert_eq!(divisor_count(n), divisors(n).len() as u64);
        }

        #[test]
        fn factorization_reconstructs(n in 1u64..100_000) {
            let prod: u64 = prime_factorization(n)
                .into_iter()
                .map(|(p, e)| p.pow(e))
                .product();
            prop_assert_eq!(prod, n);
        }

        #[test]
        fn chains_are_chains(n in 1u64..512) {
            for (t0, t1, t2) in tiling_chains(n) {
                prop_assert_eq!(t0, n);
                prop_assert_eq!(t0 % t1, 0);
                prop_assert_eq!(t1 % t2, 0);
            }
        }

        #[test]
        fn nearest_divisor_divides(n in 1u64..10_000, t in 0u64..20_000) {
            prop_assert_eq!(n % nearest_divisor(n, t), 0);
        }

        #[test]
        fn ceil_div_bounds(a in 0u64..1_000_000, b in 1u64..1_000) {
            let q = ceil_div(a, b);
            prop_assert!(q * b >= a);
            prop_assert!(q == 0 || (q - 1) * b < a);
        }
    }
}
