//! Modular arithmetic over word-sized prime moduli.
//!
//! All FHE arithmetic in this workspace runs over primes `p < 2^62`, which
//! leaves two bits of slack for lazy accumulation in hot loops. Reduction
//! uses 128-bit Barrett reduction with a precomputed `floor(2^128 / p)`
//! ratio (the same approach as SEAL), plus Shoup multiplication for
//! hot-path multiplications by precomputed constants such as NTT twiddles.
//!
//! Alongside the canonical operations (`add`/`sub`/`mul`/... over
//! `[0, p)`) there is a `*_lazy` family working on the redundant window
//! `[0, 2p)`: `add_lazy`, `sub_lazy`, `mul_lazy`, `reduce_u128_lazy`
//! and the folding pass `reduce_2p`. These are the
//! scalar primitives of cross-kernel lazy residue chains, where
//! canonicalisation is deferred to ciphertext boundaries the way
//! hardware pipelines keep operands in redundant form until memory
//! writeback.

/// A word-sized modulus with Barrett reduction precomputation.
///
/// # Examples
///
/// ```
/// use fhe_math::Modulus;
/// let m = Modulus::new(65537).unwrap();
/// assert_eq!(m.mul(65536, 65536), 1); // (-1)^2 = 1 mod 65537
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    p: u64,
    /// floor(2^128 / p), high word.
    ratio_hi: u64,
    /// floor(2^128 / p), low word.
    ratio_lo: u64,
}

/// Error returned when constructing a [`Modulus`] from an unsupported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidModulusError(pub u64);

impl std::fmt::Display for InvalidModulusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "modulus {} is not in range [2, 2^62)", self.0)
    }
}

impl std::error::Error for InvalidModulusError {}

impl Modulus {
    /// Maximum supported modulus value (exclusive): `2^62`.
    pub const MAX: u64 = 1 << 62;

    /// Creates a new modulus.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidModulusError`] if `p < 2` or `p >= 2^62`.
    pub fn new(p: u64) -> Result<Self, InvalidModulusError> {
        if !(2..Self::MAX).contains(&p) {
            return Err(InvalidModulusError(p));
        }
        // Compute floor(2^128 / p) via long division of 2^128 by p.
        let high = u128::MAX / p as u128; // floor((2^128 - 1)/p)
                                          // 2^128 = (2^128 - 1) + 1; floor(2^128/p) differs from high only
                                          // when p divides 2^128 exactly, impossible for p > 1 odd; for even
                                          // p a power of two it matters, handle generically:
        let rem = u128::MAX % p as u128;
        let ratio = if rem == p as u128 - 1 { high + 1 } else { high };
        Ok(Self {
            p,
            ratio_hi: (ratio >> 64) as u64,
            ratio_lo: ratio as u64,
        })
    }

    /// The modulus value.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.p
    }

    /// The Barrett constant `floor(2^128 / p)` (a backend deriving a
    /// narrower one shifts this instead of dividing again).
    #[inline]
    pub(crate) const fn barrett_ratio(&self) -> u128 {
        (self.ratio_hi as u128) << 64 | self.ratio_lo as u128
    }

    /// Number of significant bits in the modulus.
    #[inline]
    pub const fn bits(&self) -> u32 {
        64 - self.p.leading_zeros()
    }

    /// Reduces an arbitrary u64 into `[0, p)`.
    #[inline]
    #[must_use]
    pub fn reduce(&self, a: u64) -> u64 {
        if a < self.p {
            a
        } else {
            a % self.p
        }
    }

    /// Reduces a u128 into `[0, p)` using Barrett reduction.
    ///
    /// Delegates to [`Self::reduce_u128_lazy`] plus the canonicalising
    /// subtraction, the same split as [`Self::mul_shoup`] /
    /// [`Self::mul_shoup_lazy`].
    #[inline]
    #[must_use]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        let r = self.reduce_u128_lazy(a);
        if r >= self.p {
            r - self.p
        } else {
            r
        }
    }

    /// Reduces a u128 into the lazy window `[0, 2p)`: Barrett reduction
    /// with one conditional subtraction.
    ///
    /// This is the accumulator primitive of lazy kernel chains — inner
    /// products and pointwise multiplies that keep their running values
    /// in `[0, 2p)` and canonicalise once at a ciphertext boundary.
    ///
    /// `[0, 2p)` is the *contract*. Over the range the multiply-accumulate
    /// feeds it, `a <= 4p^2 + 2p` (operands in `[0, 2p)`), the result is
    /// in fact the canonical residue `a mod p`: the partial sums below
    /// are terms of `a * ratio / 2^64 < (a / p) * 2^64 < 2^128`, so none
    /// wraps and `q = floor(a * ratio / 2^128)` exactly; with
    /// `ratio > 2^128 / p - 1` and `a < 2^127`,
    /// `a/p - 1/2 < a * ratio / 2^128 <= a/p`, so `q` is `floor(a/p)`
    /// or one less, the raw remainder is below `2p`, and the one
    /// subtraction canonicalises it
    /// (`tests::reduce_u128_lazy_is_canonical_over_the_mac_range`). For
    /// larger `a` the estimate can fall short by two and only the
    /// `[0, 2p)` contract holds.
    #[inline]
    #[must_use]
    pub fn reduce_u128_lazy(&self, a: u128) -> u64 {
        // Barrett: q = floor(a * ratio / 2^128), r = a - q*p.
        // q = floor((a_hi*2^64 + a_lo) * (r_hi*2^64 + r_lo) / 2^128)
        //   = a_hi*r_hi + floor((a_hi*r_lo + a_lo*r_hi + carry_stuff)/2^64)
        let a_lo = a as u64;
        let a_hi = (a >> 64) as u64;
        let lo_hi = ((a_lo as u128 * self.ratio_lo as u128) >> 64) as u64;
        let mid1 = a_lo as u128 * self.ratio_hi as u128;
        let mid2 = a_hi as u128 * self.ratio_lo as u128;
        let mid = mid1.wrapping_add(mid2).wrapping_add(lo_hi as u128);
        let q = (a_hi as u128 * self.ratio_hi as u128).wrapping_add(mid >> 64);
        let mut r = (a as u64).wrapping_sub((q as u64).wrapping_mul(self.p));
        // The estimate is short by at most 2 (raw r < 3p), so one
        // correction lands in the lazy window — and by at most 1 over
        // the MAC range, where it lands on the canonical residue (see
        // the rustdoc).
        if r >= self.p {
            r = r.wrapping_sub(self.p);
        }
        crate::debug_assert_domain!(scalar_within_2p: self, "reduce_u128_lazy (result)", r);
        r
    }

    /// Folds a lazy representative in `[0, 2p)` back to canonical
    /// `[0, p)` — the deferred canonicalisation pass of lazy chains.
    #[inline]
    #[must_use]
    pub fn reduce_2p(&self, a: u64) -> u64 {
        crate::debug_assert_domain!(scalar_within_2p: self, "reduce_2p", a);
        if a >= self.p {
            a - self.p
        } else {
            a
        }
    }

    /// `d + p` when `d`, read as an `i64`, is negative, else `d`: the
    /// correction of [`Self::add`] and [`Self::sub`], a mask from the
    /// sign bit instead of a branch. With `p < 2^62`, every difference
    /// of two words below `2^62` is negative exactly when it wrapped.
    #[inline]
    fn add_p_if_negative(&self, d: u64) -> u64 {
        d.wrapping_add(self.p & ((d as i64 >> 63) as u64))
    }

    /// Modular addition. Inputs must already be in `[0, p)`.
    ///
    /// Branch-free, as are [`Self::sub`] and [`Self::neg`]: over
    /// ciphertext residues, which look uniformly random, a per-word
    /// branch on the value is mispredicted half the time, and a select
    /// lets every loop over canonical residues compile to straight-line
    /// (vectorisable) code. `a + b - p` wraps exactly when `a + b < p`,
    /// and the sign mask adds `p` back.
    #[inline]
    #[must_use]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        crate::debug_assert_domain!(scalar_canonical: self, "add", a, b);
        self.add_p_if_negative((a + b).wrapping_sub(self.p))
    }

    /// Modular subtraction. Inputs must already be in `[0, p)`.
    ///
    /// Branch-free (see [`Self::add`]): `a - b` wraps exactly when
    /// `a < b`, and the sign mask adds `p` back.
    #[inline]
    #[must_use]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        crate::debug_assert_domain!(scalar_canonical: self, "sub", a, b);
        self.add_p_if_negative(a.wrapping_sub(b))
    }

    /// Modular negation. Input must be in `[0, p)`.
    ///
    /// Branch-free (see [`Self::add`]): `p - a`, masked to `0` when
    /// `a = 0`.
    #[inline]
    #[must_use]
    pub fn neg(&self, a: u64) -> u64 {
        crate::debug_assert_domain!(scalar_canonical: self, "neg", a);
        self.p.wrapping_sub(a) & u64::from(a != 0).wrapping_neg()
    }

    /// Lazy addition: operands and result are `[0, 2p)` representatives.
    ///
    /// One conditional subtraction at `2p` instead of a full reduction;
    /// canonical inputs are accepted (the canonical range is a subset of
    /// the lazy window).
    #[inline]
    #[must_use]
    pub fn add_lazy(&self, a: u64, b: u64) -> u64 {
        crate::debug_assert_domain!(scalar_within_2p: self, "add_lazy", a, b);
        let s = a + b;
        let two_p = 2 * self.p;
        if s >= two_p {
            s - two_p
        } else {
            s
        }
    }

    /// Lazy subtraction: operands and result are `[0, 2p)`
    /// representatives (`a - b ≡ a + 2p - b`).
    #[inline]
    #[must_use]
    pub fn sub_lazy(&self, a: u64, b: u64) -> u64 {
        crate::debug_assert_domain!(scalar_within_2p: self, "sub_lazy", a, b);
        let two_p = 2 * self.p;
        let s = a + two_p - b;
        if s >= two_p {
            s - two_p
        } else {
            s
        }
    }

    /// Modular multiplication via Barrett reduction.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        crate::debug_assert_domain!(scalar_canonical: self, "mul", a, b);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Lazy multiplication: operands in `[0, 2p)`, result in `[0, 2p)`.
    ///
    /// The product of two lazy representatives is below `4p^2 < 2^126`,
    /// so the Barrett reduction is exact; only the final canonicalising
    /// subtraction is skipped.
    #[inline]
    #[must_use]
    pub fn mul_lazy(&self, a: u64, b: u64) -> u64 {
        crate::debug_assert_domain!(scalar_within_2p: self, "mul_lazy", a, b);
        self.reduce_u128_lazy(a as u128 * b as u128)
    }

    /// Fused multiply-add: `a*b + c mod p`.
    #[inline]
    #[must_use]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Precomputes the Shoup representation of a constant multiplier `w`:
    /// `floor(w * 2^64 / p)`.
    #[inline]
    #[must_use]
    pub fn shoup(&self, w: u64) -> u64 {
        crate::debug_assert_domain!(scalar_canonical: self, "shoup", w);
        (((w as u128) << 64) / self.p as u128) as u64
    }

    /// Shoup multiplication by a precomputed constant: `a * w mod p` where
    /// `w_shoup = self.shoup(w)`. Roughly twice as fast as Barrett since it
    /// needs a single high multiply.
    #[inline]
    #[must_use]
    pub fn mul_shoup(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        crate::debug_assert_domain!(scalar_canonical: self, "mul_shoup", a);
        let r = self.mul_shoup_lazy(a, w, w_shoup);
        if r >= self.p {
            r - self.p
        } else {
            r
        }
    }

    /// Lazy Shoup multiplication: returns `a * w mod p` as a representative
    /// in `[0, 2p)`, skipping the final conditional subtraction.
    ///
    /// Correct for **any** `a: u64` (not just canonical residues): with
    /// `w_shoup = floor(w * 2^64 / p)` and `q = floor(a * w_shoup / 2^64)`,
    /// the remainder `a*w - q*p` equals `(c*p + a*b) / 2^64` for some
    /// `c < 2^64` and `b < p`, hence is `< 2p`. This is the butterfly
    /// multiplier of the Harvey lazy-reduction NTT, where operands stay in
    /// `[0, 4p)` between stages.
    // trinity-lint: allow(missing-domain-assert): correct for ANY u64 input
    // (see the doc proof) — the [0, 4p) NTT butterflies feed it operands
    // outside the [0, 2p) window on purpose.
    #[inline]
    #[must_use]
    pub fn mul_shoup_lazy(&self, a: u64, w: u64, w_shoup: u64) -> u64 {
        let q = ((a as u128 * w_shoup as u128) >> 64) as u64;
        a.wrapping_mul(w).wrapping_sub(q.wrapping_mul(self.p))
    }

    /// Modular exponentiation by squaring.
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64 % self.p;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse, if it exists.
    ///
    /// Uses the extended Euclidean algorithm so it is correct for
    /// non-prime moduli as well (returns `None` when `gcd(a, p) != 1`).
    pub fn inv(&self, a: u64) -> Option<u64> {
        let a = self.reduce(a);
        if a == 0 {
            return None;
        }
        let (mut t, mut new_t): (i128, i128) = (0, 1);
        let (mut r, mut new_r): (i128, i128) = (self.p as i128, a as i128);
        while new_r != 0 {
            let quotient = r / new_r;
            (t, new_t) = (new_t, t - quotient * new_t);
            (r, new_r) = (new_r, r - quotient * new_r);
        }
        if r > 1 {
            return None;
        }
        let t = if t < 0 { t + self.p as i128 } else { t };
        Some(t as u64)
    }

    /// Maps a signed integer to its representative in `[0, p)`.
    #[inline]
    pub fn from_i64(&self, a: i64) -> u64 {
        if a >= 0 {
            self.reduce(a as u64)
        } else {
            let m = self.reduce((-(a as i128)) as u64);
            self.neg(m)
        }
    }

    /// Maps a representative in `[0, p)` to the centered range
    /// `[-p/2, p/2)`.
    #[inline]
    pub fn to_centered(&self, a: u64) -> i64 {
        debug_assert!(a < self.p);
        if a > self.p / 2 {
            -((self.p - a) as i64)
        } else {
            a as i64
        }
    }
}

impl std::fmt::Display for Modulus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_out_of_range() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(1 << 62).is_err());
        assert!(Modulus::new((1 << 62) - 1).is_ok());
        assert!(Modulus::new(2).is_ok());
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let m = Modulus::new(97).unwrap();
        for a in 0..97u64 {
            for b in 0..97u64 {
                let s = m.add(a, b);
                assert_eq!(s, (a + b) % 97);
                assert_eq!(m.sub(s, b), a);
            }
            assert_eq!(m.add(a, m.neg(a)), 0);
        }
    }

    /// The branchy forms `add`, `sub` and `neg` had before they went
    /// branch-free — the oracle the shipped ones must equal, word for
    /// word. Wrapping where the old `a + p - b` / `p - a` would
    /// overflow on a non-canonical operand, as release builds did.
    fn branchy_add(p: u64, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= p {
            s - p
        } else {
            s
        }
    }

    fn branchy_sub(p: u64, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            (a + p).wrapping_sub(b)
        }
    }

    fn branchy_neg(p: u64, a: u64) -> u64 {
        if a == 0 {
            0
        } else {
            p.wrapping_sub(a)
        }
    }

    /// 2, 3, a 32-bit, a 50-bit and the largest prime below `2^62`.
    fn branch_free_primes() -> [Modulus; 5] {
        let below = |bits: u32| {
            (1..)
                .map(|i| (1u64 << bits) - i)
                .find(|&c| crate::prime::is_prime(c))
                .unwrap()
        };
        [2, 3, below(32), below(50), below(62)].map(|p| Modulus::new(p).unwrap())
    }

    /// The shipped `add`, `sub` and `neg` on the canonical edges —
    /// `0`, `p - 1`, `a = b` and `a + b = p` — and, through the bare
    /// formulas they are built from, on non-canonical words up to
    /// `2^62 - 1` (the methods' debug assertions reject those).
    #[test]
    fn branch_free_add_sub_neg_match_the_branchy_forms_on_the_edges() {
        for m in branch_free_primes() {
            let p = m.value();
            let mut words = vec![0, 1, p / 2, p - 1];
            words.retain(|&x| x < p);
            for &a in &words {
                for b in words.iter().copied().chain([a, (p - a) % p]) {
                    assert_eq!(m.add(a, b), branchy_add(p, a, b), "p={p} {a}+{b}");
                    assert_eq!(m.sub(a, b), branchy_sub(p, a, b), "p={p} {a}-{b}");
                }
                assert_eq!(m.neg(a), branchy_neg(p, a), "p={p} -{a}");
            }
            let mut wide = vec![0, 1, p - 1, p, p + 1, 2 * p - 1, Modulus::MAX - 1];
            wide.retain(|&x| x < Modulus::MAX);
            for &a in &wide {
                for &b in &wide {
                    let add = m.add_p_if_negative((a + b).wrapping_sub(p));
                    assert_eq!(add, branchy_add(p, a, b), "p={p} {a}+{b}");
                    let sub = m.add_p_if_negative(a.wrapping_sub(b));
                    assert_eq!(sub, branchy_sub(p, a, b), "p={p} {a}-{b}");
                }
                let neg = p.wrapping_sub(a) & u64::from(a != 0).wrapping_neg();
                assert_eq!(neg, branchy_neg(p, a), "p={p} -{a}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random canonical words under every prime of
        /// [`branch_free_primes`].
        #[test]
        fn branch_free_add_sub_neg_match_the_branchy_forms(
            a in proptest::prelude::any::<u64>(),
            b in proptest::prelude::any::<u64>(),
        ) {
            for m in branch_free_primes() {
                let p = m.value();
                let (a, b) = (a % p, b % p);
                proptest::prop_assert_eq!(m.add(a, b), branchy_add(p, a, b));
                proptest::prop_assert_eq!(m.sub(a, b), branchy_sub(p, a, b));
                proptest::prop_assert_eq!(m.neg(a), branchy_neg(p, a));
            }
        }
    }

    /// Branch-free does not mean unchecked: a non-canonical operand
    /// still trips the domain assertion.
    #[test]
    #[should_panic(expected = "sub: operand outside the canonical [0, p) range")]
    #[cfg(debug_assertions)]
    fn branch_free_sub_still_asserts_canonical_operands() {
        let m = Modulus::new(97).unwrap();
        let _ = m.sub(3, 97);
    }

    #[test]
    fn mul_matches_naive_small() {
        let m = Modulus::new(97).unwrap();
        for a in 0..97u64 {
            for b in 0..97u64 {
                assert_eq!(m.mul(a, b), a * b % 97);
            }
        }
    }

    #[test]
    fn mul_matches_naive_large() {
        let p = (1u64 << 61) - 1; // Mersenne prime 2^61 - 1
        let m = Modulus::new(p).unwrap();
        let pairs = [
            (p - 1, p - 1),
            (p - 1, 2),
            (123456789012345678 % p, 987654321098765432 % p),
            (0, p - 1),
            (1, p - 1),
        ];
        for (a, b) in pairs {
            let expect = ((a as u128 * b as u128) % p as u128) as u64;
            assert_eq!(m.mul(a, b), expect);
        }
    }

    #[test]
    fn reduce_u128_extremes() {
        let p = 4611686018427387847u64; // prime close to 2^62
        let m = Modulus::new(p).unwrap();
        assert_eq!(m.reduce_u128(u128::MAX), (u128::MAX % p as u128) as u64);
        assert_eq!(m.reduce_u128(0), 0);
        assert_eq!(m.reduce_u128(p as u128), 0);
    }

    #[test]
    fn shoup_matches_barrett() {
        let p = 1152921504606846883u64; // prime near 2^60
        let m = Modulus::new(p).unwrap();
        let w = 0x123456789abcdefu64 % p;
        let ws = m.shoup(w);
        let mut a = 1u64;
        for _ in 0..1000 {
            a = a
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407)
                % p;
            assert_eq!(m.mul_shoup(a, w, ws), m.mul(a, w));
        }
    }

    #[test]
    fn mul_shoup_lazy_stays_below_2p() {
        // The lazy product must be a [0, 2p) representative of a*w mod p
        // for ANY u64 input a — including the [0, 4p) operands the lazy
        // NTT butterflies feed it.
        let p = (1u64 << 61) - 1;
        let m = Modulus::new(p).unwrap();
        let w = 0x0123_4567_89ab_cdefu64 % p;
        let ws = m.shoup(w);
        let samples = [
            0u64,
            1,
            p - 1,
            p,
            2 * p - 1,
            2 * p,
            4 * p - 1,
            u64::MAX,
            0xdead_beef_dead_beef,
        ];
        for a in samples {
            let r = m.mul_shoup_lazy(a, w, ws);
            assert!(r < 2 * p, "lazy result {r} not below 2p for a={a}");
            let expect = ((a as u128 % p as u128) * w as u128 % p as u128) as u64;
            assert_eq!(r % p, expect, "wrong residue for a={a}");
        }
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus::new(65537).unwrap();
        assert_eq!(m.pow(3, 65536), 1); // Fermat
        let inv3 = m.inv(3).unwrap();
        assert_eq!(m.mul(3, inv3), 1);
        assert_eq!(m.inv(0), None);
        // Non-prime modulus: inverse exists iff coprime.
        let m = Modulus::new(100).unwrap();
        assert_eq!(m.inv(2), None);
        let i = m.inv(3).unwrap();
        assert_eq!(m.mul(3, i), 1);
    }

    #[test]
    fn centered_representatives() {
        let m = Modulus::new(17).unwrap();
        assert_eq!(m.to_centered(0), 0);
        assert_eq!(m.to_centered(8), 8);
        assert_eq!(m.to_centered(9), -8);
        assert_eq!(m.to_centered(16), -1);
        assert_eq!(m.from_i64(-1), 16);
        assert_eq!(m.from_i64(-17), 0);
        assert_eq!(m.from_i64(-35), 16);
        for a in -40i64..40 {
            let r = m.from_i64(a);
            assert_eq!((a.rem_euclid(17)) as u64, r);
        }
    }

    #[test]
    fn lazy_helpers_stay_in_window_and_agree_mod_p() {
        // Every lazy primitive must return a [0, 2p) representative of
        // the canonical result, for all [0, 2p) operand combinations.
        let p = (1u64 << 61) - 1;
        let m = Modulus::new(p).unwrap();
        let samples = [0u64, 1, p / 2, p - 1, p, p + 1, 2 * p - 1];
        for &a in &samples {
            for &b in &samples {
                let (ca, cb) = (a % p, b % p);
                let s = m.add_lazy(a, b);
                assert!(s < 2 * p);
                assert_eq!(s % p, m.add(ca, cb));
                let d = m.sub_lazy(a, b);
                assert!(d < 2 * p);
                assert_eq!(d % p, m.sub(ca, cb));
                let prod = m.mul_lazy(a, b);
                assert!(prod < 2 * p);
                assert_eq!(prod % p, m.mul(ca, cb));
            }
            assert_eq!(m.reduce_2p(a), a % p);
        }
    }

    #[test]
    fn reduce_u128_lazy_extremes() {
        for p in [4611686018427387847u64, (1 << 61) - 1, 65537, 2] {
            let m = Modulus::new(p).unwrap();
            for a in [0u128, 1, p as u128, u128::MAX, (p as u128) << 64] {
                let r = m.reduce_u128_lazy(a);
                assert!(r < 2 * p, "p={p} a={a}: {r} not below 2p");
                assert_eq!(r % p, m.reduce_u128(a), "p={p} a={a}");
            }
        }
    }

    /// Both shipped multiply-accumulate bodies — the reference through
    /// `reduce_u128_lazy`, the wide one through its own Barrett step —
    /// are bit-identical only because the reference's word is the
    /// canonical residue over the MAC's whole range `x*y + acc` with
    /// `x, y, acc` in `[0, 2p)`, not merely some `[0, 2p)` representative.
    #[test]
    fn reduce_u128_lazy_is_canonical_over_the_mac_range() {
        let primes = [
            (1u64 << 20) - 3,
            (1 << 32) - 5,
            (1 << 36) - 5,
            (1 << 46) - 21,
            (1 << 50) - 27,
            (1 << 55) - 55,
            (1 << 60) - 93,
            4611686018427387847, // 62 bits
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state as u128 * bound as u128) >> 64) as u64
        };
        for p in primes {
            let m = Modulus::new(p).unwrap();
            let edges = [0, 1, p - 1, p, p + 1, 2 * p - 1];
            let check = |x: u64, y: u64, acc: u64| {
                let a = x as u128 * y as u128 + acc as u128;
                let want = (a % p as u128) as u64;
                assert_eq!(m.reduce_u128_lazy(a), want, "p={p} x={x} y={y} acc={acc}");
            };
            for x in edges {
                for y in edges {
                    for acc in edges {
                        check(x, y, acc);
                    }
                }
            }
            for _ in 0..20_000 {
                check(next(2 * p), next(2 * p), next(2 * p));
            }
        }
    }

    /// The lanes BConv pass sums `alpha <= 16` unreduced products
    /// `y * w` (`y < 2^62` a source residue, `w < p` a weight) and
    /// reduces once per output word; that is the reference's
    /// reduce-every-term result only if `reduce_u128` is exact over the
    /// whole range such sums reach.
    #[test]
    fn reduce_u128_exact_over_bconv_accumulator_range() {
        let primes = [
            (1u64 << 30) - 35,
            (1 << 36) - 5,
            (1 << 45) - 55,
            (1 << 50) - 27,
            (1 << 59) - 55,
            (1 << 61) - 1,
            4611686018427387847, // just below 2^62
        ];
        for p in primes {
            let m = Modulus::new(p).unwrap();
            let check = |a: u128| {
                assert_eq!(m.reduce_u128(a), (a % p as u128) as u64, "p={p} a={a}");
            };
            check(u128::MAX);
            for alpha in [1u128, 2, 6, 16] {
                for dy in 1..=3u64 {
                    for dw in 1..=3u64 {
                        let term = (Modulus::MAX - dy) as u128 * (p - dw) as u128;
                        // Every term at the top of its range, then the
                        // sums one term and one word short of it.
                        check(alpha * term);
                        check(alpha * term - 1);
                        check((alpha - 1) * term + (p - dw) as u128);
                    }
                }
            }
        }
    }

    #[test]
    fn mul_add_consistent() {
        let p = (1u64 << 50) - 27;
        let m = Modulus::new(p).unwrap();
        let (a, b, c) = (p - 1, p - 2, p - 3);
        assert_eq!(m.mul_add(a, b, c), m.add(m.mul(a, b), c));
    }
}
