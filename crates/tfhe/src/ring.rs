//! Single-modulus negacyclic ring used by TFHE.
//!
//! TFHE works over `Z_q[X]/(X^N + 1)` with a *prime* `q = p` chosen as
//! the NTT-friendly prime closest to `2^32` — the paper's FFT→NTT
//! substitution (§II-B: "it is possible to substitute FFT with NTT by
//! selecting a prime modulus p, which satisfies p ≡ 1 mod 2N and is
//! chosen to be the closest prime to q"). All TFHE arithmetic here is
//! exact modular arithmetic; the FFT engine exists as the lossy baseline
//! Trinity's design avoids.

use std::sync::Arc;

use fhe_math::{Modulus, NttTable};

/// Shared ring state: the modulus, degree and NTT tables.
#[derive(Debug, Clone)]
pub struct TfheRing {
    modulus: Modulus,
    table: Arc<NttTable>,
    n: usize,
}

impl TfheRing {
    /// Builds the ring for degree `n` with the prime closest to
    /// `2^target_bits` (the paper's choice is `target_bits = 32`).
    pub fn new(n: usize, target_bits: u32) -> Self {
        let p = fhe_math::prime::prime_near(1u64 << target_bits, n);
        let modulus = Modulus::new(p).expect("prime in range");
        let table = Arc::new(NttTable::new(modulus, n));
        Self { modulus, table, n }
    }

    /// Ring degree `N`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The coefficient modulus.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// The modulus value `p`.
    #[inline]
    pub fn q(&self) -> u64 {
        self.modulus.value()
    }

    /// The NTT tables.
    #[inline]
    pub fn table(&self) -> &Arc<NttTable> {
        &self.table
    }

    /// Allocates a zero polynomial.
    pub fn zero_poly(&self) -> Vec<u64> {
        vec![0u64; self.n]
    }

    /// Lifts signed coefficients into the ring.
    pub fn poly_from_signed(&self, coeffs: &[i64]) -> Vec<u64> {
        assert_eq!(coeffs.len(), self.n);
        coeffs.iter().map(|&c| self.modulus.from_i64(c)).collect()
    }

    /// `a += b` coefficient-wise.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn add_assign(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len(), "add_assign operand length mismatch");
        for (x, &y) in a.iter_mut().zip(b) {
            *x = self.modulus.add(*x, y);
        }
    }

    /// `a -= b` coefficient-wise.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn sub_assign(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len(), "sub_assign operand length mismatch");
        for (x, &y) in a.iter_mut().zip(b) {
            *x = self.modulus.sub(*x, y);
        }
    }

    /// Negates coefficient-wise.
    pub fn neg_assign(&self, a: &mut [u64]) {
        for x in a.iter_mut() {
            *x = self.modulus.neg(*x);
        }
    }

    /// Returns `a * X^k` (negacyclic rotation; any integer `k`).
    pub fn mul_monomial(&self, a: &[u64], k: i64) -> Vec<u64> {
        let mut out = self.zero_poly();
        fhe_math::poly::mul_monomial_row(&self.modulus, a, k, &mut out);
        out
    }

    /// Writes `a * X^k - a` into `out` in one pass — the CMUX operand
    /// of blind rotation (Algorithm 2 line 5), with no rotated
    /// temporary: [`fhe_math::poly::mul_monomial_row`]'s index
    /// arithmetic with the subtraction folded in.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != a.len()`.
    pub(crate) fn monomial_sub_into(&self, a: &[u64], k: i64, out: &mut [u64]) {
        let n = a.len();
        assert_eq!(out.len(), n, "monomial_sub_into operand length mismatch");
        let k = k.rem_euclid(2 * n as i64) as usize;
        // X^n = -1: a shift by k >= n is a shift by k - n with signs flipped.
        let (shift, flip) = if k < n { (k, false) } else { (k - n, true) };
        let (wrapped, kept) = out.split_at_mut(shift);
        self.signed_sub(kept, &a[..n - shift], &a[shift..], flip);
        self.signed_sub(wrapped, &a[n - shift..], &a[..shift], !flip);
    }

    /// `out = x - y`, or `-x - y` when `negate`.
    fn signed_sub(&self, out: &mut [u64], x: &[u64], y: &[u64], negate: bool) {
        let q = &self.modulus;
        if negate {
            for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                *o = q.neg(q.add(x, y));
            }
        } else {
            for ((o, &x), &y) in out.iter_mut().zip(x).zip(y) {
                *o = q.sub(x, y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_prime_is_near_2_32() {
        for n in [1024usize, 2048] {
            let ring = TfheRing::new(n, 32);
            let dist = ring.q().abs_diff(1 << 32);
            assert!((dist as f64) < 2e6, "prime too far: {}", ring.q());
            assert_eq!(ring.q() % (2 * n as u64), 1);
        }
    }

    #[test]
    fn monomial_rotation_negacyclic() {
        let ring = TfheRing::new(1024, 32);
        let mut a = ring.zero_poly();
        a[0] = 7;
        let b = ring.mul_monomial(&a, 1024); // X^N = -1
        assert_eq!(b[0], ring.q() - 7);
        let c = ring.mul_monomial(&a, 2048); // X^2N = 1
        assert_eq!(c[0], 7);
        let d = ring.mul_monomial(&a, -1); // X^{-1}: coeff 0 -> -(coeff N-1)
        assert_eq!(d[1023], ring.q() - 7);
    }

    #[test]
    fn add_sub_roundtrip() {
        let ring = TfheRing::new(1024, 32);
        let a: Vec<u64> = (0..1024).map(|i| (i * 31) as u64 % ring.q()).collect();
        let b: Vec<u64> = (0..1024).map(|i| (i * 17 + 5) as u64 % ring.q()).collect();
        let mut c = a.clone();
        ring.add_assign(&mut c, &b);
        ring.sub_assign(&mut c, &b);
        assert_eq!(a, c);
    }

    #[test]
    #[should_panic(expected = "add_assign operand length mismatch")]
    fn add_assign_rejects_short_operand() {
        let ring = TfheRing::new(1024, 32);
        // A zip would stop at the short operand and leave the tail.
        ring.add_assign(&mut ring.zero_poly(), &[1; 1023]);
    }

    #[test]
    #[should_panic(expected = "sub_assign operand length mismatch")]
    fn sub_assign_rejects_short_operand() {
        let ring = TfheRing::new(1024, 32);
        ring.sub_assign(&mut ring.zero_poly(), &[1; 1023]);
    }

    #[test]
    fn monomial_sub_matches_rotate_then_subtract() {
        let ring = TfheRing::new(1024, 32);
        let q = ring.q();
        let mut a: Vec<u64> = (0..1024u64).map(|i| i * 0x9e37_79b9 % q).collect();
        // Zeros and q - 1 exercise both ends of the negation.
        (a[0], a[5], a[1023]) = (0, q - 1, 0);
        for k in [0i64, 1, 5, 1023, 1024, 1025, 2047, 2048, -1, -1030] {
            let mut want = ring.mul_monomial(&a, k);
            ring.sub_assign(&mut want, &a);
            let mut got = vec![u64::MAX; 1024];
            ring.monomial_sub_into(&a, k, &mut got);
            assert_eq!(got, want, "k = {k}");
        }
    }
}
