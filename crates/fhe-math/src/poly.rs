//! RNS polynomials over `Z_Q[X]/(X^N + 1)`.
//!
//! An [`RnsPoly`] stores its residues as one **flat, contiguous**
//! `Vec<u64>` of `limbs * n` words in limb-major order — limb `i`
//! occupies `data[i*n .. (i+1)*n]`, exposed through [`RnsPoly::limb`] /
//! [`RnsPoly::limb_mut`] slice views. This mirrors how accelerator
//! scratchpads bank RNS residues (one row per limb, §IV-B) and keeps the
//! hot loops allocation-free and cache-linear, instead of chasing one
//! heap allocation per limb.
//!
//! The poly tracks whether it is in coefficient or evaluation (NTT)
//! representation — mirroring the paper's kernel taxonomy, where
//! `NTT`/`iNTT` convert between the two and `ModMul`/`ModAdd` act
//! pointwise in evaluation form.
//!
//! Every `RnsPoly` is **canonical at rest**: each residue is in
//! `[0, p)` for its limb at every public API boundary, and every method
//! here requires and preserves that (checked word by word under
//! `debug_assertions` by [`crate::debug_assert_domain!`]). The redundant
//! windows of the paper's pipelines live only inside one engine call:
//! the `[0, 4p)` window of the Harvey butterflies never escapes
//! [`crate::NttTable`], and the `[0, 2p)` window crosses kernels only on
//! flat buffers inside an engine (the [`crate::KernelBackend`]
//! `*_lazy_batch` kernels and [`ExitFold::Lazy2p`] transform exits),
//! which folds once per limb before it hands back an `RnsPoly`.

use std::sync::Arc;

use crate::galois::GaloisPerms;
use crate::kernel::{self, ExitFold};
use crate::modulus::Modulus;
use crate::ntt::NttTable;
use crate::rns::RnsBasis;
use crate::scratch::with_scratch;

/// The representation a polynomial's residues are currently in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Coefficient domain.
    Coeff,
    /// Evaluation (NTT) domain.
    Eval,
}

/// Borrowed per-limb NTT tables in backend-SPI form (the batched kernel
/// entry points take plain references). A free function — not a method
/// — so the returned borrows pin only the basis, leaving the flat data
/// buffer free for the `&mut` side of the batched call.
#[inline]
fn table_refs(basis: &RnsBasis) -> Vec<&NttTable> {
    basis.tables().iter().map(|t| t.as_ref()).collect()
}

/// An RNS polynomial: `basis.len()` limbs of `n` residues in one flat
/// contiguous buffer.
#[derive(Debug, Clone)]
pub struct RnsPoly {
    basis: Arc<RnsBasis>,
    /// Limb-major flat residues: limb `i` at `data[i*n .. (i+1)*n]`.
    data: Vec<u64>,
    repr: Representation,
}

impl RnsPoly {
    /// The zero polynomial in the given representation.
    pub fn zero(basis: Arc<RnsBasis>, repr: Representation) -> Self {
        let data = vec![0u64; basis.len() * basis.n()];
        Self { basis, data, repr }
    }

    /// Lifts small signed coefficients into every limb (coefficient form).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != basis.n()`.
    pub fn from_signed_coeffs(basis: Arc<RnsBasis>, coeffs: &[i64]) -> Self {
        assert_eq!(coeffs.len(), basis.n());
        let mut data = Vec::with_capacity(basis.len() * basis.n());
        for m in basis.moduli() {
            data.extend(coeffs.iter().map(|&c| m.from_i64(c)));
        }
        Self {
            basis,
            data,
            repr: Representation::Coeff,
        }
    }

    /// Wraps a precomputed flat residue buffer (`limbs * n` words,
    /// limb-major).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the basis; debug-asserts that
    /// every residue is canonical for its limb.
    pub fn from_flat(basis: Arc<RnsBasis>, data: Vec<u64>, repr: Representation) -> Self {
        assert_eq!(data.len(), basis.len() * basis.n());
        let poly = Self { basis, data, repr };
        poly.debug_assert_canonical("from_flat");
        poly
    }

    /// The RNS basis.
    #[inline]
    pub fn basis(&self) -> &Arc<RnsBasis> {
        &self.basis
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.basis.n()
    }

    /// Number of RNS limbs.
    #[inline]
    pub fn limbs(&self) -> usize {
        self.basis.len()
    }

    /// Current representation.
    #[inline]
    pub fn representation(&self) -> Representation {
        self.repr
    }

    /// Debug-assert guard at kernel entry: every word must be a
    /// canonical `[0, p)` residue for its limb. A thin wrapper over the
    /// workspace-wide [`crate::debug_assert_domain!`] form.
    #[inline]
    fn debug_assert_canonical(&self, kernel: &str) {
        crate::debug_assert_domain!(canonical: self, kernel);
    }

    /// Residues of limb `i` (a slice view into the flat buffer).
    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        let n = self.basis.n();
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable residues of limb `i`. Callers must leave canonical
    /// `[0, p)` residues behind.
    #[inline]
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        let n = self.basis.n();
        &mut self.data[i * n..(i + 1) * n]
    }

    /// The whole flat residue buffer (`limbs * n` words, limb-major).
    #[inline]
    pub fn flat(&self) -> &[u64] {
        &self.data
    }

    /// Mutable flat residue buffer. Callers must leave canonical
    /// `[0, p)` residues behind.
    #[inline]
    pub fn flat_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Consumes the polynomial, returning its flat buffer.
    #[inline]
    #[must_use]
    pub fn into_flat(self) -> Vec<u64> {
        self.data
    }

    /// Heap bytes owned by this polynomial's residue buffer (allocated
    /// capacity, not just the live length). The unit of account for
    /// key-cache eviction in the service layer: evaluation/galois keys
    /// are stacks of `RnsPoly` rows, and their measured size is the sum
    /// of these.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<u64>()
    }

    /// Panics unless `other` lives over the same primes: equal shape
    /// alone would let two bases of different primes combine into
    /// garbage. O(L) word compares, skipped for a shared basis.
    fn assert_same_basis(&self, other: &RnsPoly) {
        assert_eq!(self.basis.n(), other.basis.n(), "ring degree mismatch");
        assert_eq!(self.limbs(), other.limbs(), "limb count mismatch");
        assert!(
            Arc::ptr_eq(&self.basis, &other.basis)
                || self
                    .basis
                    .moduli()
                    .iter()
                    .zip(other.basis.moduli())
                    .all(|(a, b)| a.value() == b.value()),
            "RNS moduli mismatch"
        );
    }

    /// Converts to evaluation form (no-op if already there).
    pub fn to_eval(&mut self) {
        if self.repr == Representation::Eval {
            return;
        }
        self.debug_assert_canonical("to_eval");
        kernel::active().forward_batch(
            &table_refs(&self.basis),
            &mut self.data,
            ExitFold::Canonical,
        );
        self.repr = Representation::Eval;
    }

    /// Converts to coefficient form (no-op if already there).
    pub fn to_coeff(&mut self) {
        if self.repr == Representation::Coeff {
            return;
        }
        self.debug_assert_canonical("to_coeff");
        kernel::active().inverse_batch(
            &table_refs(&self.basis),
            &mut self.data,
            ExitFold::Canonical,
        );
        self.repr = Representation::Coeff;
    }

    /// Converts to evaluation form with the fully-reduced
    /// [`crate::NttTable::forward_strict`] (every butterfly
    /// canonicalises) — the strict-oracle transform. Requires and
    /// produces canonical residues.
    ///
    /// # Panics
    ///
    /// Panics if already in evaluation form.
    pub fn to_eval_strict(&mut self) {
        assert_eq!(self.repr, Representation::Coeff, "already in eval form");
        self.debug_assert_canonical("to_eval_strict");
        let n = self.basis.n();
        for (row, t) in self.data.chunks_exact_mut(n).zip(self.basis.tables()) {
            t.forward_strict(row);
        }
        self.repr = Representation::Eval;
    }

    /// Converts to coefficient form with the fully-reduced
    /// [`crate::NttTable::inverse_strict`] — the strict-oracle
    /// transform. Requires and produces canonical residues.
    ///
    /// # Panics
    ///
    /// Panics if already in coefficient form.
    pub fn to_coeff_strict(&mut self) {
        assert_eq!(self.repr, Representation::Eval, "already in coeff form");
        self.debug_assert_canonical("to_coeff_strict");
        let n = self.basis.n();
        for (row, t) in self.data.chunks_exact_mut(n).zip(self.basis.tables()) {
            t.inverse_strict(row);
        }
        self.repr = Representation::Coeff;
    }

    /// `self += other` (element-wise per limb; representations must match).
    ///
    /// # Panics
    ///
    /// Panics on basis or representation mismatch.
    pub fn add_assign(&mut self, other: &RnsPoly) {
        self.assert_same_basis(other);
        assert_eq!(self.repr, other.repr, "representation mismatch");
        self.debug_assert_canonical("add_assign");
        other.debug_assert_canonical("add_assign (rhs)");
        let n = self.basis.n();
        for ((row, orow), m) in self
            .data
            .chunks_exact_mut(n)
            .zip(other.data.chunks_exact(n))
            .zip(self.basis.moduli())
        {
            for (x, &y) in row.iter_mut().zip(orow) {
                *x = m.add(*x, y);
            }
        }
    }

    /// `self -= other`.
    ///
    /// # Panics
    ///
    /// Panics on basis or representation mismatch.
    pub fn sub_assign(&mut self, other: &RnsPoly) {
        self.assert_same_basis(other);
        assert_eq!(self.repr, other.repr, "representation mismatch");
        self.debug_assert_canonical("sub_assign");
        other.debug_assert_canonical("sub_assign (rhs)");
        let n = self.basis.n();
        for ((row, orow), m) in self
            .data
            .chunks_exact_mut(n)
            .zip(other.data.chunks_exact(n))
            .zip(self.basis.moduli())
        {
            for (x, &y) in row.iter_mut().zip(orow) {
                *x = m.sub(*x, y);
            }
        }
    }

    /// Negates in place.
    pub fn neg_assign(&mut self) {
        self.debug_assert_canonical("neg_assign");
        let n = self.basis.n();
        for (row, m) in self.data.chunks_exact_mut(n).zip(self.basis.moduli()) {
            for x in row.iter_mut() {
                *x = m.neg(*x);
            }
        }
    }

    /// `self *= other` pointwise (both must be in evaluation form).
    ///
    /// # Panics
    ///
    /// Panics on basis mismatch or if either operand is in coefficient
    /// form.
    pub fn mul_assign_pointwise(&mut self, other: &RnsPoly) {
        self.assert_same_basis(other);
        assert_eq!(self.repr, Representation::Eval, "lhs must be in eval form");
        assert_eq!(other.repr, Representation::Eval, "rhs must be in eval form");
        self.debug_assert_canonical("mul_assign_pointwise");
        other.debug_assert_canonical("mul_assign_pointwise (rhs)");
        let n = self.basis.n();
        for ((row, orow), m) in self
            .data
            .chunks_exact_mut(n)
            .zip(other.data.chunks_exact(n))
            .zip(self.basis.moduli())
        {
            for (x, &y) in row.iter_mut().zip(orow) {
                *x = m.mul(*x, y);
            }
        }
    }

    /// `self += a * b` pointwise (all three in evaluation form).
    ///
    /// # Panics
    ///
    /// Panics on basis or representation mismatch.
    pub fn mul_acc_pointwise(&mut self, a: &RnsPoly, b: &RnsPoly) {
        self.assert_same_basis(a);
        self.assert_same_basis(b);
        assert_eq!(self.repr, Representation::Eval);
        assert_eq!(a.repr, Representation::Eval);
        assert_eq!(b.repr, Representation::Eval);
        self.debug_assert_canonical("mul_acc_pointwise");
        a.debug_assert_canonical("mul_acc_pointwise (a)");
        b.debug_assert_canonical("mul_acc_pointwise (b)");
        let n = self.basis.n();
        for (((row, arow), brow), m) in self
            .data
            .chunks_exact_mut(n)
            .zip(a.data.chunks_exact(n))
            .zip(b.data.chunks_exact(n))
            .zip(self.basis.moduli())
        {
            for ((x, &ya), &yb) in row.iter_mut().zip(arow).zip(brow) {
                *x = m.reduce_u128(ya as u128 * yb as u128 + *x as u128);
            }
        }
    }

    /// Multiplies by a small signed scalar.
    pub fn mul_scalar_i64(&mut self, s: i64) {
        self.debug_assert_canonical("mul_scalar_i64");
        let n = self.basis.n();
        for (row, m) in self.data.chunks_exact_mut(n).zip(self.basis.moduli()) {
            let sv = m.from_i64(s);
            for x in row.iter_mut() {
                *x = m.mul(*x, sv);
            }
        }
    }

    /// Multiplies by per-limb scalar residues.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != self.limbs()`.
    pub fn mul_scalar_residues(&mut self, s: &[u64]) {
        assert_eq!(s.len(), self.limbs());
        self.debug_assert_canonical("mul_scalar_residues");
        let n = self.basis.n();
        for ((row, m), &sv) in self
            .data
            .chunks_exact_mut(n)
            .zip(self.basis.moduli())
            .zip(s)
        {
            let sv = m.reduce(sv);
            for x in row.iter_mut() {
                *x = m.mul(*x, sv);
            }
        }
    }

    /// Adds per-limb scalar residues to every word of the limb. In
    /// evaluation form this adds the constant polynomial, whose every
    /// word is that constant.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() != self.limbs()`.
    pub fn add_scalar_residues(&mut self, s: &[u64]) {
        assert_eq!(s.len(), self.limbs());
        self.debug_assert_canonical("add_scalar_residues");
        let n = self.basis.n();
        for ((row, m), &sv) in self
            .data
            .chunks_exact_mut(n)
            .zip(self.basis.moduli())
            .zip(s)
        {
            let sv = m.reduce(sv);
            for x in row.iter_mut() {
                *x = m.add(*x, sv);
            }
        }
    }

    /// Multiplies by the monomial `X^k` (negacyclic; `k` may be any
    /// integer, negative meaning `X^{-k} = -X^{2n-k}` handling included).
    ///
    /// Only valid in coefficient form — in hardware this is the Rotator's
    /// vector-rotate + negate datapath (§IV-D).
    ///
    /// # Panics
    ///
    /// Panics if in evaluation form.
    pub fn mul_monomial(&mut self, k: i64) {
        assert_eq!(
            self.repr,
            Representation::Coeff,
            "monomial multiplication requires coefficient form"
        );
        self.debug_assert_canonical("mul_monomial");
        let n = self.n();
        if k.rem_euclid(2 * n as i64) == 0 {
            return;
        }
        with_scratch(n, |out| {
            for (row, m) in self.data.chunks_exact_mut(n).zip(self.basis.moduli()) {
                mul_monomial_row(m, row, k, out);
                row.copy_from_slice(out);
            }
        });
    }

    /// Applies the automorphism `X -> X^g` (`g` odd).
    ///
    /// Works in either representation: index mapping in coefficient form
    /// (the paper's `Auto` kernel), slot permutation in evaluation form.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even.
    pub fn automorphism(&mut self, g: u64, perms: &GaloisPerms) {
        assert_eq!(g % 2, 1, "galois element must be odd");
        self.debug_assert_canonical("automorphism");
        let n = self.n();
        match self.repr {
            Representation::Coeff => {
                with_scratch(n, |out| {
                    for (row, m) in self.data.chunks_exact_mut(n).zip(self.basis.moduli()) {
                        for (j, &c) in row.iter().enumerate() {
                            let e = (j as u64 * g) % (2 * n as u64);
                            if e < n as u64 {
                                out[e as usize] = c;
                            } else {
                                out[(e - n as u64) as usize] = m.neg(c);
                            }
                        }
                        row.copy_from_slice(out);
                    }
                });
            }
            Representation::Eval => {
                let perm = perms.eval_permutation(g);
                crate::scratch::with_scratch_copy(&mut self.data, |src, dst| {
                    kernel::active().permute_batch(&perm, src, dst);
                });
            }
        }
    }

    /// Reconstructs centered coefficient values as `f64` (exact for small
    /// magnitudes). Test/diagnostic helper.
    ///
    /// # Panics
    ///
    /// Panics if in evaluation form.
    #[must_use]
    pub fn to_centered_f64(&self) -> Vec<f64> {
        assert_eq!(self.repr, Representation::Coeff);
        self.debug_assert_canonical("to_centered_f64");
        let n = self.n();
        let mut out = Vec::with_capacity(n);
        if self.limbs() == 1 {
            let m = self.basis.modulus(0);
            for &c in self.limb(0) {
                out.push(m.to_centered(c) as f64);
            }
            return out;
        }
        let mut residues = vec![0u64; self.limbs()];
        for c in 0..n {
            for (i, r) in residues.iter_mut().enumerate() {
                *r = self.data[i * n + c];
            }
            out.push(self.basis.crt_to_centered_f64(&residues));
        }
        out
    }
}

/// One row of the negacyclic monomial product: `dst = src * X^k` in
/// `Z_m[X]/(X^n + 1)`, `n = src.len()`, any integer `k` — under
/// [`RnsPoly::mul_monomial`] (per limb) and the TFHE ring (per GLWE
/// component).
///
/// # Panics
///
/// Panics if `dst.len() != src.len()`.
pub fn mul_monomial_row(m: &Modulus, src: &[u64], k: i64, dst: &mut [u64]) {
    let n = src.len();
    let k = k.rem_euclid(2 * n as i64) as usize;
    // X^n = -1: a shift by k >= n is a shift by k - n with signs flipped.
    let (shift, flip) = if k < n { (k, false) } else { (k - n, true) };
    let (head, tail) = src.split_at(n - shift);
    dst[shift..].copy_from_slice(head);
    dst[..shift].copy_from_slice(tail);
    let negated = if flip { shift..n } else { 0..shift };
    for x in &mut dst[negated] {
        *x = m.neg(*x);
    }
}

/// One row of SampleExtract: `dst[i]` is the coefficient of `s[i]` in
/// coefficient `idx` of the negacyclic product `src * s` over
/// `Z_m[X]/(X^n + 1)` — `src[idx - i]` for `i <= idx`,
/// `-src[n + idx - i]` above. The one index walk under the TFHE
/// `SampleExtract` (per GLWE mask component) and the CKKS → LWE
/// extraction of `fhe-convert` (over `-c1`).
///
/// # Panics
///
/// Panics if `idx >= src.len()` or `dst.len() != src.len()`.
pub fn sample_extract_row(m: &Modulus, src: &[u64], idx: usize, dst: &mut [u64]) {
    assert!(idx < src.len(), "sample-extract index must be below N");
    assert_eq!(dst.len(), src.len(), "extracted mask length must equal N");
    let (low, high) = dst.split_at_mut(idx + 1);
    for (d, &s) in low.iter_mut().zip(src[..=idx].iter().rev()) {
        *d = s;
    }
    for (d, &s) in high.iter_mut().zip(src[idx + 1..].iter().rev()) {
        *d = m.neg(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::galois::GaloisPerms;
    use crate::prime::ntt_primes;

    fn basis(n: usize, limbs: usize) -> Arc<RnsBasis> {
        Arc::new(RnsBasis::new(&ntt_primes(45, n, limbs), n))
    }

    #[test]
    fn add_sub_roundtrip() {
        let b = basis(16, 3);
        let a = RnsPoly::from_signed_coeffs(b.clone(), &[1i64; 16]);
        let mut c = RnsPoly::from_signed_coeffs(b, &(0..16).map(|i| i as i64).collect::<Vec<_>>());
        let orig = c.clone();
        c.add_assign(&a);
        c.sub_assign(&a);
        assert_eq!(c.flat(), orig.flat());
    }

    #[test]
    fn limb_views_partition_flat_buffer() {
        let b = basis(16, 3);
        let n = b.n();
        let mut p =
            RnsPoly::from_signed_coeffs(b, &(0..16).map(|i| i as i64 - 8).collect::<Vec<_>>());
        assert_eq!(p.flat().len(), 3 * n);
        for i in 0..3 {
            assert_eq!(p.limb(i), &p.flat()[i * n..(i + 1) * n]);
        }
        // limb_mut writes land in the flat buffer.
        p.limb_mut(1)[0] = 42;
        assert_eq!(p.flat()[n], 42);
    }

    #[test]
    // Schoolbook oracle: indexed so the negacyclic wrap k = i + j stays
    // visible.
    #[allow(clippy::needless_range_loop)]
    fn pointwise_mul_is_negacyclic_convolution() {
        let b = basis(32, 2);
        let x: Vec<i64> = (0..32).map(|i| (i as i64) - 16).collect();
        let y: Vec<i64> = (0..32).map(|i| 3 - (i as i64 % 7)).collect();
        let mut px = RnsPoly::from_signed_coeffs(b.clone(), &x);
        let mut py = RnsPoly::from_signed_coeffs(b.clone(), &y);
        px.to_eval();
        py.to_eval();
        px.mul_assign_pointwise(&py);
        px.to_coeff();
        // Oracle via schoolbook over i128.
        let n = 32usize;
        let mut exact = vec![0i128; n];
        for i in 0..n {
            for j in 0..n {
                let k = i + j;
                let p = x[i] as i128 * y[j] as i128;
                if k < n {
                    exact[k] += p;
                } else {
                    exact[k - n] -= p;
                }
            }
        }
        let got = px.to_centered_f64();
        for i in 0..n {
            assert_eq!(got[i] as i128, exact[i], "coeff {i}");
        }
    }

    #[test]
    fn monomial_multiplication_wraps_with_sign() {
        let b = basis(8, 1);
        let mut p = RnsPoly::from_signed_coeffs(b.clone(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        p.mul_monomial(3);
        let got = p.to_centered_f64();
        // X^3 * (1 + 2X + ... + 8X^7) = -6 -7X -8X^2 + 1X^3 + ... + 5X^7
        assert_eq!(got, vec![-6.0, -7.0, -8.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        // Multiplying by X^{2n} is identity; X^n is negation.
        let mut q = RnsPoly::from_signed_coeffs(b.clone(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        q.mul_monomial(16);
        assert_eq!(
            q.to_centered_f64(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        );
        let mut r = RnsPoly::from_signed_coeffs(b, &[1, 2, 3, 4, 5, 6, 7, 8]);
        r.mul_monomial(8);
        assert_eq!(
            r.to_centered_f64(),
            vec![-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, -8.0]
        );
    }

    #[test]
    fn automorphism_coeff_matches_eval() {
        let b = basis(64, 2);
        let perms = GaloisPerms::new(b.table(0).clone());
        let coeffs: Vec<i64> = (0..64).map(|i| (i * i % 23) as i64 - 11).collect();
        for g in [5u64, 25, 127, 3] {
            let mut via_coeff = RnsPoly::from_signed_coeffs(b.clone(), &coeffs);
            via_coeff.automorphism(g, &perms);

            let mut via_eval = RnsPoly::from_signed_coeffs(b.clone(), &coeffs);
            via_eval.to_eval();
            via_eval.automorphism(g, &perms);
            via_eval.to_coeff();

            assert_eq!(via_coeff.flat(), via_eval.flat(), "g={g}");
        }
    }

    #[test]
    fn automorphism_composition() {
        let b = basis(32, 1);
        let perms = GaloisPerms::new(b.table(0).clone());
        let coeffs: Vec<i64> = (0..32).map(|i| i as i64 + 1).collect();
        let mut p = RnsPoly::from_signed_coeffs(b.clone(), &coeffs);
        p.automorphism(5, &perms);
        p.automorphism(5, &perms);
        let mut q = RnsPoly::from_signed_coeffs(b, &coeffs);
        q.automorphism(25, &perms);
        assert_eq!(p.flat(), q.flat());
    }

    /// The one lazy encoding, on flat buffers: forward transform with
    /// a lazy exit, lazy multiply-accumulate, lazy add/sub, inverse with
    /// a lazy exit, one fold — bit-identical to the strict `RnsPoly`
    /// chain on the same inputs.
    #[test]
    fn lazy_poly_chain_matches_strict_after_canonicalize() {
        let b = basis(64, 3);
        let xs: Vec<i64> = (0..64).map(|i| (i * 7 % 37) as i64 - 18).collect();
        let ys: Vec<i64> = (0..64).map(|i| (i * 11 % 29) as i64 - 14).collect();

        let mut strict_x = RnsPoly::from_signed_coeffs(b.clone(), &xs);
        let mut strict_y = RnsPoly::from_signed_coeffs(b.clone(), &ys);
        strict_x.to_eval();
        strict_y.to_eval();
        let mut strict_acc = RnsPoly::zero(b.clone(), Representation::Eval);
        strict_acc.mul_acc_pointwise(&strict_x, &strict_y);
        strict_acc.mul_acc_pointwise(&strict_y, &strict_y);
        strict_acc.add_assign(&strict_x);
        strict_acc.sub_assign(&strict_y);
        strict_acc.to_coeff();

        let k = kernel::active();
        let (tables, moduli) = (table_refs(&b), b.moduli());
        let mut x = RnsPoly::from_signed_coeffs(b.clone(), &xs).into_flat();
        let mut y = RnsPoly::from_signed_coeffs(b.clone(), &ys).into_flat();
        k.forward_batch(&tables, &mut x, ExitFold::Lazy2p);
        k.forward_batch(&tables, &mut y, ExitFold::Lazy2p);
        let mut acc = vec![0u64; x.len()];
        k.mul_acc_lazy_batch(moduli, &mut acc, &x, &y);
        k.mul_acc_lazy_batch(moduli, &mut acc, &y, &y);
        k.add_lazy_batch(moduli, &mut acc, &x);
        k.sub_lazy_batch(moduli, &mut acc, &y);
        k.inverse_batch(&tables, &mut acc, ExitFold::Lazy2p);
        k.fold_2p_to_canonical_batch(moduli, &mut acc);

        assert_eq!(acc, strict_acc.flat());
    }

    /// Lazy add/sub over operands lifted to their high `[p, 2p)`
    /// representatives stay in the window and fold to the canonical
    /// `add_assign` / `sub_assign` words.
    #[test]
    fn lazy_add_sub_stay_in_window_and_agree_with_strict() {
        let b = basis(16, 2);
        let xs: Vec<i64> = (0..16).map(|i| i as i64 - 8).collect();
        let ys: Vec<i64> = (0..16).map(|i| 7 - (i as i64 % 5)).collect();
        let sx = RnsPoly::from_signed_coeffs(b.clone(), &xs);
        let sy = RnsPoly::from_signed_coeffs(b.clone(), &ys);
        let lift = |p: &RnsPoly| -> Vec<u64> {
            p.flat()
                .chunks_exact(16)
                .zip(b.moduli())
                .flat_map(|(row, m)| row.iter().map(move |&x| x + m.value()))
                .collect()
        };
        let (lx, ly) = (lift(&sx), lift(&sy));
        let k = kernel::active();
        let mut sum = lx.clone();
        k.add_lazy_batch(b.moduli(), &mut sum, &ly);
        let mut diff = lx;
        k.sub_lazy_batch(b.moduli(), &mut diff, &ly);
        for ((s_row, d_row), m) in sum
            .chunks_exact(16)
            .zip(diff.chunks_exact(16))
            .zip(b.moduli())
        {
            let p = m.value();
            assert!(s_row.iter().all(|&v| v < 2 * p), "sum escaped 2p");
            assert!(d_row.iter().all(|&v| v < 2 * p), "diff escaped 2p");
        }
        k.fold_2p_to_canonical_batch(b.moduli(), &mut sum);
        k.fold_2p_to_canonical_batch(b.moduli(), &mut diff);

        let mut ssum = sx.clone();
        ssum.add_assign(&sy);
        let mut sdiff = sx;
        sdiff.sub_assign(&sy);
        assert_eq!(sum, ssum.flat());
        assert_eq!(diff, sdiff.flat());
    }

    /// The canonical check reads the words, not a tag: one word `>= p`
    /// written through `limb_mut` trips the next strict kernel.
    #[test]
    #[should_panic(expected = "add_assign (rhs) requires canonical residues")]
    #[cfg(debug_assertions)]
    fn strict_kernel_rejects_lazy_poly() {
        let b = basis(16, 1);
        let p_val = b.modulus(0).value();
        let mut p = RnsPoly::from_signed_coeffs(b.clone(), &[3i64; 16]);
        p.limb_mut(0)[5] = p_val + 3;
        let mut q = RnsPoly::from_signed_coeffs(b, &[1i64; 16]);
        q.add_assign(&p);
    }

    /// Two polynomials of equal shape over different primes must not
    /// combine: the moduli check holds in release builds too.
    #[test]
    #[should_panic(expected = "RNS moduli mismatch")]
    fn same_shape_over_other_primes_is_rejected() {
        let n = 16;
        let primes = ntt_primes(45, n, 2);
        let a = Arc::new(RnsBasis::new(&primes[..1], n));
        let other = Arc::new(RnsBasis::new(&primes[1..], n));
        let mut x = RnsPoly::from_signed_coeffs(a, &[1i64; 16]);
        let y = RnsPoly::from_signed_coeffs(other, &[2i64; 16]);
        x.add_assign(&y);
    }
}
