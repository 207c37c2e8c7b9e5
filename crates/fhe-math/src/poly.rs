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
//! pointwise in evaluation form — and, orthogonally, which *reduction
//! state* its residues are in ([`ReductionState`]):
//!
//! * [`ReductionState::Canonical`] — every residue in `[0, p)` per
//!   limb. All strict kernels require and preserve this.
//! * [`ReductionState::Lazy2p`] — residues are `[0, 2p)`
//!   representatives. Produced by the `*_lazy` kernels, which skip the
//!   per-kernel canonicalisation pass; a single [`RnsPoly::canonicalize`]
//!   folds back at the ciphertext boundary, the way hardware pipelines
//!   keep operands in redundant form between butterfly/MAC stages and
//!   only fully reduce at memory writeback.
//!
//! The legal transitions (asserted by `tests/lazy_chains.rs`):
//!
//! ```text
//! Canonical --to_eval/to_coeff/strict ops----------------> Canonical
//! Canonical --to_eval_lazy/to_coeff_lazy/*_lazy ops------> Lazy2p
//! Lazy2p    --to_eval_lazy/to_coeff_lazy/*_lazy ops------> Lazy2p
//! any state --automorphism_lazy (eval-form slot perm)----> same state
//! Lazy2p    --canonicalize / to_eval / to_coeff----------> Canonical
//! Lazy2p    --strict kernels (add_assign, mul_*, ...)----> debug panic
//! ```
//!
//! The `[0, 4p)` inter-stage window of the Harvey butterflies never
//! escapes [`crate::NttTable`]; only the `[0, 2p)` window crosses
//! kernel boundaries, and only under the `Lazy2p` marker.

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

/// The reduction state a polynomial's residues are currently in.
///
/// Tracked alongside [`Representation`]: representation says which
/// *domain* (coefficient vs evaluation) the residues live in, reduction
/// state says which *window* (`[0, p)` vs `[0, 2p)`) they are reduced
/// into. See the module docs for the legal transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReductionState {
    /// Every residue is canonical: `[0, p)` for its limb.
    Canonical,
    /// Residues are lazy `[0, 2p)` representatives awaiting a deferred
    /// [`RnsPoly::canonicalize`] at the ciphertext boundary.
    Lazy2p,
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
    red: ReductionState,
}

impl RnsPoly {
    /// The zero polynomial in the given representation.
    pub fn zero(basis: Arc<RnsBasis>, repr: Representation) -> Self {
        let data = vec![0u64; basis.len() * basis.n()];
        Self {
            basis,
            data,
            repr,
            red: ReductionState::Canonical,
        }
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
            red: ReductionState::Canonical,
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
        debug_assert!(data
            .chunks_exact(basis.n())
            .zip(basis.moduli())
            .all(|(row, m)| row.iter().all(|&x| x < m.value())));
        Self {
            basis,
            data,
            repr,
            red: ReductionState::Canonical,
        }
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

    /// Current reduction state.
    #[inline]
    #[must_use]
    pub fn reduction_state(&self) -> ReductionState {
        self.red
    }

    /// Debug-assert guard at strict-kernel entry: a lazy `[0, 2p)`
    /// polynomial must never reach a kernel that assumes canonical
    /// residues unnoticed. A thin wrapper over the workspace-wide
    /// [`crate::debug_assert_domain!`] form.
    #[inline]
    fn debug_assert_canonical(&self, kernel: &str) {
        crate::debug_assert_domain!(canonical: self, kernel);
    }

    /// Debug-assert guard at batched-kernel entry: every residue must
    /// be inside the `[0, 2p)` window its limb's kernels assume
    /// (backends are entitled to that contract; the caller owns the
    /// check). Wraps [`crate::debug_assert_domain!`].
    #[inline]
    fn debug_assert_rows_within_2p(&self, kernel: &str) {
        crate::debug_assert_domain!(within_2p: self, kernel);
    }

    /// Folds every residue back into the canonical `[0, p)` window.
    ///
    /// The single deferred reduction pass of a lazy kernel chain —
    /// higher layers call this once per ciphertext limb at ciphertext
    /// boundaries instead of letting every kernel canonicalise its
    /// output. No-op when already canonical.
    pub fn canonicalize(&mut self) {
        if self.red == ReductionState::Canonical {
            return;
        }
        self.debug_assert_rows_within_2p("canonicalize");
        kernel::active().fold_2p_to_canonical_batch(self.basis.moduli(), &mut self.data);
        self.red = ReductionState::Canonical;
    }

    /// Residues of limb `i` (a slice view into the flat buffer).
    #[inline]
    pub fn limb(&self, i: usize) -> &[u64] {
        let n = self.basis.n();
        &self.data[i * n..(i + 1) * n]
    }

    /// Mutable residues of limb `i`. Callers must preserve canonical
    /// range invariants.
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

    /// Mutable flat residue buffer. Callers must preserve canonical
    /// range invariants.
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

    fn assert_same_basis(&self, other: &RnsPoly) {
        assert_eq!(self.basis.n(), other.basis.n(), "ring degree mismatch");
        assert_eq!(self.limbs(), other.limbs(), "limb count mismatch");
        debug_assert!(self
            .basis
            .moduli()
            .iter()
            .zip(other.basis.moduli())
            .all(|(a, b)| a.value() == b.value()));
    }

    /// Converts to evaluation form (no-op on the representation if
    /// already there, but always canonicalises).
    ///
    /// Accepts either reduction state — the transform's exit correction
    /// folds lazy input for free — and returns a canonical polynomial.
    pub fn to_eval(&mut self) {
        if self.repr == Representation::Eval {
            self.canonicalize();
            return;
        }
        self.debug_assert_rows_within_2p("to_eval");
        kernel::active().forward_batch(
            &table_refs(&self.basis),
            &mut self.data,
            ExitFold::Canonical,
        );
        self.repr = Representation::Eval;
        self.red = ReductionState::Canonical;
    }

    /// Converts to coefficient form (no-op on the representation if
    /// already there, but always canonicalises).
    ///
    /// Accepts either reduction state and returns a canonical
    /// polynomial, like [`Self::to_eval`].
    pub fn to_coeff(&mut self) {
        if self.repr == Representation::Coeff {
            self.canonicalize();
            return;
        }
        self.debug_assert_rows_within_2p("to_coeff");
        kernel::active().inverse_batch(
            &table_refs(&self.basis),
            &mut self.data,
            ExitFold::Canonical,
        );
        self.repr = Representation::Coeff;
        self.red = ReductionState::Canonical;
    }

    /// Converts to evaluation form with the fully-reduced
    /// [`crate::NttTable::forward_strict`] (every butterfly
    /// canonicalises) — the strict-oracle transform. Requires and
    /// produces canonical residues.
    ///
    /// # Panics
    ///
    /// Panics if already in evaluation form; debug-panics on lazy
    /// input.
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
    /// Panics if already in coefficient form; debug-panics on lazy
    /// input.
    pub fn to_coeff_strict(&mut self) {
        assert_eq!(self.repr, Representation::Eval, "already in coeff form");
        self.debug_assert_canonical("to_coeff_strict");
        let n = self.basis.n();
        for (row, t) in self.data.chunks_exact_mut(n).zip(self.basis.tables()) {
            t.inverse_strict(row);
        }
        self.repr = Representation::Coeff;
    }

    /// Converts to evaluation form *lazily*: the batched forward
    /// transform exits into the `[0, 2p)` window (skipping the
    /// canonicalising half of the fold), leaving the polynomial in
    /// [`ReductionState::Lazy2p`].
    ///
    /// This is the entry of every lazy kernel chain. A keyswitch digit,
    /// for instance, is raised, transformed here, multiply-accumulated
    /// with [`Self::mul_acc_pointwise_lazy`], and only folded once at
    /// the ModDown boundary:
    ///
    /// ```
    /// use fhe_math::{prime, ReductionState, Representation, RnsBasis, RnsPoly};
    /// use std::sync::Arc;
    ///
    /// let n = 64;
    /// let basis = Arc::new(RnsBasis::new(&prime::ntt_primes(45, n, 3), n));
    /// let coeffs: Vec<i64> = (0..n as i64).map(|i| i - 32).collect();
    ///
    /// // Lazy chain: NTT -> IP accumulate -> iNTT, one fold at the end.
    /// let mut digit = RnsPoly::from_signed_coeffs(basis.clone(), &coeffs);
    /// digit.to_eval_lazy();
    /// assert_eq!(digit.reduction_state(), ReductionState::Lazy2p);
    /// let mut acc = RnsPoly::zero(basis.clone(), Representation::Eval);
    /// acc.mul_acc_pointwise_lazy(&digit, &digit);
    /// acc.to_coeff_lazy();
    /// acc.canonicalize(); // the single deferred fold
    ///
    /// // Bit-identical to the strict chain on the same inputs.
    /// let mut strict = RnsPoly::from_signed_coeffs(basis.clone(), &coeffs);
    /// strict.to_eval();
    /// let mut strict_acc = RnsPoly::zero(basis, Representation::Eval);
    /// strict_acc.mul_acc_pointwise(&strict, &strict);
    /// strict_acc.to_coeff();
    /// assert_eq!(acc.flat(), strict_acc.flat());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if already in evaluation form (a lazy chain always knows
    /// its dataflow; an accidental double transform is a bug).
    pub fn to_eval_lazy(&mut self) {
        assert_eq!(self.repr, Representation::Coeff, "already in eval form");
        crate::debug_assert_domain!(within_2p: self, "to_eval_lazy");
        kernel::active().forward_batch(&table_refs(&self.basis), &mut self.data, ExitFold::Lazy2p);
        self.repr = Representation::Eval;
        self.red = ReductionState::Lazy2p;
    }

    /// Converts to coefficient form *lazily* (the batched inverse
    /// transform with a lazy exit), leaving the polynomial in
    /// [`ReductionState::Lazy2p`].
    ///
    /// # Panics
    ///
    /// Panics if already in coefficient form.
    pub fn to_coeff_lazy(&mut self) {
        assert_eq!(self.repr, Representation::Eval, "already in coeff form");
        crate::debug_assert_domain!(within_2p: self, "to_coeff_lazy");
        kernel::active().inverse_batch(&table_refs(&self.basis), &mut self.data, ExitFold::Lazy2p);
        self.repr = Representation::Coeff;
        self.red = ReductionState::Lazy2p;
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

    /// Lazy `self += other`: operands may be in either reduction state;
    /// the result is a [`ReductionState::Lazy2p`] polynomial (one
    /// conditional subtraction at `2p` per residue, no canonicalising
    /// pass).
    ///
    /// # Panics
    ///
    /// Panics on basis or representation mismatch.
    pub fn add_assign_lazy(&mut self, other: &RnsPoly) {
        self.assert_same_basis(other);
        assert_eq!(self.repr, other.repr, "representation mismatch");
        crate::debug_assert_domain!(within_2p: self, "add_assign_lazy");
        crate::debug_assert_domain!(within_2p: other, "add_assign_lazy (rhs)");
        kernel::active().add_lazy_batch(self.basis.moduli(), &mut self.data, &other.data);
        self.red = ReductionState::Lazy2p;
    }

    /// Lazy `self -= other` (see [`Self::add_assign_lazy`]).
    ///
    /// # Panics
    ///
    /// Panics on basis or representation mismatch.
    pub fn sub_assign_lazy(&mut self, other: &RnsPoly) {
        self.assert_same_basis(other);
        assert_eq!(self.repr, other.repr, "representation mismatch");
        crate::debug_assert_domain!(within_2p: self, "sub_assign_lazy");
        crate::debug_assert_domain!(within_2p: other, "sub_assign_lazy (rhs)");
        kernel::active().sub_lazy_batch(self.basis.moduli(), &mut self.data, &other.data);
        self.red = ReductionState::Lazy2p;
    }

    /// Lazy pointwise multiply: operands in either reduction state
    /// (their `[0, 2p)` windows multiply exactly under Barrett), result
    /// [`ReductionState::Lazy2p`]. Both must be in evaluation form.
    ///
    /// # Panics
    ///
    /// Panics on basis mismatch or if either operand is in coefficient
    /// form.
    pub fn mul_assign_pointwise_lazy(&mut self, other: &RnsPoly) {
        self.assert_same_basis(other);
        assert_eq!(self.repr, Representation::Eval, "lhs must be in eval form");
        assert_eq!(other.repr, Representation::Eval, "rhs must be in eval form");
        crate::debug_assert_domain!(within_2p: self, "mul_assign_pointwise_lazy");
        crate::debug_assert_domain!(within_2p: other, "mul_assign_pointwise_lazy (rhs)");
        kernel::active().mul_lazy_batch(self.basis.moduli(), &mut self.data, &other.data);
        self.red = ReductionState::Lazy2p;
    }

    /// Lazy `self += a * b` pointwise — the `IP` kernel of lazy
    /// keyswitch chains. All three in evaluation form, any reduction
    /// state; the accumulator stays in `[0, 2p)`.
    ///
    /// # Panics
    ///
    /// Panics on basis or representation mismatch.
    pub fn mul_acc_pointwise_lazy(&mut self, a: &RnsPoly, b: &RnsPoly) {
        self.assert_same_basis(a);
        self.assert_same_basis(b);
        assert_eq!(self.repr, Representation::Eval);
        assert_eq!(a.repr, Representation::Eval);
        assert_eq!(b.repr, Representation::Eval);
        crate::debug_assert_domain!(within_2p: self, "mul_acc_pointwise_lazy");
        crate::debug_assert_domain!(within_2p: a, "mul_acc_pointwise_lazy (a)");
        crate::debug_assert_domain!(within_2p: b, "mul_acc_pointwise_lazy (b)");
        kernel::active().mul_acc_lazy_batch(self.basis.moduli(), &mut self.data, &a.data, &b.data);
        self.red = ReductionState::Lazy2p;
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
            Representation::Eval => self.permute_slots(g, perms),
        }
    }

    /// The evaluation-domain slot permutation shared by
    /// [`Self::automorphism`] and [`Self::automorphism_lazy`]: a pure
    /// per-limb gather through the active kernel backend, touching no
    /// arithmetic (and therefore no reduction window).
    fn permute_slots(&mut self, g: u64, perms: &GaloisPerms) {
        let perm = perms.eval_permutation(g);
        crate::scratch::with_scratch_copy(&mut self.data, |src, dst| {
            kernel::active().permute_batch(&perm, src, dst);
        });
    }

    /// Applies the automorphism `X -> X^g` to an **evaluation-form**
    /// polynomial in whatever reduction state it is in.
    ///
    /// In evaluation form `sigma_g` is a pure slot permutation — slot
    /// `psi^e` reads slot `psi^{e*g}`, no arithmetic at all — so it is
    /// *reduction-agnostic*: `[0, 2p)` representatives permute exactly
    /// like canonical ones and the [`ReductionState`] is preserved.
    /// This is what lets a rotation chain stay [`ReductionState::Lazy2p`]
    /// from the digit NTT through the automorphism to the keyswitch
    /// inner product, folding once at ModDown (the paper's `Auto`
    /// kernel riding the same redundant-form pipeline as `NTT`/`IP`).
    ///
    /// Bit-identical, after canonicalisation, to
    /// [`Self::automorphism`] on the folded input (asserted by
    /// `tests/lazy_chains.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `g` is even or the polynomial is in coefficient form
    /// (the coefficient-domain automorphism negates wrapped indices,
    /// which is not reduction-agnostic — canonicalise and use
    /// [`Self::automorphism`] there).
    // trinity-lint: allow(missing-domain-assert): pure slot permutation —
    // no arithmetic touches the residues, so the kernel is
    // reduction-agnostic and legitimately accepts either window.
    pub fn automorphism_lazy(&mut self, g: u64, perms: &GaloisPerms) {
        assert_eq!(g % 2, 1, "galois element must be odd");
        assert_eq!(
            self.repr,
            Representation::Eval,
            "automorphism_lazy requires evaluation form"
        );
        self.permute_slots(g, perms);
    }

    /// Keeps only the first `k` limbs (dropping the rest), switching to
    /// the prefix basis. With limb-major flat storage this is a single
    /// truncation — no per-limb moves.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the current limb count.
    pub fn keep_limbs(&mut self, k: usize, prefix_basis: Arc<RnsBasis>) {
        assert!(k > 0 && k <= self.limbs());
        assert_eq!(prefix_basis.len(), k);
        debug_assert!(prefix_basis
            .moduli()
            .iter()
            .zip(self.basis.moduli())
            .all(|(a, b)| a.value() == b.value()));
        self.data.truncate(k * self.basis.n());
        self.basis = prefix_basis;
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

    #[test]
    fn reduction_state_transitions() {
        let b = basis(16, 2);
        let coeffs: Vec<i64> = (0..16).map(|i| i as i64 - 8).collect();
        let mut p = RnsPoly::from_signed_coeffs(b.clone(), &coeffs);
        assert_eq!(p.reduction_state(), ReductionState::Canonical);

        // Canonical --to_eval_lazy--> Lazy2p.
        p.to_eval_lazy();
        assert_eq!(p.reduction_state(), ReductionState::Lazy2p);

        // Lazy2p --lazy op--> Lazy2p.
        let mut q = RnsPoly::from_signed_coeffs(b.clone(), &coeffs);
        q.to_eval();
        assert_eq!(q.reduction_state(), ReductionState::Canonical);
        p.mul_assign_pointwise_lazy(&q);
        assert_eq!(p.reduction_state(), ReductionState::Lazy2p);

        // Lazy2p --to_coeff_lazy--> Lazy2p, then canonicalize.
        p.to_coeff_lazy();
        assert_eq!(p.reduction_state(), ReductionState::Lazy2p);
        p.canonicalize();
        assert_eq!(p.reduction_state(), ReductionState::Canonical);

        // Canonical ops keep the canonical state.
        let r = RnsPoly::from_signed_coeffs(b, &coeffs);
        p.add_assign(&r);
        assert_eq!(p.reduction_state(), ReductionState::Canonical);
    }

    #[test]
    fn lazy_poly_chain_matches_strict_after_canonicalize() {
        // to_eval_lazy -> lazy mul -> lazy acc -> lazy add/sub ->
        // to_coeff_lazy -> canonicalize must be bit-identical to the
        // strict chain.
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

        let mut lazy_x = RnsPoly::from_signed_coeffs(b.clone(), &xs);
        let mut lazy_y = RnsPoly::from_signed_coeffs(b.clone(), &ys);
        lazy_x.to_eval_lazy();
        lazy_y.to_eval_lazy();
        let mut lazy_acc = RnsPoly::zero(b, Representation::Eval);
        lazy_acc.mul_acc_pointwise_lazy(&lazy_x, &lazy_y);
        lazy_acc.mul_acc_pointwise_lazy(&lazy_y, &lazy_y);
        lazy_acc.add_assign_lazy(&lazy_x);
        lazy_acc.sub_assign_lazy(&lazy_y);
        lazy_acc.to_coeff_lazy();
        lazy_acc.canonicalize();

        assert_eq!(lazy_acc.flat(), strict_acc.flat());
    }

    #[test]
    fn lazy_add_sub_stay_in_window_and_agree_with_strict() {
        // sub_assign_lazy / add_assign_lazy with both operands already
        // lifted to [0, 2p) — including the 2p-1 extremes — must agree
        // with the canonical ops after folding.
        let b = basis(16, 2);
        let xs: Vec<i64> = (0..16).map(|i| i as i64 - 8).collect();
        let ys: Vec<i64> = (0..16).map(|i| 7 - (i as i64 % 5)).collect();
        let mut lx = RnsPoly::from_signed_coeffs(b.clone(), &xs);
        let mut ly = RnsPoly::from_signed_coeffs(b.clone(), &ys);
        // Lift every residue to its high [p, 2p) representative where
        // possible (x + p), stressing the fold boundary.
        for i in 0..lx.limbs() {
            let p = b.modulus(i).value();
            for x in lx.limb_mut(i) {
                *x += p;
            }
            for y in ly.limb_mut(i) {
                *y += p;
            }
        }
        let mut sum = lx.clone();
        sum.add_assign_lazy(&ly);
        let mut diff = lx.clone();
        diff.sub_assign_lazy(&ly);
        for i in 0..sum.limbs() {
            let p = b.modulus(i).value();
            assert!(sum.limb(i).iter().all(|&v| v < 2 * p), "sum escaped 2p");
            assert!(diff.limb(i).iter().all(|&v| v < 2 * p), "diff escaped 2p");
        }
        sum.canonicalize();
        diff.canonicalize();

        let sx = RnsPoly::from_signed_coeffs(b.clone(), &xs);
        let sy = RnsPoly::from_signed_coeffs(b, &ys);
        let mut ssum = sx.clone();
        ssum.add_assign(&sy);
        let mut sdiff = sx.clone();
        sdiff.sub_assign(&sy);
        assert_eq!(sum.flat(), ssum.flat());
        assert_eq!(diff.flat(), sdiff.flat());
    }

    #[test]
    #[should_panic(expected = "Lazy2p polynomial leaked")]
    #[cfg(debug_assertions)]
    fn strict_kernel_rejects_lazy_poly() {
        let b = basis(16, 1);
        let mut p = RnsPoly::from_signed_coeffs(b.clone(), &[3i64; 16]);
        p.to_eval_lazy();
        let mut q = RnsPoly::from_signed_coeffs(b, &[1i64; 16]);
        q.to_eval();
        q.add_assign(&p); // rhs is Lazy2p -> debug assert fires
    }

    #[test]
    fn keep_limbs_truncates_flat_buffer() {
        let b = basis(16, 3);
        let prefix = Arc::new(b.prefix(2));
        let mut p = RnsPoly::from_signed_coeffs(b, &[7i64; 16]);
        p.keep_limbs(2, prefix);
        assert_eq!(p.limbs(), 2);
        assert_eq!(p.flat().len(), 2 * 16);
        assert_eq!(p.to_centered_f64(), vec![7.0; 16]);
    }
}
