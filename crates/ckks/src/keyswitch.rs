//! Hybrid keyswitching — the paper's Algorithm 1.
//!
//! This is the dominant cost in CKKS (§III-C: NTT is 59.2% and MAC 40.8%
//! of KeySwitch compute at L=23, dnum=3) and the operation Trinity's
//! CU-based mapping accelerates. The pipeline:
//!
//! 1. **Decompose** the input polynomial's limbs into `beta` digits.
//! 2. **ModUp (BConv)** each digit into the extended basis `C_l ∪ P` —
//!    systolic-array matrix multiplications in hardware.
//! 3. **NTT** the raised digits (the paper's phase-1/phase-2 NTTU + CU
//!    collaboration for long polynomials).
//! 4. **Inner product** with the switching key digits (`IP` kernel).
//! 5. **ModDown**: base-convert the `P`-part down to `C_l`, subtract and
//!    multiply by `P^{-1}`.
//!
//! # Two tiers: one lazy engine, one strict oracle
//!
//! Every production entry point is the same lazy-chain engine. It obeys
//! one rule at both base-conversion boundaries: **a limb leaves the
//! evaluation domain only if a BConv reads it.** The NTT is a
//! `Z_q`-linear bijection, so whatever is linear — the subtract and the
//! `P^{-1}` scaling of ModDown, the digit's own limbs of a ModUp — can
//! stay in evaluation form and lands on the same canonical residues:
//!
//! * **ModUp** reads every input limb once (the digit it belongs to), so
//!   the input iNTT covers all `l + 1` limbs — but of a raised digit's
//!   `ext = l + 1 + |P|` limbs only the `ext - |digit|` *converted* ones
//!   are new; the digit's own limbs are, in evaluation form, the input
//!   rows themselves (already in `[0, 2p)`) and are never transformed.
//! * **The inner product** multiplies against the switching key's
//!   stored rows in place: at level `l` a key row is two contiguous
//!   segments of the full-basis row ([`SwitchingKey::row_segments`]).
//! * **ModDown** reads only the `|P|` special limbs of an accumulator,
//!   so only those are iNTT'd (canonical exit — BConv needs true
//!   `[0, p)` representatives); the converted `l + 1` rows are NTT'd back
//!   and one pass computes `(acc - conv) * P^{-1}` against `q` limbs
//!   that never left evaluation form, canonical out.
//!
//! NTT rows per keyswitch at level `l` with `beta` digits:
//! `2(l+1) + beta*ext + 2|P|` (input iNTT `l+1`, digit NTTs
//! `beta*ext - (l+1)`, tail `2|P| + 2(l+1)`) against Algorithm 1's
//! `3(l+1) + (beta+2)*ext` — 35 vs 50 at `test_params` level 4
//! (`beta = 3`, `|P| = 2`, `ext = 7`), 120 vs 171 at
//! `bootstrap_test_params` level 16 (`beta = 3`, `|P| = 7`, `ext = 24`).
//! Everything between the two boundaries stays in the redundant
//! `[0, 2p)` window — lazy-exit digit NTTs, `IP` accumulators lazy
//! across all `beta` digits — mirroring how
//! Trinity/FAB pipelines keep operands in redundant form between
//! butterfly and MAC stages and only fully reduce at memory writeback.
//! For the Galois variants the automorphism rides the same chain,
//! applied to the raised digits in evaluation form, where it is a pure,
//! reduction-agnostic slot permutation.
//!
//! The engine runs **one job per call**: one input, one key, one
//! `(ks0, ks1)` out. Independent keyswitches — a service's dispatch
//! group, a PackLWEs merge round — are independent calls, which a
//! caller may spread over cores (`Evaluator::apply_galois_batch`
//! runs one chunk of them per core); inside a call each transform dispatch carries every limb
//! row of its stage, and the ModDown tail takes both accumulators in
//! one dispatch per transform.
//!
//! It runs in three stages: (1) *raise* — `input_to_coeff` once, then
//! `raise_digit_lazy` per digit (Decompose + ModUp + lazy NTT of the
//! converted rows); (2) *accumulate* — `LazyAccumulators::mac_digit` per
//! digit ((permute +) lazy MAC of converted and own rows against the
//! borrowed key row); (3) *finish* — `LazyAccumulators::finish`
//! (ModDown in the evaluation domain). The fused entry points
//! interleave stages 1–2 digit by digit over one leased buffer.
//! **Rotation hoisting is a stage split, not another pipeline**:
//! [`hoist_rotations`] is stage 1 stored for all `beta` digits and
//! [`key_switch_galois_hoisted`] is stages 2–3 over the stored digits,
//! so a linear layer applying many rotations to one ciphertext pays for
//! the raise once.
//!
//! [`key_switch_strict`] / [`key_switch_galois_strict`] are the
//! straight-line fully-canonical oracle. `tests/lazy_chains.rs` asserts
//! engine and oracle bit-identical across every workspace modulus
//! shape, and `tests/backend_identity.rs` across kernel backends.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use fhe_math::kernel::{self, ExitFold};
use fhe_math::{scratch, Modulus, NttTable, Representation, RnsBasis, RnsPoly};

use crate::context::{CkksContext, DigitPrecomp};
use crate::keys::SwitchingKey;

/// Applies hybrid keyswitching to a polynomial `d` (evaluation form, at
/// `level`), producing the pair `(ks0, ks1)` such that
/// `ks0 + ks1 * s_to ≈ d * s_from` — both in evaluation form at `level`.
///
/// The fused lazy engine, one job per call (see the module docs).
/// Bit-identical to [`key_switch_strict`] (asserted by
/// `tests/lazy_chains.rs`).
///
/// # Panics
///
/// Panics if `d` is not in evaluation form or its limb count does not
/// match `level + 1`.
pub fn key_switch(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    key_switch_impl(ctx, d, key, level, None)
}

/// Galois keyswitch: applies the automorphism `sigma_g` *inside* the
/// keyswitch pipeline, to the raised digits in evaluation form —
/// digit NTT → automorphism → inner product, entirely in the
/// `[0, 2p)` window, canonicalised by ModDown's two exits (the
/// `P`-limb iNTT and the final divide).
///
/// In evaluation form `sigma_g` is a pure slot permutation, so it rides
/// the lazy chain for free where the pre-rotation formulation
/// (`sigma_g(d)` then [`key_switch`]) had to canonicalise `d` at the
/// automorphism. The two orderings are interchangeable because
/// `sigma_g` commutes exactly with the limb-group digit decompose (it
/// acts per limb) and commutes with ModUp up to the usual
/// approximate-BConv overshoot — a small polynomial times the digit
/// modulus `Q_j`, which the gadget residues (`P` on digit-`j` limbs,
/// `0` elsewhere, so `Q_j ≡ 0` wherever the gadget is nonzero)
/// annihilate except for a `Q_j e_j / P` noise term attenuated at
/// ModDown, exactly like the overshoot the non-Galois pipeline already
/// absorbs.
///
/// Returns `(ks0, ks1)` with `ks0 + ks1 * s ≈ sigma_g(d) * s_from`
/// (for a Galois key, `s_from = sigma_g(s)`). Bit-identical to
/// [`key_switch_galois_strict`] (asserted by `tests/lazy_chains.rs`).
///
/// # Panics
///
/// As [`key_switch`]; additionally panics if `g` is even.
pub fn key_switch_galois(
    ctx: &CkksContext,
    d: &RnsPoly,
    g: u64,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    key_switch_impl(ctx, d, key, level, Some(g))
}

/// The fully-canonical strict oracle of [`key_switch_galois`]:
/// Algorithm 1 as written (every raised limb NTT'd, ModDown in the
/// coefficient domain), fully-reduced transforms and canonical kernels
/// throughout.
/// The `canonical` row of the `rotate_lazy_vs_canonical` micro and the
/// bit-identity reference for the lazy rotation chain.
///
/// # Panics
///
/// As [`key_switch_galois`].
pub fn key_switch_galois_strict(
    ctx: &CkksContext,
    d: &RnsPoly,
    g: u64,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    key_switch_strict_impl(ctx, d, key, level, Some(g))
}

/// The fully-canonical keyswitch pipeline: fully-reduced transforms
/// (`forward_strict`/`inverse_strict`, every butterfly canonicalises)
/// and canonical inner products, `[0, p)` between all steps. Kept as
/// the strict oracle the lazy engine is asserted against, and as the
/// `canonical` side of the `keyswitch_lazy_vs_canonical` micro.
///
/// # Panics
///
/// As [`key_switch`].
pub fn key_switch_strict(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &SwitchingKey,
    level: usize,
) -> (RnsPoly, RnsPoly) {
    key_switch_strict_impl(ctx, d, key, level, None)
}

/// Decompose + ModUp of digit `j` as the strict oracle runs it: reads the canonical coefficient-form limb rows of one input
/// (`(level + 1) * n` words), gathers digit `j`'s limbs, base-converts
/// them (approximate BConv) into the complement limbs and `P`, and
/// appends the raised digit's `ext_limbs * n` words to `out` in the
/// extended-basis limb order `[q_0..q_l, p_0..]`.
fn raise_digit_into(ctx: &CkksContext, d_flat: &[u64], level: usize, j: usize, out: &mut Vec<u64>) {
    let precomp = ctx.keyswitch_precomp(level);
    let digit = &precomp.digits[j];
    let n = ctx.n();
    debug_assert_eq!(d_flat.len(), (level + 1) * n);
    // Decompose: gather this digit's limbs into one flat buffer.
    let mut digit_flat = Vec::with_capacity(digit.digit_limbs.len() * n);
    for &i in &digit.digit_limbs {
        digit_flat.extend_from_slice(&d_flat[i * n..(i + 1) * n]);
    }
    // ModUp: BConv digit -> (others ∪ P), flat limb-major in and out.
    let converted = digit.mod_up.convert_approx(&digit_flat);
    // Reassemble limbs in extended order [q_0..q_l, p_0..].
    let n_q = level + 1;
    let n_p = ctx.params().p_special.len();
    let mut other_pos = 0usize;
    for i in 0..n_q {
        if let Some(idx) = digit.digit_limbs.iter().position(|&x| x == i) {
            out.extend_from_slice(&digit_flat[idx * n..(idx + 1) * n]);
        } else {
            out.extend_from_slice(&converted[other_pos * n..(other_pos + 1) * n]);
            other_pos += 1;
        }
    }
    let p_start = digit.other_limbs.len();
    out.extend_from_slice(&converted[p_start * n..(p_start + n_p) * n]);
}

/// ModDown of one accumulator as the strict oracle runs it, in the
/// coefficient domain: reads its canonical coefficient-form rows over `C_l ∪ P`
/// (`ext_limbs * n` words), divides by `P` with rounding (exact BConv
/// of the `P`-part, subtract, multiply by `P^{-1}` — the tail step of
/// Algorithm 1, line 12) and appends the `(level + 1) * n`
/// coefficient-form words over `C_l` to `out`.
fn mod_down_into(ctx: &CkksContext, acc: &[u64], level: usize, out: &mut Vec<u64>) {
    let precomp = ctx.keyswitch_precomp(level);
    let level_basis = ctx.level_basis(level);
    let n = ctx.n();
    let n_q = level + 1;
    // Limb-major layout: the q-limbs and P-limbs are contiguous halves,
    // so the P-part feeds BConv without any gather.
    let (q_flat, p_flat) = acc.split_at(n_q * n);
    let p_in_q = precomp.mod_down.convert_exact(p_flat);
    for i in 0..n_q {
        let qi = level_basis.modulus(i);
        let (inv, _) = precomp.p_inv_mod_q[i];
        out.extend(
            q_flat[i * n..(i + 1) * n]
                .iter()
                .zip(&p_in_q[i * n..(i + 1) * n])
                .map(|(&c, &p)| qi.mul(qi.sub(c, p), inv)),
        );
    }
}

/// The strict oracle pipeline, straight-line: every kernel hands
/// `[0, p)` residues to the next, and the digit NTTs and accumulator
/// iNTTs are the fully-reduced `*_strict` transforms.
fn key_switch_strict_impl(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &SwitchingKey,
    level: usize,
    galois: Option<u64>,
) -> (RnsPoly, RnsPoly) {
    assert_eq!(d.representation(), Representation::Eval);
    assert_eq!(d.limbs(), level + 1, "polynomial level mismatch");
    let ext_basis = ctx.extended_basis(level);
    // Decompose needs true [0, p) representatives; the input iNTT's
    // exit pass canonicalises.
    let mut d_coeff = d.clone();
    d_coeff.to_coeff();

    let mut acc0 = RnsPoly::zero(ext_basis.clone(), Representation::Eval);
    let mut acc1 = RnsPoly::zero(ext_basis.clone(), Representation::Eval);
    for j in 0..ctx.keyswitch_precomp(level).digits.len() {
        let mut flat = Vec::with_capacity(ext_basis.len() * ctx.n());
        raise_digit_into(ctx, d_coeff.flat(), level, j, &mut flat);
        let mut d_tilde = RnsPoly::from_flat(ext_basis.clone(), flat, Representation::Coeff);
        d_tilde.to_eval_strict();
        if let Some(g) = galois {
            d_tilde.automorphism(g, ctx.galois());
        }
        let (b_j, a_j) = key.row_at_level(ctx, j, level);
        acc0.mul_acc_pointwise(&d_tilde, &b_j);
        acc1.mul_acc_pointwise(&d_tilde, &a_j);
    }

    let mod_down = |mut acc: RnsPoly| {
        acc.to_coeff_strict();
        let mut flat = Vec::with_capacity((level + 1) * ctx.n());
        mod_down_into(ctx, acc.flat(), level, &mut flat);
        let mut out =
            RnsPoly::from_flat(ctx.level_basis(level).clone(), flat, Representation::Coeff);
        out.to_eval();
        out
    };
    (mod_down(acc0), mod_down(acc1))
}

/// The NTT tables of `basis`, repeated for `k` polynomials laid out one
/// after another — the row metadata of one transform dispatch over all
/// their limb rows.
pub(crate) fn table_rows(basis: &RnsBasis, k: usize) -> Vec<&NttTable> {
    (0..k)
        .flat_map(|_| basis.tables().iter().map(|t| t.as_ref()))
        .collect()
}

/// The exact divide ModDown and Rescale both end in, in the evaluation
/// domain: for every limb row `i`, `(c - r) * inv_i mod q_i` with `c`,
/// `r` in `[0, 2q_i)` and `inv_i` a Shoup pair — one lazy Shoup product
/// of the `(0, 4q_i)` difference plus the canonicalising subtraction.
/// Appends the canonical rows to `out`.
pub(crate) fn sub_scale_into(
    moduli: &[Modulus],
    inv: &[(u64, u64)],
    c: &[u64],
    r: &[u64],
    out: &mut Vec<u64>,
) {
    assert_eq!(c.len(), r.len());
    assert_eq!(moduli.len(), inv.len());
    let n = c.len() / moduli.len();
    for (((qi, &(w, ws)), crow), rrow) in moduli
        .iter()
        .zip(inv)
        .zip(c.chunks_exact(n))
        .zip(r.chunks_exact(n))
    {
        fhe_math::debug_assert_domain!(slice_within_2p: qi, crow, "sub_scale_into");
        fhe_math::debug_assert_domain!(slice_within_2p: qi, rrow, "sub_scale_into");
        let two_q = 2 * qi.value();
        out.extend(
            crow.iter()
                .zip(rrow)
                .map(|(&c, &r)| qi.reduce_2p(qi.mul_shoup_lazy(c + two_q - r, w, ws))),
        );
    }
}

/// Digit `j`'s limbs at `level`: the contiguous range
/// `params.digit_limbs(j) ∩ 0..=level`.
fn digit_range(ctx: &CkksContext, level: usize, j: usize) -> Range<usize> {
    let limbs = ctx.params().digit_limbs(j);
    limbs.start..limbs.end.min(level + 1)
}

/// Engine stage 1a: the canonical coefficient-form limb rows of the
/// input. Decompose needs true `[0, p)` representatives and every limb
/// is read by its digit's BConv, so the input iNTT covers all `l + 1`
/// rows and exits canonically — one dispatch.
///
/// # Panics
///
/// Panics if `d` is not in evaluation form at `level`.
fn input_to_coeff(ctx: &CkksContext, d: &RnsPoly, level: usize) -> Vec<u64> {
    assert_eq!(d.representation(), Representation::Eval);
    assert_eq!(d.limbs(), level + 1, "polynomial level mismatch");
    let mut d_coeff = d.flat().to_vec();
    kernel::active().inverse_batch(
        &table_rows(ctx.level_basis(level), 1),
        &mut d_coeff,
        ExitFold::Canonical,
    );
    d_coeff
}

/// Engine stage 1b: ModUp of digit `j` of the input's coefficient rows
/// `d_coeff`. The digit's limbs are contiguous, so its BConv source is
/// a slice of those rows; the `ext - |digit|` converted rows — the
/// limbs of `mod_up.to_basis()`: the other `q` limbs, then `P` — fill
/// `out`, and one lazy-exit dispatch NTTs them into the `[0, 2p)`
/// window. The digit's own limbs are not produced: in evaluation form
/// they are the input rows themselves.
fn raise_digit_lazy(ctx: &CkksContext, d_coeff: &[u64], level: usize, j: usize, out: &mut [u64]) {
    let n = ctx.n();
    let mod_up = &ctx.keyswitch_precomp(level).digits[j].mod_up;
    let digit = digit_range(ctx, level, j);
    assert_eq!(out.len(), mod_up.to_basis().len() * n);
    mod_up.convert_approx_into(&d_coeff[digit.start * n..digit.end * n], out);
    kernel::active().forward_batch(&table_rows(mod_up.to_basis(), 1), out, ExitFold::Lazy2p);
}

/// Engine stages 2 and 3: the two lazy inner-product accumulators,
/// split by what ModDown does with them — the `q` limbs (`acc_q`) stay
/// in evaluation form to the end, the `P` limbs (`acc_p`) are what its
/// BConv reads. Each buffer holds the acc0 rows, then the acc1 rows, so
/// each tail transform is one dispatch over both.
struct LazyAccumulators<'a> {
    ctx: &'a CkksContext,
    level: usize,
    /// The `(l+1) * n` evaluation-form input words every raised digit
    /// takes its own limbs from: borrowed as they are, or their
    /// slot-permuted copy for the Galois variants.
    own: Cow<'a, [u64]>,
    acc_q: Vec<u64>,
    acc_p: Vec<u64>,
    /// The eval-form slot permutation of the Galois variants, with the
    /// gather target for a digit's converted rows.
    perm: Option<(Arc<Vec<usize>>, Vec<u64>)>,
}

impl<'a> LazyAccumulators<'a> {
    /// Zeroed accumulators for the input whose evaluation-form rows
    /// (`(level + 1) * n` words, in `[0, 2p)`) are `own`.
    ///
    /// # Panics
    ///
    /// Panics if `galois` holds an even element.
    fn new(ctx: &'a CkksContext, level: usize, own: &'a [u64], galois: Option<u64>) -> Self {
        let n = ctx.n();
        debug_assert_eq!(own.len(), (level + 1) * n);
        let perm = galois.map(|g| ctx.galois().eval_permutation(g));
        let own = match &perm {
            Some(perm) => {
                let mut permuted = vec![0u64; own.len()];
                kernel::active().permute_batch(perm.as_slice(), own, &mut permuted);
                Cow::Owned(permuted)
            }
            None => Cow::Borrowed(own),
        };
        Self {
            ctx,
            level,
            own,
            acc_q: vec![0u64; 2 * (level + 1) * n],
            acc_p: vec![0u64; 2 * ctx.special_basis().len() * n],
            perm: perm.map(|perm| (perm, Vec::new())),
        }
    }

    /// Stage 2 for digit `j`: `converted` holds the raised digit's
    /// converted rows (lazy evaluation form, as `raise_digit_lazy` lays
    /// them out). The automorphism, when present, is a pure slot
    /// permutation that preserves the `[0, 2p)` window — one gather.
    /// Then, per accumulator, the raised digit meets the key row *in
    /// place*: its limbs are the converted `q` rows below the digit,
    /// the input's own rows, the converted `q` rows above it and the
    /// converted `P` rows, each run one lazy MAC against the matching
    /// slice of the borrowed key segment.
    fn mac_digit(&mut self, j: usize, converted: &[u64], key: &SwitchingKey) {
        let (ctx, level) = (self.ctx, self.level);
        let n = ctx.n();
        let conv = match &mut self.perm {
            Some((perm, permuted)) => {
                permuted.resize(converted.len(), 0);
                kernel::active().permute_batch(perm.as_slice(), converted, permuted);
                permuted.as_slice()
            }
            None => converted,
        };
        let q_moduli = ctx.level_basis(level).moduli();
        let p_moduli = ctx.special_basis().moduli();
        let (q_words, p_words) = (q_moduli.len() * n, p_moduli.len() * n);
        let digit = digit_range(ctx, level, j);
        // Word offsets: where the digit sits in a `q` part, and where
        // the rows above it end in the converted rows.
        let (lo, hi) = (digit.start * n, digit.end * n);
        let above_end = q_words - (hi - lo);
        debug_assert_eq!(conv.len(), above_end + p_words);
        let own = &self.own[lo..hi];
        let mac = |moduli: &[Modulus], acc: &mut [u64], raised: &[u64], key: &[u64]| {
            if !acc.is_empty() {
                kernel::active().mul_acc_lazy_batch(moduli, acc, raised, key);
            }
        };
        let accs = self
            .acc_q
            .chunks_exact_mut(q_words)
            .zip(self.acc_p.chunks_exact_mut(p_words));
        for ((acc_q, acc_p), (key_q, key_p)) in accs.zip(key.row_segments(j, level)) {
            mac(
                &q_moduli[..digit.start],
                &mut acc_q[..lo],
                &conv[..lo],
                &key_q[..lo],
            );
            mac(
                &q_moduli[digit.clone()],
                &mut acc_q[lo..hi],
                own,
                &key_q[lo..hi],
            );
            mac(
                &q_moduli[digit.end..],
                &mut acc_q[hi..],
                &conv[lo..above_end],
                &key_q[hi..],
            );
            mac(p_moduli, acc_p, &conv[above_end..], key_p);
        }
    }

    /// Stage 3, ModDown in the evaluation domain: a canonical-exit iNTT
    /// over the `2|P|` special-limb rows (all a BConv reads), the exact
    /// BConv of each `P`-part down to `C_l`, one lazy-exit NTT over the
    /// `2(l+1)` converted rows, and the `(acc - conv) * P^{-1}` pass
    /// against the `q` limbs that never left evaluation form —
    /// canonical out, as the pair `(ks0, ks1)`.
    fn finish(mut self) -> (RnsPoly, RnsPoly) {
        let (ctx, level) = (self.ctx, self.level);
        let precomp = ctx.keyswitch_precomp(level);
        let level_basis = ctx.level_basis(level);
        let special = ctx.special_basis();
        let stride = level_basis.len() * ctx.n();
        kernel::active().inverse_batch(
            &table_rows(special, 2),
            &mut self.acc_p,
            ExitFold::Canonical,
        );
        scratch::with_scratch(2 * stride, |conv| {
            for (p_part, conv) in self
                .acc_p
                .chunks_exact(special.len() * ctx.n())
                .zip(conv.chunks_exact_mut(stride))
            {
                precomp.mod_down.convert_exact_into(p_part, conv);
            }
            kernel::active().forward_batch(&table_rows(level_basis, 2), conv, ExitFold::Lazy2p);

            // ks0's rows sit at chunk 0, ks1's at chunk 1.
            let poly = |chunk: usize| {
                let rows = chunk * stride..(chunk + 1) * stride;
                let mut flat = Vec::with_capacity(stride);
                sub_scale_into(
                    level_basis.moduli(),
                    &precomp.p_inv_mod_q,
                    &self.acc_q[rows.clone()],
                    &conv[rows],
                    &mut flat,
                );
                RnsPoly::from_flat(level_basis.clone(), flat, Representation::Eval)
            };
            (poly(0), poly(1))
        })
    }
}

/// The lazy engine, fused: the three stages with stages 1–2 interleaved
/// digit by digit over one leased buffer, so the working set holds a
/// single raised digit.
fn key_switch_impl(
    ctx: &CkksContext,
    d: &RnsPoly,
    key: &SwitchingKey,
    level: usize,
    galois: Option<u64>,
) -> (RnsPoly, RnsPoly) {
    let d_coeff = input_to_coeff(ctx, d, level);
    let mut acc = LazyAccumulators::new(ctx, level, d.flat(), galois);
    for (j, digit) in ctx.keyswitch_precomp(level).digits.iter().enumerate() {
        scratch::with_scratch(digit.mod_up.to_basis().len() * ctx.n(), |converted| {
            raise_digit_lazy(ctx, &d_coeff, level, j, converted);
            acc.mac_digit(j, converted, key);
        });
    }
    acc.finish()
}

/// The shared ModUp state of a rotation batch: engine stage 1 of one
/// input, stored for all `beta` digits — each digit's converted rows
/// base-converted and NTT'd once, held in the lazy `[0, 2p)` evaluation
/// window, *before* the per-rotation automorphism — next to the
/// evaluation-form input rows every digit takes its own limbs from.
///
/// A linear layer that applies `k` rotations to one ciphertext pays
/// for Decompose + ModUp + the `beta * ext_limbs - (l+1)` digit NTTs
/// once via [`hoist_rotations`], then runs only the per-rotation stages
/// (automorphism → inner product → ModDown) `k` times via
/// [`key_switch_galois_hoisted`]. This works because the eval-form
/// automorphism is a pure slot permutation that commutes with the
/// shared raise — the same commutation [`key_switch_galois`] already
/// exploits per rotation.
#[derive(Debug, Clone)]
pub struct HoistedRotations {
    level: usize,
    /// The input's `(level + 1) * n` evaluation-form words.
    own: Vec<u64>,
    /// `digits[j]`: the `(ext_limbs - |digit j|) * n` lazy
    /// evaluation-form words of raised digit `j`'s converted rows.
    digits: Vec<Vec<u64>>,
}

impl HoistedRotations {
    /// The ciphertext level the digits were raised at.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Number of raised digits (`beta`).
    pub fn digit_count(&self) -> usize {
        self.digits.len()
    }
}

/// Computes the hoisted ModUp state of `d` (evaluation form, at
/// `level`): engine stage 1 for every digit, stored instead of
/// consumed. The result feeds any number of
/// [`key_switch_galois_hoisted`] calls.
///
/// # Panics
///
/// As [`key_switch`].
pub fn hoist_rotations(ctx: &CkksContext, d: &RnsPoly, level: usize) -> HoistedRotations {
    let d_coeff = input_to_coeff(ctx, d, level);
    let raise = |(j, digit): (usize, &DigitPrecomp)| {
        let mut converted = vec![0u64; digit.mod_up.to_basis().len() * ctx.n()];
        raise_digit_lazy(ctx, &d_coeff, level, j, &mut converted);
        converted
    };
    let precomp = ctx.keyswitch_precomp(level);
    let digits = precomp.digits.iter().enumerate().map(raise).collect();
    HoistedRotations {
        level,
        own: d.flat().to_vec(),
        digits,
    }
}

/// The per-rotation stages of the hoisted pipeline: engine stages 2–3
/// over the stored digits — slot-permute each by `sigma_g`, run the
/// inner product against the Galois key rows, and finish.
///
/// Bit-identical to [`key_switch_galois`] on the same `(d, g, key)`
/// because it *is* the same stages on the same digit words; the digits
/// are merely not recomputed per rotation. Asserted against the strict
/// oracle by the suite below and `tests/lazy_chains.rs`, and per
/// backend by `tests/backend_identity.rs`.
///
/// # Panics
///
/// Panics if `g` is even or `key` does not cover `hoisted.level()`.
pub fn key_switch_galois_hoisted(
    ctx: &CkksContext,
    hoisted: &HoistedRotations,
    g: u64,
    key: &SwitchingKey,
) -> (RnsPoly, RnsPoly) {
    let mut acc = LazyAccumulators::new(ctx, hoisted.level, &hoisted.own, Some(g));
    for (j, converted) in hoisted.digits.iter().enumerate() {
        acc.mac_digit(j, converted, key);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use fhe_math::{sampler, ReductionState};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Keyswitching d with the relin key must produce (ks0, ks1) with
    /// ks0 + ks1*s ≈ d*s^2 — the defining property.
    #[test]
    fn keyswitch_defining_property() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(51);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&sk, &mut rng);

        for level in [ctx.params().max_level(), 1, 0] {
            let basis = ctx.level_basis(level).clone();
            // Random "ciphertext part" d, uniform over the basis.
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            let d = RnsPoly::from_flat(basis.clone(), flat, Representation::Eval);

            let (ks0, ks1) = key_switch(&ctx, &d, &rlk, level);

            let s = sk.poly_at_level(&ctx, level);
            let mut s2 = s.clone();
            s2.mul_assign_pointwise(&s);

            // lhs = ks0 + ks1*s, rhs = d*s^2; difference must be small.
            let mut lhs = ks1.clone();
            lhs.mul_assign_pointwise(&s);
            lhs.add_assign(&ks0);
            let mut rhs = d.clone();
            rhs.mul_assign_pointwise(&s2);
            lhs.sub_assign(&rhs);
            lhs.to_coeff();
            let err = lhs.to_centered_f64();
            let max_err = err.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
            // Noise bound: beta * N * sigma * D/P plus ModDown rounding.
            // Empirically tiny; assert a comfortable margin well below the
            // scale (2^30).
            assert!(
                max_err < 2f64.powi(20),
                "keyswitch noise too large at level {level}: {max_err}"
            );
            assert!(
                max_err > 0.0,
                "suspiciously exact keyswitch at level {level}"
            );
        }
    }

    /// Galois keyswitching: rotating c1 and switching must track the
    /// rotated secret.
    #[test]
    fn galois_keyswitch_property() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(52);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        let gk = kg.galois_key(&sk, g, &mut rng);

        let level = 1;
        let basis = ctx.level_basis(level).clone();
        let mut flat = Vec::with_capacity(basis.len() * ctx.n());
        for m in basis.moduli() {
            flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
        }
        let d = RnsPoly::from_flat(basis, flat, Representation::Eval);
        let (ks0, ks1) = key_switch(&ctx, &d, &gk, level);

        let s = sk.poly_at_level(&ctx, level);
        let mut s_g = s.clone();
        s_g.automorphism(g, ctx.galois());

        let mut lhs = ks1.clone();
        lhs.mul_assign_pointwise(&s);
        lhs.add_assign(&ks0);
        let mut rhs = d.clone();
        rhs.mul_assign_pointwise(&s_g);
        lhs.sub_assign(&rhs);
        lhs.to_coeff();
        let max_err = lhs
            .to_centered_f64()
            .iter()
            .fold(0.0f64, |a, &b| a.max(b.abs()));
        assert!(max_err < 2f64.powi(20), "galois keyswitch noise: {max_err}");
    }

    /// The hoisted Galois keyswitch must satisfy the same defining
    /// property as rotating first: `ks0 + ks1*s ≈ sigma_g(d) * sigma_g(s)`
    /// — the automorphism hoisted past decompose/ModUp changes only the
    /// BConv-overshoot noise realisation, not the phase.
    #[test]
    fn hoisted_galois_keyswitch_property() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(54);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        for r in [1i64, -1, 3] {
            let g = fhe_math::galois::rotation_galois_element(r, ctx.n());
            let gk = kg.galois_key(&sk, g, &mut rng);

            let level = ctx.params().max_level();
            let basis = ctx.level_basis(level).clone();
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            let d = RnsPoly::from_flat(basis, flat, Representation::Eval);
            let (ks0, ks1) = key_switch_galois(&ctx, &d, g, &gk, level);

            let s = sk.poly_at_level(&ctx, level);
            let mut s_g = s.clone();
            s_g.automorphism(g, ctx.galois());
            let mut d_g = d.clone();
            d_g.automorphism(g, ctx.galois());

            let mut lhs = ks1.clone();
            lhs.mul_assign_pointwise(&s);
            lhs.add_assign(&ks0);
            let mut rhs = d_g;
            rhs.mul_assign_pointwise(&s_g);
            lhs.sub_assign(&rhs);
            lhs.to_coeff();
            let max_err = lhs
                .to_centered_f64()
                .iter()
                .fold(0.0f64, |a, &b| a.max(b.abs()));
            assert!(
                max_err < 2f64.powi(20),
                "hoisted galois keyswitch noise for r={r}: {max_err}"
            );
        }
    }

    /// Both tiers of the Galois pipeline — lazy engine and strict
    /// oracle — are bit-identical: the rotation-chain counterpart of the
    /// plain keyswitch assertions in `tests/lazy_chains.rs`. At the top
    /// level a key row is one contiguous run; one below it the MAC reads
    /// two segments of the row and the last digit is cut short.
    #[test]
    fn galois_keyswitch_tiers_bit_identical() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(55);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        let gk = kg.galois_key(&sk, g, &mut rng);
        let max_level = ctx.params().max_level();
        for level in [max_level, max_level - 1, 0] {
            let basis = ctx.level_basis(level).clone();
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            let d = RnsPoly::from_flat(basis, flat, Representation::Eval);
            let (l0, l1) = key_switch_galois(&ctx, &d, g, &gk, level);
            let (s0, s1) = key_switch_galois_strict(&ctx, &d, g, &gk, level);
            assert_eq!(l0.flat(), s0.flat(), "lazy vs strict ks0, level {level}");
            assert_eq!(l1.flat(), s1.flat(), "lazy vs strict ks1, level {level}");
            assert_eq!(l0.reduction_state(), ReductionState::Canonical);
            assert_eq!(l1.reduction_state(), ReductionState::Canonical);
        }
    }

    /// One [`hoist_rotations`] call must serve every rotation in a
    /// batch, each output bitwise identical to the strict oracle (the
    /// independent reference: hoisted and fused paths are one engine)
    /// and to the fused [`key_switch_galois`] — the digits are shared,
    /// not recomputed, and sharing must not change a bit.
    #[test]
    fn hoisted_rotations_bit_identical_to_sequential() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(56);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        for level in [ctx.params().max_level(), 0] {
            let basis = ctx.level_basis(level).clone();
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            let d = RnsPoly::from_flat(basis, flat, Representation::Eval);

            let hoisted = hoist_rotations(&ctx, &d, level);
            assert_eq!(hoisted.level(), level);
            assert!(hoisted.digit_count() >= 1);

            for r in [1i64, -1, 2, 3] {
                let g = fhe_math::galois::rotation_galois_element(r, ctx.n());
                let gk = kg.galois_key(&sk, g, &mut rng);
                let (h0, h1) = key_switch_galois_hoisted(&ctx, &hoisted, g, &gk);
                let strict = key_switch_galois_strict(&ctx, &d, g, &gk, level);
                let fused = key_switch_galois(&ctx, &d, g, &gk, level);
                for (s0, s1) in [strict, fused] {
                    assert_eq!(h0.flat(), s0.flat(), "ks0 r={r} level={level}");
                    assert_eq!(h1.flat(), s1.flat(), "ks1 r={r} level={level}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn wrong_level_rejected() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(53);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&sk, &mut rng);
        let d = RnsPoly::zero(ctx.level_basis(1).clone(), Representation::Eval);
        let _ = key_switch(&ctx, &d, &rlk, 2);
    }
}
