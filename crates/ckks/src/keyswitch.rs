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
//! 5. **iNTT**, then **ModDown**: subtract the `P`-part's base conversion
//!    and multiply by `P^{-1}`.
//!
//! # Two tiers: one lazy engine, one strict oracle
//!
//! Every production entry point is the same lazy-chain engine. It keeps
//! steps 3–5 in the redundant `[0, 2p)` window — lazy-exit digit NTTs,
//! `IP` accumulators lazy across all `beta` digits, a lazy-exit iNTT —
//! and canonicalises *once* per accumulator limb at the ModDown
//! boundary (BConv needs true `[0, p)` representatives), mirroring how
//! Trinity/FAB pipelines keep operands in redundant form between
//! butterfly and MAC stages and only fully reduce at memory writeback.
//! For the Galois variants the automorphism rides the same chain,
//! applied to the raised digits in evaluation form, where it is a pure,
//! reduction-agnostic slot permutation.
//!
//! The engine is **batch-first**: `k` jobs that share geometry (ring
//! degree, level, Galois element — keys may differ per job, e.g. per
//! tenant) go through one pipeline whose kernel dispatches carry all
//! `k` jobs' limb rows at once, so [`fhe_math::ThreadedBackend`] sees
//! `k`-fold wider batches even at small `L`. [`key_switch`] and
//! [`key_switch_galois`] are its `k = 1` instances. Batching
//! concatenates rows and never changes a per-row kernel, which is why
//! coalesced results are bit-identical to per-request execution.
//!
//! It runs in three stages: (1) *raise* — `inputs_to_coeff` once, then
//! `raise_digit_lazy` per digit (Decompose + ModUp + lazy NTT);
//! (2) *accumulate* — `LazyAccumulators::mac_digit` per digit ((permute
//! +) lazy MAC against every job's key row); (3) *finish* —
//! `LazyAccumulators::finish` (lazy iNTT → one fold → ModDown →
//! canonical NTT). The fused entry points interleave stages 1–2 digit
//! by digit over one reused buffer. **Rotation hoisting is a stage
//! split, not another pipeline**: [`hoist_rotations`] is stage 1 stored
//! for all `beta` digits and [`key_switch_galois_hoisted`] is stages
//! 2–3 over the stored digits, so a linear layer applying many
//! rotations to one ciphertext pays for the raise once.
//!
//! [`key_switch_strict`] / [`key_switch_galois_strict`] are the
//! straight-line fully-canonical oracle. `tests/lazy_chains.rs` asserts
//! engine and oracle bit-identical across every workspace modulus
//! shape, and `tests/backend_identity.rs` across kernel backends.

use std::sync::Arc;

use fhe_math::kernel::{self, ExitFold};
use fhe_math::{Modulus, NttTable, Representation, RnsBasis, RnsPoly};

use crate::context::CkksContext;
use crate::keys::SwitchingKey;

/// Applies hybrid keyswitching to a polynomial `d` (evaluation form, at
/// `level`), producing the pair `(ks0, ks1)` such that
/// `ks0 + ks1 * s_to ≈ d * s_from` — both in evaluation form at `level`.
///
/// The `k = 1` instance of the lazy engine (see the module docs).
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
    let mut out = key_switch_coalesced_impl(ctx, &[KsJob { d, key }], level, None);
    out.pop().expect("one job in, one result out")
}

/// Galois keyswitch: applies the automorphism `sigma_g` *inside* the
/// keyswitch pipeline, to the raised digits in evaluation form —
/// digit NTT → automorphism → inner product → iNTT, entirely in the
/// `[0, 2p)` window, with one fold per limb at ModDown.
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
    let mut out = key_switch_coalesced_impl(ctx, &[KsJob { d, key }], level, Some(g));
    out.pop().expect("one job in, one result out")
}

/// One request of a coalesced keyswitch batch: the evaluation-form
/// polynomial to switch and the switching key to apply. Keys may
/// differ per job (different tenants); the geometry — ring degree,
/// level, and for the Galois variant the Galois element — must be
/// shared across the batch, because that is what lets all `k` jobs ride
/// one kernel dispatch.
#[derive(Debug, Clone, Copy)]
pub struct KsJob<'a> {
    /// The polynomial to keyswitch (evaluation form, `level + 1` limbs).
    pub d: &'a RnsPoly,
    /// The switching key (relinearisation or Galois) for this job.
    pub key: &'a SwitchingKey,
}

/// Runs `k` independent [`key_switch`] jobs through one coalesced
/// pipeline: every kernel dispatch (input iNTT, digit NTTs, inner
/// products, accumulator iNTT, fold, output NTT) carries all `k` jobs'
/// limb rows at once. Output `i` is bit-identical to
/// `key_switch(ctx, jobs[i].d, jobs[i].key, level)` — the per-row
/// kernels are unchanged, only the batch width grows.
///
/// # Panics
///
/// As [`key_switch`], per job.
pub fn key_switch_coalesced(
    ctx: &CkksContext,
    jobs: &[KsJob<'_>],
    level: usize,
) -> Vec<(RnsPoly, RnsPoly)> {
    key_switch_coalesced_impl(ctx, jobs, level, None)
}

/// The Galois form of [`key_switch_coalesced`]: `k` independent
/// rotations by the *same* Galois element `g` (per-job keys, e.g. one
/// per tenant), coalesced into one pipeline. Output `i` is
/// bit-identical to `key_switch_galois(ctx, jobs[i].d, g, jobs[i].key,
/// level)`.
///
/// # Panics
///
/// As [`key_switch_galois`], per job.
pub fn key_switch_galois_coalesced(
    ctx: &CkksContext,
    jobs: &[KsJob<'_>],
    g: u64,
    level: usize,
) -> Vec<(RnsPoly, RnsPoly)> {
    key_switch_coalesced_impl(ctx, jobs, level, Some(g))
}

/// The fully-canonical strict oracle of [`key_switch_galois`]: same
/// dataflow, fully-reduced transforms and canonical kernels throughout.
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

/// Decompose + ModUp of digit `j`, shared by the oracle and the engine:
/// reads the canonical coefficient-form limb rows of one input
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

/// ModDown of one accumulator, shared by the oracle and the engine:
/// reads its canonical coefficient-form rows over `C_l ∪ P`
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
        let inv = precomp.p_inv_mod_q[i];
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

/// Repeats the per-limb slice `once` back to back `k` times — the
/// row-metadata side of widening a kernel dispatch from one job's limb
/// rows to a whole batch's.
fn repeat_rows<T: Copy>(once: &[T], k: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(once.len() * k);
    for _ in 0..k {
        out.extend_from_slice(once);
    }
    out
}

/// The NTT tables of `basis`, repeated for `k` jobs' limb rows.
fn table_rows(basis: &RnsBasis, k: usize) -> Vec<&NttTable> {
    let once: Vec<&NttTable> = basis.tables().iter().map(|t| t.as_ref()).collect();
    repeat_rows(&once, k)
}

/// Engine stage 1a: the canonical coefficient-form limb rows of every
/// input, job after job. Decompose needs true `[0, p)` representatives,
/// so the batched input iNTT exits canonically — one dispatch over all
/// `k * (l+1)` rows.
///
/// # Panics
///
/// Panics if an input is not in evaluation form at `level`.
fn inputs_to_coeff<'a>(
    ctx: &CkksContext,
    inputs: impl ExactSizeIterator<Item = &'a RnsPoly>,
    level: usize,
) -> Vec<u64> {
    let k = inputs.len();
    let mut d_coeff = Vec::with_capacity(k * (level + 1) * ctx.n());
    for d in inputs {
        assert_eq!(d.representation(), Representation::Eval);
        assert_eq!(d.limbs(), level + 1, "polynomial level mismatch");
        d_coeff.extend_from_slice(d.flat());
    }
    kernel::active().inverse_batch(
        &table_rows(ctx.level_basis(level), k),
        &mut d_coeff,
        ExitFold::Canonical,
    );
    d_coeff
}

/// Engine stage 1b: raises digit `j` of every job in `d_coeff` into
/// `out` (appending `k * ext_limbs * n` words) and NTTs all those rows
/// with one lazy-exit dispatch, leaving them in the `[0, 2p)` window.
fn raise_digit_lazy(
    ctx: &CkksContext,
    d_coeff: &[u64],
    level: usize,
    j: usize,
    out: &mut Vec<u64>,
) {
    let inputs = d_coeff.chunks_exact((level + 1) * ctx.n());
    let ext_tables_k = table_rows(ctx.extended_basis(level), inputs.len());
    for d_flat in inputs {
        raise_digit_into(ctx, d_flat, level, j, out);
    }
    kernel::active().forward_batch(&ext_tables_k, out, ExitFold::Lazy2p);
}

/// Engine stages 2 and 3: the lazy inner-product accumulators of `k`
/// jobs. Both accumulators live in one buffer (acc0 rows for all jobs,
/// then acc1 rows for all jobs) so the tail iNTT + fold are single
/// dispatches over `2k * ext_limbs` rows.
struct LazyAccumulators<'a> {
    ctx: &'a CkksContext,
    level: usize,
    k: usize,
    acc_all: Vec<u64>,
    ext_moduli_k: Vec<Modulus>,
    /// The eval-form slot permutation of the Galois variants, with its
    /// `k * ext_limbs * n`-word gather target.
    perm: Option<(Arc<Vec<usize>>, Vec<u64>)>,
    b_buf: Vec<u64>,
    a_buf: Vec<u64>,
}

impl<'a> LazyAccumulators<'a> {
    /// Zeroed accumulators for `k` jobs at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `galois` holds an even element.
    fn new(ctx: &'a CkksContext, level: usize, k: usize, galois: Option<u64>) -> Self {
        let ext_basis = ctx.extended_basis(level);
        let words = k * ext_basis.len() * ctx.n();
        Self {
            ctx,
            level,
            k,
            acc_all: vec![0u64; 2 * words],
            ext_moduli_k: repeat_rows(ext_basis.moduli(), k),
            perm: galois.map(|g| (ctx.galois().eval_permutation(g), vec![0u64; words])),
            b_buf: Vec::with_capacity(words),
            a_buf: Vec::with_capacity(words),
        }
    }

    /// Stage 2 for digit `j`: `digit` holds every job's raised digit
    /// (lazy evaluation form). The automorphism, when present, is a
    /// pure slot permutation that preserves the `[0, 2p)` window — one
    /// gather over the batch — then one lazy MAC dispatch per
    /// accumulator multiplies all `k * ext_limbs` rows against each
    /// job's key row for this digit.
    fn mac_digit<'k>(
        &mut self,
        j: usize,
        digit: &[u64],
        keys: impl Iterator<Item = &'k SwitchingKey>,
    ) {
        let digit = match &mut self.perm {
            Some((perm, perm_buf)) => {
                kernel::active().permute_batch(perm.as_slice(), digit, perm_buf);
                perm_buf.as_slice()
            }
            None => digit,
        };
        self.b_buf.clear();
        self.a_buf.clear();
        for key in keys {
            let (b_j, a_j) = key.row_at_level(self.ctx, j, self.level);
            self.b_buf.extend_from_slice(b_j.flat());
            self.a_buf.extend_from_slice(a_j.flat());
        }
        let (acc0, acc1) = self.acc_all.split_at_mut(digit.len());
        kernel::active().mul_acc_lazy_batch(&self.ext_moduli_k, acc0, digit, &self.b_buf);
        kernel::active().mul_acc_lazy_batch(&self.ext_moduli_k, acc1, digit, &self.a_buf);
    }

    /// Stage 3: lazy-exit iNTT over both accumulators of every job, the
    /// chain's single deferred `[0, 2p) → [0, p)` fold per limb,
    /// ModDown per accumulator, and one canonical-exit NTT over all
    /// `2k * (l+1)` output rows — then the split into per-job
    /// `(ks0, ks1)` pairs.
    fn finish(mut self) -> Vec<(RnsPoly, RnsPoly)> {
        let (ctx, level, k) = (self.ctx, self.level, self.k);
        let ext_basis = ctx.extended_basis(level);
        let level_basis = ctx.level_basis(level);
        kernel::active().inverse_batch(
            &table_rows(ext_basis, 2 * k),
            &mut self.acc_all,
            ExitFold::Lazy2p,
        );
        kernel::active()
            .fold_2p_to_canonical_batch(&repeat_rows(ext_basis.moduli(), 2 * k), &mut self.acc_all);

        let stride = level_basis.len() * ctx.n();
        let mut out_all = Vec::with_capacity(2 * k * stride);
        for acc in self.acc_all.chunks_exact(ext_basis.len() * ctx.n()) {
            mod_down_into(ctx, acc, level, &mut out_all);
        }
        kernel::active().forward_batch(
            &table_rows(level_basis, 2 * k),
            &mut out_all,
            ExitFold::Canonical,
        );

        // Job i's ks0 rows sit at chunk i, its ks1 rows at chunk k + i.
        let poly = |chunk: usize| {
            RnsPoly::from_flat(
                level_basis.clone(),
                out_all[chunk * stride..(chunk + 1) * stride].to_vec(),
                Representation::Eval,
            )
        };
        (0..k).map(|i| (poly(i), poly(k + i))).collect()
    }
}

/// The lazy engine, fused: all `jobs` — same `ctx`/`level`/`galois`
/// geometry, per-job inputs and keys — go through the three stages with
/// stages 1–2 interleaved digit by digit over one reused buffer, so the
/// working set holds a single raised digit per job.
fn key_switch_coalesced_impl(
    ctx: &CkksContext,
    jobs: &[KsJob<'_>],
    level: usize,
    galois: Option<u64>,
) -> Vec<(RnsPoly, RnsPoly)> {
    if jobs.is_empty() {
        return Vec::new();
    }
    let k = jobs.len();
    let d_coeff = inputs_to_coeff(ctx, jobs.iter().map(|job| job.d), level);
    let mut acc = LazyAccumulators::new(ctx, level, k, galois);
    let mut digit_buf = Vec::with_capacity(k * ctx.extended_basis(level).len() * ctx.n());
    for j in 0..ctx.keyswitch_precomp(level).digits.len() {
        digit_buf.clear();
        raise_digit_lazy(ctx, &d_coeff, level, j, &mut digit_buf);
        acc.mac_digit(j, &digit_buf, jobs.iter().map(|job| job.key));
    }
    acc.finish()
}

/// The shared ModUp state of a rotation batch: engine stage 1 of one
/// input, stored for all `beta` digits — each raised to the extended
/// basis and NTT'd once, held in the lazy `[0, 2p)` evaluation window,
/// *before* the per-rotation automorphism.
///
/// A linear layer that applies `k` rotations to one ciphertext pays
/// for Decompose + ModUp + the `beta * ext_limbs` digit NTTs once via
/// [`hoist_rotations`], then runs only the per-rotation stages
/// (automorphism → inner product → iNTT → ModDown) `k` times via
/// [`key_switch_galois_hoisted`]. This works because the eval-form
/// automorphism is a pure slot permutation that commutes with the
/// shared raise — the same commutation [`key_switch_galois`] already
/// exploits per rotation.
#[derive(Debug, Clone)]
pub struct HoistedRotations {
    level: usize,
    /// `digits[j]`: the `ext_limbs * n` lazy evaluation-form words of
    /// raised digit `j`.
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
    let d_coeff = inputs_to_coeff(ctx, std::iter::once(d), level);
    let digits = (0..ctx.keyswitch_precomp(level).digits.len())
        .map(|j| {
            let mut raised = Vec::with_capacity(ctx.extended_basis(level).len() * ctx.n());
            raise_digit_lazy(ctx, &d_coeff, level, j, &mut raised);
            raised
        })
        .collect();
    HoistedRotations { level, digits }
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
    let mut acc = LazyAccumulators::new(ctx, hoisted.level, 1, Some(g));
    for (j, digit) in hoisted.digits.iter().enumerate() {
        acc.mac_digit(j, digit, std::iter::once(key));
    }
    acc.finish().pop().expect("one job in, one result out")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use fhe_math::{sampler, ReductionState};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

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
    /// plain keyswitch assertions in `tests/lazy_chains.rs`.
    #[test]
    fn galois_keyswitch_tiers_bit_identical() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(55);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        let gk = kg.galois_key(&sk, g, &mut rng);
        for level in [ctx.params().max_level(), 0] {
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

    /// Coalescing k independent keyswitch jobs (distinct inputs AND
    /// distinct keys, as cross-tenant coalescing produces) must leave
    /// every output bitwise identical to its own sequential call —
    /// batching widens kernel dispatches, it never changes a per-row
    /// kernel.
    #[test]
    fn coalesced_keyswitch_bit_identical_to_sequential() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(57);
        let kg = KeyGenerator::new(ctx.clone());
        for level in [ctx.params().max_level(), 0] {
            let basis = ctx.level_basis(level).clone();
            let mut ds = Vec::new();
            let mut keys = Vec::new();
            for _ in 0..3 {
                let sk = kg.secret_key(&mut rng);
                keys.push(kg.relin_key(&sk, &mut rng));
                let mut flat = Vec::with_capacity(basis.len() * ctx.n());
                for m in basis.moduli() {
                    flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
                }
                ds.push(RnsPoly::from_flat(
                    basis.clone(),
                    flat,
                    Representation::Eval,
                ));
            }
            let jobs: Vec<KsJob<'_>> = ds
                .iter()
                .zip(&keys)
                .map(|(d, key)| KsJob { d, key })
                .collect();
            let coalesced = key_switch_coalesced(&ctx, &jobs, level);
            assert_eq!(coalesced.len(), jobs.len());
            for (i, (job, (c0, c1))) in jobs.iter().zip(&coalesced).enumerate() {
                let (s0, s1) = key_switch(&ctx, job.d, job.key, level);
                assert_eq!(c0.flat(), s0.flat(), "ks0 job {i} level {level}");
                assert_eq!(c1.flat(), s1.flat(), "ks1 job {i} level {level}");
                assert_eq!(c0.reduction_state(), ReductionState::Canonical);
                assert_eq!(c0.representation(), Representation::Eval);
            }
        }
    }

    /// The Galois form of the same guarantee: k rotations by one
    /// element under per-job keys, coalesced, each output bit-identical
    /// to its sequential `key_switch_galois` (and hence to the strict
    /// oracle, by `galois_keyswitch_tiers_bit_identical`).
    #[test]
    fn coalesced_galois_keyswitch_bit_identical_to_sequential() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(58);
        let kg = KeyGenerator::new(ctx.clone());
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        let level = ctx.params().max_level();
        let basis = ctx.level_basis(level).clone();
        let mut ds = Vec::new();
        let mut keys = Vec::new();
        for _ in 0..4 {
            let sk = kg.secret_key(&mut rng);
            keys.push(kg.galois_key(&sk, g, &mut rng));
            let mut flat = Vec::with_capacity(basis.len() * ctx.n());
            for m in basis.moduli() {
                flat.extend(sampler::uniform_residues(&mut rng, m, ctx.n()));
            }
            ds.push(RnsPoly::from_flat(
                basis.clone(),
                flat,
                Representation::Eval,
            ));
        }
        let jobs: Vec<KsJob<'_>> = ds
            .iter()
            .zip(&keys)
            .map(|(d, key)| KsJob { d, key })
            .collect();
        let coalesced = key_switch_galois_coalesced(&ctx, &jobs, g, level);
        for (i, (job, (c0, c1))) in jobs.iter().zip(&coalesced).enumerate() {
            let (s0, s1) = key_switch_galois(&ctx, job.d, g, job.key, level);
            assert_eq!(c0.flat(), s0.flat(), "ks0 job {i}");
            assert_eq!(c1.flat(), s1.flat(), "ks1 job {i}");
        }
        // An empty batch is a no-op, not a panic.
        assert!(key_switch_galois_coalesced(&ctx, &[], g, level).is_empty());
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

    // Arc import used by helper signatures in sibling tests.
    #[allow(dead_code)]
    fn _keep(_: Arc<CkksContext>) {}
}
