//! Homomorphic operations — the paper's Table II reconstruction model.
//!
//! | Operation | Composing kernels (paper)             |
//! |-----------|----------------------------------------|
//! | HMult     | NTT, BConv, IP, ModMul, ModAdd        |
//! | PMult     | ModMul, ModAdd                        |
//! | HRotate   | NTT, BConv, IP, ModMul, ModAdd, Auto  |
//! | HAdd      | ModAdd                                |
//! | PAdd      | ModAdd                                |
//! | Rescale   | NTT, ModAdd                           |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fhe_math::kernel::{self, ExitFold};
use fhe_math::pool::{self, WorkerPool};
use fhe_math::{scratch, Representation, RnsPoly};

use crate::ciphertext::{Ciphertext, Ciphertext3};
use crate::context::CkksContext;
use crate::encoding::Plaintext;
use crate::keys::SwitchingKey;
use crate::keyswitch::{
    hoist_rotations, key_switch, key_switch_galois, key_switch_galois_hoisted,
    key_switch_galois_strict, key_switch_strict, sub_scale_into, table_rows, HoistedRotations,
};

/// Relative scale mismatch tolerated by additive operations.
const SCALE_TOLERANCE: f64 = 1e-6;

/// Running totals of the homomorphic operations an [`Evaluator`] has
/// performed — the functional layer's own Table II accounting, used to
/// pin the performance model's operation counts to what the real
/// implementation executes.
#[derive(Debug, Default)]
pub struct OpCounters {
    /// Ciphertext-ciphertext multiplications (HMult tensor products).
    pub ct_mults: AtomicU64,
    /// Plaintext multiplications (PMult).
    pub pt_mults: AtomicU64,
    /// Rescales.
    pub rescales: AtomicU64,
    /// Keyswitches (relinearisations + Galois applications).
    pub keyswitches: AtomicU64,
    /// Galois applications (rotations and conjugations).
    pub galois_ops: AtomicU64,
    /// Ciphertext additions/subtractions.
    pub additions: AtomicU64,
}

impl OpCounters {
    /// Snapshot as plain integers `(ct_mults, pt_mults, rescales,
    /// keyswitches, galois_ops, additions)`.
    pub fn snapshot(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.ct_mults.load(Ordering::Relaxed),
            self.pt_mults.load(Ordering::Relaxed),
            self.rescales.load(Ordering::Relaxed),
            self.keyswitches.load(Ordering::Relaxed),
            self.galois_ops.load(Ordering::Relaxed),
            self.additions.load(Ordering::Relaxed),
        )
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.ct_mults.store(0, Ordering::Relaxed);
        self.pt_mults.store(0, Ordering::Relaxed);
        self.rescales.store(0, Ordering::Relaxed);
        self.keyswitches.store(0, Ordering::Relaxed);
        self.galois_ops.store(0, Ordering::Relaxed);
        self.additions.store(0, Ordering::Relaxed);
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Evaluator for homomorphic CKKS operations.
#[derive(Debug)]
pub struct Evaluator {
    ctx: Arc<CkksContext>,
    counters: OpCounters,
}

impl Evaluator {
    /// Creates an evaluator for a context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self {
            ctx,
            counters: OpCounters::default(),
        }
    }

    /// The bound context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The running operation counters.
    pub fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn assert_compatible(&self, a: &Ciphertext, b: &Ciphertext) {
        assert_eq!(
            a.level, b.level,
            "level mismatch: {} vs {}",
            a.level, b.level
        );
        let rel = (a.scale - b.scale).abs() / a.scale;
        assert!(
            rel < SCALE_TOLERANCE,
            "scale mismatch: {} vs {}",
            a.scale,
            b.scale
        );
    }

    /// HAdd: ciphertext addition.
    ///
    /// # Panics
    ///
    /// Panics on level or scale mismatch.
    pub fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.assert_compatible(a, b);
        OpCounters::bump(&self.counters.additions);
        let mut out = a.clone();
        out.c0.add_assign(&b.c0);
        out.c1.add_assign(&b.c1);
        out
    }

    /// Ciphertext subtraction.
    ///
    /// # Panics
    ///
    /// Panics on level or scale mismatch.
    pub fn sub(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext {
        self.assert_compatible(a, b);
        OpCounters::bump(&self.counters.additions);
        let mut out = a.clone();
        out.c0.sub_assign(&b.c0);
        out.c1.sub_assign(&b.c1);
        out
    }

    /// Negation.
    pub fn negate(&self, a: &Ciphertext) -> Ciphertext {
        let mut out = a.clone();
        out.c0.neg_assign();
        out.c1.neg_assign();
        out
    }

    /// PAdd: add a plaintext.
    ///
    /// # Panics
    ///
    /// Panics on level or scale mismatch.
    pub fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert_eq!(a.level, pt.level, "plaintext level mismatch");
        let rel = (a.scale - pt.scale).abs() / a.scale;
        assert!(rel < SCALE_TOLERANCE, "plaintext scale mismatch");
        let mut out = a.clone();
        out.c0.add_assign(&pt.poly);
        out
    }

    /// Subtract a plaintext.
    ///
    /// # Panics
    ///
    /// Panics on level or scale mismatch.
    pub fn sub_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert_eq!(a.level, pt.level, "plaintext level mismatch");
        let rel = (a.scale - pt.scale).abs() / a.scale;
        assert!(rel < SCALE_TOLERANCE, "plaintext scale mismatch");
        let mut out = a.clone();
        out.c0.sub_assign(&pt.poly);
        out
    }

    /// PMult: multiply by a plaintext (scales multiply; rescale after).
    ///
    /// # Panics
    ///
    /// Panics on level mismatch.
    pub fn mul_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Ciphertext {
        assert_eq!(a.level, pt.level, "plaintext level mismatch");
        OpCounters::bump(&self.counters.pt_mults);
        let mut out = a.clone();
        out.c0.mul_assign_pointwise(&pt.poly);
        out.c1.mul_assign_pointwise(&pt.poly);
        out.scale = a.scale * pt.scale;
        out
    }

    /// PAdd of the constant `c` in every slot, at the ciphertext's own
    /// scale.
    ///
    /// A constant polynomial is that constant in every evaluation-form
    /// word, so this is one scalar add of `round(c * a.scale) mod q_i`
    /// per limb of `c0`: no encode, no NTT. Bit-identical to
    /// [`Self::add_plain`] of the polynomial `[round(c * a.scale), 0, ...]`.
    ///
    /// # Panics
    ///
    /// Panics if `|c * a.scale|` is not below `2^127`.
    pub fn add_const(&self, a: &Ciphertext, c: f64) -> Ciphertext {
        let residues = self.const_residues(c * a.scale, a.level);
        let mut out = a.clone();
        out.c0.add_scalar_residues(&residues);
        out
    }

    /// PMult by the constant `c` in every slot, encoded at `scale`: one
    /// scalar multiply of both components by `round(c * scale) mod q_i`
    /// per limb. The scales multiply, as in [`Self::mul_plain`], and the
    /// words are those of [`Self::mul_plain`] by the polynomial
    /// `[round(c * scale), 0, ...]`.
    ///
    /// # Panics
    ///
    /// Panics if `|c * scale|` is not below `2^127`.
    pub fn mul_const(&self, a: &Ciphertext, c: f64, scale: f64) -> Ciphertext {
        OpCounters::bump(&self.counters.pt_mults);
        let residues = self.const_residues(c * scale, a.level);
        let mut out = a.clone();
        out.c0.mul_scalar_residues(&residues);
        out.c1.mul_scalar_residues(&residues);
        out.scale = a.scale * scale;
        out
    }

    /// `round(v) mod q_i` for every limb at `level`. The magnitude is
    /// reduced as a `u128`: constants added at a pre-rescale scale
    /// (`Delta * q_l`, about `2^100`) do not fit an `i64`.
    fn const_residues(&self, v: f64, level: usize) -> Vec<u64> {
        assert!(v.abs() < 2f64.powi(127), "constant {v} overflows u128");
        let magnitude = v.abs().round() as u128;
        self.ctx
            .level_basis(level)
            .moduli()
            .iter()
            .map(|m| {
                let r = m.reduce_u128(magnitude);
                if v < 0.0 {
                    m.neg(r)
                } else {
                    r
                }
            })
            .collect()
    }

    /// Tensor product without relinearisation: returns the degree-2
    /// ciphertext `(d0, d1, d2)`.
    ///
    /// The tensor runs as a lazy residue chain on the components' flat
    /// buffers: the four pointwise products and the `d1` cross-term
    /// addition stay in the `[0, 2p)` window, and each component is
    /// folded once before it is returned, so the tensor is canonical.
    /// Bit-identical to [`Self::mul_no_relin_strict`].
    ///
    /// # Panics
    ///
    /// Panics on level or basis mismatch, or if a component is in
    /// coefficient form.
    pub fn mul_no_relin(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext3 {
        assert_eq!(a.level, b.level, "level mismatch");
        OpCounters::bump(&self.counters.ct_mults);
        let moduli = a.c0.basis().moduli();
        for c in [&a.c0, &a.c1, &b.c0, &b.c1] {
            assert_eq!(
                c.representation(),
                Representation::Eval,
                "tensor needs eval form"
            );
            assert_eq!(c.basis().moduli(), moduli, "RNS moduli mismatch");
        }
        let k = kernel::active();
        let product = |x: &RnsPoly, y: &RnsPoly| {
            let mut out = x.clone();
            k.mul_lazy_batch(moduli, out.flat_mut(), y.flat());
            out
        };
        let mut d0 = product(&a.c0, &b.c0);
        let mut d1 = product(&a.c0, &b.c1);
        k.add_lazy_batch(moduli, d1.flat_mut(), product(&a.c1, &b.c0).flat());
        let mut d2 = product(&a.c1, &b.c1);
        for d in [&mut d0, &mut d1, &mut d2] {
            k.fold_2p_to_canonical_batch(moduli, d.flat_mut());
        }
        Ciphertext3 {
            d0,
            d1,
            d2,
            level: a.level,
            scale: a.scale * b.scale,
        }
    }

    /// Strict-oracle tensor product: every kernel canonicalises. The
    /// reference the lazy tensor is asserted against in
    /// `tests/lazy_chains.rs`.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch.
    pub fn mul_no_relin_strict(&self, a: &Ciphertext, b: &Ciphertext) -> Ciphertext3 {
        assert_eq!(a.level, b.level, "level mismatch");
        OpCounters::bump(&self.counters.ct_mults);
        let mut d0 = a.c0.clone();
        d0.mul_assign_pointwise(&b.c0);
        let mut d1 = a.c0.clone();
        d1.mul_assign_pointwise(&b.c1);
        let mut d1b = a.c1.clone();
        d1b.mul_assign_pointwise(&b.c0);
        d1.add_assign(&d1b);
        let mut d2 = a.c1.clone();
        d2.mul_assign_pointwise(&b.c1);
        Ciphertext3 {
            d0,
            d1,
            d2,
            level: a.level,
            scale: a.scale * b.scale,
        }
    }

    /// Relinearises a degree-2 ciphertext with the relin key (the
    /// KeySwitch inside HMult): keyswitches `d2` and adds the canonical
    /// keyswitch output to `d0` / `d1`.
    pub fn relinearize(&self, ct: &Ciphertext3, rlk: &SwitchingKey) -> Ciphertext {
        let ks = key_switch(&self.ctx, &ct.d2, rlk, ct.level);
        self.assemble_relin(ct, ks)
    }

    /// Strict-oracle relinearisation over [`key_switch_strict`].
    pub fn relinearize_strict(&self, ct: &Ciphertext3, rlk: &SwitchingKey) -> Ciphertext {
        let ks = key_switch_strict(&self.ctx, &ct.d2, rlk, ct.level);
        self.assemble_relin(ct, ks)
    }

    /// The tail both relinearisations share: counts the keyswitch and
    /// adds its output pair `(ks0, ks1)` to `d0` / `d1`.
    fn assemble_relin(&self, ct: &Ciphertext3, (ks0, ks1): (RnsPoly, RnsPoly)) -> Ciphertext {
        OpCounters::bump(&self.counters.keyswitches);
        let mut c0 = ct.d0.clone();
        c0.add_assign(&ks0);
        let mut c1 = ct.d1.clone();
        c1.add_assign(&ks1);
        Ciphertext {
            c0,
            c1,
            level: ct.level,
            scale: ct.scale,
        }
    }

    /// HMult: full homomorphic multiplication (tensor + relinearise).
    /// The result has scale `scale_a * scale_b`; rescale afterwards.
    pub fn mul(&self, a: &Ciphertext, b: &Ciphertext, rlk: &SwitchingKey) -> Ciphertext {
        self.relinearize(&self.mul_no_relin(a, b), rlk)
    }

    /// Strict-oracle HMult: the fully-canonical pipeline
    /// ([`Self::mul_no_relin_strict`] + [`Self::relinearize_strict`]),
    /// bit-identical to [`Self::mul`].
    pub fn mul_strict(&self, a: &Ciphertext, b: &Ciphertext, rlk: &SwitchingKey) -> Ciphertext {
        self.relinearize_strict(&self.mul_no_relin_strict(a, b), rlk)
    }

    /// Rescale: divides by the top prime `q_l` with rounding, dropping
    /// one level.
    ///
    /// Runs in the evaluation domain under the keyswitch engine's rule —
    /// a limb leaves it only if something reads its coefficients. Only
    /// the dropped limb does (its centred lift into every remaining
    /// `q_i` is not linear), so per polynomial one row is iNTT'd, its
    /// `l` lifted copies are NTT'd back, and one pass computes
    /// `(c_i - r_i) * q_l^{-1} mod q_i` against limbs that were never
    /// transformed: `l + 1` NTT rows where the coefficient-domain form
    /// takes `2l + 1`, on the same canonical residues (the NTT is a
    /// `Z_q`-linear bijection).
    ///
    /// # Panics
    ///
    /// Panics at level 0 (nothing left to drop), or if a component is
    /// not in evaluation form.
    pub fn rescale(&self, a: &Ciphertext) -> Ciphertext {
        assert!(a.level > 0, "cannot rescale at level 0");
        OpCounters::bump(&self.counters.rescales);
        let new_level = a.level - 1;
        let q_last = self.ctx.level_basis(a.level).modulus(a.level).value();
        let c0 = self.rescale_poly(&a.c0, a.level);
        let c1 = self.rescale_poly(&a.c1, a.level);
        Ciphertext {
            c0,
            c1,
            level: new_level,
            scale: a.scale / q_last as f64,
        }
    }

    fn rescale_poly(&self, p: &RnsPoly, level: usize) -> RnsPoly {
        assert_eq!(p.representation(), Representation::Eval);
        assert_eq!(p.limbs(), level + 1, "polynomial level mismatch");
        fhe_math::debug_assert_domain!(within_2p: p, "rescale");
        let n = p.n();
        let basis = self.ctx.level_basis(level);
        let new_basis = self.ctx.level_basis(level - 1);
        let last_mod = basis.modulus(level);
        let (kept, last) = p.flat().split_at(level * n);
        scratch::with_scratch((level + 1) * n, |buf| {
            let (r, lifted) = buf.split_at_mut(n);
            r.copy_from_slice(last);
            kernel::active().inverse_batch(&[basis.table(level)], r, ExitFold::Canonical);
            for (row, qi) in lifted.chunks_exact_mut(n).zip(new_basis.moduli()) {
                for (x, &rc) in row.iter_mut().zip(r.iter()) {
                    // Centered lift of r into q_i for unbiased rounding.
                    *x = qi.from_i64(last_mod.to_centered(rc));
                }
            }
            kernel::active().forward_batch(&table_rows(new_basis, 1), lifted, ExitFold::Lazy2p);
            let mut out = Vec::with_capacity(level * n);
            sub_scale_into(
                new_basis.moduli(),
                &self.ctx.keyswitch_precomp(level).q_last_inv_mod_q,
                kept,
                lifted,
                &mut out,
            );
            RnsPoly::from_flat(new_basis.clone(), out, Representation::Eval)
        })
    }

    /// Drops limbs down to `target_level` without dividing (level
    /// alignment before ops between mismatched ciphertexts).
    ///
    /// # Panics
    ///
    /// Panics if `target_level > a.level`.
    pub fn mod_down_to(&self, a: &Ciphertext, target_level: usize) -> Ciphertext {
        assert!(target_level <= a.level, "cannot raise level");
        if target_level == a.level {
            return a.clone();
        }
        let basis = self.ctx.level_basis(target_level).clone();
        let take = |p: &RnsPoly| {
            RnsPoly::from_flat(
                basis.clone(),
                p.flat()[..(target_level + 1) * p.n()].to_vec(),
                Representation::Eval,
            )
        };
        Ciphertext {
            c0: take(&a.c0),
            c1: take(&a.c1),
            level: target_level,
            scale: a.scale,
        }
    }

    /// HRotate: homomorphic slot rotation by `r` — the slot permutation
    /// on `c0` plus the Galois keyswitch of `c1`, via
    /// [`Self::apply_galois`] (see there for the lazy-chain dataflow).
    ///
    /// # Panics
    ///
    /// Panics if `gk` was generated for a different Galois element.
    pub fn rotate(&self, a: &Ciphertext, r: i64, gk: &SwitchingKey) -> Ciphertext {
        let g = fhe_math::galois::rotation_galois_element(r, self.ctx.n());
        self.apply_galois(a, g, gk)
    }

    /// Complex conjugation of all slots.
    pub fn conjugate(&self, a: &Ciphertext, gk: &SwitchingKey) -> Ciphertext {
        let g = fhe_math::galois::conjugation_galois_element(self.ctx.n());
        self.apply_galois(a, g, gk)
    }

    /// Applies an arbitrary Galois automorphism with its switching key.
    ///
    /// Runs the *lazy rotation chain*: `c1` goes through the keyswitch
    /// pipeline un-rotated and the automorphism is applied to the
    /// raised digits in evaluation form — a pure slot permutation that
    /// preserves the `[0, 2p)` window — so the whole HRotate kernel
    /// chain (digit NTT → `Auto` → `IP`) stays in that window and is
    /// canonicalised exactly once per limb, by ModDown
    /// ([`key_switch_galois`]).
    /// `c0` only needs the slot permutation itself. Bit-identical to
    /// [`Self::apply_galois_strict`] (asserted by
    /// `tests/lazy_chains.rs`).
    ///
    /// Counter contract (pinned by `tests::op_counter_contract`): one
    /// `galois_ops` bump and one `keyswitches` bump per application —
    /// the keyswitch layer itself never counts, so there is no double
    /// count with [`Self::relinearize`]'s bump, and
    /// [`crate::bootstrap::Bootstrapper::expected_ops`]'s
    /// "every Galois op keyswitches once" model matches exactly — the
    /// diagonal engine's [`Self::rotate_hoisted`] calls included, so the
    /// model counts each rotation CoeffToSlot shares across its two
    /// halves once.
    pub fn apply_galois(&self, a: &Ciphertext, g: u64, gk: &SwitchingKey) -> Ciphertext {
        let ks = key_switch_galois(&self.ctx, &a.c1, g, gk, a.level);
        self.assemble_galois(a, g, ks)
    }

    /// The tail every lazy Galois application shares: counts the
    /// operation, slot-permutes `c0` and assembles the output around
    /// the keyswitched pair `(ks0, ks1)` of `c1`.
    fn assemble_galois(
        &self,
        a: &Ciphertext,
        g: u64,
        (ks0, ks1): (RnsPoly, RnsPoly),
    ) -> Ciphertext {
        OpCounters::bump(&self.counters.galois_ops);
        OpCounters::bump(&self.counters.keyswitches);
        let mut c0 = a.c0.clone();
        c0.automorphism(g, self.ctx.galois());
        c0.add_assign(&ks0);
        Ciphertext {
            c0,
            c1: ks1,
            level: a.level,
            scale: a.scale,
        }
    }

    /// [`Self::apply_galois`] mapped over `jobs`: applies the Galois
    /// element `g` to every ciphertext under its own key, split into one
    /// contiguous chunk per lane of the process pool
    /// [`pool::shared`] ([`WorkerPool::map_chunks`]; one job, or a
    /// one-lane pool, runs inline). Outputs come back in job order, each
    /// bit-identical to its own `apply_galois` call, with one counter
    /// bump pair per job. The serving layer runs each coalesced rotation
    /// group through it.
    pub fn apply_galois_batch(
        &self,
        jobs: &[(&Ciphertext, &SwitchingKey)],
        g: u64,
    ) -> Vec<Ciphertext> {
        self.apply_galois_batch_on(pool::shared(), jobs, g)
    }

    /// [`Self::apply_galois_batch`] split over `pool`'s lanes.
    pub(crate) fn apply_galois_batch_on(
        &self,
        pool: &WorkerPool,
        jobs: &[(&Ciphertext, &SwitchingKey)],
        g: u64,
    ) -> Vec<Ciphertext> {
        pool.map_chunks(jobs, |chunk| {
            chunk
                .iter()
                .map(|&(a, gk)| self.apply_galois(a, g, gk))
                .collect()
        })
    }

    /// [`Self::apply_galois_batch`] for the rotation by `r`: every
    /// ciphertext rotated by the same amount under its own key, so
    /// `benchmark/`'s frozen `ckks.coalesced4_ms` probe, which calls
    /// this, times a pooled 4-job group. It exists only for that probe;
    /// the benchmark re-baseline (ROADMAP item 2(a)) deletes both.
    pub fn rotate_coalesced(
        &self,
        jobs: &[(&Ciphertext, &SwitchingKey)],
        r: i64,
    ) -> Vec<Ciphertext> {
        self.apply_galois_batch(
            jobs,
            fhe_math::galois::rotation_galois_element(r, self.ctx.n()),
        )
    }

    /// Computes the shared ModUp state of `a.c1` for a batch of
    /// rotations: Decompose + ModUp + the digit NTTs run once here,
    /// and every subsequent [`Self::apply_galois_hoisted`] /
    /// [`Self::rotate_hoisted`] on `a` replays only the per-rotation
    /// tail. Use when one ciphertext feeds many rotations (the
    /// diagonal engine behind [`crate::LinearTransform::apply`] and
    /// bootstrapping's CoeffToSlot/SlotToCoeff); each hoisted
    /// application is bit-identical to the sequential
    /// [`Self::apply_galois`].
    pub fn hoist_rotations(&self, a: &Ciphertext) -> HoistedRotations {
        hoist_rotations(&self.ctx, &a.c1, a.level)
    }

    /// [`Self::apply_galois`] over a pre-hoisted ModUp state: the slot
    /// permutation on `c0` plus the per-rotation keyswitch tail on the
    /// shared raised digits ([`key_switch_galois_hoisted`]).
    /// Bit-identical to `apply_galois(a, g, gk)` when `h` was hoisted
    /// from `a` (asserted by `tests::hoisted_galois_matches_sequential`
    /// and `tests/backend_identity.rs`).
    ///
    /// Counter contract: identical to [`Self::apply_galois`] — one
    /// `galois_ops` and one `keyswitches` bump per application (the
    /// hoist itself does not count; it performs no complete keyswitch).
    ///
    /// # Panics
    ///
    /// Panics if `h` was hoisted at a different level than `a`.
    pub fn apply_galois_hoisted(
        &self,
        a: &Ciphertext,
        h: &HoistedRotations,
        g: u64,
        gk: &SwitchingKey,
    ) -> Ciphertext {
        assert_eq!(h.level(), a.level, "hoisted state level mismatch");
        self.assemble_galois(a, g, key_switch_galois_hoisted(&self.ctx, h, g, gk))
    }

    /// [`Self::rotate`] over a pre-hoisted ModUp state — slot rotation
    /// by `r` reusing the shared raised digits of `a.c1`.
    ///
    /// # Panics
    ///
    /// As [`Self::apply_galois_hoisted`]; additionally panics if `gk`
    /// was generated for a different Galois element.
    pub fn rotate_hoisted(
        &self,
        a: &Ciphertext,
        h: &HoistedRotations,
        r: i64,
        gk: &SwitchingKey,
    ) -> Ciphertext {
        let g = fhe_math::galois::rotation_galois_element(r, self.ctx.n());
        self.apply_galois_hoisted(a, h, g, gk)
    }

    /// Strict-oracle Galois application: the same hoisted dataflow as
    /// [`Self::apply_galois`] over [`key_switch_galois_strict`] —
    /// fully-reduced transforms, canonical automorphism and inner
    /// products. Counts identically to the lazy path.
    pub fn apply_galois_strict(&self, a: &Ciphertext, g: u64, gk: &SwitchingKey) -> Ciphertext {
        OpCounters::bump(&self.counters.galois_ops);
        OpCounters::bump(&self.counters.keyswitches);
        let mut c0 = a.c0.clone();
        c0.automorphism(g, self.ctx.galois());
        let (ks0, ks1) = key_switch_galois_strict(&self.ctx, &a.c1, g, gk, a.level);
        c0.add_assign(&ks0);
        Ciphertext {
            c0,
            c1: ks1,
            level: a.level,
            scale: a.scale,
        }
    }

    /// Multiplies by the monomial `X^k` — exact, key-free, used by the
    /// scheme-conversion packing algorithm (Alg. 4's `Rotate`).
    pub fn mul_monomial(&self, a: &Ciphertext, k: i64) -> Ciphertext {
        let mut c0 = a.c0.clone();
        let mut c1 = a.c1.clone();
        c0.to_coeff();
        c1.to_coeff();
        c0.mul_monomial(k);
        c1.mul_monomial(k);
        c0.to_eval();
        c1.to_eval();
        Ciphertext {
            c0,
            c1,
            level: a.level,
            scale: a.scale,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoder;
    use crate::encryption::{Decryptor, Encryptor};
    use crate::keys::{KeyGenerator, KeySet};
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ctx: Arc<CkksContext>,
        enc: Encoder,
        encryptor: Encryptor,
        decryptor: Decryptor,
        eval: Evaluator,
        keys: KeySet,
        rng: StdRng,
    }

    fn fixture() -> Fixture {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(61);
        let kg = KeyGenerator::new(ctx.clone());
        let keys = kg.key_set(&[1, 2, -1], &mut rng);
        Fixture {
            enc: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone()),
            decryptor: Decryptor::new(ctx.clone()),
            eval: Evaluator::new(ctx.clone()),
            ctx,
            keys,
            rng,
        }
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// The coefficient-domain rescale: iNTT every limb, subtract the
    /// centred lift of the dropped one, multiply by `q_l^{-1}`, NTT
    /// every kept limb (`2l + 1` rows). The reference
    /// `Evaluator::rescale_poly` is pinned against.
    fn rescale_poly_coeff_reference(ctx: &CkksContext, p: &RnsPoly, level: usize) -> RnsPoly {
        let mut p = p.clone();
        p.to_coeff();
        let n = p.n();
        let flat = p.into_flat();
        let basis = ctx.level_basis(level);
        let last_mod = *basis.modulus(level);
        let last_row = &flat[level * n..(level + 1) * n];
        let new_basis = ctx.level_basis(level - 1).clone();
        let mut out_flat = Vec::with_capacity(level * n);
        for i in 0..level {
            let qi = basis.modulus(i);
            let inv = qi
                .inv(qi.reduce(last_mod.value()))
                .expect("distinct primes");
            out_flat.extend(
                flat[i * n..(i + 1) * n]
                    .iter()
                    .zip(last_row)
                    .map(|(&c, &r)| {
                        // Centered lift of r into q_i for unbiased rounding.
                        let r_centered = last_mod.to_centered(r);
                        let r_in_qi = qi.from_i64(r_centered);
                        qi.mul(qi.sub(c, r_in_qi), inv)
                    }),
            );
        }
        let mut out = RnsPoly::from_flat(new_basis, out_flat, Representation::Coeff);
        out.to_eval();
        out
    }

    /// The evaluation-domain rescale lands on the coefficient-domain
    /// reference's words at every level of the small parameter sets and
    /// the top of the bootstrap chain (60-bit `q_0`, 50-bit scale
    /// primes), for canonical input and for input whose every word sits
    /// in `[p, 2p)` — both forms take any lazy evaluation-form row.
    #[test]
    fn rescale_bit_identical_to_coefficient_domain_reference() {
        let mut rng = StdRng::seed_from_u64(62);
        let bootstrap_top = crate::bootstrap::bootstrap_test_params().max_level();
        for (params, levels) in [
            (CkksParams::tiny_params(), 1..=3),
            (CkksParams::test_params(), 1..=4),
            (
                crate::bootstrap::bootstrap_test_params(),
                bootstrap_top - 1..=bootstrap_top,
            ),
        ] {
            let ctx = CkksContext::new(params);
            assert_eq!(*levels.end(), ctx.params().max_level());
            let eval = Evaluator::new(ctx.clone());
            let n = ctx.n();
            for level in levels {
                let basis = ctx.level_basis(level).clone();
                let mut flat = Vec::with_capacity(basis.len() * n);
                for m in basis.moduli() {
                    flat.extend(fhe_math::sampler::uniform_residues(&mut rng, m, n));
                }
                let canonical = RnsPoly::from_flat(basis.clone(), flat, Representation::Eval);
                let mut lifted = canonical.clone();
                for (row, m) in lifted.flat_mut().chunks_exact_mut(n).zip(basis.moduli()) {
                    row.iter_mut().for_each(|x| *x += m.value());
                }
                let want = rescale_poly_coeff_reference(&ctx, &canonical, level);
                for (input, what) in [(&canonical, "canonical"), (&lifted, "[p, 2p)")] {
                    let got = eval.rescale_poly(input, level);
                    assert_eq!(got.flat(), want.flat(), "n={n} level {level}, {what}");
                    assert_eq!(got.limbs(), level);
                    assert_eq!(got.representation(), Representation::Eval);
                    assert!(
                        crate::test_common::is_canonical(&got),
                        "n={n} level {level}, {what}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "Eval")]
    fn rescale_rejects_coefficient_form() {
        let f = fixture();
        let level = f.ctx.params().max_level();
        let p = RnsPoly::zero(f.ctx.level_basis(level).clone(), Representation::Coeff);
        let _ = f.eval.rescale_poly(&p, level);
    }

    #[test]
    fn homomorphic_addition() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let x = vec![0.5, -0.25, 0.125, 1.0];
        let y = vec![0.25, 0.5, -0.5, -1.0];
        let ct_x = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);
        let ct_y = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&y, l), &f.keys.secret, &mut f.rng);
        let sum = f.eval.add(&ct_x, &ct_y);
        let back = f.decryptor.decrypt(&sum, &f.keys.secret, &f.enc);
        for i in 0..4 {
            assert!(
                close(back[i].re, x[i] + y[i], 1e-3),
                "{} vs {}",
                back[i].re,
                x[i] + y[i]
            );
        }
    }

    #[test]
    fn homomorphic_multiplication_with_rescale() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let x = vec![0.5, -0.25, 0.75, 0.1];
        let y = vec![0.25, 0.5, -0.5, 0.9];
        let ct_x = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);
        let ct_y = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&y, l), &f.keys.secret, &mut f.rng);
        let prod = f.eval.mul(&ct_x, &ct_y, &f.keys.relin);
        let prod = f.eval.rescale(&prod);
        assert_eq!(prod.level, l - 1);
        let back = f.decryptor.decrypt(&prod, &f.keys.secret, &f.enc);
        for i in 0..4 {
            assert!(
                close(back[i].re, x[i] * y[i], 1e-2),
                "slot {i}: {} vs {}",
                back[i].re,
                x[i] * y[i]
            );
        }
    }

    #[test]
    fn multiplication_chain_consumes_levels() {
        // x^4 via two squarings: exercises rescale bookkeeping.
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let x = vec![0.9, -0.8, 0.5];
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);
        let sq = f.eval.rescale(&f.eval.mul(&ct, &ct, &f.keys.relin));
        let fourth = f.eval.rescale(&f.eval.mul(&sq, &sq, &f.keys.relin));
        assert_eq!(fourth.level, l - 2);
        let back = f.decryptor.decrypt(&fourth, &f.keys.secret, &f.enc);
        for i in 0..3 {
            let expect = x[i].powi(4);
            assert!(
                close(back[i].re, expect, 3e-2),
                "slot {i}: {} vs {expect}",
                back[i].re
            );
        }
    }

    #[test]
    fn plaintext_multiplication() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let x = vec![0.5, -0.5, 0.25];
        let w = vec![2.0, 3.0, -4.0];
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);
        let pt_w = f.enc.encode_real(&w, l);
        let prod = f.eval.rescale(&f.eval.mul_plain(&ct, &pt_w));
        let back = f.decryptor.decrypt(&prod, &f.keys.secret, &f.enc);
        for i in 0..3 {
            assert!(close(back[i].re, x[i] * w[i], 1e-2));
        }
    }

    #[test]
    fn homomorphic_rotation() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let slots = f.enc.slots();
        let x: Vec<f64> = (0..slots).map(|i| (i % 17) as f64 / 17.0).collect();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);
        let g = fhe_math::galois::rotation_galois_element(1, f.ctx.n());
        let rot = f.eval.rotate(&ct, 1, &f.keys.galois[&g]);
        let back = f.decryptor.decrypt(&rot, &f.keys.secret, &f.enc);
        for j in 0..slots - 1 {
            assert!(
                close(back[j].re, x[j + 1], 1e-3),
                "slot {j}: {} vs {}",
                back[j].re,
                x[j + 1]
            );
        }
        // Cyclic wraparound.
        assert!(close(back[slots - 1].re, x[0], 1e-3));
    }

    #[test]
    fn rotation_by_negative_amount() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let slots = f.enc.slots();
        let x: Vec<f64> = (0..slots).map(|i| ((i * 3) % 11) as f64 / 11.0).collect();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);
        let g = fhe_math::galois::rotation_galois_element(-1, f.ctx.n());
        let rot = f.eval.rotate(&ct, -1, &f.keys.galois[&g]);
        let back = f.decryptor.decrypt(&rot, &f.keys.secret, &f.enc);
        for j in 1..slots {
            assert!(close(back[j].re, x[j - 1], 1e-3));
        }
        assert!(close(back[0].re, x[slots - 1], 1e-3));
    }

    #[test]
    fn conjugation_flips_imaginary() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let slots: Vec<fhe_math::Complex> = vec![
            fhe_math::Complex::new(0.5, 0.25),
            fhe_math::Complex::new(-0.25, 0.75),
        ];
        let pt = f.enc.encode(&slots, l);
        let ct = f.encryptor.encrypt_sk(&pt, &f.keys.secret, &mut f.rng);
        let g = fhe_math::galois::conjugation_galois_element(f.ctx.n());
        let conj = f.eval.conjugate(&ct, &f.keys.galois[&g]);
        let back = f.decryptor.decrypt(&conj, &f.keys.secret, &f.enc);
        for (i, z) in slots.iter().enumerate() {
            assert!(close(back[i].re, z.re, 1e-3));
            assert!(close(back[i].im, -z.im, 1e-3));
        }
    }

    #[test]
    fn monomial_multiplication_preserves_decryption_structure() {
        // X^k multiplication is exact and commutes with decryption.
        let mut f = fixture();
        let x = vec![0.5, -0.25];
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, 1), &f.keys.secret, &mut f.rng);
        let shifted = f.eval.mul_monomial(&ct, 5);
        let twice = f.eval.mul_monomial(&shifted, f.ctx.n() as i64 * 2 - 5);
        // X^5 * X^(2n-5) = X^(2n) = 1.
        let back = f.decryptor.decrypt(&twice, &f.keys.secret, &f.enc);
        assert!(close(back[0].re, 0.5, 1e-3));
        assert!(close(back[1].re, -0.25, 1e-3));
    }

    #[test]
    fn mod_down_alignment() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let x = vec![0.75, 0.1];
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);
        let low = f.eval.mod_down_to(&ct, 1);
        assert_eq!(low.level, 1);
        let back = f.decryptor.decrypt(&low, &f.keys.secret, &f.enc);
        assert!(close(back[0].re, 0.75, 1e-3));
    }

    /// The OpCounters contract, reconciled with
    /// `bootstrap::expected_ops`: a Galois application (rotate or
    /// conjugate) bumps `galois_ops` and `keyswitches` exactly once —
    /// the keyswitch layer itself never counts, so there is no double
    /// count from `apply_galois` "bumping keyswitches itself and also
    /// calling key_switch" — and a relinearisation bumps `keyswitches`
    /// once while the tensor bumps `ct_mults` once. This is precisely
    /// the `keyswitches = galois + ct_mults` model `expected_ops`
    /// assumes (and `op_counters_match_prediction` pins end to end, with
    /// CoeffToSlot's shared `1 + 2(n - 1)` asserted alone by
    /// `bootstrap_bit_identical_to_sequential_reference`).
    #[test]
    fn op_counter_contract() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let ct = f.encryptor.encrypt_sk(
            &f.enc.encode_real(&[0.5, -0.25], l),
            &f.keys.secret,
            &mut f.rng,
        );
        let g_rot = fhe_math::galois::rotation_galois_element(1, f.ctx.n());
        let g_conj = fhe_math::galois::conjugation_galois_element(f.ctx.n());

        f.eval.counters().reset();
        let _ = f.eval.rotate(&ct, 1, &f.keys.galois[&g_rot]);
        assert_eq!(f.eval.counters().snapshot(), (0, 0, 0, 1, 1, 0), "rotate");

        let _ = f.eval.conjugate(&ct, &f.keys.galois[&g_conj]);
        assert_eq!(
            f.eval.counters().snapshot(),
            (0, 0, 0, 2, 2, 0),
            "conjugate"
        );

        // The strict oracle counts identically to the lazy chain.
        let _ = f
            .eval
            .apply_galois_strict(&ct, g_rot, &f.keys.galois[&g_rot]);
        assert_eq!(
            f.eval.counters().snapshot(),
            (0, 0, 0, 3, 3, 0),
            "apply_galois_strict"
        );

        // Tensor counts a ct-mult but NOT a keyswitch...
        let tensor = f.eval.mul_no_relin(&ct, &ct);
        assert_eq!(
            f.eval.counters().snapshot(),
            (1, 0, 0, 3, 3, 0),
            "mul_no_relin"
        );
        // ...the relinearisation owns that keyswitch bump.
        let _ = f.eval.relinearize(&tensor, &f.keys.relin);
        assert_eq!(
            f.eval.counters().snapshot(),
            (1, 0, 0, 4, 3, 0),
            "relinearize"
        );

        // Full HMult = tensor + relin: one ct-mult, one keyswitch.
        let _ = f.eval.mul(&ct, &ct, &f.keys.relin);
        assert_eq!(f.eval.counters().snapshot(), (2, 0, 0, 5, 3, 0), "mul");
    }

    /// Hoisted lazy rotation is bit-identical to the strict oracle and
    /// decrypts to the rotated slots (spot check at the eval layer; the
    /// cross-shape sweep lives in `tests/lazy_chains.rs`).
    #[test]
    fn apply_galois_lazy_matches_strict_and_rotates() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let slots = f.enc.slots();
        let x: Vec<f64> = (0..slots).map(|i| ((i * 7) % 13) as f64 / 13.0).collect();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);
        let g = fhe_math::galois::rotation_galois_element(2, f.ctx.n());
        let lazy = f.eval.apply_galois(&ct, g, &f.keys.galois[&g]);
        let strict = f.eval.apply_galois_strict(&ct, g, &f.keys.galois[&g]);
        assert_eq!(lazy.c0.flat(), strict.c0.flat());
        assert_eq!(lazy.c1.flat(), strict.c1.flat());
        let back = f.decryptor.decrypt(&lazy, &f.keys.secret, &f.enc);
        for j in 0..slots {
            assert!(
                close(back[j].re, x[(j + 2) % slots], 1e-3),
                "slot {j}: {} vs {}",
                back[j].re,
                x[(j + 2) % slots]
            );
        }
    }

    /// One `hoist_rotations` call serves a whole batch of rotations,
    /// each bitwise identical to its sequential `apply_galois` /
    /// `rotate` counterpart, and the hoisted path obeys the same
    /// counter contract (one `galois_ops` + one `keyswitches` bump per
    /// application; the hoist itself counts nothing).
    #[test]
    fn hoisted_galois_matches_sequential() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let slots = f.enc.slots();
        let x: Vec<f64> = (0..slots).map(|i| ((i * 5) % 19) as f64 / 19.0).collect();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng);

        f.eval.counters().reset();
        let hoisted = f.eval.hoist_rotations(&ct);
        assert_eq!(
            f.eval.counters().snapshot(),
            (0, 0, 0, 0, 0, 0),
            "hoisting alone must not count"
        );

        for r in [1i64, 2, -1] {
            let g = fhe_math::galois::rotation_galois_element(r, f.ctx.n());
            let gk = &f.keys.galois[&g];
            let h = f.eval.rotate_hoisted(&ct, &hoisted, r, gk);
            let s = f.eval.rotate(&ct, r, gk);
            assert_eq!(h.c0.flat(), s.c0.flat(), "c0 r={r}");
            assert_eq!(h.c1.flat(), s.c1.flat(), "c1 r={r}");
            assert_eq!(h.scale, s.scale);
            assert_eq!(h.level, s.level);
        }
        // 3 hoisted + 3 sequential applications, one bump each.
        assert_eq!(f.eval.counters().snapshot(), (0, 0, 0, 6, 6, 0));
    }

    /// `rotate_coalesced` is bit-identical to k sequential `rotate`
    /// calls and counts exactly like them — per job.
    #[test]
    fn coalesced_galois_matches_sequential_and_counts_per_job() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let slots = f.enc.slots();
        let cts: Vec<Ciphertext> = (0..3)
            .map(|t| {
                let x: Vec<f64> = (0..slots)
                    .map(|i| ((i * 7 + t) % 23) as f64 / 23.0)
                    .collect();
                f.encryptor
                    .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng)
            })
            .collect();
        let r = 1i64;
        let g = fhe_math::galois::rotation_galois_element(r, f.ctx.n());
        let gk = &f.keys.galois[&g];

        f.eval.counters().reset();
        let jobs: Vec<(&Ciphertext, &SwitchingKey)> = cts.iter().map(|ct| (ct, gk)).collect();
        let coalesced = f.eval.rotate_coalesced(&jobs, r);
        assert_eq!(
            f.eval.counters().snapshot(),
            (0, 0, 0, 3, 3, 0),
            "one keyswitch + galois bump per job"
        );
        for (i, (ct, c)) in cts.iter().zip(&coalesced).enumerate() {
            let s = f.eval.rotate(ct, r, gk);
            assert_eq!(c.c0.flat(), s.c0.flat(), "c0 job {i}");
            assert_eq!(c.c1.flat(), s.c1.flat(), "c1 job {i}");
            assert_eq!(c.scale, s.scale);
            assert_eq!(c.level, s.level);
        }
        assert!(f.eval.rotate_coalesced(&[], r).is_empty());
    }

    /// `k` Galois jobs split over a private one-lane pool run inline,
    /// over a two-lane pool as `min(k, 2)` chunks, and both give the
    /// words of `k` `apply_galois` calls, one counter bump pair each.
    #[test]
    fn galois_batch_splits_match_apply_galois_per_job_on_one_and_two_lanes() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let slots = f.enc.slots();
        let cts: Vec<Ciphertext> = (0..3)
            .map(|t| {
                let x: Vec<f64> = (0..slots).map(|i| ((i + t) % 5) as f64 / 5.0).collect();
                f.encryptor
                    .encrypt_sk(&f.enc.encode_real(&x, l), &f.keys.secret, &mut f.rng)
            })
            .collect();
        let g = fhe_math::galois::rotation_galois_element(2, f.ctx.n());
        let gk = &f.keys.galois[&g];
        let jobs: Vec<(&Ciphertext, &SwitchingKey)> = cts.iter().map(|ct| (ct, gk)).collect();
        let singles: Vec<Ciphertext> = cts
            .iter()
            .map(|ct| f.eval.apply_galois(ct, g, gk))
            .collect();
        for k in 1..=jobs.len() {
            let (one, two) = (WorkerPool::new(1), WorkerPool::new(2));
            for pool in [&one, &two] {
                f.eval.counters().reset();
                let got = f.eval.apply_galois_batch_on(pool, &jobs[..k], g);
                let k64 = k as u64;
                assert_eq!(f.eval.counters().snapshot(), (0, 0, 0, k64, k64, 0));
                assert_eq!(got.len(), k);
                for (i, (c, s)) in got.iter().zip(&singles).enumerate() {
                    assert_eq!(c.c0.flat(), s.c0.flat(), "c0 job {i} of {k}, {pool:?}");
                    assert_eq!(c.c1.flat(), s.c1.flat(), "c1 job {i} of {k}, {pool:?}");
                }
            }
            assert_eq!(one.parallel_jobs_dispatched(), 0, "k = {k}");
            // A thread-starved host may have built a one-lane `two`.
            let chunks = if k >= 2 && two.threads() == 2 { 2 } else { 0 };
            assert_eq!(two.parallel_jobs_dispatched(), chunks, "k = {k}");
        }
    }

    /// Exhaustive plaintext-slot oracle for
    /// `fhe_math::galois::rotation_galois_element`: for every rotation
    /// amount spanning `r = 0`, negative `r`, and several `|r| >= n/2`
    /// wraparounds, applying the automorphism `sigma_{g(r)}` to an
    /// *unencrypted* plaintext polynomial must cyclically rotate the
    /// decoded slot vector by exactly `r` (no keys, no noise — a pure
    /// slot-permutation oracle).
    #[test]
    fn rotation_galois_element_matches_plaintext_slot_oracle() {
        let f = fixture();
        let slots = f.enc.slots() as i64;
        let x: Vec<f64> = (0..slots).map(|i| ((i * 5) % 17) as f64 / 17.0).collect();
        let l = f.ctx.params().max_level();
        let mut r_cases: Vec<i64> = vec![
            0,
            1,
            2,
            -1,
            -2,
            slots - 1,
            slots,
            slots + 1,
            -slots,
            -slots - 3,
            2 * slots + 5,
        ];
        r_cases.dedup();
        for r in r_cases {
            let g = fhe_math::galois::rotation_galois_element(r, f.ctx.n());
            let mut pt = f.enc.encode_real(&x, l);
            pt.poly.automorphism(g, f.ctx.galois());
            let back = f.enc.decode(&pt);
            for j in 0..slots {
                let want = x[(j + r).rem_euclid(slots) as usize];
                assert!(
                    close(back[j as usize].re, want, 1e-6),
                    "r={r} slot {j}: {} vs {want}",
                    back[j as usize].re
                );
            }
        }
    }

    /// The plaintext `[v, 0, ..., 0]` in evaluation form at `level`.
    fn constant_plaintext(f: &Fixture, v: i64, level: usize, scale: f64) -> Plaintext {
        let mut coeffs = vec![0i64; f.ctx.n()];
        coeffs[0] = v;
        let mut poly = RnsPoly::from_signed_coeffs(f.ctx.level_basis(level).clone(), &coeffs);
        poly.to_eval();
        Plaintext { poly, scale, level }
    }

    /// Below `2^62` the scalar ops equal `add_plain` / `mul_plain` of
    /// the constant polynomial `[round(c * s), 0, ...]` bit for bit, at
    /// every level and for both signs.
    #[test]
    fn const_ops_match_constant_plaintexts() {
        let mut f = fixture();
        let top = f.ctx.params().max_level();
        let x = [0.3, -0.7, 0.9, 0.05];
        for level in [0, 1, top] {
            let ct =
                f.encryptor
                    .encrypt_sk(&f.enc.encode_real(&x, level), &f.keys.secret, &mut f.rng);
            for c in [0.37, -1.25, 3.0e8, -3.0e8] {
                let v = (c * ct.scale).round();
                assert!(v.abs() < 2f64.powi(62));
                let pt = constant_plaintext(&f, v as i64, level, ct.scale);
                let got = f.eval.add_const(&ct, c);
                let want = f.eval.add_plain(&ct, &pt);
                assert_eq!(
                    got.c0.flat(),
                    want.c0.flat(),
                    "add_const c0 at {level}, {c}"
                );
                assert_eq!(
                    got.c1.flat(),
                    want.c1.flat(),
                    "add_const c1 at {level}, {c}"
                );
                assert_eq!((got.level, got.scale), (want.level, want.scale));

                let s = 2f64.powi(25) + 3.0;
                let pt = constant_plaintext(&f, (c * s).round() as i64, level, s);
                let got = f.eval.mul_const(&ct, c, s);
                let want = f.eval.mul_plain(&ct, &pt);
                assert_eq!(
                    got.c0.flat(),
                    want.c0.flat(),
                    "mul_const c0 at {level}, {c}"
                );
                assert_eq!(
                    got.c1.flat(),
                    want.c1.flat(),
                    "mul_const c1 at {level}, {c}"
                );
                assert_eq!((got.level, got.scale), (want.level, want.scale));
            }
        }
    }

    /// Above `2^63` (a constant added at a pre-rescale scale near
    /// `2^100`) the scalar is the `u128` reduction of the same `f64`
    /// integer, negated for a negative constant.
    #[test]
    fn const_ops_reduce_wide_constants_as_u128() {
        let mut f = fixture();
        let top = f.ctx.params().max_level();
        let mut ct =
            f.encryptor
                .encrypt_sk(&f.enc.encode_real(&[0.5], top), &f.keys.secret, &mut f.rng);
        ct.scale = 2f64.powi(100);
        let moduli = f.ctx.level_basis(top).moduli().to_vec();
        let residue = |m: &fhe_math::Modulus, v: f64| {
            let r = (v.abs().round() as u128 % u128::from(m.value())) as u64;
            if v < 0.0 {
                (m.value() - r) % m.value()
            } else {
                r
            }
        };
        for c in [0.7, -0.7, 3.0e5, -3.3] {
            let v = c * ct.scale;
            assert!(v.abs() > 2f64.powi(63));
            let got = f.eval.add_const(&ct, c);
            for (i, m) in moduli.iter().enumerate() {
                let r = residue(m, v);
                let want: Vec<u64> = ct.c0.limb(i).iter().map(|&x| m.add(x, r)).collect();
                assert_eq!(got.c0.limb(i), want, "add_const limb {i}, c = {c}");
            }
            assert_eq!(got.c1.flat(), ct.c1.flat());

            let s = 2f64.powi(90);
            let got = f.eval.mul_const(&ct, c, s);
            for (i, m) in moduli.iter().enumerate() {
                let r = residue(m, c * s);
                let mul =
                    |p: &RnsPoly| -> Vec<u64> { p.limb(i).iter().map(|&x| m.mul(x, r)).collect() };
                assert_eq!(
                    got.c0.limb(i),
                    mul(&ct.c0),
                    "mul_const c0 limb {i}, c = {c}"
                );
                assert_eq!(
                    got.c1.limb(i),
                    mul(&ct.c1),
                    "mul_const c1 limb {i}, c = {c}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn sub_plain_rejects_mismatched_scale() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&[0.1], l), &f.keys.secret, &mut f.rng);
        let pt = f
            .enc
            .encode_at_scale(&[fhe_math::Complex::new(0.1, 0.0)], l, ct.scale * 2.0);
        let _ = f.eval.sub_plain(&ct, &pt);
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn adding_mismatched_levels_panics() {
        let mut f = fixture();
        let l = f.ctx.params().max_level();
        let ct1 = f
            .encryptor
            .encrypt_sk(&f.enc.encode_real(&[0.1], l), &f.keys.secret, &mut f.rng);
        let ct2 = f.encryptor.encrypt_sk(
            &f.enc.encode_real(&[0.1], l - 1),
            &f.keys.secret,
            &mut f.rng,
        );
        let _ = f.eval.add(&ct1, &ct2);
    }
}
