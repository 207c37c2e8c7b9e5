//! Functional CKKS bootstrapping (the paper's Packed Bootstrapping
//! workload, Table VI).
//!
//! Bootstrapping refreshes an exhausted (level-0) ciphertext to a high
//! level so computation can continue. The pipeline is the standard one
//! the paper's kernel model also assumes:
//!
//! 1. **ModRaise** — reinterpret the level-0 residues as integers at the
//!    top level; decryption then yields `m + q0 * I` for a small integer
//!    polynomial `I`.
//! 2. **SubSum** — for sparsely packed ciphertexts (slot vector periodic
//!    with period `n`), a field trace over `log2(N/2n)` rotations
//!    projects `m + q0 * I` onto the degree-`2n` subring, making the
//!    remaining pipeline `n`-dimensional.
//! 3. **CoeffToSlot** — a homomorphic inverse canonical embedding moves
//!    the `2n` subring coefficients into the slots of two ciphertexts
//!    (via diagonal linear transforms on the ciphertext and its
//!    conjugate).
//! 4. **EvalMod** — removes `q0 * I` by evaluating
//!    `x mod q0 ~ (q0 / 2 pi) sin(2 pi x / q0)` with the Han–Ki scheme:
//!    a Chebyshev fit of a shrunken cosine followed by double-angle
//!    steps, all in `O(log degree)` levels.
//! 5. **SlotToCoeff** — the forward embedding maps the cleaned
//!    coefficients back, leaving a fresh encryption of the original
//!    slots at a usable level.
//!
//! After CoeffToSlot the two halves never meet again until SlotToCoeff's
//! final add: each one runs EvalMod and then its own one-output
//! SlotToCoeff matvec. [`Bootstrapper::bootstrap`] runs the two halves
//! as one two-job
//! [`map_chunks`](fhe_math::pool::WorkerPool::map_chunks) on the
//! process pool ([`fhe_math::pool::shared`]), so on a multi-core host
//! they run on two cores at once; on a one-lane host the pool calls
//! them inline, half 0 then half 1. CoeffToSlot's two sources, the
//! ciphertext and its conjugate, likewise run as two jobs of one
//! `map_chunks` inside the diagonal engine, each with its own hoist.
//! Each job's words depend only on its input, so the result is
//! bit-identical either way. ModRaise and SubSum run on the calling
//! thread.
//!
//! EvalMod's constants (the Chebyshev coefficients, the double-angle
//! `- 1`) and CoeffToSlot's quarter shift never become plaintexts: they
//! are applied by [`Evaluator::add_const`] and [`Evaluator::mul_const`],
//! one scalar per limb.
//!
//! The linear transforms here are single dense `n x n`-diagonal passes
//! (one level each) through the crate's one diagonal engine
//! ([`crate::linalg`]), which hoists each input once and shares its
//! rotations across both CoeffToSlot outputs. The paper's performance
//! model instead decomposes them into FFT-like factors at `N = 2^16`;
//! that is a cost optimisation, not a functional difference, and the
//! kernel DAGs in `trinity-workloads` model the factored form.

use std::f64::consts::PI;

use fhe_math::pool;
use fhe_math::{Complex, RnsPoly};
use rand::Rng;

use crate::chebyshev::{chebyshev_depth, ChebyshevPoly};
use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::Encoder;
use crate::eval::Evaluator;
use crate::keys::{KeyGenerator, KeySet};
use crate::linalg::{diagonal_sums, galois_key, LinearTransform, Source};
use crate::params::CkksParams;
use std::sync::Arc;

/// Configuration of the bootstrapping pipeline.
#[derive(Debug, Clone)]
pub struct BootstrapParams {
    /// Number of sparse slots `n` (power of two, `<= N/4`). The input
    /// ciphertext must encode an `n`-periodic (tiled) slot vector.
    pub sparse_slots: usize,
    /// Bound `K` on the ModRaise integer polynomial's coefficients; the
    /// sine is approximated on `[-K - 1/2, K + 1/2]`. `K ~ O(sqrt(h))`
    /// for secret Hamming weight `h`.
    pub k_bound: usize,
    /// Number of Han–Ki double-angle steps `r`; the cosine is fitted on
    /// a domain shrunk by `2^r`.
    pub double_angle: usize,
    /// Degree of the Chebyshev fit of the shrunken cosine.
    pub cheb_degree: usize,
}

impl Default for BootstrapParams {
    fn default() -> Self {
        Self {
            sparse_slots: 8,
            k_bound: 16,
            double_angle: 3,
            cheb_degree: 31,
        }
    }
}

impl BootstrapParams {
    /// Multiplicative depth of the whole pipeline: CoeffToSlot (1) +
    /// Chebyshev + double-angle steps + SlotToCoeff (1).
    pub fn depth(&self) -> usize {
        1 + chebyshev_depth(self.cheb_degree) + self.double_angle + 1
    }
}

/// A CKKS parameter set sized for functional bootstrapping tests:
/// `N = 2^11`, `L = 16`, 50-bit scale (60-bit `q0`), sparse ternary
/// secret with Hamming weight 32 so the ModRaise overflow stays within
/// the default `K = 16`.
///
/// Every prime but `q0` sits at or below
/// [`fhe_math::kernel::WIDE_MAX_P`]: the 16 scale primes just below
/// `2^50` and seven 50-bit special primes (`alpha = 6`; a seventh
/// brings `P` to the 310 bits of digit 0). So 23 of the 24 limbs, and
/// every BConv but the one from digit 0, run on the wide unit where
/// the CPU has one.
pub fn bootstrap_test_params() -> CkksParams {
    let mut p = CkksParams::new(1 << 11, 16, 50, 3).expect("bootstrap parameters are valid");
    p.secret_hamming_weight = Some(32);
    p
}

/// Precomputed bootstrapping state bound to a context.
#[derive(Debug)]
pub struct Bootstrapper {
    ctx: Arc<CkksContext>,
    params: BootstrapParams,
    /// CoeffToSlot diagonals: applied to the input for `t` halves 0/1.
    c2s_direct: [LinearTransform; 2],
    /// CoeffToSlot diagonals applied to the conjugated input.
    c2s_conj: [LinearTransform; 2],
    /// SlotToCoeff diagonals for the two `t` halves.
    s2c: [LinearTransform; 2],
    /// Chebyshev fit of `cos(2 pi D u)` on `[-1, 1]`,
    /// `D = (K + 3/4) / 2^r` periods.
    cos_fit: ChebyshevPoly,
}

impl Bootstrapper {
    /// Builds the bootstrapping precomputation.
    ///
    /// # Panics
    ///
    /// Panics if `sparse_slots` is not a power of two in `[2, N/4]`, or
    /// if the context's top level `L` is not above
    /// [`BootstrapParams::depth`] (`L > depth` is required, so the
    /// output keeps at least one level).
    pub fn new(ctx: Arc<CkksContext>, params: BootstrapParams) -> Self {
        let n_ring = ctx.n();
        let n = params.sparse_slots;
        assert!(
            n.is_power_of_two() && n >= 2 && n <= n_ring / 4,
            "sparse_slots {n} must be a power of two in [2, N/4]"
        );
        assert!(
            ctx.params().max_level() > params.depth(),
            "bootstrap depth {} needs more levels than L = {}",
            params.depth(),
            ctx.params().max_level()
        );

        // omega = primitive 4n-th root of unity; subring embedding
        // z_j = sum_i t_i omega^(i * 5^j), j in [0, n), i in [0, 2n).
        let omega = |e: i64| {
            let theta = PI * e as f64 / (2.0 * n as f64);
            Complex::new(theta.cos(), theta.sin())
        };
        let mut rot5 = Vec::with_capacity(n);
        let mut g = 1i64;
        for _ in 0..n {
            rot5.push(g);
            g = (g * 5) % (4 * n as i64);
        }

        // CoeffToSlot: t_i = (1/2n) sum_j [omega^(-i 5^j) z_j
        //                                 + omega^(i 5^j) conj(z_j)],
        // additionally normalised by the EvalMod domain half-width
        // `K + 3/4` so the slots land directly in [-1, 1].
        let dom = params.k_bound as f64 + 0.75;
        let c2s_norm = 1.0 / (2.0 * n as f64 * dom);
        // A dense n x n transform from `entry(d, row)`, diagonal by diagonal.
        let dense = |entry: &dyn Fn(usize, usize) -> Complex| {
            let diagonal = |d| (0..n).map(|row| entry(d, row)).collect();
            LinearTransform::from_diagonals(n, (0..n).map(|d| (d as i64, diagonal(d))))
        };
        let c2s = |half: usize, sign: i64| {
            dense(&|d, row| {
                let i = (row + half * n) as i64;
                omega(sign * i * rot5[(row + d) % n]) * c2s_norm
            })
        };
        let c2s_direct = [c2s(0, -1), c2s(1, -1)];
        let c2s_conj = [c2s(0, 1), c2s(1, 1)];

        // SlotToCoeff: z_j = sum_i t_i omega^(i 5^j), split over halves.
        let s2c = [0, 1].map(|half| {
            dense(&|d, row| {
                let i = ((row + d) % n + half * n) as i64;
                omega(i * rot5[row])
            })
        });

        // With u = (y - 1/4)/dom, the angle after the 2^r shrink is
        // 2 pi (y - 1/4) / 2^r = 2 pi * (dom / 2^r) * u.
        let half_width = dom / (1u64 << params.double_angle) as f64;
        let cos_fit = ChebyshevPoly::fit(
            |u| (2.0 * PI * half_width * u).cos(),
            -1.0,
            1.0,
            params.cheb_degree,
        );

        Self {
            ctx,
            params,
            c2s_direct,
            c2s_conj,
            s2c,
            cos_fit,
        }
    }

    /// The bootstrap configuration.
    pub fn params(&self) -> &BootstrapParams {
        &self.params
    }

    /// Slot rotations whose Galois keys the pipeline needs (conjugation
    /// is covered by [`KeyGenerator::key_set`] automatically).
    pub fn required_rotations(&self) -> Vec<i64> {
        let mut rots: Vec<i64> = (1..self.params.sparse_slots as i64).collect();
        let slots = self.ctx.n() / 2;
        let mut step = self.params.sparse_slots;
        while step < slots {
            rots.push(step as i64);
            step *= 2;
        }
        rots.sort_unstable();
        rots.dedup();
        rots
    }

    /// Generates a key set covering the whole pipeline (rotations,
    /// conjugation, relinearisation).
    pub fn generate_keys<R: Rng + ?Sized>(&self, rng: &mut R) -> KeySet {
        KeyGenerator::new(self.ctx.clone()).key_set(&self.required_rotations(), rng)
    }

    /// ModRaise: reinterprets a level-0 ciphertext at the top level.
    ///
    /// The declared scale becomes `q0 * N/(2n)` so that, after
    /// [`Self::sub_sum`], slots read `(m + q0 I) / q0`.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext is not at level 0.
    pub fn mod_raise(&self, ct: &Ciphertext) -> Ciphertext {
        assert_eq!(ct.level, 0, "mod_raise expects an exhausted ciphertext");
        let top = self.ctx.params().max_level();
        let q0 = *self.ctx.level_basis(0).modulus(0);
        let raise = |p: &RnsPoly| {
            let mut p = p.clone();
            p.to_coeff();
            let centered: Vec<i64> = p.limb(0).iter().map(|&r| q0.to_centered(r)).collect();
            let mut out = RnsPoly::from_signed_coeffs(self.ctx.level_basis(top).clone(), &centered);
            out.to_eval();
            out
        };
        let trace_factor = (self.ctx.n() / (2 * self.params.sparse_slots)) as f64;
        Ciphertext {
            c0: raise(&ct.c0),
            c1: raise(&ct.c1),
            level: top,
            scale: q0.value() as f64 * trace_factor,
        }
    }

    /// SubSum: the field trace onto the degree-`2n` subring, as
    /// `log2(N/2n)` rotate-and-add steps (no levels consumed). Mirrors
    /// Algorithm 5's Field Trace.
    ///
    /// # Panics
    ///
    /// Panics if a required Galois key is missing.
    pub fn sub_sum(&self, ct: &Ciphertext, eval: &Evaluator, keys: &KeySet) -> Ciphertext {
        let slots = self.ctx.n() / 2;
        let mut acc = ct.clone();
        let mut step = self.params.sparse_slots as i64;
        while (step as usize) < slots {
            let rotated = eval.rotate(&acc, step, galois_key(&keys.galois, step, self.ctx.n()));
            acc = eval.add(&acc, &rotated);
            step *= 2;
        }
        acc
    }

    /// CoeffToSlot: moves the `2n` subring coefficients into the slots
    /// of two ciphertexts (`t` halves `[0, n)` and `[n, 2n)`), already
    /// normalised onto the Chebyshev domain `[-1, 1]` minus the quarter
    /// shift. One level. Both halves come out of one engine call over
    /// the sources `ct` and `conj(ct)`, so each of the `2(n - 1)`
    /// rotations is computed once and folded into both outputs; the two
    /// sources run as two jobs on the process pool, which calls them
    /// inline on a one-lane host.
    ///
    /// # Panics
    ///
    /// Panics if a required Galois key is missing.
    pub fn coeff_to_slot(
        &self,
        ct: &Ciphertext,
        eval: &Evaluator,
        enc: &Encoder,
        keys: &KeySet,
    ) -> (Ciphertext, Ciphertext) {
        let conj_g = fhe_math::galois::conjugation_galois_element(self.ctx.n());
        let ct_conj = eval.conjugate(ct, &keys.galois[&conj_g]);
        // Output half `h` sums `direct[h]` of `ct` and `conj[h]` of its conjugate.
        let direct = [(0, &self.c2s_direct[0]), (1, &self.c2s_direct[1])];
        let conj = [(0, &self.c2s_conj[0]), (1, &self.c2s_conj[1])];
        let dom = self.params.k_bound as f64 + 0.75;
        let shift = 0.25 / dom;
        let halves = self.diagonal_matvec(&[(ct, &direct), (&ct_conj, &conj)], eval, enc, keys);
        // Subtract the Han–Ki quarter shift: u = (y - 1/4) / width.
        (
            eval.add_const(&halves[0], -shift),
            eval.add_const(&halves[1], -shift),
        )
    }

    /// EvalMod: evaluates the shrunken-cosine Chebyshev fit then applies
    /// the double-angle steps, turning slots `u = (y - 1/4)/width` into
    /// `sin(2 pi y)`; the output's declared scale is adjusted so slots
    /// read `m / Delta` directly.
    pub fn eval_mod(&self, ct: &Ciphertext, eval: &Evaluator, keys: &KeySet) -> Ciphertext {
        let mut acc = eval.eval_chebyshev(ct, &self.cos_fit.coeffs, &keys.relin);
        for _ in 0..self.params.double_angle {
            // cos(2 theta) = 2 cos^2(theta) - 1, one level per step.
            let sq = eval.mul(&acc, &acc, &keys.relin);
            acc = eval.add_const(&eval.rescale(&eval.add(&sq, &sq)), -1.0);
        }
        // Slots now hold sin(2 pi y) with y = (Delta t + q0 I)/q0, i.e.
        // ~ 2 pi Delta t / q0. Redeclare the scale so slots read t.
        let q0 = self.ctx.level_basis(0).modulus(0).value() as f64;
        acc.scale *= 2.0 * PI * self.ctx.params().scale() / q0;
        acc
    }

    /// SlotToCoeff: maps the two cleaned coefficient-halves back through
    /// the forward embedding, producing the refreshed ciphertext. One
    /// level. The halves live on different sources, so each is its own
    /// one-output matvec, rescaled before the add. Both run on the
    /// calling thread, half 0 then half 1; [`Self::bootstrap`] runs the
    /// same per-half matvec on the process pool instead.
    ///
    /// # Panics
    ///
    /// Panics if a required Galois key is missing.
    pub fn slot_to_coeff(
        &self,
        t0: &Ciphertext,
        t1: &Ciphertext,
        eval: &Evaluator,
        enc: &Encoder,
        keys: &KeySet,
    ) -> Ciphertext {
        let a = self.s2c_half(0, t0, eval, enc, keys);
        let b = self.s2c_half(1, t1, eval, enc, keys);
        eval.add(&a, &b)
    }

    /// The full pipeline: ModRaise, SubSum, CoeffToSlot, then EvalMod
    /// and SlotToCoeff per half.
    ///
    /// The input must be at level 0 and encode an `n`-periodic slot
    /// vector; the output encodes the same slots at level
    /// `L - `[`BootstrapParams::depth`] with the default scale.
    ///
    /// ModRaise and SubSum run on the calling thread, and CoeffToSlot
    /// runs its two sources as two pool jobs (see
    /// [`Self::coeff_to_slot`]). Each half's [`Self::eval_mod`] and
    /// SlotToCoeff matvec then run as one job of a two-job
    /// [`map_chunks`](fhe_math::pool::WorkerPool::map_chunks) on the
    /// process pool, and the two outputs are added: the words are those
    /// of [`Self::eval_mod`] on each half followed by
    /// [`Self::slot_to_coeff`] on the calling thread.
    pub fn bootstrap(
        &self,
        ct: &Ciphertext,
        eval: &Evaluator,
        enc: &Encoder,
        keys: &KeySet,
    ) -> Ciphertext {
        // The raised and traced ciphertexts are dropped before the
        // halves start, which is when the working set peaks.
        let (t0, t1) = {
            let traced = self.sub_sum(&self.mod_raise(ct), eval, keys);
            self.coeff_to_slot(&traced, eval, enc, keys)
        };
        let halves = [(0, &t0), (1, &t1)];
        let outs = pool::shared().map_chunks(&halves, |chunk: &[(usize, &Ciphertext)]| {
            chunk
                .iter()
                .map(|&(h, t)| self.s2c_half(h, &self.eval_mod(t, eval, keys), eval, enc, keys))
                .collect()
        });
        eval.add(&outs[0], &outs[1])
    }

    /// SlotToCoeff's one-output matvec for half `h` — the one path both
    /// [`Self::slot_to_coeff`] and [`Self::bootstrap`] take.
    fn s2c_half(
        &self,
        h: usize,
        m: &Ciphertext,
        eval: &Evaluator,
        enc: &Encoder,
        keys: &KeySet,
    ) -> Ciphertext {
        let mut outs = self.diagonal_matvec(&[(m, &[(0, &self.s2c[h])])], eval, enc, keys);
        outs.pop().expect("one output")
    }

    /// Predicted operation counts for one full bootstrap — the
    /// analytic cost model the performance layer consumes, pinned to
    /// the implementation by `tests::op_counters_match_prediction`.
    ///
    /// Returns `(ct_mults, galois_ops, keyswitches, rescales)`.
    pub fn expected_ops(&self) -> (u64, u64, u64, u64) {
        let n = self.params.sparse_slots as u64;
        let slots = (self.ctx.n() / 2) as u64;
        // SubSum: one rotation per doubling of the trace.
        let sub_sum = (slots / n).trailing_zeros() as u64;
        // CoeffToSlot: one conjugation, then one rotation per
        // off-diagonal of the input and of its conjugate — the engine
        // shares each across the two output halves.
        let c2s = 1 + 2 * (n - 1);
        // SlotToCoeff: per half, one rotation per off-diagonal.
        let s2c = 2 * (n - 1);
        let galois = sub_sum + c2s + s2c;
        // EvalMod on both halves: the Chebyshev recursion plus one
        // squaring per double-angle step.
        let cheb = crate::chebyshev::multiplication_count(&self.cos_fit.coeffs) as u64;
        let ct_mults = 2 * (cheb + self.params.double_angle as u64);
        // Rescales: one per CoeffToSlot and SlotToCoeff output; in
        // EvalMod one per doubling of the power chain, one per
        // recursion split (its `q` branch) and one at the top of the
        // Chebyshev evaluation, so one more than its ct-mults, plus one
        // per double-angle step.
        let rescales = 2 + 2 + 2 * (cheb + 1 + self.params.double_angle as u64);
        // Every Galois op and every ct-mult relinearisation keyswitches.
        (ct_mults, galois, galois + ct_mults, rescales)
    }

    /// One pass of the crate's diagonal engine ([`diagonal_sums`]):
    /// `out[j] = sum_d diag_d[j] * in[(j + d) mod n]` per transform, tiled
    /// across the full slot count, every plaintext diagonal encoded at
    /// the exact scale that lands the rescaled outputs on the default
    /// scale (all sources share one level and scale).
    fn diagonal_matvec(
        &self,
        sources: &[Source<'_>],
        eval: &Evaluator,
        enc: &Encoder,
        keys: &KeySet,
    ) -> Vec<Ciphertext> {
        let ct = sources[0].0;
        let out_scale = self.ctx.params().scale();
        let q_last = self.ctx.level_basis(ct.level).modulus(ct.level).value() as f64;
        let pt_scale = out_scale * q_last / ct.scale;
        let mut outs = diagonal_sums(eval, enc, &keys.galois, sources, pt_scale);
        for out in &mut outs {
            *out = eval.rescale(out);
            out.scale = out_scale; // snap f64 round-off; exact by construction
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encryption::{Decryptor, Encryptor};
    use crate::linalg::assert_bit_identical;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ctx: Arc<CkksContext>,
        boot: Bootstrapper,
        enc: Encoder,
        encryptor: Encryptor,
        decryptor: Decryptor,
        eval: Evaluator,
        keys: KeySet,
        rng: StdRng,
    }

    fn fixture(seed: u64) -> Fixture {
        let ctx = CkksContext::new(bootstrap_test_params());
        let boot = Bootstrapper::new(ctx.clone(), BootstrapParams::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = boot.generate_keys(&mut rng);
        Fixture {
            enc: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone()),
            decryptor: Decryptor::new(ctx.clone()),
            eval: Evaluator::new(ctx.clone()),
            boot,
            ctx,
            keys,
            rng,
        }
    }

    /// Encrypts an `n`-periodic tiling of `vals` at level 0.
    fn encrypt_sparse_at_level0(f: &mut Fixture, vals: &[f64]) -> Ciphertext {
        let n = f.boot.params().sparse_slots;
        assert_eq!(vals.len(), n);
        let slots = f.ctx.n() / 2;
        let tiled: Vec<f64> = (0..slots).map(|j| vals[j % n]).collect();
        let pt = f.enc.encode_real(&tiled, 0);
        f.encryptor.encrypt_sk(&pt, &f.keys.secret, &mut f.rng)
    }

    #[test]
    fn params_depth_fits_test_chain() {
        let p = BootstrapParams::default();
        // C2S (1) + Chebyshev deg 31 (5) + 3 double-angle + S2C (1).
        assert_eq!(p.depth(), 10);
        assert!(bootstrap_test_params().max_level() > p.depth());
    }

    #[test]
    fn required_rotations_cover_both_stages() {
        let ctx = CkksContext::new(bootstrap_test_params());
        let boot = Bootstrapper::new(ctx.clone(), BootstrapParams::default());
        let rots = boot.required_rotations();
        // C2S/S2C baby rotations 1..n.
        for r in 1..8 {
            assert!(rots.contains(&r), "missing C2S rotation {r}");
        }
        // SubSum doubling chain n, 2n, ..., N/4.
        let mut step = 8i64;
        while (step as usize) < ctx.n() / 2 {
            assert!(rots.contains(&step), "missing SubSum rotation {step}");
            step *= 2;
        }
    }

    #[test]
    fn mod_raise_preserves_residues_mod_q0() {
        let mut f = fixture(901);
        let vals = [0.5, -0.25, 0.75, -1.0, 0.1, 0.3, -0.6, 0.9];
        let ct = encrypt_sparse_at_level0(&mut f, &vals);
        let raised = f.boot.mod_raise(&ct);
        assert_eq!(raised.level, f.ctx.params().max_level());
        // The raised polynomials reduce back to the originals mod q0.
        let mut orig = ct.c0.clone();
        orig.to_coeff();
        let mut back = raised.c0.clone();
        back.to_coeff();
        let q0 = *f.ctx.level_basis(0).modulus(0);
        for (a, b) in orig.limb(0).iter().zip(back.limb(0)) {
            assert_eq!(*a, q0.reduce(*b));
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn mod_raise_rejects_non_exhausted_input() {
        let mut f = fixture(902);
        let pt = f.enc.encode_real(&[0.5], 2);
        let ct = f.encryptor.encrypt_sk(&pt, &f.keys.secret, &mut f.rng);
        let _ = f.boot.mod_raise(&ct);
    }

    #[test]
    fn sub_sum_projects_onto_subring() {
        // After the trace, decrypting must show (N/2n) * (m + q0 I) with
        // energy only at coefficient indices that are multiples of
        // N/(2n) — up to q0-multiples from I and rotation noise.
        let mut f = fixture(903);
        let vals = [0.9, -0.7, 0.5, -0.3, 0.1, 0.2, -0.4, 0.8];
        let ct = encrypt_sparse_at_level0(&mut f, &vals);
        let raised = f.boot.mod_raise(&ct);
        let traced = f.boot.sub_sum(&raised, &f.eval, &f.keys);
        let mut pt = f.decryptor.decrypt_poly(&traced, &f.keys.secret);
        pt.to_coeff();
        let n_ring = f.ctx.n();
        let stride = n_ring / (2 * f.boot.params().sparse_slots);
        let q0 = f.ctx.level_basis(0).modulus(0).value() as f64;
        let delta = f.ctx.params().scale();
        let trace_factor = stride as f64;
        let centered = pt.to_centered_f64();
        for (i, &c) in centered.iter().enumerate() {
            // Remove the q0-multiples contributed by I.
            let residual = (c / (trace_factor * q0)).rem_euclid(1.0);
            let frac = residual.min(1.0 - residual) * q0 / delta;
            if i % stride != 0 {
                assert!(
                    frac < 1e-3,
                    "coefficient {i} off-subring: fractional part {frac}"
                );
            }
        }
    }

    #[test]
    fn cos_fit_is_accurate_on_domain() {
        let ctx = CkksContext::new(bootstrap_test_params());
        let boot = Bootstrapper::new(ctx, BootstrapParams::default());
        let p = BootstrapParams::default();
        let width = (p.k_bound as f64 + 0.75) / (1u64 << p.double_angle) as f64;
        let err = boot
            .cos_fit
            .max_error(|u| (2.0 * PI * width * u).cos(), 400);
        assert!(err < 1e-7, "cosine fit error {err}");
    }

    #[test]
    fn bootstrap_refreshes_exhausted_ciphertext() {
        let mut f = fixture(904);
        let vals = [0.5, -0.25, 0.75, -0.9, 0.1, 0.35, -0.6, 0.05];
        let ct = encrypt_sparse_at_level0(&mut f, &vals);
        assert_eq!(ct.level, 0);

        let fresh = f.boot.bootstrap(&ct, &f.eval, &f.enc, &f.keys);
        let expected_level = f.ctx.params().max_level() - f.boot.params().depth();
        assert_eq!(fresh.level, expected_level);
        assert!(fresh.level >= 4, "refreshed ciphertext has usable levels");

        let back = f.decryptor.decrypt(&fresh, &f.keys.secret, &f.enc);
        for (i, &v) in vals.iter().enumerate() {
            assert!(
                (back[i].re - v).abs() < 2e-2,
                "slot {i}: {} vs {v}",
                back[i].re
            );
            assert!(back[i].im.abs() < 2e-2, "slot {i} imaginary leakage");
        }
        // Periodicity is preserved: slot n+i matches slot i.
        let n = f.boot.params().sparse_slots;
        for i in 0..n {
            assert!((back[i].re - back[n + i].re).abs() < 3e-2);
        }
    }

    /// The margin under `bootstrap_refreshes_exhausted_ciphertext`'s
    /// 2e-2: at the fixture every one of the `N/2` slots, real and
    /// imaginary parts together, lands within 2e-3 of its input, so a
    /// parameter change that eats into the margin fails here first.
    #[test]
    fn bootstrap_error_keeps_a_tenfold_margin() {
        let mut f = fixture(905);
        let vals = [0.95, -0.8, 0.6, -0.45, 0.3, -0.15, 0.05, -0.99];
        let ct = encrypt_sparse_at_level0(&mut f, &vals);
        let fresh = f.boot.bootstrap(&ct, &f.eval, &f.enc, &f.keys);
        let back = f.decryptor.decrypt(&fresh, &f.keys.secret, &f.enc);
        assert_eq!(back.len(), f.ctx.n() / 2);
        let worst = back
            .iter()
            .enumerate()
            .map(|(j, z)| (z.re - vals[j % vals.len()]).hypot(z.im))
            .fold(0.0, f64::max);
        println!("bootstrap max slot error: {worst:.2e}");
        assert!(worst < 2e-3, "max slot error {worst:.2e}");
    }

    #[test]
    fn op_counters_match_prediction() {
        // The analytic cost model must count exactly what the
        // implementation executes — this is the contract that lets the
        // performance layer trust `expected_ops`.
        let mut f = fixture(908);
        let vals = [0.2, -0.3, 0.5, -0.7, 0.1, 0.6, -0.4, 0.8];
        let ct = encrypt_sparse_at_level0(&mut f, &vals);
        f.eval.counters().reset();
        let _ = f.boot.bootstrap(&ct, &f.eval, &f.enc, &f.keys);
        let (ct_mults, _pt, rescales, keyswitches, galois, _adds) = f.eval.counters().snapshot();
        let (want_mults, want_galois, want_ks, want_rescales) = f.boot.expected_ops();
        assert_eq!(ct_mults, want_mults, "ct-mult count");
        assert_eq!(galois, want_galois, "galois count");
        assert_eq!(keyswitches, want_ks, "keyswitch count");
        assert_eq!(rescales, want_rescales, "rescale count");
        // One rescale per Chebyshev node, not one per term: 50 at the
        // fixture (degree 31, three double-angle steps, n = 8).
        assert_eq!(rescales, 50, "rescale count at the fixture");
    }

    /// `rescale(sum of sum_sequential)` snapped to the default scale —
    /// what one engine output must equal, built from the oracle only.
    fn sequential_output(f: &Fixture, parts: &[(&LinearTransform, &Ciphertext)]) -> Ciphertext {
        let ct = parts[0].1;
        let out_scale = f.ctx.params().scale();
        let q_last = f.ctx.level_basis(ct.level).modulus(ct.level).value() as f64;
        let pt_scale = out_scale * q_last / ct.scale;
        let sum = parts
            .iter()
            .map(|(lt, src)| lt.sum_sequential(&f.eval, &f.enc, src, &f.keys.galois, pt_scale))
            .reduce(|a, b| f.eval.add(&a, &b))
            .expect("at least one part");
        let mut out = f.eval.rescale(&sum);
        out.scale = out_scale;
        out
    }

    /// The engine-built pipeline against a reference assembled from
    /// `LinearTransform::sum_sequential` (a full `Evaluator::rotate` per
    /// diagonal, per output half): CoeffToSlot and the whole bootstrap
    /// must match bit for bit, and CoeffToSlot alone must cost exactly
    /// `1 + 2(n - 1)` Galois ops — its rotations shared across halves.
    #[test]
    fn bootstrap_bit_identical_to_sequential_reference() {
        let mut f = fixture(909);
        let n = f.boot.params().sparse_slots as u64;
        let vals = [0.3, -0.8, 0.15, 0.6, -0.45, 0.9, -0.05, 0.25];
        let ct = encrypt_sparse_at_level0(&mut f, &vals);
        let traced = f.boot.sub_sum(&f.boot.mod_raise(&ct), &f.eval, &f.keys);

        f.eval.counters().reset();
        let (t0, t1) = f.boot.coeff_to_slot(&traced, &f.eval, &f.enc, &f.keys);
        let (_, _, _, keyswitches, galois, _) = f.eval.counters().snapshot();
        assert_eq!(galois, 1 + 2 * (n - 1), "coeff_to_slot galois ops");
        assert_eq!(keyswitches, galois, "one keyswitch per galois op");

        let conj_g = fhe_math::galois::conjugation_galois_element(f.ctx.n());
        let conj = f.eval.conjugate(&traced, &f.keys.galois[&conj_g]);
        let shift = 0.25 / (f.boot.params().k_bound as f64 + 0.75);
        let want_half = |half: usize| {
            let t = sequential_output(
                &f,
                &[
                    (&f.boot.c2s_direct[half], &traced),
                    (&f.boot.c2s_conj[half], &conj),
                ],
            );
            f.eval.add_const(&t, -shift)
        };
        let (w0, w1) = (want_half(0), want_half(1));
        assert_bit_identical(&t0, &w0, "coeff_to_slot half 0");
        assert_bit_identical(&t1, &w1, "coeff_to_slot half 1");

        let m0 = f.boot.eval_mod(&w0, &f.eval, &f.keys);
        let m1 = f.boot.eval_mod(&w1, &f.eval, &f.keys);
        let want = f.eval.add(
            &sequential_output(&f, &[(&f.boot.s2c[0], &m0)]),
            &sequential_output(&f, &[(&f.boot.s2c[1], &m1)]),
        );
        let got = f.boot.bootstrap(&ct, &f.eval, &f.enc, &f.keys);
        assert_bit_identical(&got, &want, "bootstrap");
    }

    /// One full bootstrap at `n` sparse slots — the pipeline is generic
    /// in n: different slot counts use different subring degrees, trace
    /// lengths, and C2S/S2C matrix sizes. Each case is its own `#[test]`
    /// (below) so the two multi-second pipelines are separately
    /// schedulable and reportable instead of one monolithic test.
    fn check_bootstrap_with_sparse_slots(n: usize, seed: u64) {
        let ctx = CkksContext::new(bootstrap_test_params());
        let boot = Bootstrapper::new(
            ctx.clone(),
            BootstrapParams {
                sparse_slots: n,
                ..BootstrapParams::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = boot.generate_keys(&mut rng);
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let eval = Evaluator::new(ctx.clone());
        let dec = Decryptor::new(ctx.clone());

        let vals: Vec<f64> = (0..n).map(|i| (i as f64 / n as f64) - 0.4).collect();
        let slots = ctx.n() / 2;
        let tiled: Vec<f64> = (0..slots).map(|j| vals[j % n]).collect();
        let ct = encryptor.encrypt_sk(&enc.encode_real(&tiled, 0), &keys.secret, &mut rng);
        let fresh = boot.bootstrap(&ct, &eval, &enc, &keys);
        let back = dec.decrypt(&fresh, &keys.secret, &enc);
        for (i, &v) in vals.iter().enumerate() {
            assert!(
                (back[i].re - v).abs() < 2e-2,
                "n={n} slot {i}: {} vs {v}",
                back[i].re
            );
        }
    }

    #[test]
    fn bootstrap_generalises_to_4_sparse_slots() {
        check_bootstrap_with_sparse_slots(4, 906);
    }

    #[test]
    fn bootstrap_generalises_to_16_sparse_slots() {
        check_bootstrap_with_sparse_slots(16, 907);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bootstrap_rejects_bad_slot_count() {
        let ctx = CkksContext::new(bootstrap_test_params());
        let _ = Bootstrapper::new(
            ctx,
            BootstrapParams {
                sparse_slots: 6,
                ..BootstrapParams::default()
            },
        );
    }

    #[test]
    fn bootstrap_output_supports_further_multiplication() {
        let mut f = fixture(905);
        let vals = [0.4, -0.2, 0.6, 0.8, -0.5, 0.3, 0.7, -0.1];
        let ct = encrypt_sparse_at_level0(&mut f, &vals);
        let fresh = f.boot.bootstrap(&ct, &f.eval, &f.enc, &f.keys);
        // Square the refreshed ciphertext — impossible at level 0.
        let sq = f.eval.rescale(&f.eval.mul(&fresh, &fresh, &f.keys.relin));
        let back = f.decryptor.decrypt(&sq, &f.keys.secret, &f.enc);
        for (i, &v) in vals.iter().enumerate() {
            assert!(
                (back[i].re - v * v).abs() < 3e-2,
                "slot {i}: {} vs {}",
                back[i].re,
                v * v
            );
        }
    }
}
