//! Encrypted linear algebra: diagonal-encoded matrix-vector products.
//!
//! CKKS applications (the paper's HELR and ResNet-20 benchmarks, and the
//! CoeffToSlot/SlotToCoeff stages of bootstrapping) reduce to products of
//! an encrypted slot vector with plaintext matrices. The standard
//! technique encodes the matrix by generalised diagonals and evaluates
//!
//! ```text
//! M * v = sum_d  diag_d .* rot(v, d)
//! ```
//!
//! each rotation being one of the paper's `HRotate` operations. One
//! engine owns that loop for the whole crate — [`LinearTransform::apply`],
//! the inner sums of [`LinearTransform::apply_bsgs`] and bootstrapping's
//! CoeffToSlot/SlotToCoeff are instances of it — and one sequential
//! oracle, [`LinearTransform::apply_sequential`], pins its output bits.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use fhe_math::{pool, Complex};

use crate::ciphertext::Ciphertext;
use crate::encoding::Encoder;
use crate::eval::Evaluator;
use crate::keys::SwitchingKey;

/// A plaintext linear transform stored by generalised diagonals.
///
/// The fields are private so every diagonal index lies in `[0, dim)`
/// and every diagonal has exactly `dim` entries; the ordered map makes
/// evaluation (and kernel-call) order deterministic.
#[derive(Debug, Clone)]
pub struct LinearTransform {
    /// Diagonal index -> diagonal entries (length `dim`).
    diagonals: BTreeMap<i64, Vec<Complex>>,
    /// Slot dimension the transform acts on.
    dim: usize,
}

/// One source of a [`diagonal_sums`] call: a ciphertext and the
/// `(output, transform)` pairs whose diagonals act on it, each summed
/// into output number `output`.
pub(crate) type Source<'a> = (&'a Ciphertext, &'a [(usize, &'a LinearTransform)]);

/// The switching key for slot rotation `d` in a ring of degree `n`.
///
/// # Panics
///
/// Panics if `keys` has none.
pub(crate) fn galois_key(keys: &HashMap<u64, SwitchingKey>, d: i64, n: usize) -> &SwitchingKey {
    let g = fhe_math::galois::rotation_galois_element(d, n);
    keys.get(&g)
        .unwrap_or_else(|| panic!("missing galois key for rotation {d}"))
}

fn fold(eval: &Evaluator, acc: &mut Option<Ciphertext>, term: Ciphertext) {
    *acc = Some(match acc.take() {
        None => term,
        Some(a) => eval.add(&a, &term),
    });
}

/// The crate's one production diagonal-sum loop (rescale excluded).
///
/// Per source: one [`Evaluator::hoist_rotations`], then for each
/// distinct step `d` (ascending) one [`Evaluator::rotate_hoisted`],
/// folded — `mul_plain` by the diagonal encoded at `pt_scale`, then add
/// — into **every** output with a diagonal `d` on that source and dropped
/// before the next step, so transforms sharing a source share its
/// rotations and at most one rotated ciphertext per source is alive at a
/// time.
///
/// Sources are independent until the final per-output add, so they are
/// split over one [`map_chunks`](fhe_math::pool::WorkerPool::map_chunks)
/// on the process pool ([`fhe_math::pool::shared`]), each source with
/// its own hoist; the chunks' partial sums are then added per output in
/// source order. One source, or a 1-lane pool, runs as one chunk inline
/// on the calling thread, accumulating every source into one set of
/// outputs.
///
/// Output `o` is bit-identical to the sum over its transforms of
/// [`LinearTransform::sum_sequential`]: a hoisted rotation equals the
/// sequential one bit for bit and ciphertext accumulation is exact
/// modular arithmetic, so neither order nor the thread can matter.
///
/// # Panics
///
/// Panics if a required Galois key is missing or an output index
/// receives no diagonal.
pub(crate) fn diagonal_sums(
    eval: &Evaluator,
    enc: &Encoder,
    galois_keys: &HashMap<u64, SwitchingKey>,
    sources: &[Source<'_>],
    pt_scale: f64,
) -> Vec<Ciphertext> {
    let all_terms = sources.iter().flat_map(|&(_, terms)| terms);
    let outputs = all_terms.map(|&(o, _)| o + 1).max().unwrap_or(0);
    let partials = pool::shared().map_chunks(sources, |chunk: &[Source<'_>]| {
        let mut accs = vec![None; outputs];
        for &source in chunk {
            accumulate_source(eval, enc, galois_keys, source, pt_scale, &mut accs);
        }
        vec![accs]
    });
    let mut accs: Vec<Option<Ciphertext>> = vec![None; outputs];
    for partial in partials {
        for (acc, term) in accs.iter_mut().zip(partial) {
            if let Some(term) = term {
                fold(eval, acc, term);
            }
        }
    }
    accs.into_iter()
        .map(|acc| acc.expect("every output has at least one diagonal"))
        .collect()
}

/// One source's share of [`diagonal_sums`], folded into `accs` (one
/// entry per output, `None` until a term reaches it).
fn accumulate_source(
    eval: &Evaluator,
    enc: &Encoder,
    galois_keys: &HashMap<u64, SwitchingKey>,
    (src, terms): Source<'_>,
    pt_scale: f64,
    accs: &mut [Option<Ciphertext>],
) {
    let n = eval.context().n();
    let steps: BTreeSet<i64> = terms
        .iter()
        .flat_map(|&(_, lt)| lt.diagonals.keys().copied())
        .collect();
    let mut hoisted = None;
    for d in steps {
        let rotated;
        let operand = if d == 0 {
            src
        } else {
            let h = hoisted.get_or_insert_with(|| eval.hoist_rotations(src));
            rotated = eval.rotate_hoisted(src, h, d, galois_key(galois_keys, d, n));
            &rotated
        };
        for &(o, lt) in terms {
            if let Some(diag) = lt.diagonals.get(&d) {
                let pt = enc.encode_at_scale(&lt.tile(diag, enc.slots()), src.level, pt_scale);
                fold(eval, &mut accs[o], eval.mul_plain(operand, &pt));
            }
        }
    }
}

impl LinearTransform {
    /// Builds a transform from a dense row-major `dim x dim` matrix;
    /// all-zero diagonals are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.len() != dim * dim`.
    pub fn from_matrix(matrix: &[Complex], dim: usize) -> Self {
        assert_eq!(matrix.len(), dim * dim);
        // Generalised diagonal d: entry j is M[j][(j + d) mod dim].
        let diagonals = (0..dim)
            .map(|d| {
                let diag = (0..dim).map(|j| matrix[j * dim + ((j + d) % dim)]);
                (d as i64, diag.collect::<Vec<_>>())
            })
            .filter(|(_, diag)| diag.iter().any(|z| z.norm_sqr() > 1e-24));
        Self::from_diagonals(dim, diagonals)
    }

    /// Builds a transform directly from `(index, diagonal)` pairs, where
    /// entry `j` of diagonal `d` is `M[j][(j + d) mod dim]`. A repeated
    /// index keeps the last diagonal given.
    ///
    /// # Panics
    ///
    /// Panics unless every index satisfies `0 <= d < dim` and every
    /// diagonal has exactly `dim` entries.
    pub fn from_diagonals(
        dim: usize,
        diagonals: impl IntoIterator<Item = (i64, Vec<Complex>)>,
    ) -> Self {
        let diagonals: BTreeMap<i64, Vec<Complex>> = diagonals.into_iter().collect();
        for (&d, diag) in &diagonals {
            let in_range = usize::try_from(d).is_ok_and(|d| d < dim);
            assert!(in_range, "diagonal index {d} outside [0, {dim})");
            assert_eq!(diag.len(), dim, "diagonal {d} must have dim entries");
        }
        Self { diagonals, dim }
    }

    /// Rotation amounts required to evaluate this transform diagonal by
    /// diagonal, ascending.
    pub fn required_rotations(&self) -> Vec<i64> {
        self.diagonals.keys().copied().collect()
    }

    /// Rotation amounts required by the BSGS evaluation with giant-step
    /// `g`: baby steps `1..g` and giant steps `g, 2g, ...`.
    pub fn bsgs_rotations(&self, g: usize) -> Vec<i64> {
        let g = g.max(1) as i64;
        let mut set = BTreeSet::new();
        for &d in self.diagonals.keys() {
            set.insert(d % g);
            set.insert(d - d % g);
        }
        set.remove(&0);
        set.into_iter().collect()
    }

    /// Evaluates the transform on a ciphertext: the one-source,
    /// one-output instance of the crate's diagonal engine, so the input
    /// is hoisted once and each diagonal pays only the per-rotation
    /// keyswitch tail. Bit-identical to [`Self::apply_sequential`].
    ///
    /// `galois_keys` maps Galois elements to switching keys and must
    /// cover [`Self::required_rotations`]. Consumes one level (rescale
    /// included).
    ///
    /// # Panics
    ///
    /// Panics if a required Galois key is missing or the transform has
    /// no diagonal.
    pub fn apply(
        &self,
        eval: &Evaluator,
        enc: &Encoder,
        ct: &Ciphertext,
        galois_keys: &HashMap<u64, SwitchingKey>,
    ) -> Ciphertext {
        let scale = eval.context().params().scale();
        let sums = diagonal_sums(eval, enc, galois_keys, &[(ct, &[(0, self)])], scale);
        eval.rescale(&sums[0])
    }

    /// The sequential oracle for the engine: one complete
    /// [`Evaluator::rotate`] per diagonal, never hoisted, then the
    /// rescale. Tests and the micro benches compare against it; nothing
    /// in production calls it.
    ///
    /// # Panics
    ///
    /// As [`Self::apply`].
    pub fn apply_sequential(
        &self,
        eval: &Evaluator,
        enc: &Encoder,
        ct: &Ciphertext,
        galois_keys: &HashMap<u64, SwitchingKey>,
    ) -> Ciphertext {
        let scale = eval.context().params().scale();
        eval.rescale(&self.sum_sequential(eval, enc, ct, galois_keys, scale))
    }

    /// [`Self::apply_sequential`] before the rescale, with the plaintext
    /// diagonals encoded at `pt_scale` — the form a multi-term reference
    /// (bootstrapping's CoeffToSlot) is assembled from.
    pub(crate) fn sum_sequential(
        &self,
        eval: &Evaluator,
        enc: &Encoder,
        ct: &Ciphertext,
        galois_keys: &HashMap<u64, SwitchingKey>,
        pt_scale: f64,
    ) -> Ciphertext {
        let n = eval.context().n();
        let mut acc = None;
        for (&d, diag) in &self.diagonals {
            let rotated = if d == 0 {
                ct.clone()
            } else {
                eval.rotate(ct, d, galois_key(galois_keys, d, n))
            };
            let pt = enc.encode_at_scale(&self.tile(diag, enc.slots()), ct.level, pt_scale);
            fold(eval, &mut acc, eval.mul_plain(&rotated, &pt));
        }
        acc.expect("transform has at least one diagonal")
    }

    /// Evaluates with baby-step/giant-step: diagonal `d = i*g + b`
    /// joins giant group `i` under baby step `b`, so only
    /// `O(sqrt(D))` distinct rotations are applied. The baby rotations
    /// and inner sums are one engine call with one output per giant
    /// group (all share one hoist of `ct`); each inner sum is then
    /// rotated by its giant step and the total rescaled once.
    ///
    /// # Panics
    ///
    /// Panics if a required Galois key ([`Self::bsgs_rotations`]) is
    /// missing or the transform has no diagonal.
    pub fn apply_bsgs(
        &self,
        eval: &Evaluator,
        enc: &Encoder,
        ct: &Ciphertext,
        galois_keys: &HashMap<u64, SwitchingKey>,
        giant_step: usize,
    ) -> Ciphertext {
        let g = giant_step.max(1) as i64;
        // Giant shift i*g -> the group's diagonals keyed by baby step,
        // each pre-rotated by -i*g so the giant rotation restores it.
        let mut groups: BTreeMap<i64, Self> = BTreeMap::new();
        for (&d, diag) in &self.diagonals {
            let shift = d - d % g;
            let back = self.dim - shift as usize; // 0 <= shift <= d < dim
            let pre = (0..self.dim).map(|j| diag[(j + back) % self.dim]);
            let group = groups.entry(shift).or_insert_with(|| Self {
                diagonals: BTreeMap::new(),
                dim: self.dim,
            });
            group.diagonals.insert(d % g, pre.collect());
        }
        let terms: Vec<(usize, &Self)> = groups.values().enumerate().collect();
        let scale = eval.context().params().scale();
        let inner = diagonal_sums(eval, enc, galois_keys, &[(ct, &terms)], scale);
        let n = eval.context().n();
        let mut acc = None;
        for (&shift, mut partial) in groups.keys().zip(inner) {
            if shift != 0 {
                partial = eval.rotate(&partial, shift, galois_key(galois_keys, shift, n));
            }
            fold(eval, &mut acc, partial);
        }
        eval.rescale(&acc.expect("transform has at least one diagonal"))
    }

    /// Tiles a `dim`-length diagonal across all slots so rotations of
    /// the full slot vector act like rotations of the `dim`-vector.
    fn tile(&self, diag: &[Complex], slots: usize) -> Vec<Complex> {
        (0..slots).map(|j| diag[j % self.dim]).collect()
    }
}

/// Test helper (here and in `bootstrap`): equal bits, level and scale.
#[cfg(test)]
pub(crate) fn assert_bit_identical(got: &Ciphertext, want: &Ciphertext, what: &str) {
    assert_eq!(got.c0.flat(), want.c0.flat(), "{what}: c0");
    assert_eq!(got.c1.flat(), want.c1.flat(), "{what}: c1");
    assert_eq!(got.level, want.level, "{what}: level");
    assert_eq!(got.scale, want.scale, "{what}: scale");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encryption::{Decryptor, Encryptor};
    use crate::keys::{KeyGenerator, KeySet};
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 8;

    struct Fixture {
        enc: Encoder,
        decryptor: Decryptor,
        eval: Evaluator,
        keys: KeySet,
        /// Encryption of `v` tiled across all slots, so rotations
        /// behave cyclically mod `DIM`.
        ct: Ciphertext,
        v: Vec<f64>,
    }

    /// Tiny-params fixture with keys for `rotations` and one encrypted
    /// random `DIM`-vector.
    fn fixture(rng: &mut StdRng, rotations: &[i64]) -> Fixture {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let keys = KeyGenerator::new(ctx.clone()).key_set(rotations, rng);
        let enc = Encoder::new(ctx.clone());
        let v: Vec<f64> = (0..DIM).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let tiled: Vec<f64> = (0..enc.slots()).map(|j| v[j % DIM]).collect();
        let ct = Encryptor::new(ctx.clone()).encrypt_sk(
            &enc.encode_real(&tiled, ctx.params().max_level()),
            &keys.secret,
            rng,
        );
        Fixture {
            enc,
            decryptor: Decryptor::new(ctx.clone()),
            eval: Evaluator::new(ctx),
            keys,
            ct,
            v,
        }
    }

    fn real_matrix(rng: &mut StdRng) -> Vec<Complex> {
        (0..DIM * DIM)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect()
    }

    fn random_diagonal(rng: &mut StdRng) -> Vec<Complex> {
        (0..DIM)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect()
    }

    #[test]
    fn matvec_matches_plain_computation() {
        let mut rng = StdRng::seed_from_u64(71);
        let matrix = real_matrix(&mut rng);
        let lt = LinearTransform::from_matrix(&matrix, DIM);
        let f = fixture(&mut rng, &lt.required_rotations());

        let out = lt.apply(&f.eval, &f.enc, &f.ct, &f.keys.galois);
        let back = f.decryptor.decrypt(&out, &f.keys.secret, &f.enc);
        for r in 0..DIM {
            let expect: f64 = (0..DIM).map(|c| matrix[r * DIM + c].re * f.v[c]).sum();
            assert!(
                (back[r].re - expect).abs() < 1e-2,
                "row {r}: {} vs {expect}",
                back[r].re
            );
        }
    }

    /// BSGS must decrypt to the same vector as the plain engine pass.
    fn assert_bsgs_matches_apply(lt: &LinearTransform, g: usize, rng: &mut StdRng) {
        let mut rots = lt.required_rotations();
        rots.extend(lt.bsgs_rotations(g));
        let f = fixture(rng, &rots);
        let naive = lt.apply(&f.eval, &f.enc, &f.ct, &f.keys.galois);
        let bsgs = lt.apply_bsgs(&f.eval, &f.enc, &f.ct, &f.keys.galois, g);
        let dn = f.decryptor.decrypt(&naive, &f.keys.secret, &f.enc);
        let db = f.decryptor.decrypt(&bsgs, &f.keys.secret, &f.enc);
        for r in 0..DIM {
            assert!(
                (dn[r].re - db[r].re).abs() < 2e-2,
                "row {r}: naive {} vs bsgs {}",
                dn[r].re,
                db[r].re
            );
        }
    }

    #[test]
    fn bsgs_matches_naive() {
        let mut rng = StdRng::seed_from_u64(72);
        let lt = LinearTransform::from_matrix(&real_matrix(&mut rng), DIM);
        assert_bsgs_matches_apply(&lt, 4, &mut rng);
    }

    /// The engine (hoisted) must equal the sequential oracle bit for
    /// bit: every rotated term is bitwise identical and ciphertext
    /// accumulation is exact modular arithmetic.
    #[test]
    fn hoisted_apply_bit_identical_to_naive() {
        let mut rng = StdRng::seed_from_u64(73);
        let lt = LinearTransform::from_matrix(&real_matrix(&mut rng), DIM);
        let f = fixture(&mut rng, &lt.required_rotations());
        let engine = lt.apply(&f.eval, &f.enc, &f.ct, &f.keys.galois);
        let oracle = lt.apply_sequential(&f.eval, &f.enc, &f.ct, &f.keys.galois);
        assert_bit_identical(&engine, &oracle, "apply vs apply_sequential");
    }

    /// The engine and the sequential oracle bump the op counters
    /// identically: a hoisted rotation still counts as one Galois op
    /// and one keyswitch.
    #[test]
    fn hoisted_apply_counts_like_sequential() {
        let mut rng = StdRng::seed_from_u64(73);
        let lt = LinearTransform::from_matrix(&real_matrix(&mut rng), DIM);
        let f = fixture(&mut rng, &lt.required_rotations());
        f.eval.counters().reset();
        let _ = lt.apply(&f.eval, &f.enc, &f.ct, &f.keys.galois);
        let engine_ops = f.eval.counters().snapshot();
        f.eval.counters().reset();
        let _ = lt.apply_sequential(&f.eval, &f.enc, &f.ct, &f.keys.galois);
        assert_eq!(f.eval.counters().snapshot(), engine_ops, "op counters");
        assert_eq!(engine_ops.4, DIM as u64 - 1, "one Galois op per rotation");
    }

    /// Same identity on a sparse diagonal set without the main
    /// diagonal, where BSGS groups are ragged (g = 4: {3}, {5, 6}).
    #[test]
    fn sparse_apply_bit_identical_to_sequential() {
        let mut rng = StdRng::seed_from_u64(74);
        let lt =
            LinearTransform::from_diagonals(DIM, [3, 5, 6].map(|d| (d, random_diagonal(&mut rng))));
        assert_eq!(lt.required_rotations(), [3, 5, 6]);
        assert_eq!(lt.bsgs_rotations(4), [1, 2, 3, 4]);
        let f = fixture(&mut rng, &lt.required_rotations());
        let engine = lt.apply(&f.eval, &f.enc, &f.ct, &f.keys.galois);
        let oracle = lt.apply_sequential(&f.eval, &f.enc, &f.ct, &f.keys.galois);
        assert_bit_identical(&engine, &oracle, "apply vs apply_sequential");
        assert_bsgs_matches_apply(&lt, 4, &mut rng);
    }

    /// Two outputs sharing one source, with different diagonal sets
    /// (only the first has step 2, only the second step 5), each equal
    /// their own single-output result bit for bit — and the shared
    /// steps are rotated once, not once per output.
    #[test]
    fn shared_source_outputs_equal_single_output_results() {
        let mut rng = StdRng::seed_from_u64(75);
        let a =
            LinearTransform::from_diagonals(DIM, [0, 1, 2].map(|d| (d, random_diagonal(&mut rng))));
        let b =
            LinearTransform::from_diagonals(DIM, [1, 5].map(|d| (d, random_diagonal(&mut rng))));
        let f = fixture(&mut rng, &[1, 2, 5]);
        let scale = f.eval.context().params().scale();

        f.eval.counters().reset();
        let both = diagonal_sums(
            &f.eval,
            &f.enc,
            &f.keys.galois,
            &[(&f.ct, &[(0, &a), (1, &b)])],
            scale,
        );
        let (_, pt_mults, _, keyswitches, galois, _) = f.eval.counters().snapshot();
        assert_eq!((pt_mults, galois, keyswitches), (5, 3, 3));

        for (got, lt) in both.iter().zip([&a, &b]) {
            let alone = lt.apply(&f.eval, &f.enc, &f.ct, &f.keys.galois);
            assert_bit_identical(&f.eval.rescale(got), &alone, "shared vs alone");
        }
    }

    #[test]
    fn identity_matrix_is_identity() {
        let dim = 4usize;
        let mut matrix = vec![Complex::default(); dim * dim];
        for i in 0..dim {
            matrix[i * dim + i] = Complex::new(1.0, 0.0);
        }
        let lt = LinearTransform::from_matrix(&matrix, dim);
        assert_eq!(
            lt.required_rotations(),
            [0],
            "identity has only the main diagonal"
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 8)")]
    fn from_diagonals_rejects_negative_index() {
        let _ = LinearTransform::from_diagonals(DIM, [(-1, vec![Complex::default(); DIM])]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 8)")]
    fn from_diagonals_rejects_index_past_dim() {
        let _ = LinearTransform::from_diagonals(DIM, [(8, vec![Complex::default(); DIM])]);
    }

    #[test]
    #[should_panic(expected = "must have dim entries")]
    fn from_diagonals_rejects_short_diagonal() {
        let _ = LinearTransform::from_diagonals(DIM, [(1, vec![Complex::default(); DIM - 1])]);
    }
}
