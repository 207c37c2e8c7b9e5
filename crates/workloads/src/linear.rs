//! A functional encrypted linear layer — the diagonal matvec at the
//! heart of HELR and the ResNet-20 linear stages, executed with
//! `fhe-ckks` rather than modeled as a kernel DAG.
//!
//! The other modules in this crate *count* kernels; this one *runs*
//! them, so the hoisted-rotation optimisation can be benchmarked and
//! bit-checked end to end: a layer applying `k` rotations to one
//! ciphertext pays for Decompose + ModUp + the digit NTTs once
//! ([`fhe_ckks::hoist_rotations`]) instead of `k` times, and
//! [`LinearLayer::eval`] must produce output bit-identical to the
//! oracle [`LinearLayer::eval_sequential`] — the same discipline the
//! lazy-reduction chains are held to.

use std::sync::Arc;

use fhe_ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator, KeySet,
    LinearTransform,
};
use fhe_math::Complex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fully materialised encrypted linear layer: a plaintext diagonal
/// transform, key material covering its rotations, and an encrypted
/// input vector — everything needed to run the matvec through the
/// engine (shared ModUp, per-rotation tail only) or its sequential
/// oracle (one full keyswitch per diagonal).
pub struct LinearLayer {
    /// CKKS context the layer runs in.
    pub ctx: Arc<CkksContext>,
    /// Slot encoder for the diagonal plaintexts.
    pub encoder: Encoder,
    /// Evaluator; its op counters track the layer's rotations.
    pub evaluator: Evaluator,
    /// Secret + Galois keys covering the layer's rotations.
    pub keys: KeySet,
    /// The plaintext transform, `dim x dim` by generalised diagonals.
    pub transform: LinearTransform,
    /// Encrypted input vector, tiled across all slots.
    pub input: Ciphertext,
}

impl LinearLayer {
    /// Builds a deterministic dense `dim x dim` layer from `seed`:
    /// every generalised diagonal is nonzero, so the layer applies
    /// exactly `dim - 1` rotations (diagonal 0 needs none). Runs at
    /// [`CkksParams::tiny_params`] — the CI-sized shape every
    /// functional oracle suite uses.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is 0 or exceeds the slot count.
    pub fn random(dim: usize, seed: u64) -> Self {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(seed);
        let encoder = Encoder::new(ctx.clone());
        assert!(dim > 0 && dim <= encoder.slots(), "dim out of range");

        // Dense entries bounded away from zero so no diagonal is
        // pruned and the rotation count is exactly `dim - 1`.
        let matrix: Vec<Complex> = (0..dim * dim)
            .map(|_| {
                let mag = rng.gen_range(0.1..1.0);
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                Complex::new(sign * mag, 0.0)
            })
            .collect();
        let transform = LinearTransform::from_matrix(&matrix, dim);

        // Input drawn *before* key material so tests can replay the
        // (matrix, input) pair from the seed alone.
        let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();

        let kg = KeyGenerator::new(ctx.clone());
        let keys = kg.key_set(&transform.required_rotations(), &mut rng);
        let encryptor = Encryptor::new(ctx.clone());
        let evaluator = Evaluator::new(ctx.clone());
        let tiled: Vec<f64> = (0..encoder.slots()).map(|j| v[j % dim]).collect();
        let input = encryptor.encrypt_sk(
            &encoder.encode_real(&tiled, ctx.params().max_level()),
            &keys.secret,
            &mut rng,
        );

        Self {
            ctx,
            encoder,
            evaluator,
            keys,
            transform,
            input,
        }
    }

    /// Number of HRotate operations one evaluation performs (the
    /// nonzero diagonals; diagonal 0 rotates by nothing).
    pub fn rotation_count(&self) -> usize {
        self.transform
            .required_rotations()
            .iter()
            .filter(|&&d| d != 0)
            .count()
    }

    /// The layer as production runs it ([`LinearTransform::apply`]):
    /// Decompose + ModUp + digit NTTs once, then only the automorphism
    /// → inner product → ModDown tail per rotation. Bit-identical to
    /// [`Self::eval_sequential`].
    pub fn eval(&self) -> Ciphertext {
        self.transform.apply(
            &self.evaluator,
            &self.encoder,
            &self.input,
            &self.keys.galois,
        )
    }

    /// The oracle ([`LinearTransform::apply_sequential`]): one complete
    /// hybrid keyswitch — Decompose, ModUp, digit NTTs, inner product,
    /// ModDown — per diagonal rotation.
    pub fn eval_sequential(&self) -> Ciphertext {
        self.transform.apply_sequential(
            &self.evaluator,
            &self.encoder,
            &self.input,
            &self.keys.galois,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ckks::Decryptor;

    /// The hoisted layer is the optimisation under test; the
    /// sequential layer is its oracle. Bit-identity, not closeness.
    #[test]
    fn hoisted_layer_bit_identical_to_sequential() {
        let layer = LinearLayer::random(9, 81);
        assert_eq!(layer.rotation_count(), 8, "9x9 dense layer: 8 rotations");

        let seq = layer.eval_sequential();
        let hoisted = layer.eval();
        assert_eq!(hoisted.c0.flat(), seq.c0.flat());
        assert_eq!(hoisted.c1.flat(), seq.c1.flat());
        assert_eq!(hoisted.level, seq.level);
        assert_eq!(hoisted.scale, seq.scale);
    }

    /// Both paths bump the op counters identically — a hoisted
    /// rotation still counts as one galois op + one keyswitch.
    #[test]
    fn hoisted_layer_counts_like_sequential() {
        let layer = LinearLayer::random(8, 82);
        layer.evaluator.counters().reset();
        let _ = layer.eval_sequential();
        let seq_snapshot = layer.evaluator.counters().snapshot();
        layer.evaluator.counters().reset();
        let _ = layer.eval();
        assert_eq!(layer.evaluator.counters().snapshot(), seq_snapshot);
    }

    /// The encrypted layer decrypts to the plain matvec.
    #[test]
    fn layer_matches_plain_matvec() {
        let dim = 8usize;
        let seed = 83u64;
        let layer = LinearLayer::random(dim, seed);
        let out = layer.eval();
        let decryptor = Decryptor::new(layer.ctx.clone());
        let back = decryptor.decrypt(&out, &layer.keys.secret, &layer.encoder);

        // Recover the plain matrix and input the same way `random` drew
        // them (deterministic seed).
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix: Vec<f64> = (0..dim * dim)
            .map(|_| {
                let mag = rng.gen_range(0.1..1.0);
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sign * mag
            })
            .collect();
        let v: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();

        for r in 0..dim {
            let expect: f64 = (0..dim).map(|c| matrix[r * dim + c] * v[c]).sum();
            assert!(
                (back[r].re - expect).abs() < 1e-2,
                "row {r}: {} vs {expect}",
                back[r].re
            );
        }
    }
}
