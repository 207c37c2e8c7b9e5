//! Homomorphic polynomial evaluation.
//!
//! CKKS applications approximate non-linear functions by polynomials —
//! the paper's HELR benchmark evaluates a sigmoid approximation and
//! bootstrapping's EvalMod evaluates a sine approximation. This module
//! provides Horner evaluation with automatic level/scale alignment.

use crate::ciphertext::Ciphertext;
use crate::eval::Evaluator;
use crate::keys::SwitchingKey;

impl Evaluator {
    /// Evaluates `p(x) = coeffs[0] + coeffs[1] x + ... + coeffs[d] x^d`
    /// on a ciphertext by Horner's rule.
    ///
    /// Consumes `d` levels (one HMult + rescale per degree). The input
    /// must have at least `d` levels remaining.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty or `x.level < coeffs.len() - 1`.
    pub fn eval_poly_horner(
        &self,
        x: &Ciphertext,
        coeffs: &[f64],
        rlk: &SwitchingKey,
    ) -> Ciphertext {
        assert!(!coeffs.is_empty(), "polynomial needs coefficients");
        let degree = coeffs.len() - 1;
        assert!(
            x.level >= degree,
            "need {} levels, ciphertext has {}",
            degree,
            x.level
        );
        // Start from a_d * x (a constant at x's scale) to avoid
        // encrypting a constant.
        let mut acc = self.mul_const(x, coeffs[degree], x.scale);
        let mut next_coeff = degree.wrapping_sub(1);
        loop {
            // acc currently has scale x.scale^2-ish; rescale then add the
            // next coefficient at the matching scale.
            acc = self.add_const(&self.rescale(&acc), coeffs[next_coeff]);
            if next_coeff == 0 {
                break;
            }
            next_coeff -= 1;
            // acc = acc * x (x aligned down to acc's level).
            let x_low = self.mod_down_to(x, acc.level);
            acc = self.mul(&acc, &x_low, rlk);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encoding::Encoder;
    use crate::encryption::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eval_poly_plain(coeffs: &[f64], x: f64) -> f64 {
        coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    #[test]
    fn degree_two_polynomial() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(301);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[], &mut rng);
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let eval = Evaluator::new(ctx.clone());
        let dec = Decryptor::new(ctx.clone());

        // p(x) = 0.5 - 0.25 x + 0.125 x^2
        let coeffs = [0.5, -0.25, 0.125];
        let xs = [0.9, -0.5, 0.1, 0.7];
        let l = ctx.params().max_level();
        let ct = encryptor.encrypt_sk(&enc.encode_real(&xs, l), &keys.secret, &mut rng);
        let out_ct = eval.eval_poly_horner(&ct, &coeffs, &keys.relin);
        let out = dec.decrypt(&out_ct, &keys.secret, &enc);
        for (i, &x) in xs.iter().enumerate() {
            let expect = eval_poly_plain(&coeffs, x);
            assert!(
                (out[i].re - expect).abs() < 2e-2,
                "x={x}: {} vs {expect}",
                out[i].re
            );
        }
    }

    #[test]
    fn degree_three_sigmoid_approximation() {
        // The HELR sigmoid approximation: 0.5 + 0.197 x - 0.004 x^3.
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(302);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[], &mut rng);
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let eval = Evaluator::new(ctx.clone());
        let dec = Decryptor::new(ctx.clone());

        let coeffs = [0.5, 0.197, 0.0, -0.004];
        let xs = [-2.0, -0.5, 0.0, 0.5, 2.0];
        let l = ctx.params().max_level();
        let ct = encryptor.encrypt_sk(&enc.encode_real(&xs, l), &keys.secret, &mut rng);
        let out_ct = eval.eval_poly_horner(&ct, &coeffs, &keys.relin);
        assert_eq!(out_ct.level, l - 3);
        let out = dec.decrypt(&out_ct, &keys.secret, &enc);
        for (i, &x) in xs.iter().enumerate() {
            let expect = eval_poly_plain(&coeffs, x);
            // Also check against the true sigmoid within the fit's error.
            let sigmoid = 1.0 / (1.0 + (-x).exp());
            assert!(
                (out[i].re - expect).abs() < 5e-2,
                "x={x}: {} vs poly {expect}",
                out[i].re
            );
            assert!(
                (out[i].re - sigmoid).abs() < 0.12,
                "x={x}: {} vs sigmoid {sigmoid}",
                out[i].re
            );
        }
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn too_deep_polynomial_rejected() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(303);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[], &mut rng);
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let eval = Evaluator::new(ctx.clone());
        let ct = encryptor.encrypt_sk(&enc.encode_real(&[0.1], 1), &keys.secret, &mut rng);
        // Degree 5 needs 5 levels; the ciphertext has 1.
        let _ = eval.eval_poly_horner(&ct, &[1.0; 6], &keys.relin);
    }
}
