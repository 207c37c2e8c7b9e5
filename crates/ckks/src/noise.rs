//! Noise measurement and budget estimation.
//!
//! CKKS is approximate: every operation adds noise, and parameters are
//! chosen by budgeting that noise against the scale. This module gives
//! the two tools a parameter-selection workflow needs:
//!
//! * [`measure_noise_bits`] — the *ground truth*: decrypt a ciphertext
//!   whose plaintext is known and report `log2` of the worst
//!   coefficient error (requires the secret key; test/debug only);
//! * [`NoiseModel`] — an a-priori variance model of fresh encryption,
//!   addition, plaintext/ciphertext multiplication, rescaling and
//!   keyswitching, tracked in bits so a circuit's noise trajectory can
//!   be estimated before choosing a prime chain.
//!
//! The model follows the standard central-limit treatment (each noise
//! source an independent zero-mean variate; variances add; ring
//! multiplication by a polynomial with `h` nonzero ±1 coefficients
//! scales the variance by `h`). Tests cross-check the model against
//! measurement within a conservative band.

use crate::ciphertext::Ciphertext;
use crate::context::CkksContext;
use crate::encoding::Encoder;
use crate::encryption::Decryptor;
use crate::keys::SecretKey;

/// Measures the true noise of `ct` in bits, given the plaintext slots
/// it should encode: `log2(max_i |Delta * m_i - Dec(ct)_i|)` over the
/// slot domain, i.e. the error *relative to the plaintext integers*.
///
/// Returns `f64::NEG_INFINITY` for an exact ciphertext.
pub fn measure_noise_bits(
    ctx: &std::sync::Arc<CkksContext>,
    ct: &Ciphertext,
    expected_slots: &[fhe_math::Complex],
    sk: &SecretKey,
    enc: &Encoder,
) -> f64 {
    let dec = Decryptor::new(ctx.clone());
    let got = dec.decrypt(ct, sk, enc);
    let mut worst: f64 = 0.0;
    for (i, want) in expected_slots.iter().enumerate() {
        let err = ((got[i].re - want.re).powi(2) + (got[i].im - want.im).powi(2)).sqrt();
        worst = worst.max(err * ct.scale);
    }
    worst.log2()
}

/// An a-priori noise estimate: standard deviation in bits of the error
/// term carried by a ciphertext, relative to the plaintext integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseEstimate {
    /// `log2` of the error standard deviation.
    pub bits: f64,
}

/// `+` combines two independent error terms (variances add).
impl std::ops::Add for NoiseEstimate {
    type Output = NoiseEstimate;

    fn add(self, other: NoiseEstimate) -> NoiseEstimate {
        let v = 4f64.powf(self.bits) + 4f64.powf(other.bits);
        NoiseEstimate {
            bits: v.log2() / 2.0,
        }
    }
}

impl NoiseEstimate {
    /// Scales the error by a constant factor `c` (in absolute value).
    pub fn scale(self, c: f64) -> NoiseEstimate {
        NoiseEstimate {
            bits: self.bits + c.abs().max(f64::MIN_POSITIVE).log2(),
        }
    }
}

/// Variance model for a CKKS instance.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    /// Ring degree.
    pub n: usize,
    /// Error standard deviation of fresh Gaussian noise.
    pub sigma: f64,
    /// Secret Hamming weight (dense ternary ~ 2N/3 if unbounded).
    pub hamming_weight: usize,
    /// log2 of the scale.
    pub scale_bits: u32,
}

impl NoiseModel {
    /// Builds the model from a context.
    pub fn new(ctx: &CkksContext) -> Self {
        let p = ctx.params();
        Self {
            n: p.n,
            sigma: p.sigma,
            hamming_weight: p.secret_hamming_weight.unwrap_or(2 * p.n / 3),
            scale_bits: p.scale_bits,
        }
    }

    /// Noise of a fresh secret-key encryption: one Gaussian sample per
    /// coefficient, `sigma ~ 3.2`, plus the encoding rounding (1/2 per
    /// coefficient, amplified sqrt(N) into the slot domain).
    pub fn fresh(&self) -> NoiseEstimate {
        let enc_var = self.sigma * self.sigma;
        // Encoding rounding: uniform in [-1/2, 1/2] per coefficient,
        // variance 1/12, times N from the embedding.
        let round_var = self.n as f64 / 12.0;
        NoiseEstimate {
            bits: (enc_var + round_var).log2() / 2.0,
        }
    }

    /// Noise after adding two ciphertexts.
    pub fn hadd(&self, a: NoiseEstimate, b: NoiseEstimate) -> NoiseEstimate {
        a + b
    }

    /// Noise after ciphertext multiplication (scales with the other
    /// operand's message magnitude), relinearisation and rescale.
    pub fn hmult_rescale(
        &self,
        a: NoiseEstimate,
        b: NoiseEstimate,
        ma_max: f64,
        mb_max: f64,
    ) -> NoiseEstimate {
        a.scale(mb_max) + b.scale(ma_max) + self.keyswitch_term() + self.rescale_term()
    }

    /// The additive rescale rounding: each coefficient rounds by at
    /// most 1/2 times the secret mass (`1 + h` coefficients involved).
    pub fn rescale_term(&self) -> NoiseEstimate {
        NoiseEstimate {
            bits: ((1.0 + self.hamming_weight as f64) / 12.0).log2() / 2.0,
        }
    }

    /// The additive keyswitch noise after the special-modulus division:
    /// hybrid keyswitching with `P >= Q_digit` keeps this near the
    /// fresh-noise floor; we charge a fresh-noise-sized term scaled by
    /// sqrt(N) for the inner-product accumulation.
    pub fn keyswitch_term(&self) -> NoiseEstimate {
        NoiseEstimate {
            bits: (self.sigma * self.sigma * self.n as f64).log2() / 2.0,
        }
    }

    /// Noise after a homomorphic rotation (automorphism preserves the
    /// distribution; the keyswitch adds its term).
    pub fn hrotate(&self, a: NoiseEstimate) -> NoiseEstimate {
        a + self.keyswitch_term()
    }

    /// Bits of precision remaining for a message at unit scale: the
    /// scale minus the noise, minus a 3-sigma safety margin.
    pub fn precision_bits(&self, e: NoiseEstimate) -> f64 {
        self.scale_bits as f64 - e.bits - 1.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encryption::Encryptor;
    use crate::eval::Evaluator;
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use fhe_math::Complex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    struct Fixture {
        ctx: Arc<CkksContext>,
        enc: Encoder,
        encryptor: Encryptor,
        eval: Evaluator,
        keys: crate::keys::KeySet,
        model: NoiseModel,
        rng: StdRng,
    }

    fn fixture(seed: u64) -> Fixture {
        let ctx = CkksContext::new(CkksParams::test_params());
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[1], &mut rng);
        Fixture {
            enc: Encoder::new(ctx.clone()),
            encryptor: Encryptor::new(ctx.clone()),
            eval: Evaluator::new(ctx.clone()),
            model: NoiseModel::new(&ctx),
            ctx,
            keys,
            rng,
        }
    }

    fn random_slots(rng: &mut StdRng, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect()
    }

    /// Model within a +/- 6-bit band of measurement, and measurement
    /// far below the scale (the sanity every parameter set needs).
    #[test]
    fn fresh_noise_matches_model_band() {
        let mut f = fixture(1101);
        let slots = random_slots(&mut f.rng, f.enc.slots());
        let l = f.ctx.params().max_level();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode(&slots, l), &f.keys.secret, &mut f.rng);
        let measured = measure_noise_bits(&f.ctx, &ct, &slots, &f.keys.secret, &f.enc);
        let predicted = f.model.fresh().bits;
        assert!(
            (measured - predicted).abs() < 6.0,
            "measured {measured:.1} vs predicted {predicted:.1}"
        );
        assert!(measured < f.ctx.params().scale_bits as f64 - 10.0);
    }

    #[test]
    fn addition_grows_noise_slowly() {
        let mut f = fixture(1102);
        let slots = random_slots(&mut f.rng, 16);
        let l = f.ctx.params().max_level();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode(&slots, l), &f.keys.secret, &mut f.rng);
        // 8 additions ~ 1.5 bits of growth (sqrt(8)).
        let mut acc = ct.clone();
        let mut expect = slots.clone();
        for _ in 0..7 {
            acc = f.eval.add(&acc, &ct);
            for (e, s) in expect.iter_mut().zip(&slots) {
                *e = *e + *s;
            }
        }
        let single = measure_noise_bits(&f.ctx, &ct, &slots, &f.keys.secret, &f.enc);
        let summed = measure_noise_bits(&f.ctx, &acc, &expect, &f.keys.secret, &f.enc);
        assert!(
            summed - single < 3.5,
            "8-way sum grew noise by {:.1} bits",
            summed - single
        );
        // Model agrees on the shape.
        let m1 = f.model.fresh();
        let m8 = (0..7).fold(m1, |acc, _| f.model.hadd(acc, m1));
        assert!((m8.bits - m1.bits) < 2.0);
    }

    #[test]
    fn multiplication_noise_within_model_band() {
        let mut f = fixture(1103);
        let slots = random_slots(&mut f.rng, 16);
        let l = f.ctx.params().max_level();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode(&slots, l), &f.keys.secret, &mut f.rng);
        let sq = f.eval.rescale(&f.eval.mul(&ct, &ct, &f.keys.relin));
        let expect: Vec<Complex> = slots.iter().map(|&z| z * z).collect();
        let measured = measure_noise_bits(&f.ctx, &sq, &expect, &f.keys.secret, &f.enc);
        let fresh = f.model.fresh();
        let predicted = f.model.hmult_rescale(fresh, fresh, 1.0, 1.0).bits;
        assert!(
            (measured - predicted).abs() < 8.0,
            "measured {measured:.1} vs predicted {predicted:.1}"
        );
        // Still comfortably below the scale: the result is usable.
        assert!(f.model.precision_bits(NoiseEstimate { bits: measured }) > 10.0);
    }

    #[test]
    fn rotation_noise_is_mild() {
        let mut f = fixture(1104);
        let slots = random_slots(&mut f.rng, f.enc.slots());
        let l = f.ctx.params().max_level();
        let ct = f
            .encryptor
            .encrypt_sk(&f.enc.encode(&slots, l), &f.keys.secret, &mut f.rng);
        let g = fhe_math::galois::rotation_galois_element(1, f.ctx.n());
        let rot = f.eval.rotate(&ct, 1, &f.keys.galois[&g]);
        let mut expect = slots.clone();
        expect.rotate_left(1);
        let base = measure_noise_bits(&f.ctx, &ct, &slots, &f.keys.secret, &f.enc);
        let rotated = measure_noise_bits(&f.ctx, &rot, &expect, &f.keys.secret, &f.enc);
        assert!(
            rotated - base < 8.0,
            "rotation added {:.1} bits",
            rotated - base
        );
    }

    #[test]
    fn estimate_combinators() {
        let a = NoiseEstimate { bits: 10.0 };
        let b = NoiseEstimate { bits: 10.0 };
        // Equal variances: +0.5 bits.
        assert!(((a + b).bits - 10.5).abs() < 1e-9);
        // Dominant term wins.
        let big = NoiseEstimate { bits: 30.0 };
        assert!(((a + big).bits - 30.0).abs() < 1e-3);
        // Scaling by 2 adds one bit.
        assert!((a.scale(2.0).bits - 11.0).abs() < 1e-9);
    }

    #[test]
    fn precision_budget_reflects_scale() {
        let f = fixture(1105);
        let fresh = f.model.fresh();
        let p = f.model.precision_bits(fresh);
        // 36-bit scale minus ~5-bit fresh noise: ~28+ bits usable.
        assert!(p > 20.0, "fresh precision {p:.1}");
    }
}
