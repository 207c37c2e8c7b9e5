//! CKKS → TFHE direction: SampleExtract (paper Algorithm 3).
//!
//! Converts an RLWE (CKKS) ciphertext at level 0 into one LWE ciphertext
//! per requested coefficient, under the LWE key formed by the CKKS
//! secret's coefficients. "The procedure includes nslot SampleExtract
//! operations, where each operation extracts a specific coefficient
//! from the message polynomial" (§II-C).
//!
//! One engine, [`extract_lwes`]: `c0` and `c1` leave the evaluation
//! domain once (two iNTT rows whatever `nslot`), then every index is a
//! key-free gather, [`fhe_math::poly::sample_extract_row`] — the walk
//! the TFHE `SampleExtract` runs per GLWE mask component.
//! [`sample_extract`] is the one-index instance.

use std::ops::Range;

use fhe_ckks::{Ciphertext, CkksContext, SecretKey};
use fhe_math::poly::sample_extract_row;
use fhe_math::Modulus;
use fhe_tfhe::{LweCiphertext, LweSecretKey};

/// Extracts coefficient `idx` of a level-0 CKKS ciphertext as an LWE
/// ciphertext modulo `q_0` with phase convention `b - <a, s>` — the
/// one-index instance of [`extract_lwes`]'s engine.
///
/// # Panics
///
/// Panics if the ciphertext is not at level 0 or `idx >= N`.
pub fn sample_extract(ctx: &CkksContext, ct: &Ciphertext, idx: usize) -> LweCiphertext {
    extract_range(ctx, ct, idx..idx + 1)
        .pop()
        .expect("one index in, one LWE ciphertext out")
}

/// Extracts the first `nslot` coefficients (the whole of Algorithm 3).
///
/// # Panics
///
/// Panics if the ciphertext is not at level 0 or `nslot > N` ("cannot
/// extract coefficients past the ring degree").
pub fn extract_lwes(ctx: &CkksContext, ct: &Ciphertext, nslot: usize) -> Vec<LweCiphertext> {
    extract_range(ctx, ct, 0..nslot)
}

/// The extraction engine: one inverse transform of `c0` and of `c1`,
/// then one index walk per requested coefficient.
fn extract_range(ctx: &CkksContext, ct: &Ciphertext, indices: Range<usize>) -> Vec<LweCiphertext> {
    assert_eq!(ct.level, 0, "extraction requires a level-0 ciphertext");
    let n = ctx.n();
    assert!(
        indices.end <= n,
        "cannot extract coefficients past the ring degree N = {n}"
    );
    let q = ctx.level_basis(0).modulus(0);
    let mut c0 = ct.c0.clone();
    let mut c1 = ct.c1.clone();
    c0.to_coeff();
    c1.to_coeff();
    // Decryption is c0 + c1*s and the LWE phase is b - <a, s>, so the
    // mask is the coefficient walk over -c1.
    c1.neg_assign();
    let (body, neg_c1) = (c0.limb(0), c1.limb(0));
    indices
        .map(|idx| {
            let mut a = vec![0u64; n];
            sample_extract_row(q, neg_c1, idx, &mut a);
            LweCiphertext { a, b: body[idx] }
        })
        .collect()
}

/// The LWE key matching extracted ciphertexts: the CKKS secret's
/// coefficient vector.
pub fn extracted_key(sk: &SecretKey) -> LweSecretKey {
    LweSecretKey::from_coeffs(sk.coeffs().to_vec())
}

/// Switches an LWE ciphertext from modulus `from` to modulus `to` by
/// coefficient-wise rounding — used to move extracted ciphertexts from
/// the CKKS prime `q_0` to the TFHE prime (and back). The rounding is
/// [`LweCiphertext::mod_switch`]'s, the one place it is written.
pub fn lwe_mod_switch(ct: &LweCiphertext, from: &Modulus, to: &Modulus) -> LweCiphertext {
    let (a, b) = ct.mod_switch(from, to.value());
    LweCiphertext { a, b }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ckks::{CkksParams, Encoder, Encryptor, KeyGenerator};
    use fhe_math::{Representation, RnsPoly};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Encrypts a polynomial with explicit small coefficients at level 0
    /// and checks each extracted LWE decrypts to that coefficient.
    #[test]
    fn extracted_lwes_decrypt_to_coefficients() {
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(131);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let encryptor = Encryptor::new(ctx.clone());

        // Build a plaintext polynomial directly in coefficient space:
        // coefficients j * delta for j = 0..8.
        let n = ctx.n();
        let delta = 1i64 << 20;
        let mut coeffs = vec![0i64; n];
        for (j, c) in coeffs.iter_mut().enumerate().take(8) {
            *c = (j as i64 - 4) * delta;
        }
        let mut poly = RnsPoly::from_signed_coeffs(ctx.level_basis(0).clone(), &coeffs);
        poly.to_eval();
        let pt = fhe_ckks::Plaintext {
            poly,
            scale: delta as f64,
            level: 0,
        };
        let ct = encryptor.encrypt_sk(&pt, &sk, &mut rng);

        let lwes = extract_lwes(&ctx, &ct, 8);
        let lwe_key = extracted_key(&sk);
        let q = ctx.level_basis(0).modulus(0);
        for (j, lwe) in lwes.iter().enumerate() {
            let phase = lwe.phase(q, &lwe_key);
            let got = q.to_centered(phase);
            let want = (j as i64 - 4) * delta;
            assert!(
                (got - want).abs() < delta / 64,
                "coeff {j}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn mod_switch_preserves_relative_phase() {
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(132);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let lwe_key = extracted_key(&sk);
        let q_from = *ctx.level_basis(0).modulus(0);
        let q_to = Modulus::new(fhe_math::prime::prime_near(1 << 32, ctx.n())).unwrap();

        // Encrypt directly in LWE form at q_from.
        let msg = q_from.value() / 8;
        let ct = LweCiphertext::encrypt(&q_from, &lwe_key, msg, 1e-8, &mut rng);
        let switched = lwe_mod_switch(&ct, &q_from, &q_to);
        let phase = switched.phase(&q_to, &lwe_key);
        // Message should now sit at q_to/8.
        let want = q_to.value() / 8;
        let err = q_to.to_centered(q_to.sub(phase, want)).abs();
        // Rounding noise is ~n/2 in the worst case, far below q/64.
        assert!(err < (q_to.value() / 64) as i64, "err {err}");
    }

    #[test]
    fn full_ckks_to_tfhe_path() {
        // Encode in CKKS coefficients, extract, switch to the TFHE
        // modulus, and decode a 2-bit message — Algorithm 3 end to end.
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(133);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let encryptor = Encryptor::new(ctx.clone());
        let q0 = *ctx.level_basis(0).modulus(0);
        let q_tfhe = Modulus::new(fhe_math::prime::prime_near(1 << 32, 1024)).unwrap();

        let n = ctx.n();
        // Messages m_j in [0,4) encoded at q0/8 * (2m+1) (half-torus).
        let msgs = [3u64, 1, 0, 2];
        let mut coeffs = vec![0i64; n];
        for (j, &m) in msgs.iter().enumerate() {
            coeffs[j] = ((2 * m + 1) * (q0.value() / 16)) as i64;
        }
        let mut poly = RnsPoly::from_signed_coeffs(ctx.level_basis(0).clone(), &coeffs);
        poly.to_eval();
        let pt = fhe_ckks::Plaintext {
            poly,
            scale: 1.0,
            level: 0,
        };
        let ct = encryptor.encrypt_sk(&pt, &sk, &mut rng);
        let lwes = extract_lwes(&ctx, &ct, msgs.len());
        let lwe_key = extracted_key(&sk);
        for (j, lwe) in lwes.iter().enumerate() {
            let switched = lwe_mod_switch(lwe, &q0, &q_tfhe);
            let phase = switched.phase(&q_tfhe, &lwe_key);
            let decoded = (phase as u128 * 8 / q_tfhe.value() as u128) as u64;
            assert_eq!(decoded, msgs[j], "slot {j}");
        }
    }

    /// The parent's `sample_extract`, kept as the reference the engine
    /// is pinned to: both polynomials cloned and inverse-transformed per
    /// index, the index walk written out.
    fn sample_extract_reference(ctx: &CkksContext, ct: &Ciphertext, idx: usize) -> LweCiphertext {
        let n = ctx.n();
        let q = ctx.level_basis(0).modulus(0);
        let mut c0 = ct.c0.clone();
        let mut c1 = ct.c1.clone();
        c0.to_coeff();
        c1.to_coeff();
        let c0_row = c0.limb(0);
        let c1_row = c1.limb(0);
        let mut a = Vec::with_capacity(n);
        for j in 0..n {
            if j <= idx {
                a.push(q.neg(c1_row[idx - j]));
            } else {
                a.push(c1_row[n + idx - j]);
            }
        }
        LweCiphertext { a, b: c0_row[idx] }
    }

    /// The parent's `lwe_mod_switch` (its own copy of the rounding).
    fn lwe_mod_switch_reference(ct: &LweCiphertext, from: &Modulus, to: &Modulus) -> LweCiphertext {
        let switch = |x: u64| -> u64 {
            let prod = x as u128 * to.value() as u128;
            let rounded = (prod + from.value() as u128 / 2) / from.value() as u128;
            to.reduce(rounded as u64)
        };
        LweCiphertext {
            a: ct.a.iter().map(|&x| switch(x)).collect(),
            b: switch(ct.b),
        }
    }

    fn random_level0_ciphertext(ctx: &std::sync::Arc<CkksContext>, seed: u64) -> Ciphertext {
        let mut rng = StdRng::seed_from_u64(seed);
        let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
        let coeffs: Vec<i64> = (0..ctx.n() as i64).map(|j| (j % 17 - 8) << 18).collect();
        let mut poly = RnsPoly::from_signed_coeffs(ctx.level_basis(0).clone(), &coeffs);
        poly.to_eval();
        let pt = fhe_ckks::Plaintext {
            poly,
            scale: (1u64 << 18) as f64,
            level: 0,
        };
        Encryptor::new(ctx.clone()).encrypt_sk(&pt, &sk, &mut rng)
    }

    #[test]
    fn extraction_engine_is_bit_identical_to_the_per_index_reference() {
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let ct = random_level0_ciphertext(&ctx, 134);
        let n = ctx.n();
        let all = extract_lwes(&ctx, &ct, n);
        assert_eq!(all.len(), n);
        for (idx, got) in all.iter().enumerate() {
            let want = sample_extract_reference(&ctx, &ct, idx);
            assert_eq!(
                (&got.a, got.b),
                (&want.a, want.b),
                "extract_lwes index {idx}"
            );
            let one = sample_extract(&ctx, &ct, idx);
            assert_eq!(
                (&one.a, one.b),
                (&want.a, want.b),
                "sample_extract index {idx}"
            );
        }
        assert!(extract_lwes(&ctx, &ct, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot extract coefficients past the ring degree")]
    fn extract_lwes_rejects_more_slots_than_coefficients() {
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let ct = random_level0_ciphertext(&ctx, 135);
        extract_lwes(&ctx, &ct, ctx.n() + 1);
    }

    /// Words whose scaled value sits exactly on, just under and just
    /// over a rounding boundary `(2k + 1) * from / (2 * to)`, the ends
    /// of the range, and a word that rounds up to `to` itself (wraps to
    /// 0) — in the mask and in the body, in both directions.
    #[test]
    fn mod_switch_is_bit_identical_to_the_reference_at_the_rounding_boundary() {
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let q0 = *ctx.level_basis(0).modulus(0);
        let q_tfhe = Modulus::new(fhe_math::prime::prime_near(1 << 32, 1024)).unwrap();
        for (from, to) in [(q0, q_tfhe), (q_tfhe, q0)] {
            let (f, t) = (from.value() as u128, to.value() as u128);
            let mut words = vec![
                0,
                1,
                from.value() / 2,
                from.value() / 2 + 1,
                from.value() - 1,
            ];
            for k in [0u128, 1, 7, t / 2, t - 1] {
                let edge = ((2 * k + 1) * f / (2 * t)) as u64;
                words.extend([
                    edge.saturating_sub(1),
                    edge,
                    (edge + 1).min(from.value() - 1),
                ]);
            }
            for (i, &b) in words.iter().enumerate() {
                let mut a = words.clone();
                a.rotate_left(i);
                let ct = LweCiphertext { a, b };
                let got = lwe_mod_switch(&ct, &from, &to);
                let want = lwe_mod_switch_reference(&ct, &from, &to);
                assert_eq!((&got.a, got.b), (&want.a, want.b), "{f} -> {t}, body {b}");
                assert!(got.a.iter().all(|&x| x < to.value()) && got.b < to.value());
            }
            // The top word rounds to `to` and wraps to zero when the
            // target is the smaller modulus.
            if t < f {
                let top = LweCiphertext::trivial(1, from.value() - 1);
                assert_eq!(lwe_mod_switch(&top, &from, &to).b, 0);
            }
        }
    }

    // Silence unused-import lint for Encoder (used by sibling tests via
    // the public API surface check below).
    #[test]
    fn api_surface() {
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let enc = Encoder::new(ctx);
        assert!(enc.slots() > 0);
        let _ = Representation::Coeff;
    }
}
