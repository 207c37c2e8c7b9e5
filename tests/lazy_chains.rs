//! Cross-kernel lazy residue chains, verified against the strict oracle.
//!
//! PR 2 made each NTT internally lazy but canonicalised on every
//! transform exit; the chained hot paths now keep `[0, 2p)` residues
//! *across* kernels (digit NTT → inner product → iNTT in keyswitch, the
//! HMult tensor, the TFHE external-product accumulator) and fold once
//! at ciphertext boundaries. This suite is the safety harness for that
//! change:
//!
//! * every lazy chain must be **bit-identical** to the strict
//!   fully-reduced oracle, across every workspace modulus shape — CKKS
//!   `tiny`/`test`/`bootstrap` parameter sets and TFHE Sets I–III;
//! * every `RnsPoly` a chain hands back is canonical: the redundant
//!   `[0, 2p)` window lives only on flat buffers inside one engine call,
//!   and every word at rest is `< p` for its limb
//!   (`common::is_canonical`; the debug-assert domain checks also read
//!   the words under this test profile, which keeps
//!   `debug-assertions = true`);
//! * deterministic-seed noise regressions: measured noise through lazy
//!   keyswitch/rescale chains must equal the strict path **exactly**
//!   and stay within the `ckks::noise` estimator band.
//!
//! Every test that dispatches a kernel runs its assertions under each
//! backend — `scalar` and `lanes` — in-process
//! (`common::under_each_backend`); the strict oracles never dispatch,
//! so each backend is checked against the same fixed reference.

mod common;

use std::sync::{Arc, OnceLock};

use common::{is_canonical, under_each_backend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity::ckks::bootstrap::bootstrap_test_params;
use trinity::ckks::{
    hoist_rotations, key_switch, key_switch_galois_hoisted, key_switch_galois_strict,
    key_switch_strict, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator,
    KeyGenerator, KeySet, NoiseModel,
};
use trinity::math::kernel;
use trinity::math::{sampler, Representation, RnsPoly};
use trinity::tfhe::{Ggsw, GlweCiphertext, GlweSecretKey, TfheParams, TfheRing};

// ---------------------------------------------------------------------
// Shared fixtures (the build machine has one CPU: pay keygen once per
// modulus shape, not once per test).
// ---------------------------------------------------------------------

struct CkksFixture {
    ctx: Arc<CkksContext>,
    keys: KeySet,
}

fn ckks_fixture(
    cell: &'static OnceLock<CkksFixture>,
    params: CkksParams,
    seed: u64,
) -> &'static CkksFixture {
    cell.get_or_init(|| {
        let ctx = CkksContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[1], &mut rng);
        CkksFixture { ctx, keys }
    })
}

fn tiny() -> &'static CkksFixture {
    static F: OnceLock<CkksFixture> = OnceLock::new();
    ckks_fixture(&F, CkksParams::tiny_params(), 0xA11CE)
}

fn test_shape() -> &'static CkksFixture {
    static F: OnceLock<CkksFixture> = OnceLock::new();
    ckks_fixture(&F, CkksParams::test_params(), 0xB0B)
}

fn bootstrap_shape() -> &'static CkksFixture {
    static F: OnceLock<CkksFixture> = OnceLock::new();
    ckks_fixture(&F, bootstrap_test_params(), 0xC0FFEE)
}

/// All CKKS modulus shapes in the workspace: (name, fixture).
fn all_ckks_shapes() -> Vec<(&'static str, &'static CkksFixture)> {
    vec![
        ("tiny", tiny()),
        ("test", test_shape()),
        ("bootstrap", bootstrap_shape()),
    ]
}

/// A uniform random polynomial over the level-`l` basis, in eval form.
fn random_eval_poly(ctx: &Arc<CkksContext>, level: usize, rng: &mut StdRng) -> RnsPoly {
    let basis = ctx.level_basis(level).clone();
    let mut flat = Vec::with_capacity(basis.len() * ctx.n());
    for m in basis.moduli() {
        flat.extend(sampler::uniform_residues(rng, m, ctx.n()));
    }
    RnsPoly::from_flat(basis, flat, Representation::Eval)
}

/// Runs one property case under every kernel backend; a failure names
/// the backend it failed under.
fn on_each_backend(case: impl FnMut() -> Result<(), TestCaseError>) -> Result<(), TestCaseError> {
    for (name, result) in under_each_backend(case) {
        result.map_err(|e| match e {
            TestCaseError::Fail(msg) => TestCaseError::Fail(format!("{msg} (backend {name})")),
            reject => reject,
        })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Keyswitch: lazy chain == strict oracle, bit for bit.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lazy_keyswitch_is_bit_identical_to_strict_oracle(seed in any::<u64>()) {
        on_each_backend(|| {
            for (name, f) in all_ckks_shapes() {
                let mut rng = StdRng::seed_from_u64(seed);
                for level in [f.ctx.params().max_level(), 0] {
                    let d = random_eval_poly(&f.ctx, level, &mut rng);
                    let (l0, l1) = key_switch(&f.ctx, &d, &f.keys.relin, level);
                    let (s0, s1) = key_switch_strict(&f.ctx, &d, &f.keys.relin, level);
                    prop_assert_eq!(
                        l0.flat(), s0.flat(),
                        "ks0 mismatch: shape={} level={} seed={}", name, level, seed
                    );
                    prop_assert_eq!(
                        l1.flat(), s1.flat(),
                        "ks1 mismatch: shape={} level={} seed={}", name, level, seed
                    );
                    // The chain's outputs are canonical at the ciphertext
                    // boundary — never a leaked lazy window.
                    prop_assert!(is_canonical(&l0));
                    prop_assert!(is_canonical(&l1));
                }
            }
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------
// HMult tensor + relinearise + rescale: lazy chain == strict oracle.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn lazy_eval_mul_rescale_is_bit_identical_to_strict_oracle(seed in any::<u64>()) {
        on_each_backend(|| {
            for (name, f) in all_ckks_shapes() {
                let mut rng = StdRng::seed_from_u64(seed);
                let enc = Encoder::new(f.ctx.clone());
                let encryptor = Encryptor::new(f.ctx.clone());
                let eval = Evaluator::new(f.ctx.clone());
                let l = f.ctx.params().max_level();
                let x = encryptor.encrypt_sk(
                    &enc.encode_real(&[0.5, -0.25, 0.125], l), &f.keys.secret, &mut rng);
                let y = encryptor.encrypt_sk(
                    &enc.encode_real(&[0.25, 0.5, -1.0], l), &f.keys.secret, &mut rng);

                let lazy = eval.rescale(&eval.mul(&x, &y, &f.keys.relin));
                let strict = eval.rescale(&eval.mul_strict(&x, &y, &f.keys.relin));
                prop_assert_eq!(
                    lazy.c0.flat(), strict.c0.flat(),
                    "c0 mismatch: shape={} seed={}", name, seed
                );
                prop_assert_eq!(
                    lazy.c1.flat(), strict.c1.flat(),
                    "c1 mismatch: shape={} seed={}", name, seed
                );
            }
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------
// TFHE external product: lazy accumulator == strict oracle over the
// paper's parameter sets.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn lazy_external_product_is_bit_identical_to_strict_oracle(seed in any::<u64>(), bit in 0u64..2) {
        on_each_backend(|| {
            for params in [TfheParams::set_i(), TfheParams::set_ii(), TfheParams::set_iii()] {
                let name = params.name;
                let ring = TfheRing::new(params.n, params.q_bits);
                let mut rng = StdRng::seed_from_u64(seed);
                let sk = GlweSecretKey::generate(params.k, params.n, &mut rng);
                let ggsw = Ggsw::encrypt_scalar(
                    &ring, &sk, bit, params.lb, params.bg_log, params.glwe_noise, &mut rng,
                );
                let msg: Vec<u64> = (0..params.n)
                    .map(|i| (i as u64 % 8) * (ring.q() / 8))
                    .collect();
                let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, params.glwe_noise, &mut rng);

                let lazy = ggsw.external_product(&ring, &glwe);
                let strict = ggsw.external_product_strict(&ring, &glwe);
                prop_assert_eq!(
                    lazy.body(), strict.body(),
                    "body mismatch: set={} seed={} bit={}", name, seed, bit
                );
                for i in 0..params.k {
                    prop_assert_eq!(
                        lazy.mask(i), strict.mask(i),
                        "mask[{}] mismatch: set={} seed={} bit={}", i, name, seed, bit
                    );
                }
            }
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------
// Galois/rotation chain: the hoisted lazy automorphism pipeline
// (digit NTT -> Auto -> IP -> iNTT, all Lazy2p, one fold at ModDown)
// must be bit-identical to the strict oracle across every shape.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn lazy_rotation_is_bit_identical_to_strict_oracle(seed in any::<u64>()) {
        on_each_backend(|| {
            for (name, f) in all_ckks_shapes() {
                let mut rng = StdRng::seed_from_u64(seed);
                let enc = Encoder::new(f.ctx.clone());
                let encryptor = Encryptor::new(f.ctx.clone());
                let eval = Evaluator::new(f.ctx.clone());
                let l = f.ctx.params().max_level();
                let ct = encryptor.encrypt_sk(
                    &enc.encode_real(&[0.5, -0.25, 0.75, 0.1], l), &f.keys.secret, &mut rng);
                let g_rot = trinity::math::galois::rotation_galois_element(1, f.ctx.n());
                let g_conj = trinity::math::galois::conjugation_galois_element(f.ctx.n());
                let hoisted = hoist_rotations(&f.ctx, &ct.c1, l);
                for (what, g) in [("rotate(1)", g_rot), ("conjugate", g_conj)] {
                    let gk = &f.keys.galois[&g];
                    // The hoisted stage split (stored digits, then MAC +
                    // finish) against the strict keyswitch oracle.
                    let (h0, h1) = key_switch_galois_hoisted(&f.ctx, &hoisted, g, gk);
                    let (s0, s1) = key_switch_galois_strict(&f.ctx, &ct.c1, g, gk, l);
                    prop_assert_eq!(
                        h0.flat(), s0.flat(),
                        "hoisted ks0 mismatch: shape={} op={} seed={}", name, what, seed
                    );
                    prop_assert_eq!(
                        h1.flat(), s1.flat(),
                        "hoisted ks1 mismatch: shape={} op={} seed={}", name, what, seed
                    );
                    let lazy = eval.apply_galois(&ct, g, gk);
                    let strict = eval.apply_galois_strict(&ct, g, gk);
                    prop_assert_eq!(
                        lazy.c0.flat(), strict.c0.flat(),
                        "c0 mismatch: shape={} op={} seed={}", name, what, seed
                    );
                    prop_assert_eq!(
                        lazy.c1.flat(), strict.c1.flat(),
                        "c1 mismatch: shape={} op={} seed={}", name, what, seed
                    );
                    // The chain folds at ModDown: outputs are canonical.
                    prop_assert!(is_canonical(&lazy.c0));
                    prop_assert!(is_canonical(&lazy.c1));
                }
            }
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------
// Rotation-group properties at the ciphertext level (tiny shape, its
// own key set so the heavy shared fixtures stay lean).
// ---------------------------------------------------------------------

struct RotationFixture {
    ctx: Arc<CkksContext>,
    keys: KeySet,
}

fn rotation_fixture() -> &'static RotationFixture {
    static F: OnceLock<RotationFixture> = OnceLock::new();
    F.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(0x207A7E);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[1, 2, 3, -1], &mut rng);
        RotationFixture { ctx, keys }
    })
}

fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() < tol
}

/// `rotate(r1) ∘ rotate(r2) == rotate(r1 + r2)` modulo the slot count,
/// including the wraparound through zero (`(slots-1) + 1 ≡ 0`).
#[test]
fn rotation_composition_matches_single_rotation() {
    under_each_backend(|| {
        let f = rotation_fixture();
        let mut rng = StdRng::seed_from_u64(0x5EED_0003);
        let enc = Encoder::new(f.ctx.clone());
        let encryptor = Encryptor::new(f.ctx.clone());
        let dec = Decryptor::new(f.ctx.clone());
        let eval = Evaluator::new(f.ctx.clone());
        let l = f.ctx.params().max_level();
        let slots = enc.slots() as i64;
        let x: Vec<f64> = (0..slots).map(|i| ((i * 3) % 19) as f64 / 19.0).collect();
        let ct = encryptor.encrypt_sk(&enc.encode_real(&x, l), &f.keys.secret, &mut rng);
        let gk = |r: i64| {
            let g = trinity::math::galois::rotation_galois_element(r, f.ctx.n());
            &f.keys.galois[&g]
        };

        // rotate(1) then rotate(2) == rotate(3).
        let composed = eval.rotate(&eval.rotate(&ct, 1, gk(1)), 2, gk(2));
        let direct = eval.rotate(&ct, 3, gk(3));
        let got_c = dec.decrypt(&composed, &f.keys.secret, &enc);
        let got_d = dec.decrypt(&direct, &f.keys.secret, &enc);
        for j in 0..slots as usize {
            let want = x[(j + 3) % slots as usize];
            assert!(close(got_c[j].re, want, 1e-3), "composed slot {j}");
            assert!(close(got_d[j].re, want, 1e-3), "direct slot {j}");
        }

        // Wrap through zero: rotate(slots - 1) == rotate(-1), and a
        // further rotate(1) returns to the original slots.
        let back_one = eval.rotate(&ct, slots - 1, gk(-1));
        let round_trip = eval.rotate(&back_one, 1, gk(1));
        let got_b = dec.decrypt(&back_one, &f.keys.secret, &enc);
        let got_r = dec.decrypt(&round_trip, &f.keys.secret, &enc);
        for j in 0..slots as usize {
            let want_b = x[(j + slots as usize - 1) % slots as usize];
            assert!(close(got_b[j].re, want_b, 1e-3), "wraparound slot {j}");
            assert!(close(got_r[j].re, x[j], 1e-3), "round trip slot {j}");
        }
    });
}

/// `conjugate ∘ conjugate == id` on every shape (the conjugation key is
/// always in a key set).
#[test]
fn double_conjugation_is_identity() {
    under_each_backend(|| {
        for (name, f) in all_ckks_shapes() {
            let mut rng = StdRng::seed_from_u64(0x5EED_0004);
            let enc = Encoder::new(f.ctx.clone());
            let encryptor = Encryptor::new(f.ctx.clone());
            let dec = Decryptor::new(f.ctx.clone());
            let eval = Evaluator::new(f.ctx.clone());
            let l = f.ctx.params().max_level();
            let slots: Vec<trinity::math::Complex> = vec![
                trinity::math::Complex::new(0.5, 0.25),
                trinity::math::Complex::new(-0.25, -0.75),
                trinity::math::Complex::new(0.1, 0.9),
            ];
            let ct = encryptor.encrypt_sk(&enc.encode(&slots, l), &f.keys.secret, &mut rng);
            let g = trinity::math::galois::conjugation_galois_element(f.ctx.n());
            let once = eval.conjugate(&ct, &f.keys.galois[&g]);
            let twice = eval.conjugate(&once, &f.keys.galois[&g]);
            let got = dec.decrypt(&twice, &f.keys.secret, &enc);
            for (i, z) in slots.iter().enumerate() {
                assert!(close(got[i].re, z.re, 1e-3), "{name}: slot {i} re");
                assert!(close(got[i].im, z.im, 1e-3), "{name}: slot {i} im");
            }
        }
    });
}

/// The eval-form automorphism is reduction-agnostic: the slot
/// permutation the rotation chain applies to its lazy digits preserves
/// the `[0, 2p)` window of flat words and commutes with the deferred
/// fold, bit for bit, against `RnsPoly::automorphism` on canonical
/// words.
#[test]
fn automorphism_lazy_preserves_window_and_commutes_with_fold() {
    under_each_backend(|| {
        let f = tiny();
        let mut rng = StdRng::seed_from_u64(0x5EED_0005);
        let perms = f.ctx.galois();
        for g in [
            trinity::math::galois::rotation_galois_element(1, f.ctx.n()),
            trinity::math::galois::rotation_galois_element(-3, f.ctx.n()),
            trinity::math::galois::conjugation_galois_element(f.ctx.n()),
        ] {
            let level = f.ctx.params().max_level();
            let canonical = random_eval_poly(&f.ctx, level, &mut rng);
            let moduli = canonical.basis().moduli();
            let k = kernel::active();

            // Lazy chain: lift to [0, 2p) via a lazy square, permute
            // the words, then fold once.
            let mut lazy = canonical.flat().to_vec();
            k.mul_lazy_batch(moduli, &mut lazy, canonical.flat());
            let mut permuted = vec![0u64; lazy.len()];
            k.permute_batch(&perms.eval_permutation(g), &lazy, &mut permuted);
            for (row, m) in permuted.chunks_exact(f.ctx.n()).zip(moduli) {
                assert!(
                    row.iter().all(|&x| x < 2 * m.value()),
                    "slot permutation must preserve the lazy window"
                );
            }
            k.fold_2p_to_canonical_batch(moduli, &mut permuted);

            // Strict chain: canonical square, canonical permute.
            let mut strict = canonical.clone();
            strict.mul_assign_pointwise(&canonical);
            strict.automorphism(g, perms);

            assert_eq!(permuted, strict.flat(), "g={g}");
        }
    });
}

// ---------------------------------------------------------------------
// The HMult chain hands back canonical words at every public boundary.
// ---------------------------------------------------------------------

#[test]
fn hmult_chain_hands_back_canonical_words() {
    under_each_backend(|| {
        let f = tiny();
        let mut rng = StdRng::seed_from_u64(7101);
        let enc = Encoder::new(f.ctx.clone());
        let encryptor = Encryptor::new(f.ctx.clone());
        let eval = Evaluator::new(f.ctx.clone());
        let l = f.ctx.params().max_level();
        let x = encryptor.encrypt_sk(&enc.encode_real(&[0.5], l), &f.keys.secret, &mut rng);
        assert!(
            is_canonical(&x.c0) && is_canonical(&x.c1),
            "fresh ciphertext"
        );

        // The lazy tensor folds before it returns: its three components
        // are the strict oracle's canonical words.
        let tensor = eval.mul_no_relin(&x, &x);
        let tensor_strict = eval.mul_no_relin_strict(&x, &x);
        for (what, got, want) in [
            ("d0", &tensor.d0, &tensor_strict.d0),
            ("d1", &tensor.d1, &tensor_strict.d1),
            ("d2", &tensor.d2, &tensor_strict.d2),
        ] {
            assert!(is_canonical(got), "tensor {what}");
            assert_eq!(got.flat(), want.flat(), "tensor {what}");
        }

        // Relinearisation and rescale hand back canonical words, equal
        // to the strict chain's.
        let relin = eval.relinearize(&tensor, &f.keys.relin);
        let relin_strict = eval.relinearize_strict(&tensor_strict, &f.keys.relin);
        let rescaled = eval.rescale(&relin);
        let rescaled_strict = eval.rescale(&relin_strict);
        for (what, got, want) in [
            ("relinearize c0", &relin.c0, &relin_strict.c0),
            ("relinearize c1", &relin.c1, &relin_strict.c1),
            ("rescale c0", &rescaled.c0, &rescaled_strict.c0),
            ("rescale c1", &rescaled.c1, &rescaled_strict.c1),
        ] {
            assert!(is_canonical(got), "{what}");
            assert_eq!(got.flat(), want.flat(), "{what}");
        }
    });
}

// ---------------------------------------------------------------------
// Deterministic-seed noise regressions: the lazy chain must not change
// measured noise by a single bit, and the measurement must stay inside
// the a-priori estimator band.
// ---------------------------------------------------------------------

#[test]
fn noise_after_lazy_keyswitch_rescale_matches_strict_exactly() {
    under_each_backend(|| {
        for (name, f) in all_ckks_shapes() {
            let mut rng = StdRng::seed_from_u64(0x5EED_0001);
            let enc = Encoder::new(f.ctx.clone());
            let encryptor = Encryptor::new(f.ctx.clone());
            let dec = Decryptor::new(f.ctx.clone());
            let eval = Evaluator::new(f.ctx.clone());
            let l = f.ctx.params().max_level();
            let slots = vec![0.5, -0.25, 0.75];
            let ct = encryptor.encrypt_sk(&enc.encode_real(&slots, l), &f.keys.secret, &mut rng);

            let lazy = eval.rescale(&eval.mul(&ct, &ct, &f.keys.relin));
            let strict = eval.rescale(&eval.mul_strict(&ct, &ct, &f.keys.relin));

            // Bit-identical ciphertexts decrypt to bit-identical slots:
            // the noise of the two chains is *exactly* equal.
            let got_lazy = dec.decrypt(&lazy, &f.keys.secret, &enc);
            let got_strict = dec.decrypt(&strict, &f.keys.secret, &enc);
            for (i, (a, b)) in got_lazy.iter().zip(&got_strict).enumerate() {
                assert_eq!(
                    a.re.to_bits(),
                    b.re.to_bits(),
                    "{name}: slot {i} re differs"
                );
                assert_eq!(
                    a.im.to_bits(),
                    b.im.to_bits(),
                    "{name}: slot {i} im differs"
                );
            }

            // And the value is still correct (the chain did a real
            // HMult).
            for (i, &want) in slots.iter().enumerate() {
                assert!(
                    (got_lazy[i].re - want * want).abs() < 5e-2,
                    "{name}: slot {i}: {} vs {}",
                    got_lazy[i].re,
                    want * want
                );
            }
        }
    });
}

#[test]
fn noise_after_lazy_chain_stays_within_estimator_band() {
    // The documented +/- band of ckks::noise's central-limit model,
    // as in the crate's own noise tests.
    under_each_backend(|| {
        for (name, f) in all_ckks_shapes() {
            let mut rng = StdRng::seed_from_u64(0x5EED_0002);
            let enc = Encoder::new(f.ctx.clone());
            let encryptor = Encryptor::new(f.ctx.clone());
            let eval = Evaluator::new(f.ctx.clone());
            let model = NoiseModel::new(&f.ctx);
            let l = f.ctx.params().max_level();
            let slots: Vec<f64> = (0..8).map(|i| (i as f64 / 8.0) - 0.5).collect();
            let expect: Vec<trinity::math::Complex> = slots
                .iter()
                .map(|&v| trinity::math::Complex::new(v * v, 0.0))
                .collect();
            let ct = encryptor.encrypt_sk(&enc.encode_real(&slots, l), &f.keys.secret, &mut rng);
            let sq = eval.rescale(&eval.mul(&ct, &ct, &f.keys.relin));
            let measured =
                trinity::ckks::measure_noise_bits(&f.ctx, &sq, &expect, &f.keys.secret, &enc);
            let fresh = model.fresh();
            let predicted = model.hmult_rescale(fresh, fresh, 1.0, 1.0).bits;
            assert!(
                (measured - predicted).abs() < 8.0,
                "{name}: measured {measured:.1} vs predicted {predicted:.1}"
            );
            // The result is usable: noise comfortably below the scale.
            assert!(
                measured < f.ctx.params().scale_bits as f64 - 8.0,
                "{name}: noise {measured:.1} too close to scale"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Shrinking smoke: lazy-chain property failures minimise (satellite
// regression for the vendored proptest's new shrinking support). It
// dispatches no kernel, so it runs once.
// ---------------------------------------------------------------------

#[test]
fn lazy_chain_property_failures_minimise() {
    // Drive the runner directly on a property shaped like the suites
    // above (an integer seed) whose failure boundary is known: the
    // minimised case must reach the boundary, demonstrating that a
    // failing lazy-chain case would be reported minimal.
    let config = proptest::ProptestConfig::with_cases(4);
    let err = std::panic::catch_unwind(|| {
        proptest::run_property(
            &config,
            "lazy_chains::shrink_smoke",
            0u64..1 << 40,
            |seed| {
                if seed >= 12_345 {
                    Err(proptest::TestCaseError::Fail(format!("seed {seed} fails")))
                } else {
                    Ok(())
                }
            },
        );
    })
    .expect_err("property must fail");
    let msg = err
        .downcast_ref::<String>()
        .expect("formatted panic")
        .clone();
    assert!(msg.contains("seed 12345 fails"), "not minimised: {msg}");
    assert!(msg.contains("minimised after"), "no shrink report: {msg}");
}
