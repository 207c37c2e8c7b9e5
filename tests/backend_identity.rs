//! Cross-backend bit-identity of the production FHE chains.
//!
//! The lazy-chain suite (`tests/lazy_chains.rs`) proves lazy == strict
//! under each of `scalar` and `lanes`. This file closes the
//! remaining gap: it swaps the process-wide backend between the two
//! with `kernel::force` (the shared `common::under_each_backend`) and
//! asserts that CKKS keyswitch, HMult (+rescale), rotation (fused and
//! hoisted), the TFHE external product and gate bootstrap — the
//! single-request forms of the engines — and the scheme-conversion
//! round trip (extract, then pack) produce bit-identical
//! ciphertexts under both — i.e. backend choice is unobservable, not merely
//! correct-up-to-the-oracle. The `NttTable` single-row entry points
//! (1-row batches of the same surface) are checked against their
//! strict oracles under each backend too.

mod common;

use std::sync::{Arc, OnceLock};

use common::under_each_backend;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trinity::ckks::{
    key_switch, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator, KeySet,
    LinearTransform, Plaintext,
};
use trinity::convert::{extract_lwes, RlwePacker};
use trinity::math::ntt::negacyclic_mul_schoolbook;
use trinity::math::{galois, prime, sampler, Complex, Modulus, NttTable, Representation, RnsPoly};
use trinity::tfhe::{
    ClientKey, GateOp, Ggsw, GlweCiphertext, GlweSecretKey, LweCiphertext, MulBackend, ServerKey,
    TfheContext, TfheParams, TfheRing,
};

fn assert_all_identical(results: Vec<(&'static str, Vec<u64>)>, what: &str) {
    let (base_name, base) = &results[0];
    for (name, got) in &results {
        assert_eq!(
            got, base,
            "{what}: backend {name} diverges from {base_name}"
        );
    }
}

struct CkksFixture {
    ctx: Arc<CkksContext>,
    keys: KeySet,
}

/// One shared keygen per shape (the host has one CPU; keygen dispatches
/// through whatever backend is active, which is fine — keys are
/// canonical data, and every backend is bit-identical anyway).
fn test_shape() -> &'static CkksFixture {
    static F: OnceLock<CkksFixture> = OnceLock::new();
    F.get_or_init(|| {
        let ctx = CkksContext::new(CkksParams::test_params());
        let mut rng = StdRng::seed_from_u64(0x1DE27171);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[1], &mut rng);
        CkksFixture { ctx, keys }
    })
}

/// `NttTable::forward` / `inverse` / `negacyclic_mul` are one-row
/// batches of the active backend: under every backend they must equal
/// the strict transforms and the schoolbook product, which never
/// dispatch.
#[test]
fn ntt_table_one_row_path_matches_strict_oracles_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0x5EED0);
    for (n, bits) in [(64usize, 30u32), (256, 45), (1024, 61)] {
        let p = prime::ntt_primes(bits, n, 1)[0];
        let t = NttTable::new(Modulus::new(p).unwrap(), n);
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
        let mut spectrum = a.clone();
        t.forward_strict(&mut spectrum);
        let mut back = spectrum.clone();
        t.inverse_strict(&mut back);
        assert_eq!(back, a, "strict roundtrip n={n}");
        let product = negacyclic_mul_schoolbook(t.modulus(), &a, &b);

        for (name, (fwd, inv, mul)) in under_each_backend(|| {
            let mut fwd = a.clone();
            t.forward(&mut fwd);
            let mut inv = spectrum.clone();
            t.inverse(&mut inv);
            (fwd, inv, t.negacyclic_mul(&a, &b))
        }) {
            assert_eq!(fwd, spectrum, "forward vs forward_strict ({name}, n={n})");
            assert_eq!(inv, a, "inverse vs inverse_strict ({name}, n={n})");
            assert_eq!(mul, product, "negacyclic_mul vs schoolbook ({name}, n={n})");
        }
    }
}

#[test]
fn keyswitch_is_bit_identical_across_backends() {
    let f = test_shape();
    let l = f.ctx.params().max_level();
    let mut rng = StdRng::seed_from_u64(0x5EED0);
    let basis = f.ctx.level_basis(l).clone();
    let mut flat = Vec::with_capacity(basis.len() * f.ctx.n());
    for m in basis.moduli() {
        flat.extend(sampler::uniform_residues(&mut rng, m, f.ctx.n()));
    }
    let d = RnsPoly::from_flat(basis, flat, Representation::Eval);

    let results = under_each_backend(|| {
        let (ks0, ks1) = key_switch(&f.ctx, &d, &f.keys.relin, l);
        let mut out = ks0.flat().to_vec();
        out.extend_from_slice(ks1.flat());
        out
    });
    assert_all_identical(results, "ckks key_switch");
}

#[test]
fn hmult_rescale_and_rotation_are_bit_identical_across_backends() {
    let f = test_shape();
    let enc = Encoder::new(f.ctx.clone());
    let encryptor = Encryptor::new(f.ctx.clone());
    let eval = Evaluator::new(f.ctx.clone());
    let l = f.ctx.params().max_level();
    let mut rng = StdRng::seed_from_u64(0x5EED1);
    let vals: Vec<f64> = (0..8).map(|i| 0.1 * i as f64 - 0.3).collect();
    let x = encryptor.encrypt_sk(&enc.encode_real(&vals, l), &f.keys.secret, &mut rng);
    let y = encryptor.encrypt_sk(&enc.encode_real(&[0.25; 8], l), &f.keys.secret, &mut rng);
    let g = galois::rotation_galois_element(1, f.ctx.n());
    let gk = &f.keys.galois[&g];

    let results = under_each_backend(|| {
        let prod = eval.rescale(&eval.mul(&x, &y, &f.keys.relin));
        let rot = eval.apply_galois(&x, g, gk);
        let mut out = prod.c0.flat().to_vec();
        out.extend_from_slice(prod.c1.flat());
        out.extend_from_slice(rot.c0.flat());
        out.extend_from_slice(rot.c1.flat());
        out
    });
    assert_all_identical(results, "ckks hmult+rescale+rotation");
}

/// The hoisted rotation batch: one shared ModUp feeding several
/// rotations must (a) match the sequential `apply_galois` bit for bit
/// *within* each backend, and (b) be bit-identical *across* backends —
/// the pooled BConv/digit-NTT front half takes the wide bodies on
/// `lanes` where the host has them, and that must be unobservable. The
/// diagonal engine (`LinearTransform::apply`) is swept the same way
/// against its sequential oracle.
#[test]
fn hoisted_rotations_are_bit_identical_across_backends() {
    let f = test_shape();
    let enc = Encoder::new(f.ctx.clone());
    let encryptor = Encryptor::new(f.ctx.clone());
    let eval = Evaluator::new(f.ctx.clone());
    let l = f.ctx.params().max_level();
    let mut rng = StdRng::seed_from_u64(0x5EED3);
    let rotations = [1i64, 2, -1];
    let keys = KeyGenerator::new(f.ctx.clone()).key_set(&rotations, &mut rng);
    let vals: Vec<f64> = (0..8).map(|i| 0.05 * i as f64 - 0.2).collect();
    let x = encryptor.encrypt_sk(&enc.encode_real(&vals, l), &keys.secret, &mut rng);
    let diagonal = |d: i64| -> Vec<Complex> {
        (0..4)
            .map(|j| Complex::new(0.1 * (d + j) as f64, 0.0))
            .collect()
    };
    let lt = LinearTransform::from_diagonals(4, (0..3).map(|d| (d, diagonal(d))));

    let results = under_each_backend(|| {
        let hoisted = eval.hoist_rotations(&x);
        let mut out = Vec::new();
        for r in rotations {
            let g = galois::rotation_galois_element(r, f.ctx.n());
            let gk = &keys.galois[&g];
            let h = eval.rotate_hoisted(&x, &hoisted, r, gk);
            let s = eval.rotate(&x, r, gk);
            assert_eq!(h.c0.flat(), s.c0.flat(), "hoisted != sequential c0, r={r}");
            assert_eq!(h.c1.flat(), s.c1.flat(), "hoisted != sequential c1, r={r}");
            out.extend_from_slice(h.c0.flat());
            out.extend_from_slice(h.c1.flat());
        }
        let engine = lt.apply(&eval, &enc, &x, &keys.galois);
        let oracle = lt.apply_sequential(&eval, &enc, &x, &keys.galois);
        assert_eq!(engine.c0.flat(), oracle.c0.flat(), "engine != oracle c0");
        assert_eq!(engine.c1.flat(), oracle.c1.flat(), "engine != oracle c1");
        out.extend_from_slice(engine.c0.flat());
        out.extend_from_slice(engine.c1.flat());
        out
    });
    assert_all_identical(results, "ckks hoisted rotation batch");
}

#[test]
fn tfhe_external_product_is_bit_identical_across_backends() {
    let params = TfheParams::set_i();
    let ring = TfheRing::new(params.n, params.q_bits);
    let mut rng = StdRng::seed_from_u64(0x5EED2);
    let sk = GlweSecretKey::generate(params.k, params.n, &mut rng);
    let ggsw = Ggsw::encrypt_scalar(
        &ring,
        &sk,
        1,
        params.lb,
        params.bg_log,
        params.glwe_noise,
        &mut rng,
    );
    let msg: Vec<u64> = (0..params.n)
        .map(|i| (i as u64 % 8) * (ring.q() / 8))
        .collect();
    let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, params.glwe_noise, &mut rng);

    let results = under_each_backend(|| {
        let out = ggsw.external_product(&ring, &glwe);
        out.components().flatten().copied().collect()
    });
    assert_all_identical(results, "tfhe external_product");
}

/// A whole gate — linear part, the one-job blind rotation, extract and
/// LWE keyswitch — under each backend, plus the keyswitch on its own
/// against its strict oracle (its mask decomposition is a backend
/// dispatch).
#[test]
fn tfhe_apply_gate_is_bit_identical_across_backends() {
    let mut rng = StdRng::seed_from_u64(0x5EED4);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let a = ck.encrypt_bit(true, &mut rng);
    let b = ck.encrypt_bit(false, &mut rng);
    let q = ck.ctx.q();
    let extracted = LweCiphertext::encrypt(
        q,
        &ck.glwe_sk.extracted_lwe_key(),
        ck.ctx.encode_bit(true),
        ck.ctx.params.glwe_noise,
        &mut rng,
    );
    let strict = sk.ksk.switch_strict(q, &extracted);

    let results = under_each_backend(|| {
        let out = sk.apply_gate(GateOp::Nand, &a, &b);
        assert!(ck.decrypt_bit(&out));
        let switched = sk.ksk.switch(q, &extracted);
        assert_eq!((&switched.a, switched.b), (&strict.a, strict.b));
        let mut flat = out.a;
        flat.push(out.b);
        flat.extend(switched.a);
        flat.push(switched.b);
        flat
    });
    assert_all_identical(results, "tfhe apply_gate");
}

/// CKKS → LWE → CKKS: the extraction engine (two inverse rows, then
/// gathers) and the packer (residue mod-raise, coalesced merge rounds,
/// field trace) under each backend.
#[test]
fn scheme_conversion_round_trip_is_bit_identical_across_backends() {
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let mut rng = StdRng::seed_from_u64(0x5EED5);
    let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
    let packer = RlwePacker::new(ctx.clone(), &sk, 1, &mut rng);
    let n = ctx.n();
    let delta = (ctx.level_basis(0).modulus(0).value() / (128 * n as u64)) as i64;
    let mut coeffs = vec![0i64; n];
    for (c, m) in coeffs.iter_mut().zip([1i64, -2, 3, -4, 0, 2, -1, 4]) {
        *c = m * delta;
    }
    let mut poly = RnsPoly::from_signed_coeffs(ctx.level_basis(0).clone(), &coeffs);
    poly.to_eval();
    let pt = Plaintext {
        poly,
        scale: delta as f64,
        level: 0,
    };
    let ct = Encryptor::new(ctx.clone()).encrypt_sk(&pt, &sk, &mut rng);

    let results = under_each_backend(|| {
        let lwes = extract_lwes(&ctx, &ct, 8);
        let packed = packer.convert(&lwes, delta as f64);
        let mut out: Vec<u64> = lwes
            .iter()
            .flat_map(|lwe| lwe.a.iter().copied().chain([lwe.b]))
            .collect();
        out.extend_from_slice(packed.c0.flat());
        out.extend_from_slice(packed.c1.flat());
        out
    });
    assert_all_identical(results, "scheme conversion round trip");
}
