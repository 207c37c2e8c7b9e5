//! Criterion microbenchmarks of the functional crates — the tiers and
//! shapes `benchmark/` does not run: the kernel-level NTT and
//! negacyclic product, the strict oracles beside their lazy engines,
//! the scalar backend, the TFHE Set-II bootstrap and the radix/NN
//! units.
//!
//! Every operation `benchmark/` probes at a workload's shape (keyswitch,
//! rotate, coalesced and hoisted rotations, HMult + rescale, gates,
//! external product, CKKS bootstrap, repacking) is measured there and
//! only there; `BENCH_micro.json` holds one run of the groups below.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// NTT across polynomial lengths (the Fig. 1 x-axis, on the host CPU).
fn bench_ntt(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt_forward");
    for log_n in [10usize, 12, 14] {
        let n = 1 << log_n;
        let p = fhe_math::prime::ntt_primes(50, n, 1)[0];
        let table = fhe_math::NttTable::new(fhe_math::Modulus::new(p).unwrap(), n);
        let mut rng = StdRng::seed_from_u64(1);
        let poly: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let mut x = poly.clone();
                table.forward(&mut x);
                x
            })
        });
    }
    group.finish();
}

/// Harvey lazy-reduction forward NTT against the fully-reduced strict
/// reference — the tentpole's headline micro (acceptance: lazy >= 1.2x
/// at n = 4096).
fn bench_ntt_lazy_vs_strict(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt_lazy_vs_strict");
    for (log_n, bits) in [(12usize, 50u32), (12, 59), (14, 50)] {
        let n = 1 << log_n;
        let p = fhe_math::prime::ntt_primes(bits, n, 1)[0];
        let table = fhe_math::NttTable::new(fhe_math::Modulus::new(p).unwrap(), n);
        let mut rng = StdRng::seed_from_u64(21);
        let poly: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
        // Reuse one buffer and refill by memcpy so the measured loop is
        // the transform, not a per-iteration allocation.
        let mut x = poly.clone();
        group.bench_function(format!("lazy_n{n}_p{bits}"), |b| {
            b.iter(|| {
                x.copy_from_slice(&poly);
                table.forward(&mut x);
                x[0]
            })
        });
        group.bench_function(format!("strict_n{n}_p{bits}"), |b| {
            b.iter(|| {
                x.copy_from_slice(&poly);
                table.forward_strict(&mut x);
                x[0]
            })
        });
    }
    group.finish();
}

/// Full RNS polynomial multiplication on the flat-limb engine:
/// to_eval + pointwise mul + to_coeff across a 3-limb basis.
fn bench_poly_mul_flat(c: &mut Criterion) {
    use fhe_math::{RnsBasis, RnsPoly};
    use std::sync::Arc;
    let mut group = c.benchmark_group("poly_mul_flat");
    for log_n in [12usize, 13] {
        let n = 1 << log_n;
        let basis = Arc::new(RnsBasis::new(&fhe_math::prime::ntt_primes(45, n, 3), n));
        let mut rng = StdRng::seed_from_u64(22);
        let av: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let bv: Vec<i64> = (0..n).map(|_| rng.gen_range(-1000i64..1000)).collect();
        let a = RnsPoly::from_signed_coeffs(basis.clone(), &av);
        let mut b = RnsPoly::from_signed_coeffs(basis.clone(), &bv);
        b.to_eval();
        group.bench_function(format!("n{n}_l3"), |bench| {
            bench.iter(|| {
                let mut x = a.clone();
                x.to_eval();
                x.mul_assign_pointwise(&b);
                x.to_coeff();
                x
            })
        });
    }
    group.finish();
}

/// The cross-kernel lazy residue chain against its baselines, over the
/// whole keyswitch pipeline (digit NTTs → inner products → iNTT →
/// ModDown) — the tentpole's headline micro (acceptance: lazy >= 1.2x
/// over `canonical`). Two reduction tiers per shape:
/// * `lazy` — cross-kernel `[0, 2p)` chain, one fold per limb at the
///   ModDown boundary (`key_switch`);
/// * `canonical` — the fully-reduced strict oracle, every butterfly
///   canonicalises (`key_switch_strict`).
fn bench_keyswitch_lazy_vs_canonical(c: &mut Criterion) {
    use fhe_ckks::*;
    let mut group = c.benchmark_group("keyswitch_lazy_vs_canonical");
    group.sample_size(20);
    for (params, tag) in [
        (CkksParams::tiny_params(), "n1024_l3"),
        (CkksParams::test_params(), "n4096_l4"),
    ] {
        let ctx = CkksContext::new(params);
        let mut rng = StdRng::seed_from_u64(31);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&sk, &mut rng);
        let l = ctx.params().max_level();
        let basis = ctx.level_basis(l).clone();
        let mut flat = Vec::with_capacity(basis.len() * ctx.n());
        for m in basis.moduli() {
            flat.extend(fhe_math::sampler::uniform_residues(&mut rng, m, ctx.n()));
        }
        let d = fhe_math::RnsPoly::from_flat(basis, flat, fhe_math::Representation::Eval);
        group.bench_function(format!("lazy_{tag}"), |b| {
            b.iter(|| key_switch(&ctx, &d, &rlk, l))
        });
        // The same lazy chain under the scalar reference backend,
        // forced process-wide for this one measurement. Bit-identical
        // outputs (tests/backend_identity.rs); only the row bodies
        // differ.
        let previous = fhe_math::kernel::force(&fhe_math::kernel::SCALAR);
        group.bench_function(format!("lazy_scalar_{tag}"), |b| {
            b.iter(|| key_switch(&ctx, &d, &rlk, l))
        });
        fhe_math::kernel::force(previous);
        group.bench_function(format!("canonical_{tag}"), |b| {
            b.iter(|| key_switch_strict(&ctx, &d, &rlk, l))
        });
    }
    group.finish();
}

/// The lazy Galois/rotation chain against its baselines, over the full
/// HRotate pipeline (automorphism on `c0` + Galois keyswitch of `c1` +
/// recombination) — the rotation counterpart of
/// `keyswitch_lazy_vs_canonical` (acceptance: lazy >= 1.2x over
/// `canonical`). Two reduction tiers per shape:
/// * `lazy` — `[0, 2p)` chain, automorphism as a lazy slot
///   permutation inside the keyswitch, one fold per limb at ModDown
///   (`Evaluator::apply_galois` / `key_switch_galois`);
/// * `canonical` — the fully-reduced strict oracle
///   (`Evaluator::apply_galois_strict` / `key_switch_galois_strict`).
fn bench_rotate_lazy_vs_canonical(c: &mut Criterion) {
    use fhe_ckks::*;
    let mut group = c.benchmark_group("rotate_lazy_vs_canonical");
    group.sample_size(20);
    for (params, tag) in [
        (CkksParams::tiny_params(), "n1024_l3"),
        (CkksParams::test_params(), "n4096_l4"),
    ] {
        let ctx = CkksContext::new(params);
        let mut rng = StdRng::seed_from_u64(32);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[1], &mut rng);
        let enc = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let eval = Evaluator::new(ctx.clone());
        let l = ctx.params().max_level();
        let ct = encryptor.encrypt_sk(&enc.encode_real(&[0.5; 8], l), &keys.secret, &mut rng);
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        let gk = &keys.galois[&g];
        group.bench_function(format!("lazy_{tag}"), |b| {
            b.iter(|| eval.apply_galois(&ct, g, gk))
        });
        group.bench_function(format!("canonical_{tag}"), |b| {
            b.iter(|| eval.apply_galois_strict(&ct, g, gk))
        });
    }
    group.finish();
}

/// One negacyclic product at the TFHE shape (a gadget digit times a
/// key polynomial, n = 1024, the prime closest to 2^32): exact NTT vs
/// approximate double-precision FFT — the paper's core substitution,
/// measured at kernel level.
fn bench_negacyclic_mul(c: &mut Criterion) {
    let n = 1024;
    let p = fhe_math::prime::prime_near(1 << 32, n);
    let m = fhe_math::Modulus::new(p).unwrap();
    let table = fhe_math::NttTable::new(m, n);
    let mut rng = StdRng::seed_from_u64(12);
    let digit: Vec<i64> = (0..n).map(|_| rng.gen_range(-512..512)).collect();
    let key: Vec<i64> = (0..n)
        .map(|_| rng.gen_range(-(1 << 31)..(1 << 31)))
        .collect();
    let digit_u: Vec<u64> = digit.iter().map(|&v| m.from_i64(v)).collect();
    let key_u: Vec<u64> = key.iter().map(|&v| m.from_i64(v)).collect();
    let mut group = c.benchmark_group("negacyclic_mul_n1024");
    group.bench_function("ntt", |b| b.iter(|| table.negacyclic_mul(&digit_u, &key_u)));
    group.bench_function("fft", |b| {
        b.iter(|| fhe_math::fft::negacyclic_mul_fft(&digit, &key))
    });
    group.finish();
}

/// One full programmable bootstrap per paper set — the `measured` CPU
/// row of Table VII (OPS = 1/time).
fn bench_pbs(c: &mut Criterion) {
    use fhe_tfhe::*;
    let mut group = c.benchmark_group("tfhe_pbs");
    group.sample_size(10);
    for params in [TfheParams::set_i(), TfheParams::set_ii()] {
        let name = params.name;
        let mut rng = StdRng::seed_from_u64(6);
        let ck = ClientKey::generate(TfheContext::new(params), &mut rng);
        let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
        let ct = ck.encrypt_bit(true, &mut rng);
        group.bench_function(name, |b| b.iter(|| sk.bootstrap_sign(&ct)));
    }
    group.finish();
}

/// Low-depth Chebyshev evaluation (EvalMod's workhorse) across degrees.
fn bench_chebyshev(c: &mut Criterion) {
    use fhe_ckks::*;
    let params = CkksParams::new(1 << 10, 8, 40, 2).expect("valid");
    let ctx = CkksContext::new(params);
    let mut rng = StdRng::seed_from_u64(8);
    let keys = KeyGenerator::new(ctx.clone()).key_set(&[], &mut rng);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let eval = Evaluator::new(ctx.clone());
    let l = ctx.params().max_level();
    let ct = encryptor.encrypt_sk(&enc.encode_real(&[0.5; 8], l), &keys.secret, &mut rng);
    let mut group = c.benchmark_group("ckks_chebyshev_n1024");
    group.sample_size(20);
    for degree in [7usize, 31] {
        let fit = ChebyshevPoly::fit(|x| (2.0 * x).tanh(), -1.0, 1.0, degree);
        group.bench_with_input(BenchmarkId::from_parameter(degree), &degree, |b, _| {
            b.iter(|| eval.eval_chebyshev(&ct, &fit.coeffs, &keys.relin))
        });
    }
    group.finish();
}

/// Radix-integer operations (the HE3DB filter arithmetic): bootstraps
/// per op are the dominant cost.
fn bench_radix_ops(c: &mut Criterion) {
    use fhe_tfhe::*;
    let mut rng = StdRng::seed_from_u64(10);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let p = RadixParams::new(2, 2);
    let a = ck.encrypt_radix(11, p, &mut rng);
    let b_ct = ck.encrypt_radix(6, p, &mut rng);
    let mut group = c.benchmark_group("tfhe_radix_4bit");
    group.sample_size(10);
    group.bench_function("add", |bch| bch.iter(|| sk.radix_add(&a, &b_ct)));
    group.bench_function("lt_scalar", |bch| bch.iter(|| sk.radix_lt_scalar(&a, 8)));
    group.finish();
}

/// One sign-network neuron (linear combination + PBS) — the NN-x unit.
fn bench_nn_neuron(c: &mut Criterion) {
    use fhe_tfhe::*;
    let mut rng = StdRng::seed_from_u64(11);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let layer = SignLayer::new(vec![vec![1, -1, 1, 1, -1, 1, -1, 1]], vec![0]);
    let net = DiscreteMlp::new(vec![layer.clone()]);
    let inputs = ck.encrypt_signs(&[1, 1, -1, 1, -1, -1, 1, 1], &net, &mut rng);
    let q = ck.ctx.q().value();
    let mut group = c.benchmark_group("tfhe_nn");
    group.sample_size(10);
    group.bench_function("neuron_fanin8", |b| {
        b.iter(|| sk.infer_layer(&layer, &inputs, q / 8))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ntt,
    bench_ntt_lazy_vs_strict,
    bench_poly_mul_flat,
    bench_keyswitch_lazy_vs_canonical,
    bench_rotate_lazy_vs_canonical,
    bench_negacyclic_mul,
    bench_pbs,
    bench_chebyshev,
    bench_radix_ops,
    bench_nn_neuron
);
criterion_main!(benches);
