//! Criterion microbenchmarks of the functional crates — the `measured`
//! CPU-baseline rows of the reproduction, exercising the same kernels
//! the accelerator model schedules.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `f` with the process-wide kernel backend forced to `backend`,
/// restoring the previously active one afterwards — how one criterion
/// run measures several backends on the *same* pipeline functions.
fn with_backend<R>(backend: &'static dyn fhe_math::KernelBackend, f: impl FnOnce() -> R) -> R {
    let previous = fhe_math::kernel::force(backend);
    let out = f();
    fhe_math::kernel::force(previous);
    out
}

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

/// NTT variants: reference vs constant-geometry vs four-step.
fn bench_ntt_variants(c: &mut Criterion) {
    let n = 1 << 12;
    let p = fhe_math::prime::ntt_primes(50, n, 1)[0];
    let table = fhe_math::NttTable::new(fhe_math::Modulus::new(p).unwrap(), n);
    let mut rng = StdRng::seed_from_u64(2);
    let poly: Vec<u64> = (0..n).map(|_| rng.gen_range(0..p)).collect();
    let mut group = c.benchmark_group("ntt_variants_4096");
    group.bench_function("reference", |b| {
        b.iter(|| {
            let mut x = poly.clone();
            table.forward(&mut x);
            x
        })
    });
    group.bench_function("constant_geometry", |b| {
        b.iter(|| {
            let mut x = poly.clone();
            table.forward_constant_geometry(&mut x);
            x
        })
    });
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

/// Hybrid keyswitch (the paper's Algorithm 1) at test scale.
fn bench_keyswitch(c: &mut Criterion) {
    use fhe_ckks::*;
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let mut rng = StdRng::seed_from_u64(3);
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
    c.bench_function("ckks_hybrid_keyswitch_n1024_l3", |b| {
        b.iter(|| key_switch(&ctx, &d, &rlk, l))
    });
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
        // The same lazy chain under the other kernel backends: the
        // scalar reference and the limb-parallel threaded pool (4
        // lanes). Bit-identical outputs (tests/backend_identity.rs);
        // only the row scheduling differs.
        with_backend(&fhe_math::kernel::SCALAR, || {
            group.bench_function(format!("lazy_scalar_{tag}"), |b| {
                b.iter(|| key_switch(&ctx, &d, &rlk, l))
            });
        });
        with_backend(fhe_math::kernel::threaded(Some(4)), || {
            group.bench_function(format!("lazy_threaded4_{tag}"), |b| {
                b.iter(|| key_switch(&ctx, &d, &rlk, l))
            });
        });
        group.bench_function(format!("canonical_{tag}"), |b| {
            b.iter(|| key_switch_strict(&ctx, &d, &rlk, l))
        });
    }
    group.finish();
}

/// Worker-count scaling of the threaded limb-parallel backend on the
/// full lazy keyswitch chain at n=4096/L=4 (the acceptance shape):
/// the `lane` tier is the single-threaded baseline the `threaded:N`
/// tiers are judged against (acceptance: threaded >= 1.3x over lane
/// with >= 4 workers on a multi-core host; on a 1-CPU host the tiers
/// collapse onto the baseline minus dispatch overhead).
fn bench_threaded_scaling(c: &mut Criterion) {
    use fhe_ckks::*;
    let mut group = c.benchmark_group("threaded_scaling");
    group.sample_size(20);
    let ctx = CkksContext::new(CkksParams::test_params());
    let mut rng = StdRng::seed_from_u64(33);
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
    with_backend(&fhe_math::kernel::LANES_BACKEND, || {
        group.bench_function("lane_n4096_l4", |b| {
            b.iter(|| key_switch(&ctx, &d, &rlk, l))
        });
    });
    for workers in [1usize, 2, 4, 8] {
        with_backend(fhe_math::kernel::threaded(Some(workers)), || {
            group.bench_function(format!("threaded{workers}_n4096_l4"), |b| {
                b.iter(|| key_switch(&ctx, &d, &rlk, l))
            });
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
        // The rotation chain under the threaded limb-parallel
        // backend (4 lanes) — same pipeline, row-parallel dispatch.
        with_backend(fhe_math::kernel::threaded(Some(4)), || {
            group.bench_function(format!("lazy_threaded4_{tag}"), |b| {
                b.iter(|| eval.apply_galois(&ct, g, gk))
            });
        });
        group.bench_function(format!("canonical_{tag}"), |b| {
            b.iter(|| eval.apply_galois_strict(&ct, g, gk))
        });
    }
    group.finish();
}

/// An 8-rotation encrypted linear layer, oracle vs engine: the
/// sequential oracle (`LinearTransform::apply_sequential`) runs the full
/// hybrid keyswitch (Decompose + ModUp + digit NTTs + IP + ModDown)
/// once per diagonal rotation; the engine (`LinearTransform::apply`)
/// shares Decompose/ModUp/digit-NTTs across the batch and replays
/// only the automorphism → IP → ModDown tail per rotation
/// (`hoist_rotations` / `key_switch_galois_hoisted`). On the 1-CPU CI
/// container the gate is the bit-identity assertion below plus the
/// job-count assertions in the kernel tests, not a wall-clock ratio.
fn bench_rotations_hoisted_vs_sequential(c: &mut Criterion) {
    use trinity_workloads::LinearLayer;
    let mut group = c.benchmark_group("rotations_hoisted_vs_sequential");
    group.sample_size(10);
    // 9x9 dense diagonal layer => exactly 8 rotations.
    let layer = LinearLayer::random(9, 40);
    assert_eq!(layer.rotation_count(), 8);
    // The optimisation must be unobservable in the output bits.
    let seq = layer.eval_sequential();
    let hoisted = layer.eval();
    assert_eq!(hoisted.c0.flat(), seq.c0.flat());
    assert_eq!(hoisted.c1.flat(), seq.c1.flat());
    group.bench_function("sequential_8rot", |b| b.iter(|| layer.eval_sequential()));
    group.bench_function("hoisted_8rot", |b| b.iter(|| layer.eval()));
    // The hoisted layer under the threaded limb-parallel backend: the
    // pooled BConv/digit-NTT front half row-group-dispatches once.
    with_backend(fhe_math::kernel::threaded(Some(4)), || {
        group.bench_function("hoisted_threaded4_8rot", |b| b.iter(|| layer.eval()));
    });
    group.finish();
}

/// Cross-request keyswitch coalescing (the `trinity-service` batching
/// path): four independent ciphertexts rotating by the same step under
/// four *different* tenants' switching keys, evaluated as four
/// sequential `apply_galois` calls vs one `apply_galois_coalesced`
/// dispatch that concatenates the batch into single wide kernel calls.
/// On the 1-CPU CI container the gate is the bit-identity assertion
/// below plus the per-dispatch job-count assertions in the service
/// end-to-end suite, not a wall-clock ratio.
fn bench_coalesced_vs_sequential_keyswitch(c: &mut Criterion) {
    use fhe_ckks::*;
    let mut group = c.benchmark_group("coalesced_vs_sequential_keyswitch");
    group.sample_size(10);
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let mut rng = StdRng::seed_from_u64(33);
    let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let eval = Evaluator::new(ctx.clone());
    let l = ctx.params().max_level();
    let tenants: Vec<(Ciphertext, SwitchingKey)> = (0..4)
        .map(|t| {
            let kg = KeyGenerator::new(ctx.clone());
            let sk = kg.secret_key(&mut rng);
            let ct = encryptor.encrypt_sk(&enc.encode_real(&[t as f64, 0.25], l), &sk, &mut rng);
            (ct, kg.galois_key(&sk, g, &mut rng))
        })
        .collect();
    let jobs: Vec<(&Ciphertext, &SwitchingKey)> = tenants.iter().map(|(ct, gk)| (ct, gk)).collect();
    // Coalescing must be unobservable in the output bits.
    let coalesced = eval.apply_galois_coalesced(&jobs, g);
    for ((ct, gk), wide) in tenants.iter().zip(&coalesced) {
        let alone = eval.apply_galois(ct, g, gk);
        assert_eq!(wide.c0.flat(), alone.c0.flat());
        assert_eq!(wide.c1.flat(), alone.c1.flat());
    }
    group.bench_function("sequential_4x", |b| {
        b.iter(|| {
            tenants
                .iter()
                .map(|(ct, gk)| eval.apply_galois(ct, g, gk))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("coalesced_4x", |b| {
        b.iter(|| eval.apply_galois_coalesced(&jobs, g))
    });
    // Under the threaded limb-parallel backend the coalesced batch is
    // where the row counts come from: 4x the rows per dispatch.
    with_backend(fhe_math::kernel::threaded(Some(4)), || {
        group.bench_function("sequential_threaded4_4x", |b| {
            b.iter(|| {
                tenants
                    .iter()
                    .map(|(ct, gk)| eval.apply_galois(ct, g, gk))
                    .collect::<Vec<_>>()
            })
        });
        group.bench_function("coalesced_threaded4_4x", |b| {
            b.iter(|| eval.apply_galois_coalesced(&jobs, g))
        });
    });
    group.finish();
}

/// Cross-request TFHE gate batching (the `trinity-service` Interactive
/// lane path): four independent gates from one tenant through the one
/// gate engine, as 4 × `k = 1` (`apply_gate` per job) vs 1 × `k = 4`
/// (one `apply_gates_batched` dispatch whose blind rotations share
/// each external-product sweep). On the 1-CPU CI container the gate is the
/// bit-identity assertion below plus the batch-width assertions in the
/// service suites, not a wall-clock ratio.
fn bench_gates_batched_vs_sequential(c: &mut Criterion) {
    use fhe_tfhe::*;
    let mut group = c.benchmark_group("gates_batched_vs_sequential");
    group.sample_size(10);
    let mut rng = StdRng::seed_from_u64(34);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let cases = [
        (GateOp::Nand, true, true),
        (GateOp::Xor, true, false),
        (GateOp::And, false, true),
        (GateOp::Or, false, false),
    ];
    let inputs: Vec<(GateOp, LweCiphertext, LweCiphertext)> = cases
        .iter()
        .map(|&(op, a, b)| (op, ck.encrypt_bit(a, &mut rng), ck.encrypt_bit(b, &mut rng)))
        .collect();
    let jobs: Vec<BatchedGateJob<'_>> = inputs
        .iter()
        .map(|(op, a, b)| (&server, *op, a, b))
        .collect();
    // Batching must be unobservable in the output bits.
    let batched = apply_gates_batched(&jobs);
    for ((op, a, b), wide) in inputs.iter().zip(&batched) {
        let alone = server.apply_gate(*op, a, b);
        assert_eq!(wide.a, alone.a);
        assert_eq!(wide.b, alone.b);
    }
    group.bench_function("sequential_4x", |b| {
        b.iter(|| {
            inputs
                .iter()
                .map(|(op, x, y)| server.apply_gate(*op, x, y))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("batched_4x", |b| b.iter(|| apply_gates_batched(&jobs)));
    // Under the threaded backend the batched blind rotation is where
    // the fan-out comes from: 4x the external-product rows per sweep.
    with_backend(fhe_math::kernel::threaded(Some(4)), || {
        group.bench_function("sequential_threaded4_4x", |b| {
            b.iter(|| {
                inputs
                    .iter()
                    .map(|(op, x, y)| server.apply_gate(*op, x, y))
                    .collect::<Vec<_>>()
            })
        });
        group.bench_function("batched_threaded4_4x", |b| {
            b.iter(|| apply_gates_batched(&jobs))
        });
    });
    group.finish();
}

/// Homomorphic multiplication end to end.
fn bench_hmult(c: &mut Criterion) {
    use fhe_ckks::*;
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let mut rng = StdRng::seed_from_u64(4);
    let keys = KeyGenerator::new(ctx.clone()).key_set(&[], &mut rng);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let eval = Evaluator::new(ctx.clone());
    let l = ctx.params().max_level();
    let x = encryptor.encrypt_sk(&enc.encode_real(&[0.5; 8], l), &keys.secret, &mut rng);
    let y = encryptor.encrypt_sk(&enc.encode_real(&[0.25; 8], l), &keys.secret, &mut rng);
    c.bench_function("ckks_hmult_rescale", |b| {
        b.iter(|| eval.rescale(&eval.mul(&x, &y, &keys.relin)))
    });
}

/// TFHE external product: exact NTT path vs approximate FFT path — the
/// paper's core substitution, measured on the host.
fn bench_external_product(c: &mut Criterion) {
    use fhe_tfhe::*;
    let ring = TfheRing::new(1024, 32);
    let mut rng = StdRng::seed_from_u64(5);
    let sk = GlweSecretKey::generate(1, 1024, &mut rng);
    let msg: Vec<u64> = (0..1024).map(|i| (i as u64 % 8) * (ring.q() / 8)).collect();
    let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, 3.73e-9, &mut rng);
    let mut group = c.benchmark_group("tfhe_external_product_n1024");
    for backend in [MulBackend::Ntt, MulBackend::Fft] {
        let ggsw = Ggsw::encrypt_scalar(&ring, &sk, 1, 2, 10, 3.73e-9, backend, &mut rng);
        group.bench_function(format!("{backend:?}"), |b| {
            b.iter(|| ggsw.external_product(&ring, &glwe))
        });
    }
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

/// LWE repacking (Table IX's `measured` CPU row) at reduced ring degree.
fn bench_repack(c: &mut Criterion) {
    use fhe_ckks::*;
    use fhe_convert::*;
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let mut rng = StdRng::seed_from_u64(7);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let lwe_key = fhe_tfhe::LweSecretKey::from_coeffs(sk.coeffs().to_vec());
    let packer = RlwePacker::new(ctx.clone(), &sk, 1, &mut rng);
    let q0 = *ctx.level_basis(0).modulus(0);
    let delta = q0.value() / (64 * ctx.n() as u64);
    let mut group = c.benchmark_group("repack_n1024_l1");
    group.sample_size(10);
    for nslot in [2usize, 8] {
        let lwes: Vec<fhe_tfhe::LweCiphertext> = (0..nslot)
            .map(|_| fhe_tfhe::LweCiphertext::encrypt(&q0, &lwe_key, delta, 1e-8, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(nslot), &nslot, |b, _| {
            b.iter(|| packer.convert(&lwes, delta as f64))
        });
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
            b.iter(|| eval.eval_chebyshev(&ct, &fit.coeffs, &keys.relin, &enc))
        });
    }
    group.finish();
}

/// Full packed CKKS bootstrapping at functional test scale — the
/// `measured` counterpart of Table VI's Bootstrap row.
fn bench_ckks_bootstrap(c: &mut Criterion) {
    use fhe_ckks::bootstrap::bootstrap_test_params;
    use fhe_ckks::*;
    let ctx = CkksContext::new(bootstrap_test_params());
    let boot = Bootstrapper::new(ctx.clone(), BootstrapParams::default());
    let mut rng = StdRng::seed_from_u64(9);
    let keys = boot.generate_keys(&mut rng);
    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let eval = Evaluator::new(ctx.clone());
    let n = boot.params().sparse_slots;
    let slots = ctx.n() / 2;
    let tiled: Vec<f64> = (0..slots)
        .map(|j| (j % n) as f64 / n as f64 - 0.5)
        .collect();
    let ct = encryptor.encrypt_sk(&enc.encode_real(&tiled, 0), &keys.secret, &mut rng);
    let mut group = c.benchmark_group("ckks_bootstrap_n2048");
    group.sample_size(10);
    group.bench_function("sparse8", |b| {
        b.iter(|| boot.bootstrap(&ct, &eval, &enc, &keys))
    });
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
    bench_ntt_variants,
    bench_ntt_lazy_vs_strict,
    bench_poly_mul_flat,
    bench_keyswitch,
    bench_keyswitch_lazy_vs_canonical,
    bench_threaded_scaling,
    bench_rotate_lazy_vs_canonical,
    bench_rotations_hoisted_vs_sequential,
    bench_coalesced_vs_sequential_keyswitch,
    bench_gates_batched_vs_sequential,
    bench_hmult,
    bench_external_product,
    bench_pbs,
    bench_repack,
    bench_chebyshev,
    bench_ckks_bootstrap,
    bench_radix_ops,
    bench_nn_neuron
);
criterion_main!(benches);
