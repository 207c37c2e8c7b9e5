//! Probe calls: single public operations of one layer, timed at the
//! shape the workload runs them at. They run after the repetitions, in
//! the traced run only, and give the per-layer numbers the driver
//! spans cannot (an operation inside a service dispatch has no public
//! boundary to put a span on).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity::ckks::{
    key_switch, CkksContext, Encoder, Encryptor, Evaluator, KeyGenerator, SecretKey, SwitchingKey,
};
use trinity::math::galois::rotation_galois_element;
use trinity::math::pool::WorkerPool;
use trinity::tfhe::{
    apply_gates_batched, BatchedGateJob, ClientKey, GateOp, GlweCiphertext, ServerKey,
};

use crate::harness::{ms, nproc, probe, us, Metrics, KEY_SEED, ROTATION_STEPS};
use crate::span::{SpanBackend, Tracer};

/// `1 - kernel busy / wall` of `f`, run once under the span backend.
fn residual_share<R>(f: impl FnOnce() -> R) -> f64 {
    let backend = SpanBackend::install();
    let mut tracer = Tracer::new(true);
    let (_, wall) = tracer.span("probe", None, |_| std::hint::black_box(f()));
    backend.uninstall();
    1.0 - tracer.kernels_under("probe").busy_ns() as f64 / wall.as_nanos() as f64
}

/// `ckks.*` at `ctx`'s top level, under fresh probe keys for `sk`.
pub fn ckks(ctx: &Arc<CkksContext>, sk: &SecretKey, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    let kg = KeyGenerator::new(ctx.clone());
    let relin = kg.relin_key(sk, &mut rng);
    let steps = ROTATION_STEPS;
    let galois: Vec<SwitchingKey> = steps
        .iter()
        .map(|&r| kg.galois_key(sk, rotation_galois_element(r, ctx.n()), &mut rng))
        .collect();
    let level = ctx.params().max_level();
    let encoder = Encoder::new(ctx.clone());
    let values: Vec<f64> = (0..encoder.slots()).map(|i| (i % 7) as f64 / 7.0).collect();
    let ct =
        Encryptor::new(ctx.clone()).encrypt_sk(&encoder.encode_real(&values, level), sk, &mut rng);
    let eval = Evaluator::new(ctx.clone());

    let keyswitch = || key_switch(ctx, &ct.c1, &relin, level);
    out.set("ckks.keyswitch_ms", ms(probe(9, keyswitch)));
    out.set("ckks.residual_share", residual_share(keyswitch));
    out.set(
        "ckks.rotate_ms",
        ms(probe(9, || eval.rotate(&ct, steps[0], &galois[0]))),
    );
    let four = [(&ct, &galois[0]); 4];
    out.set(
        "ckks.coalesced4_ms",
        ms(probe(5, || eval.rotate_coalesced(&four, steps[0]))),
    );
    out.set(
        "ckks.hmult_rescale_ms",
        ms(probe(9, || eval.rescale(&eval.mul(&ct, &ct, &relin)))),
    );
    out.set(
        "ckks.hoisted8_ms",
        ms(probe(5, || {
            let hoisted = eval.hoist_rotations(&ct);
            steps
                .iter()
                .zip(&galois)
                .map(|(&r, key)| eval.rotate_hoisted(&ct, &hoisted, r, key))
                .collect::<Vec<_>>()
        })),
    );
}

/// `tfhe.*` under `server`'s parameter set.
pub fn tfhe(ck: &ClientKey, server: &ServerKey, out: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(KEY_SEED);
    let a = ck.encrypt_bit(true, &mut rng);
    let b = ck.encrypt_bit(false, &mut rng);
    let gate = || server.apply_gate(GateOp::Nand, &a, &b);
    out.set("tfhe.gate_ms", ms(probe(3, gate)));
    out.set("tfhe.residual_share", residual_share(gate));
    let four: Vec<BatchedGateJob<'_>> = vec![(server, GateOp::Nand, &a, &b); 4];
    out.set(
        "tfhe.gates_batched4_ms",
        ms(probe(3, || apply_gates_batched(&four))),
    );

    let t = 16;
    let message = ck.encrypt_message(5, t, &mut rng);
    let amplitude = ck.ctx.q().value() / 32;
    let predicate = || server.bootstrap_predicate_unswitched(&message, t, |m| m < 8, amplitude);
    out.set("tfhe.pbs_predicate_ms", ms(probe(3, predicate)));
    let extracted = predicate();
    out.set(
        "tfhe.lwe_keyswitch_ms",
        ms(probe(5, || server.ksk.switch(ck.ctx.q(), &extracted))),
    );

    let ring = &server.ctx.ring;
    let glwe = GlweCiphertext::trivial(ring, server.ctx.params.k, vec![amplitude; ring.n()]);
    out.set(
        "tfhe.external_product_us",
        us(probe(21, || server.bsk[0].external_product(ring, &glwe))),
    );
}

/// `math.pool_roundtrip_us`: an empty fan-out over a pool of one worker
/// per CPU, and `math.scratch_retained_words` of this thread.
pub fn math(out: &mut Metrics) {
    let threads = nproc();
    let pool = WorkerPool::new(threads);
    out.set(
        "math.pool_roundtrip_us",
        us(probe(201, || pool.run_partition(threads, 1, |_| {}))),
    );
    out.set(
        "math.scratch_retained_words",
        trinity::math::scratch::retained_words() as f64,
    );
}
