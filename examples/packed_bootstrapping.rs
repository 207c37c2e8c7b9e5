//! Packed CKKS bootstrapping, end to end on real ciphertexts.
//!
//! Exhausts a ciphertext down to level 0, refreshes it through the full
//! ModRaise -> SubSum -> CoeffToSlot -> EvalMod -> SlotToCoeff
//! pipeline, and keeps computing on the result — the paper's "Packed
//! Bootstrapping" workload (Table VI), here at functional test scale.
//!
//! Run with: `cargo run --release --example packed_bootstrapping`. Exits
//! non-zero when a refreshed slot is off by 2e-2 or more.

use std::time::Instant;

use rand::SeedableRng;
use trinity::ckks::bootstrap::bootstrap_test_params;
use trinity::ckks::{
    BootstrapParams, Bootstrapper, CkksContext, Decryptor, Encoder, Encryptor, Evaluator,
};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);

    let ctx = CkksContext::new(bootstrap_test_params());
    let boot_params = BootstrapParams::default();
    println!(
        "CKKS bootstrap context: N = {}, L = {}, scale = 2^{}, sparse slots = {}",
        ctx.n(),
        ctx.params().max_level(),
        ctx.params().scale_bits,
        boot_params.sparse_slots,
    );
    println!(
        "pipeline: C2S(1) + Chebyshev deg {} ({} lvls) + {} double-angle + S2C(1) = {} levels",
        boot_params.cheb_degree,
        trinity::ckks::chebyshev::chebyshev_depth(boot_params.cheb_degree),
        boot_params.double_angle,
        boot_params.depth(),
    );

    let boot = Bootstrapper::new(ctx.clone(), boot_params);
    let t0 = Instant::now();
    let keys = boot.generate_keys(&mut rng);
    println!(
        "generated {} Galois keys + relin key in {:.1?}",
        keys.galois.len(),
        t0.elapsed()
    );

    let enc = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let eval = Evaluator::new(ctx.clone());
    let dec = Decryptor::new(ctx.clone());

    // An n-periodic (sparsely packed) message, encrypted straight at
    // level 0 — no levels left to compute with.
    let n = boot.params().sparse_slots;
    let vals: Vec<f64> = (0..n)
        .map(|i| ((i * 37 + 11) % 19) as f64 / 19.0 - 0.5)
        .collect();
    let slots = ctx.n() / 2;
    let tiled: Vec<f64> = (0..slots).map(|j| vals[j % n]).collect();
    let exhausted = encryptor.encrypt_sk(&enc.encode_real(&tiled, 0), &keys.secret, &mut rng);
    println!("\nexhausted ciphertext: level {}", exhausted.level);

    let t1 = Instant::now();
    let fresh = boot.bootstrap(&exhausted, &eval, &enc, &keys);
    let boot_time = t1.elapsed();
    println!(
        "bootstrapped in {boot_time:.1?}: level {} -> {} (usable levels restored)",
        exhausted.level, fresh.level
    );

    let back = dec.decrypt(&fresh, &keys.secret, &enc);
    println!("\nslot  original    refreshed    |error|");
    let mut max_err = 0.0f64;
    for (i, &v) in vals.iter().enumerate() {
        let err = (back[i].re - v).abs();
        max_err = max_err.max(err);
        println!("{i:>4}  {v:>9.5}  {:>10.5}  {err:.2e}", back[i].re);
    }
    println!("max slot error: {max_err:.2e}");
    // The bound `lib_bootstrap` and the bootstrap tests hold it to.
    if max_err >= 2e-2 {
        eprintln!("max slot error {max_err:.2e} reaches the 2e-2 bound");
        std::process::exit(1);
    }

    // Prove the levels are real: square the refreshed ciphertext twice.
    let sq = eval.rescale(&eval.mul(&fresh, &fresh, &keys.relin));
    let quad = eval.rescale(&eval.mul(&sq, &sq, &keys.relin));
    let out = dec.decrypt(&quad, &keys.secret, &enc);
    let worst = vals
        .iter()
        .enumerate()
        .map(|(i, &v)| (out[i].re - v.powi(4)).abs())
        .fold(0.0f64, f64::max);
    println!("\nx^4 on refreshed data: max error {worst:.2e} (two more levels consumed)");
}
