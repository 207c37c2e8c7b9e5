//! Quickstart: encrypted arithmetic with CKKS.
//!
//! Encrypts two vectors, computes `x*y + x` homomorphically, and
//! decrypts — the "arithmetic FHE" half of the Trinity paper.
//!
//! Run with: `cargo run --release --example quickstart`

use rand::SeedableRng;
use trinity::ckks::{
    CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);

    // Small-but-real parameters: N = 2^12, a 5-prime RNS chain.
    let ctx = CkksContext::new(CkksParams::test_params());
    println!(
        "CKKS context: N = {}, L = {}, dnum = {}, scale = 2^{}",
        ctx.n(),
        ctx.params().max_level(),
        ctx.params().dnum,
        ctx.params().scale_bits
    );

    let keys = KeyGenerator::new(ctx.clone()).key_set(&[1], &mut rng);
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let evaluator = Evaluator::new(ctx.clone());
    let decryptor = Decryptor::new(ctx.clone());

    let x: Vec<f64> = (0..8).map(|i| (i as f64) / 10.0).collect();
    let y: Vec<f64> = (0..8).map(|i| 1.0 - (i as f64) / 10.0).collect();
    println!("x = {x:?}");
    println!("y = {y:?}");

    let level = ctx.params().max_level();
    let ct_x = encryptor.encrypt_pk(&encoder.encode_real(&x, level), &keys.public, &mut rng);
    let ct_y = encryptor.encrypt_pk(&encoder.encode_real(&y, level), &keys.public, &mut rng);

    // x * y (HMult + rescale) ...
    let prod = evaluator.rescale(&evaluator.mul(&ct_x, &ct_y, &keys.relin));
    // ... + x. Addition needs matching scales; after a rescale the
    // scale is Delta^2 / q_top, not Delta, so route x through the same
    // multiply-by-one (a constant at scale Delta) + rescale to land on
    // the identical scale.
    let one_x = evaluator.mul_const(&ct_x, 1.0, ctx.params().scale());
    let ct_x_low = evaluator.rescale(&one_x);
    let sum = evaluator.add(&prod, &ct_x_low);

    let out = decryptor.decrypt(&sum, &keys.secret, &encoder);
    println!("\nslot  x*y + x (computed)   expected   |error|");
    for i in 0..8 {
        let expect = x[i] * y[i] + x[i];
        let got = out[i].re;
        println!(
            "{i:>4}  {got:>18.6}  {expect:>9.3}  {:.2e}",
            (got - expect).abs()
        );
        assert!((got - expect).abs() < 1e-2, "slot {i} error too large");
    }
    println!("\nAll slots within 1e-2 of the plaintext computation.");
}
