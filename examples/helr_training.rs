//! Encrypted logistic-regression training — the paper's HELR benchmark
//! (Table VI), run functionally on real ciphertexts.
//!
//! Each iteration computes `w <- w + (lr/m) * X^T (y - sigmoid(X w))`
//! entirely under CKKS: the mat-vecs are BSGS diagonal transforms
//! (`HRotate`-heavy, the workload that motivates Trinity's CU-based
//! inner-product offload) and the sigmoid is a low-depth Chebyshev
//! evaluation.
//!
//! Run with: `cargo run --release --example helr_training`. Exits
//! non-zero when the encrypted-trained accuracy differs from the plain
//! reference's, or when a weight is off the plain one by 1e-2 or more.

use std::collections::HashMap;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trinity::ckks::chebyshev::ChebyshevPoly;
use trinity::ckks::{
    CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
    LinearTransform,
};
use trinity::math::Complex;

/// Plain sigmoid for reference.
fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn main() {
    let mut rng = StdRng::seed_from_u64(17);

    // A tiny linearly-separable problem: dim features, dim samples
    // (the square shape keeps both mat-vecs on one transform size).
    let dim = 8usize;
    let x_data: Vec<Vec<f64>> = (0..dim)
        .map(|_| (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let true_w: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let labels: Vec<f64> = x_data
        .iter()
        .map(|row| {
            let dot: f64 = row.iter().zip(&true_w).map(|(a, b)| a * b).sum();
            if dot > 0.0 {
                1.0
            } else {
                0.0
            }
        })
        .collect();

    // Depth per iteration: X w (1) + domain scale (1) + sigmoid (3) +
    // X^T r (1) + step scale (1) = 7 levels; two iterations fit L = 15.
    let params = CkksParams::new(1 << 12, 15, 40, 3).expect("valid params");
    let ctx = CkksContext::new(params);
    let enc = Encoder::new(ctx.clone());
    let eval = Evaluator::new(ctx.clone());
    let dec = Decryptor::new(ctx.clone());

    // X and X^T as diagonal-encoded transforms.
    let flat: Vec<Complex> = x_data
        .iter()
        .flat_map(|r| r.iter().map(|&v| Complex::new(v, 0.0)))
        .collect();
    let x_t: Vec<Complex> = (0..dim * dim)
        .map(|i| flat[(i % dim) * dim + i / dim])
        .collect();
    let lt_x = LinearTransform::from_matrix(&flat, dim);
    let lt_xt = LinearTransform::from_matrix(&x_t, dim);

    let mut rotations = lt_x.required_rotations();
    rotations.extend(lt_xt.required_rotations());
    let keys = KeyGenerator::new(ctx.clone()).key_set(&rotations, &mut rng);
    let encryptor = Encryptor::new(ctx.clone());

    // Degree-7 Chebyshev sigmoid on [-8, 8] (3 levels).
    let fit = ChebyshevPoly::fit(sigmoid, -8.0, 8.0, 7);
    println!(
        "sigmoid fit: degree {}, max error {:.1e} on [-8, 8]",
        fit.degree(),
        fit.max_error(sigmoid, 400)
    );

    // Encrypted state: weights start at zero; labels are a plaintext
    // operand here (they would be encrypted in the full protocol — the
    // circuit is identical).
    let slots = enc.slots();
    let tile = |v: &[f64]| -> Vec<f64> { (0..slots).map(|j| v[j % dim]).collect() };
    let l0 = ctx.params().max_level();
    let mut ct_w = encryptor.encrypt_sk(
        &enc.encode_real(&tile(&vec![0.0; dim]), l0),
        &keys.secret,
        &mut rng,
    );
    let lr = 1.0;

    let plain_acc = |w: &[f64]| -> usize {
        x_data
            .iter()
            .zip(&labels)
            .filter(|(row, &y)| {
                let p: f64 = row.iter().zip(w).map(|(a, b)| a * b).sum();
                (sigmoid(p) > 0.5) == (y > 0.5)
            })
            .count()
    };

    println!("\niter  levels  train-acc  max|w - w_plain|");
    let mut w_plain = vec![0.0f64; dim];
    let galois: &HashMap<u64, _> = &keys.galois;
    for it in 0..2 {
        let t = Instant::now();
        // Encrypted step.
        let xw = lt_x.apply_bsgs(&eval, &enc, &ct_w, galois, 4);
        // u = Xw scaled onto the Chebyshev domain [-1, 1].
        let u = eval.rescale(&eval.mul_const(&xw, 1.0 / 8.0, ctx.params().scale()));
        let s = eval.eval_chebyshev(&u, &fit.coeffs, &keys.relin);
        // r = y - sigmoid(Xw).
        let y_pt = enc.encode_at_scale(
            &tile(&labels)
                .iter()
                .map(|&v| Complex::new(v, 0.0))
                .collect::<Vec<_>>(),
            s.level,
            s.scale,
        );
        let r = eval.negate(&eval.sub_plain(&s, &y_pt));
        // grad = X^T r; w += (lr/m) grad.
        let grad = lt_xt.apply_bsgs(&eval, &enc, &r, galois, 4);
        let step = eval.rescale(&eval.mul_const(&grad, lr / dim as f64, ctx.params().scale()));
        let w_low = eval.mod_down_to(&ct_w, step.level);
        // Align the tiny scale drift by re-encoding the step at w's scale.
        let mut step_aligned = step.clone();
        step_aligned.scale = w_low.scale; // |drift| < 1e-9 relative
        ct_w = eval.add(&w_low, &step_aligned);
        let dt = t.elapsed();

        // Plaintext reference step.
        let mut grad_plain = vec![0.0f64; dim];
        for (row, &y) in x_data.iter().zip(&labels) {
            let p: f64 = row.iter().zip(&w_plain).map(|(a, b)| a * b).sum();
            let r = y - sigmoid(p);
            for (g, &xi) in grad_plain.iter_mut().zip(row) {
                *g += r * xi;
            }
        }
        for (w, g) in w_plain.iter_mut().zip(&grad_plain) {
            *w += lr / dim as f64 * g;
        }

        let w_now = dec.decrypt(&ct_w, &keys.secret, &enc);
        let max_dev = (0..dim)
            .map(|i| (w_now[i].re - w_plain[i]).abs())
            .fold(0.0f64, f64::max);
        let acc = plain_acc(&w_plain);
        println!(
            "{it:>4}  {:>6}  {acc:>6}/{dim}   {max_dev:.2e}   ({dt:.1?})",
            ct_w.level
        );
    }

    let w_final = dec.decrypt(&ct_w, &keys.secret, &enc);
    let w_dec: Vec<f64> = (0..dim).map(|i| w_final[i].re).collect();
    let (acc_enc, acc_plain) = (plain_acc(&w_dec), plain_acc(&w_plain));
    println!("\nencrypted-trained accuracy: {acc_enc}/{dim} (plain reference {acc_plain}/{dim})");
    let max_dev = w_dec
        .iter()
        .zip(&w_plain)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    if acc_enc != acc_plain {
        eprintln!("encrypted-trained accuracy {acc_enc} differs from the plain {acc_plain}");
        std::process::exit(1);
    }
    if max_dev >= 1e-2 {
        eprintln!("max|w - w_plain| {max_dev:.2e} reaches the 1e-2 bound");
        std::process::exit(1);
    }
}
