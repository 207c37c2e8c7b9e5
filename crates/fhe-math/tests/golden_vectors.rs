//! Golden-vector tests for the NTT (production and strict) and the FFT.
//!
//! Two kinds of oracle pin the transforms down:
//!
//! * **externally computed constants** — negacyclic products and DFT
//!   spectra computed with an independent implementation (exact integer
//!   schoolbook / `cmath`), hardcoded below. These are psi-independent,
//!   so they catch any regression in the whole transform pipeline.
//! * **direct evaluation** — the spectrum definition itself
//!   (slot `k` holds `f(psi^(2*bitrev(k)+1))`), evaluated in O(n^2)
//!   straight from [`fhe_math::prime::primitive_root_of_unity`]. The
//!   production forward transform and its strict oracle must match it
//!   slot by slot.
//!
//! Every test that transforms through `NttTable::forward` / `inverse`
//! (one-row batches of the active backend) runs under each kernel
//! backend in-process, forcing and restoring the global through the
//! workspace's shared `under_each_backend`.

#[path = "../../../tests/common/mod.rs"]
mod common;

use common::under_each_backend;
use fhe_math::fft::negacyclic_mul_fft;
use fhe_math::ntt::negacyclic_mul_schoolbook;
use fhe_math::prime::{is_prime, ntt_primes, primitive_root_of_unity};
use fhe_math::{Complex, FftPlan, Modulus, NttTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn reverse_bits(x: usize, bits: u32) -> usize {
    x.reverse_bits() >> (usize::BITS - bits)
}

/// `p = 257`, `n = 8`, `a = [1..8]`, `b = [8..1]`:
/// `a * b mod (X^8 + 1, 257)` computed with an independent
/// schoolbook implementation (Python, exact integers).
const GOLDEN_NEGACYCLIC_257: [u64; 8] = [97, 147, 201, 0, 56, 110, 160, 204];

/// Signed negacyclic product of the fixed vectors below, exact.
const GOLDEN_SIGNED_A: [i64; 8] = [3, -1, 4, 1, -5, 9, -2, 6];
const GOLDEN_SIGNED_B: [i64; 8] = [-2, 7, 1, -8, 2, 8, -1, 8];
const GOLDEN_SIGNED_PROD: [i64; 8] = [40, -8, -45, 54, -87, -40, 3, 82];

/// 8-point DFT of `[1..8]` under `X[k] = sum_j x[j] e^{-2 pi i jk/8}`
/// (computed independently with `cmath`).
const GOLDEN_DFT_8: [(f64, f64); 8] = [
    (36.0, 0.0),
    (-4.0, 9.656854249492),
    (-4.0, 4.0),
    (-4.0, 1.656854249492),
    (-4.0, 0.0),
    (-4.0, -1.656854249492),
    (-4.0, -4.0),
    (-4.0, -9.656854249492),
];

#[test]
fn negacyclic_product_matches_external_golden() {
    let m = Modulus::new(257).unwrap();
    let t = NttTable::new(m, 8);
    let a: Vec<u64> = (1..=8).collect();
    let b: Vec<u64> = (1..=8).rev().collect();
    for (name, product) in under_each_backend(|| t.negacyclic_mul(&a, &b)) {
        assert_eq!(product, GOLDEN_NEGACYCLIC_257, "backend {name}");
    }
    // The O(n^2) oracle must agree with the same constants.
    assert_eq!(
        negacyclic_mul_schoolbook(t.modulus(), &a, &b),
        GOLDEN_NEGACYCLIC_257
    );
}

/// Runs the product through the production forward transform and its
/// strict oracle explicitly (forward -> pointwise -> inverse), so a
/// regression in either one's output ordering breaks against the
/// external constants.
#[test]
fn every_forward_variant_reproduces_the_golden_product() {
    let m = Modulus::new(257).unwrap();
    let t = NttTable::new(m, 8);
    let a: Vec<u64> = (1..=8).collect();
    let b: Vec<u64> = (1..=8).rev().collect();

    type Fwd = fn(&NttTable, &mut [u64]);
    let variants: [(&str, Fwd); 2] = [
        ("reference", |t, x| t.forward(x)),
        ("strict", |t, x| t.forward_strict(x)),
    ];
    for (name, fwd) in variants {
        for (backend, prod) in under_each_backend(|| {
            let mut fa = a.clone();
            let mut fb = b.clone();
            fwd(&t, &mut fa);
            fwd(&t, &mut fb);
            let mut prod = vec![0u64; 8];
            t.pointwise_mul_acc(&mut prod, &fa, &fb);
            t.inverse(&mut prod);
            prod
        }) {
            assert_eq!(prod, GOLDEN_NEGACYCLIC_257, "{name} under {backend}");
        }
    }
}

/// The spectrum definition, straight from the root of unity: slot `k`
/// of the forward transform holds `f(psi^(2*bitrev(k)+1))`.
fn direct_spectrum(t: &NttTable, a: &[u64]) -> Vec<u64> {
    let m = t.modulus();
    let n = t.n();
    let log_n = n.trailing_zeros();
    let psi = primitive_root_of_unity(m, 2 * n as u64);
    (0..n)
        .map(|k| {
            let e = 2 * reverse_bits(k, log_n) as u64 + 1;
            let x = m.pow(psi, e);
            let mut acc = 0u64;
            let mut xp = 1u64;
            for &c in a {
                acc = m.add(acc, m.mul(c, xp));
                xp = m.mul(xp, x);
            }
            acc
        })
        .collect()
}

#[test]
fn all_variants_match_direct_evaluation() {
    for (bits, n) in [(20u32, 8usize), (36, 32), (45, 64)] {
        let p = ntt_primes(bits, n, 1)[0];
        let t = NttTable::new(Modulus::new(p).unwrap(), n);
        // A fixed, structured input: 1, 2, 4, ... doubling mod p.
        let mut a = vec![0u64; n];
        let mut v = 1u64;
        for x in a.iter_mut() {
            *x = v;
            v = t.modulus().mul(v, 2);
        }
        let expect = direct_spectrum(&t, &a);

        let mut s = a.clone();
        t.forward_strict(&mut s);
        assert_eq!(s, expect, "strict vs direct, n={n}");

        for (name, (r, inv)) in under_each_backend(|| {
            let mut r = a.clone();
            t.forward(&mut r);
            let mut inv = expect.clone();
            t.inverse(&mut inv);
            (r, inv)
        }) {
            assert_eq!(r, expect, "reference vs direct, n={n}, backend {name}");
            // And the inverse takes the direct spectrum back to the input.
            assert_eq!(inv, a, "inverse of direct spectrum, n={n}, backend {name}");
        }
    }
}

/// Every `KernelBackend` must reproduce the golden vectors: the full
/// transform pipeline (stages + exit folds + scaling) run through the
/// scalar reference and the lane backend explicitly,
/// checked against the externally computed product and the direct
/// spectrum. This is the acceptance gate for new backends — identical
/// outputs on the golden vectors, not just on random data.
#[test]
fn kernel_backends_reproduce_golden_vectors() {
    for backend in common::backends() {
        let name = backend.name();

        // Golden negacyclic product via explicit backend passes.
        let m = Modulus::new(257).unwrap();
        let t = NttTable::new(m, 8);
        let forward = |x: &mut [u64]| {
            backend.forward_stages(&t, x);
            backend.fold_4p_to_canonical(t.modulus(), x);
        };
        let mut fa: Vec<u64> = (1..=8).collect();
        let mut fb: Vec<u64> = (1..=8).rev().collect();
        forward(&mut fa);
        forward(&mut fb);
        let mut prod = vec![0u64; 8];
        backend.mul_acc_lazy(t.modulus(), &mut prod, &fa, &fb);
        backend.fold_2p_to_canonical(t.modulus(), &mut prod);
        backend.inverse_stages(&t, &mut prod);
        let (ni, nis) = t.n_inv();
        backend.scale_shoup(t.modulus(), ni, nis, &mut prod);
        assert_eq!(prod, GOLDEN_NEGACYCLIC_257, "backend {name}");

        // Direct-evaluation spectrum across sizes, lazy exits folded.
        for (bits, n) in [(20u32, 8usize), (36, 32), (45, 64)] {
            let p = ntt_primes(bits, n, 1)[0];
            let t = NttTable::new(Modulus::new(p).unwrap(), n);
            let mut a = vec![0u64; n];
            let mut v = 1u64;
            for x in a.iter_mut() {
                *x = v;
                v = t.modulus().mul(v, 2);
            }
            let expect = direct_spectrum(&t, &a);
            let mut lazy = a.clone();
            backend.forward_stages(&t, &mut lazy);
            backend.fold_4p_to_2p(t.modulus(), &mut lazy);
            backend.fold_2p_to_canonical(t.modulus(), &mut lazy);
            assert_eq!(lazy, expect, "backend {name} spectrum, n={n}");
        }
    }
}

#[test]
fn fft_forward_matches_external_golden() {
    let plan = FftPlan::new(8);
    let mut x: Vec<Complex> = (1..=8).map(|v| Complex::new(v as f64, 0.0)).collect();
    plan.forward(&mut x);
    for (k, (re, im)) in GOLDEN_DFT_8.iter().enumerate() {
        assert!(
            (x[k].re - re).abs() < 1e-9 && (x[k].im - im).abs() < 1e-9,
            "slot {k}: got ({}, {}), want ({re}, {im})",
            x[k].re,
            x[k].im
        );
    }
}

#[test]
fn fft_roundtrip_is_identity() {
    let plan = FftPlan::new(16);
    let orig: Vec<Complex> = (0..16)
        .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos()))
        .collect();
    let mut x = orig.clone();
    plan.forward(&mut x);
    plan.inverse(&mut x);
    for (a, b) in orig.iter().zip(&x) {
        assert!((a.re - b.re).abs() < 1e-10 && (a.im - b.im).abs() < 1e-10);
    }
}

#[test]
fn fft_negacyclic_mul_matches_external_golden() {
    let got = negacyclic_mul_fft(&GOLDEN_SIGNED_A, &GOLDEN_SIGNED_B);
    assert_eq!(got, GOLDEN_SIGNED_PROD);
}

/// The FFT path and the exact NTT path agree on small signed inputs
/// (the regime where double-precision rounding is exact) — the §II-B
/// comparison Trinity's NTT substitution is motivated by.
#[test]
fn fft_and_ntt_paths_agree_on_small_inputs() {
    let n = 8;
    let p = ntt_primes(36, n, 1)[0];
    let m = Modulus::new(p).unwrap();
    let t = NttTable::new(m, n);
    let au: Vec<u64> = GOLDEN_SIGNED_A.iter().map(|&v| m.from_i64(v)).collect();
    let bu: Vec<u64> = GOLDEN_SIGNED_B.iter().map(|&v| m.from_i64(v)).collect();
    for (name, product) in under_each_backend(|| t.negacyclic_mul(&au, &bu)) {
        let exact: Vec<i64> = product.iter().map(|&v| m.to_centered(v)).collect();
        assert_eq!(exact, GOLDEN_SIGNED_PROD, "backend {name}");
    }
}

/// The accuracy ablation, at kernel level, on the operands of
/// `fhe_math::fft`'s `negacyclic_fft_error_grows_with_magnitude`
/// (`n = 1024`, coefficients in `±2^26`): the NTT under a 62-bit prime
/// equals the exact `i128` schoolbook product mod `p`, while the f64
/// FFT product rounds — its error is nonzero and below `2^20 < p`, so
/// it differs mod `p` too. That test's "NTT stays exact" is checked
/// here.
// Schoolbook oracles index with i/j so the negacyclic wrap k = i + j
// stays visible; iterator rewrites would obscure the index math.
#[allow(clippy::needless_range_loop)]
#[test]
fn ntt_is_exact_where_fft_rounds() {
    let n = 1024;
    let mut rng = StdRng::seed_from_u64(6);
    let a: Vec<i64> = (0..n)
        .map(|_| rng.gen_range(-(1 << 26)..(1 << 26)))
        .collect();
    let b: Vec<i64> = (0..n)
        .map(|_| rng.gen_range(-(1 << 26)..(1 << 26)))
        .collect();
    let mut exact = vec![0i128; n];
    for i in 0..n {
        for j in 0..n {
            let prod = a[i] as i128 * b[j] as i128;
            if i + j < n {
                exact[i + j] += prod;
            } else {
                exact[i + j - n] -= prod;
            }
        }
    }
    // The largest NTT prime below `Modulus::MAX = 2^62`.
    let p = (1..)
        .map(|i| Modulus::MAX + 1 - i * 2 * n as u64)
        .find(|&c| is_prime(c))
        .unwrap();
    let m = Modulus::new(p).unwrap();
    let t = NttTable::new(m, n);
    let want: Vec<u64> = exact
        .iter()
        .map(|&e| e.rem_euclid(p as i128) as u64)
        .collect();
    let au: Vec<u64> = a.iter().map(|&v| m.from_i64(v)).collect();
    let bu: Vec<u64> = b.iter().map(|&v| m.from_i64(v)).collect();
    for (name, product) in under_each_backend(|| t.negacyclic_mul(&au, &bu)) {
        assert_eq!(product, want, "backend {name}");
    }
    let fft = negacyclic_mul_fft(&a, &b);
    let max_err = fft
        .iter()
        .zip(&exact)
        .map(|(&f, &e)| (f as i128 - e).unsigned_abs())
        .max()
        .unwrap();
    assert!(max_err > 0 && max_err < 1 << 20, "FFT error {max_err}");
    let fft_mod_p: Vec<u64> = fft.iter().map(|&f| m.from_i64(f)).collect();
    assert_ne!(fft_mod_p, want, "FFT rounding must show mod p");
}
