//! Chebyshev approximation and low-depth homomorphic evaluation.
//!
//! Bootstrapping's EvalMod stage (and deep CKKS applications generally)
//! must evaluate a high-degree polynomial in `O(log d)` multiplicative
//! depth — Horner's rule would burn one level per degree. This module
//! provides
//!
//! * [`ChebyshevPoly`]: numeric Chebyshev interpolation of an arbitrary
//!   function on an interval, with plain Clenshaw evaluation, and
//! * [`Evaluator::eval_chebyshev`]: a Paterson–Stockmeyer-style
//!   divide-and-conquer evaluator over the Chebyshev basis, consuming
//!   `ceil(log2 d) + 1` levels instead of `d`.
//!
//! Scale management is exact: every ciphertext addition in the recursion
//! is between operands whose scales match by construction (each constant
//! is rounded at the precise scale that lands its term on the shared
//! target), so no scale-drift error accumulates even over deep chains of
//! near-but-not-exactly-`2^scale_bits` primes.
//!
//! The constants never become plaintexts: in evaluation form a constant
//! polynomial is that constant in every word, so [`Evaluator::add_const`]
//! and [`Evaluator::mul_const`] apply them as one scalar per limb. And
//! each recursion node rescales once: its product `q * T_k` and its
//! remainder `r` are added at the shared pre-rescale scale, and only the
//! sum is rescaled.

use std::borrow::Cow;
use std::f64::consts::PI;

use crate::ciphertext::Ciphertext;
use crate::eval::Evaluator;
use crate::keys::SwitchingKey;

/// A polynomial in the Chebyshev basis on an interval `[a, b]`:
/// `p(x) = sum_j coeffs[j] * T_j(u)` with `u = (2x - a - b) / (b - a)`.
#[derive(Debug, Clone)]
pub struct ChebyshevPoly {
    /// Chebyshev-basis coefficients `c_0 .. c_d`.
    pub coeffs: Vec<f64>,
    /// Left endpoint of the approximation interval.
    pub a: f64,
    /// Right endpoint of the approximation interval.
    pub b: f64,
}

impl ChebyshevPoly {
    /// Interpolates `f` on `[a, b]` at the `degree + 1` Chebyshev nodes.
    ///
    /// For analytic `f` the error decays geometrically in the degree;
    /// for `cos`/`sin` over `k` periods a degree around `2 pi k + 10`
    /// already reaches double precision.
    ///
    /// # Panics
    ///
    /// Panics if `a >= b`.
    pub fn fit(f: impl Fn(f64) -> f64, a: f64, b: f64, degree: usize) -> Self {
        assert!(a < b, "invalid interval [{a}, {b}]");
        let m = degree + 1;
        // Sample at the Chebyshev nodes u_k = cos(pi (k + 1/2) / m).
        let samples: Vec<f64> = (0..m)
            .map(|k| {
                let u = (PI * (k as f64 + 0.5) / m as f64).cos();
                f(0.5 * (u * (b - a) + a + b))
            })
            .collect();
        // c_j = (2/m) sum_k f(x_k) cos(j pi (k + 1/2) / m), with c_0 halved.
        let coeffs: Vec<f64> = (0..m)
            .map(|j| {
                let s: f64 = samples
                    .iter()
                    .enumerate()
                    .map(|(k, &fx)| fx * (PI * j as f64 * (k as f64 + 0.5) / m as f64).cos())
                    .sum();
                let c = 2.0 * s / m as f64;
                if j == 0 {
                    c / 2.0
                } else {
                    c
                }
            })
            .collect();
        Self { coeffs, a, b }
    }

    /// Degree of the representation (`coeffs.len() - 1`).
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Evaluates the polynomial at `x` by the Clenshaw recurrence.
    pub fn eval(&self, x: f64) -> f64 {
        let u = (2.0 * x - self.a - self.b) / (self.b - self.a);
        clenshaw(&self.coeffs, u)
    }

    /// Maximum absolute error of the fit against `f`, probed on a grid.
    pub fn max_error(&self, f: impl Fn(f64) -> f64, probes: usize) -> f64 {
        (0..probes)
            .map(|i| {
                let x = self.a + (self.b - self.a) * i as f64 / (probes - 1).max(1) as f64;
                (self.eval(x) - f(x)).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Drops trailing coefficients below `tol`, returning the trimmed
    /// polynomial (at least degree 1 is kept).
    pub fn trim(mut self, tol: f64) -> Self {
        while self.coeffs.len() > 2 && self.coeffs.last().is_some_and(|c| c.abs() < tol) {
            self.coeffs.pop();
        }
        self
    }
}

/// Clenshaw evaluation of `sum_j c_j T_j(u)` for `u` in `[-1, 1]`.
pub fn clenshaw(coeffs: &[f64], u: f64) -> f64 {
    let mut b1 = 0.0;
    let mut b2 = 0.0;
    for &c in coeffs.iter().skip(1).rev() {
        let t = 2.0 * u * b1 - b2 + c;
        b2 = b1;
        b1 = t;
    }
    coeffs.first().copied().unwrap_or(0.0) + u * b1 - b2
}

/// Multiplicative depth consumed by [`Evaluator::eval_chebyshev`] for a
/// polynomial of this degree: `ceil(log2 d) + 1` for `d >= 2`.
pub fn chebyshev_depth(degree: usize) -> usize {
    if degree < 2 {
        return 1;
    }
    let k = split_point(degree);
    // q (degree d-k) is evaluated one level above the output, r (degree
    // < k) at the output, and T_k must survive to output level + 1.
    (chebyshev_depth(degree - k) + 1)
        .max(chebyshev_depth(k - 1))
        .max(ctor_depth(k) + 1)
}

/// Levels below the input at which the power-of-two giant `T_k` is
/// constructed by repeated doubling (`T_{2j} = 2 T_j^2 - 1`).
fn ctor_depth(k: usize) -> usize {
    debug_assert!(k.is_power_of_two());
    k.trailing_zeros() as usize
}

/// Largest power of two `<= degree`: the split index `k` in
/// `p = q * T_k + r`.
fn split_point(degree: usize) -> usize {
    debug_assert!(degree >= 1);
    let mut k = 1usize;
    while 2 * k <= degree {
        k *= 2;
    }
    k
}

/// Number of ciphertext-ciphertext multiplications
/// [`Evaluator::eval_chebyshev`] performs for these coefficients:
/// the power-of-two doubling chain plus one multiply per recursion
/// split (mirrors the evaluator's control flow exactly, including the
/// trimming of zero tails).
pub fn multiplication_count(coeffs: &[f64]) -> usize {
    let degree = coeffs.len().saturating_sub(1);
    if degree < 2 {
        return 0;
    }
    let chain = split_point(degree).trailing_zeros() as usize;
    chain + recursion_mults(coeffs)
}

fn recursion_mults(coeffs: &[f64]) -> usize {
    let degree = coeffs.len() - 1;
    if degree < 2 {
        return 0;
    }
    let k = split_point(degree);
    let (q, r) = cheb_divide(coeffs, k);
    1 + recursion_mults(&q) + recursion_mults(&r)
}

/// Splits `p = q * T_k + r` in the Chebyshev basis.
///
/// Using `T_i T_k = (T_{k+i} + T_{k-i}) / 2` for `i <= k`:
/// `q_i = 2 c_{k+i}` for `i >= 1`, `q_0 = c_k`, and
/// `r_{k-i} = c_{k-i} - c_{k+i}`, other `r_j = c_j`.
fn cheb_divide(coeffs: &[f64], k: usize) -> (Vec<f64>, Vec<f64>) {
    let d = coeffs.len() - 1;
    debug_assert!(k <= d && d < 2 * k, "split {k} invalid for degree {d}");
    let mut q = vec![0.0; d - k + 1];
    q[0] = coeffs[k];
    for i in 1..=d - k {
        q[i] = 2.0 * coeffs[k + i];
    }
    let mut r: Vec<f64> = coeffs[..k].to_vec();
    for i in 1..=d - k {
        r[k - i] -= coeffs[k + i];
    }
    (trim_zeros(q), trim_zeros(r))
}

/// Drops trailing coefficients that are exactly representable as noise
/// floor (keeps at least the constant term).
fn trim_zeros(mut v: Vec<f64>) -> Vec<f64> {
    let cap = v.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    let tol = cap * 1e-15;
    while v.len() > 1 && v.last().is_some_and(|c| c.abs() <= tol) {
        v.pop();
    }
    v
}

/// Precomputed Chebyshev power ciphertexts: `T_1`, which is the input
/// itself (borrowed, not copied), and the power-of-two giants
/// `T_2, T_4, ..., T_{split}`.
struct ChebPowers<'a> {
    /// `powers[j]` = ciphertext of `T_{2^j}(u)`.
    powers: Vec<Cow<'a, Ciphertext>>,
}

impl ChebPowers<'_> {
    fn get(&self, k: usize) -> &Ciphertext {
        assert!(k.is_power_of_two(), "T_{k} is not a power-of-two giant");
        self.powers
            .get(k.trailing_zeros() as usize)
            .unwrap_or_else(|| panic!("T_{k} was not precomputed"))
    }
}

impl Evaluator {
    /// Evaluates `p(u) = sum_j coeffs[j] * T_j(u)` on a ciphertext whose
    /// slots lie in `[-1, 1]`, by recursive splitting at power-of-two
    /// Chebyshev polynomials (Paterson–Stockmeyer style).
    ///
    /// Consumes [`chebyshev_depth`]`(d)` levels (`ceil(log2 d) + 1`); the
    /// result lands at scale exactly `Delta` (the context default).
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty or the ciphertext lacks the required
    /// levels.
    pub fn eval_chebyshev(&self, u: &Ciphertext, coeffs: &[f64], rlk: &SwitchingKey) -> Ciphertext {
        assert!(!coeffs.is_empty(), "polynomial needs coefficients");
        let degree = coeffs.len() - 1;
        let depth = chebyshev_depth(degree);
        assert!(
            u.level >= depth,
            "chebyshev degree {degree} needs {depth} levels, ciphertext has {}",
            u.level
        );
        let powers = self.cheb_powers(u, degree, rlk);
        let target_level = u.level - depth;
        let target_scale = self.context().params().scale();
        let mut out =
            self.rescale(&self.cheb_recurse(coeffs, target_level, target_scale, &powers, rlk));
        out.scale = target_scale; // snap f64 round-off; exact by construction
        out
    }

    /// Builds `T_1` and the power-of-two giants up to the top split
    /// point, each with exact scale tracking.
    fn cheb_powers<'a>(
        &self,
        u: &'a Ciphertext,
        degree: usize,
        rlk: &SwitchingKey,
    ) -> ChebPowers<'a> {
        let top = split_point(degree.max(1));
        let mut powers = vec![Cow::Borrowed(u)];
        while 1 << powers.len() <= top {
            let half = powers.last().expect("T_1 is present");
            powers.push(Cow::Owned(self.cheb_double(half, rlk)));
        }
        ChebPowers { powers }
    }

    /// `T_{2k} = 2 T_k^2 - 1`: one level, exact scale bookkeeping.
    fn cheb_double(&self, t: &Ciphertext, rlk: &SwitchingKey) -> Ciphertext {
        let sq = self.mul(t, t, rlk);
        let doubled = self.add(&sq, &sq);
        self.add_const(&self.rescale(&doubled), -1.0)
    }

    /// The scale every term of a node's sum shares before its one
    /// rescale: `target_scale * q_{target_level + 1}`.
    fn pre_rescale_scale(&self, target_level: usize, target_scale: f64) -> f64 {
        let q_next = self
            .context()
            .level_basis(target_level + 1)
            .modulus(target_level + 1)
            .value() as f64;
        target_scale * q_next
    }

    /// Recursive split evaluation: returns the node's sum **before** its
    /// rescale, at exactly (`target_level + 1`,
    /// `target_scale * q_{target_level + 1}`), so the product and the
    /// remainder are added first and the caller rescales once.
    fn cheb_recurse(
        &self,
        coeffs: &[f64],
        target_level: usize,
        target_scale: f64,
        powers: &ChebPowers,
        rlk: &SwitchingKey,
    ) -> Ciphertext {
        let degree = coeffs.len() - 1;
        if degree < 2 {
            return self.cheb_base_case(coeffs, target_level, target_scale, powers);
        }
        let k = split_point(degree);
        let (q, r) = cheb_divide(coeffs, k);
        let pre_scale = self.pre_rescale_scale(target_level, target_scale);
        // q evaluated so that q_ct * T_k lands on the pre-rescale scale;
        // `mod_down_to` keeps the scale, so T_k's is read off the giant.
        let q_scale = pre_scale / powers.get(k).scale;
        // The truncated T_k and q's ciphertext live only until `prod` is
        // formed, not across either recursion: that bounds the live set.
        let prod = {
            let q_ct = self.rescale(&self.cheb_recurse(&q, target_level + 1, q_scale, powers, rlk));
            let tk = self.mod_down_to(powers.get(k), target_level + 1);
            self.mul(&q_ct, &tk, rlk)
        };
        let r_ct = self.cheb_recurse(&r, target_level, target_scale, powers, rlk);
        let mut out = self.add(&prod, &r_ct);
        out.scale = pre_scale; // snap f64 round-off; exact by construction
        out
    }

    /// Base case: `c_0 + c_1 T_1` at the pre-rescale scale, as one scalar
    /// multiply and one scalar add (no rescale; see [`Self::cheb_recurse`]).
    fn cheb_base_case(
        &self,
        coeffs: &[f64],
        target_level: usize,
        target_scale: f64,
        powers: &ChebPowers,
    ) -> Ciphertext {
        let pre_scale = self.pre_rescale_scale(target_level, target_scale);
        let c1 = coeffs.get(1).copied().unwrap_or(0.0);
        let t1 = self.mod_down_to(powers.get(1), target_level + 1);
        let mut out = self.mul_const(&t1, c1, pre_scale / t1.scale);
        debug_assert!((out.scale - pre_scale).abs() / pre_scale < 1e-9);
        out.scale = pre_scale; // snap f64 round-off; exact by construction
        self.add_const(&out, coeffs[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::CkksContext;
    use crate::encoding::Encoder;
    use crate::encryption::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn fit_reproduces_polynomial_exactly() {
        // Fitting a cubic with degree 3 is exact interpolation.
        let f = |x: f64| 1.0 - 2.0 * x + 0.5 * x.powi(3);
        let p = ChebyshevPoly::fit(f, -1.0, 1.0, 3);
        for i in 0..50 {
            let x = -1.0 + 2.0 * i as f64 / 49.0;
            assert!((p.eval(x) - f(x)).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn fit_sine_converges_geometrically() {
        let f = |x: f64| (2.0 * PI * x).sin();
        let lo = ChebyshevPoly::fit(f, -1.0, 1.0, 7).max_error(f, 200);
        let hi = ChebyshevPoly::fit(f, -1.0, 1.0, 23).max_error(f, 200);
        assert!(hi < 1e-10, "degree 23 error {hi}");
        assert!(lo > hi * 1e3, "no convergence: {lo} vs {hi}");
    }

    #[test]
    fn fit_on_shifted_interval() {
        let f = |x: f64| (x * 0.5).cos();
        let p = ChebyshevPoly::fit(f, 2.0, 10.0, 15);
        assert!(p.max_error(f, 100) < 1e-9);
    }

    #[test]
    fn trim_drops_negligible_tail() {
        let f = |x: f64| x * x;
        let p = ChebyshevPoly::fit(f, -1.0, 1.0, 20).trim(1e-9);
        assert!(p.degree() <= 4, "kept degree {}", p.degree());
        assert!(p.max_error(f, 100) < 1e-9);
    }

    #[test]
    fn clenshaw_matches_direct_chebyshev() {
        // T_0..T_4 evaluated directly vs Clenshaw.
        let coeffs = [0.3, -1.2, 0.7, 0.05, -0.4];
        for i in 0..21 {
            let u: f64 = -1.0 + 0.1 * i as f64;
            let t = [
                1.0,
                u,
                2.0 * u * u - 1.0,
                4.0 * u.powi(3) - 3.0 * u,
                8.0 * u.powi(4) - 8.0 * u * u + 1.0,
            ];
            let direct: f64 = coeffs.iter().zip(&t).map(|(c, tv)| c * tv).sum();
            assert!((clenshaw(&coeffs, u) - direct).abs() < 1e-12, "u={u}");
        }
    }

    #[test]
    fn divide_identity_holds() {
        // p(u) == q(u) * T_k(u) + r(u) numerically.
        let coeffs: Vec<f64> = (0..24)
            .map(|i| ((i * 7 + 3) % 11) as f64 / 11.0 - 0.4)
            .collect();
        let k = split_point(coeffs.len() - 1);
        assert_eq!(k, 16);
        let (q, r) = cheb_divide(&coeffs, k);
        for i in 0..41 {
            let u = -1.0 + 0.05 * i as f64;
            let tk = (k as f64 * u.acos()).cos();
            let got = clenshaw(&q, u) * tk + clenshaw(&r, u);
            let want = clenshaw(&coeffs, u);
            assert!((got - want).abs() < 1e-9, "u={u}: {got} vs {want}");
        }
    }

    #[test]
    fn depth_accounting() {
        assert_eq!(chebyshev_depth(1), 1);
        assert_eq!(chebyshev_depth(2), 2);
        assert_eq!(chebyshev_depth(3), 2);
        assert_eq!(chebyshev_depth(7), 3);
        assert_eq!(chebyshev_depth(15), 4);
        assert_eq!(chebyshev_depth(31), 5);
        assert_eq!(chebyshev_depth(63), 6);
    }

    #[allow(clippy::type_complexity)]
    fn cheb_fixture(
        levels: usize,
        seed: u64,
    ) -> (
        std::sync::Arc<CkksContext>,
        Encoder,
        Encryptor,
        Decryptor,
        Evaluator,
        crate::keys::KeySet,
        StdRng,
    ) {
        let params = CkksParams::new(1 << 10, levels, 40, 2).expect("valid");
        let ctx = CkksContext::new(params);
        let mut rng = StdRng::seed_from_u64(seed);
        let keys = KeyGenerator::new(ctx.clone()).key_set(&[], &mut rng);
        (
            ctx.clone(),
            Encoder::new(ctx.clone()),
            Encryptor::new(ctx.clone()),
            Decryptor::new(ctx.clone()),
            Evaluator::new(ctx),
            keys,
            rng,
        )
    }

    #[test]
    fn homomorphic_chebyshev_degree_seven() {
        let (ctx, enc, encryptor, dec, eval, keys, mut rng) = cheb_fixture(5, 411);
        let f = |x: f64| (1.5 * x).tanh();
        let p = ChebyshevPoly::fit(f, -1.0, 1.0, 7);
        let xs: Vec<f64> = (0..8).map(|_| rng.gen_range(-0.95..0.95)).collect();
        let l = ctx.params().max_level();
        let ct = encryptor.encrypt_sk(&enc.encode_real(&xs, l), &keys.secret, &mut rng);
        let out = eval.eval_chebyshev(&ct, &p.coeffs, &keys.relin);
        assert_eq!(out.level, l - chebyshev_depth(7));
        let back = dec.decrypt(&out, &keys.secret, &enc);
        for (i, &x) in xs.iter().enumerate() {
            let want = p.eval(x);
            assert!(
                (back[i].re - want).abs() < 1e-4,
                "slot {i} x={x}: {} vs {want}",
                back[i].re
            );
        }
    }

    #[test]
    fn homomorphic_chebyshev_degree_thirty_one() {
        let (ctx, enc, encryptor, dec, eval, keys, mut rng) = cheb_fixture(7, 412);
        // An oscillatory target needing genuinely high degree.
        let f = |x: f64| (3.0 * PI * x).cos();
        let p = ChebyshevPoly::fit(f, -1.0, 1.0, 31);
        assert!(p.max_error(f, 300) < 1e-8);
        let xs: Vec<f64> = (0..8).map(|_| rng.gen_range(-0.9..0.9)).collect();
        let l = ctx.params().max_level();
        let ct = encryptor.encrypt_sk(&enc.encode_real(&xs, l), &keys.secret, &mut rng);
        let out = eval.eval_chebyshev(&ct, &p.coeffs, &keys.relin);
        assert_eq!(out.level, l - chebyshev_depth(31));
        let back = dec.decrypt(&out, &keys.secret, &enc);
        for (i, &x) in xs.iter().enumerate() {
            assert!(
                (back[i].re - f(x)).abs() < 1e-3,
                "slot {i} x={x}: {} vs {}",
                back[i].re,
                f(x)
            );
        }
    }

    #[test]
    fn homomorphic_constant_and_linear() {
        let (ctx, enc, encryptor, dec, eval, keys, mut rng) = cheb_fixture(3, 413);
        let l = ctx.params().max_level();
        let xs = [0.25, -0.5, 0.75];
        let ct = encryptor.encrypt_sk(&enc.encode_real(&xs, l), &keys.secret, &mut rng);
        // p(u) = 0.3 - 0.6 u.
        let out = eval.eval_chebyshev(&ct, &[0.3, -0.6], &keys.relin);
        let back = dec.decrypt(&out, &keys.secret, &enc);
        for (i, &x) in xs.iter().enumerate() {
            let want = 0.3 - 0.6 * x;
            assert!((back[i].re - want).abs() < 1e-5, "slot {i}");
        }
    }

    #[test]
    fn homomorphic_output_scale_is_exact_default() {
        let (ctx, enc, encryptor, _dec, eval, keys, mut rng) = cheb_fixture(5, 414);
        let p = ChebyshevPoly::fit(|x| x * x, -1.0, 1.0, 7);
        let l = ctx.params().max_level();
        let ct = encryptor.encrypt_sk(&enc.encode_real(&[0.5], l), &keys.secret, &mut rng);
        let out = eval.eval_chebyshev(&ct, &p.coeffs, &keys.relin);
        let rel = (out.scale - ctx.params().scale()).abs() / ctx.params().scale();
        assert!(rel < 1e-9, "scale drifted: {}", out.scale);
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn insufficient_levels_rejected() {
        let (_ctx, enc, encryptor, _dec, eval, keys, mut rng) = cheb_fixture(3, 415);
        let ct = encryptor.encrypt_sk(&enc.encode_real(&[0.5], 3), &keys.secret, &mut rng);
        let coeffs = vec![0.1; 32]; // degree 31 needs 5 levels
        let _ = eval.eval_chebyshev(&ct, &coeffs, &keys.relin);
    }
}
