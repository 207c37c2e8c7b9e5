//! LWE ciphertexts, keys, keyswitching and modulus switching.
//!
//! The scalar side of TFHE: `(a, b)` with `b = <a, s> + m + e`. The
//! kernels here appear directly in the paper's Algorithm 2: `ModSwitch`
//! (line 1), `TFHE KeySwitch` (lines 16–17), plus `Decompose`. The
//! keyswitching key is one flat `(n_in * levels) x (n_out + 1)` word
//! matrix (per row the mask words, then the body) whose borrowed rows a
//! switch streams past one stationary accumulator.

use fhe_math::{kernel, Modulus};
use rand::Rng;

/// An LWE secret key. TFHE proper uses binary coefficients; the
/// scheme-conversion layer also produces ternary keys (extracted from
/// CKKS secrets), which every operation here supports.
#[derive(Debug, Clone)]
pub struct LweSecretKey {
    /// Secret coefficients in {-1, 0, 1}.
    pub s: Vec<i64>,
}

impl LweSecretKey {
    /// Samples a binary secret of dimension `n`.
    pub fn generate<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Self {
            s: fhe_math::sampler::binary(rng, n),
        }
    }

    /// Wraps explicit small signed coefficients.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is outside `{-1, 0, 1}`.
    pub fn from_coeffs(s: Vec<i64>) -> Self {
        assert!(s.iter().all(|&c| (-1..=1).contains(&c)));
        Self { s }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.s.len()
    }
}

/// An LWE ciphertext `(a, b)` modulo a word-size prime.
#[derive(Debug, Clone)]
pub struct LweCiphertext {
    /// Mask.
    pub a: Vec<u64>,
    /// Body `b = <a, s> + m + e`.
    pub b: u64,
}

impl LweCiphertext {
    /// The trivial (noiseless, maskless) encryption of `m`.
    pub fn trivial(n: usize, m: u64) -> Self {
        Self {
            a: vec![0; n],
            b: m,
        }
    }

    /// Dimension of the mask.
    pub fn dim(&self) -> usize {
        self.a.len()
    }

    /// Encrypts `message` (already encoded as a torus point in `[0, q)`).
    pub fn encrypt<R: Rng + ?Sized>(
        q: &Modulus,
        sk: &LweSecretKey,
        message: u64,
        noise_std: f64,
        rng: &mut R,
    ) -> Self {
        let mut a = vec![0u64; sk.dim()];
        let b = Self::encrypt_into(q, sk, message, noise_std, rng, &mut a);
        Self { a, b }
    }

    /// [`Self::encrypt`] in place: fills `a` with the fresh mask (the
    /// same draws, in the same order) and returns the body.
    fn encrypt_into<R: Rng + ?Sized>(
        q: &Modulus,
        sk: &LweSecretKey,
        message: u64,
        noise_std: f64,
        rng: &mut R,
        a: &mut [u64],
    ) -> u64 {
        assert_eq!(a.len(), sk.dim(), "key dimension mismatch");
        a.fill_with(|| rng.gen_range(0..q.value()));
        let e = sample_noise(q, noise_std, rng);
        let mut b = q.add(q.reduce(message), e);
        for (ai, &si) in a.iter().zip(&sk.s) {
            match si {
                1 => b = q.add(b, *ai),
                -1 => b = q.sub(b, *ai),
                _ => {}
            }
        }
        b
    }

    /// Decrypts to the raw phase `b - <a, s>` (message plus noise).
    pub fn phase(&self, q: &Modulus, sk: &LweSecretKey) -> u64 {
        assert_eq!(self.dim(), sk.dim(), "key dimension mismatch");
        let mut acc = self.b;
        for (ai, &si) in self.a.iter().zip(&sk.s) {
            match si {
                1 => acc = q.sub(acc, *ai),
                -1 => acc = q.add(acc, *ai),
                _ => {}
            }
        }
        acc
    }

    /// `self += other` (homomorphic addition).
    pub fn add_assign(&mut self, q: &Modulus, other: &LweCiphertext) {
        assert_eq!(self.dim(), other.dim());
        for (x, &y) in self.a.iter_mut().zip(&other.a) {
            *x = q.add(*x, y);
        }
        self.b = q.add(self.b, other.b);
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, q: &Modulus, other: &LweCiphertext) {
        assert_eq!(self.dim(), other.dim());
        for (x, &y) in self.a.iter_mut().zip(&other.a) {
            *x = q.sub(*x, y);
        }
        self.b = q.sub(self.b, other.b);
    }

    /// Negates the ciphertext.
    pub fn neg_assign(&mut self, q: &Modulus) {
        for x in self.a.iter_mut() {
            *x = q.neg(*x);
        }
        self.b = q.neg(self.b);
    }

    /// Multiplies by a small integer constant.
    pub fn mul_small(&mut self, q: &Modulus, c: u64) {
        let c = q.reduce(c);
        for x in self.a.iter_mut() {
            *x = q.mul(*x, c);
        }
        self.b = q.mul(self.b, c);
    }

    /// ModSwitch: rounds every component from modulus `q` to modulus
    /// `to`, `round(x * to / q) mod to` — `to = 2N` is Algorithm 2
    /// line 1 (`(a_tilde, b_tilde)` in `[0, 2N)`), `to` the other
    /// scheme's prime is the conversion layer's `lwe_mod_switch`.
    pub fn mod_switch(&self, q: &Modulus, to: u64) -> (Vec<u64>, u64) {
        let switch = |x: u64| -> u64 {
            let prod = x as u128 * to as u128;
            let rounded = (prod + q.value() as u128 / 2) / q.value() as u128;
            (rounded % to as u128) as u64
        };
        (self.a.iter().map(|&x| switch(x)).collect(), switch(self.b))
    }
}

/// Samples a discrete Gaussian noise term with standard deviation
/// `noise_std * q` reduced into the modulus.
pub fn sample_noise<R: Rng + ?Sized>(q: &Modulus, noise_std: f64, rng: &mut R) -> u64 {
    let sigma_abs = noise_std * q.value() as f64;
    let e = fhe_math::sampler::gaussian(rng, 1, sigma_abs.max(1e-9))[0];
    q.from_i64(e)
}

/// Approximate gadget decomposition for a non-power-of-two modulus:
/// digits `d_j ∈ [-B/2, B/2)` such that `sum_j d_j * round(q / B^j) ≈ x`.
///
/// Implemented by mapping `x` to its closest multiple of `q / B^levels`
/// and balanced-decomposing in base `B` (the approximate decomposition
/// of the TFHE line of work, valid for any `q` — the enabling detail of
/// the paper's FFT→NTT substitution).
pub fn gadget_decompose(q: u64, x: u64, base_log: u32, levels: usize) -> Vec<i64> {
    // One-coefficient delegation to the shared scalar reference in
    // fhe-math — there is exactly one decomposition kernel in the tree,
    // and the batched backends are asserted bit-identical to it.
    let mut digits = vec![0i64; levels];
    fhe_math::kernel::gadget_decompose_rows(q, base_log, levels, 1, &[x], &mut digits);
    digits
}

/// The gadget element `g_j = round(q / B^j)` for `j = 1..=levels`.
pub fn gadget_element(q: u64, base_log: u32, j: usize) -> u64 {
    let bj = 1u128 << (base_log as usize * j);
    ((q as u128 + bj / 2) / bj) as u64
}

/// An LWE keyswitching key from dimension `n_in` to `n_out`:
/// `ksk[i][j]` encrypts `s_in[i] * g_j` under `s_out` (paper Table I),
/// stored as row `i * levels + (j - 1)` of one flat matrix (module docs).
#[derive(Debug, Clone)]
pub struct LweKeySwitchKey {
    rows: Vec<u64>,
    n_in: usize,
    n_out: usize,
    base_log: u32,
    levels: usize,
}

impl LweKeySwitchKey {
    /// Generates a keyswitching key.
    ///
    /// # Panics
    ///
    /// Panics if `base_log > 32` or the key has `2^31` rows or more:
    /// [`Self::switch`] sums the `digit * word` products, each below
    /// `2^95`, unreduced in an `i128`.
    pub fn generate<R: Rng + ?Sized>(
        q: &Modulus,
        from: &LweSecretKey,
        to: &LweSecretKey,
        base_log: u32,
        levels: usize,
        noise_std: f64,
        rng: &mut R,
    ) -> Self {
        let (n_in, n_out) = (from.dim(), to.dim());
        assert!(
            base_log <= 32 && n_in * levels < 1 << 31,
            "keyswitch gadget too wide for exact accumulation"
        );
        // Allocated once at its final size; every row is written in place.
        let mut rows = vec![0u64; n_in * levels * (n_out + 1)];
        for (r, row) in rows.chunks_exact_mut(n_out + 1).enumerate() {
            let g = gadget_element(q.value(), base_log, r % levels + 1);
            let msg = q.mul(q.from_i64(from.s[r / levels]), g);
            let (a, b) = row.split_at_mut(n_out);
            b[0] = LweCiphertext::encrypt_into(q, to, msg, noise_std, rng, a);
        }
        Self {
            rows,
            n_in,
            n_out,
            base_log,
            levels,
        }
    }

    /// Measured heap bytes of the key matrix (allocated capacity) — one
    /// summand of [`crate::ServerKey::key_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u64>()
    }

    /// Switches `ct` to the output key:
    /// `c'' = (0, b) - sum_i sum_j a''_i[j] * ksk[i][j]` (Alg. 2 line 17).
    ///
    /// One backend dispatch gadget-decomposes the whole mask; every
    /// non-zero digit then costs one fused `acc -= d * row` pass over
    /// its borrowed key row in exact wide integers ([`Self::generate`]
    /// asserts the bound that keeps them inside `i128`), folded once to
    /// canonical residues — bit-identical to [`Self::switch_strict`].
    ///
    /// # Panics
    ///
    /// Panics if `ct.dim()` differs from the key's `n_in`.
    pub fn switch(&self, q: &Modulus, ct: &LweCiphertext) -> LweCiphertext {
        let (n_in, n_out, base_log, levels) = (self.n_in, self.n_out, self.base_log, self.levels);
        assert_eq!(ct.dim(), n_in, "input LWE dimension must equal n_in");
        // One row of `n_in` coefficients: digit `j` of `a_i` lands at
        // `digits[j * n_in + i]`.
        let mut digits = vec![0i64; n_in * levels];
        kernel::active().decompose_batch(q.value(), base_log, levels, n_in, &ct.a, &mut digits);
        let mut acc = vec![0i128; n_out + 1];
        acc[n_out] = ct.b as i128;
        for (r, row) in self.rows.chunks_exact(n_out + 1).enumerate() {
            let d = digits[(r % levels) * n_in + r / levels] as i128;
            if d == 0 {
                continue;
            }
            for (x, &w) in acc.iter_mut().zip(row) {
                *x -= w as i128 * d;
            }
        }
        let qv = q.value() as i128;
        let mut out: Vec<u64> = acc.iter().map(|&x| x.rem_euclid(qv) as u64).collect();
        let b = out.pop().expect("n_out + 1 words");
        LweCiphertext { a: out, b }
    }

    /// Strict-oracle keyswitch: per mask coefficient the scalar
    /// reference decomposition, per non-zero digit a cloned key row
    /// scaled by `mul_small` and folded in by `add_assign` /
    /// `sub_assign`. The reference [`Self::switch`] is asserted against,
    /// with the same panic.
    pub fn switch_strict(&self, q: &Modulus, ct: &LweCiphertext) -> LweCiphertext {
        assert_eq!(ct.dim(), self.n_in, "input LWE dimension must equal n_in");
        let n = self.n_out;
        let mut out = LweCiphertext::trivial(n, ct.b);
        let mut rows = self.rows.chunks_exact(n + 1);
        for &ai in &ct.a {
            let digits = gadget_decompose(q.value(), ai, self.base_log, self.levels);
            for (&d, row) in digits.iter().zip(rows.by_ref()) {
                if d == 0 {
                    continue;
                }
                let (a, b) = (row[..n].to_vec(), row[n]);
                let mut term = LweCiphertext { a, b };
                term.mul_small(q, d.unsigned_abs());
                if d < 0 {
                    out.add_assign(q, &term);
                } else {
                    out.sub_assign(q, &term);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl LweKeySwitchKey {
        /// The key matrix, for the key-layout tests in `bootstrap`.
        pub(crate) fn words(&self) -> &Vec<u64> {
            &self.rows
        }
    }

    fn q32() -> Modulus {
        Modulus::new(fhe_math::prime::prime_near(1 << 32, 1024)).unwrap()
    }

    #[test]
    fn encrypt_decrypt_phase() {
        let q = q32();
        let mut rng = StdRng::seed_from_u64(81);
        let sk = LweSecretKey::generate(500, &mut rng);
        let msg = q.value() / 8;
        let ct = LweCiphertext::encrypt(&q, &sk, msg, 2.44e-5, &mut rng);
        let phase = ct.phase(&q, &sk);
        let err = q.to_centered(q.sub(phase, msg)).abs();
        assert!(err < (q.value() / 64) as i64, "noise too large: {err}");
    }

    /// `ModSwitch` to `2N` against the parent's closure, on the words
    /// around each rounding boundary `(2k + 1) q / 4N`, the ends of the
    /// range, and the top words that round up to `2N` and wrap to 0.
    #[test]
    fn mod_switch_is_bit_identical_to_the_reference_at_the_rounding_boundary() {
        let q = q32();
        let two_n = 2048u64;
        let reference = |x: u64| -> u64 {
            let prod = x as u128 * two_n as u128;
            let rounded = (prod + q.value() as u128 / 2) / q.value() as u128;
            (rounded % two_n as u128) as u64
        };
        let mut words = vec![0, 1, q.value() / 2, q.value() / 2 + 1, q.value() - 1];
        for k in [0u128, 1, 1023, 1024, 2047] {
            let edge = ((2 * k + 1) * q.value() as u128 / (2 * two_n as u128)) as u64;
            words.extend([edge - 1, edge, edge + 1]);
        }
        for (i, &b) in words.iter().enumerate() {
            let mut a = words.clone();
            a.rotate_left(i);
            let (a_tilde, b_tilde) = LweCiphertext { a: a.clone(), b }.mod_switch(&q, two_n);
            let want: Vec<u64> = a.iter().map(|&x| reference(x)).collect();
            assert_eq!((a_tilde, b_tilde), (want, reference(b)), "body {b}");
        }
        let wrapped = LweCiphertext::trivial(1, q.value() - 1).mod_switch(&q, two_n);
        assert_eq!(wrapped.1, 0, "the top word rounds to 2N and wraps");
    }

    #[test]
    fn homomorphic_linear_ops() {
        let q = q32();
        let mut rng = StdRng::seed_from_u64(82);
        let sk = LweSecretKey::generate(500, &mut rng);
        let m1 = q.value() / 8;
        let m2 = q.value() / 4;
        let c1 = LweCiphertext::encrypt(&q, &sk, m1, 1e-7, &mut rng);
        let c2 = LweCiphertext::encrypt(&q, &sk, m2, 1e-7, &mut rng);
        let mut sum = c1.clone();
        sum.add_assign(&q, &c2);
        let phase = sum.phase(&q, &sk);
        let expect = q.add(m1, m2);
        assert!(q.to_centered(q.sub(phase, expect)).abs() < 1 << 20);

        let mut diff = c2.clone();
        diff.sub_assign(&q, &c1);
        let phase = diff.phase(&q, &sk);
        assert!(q.to_centered(q.sub(phase, q.sub(m2, m1))).abs() < 1 << 20);
    }

    #[test]
    fn gadget_decomposition_reconstructs() {
        let q = q32().value();
        for (base_log, levels) in [(10u32, 2usize), (7, 3), (8, 3), (2, 8)] {
            let tail = q >> (base_log as usize * levels).min(40) as u32;
            for x in [0u64, 1, q / 2, q - 1, 123456789, q / 3] {
                let digits = gadget_decompose(q, x, base_log, levels);
                assert!(digits
                    .iter()
                    .all(|&d| d >= -(1i64 << (base_log - 1)) && d <= (1i64 << (base_log - 1))));
                // Reconstruct sum d_j g_j mod q and compare to x.
                let m = Modulus::new(q).unwrap();
                let mut acc = 0u64;
                for (j, &d) in digits.iter().enumerate() {
                    let g = gadget_element(q, base_log, j + 1);
                    let term = m.mul(m.reduce(d.unsigned_abs()), g);
                    acc = if d >= 0 {
                        m.add(acc, term)
                    } else {
                        m.sub(acc, term)
                    };
                }
                let err = m.to_centered(m.sub(acc, x)).abs();
                let bound = (tail / 2 + (levels as u64) * (1 << base_log)) as i64 + 2;
                assert!(
                    err <= bound,
                    "base 2^{base_log} levels {levels} x={x}: err {err} > {bound}"
                );
            }
        }
    }

    #[test]
    fn mod_switch_rounds() {
        let q = q32();
        let two_n = 2048u64;
        let ct = LweCiphertext {
            a: vec![0, q.value() / 2, q.value() - 1],
            b: q.value() / 4,
        };
        let (a, b) = ct.mod_switch(&q, two_n);
        assert_eq!(a[0], 0);
        assert_eq!(a[1], two_n / 2);
        assert_eq!(a[2], 0); // rounds up to 2N then wraps
        assert_eq!(b, two_n / 4);
    }

    #[test]
    fn keyswitch_preserves_message() {
        let q = q32();
        let mut rng = StdRng::seed_from_u64(83);
        let sk_in = LweSecretKey::generate(1024, &mut rng);
        let sk_out = LweSecretKey::generate(500, &mut rng);
        let ksk = LweKeySwitchKey::generate(&q, &sk_in, &sk_out, 2, 8, 2.44e-5, &mut rng);
        let msg = 3 * (q.value() / 8);
        let ct = LweCiphertext::encrypt(&q, &sk_in, msg, 1e-7, &mut rng);
        let switched = ksk.switch(&q, &ct);
        assert_eq!(switched.dim(), 500);
        let phase = switched.phase(&q, &sk_out);
        let err = q.to_centered(q.sub(phase, msg)).abs();
        assert!(err < (q.value() / 32) as i64, "keyswitch error {err}");
    }

    /// `(q, n_in, n_out, base_log, levels)` of the paper's Sets I–III
    /// keyswitch and of the cross-scheme shape (a ~45-bit CKKS prime,
    /// fine base, many levels; dimensions shrunk — the gadget and the
    /// modulus are what differ).
    fn switch_shapes() -> Vec<(Modulus, usize, usize, u32, usize)> {
        let mut shapes: Vec<_> = [
            crate::TfheParams::set_i(),
            crate::TfheParams::set_ii(),
            crate::TfheParams::set_iii(),
        ]
        .iter()
        .map(|p| {
            let q = Modulus::new(fhe_math::prime::prime_near(1 << p.q_bits, p.n)).unwrap();
            (q, p.k * p.n, p.n_lwe, p.ks_base_log, p.lk)
        })
        .collect();
        let q45 = Modulus::new(fhe_math::prime::prime_near(1 << 45, 1024)).unwrap();
        shapes.push((q45, 256, 128, 2, 16));
        shapes
    }

    #[test]
    fn switch_is_bit_identical_to_switch_strict() {
        let mut rng = StdRng::seed_from_u64(84);
        for (q, n_in, n_out, base_log, levels) in switch_shapes() {
            // Ternary input key: the conversion layer's extracted CKKS
            // secrets carry -1 coefficients.
            let sk_in = LweSecretKey::from_coeffs(fhe_math::sampler::ternary(&mut rng, n_in, None));
            let sk_out = LweSecretKey::generate(n_out, &mut rng);
            let ksk =
                LweKeySwitchKey::generate(&q, &sk_in, &sk_out, base_log, levels, 1e-9, &mut rng);
            let random = LweCiphertext::encrypt(&q, &sk_in, q.value() / 8, 1e-7, &mut rng);
            // Every digit of a zero mask is zero: no key row is touched.
            let zero_mask = LweCiphertext::trivial(n_in, q.value() / 4);
            // Residues that round to zero digits beside ones that do not.
            let mut sparse = LweCiphertext::trivial(n_in, 1);
            sparse.a[0] = 1;
            sparse.a[n_in / 2] = q.value() - 1;
            sparse.a[n_in - 1] = q.value() / 2;
            for ct in [&random, &zero_mask, &sparse] {
                let got = ksk.switch(&q, ct);
                let want = ksk.switch_strict(&q, ct);
                assert_eq!(got.a, want.a, "q {} levels {levels}", q.value());
                assert_eq!(got.b, want.b, "q {} levels {levels}", q.value());
                assert_eq!(got.a.len(), n_out);
            }
            let switched = ksk.switch(&q, &zero_mask);
            assert!(switched.a.iter().all(|&w| w == 0) && switched.b == q.value() / 4);
        }
    }

    fn short_key() -> (Modulus, LweKeySwitchKey) {
        let q = q32();
        let mut rng = StdRng::seed_from_u64(85);
        let sk_in = LweSecretKey::generate(16, &mut rng);
        let sk_out = LweSecretKey::generate(8, &mut rng);
        let ksk = LweKeySwitchKey::generate(&q, &sk_in, &sk_out, 2, 8, 1e-7, &mut rng);
        (q, ksk)
    }

    /// A longer ciphertext used to index past the key, a shorter one
    /// silently dropped mask terms.
    #[test]
    #[should_panic(expected = "input LWE dimension must equal n_in")]
    fn switch_rejects_wrong_input_dimension() {
        let (q, ksk) = short_key();
        ksk.switch(&q, &LweCiphertext::trivial(15, 0));
    }

    #[test]
    #[should_panic(expected = "input LWE dimension must equal n_in")]
    fn switch_strict_rejects_wrong_input_dimension() {
        let (q, ksk) = short_key();
        ksk.switch_strict(&q, &LweCiphertext::trivial(17, 0));
    }

    /// An empty key (no input coefficients) switches the empty
    /// ciphertext instead of panicking on `rows[0][0]`.
    #[test]
    fn empty_key_switches_the_empty_ciphertext() {
        let q = q32();
        let mut rng = StdRng::seed_from_u64(86);
        let none = LweSecretKey::from_coeffs(Vec::new());
        let ksk = LweKeySwitchKey::generate(&q, &none, &none, 2, 8, 1e-7, &mut rng);
        assert_eq!(ksk.heap_bytes(), 0);
        let out = ksk.switch(&q, &LweCiphertext::trivial(0, 7));
        assert_eq!((out.dim(), out.b), (0, 7));
    }
}
