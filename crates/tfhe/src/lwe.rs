//! LWE ciphertexts, keys, keyswitching and modulus switching.
//!
//! The scalar side of TFHE: `(a, b)` with `b = <a, s> + m + e`. The
//! kernels here appear directly in the paper's Algorithm 2: `ModSwitch`
//! (line 1), `TFHE KeySwitch` (lines 16–17), plus `Decompose`. The
//! keyswitching key is one flat `(n_in * levels) x (n_out + 1)` word
//! matrix (per row the mask words, then the body) whose borrowed rows a
//! switch streams past one stationary `i64` accumulator per lane of the
//! process pool, each lane over its own contiguous range of rows. Its
//! words are as narrow as the modulus allows — `u32` under the paper's
//! 32-bit torus primes, `u64` above — since a switch streams the whole
//! key.

use fhe_math::pool::{self, WorkerPool};
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
    rows: KeyWords,
    n_in: usize,
    n_out: usize,
    base_log: u32,
    levels: usize,
}

/// The key matrix at the narrowest word that holds a residue of its
/// modulus — picked by [`LweKeySwitchKey::generate`] from `q`.
#[derive(Debug, Clone)]
enum KeyWords {
    /// `q <= u32::MAX`: the paper's 32-bit torus.
    Narrow(Vec<u32>),
    /// Wider moduli (the cross-scheme key under a CKKS prime).
    Wide(Vec<u64>),
}

impl LweKeySwitchKey {
    /// Generates a keyswitching key, stored as `u32` words when `q`
    /// fits one and as `u64` otherwise (the same values either way).
    ///
    /// # Panics
    ///
    /// Panics unless `base_log * levels <= bits(q)` — deeper digits
    /// carry no precision, and [`gadget_decompose`]'s rounded
    /// `x * B^levels / q` must fit a word — and unless
    /// `bits(q) + base_log + ceil_log2(n_in * levels) <= 62`: each
    /// `digit * word` product of [`Self::switch`] is below
    /// `2^(bits(q) + base_log - 1)`, so the unreduced sum of all rows
    /// plus the body stays inside an `i64`.
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
            base_log as usize * levels <= q.bits() as usize,
            "keyswitch gadget deeper than the modulus"
        );
        assert!(
            accumulation_bits(q, base_log, n_in * levels) <= 62,
            "keyswitch gadget too wide for exact i64 accumulation"
        );
        let rows = if q.value() <= u64::from(u32::MAX) {
            KeyWords::Narrow(encrypt_rows(q, from, to, base_log, levels, noise_std, rng))
        } else {
            KeyWords::Wide(encrypt_rows(q, from, to, base_log, levels, noise_std, rng))
        };
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
        match &self.rows {
            KeyWords::Narrow(w) => w.capacity() * std::mem::size_of::<u32>(),
            KeyWords::Wide(w) => w.capacity() * std::mem::size_of::<u64>(),
        }
    }

    /// Switches `ct` to the output key:
    /// `c'' = (0, b) - sum_i sum_j a''_i[j] * ksk[i][j]` (Alg. 2 line 17).
    ///
    /// One backend dispatch gadget-decomposes the whole mask; every
    /// non-zero digit then costs one fused `acc -= d * row` pass over
    /// its borrowed key row, widened on load, in exact `i64`, folded
    /// once to canonical residues — bit-identical to
    /// [`Self::switch_strict`].
    ///
    /// The switch is bound by streaming the key, so its `n_in * levels`
    /// rows are split into one contiguous range per lane of
    /// [`pool::shared`] ([`WorkerPool::run_partition`]), each at least a
    /// million key words: each lane folds its range into its own `i64`
    /// partial, and the caller adds the partials to the body.
    /// [`Self::generate`] asserts that the body plus *every* row's
    /// product fits an `i64`; a partial, and the body plus any prefix of
    /// the partials, sums a subset of those products, so each is exact
    /// too and the words do not depend on the split. A one-lane pool, or
    /// a key under two ranges' worth of words, folds the rows inline on
    /// the caller; called from inside a pool chunk (a chunk of
    /// [`crate::apply_gates_batched`]) the split nests, which the pool
    /// supports.
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
        let digit = |r: usize| digits[(r % levels) * n_in + r / levels];
        let acc = match &self.rows {
            KeyWords::Narrow(rows) => sub_digit_rows(ct.b, rows, n_out + 1, digit),
            KeyWords::Wide(rows) => sub_digit_rows(ct.b, rows, n_out + 1, digit),
        };
        let qv = q.value() as i64;
        let mut out: Vec<u64> = acc.iter().map(|&x| x.rem_euclid(qv) as u64).collect();
        let b = out.pop().expect("n_out + 1 words");
        LweCiphertext { a: out, b }
    }

    /// Strict-oracle keyswitch: per mask coefficient the scalar
    /// reference decomposition, per non-zero digit one key row widened
    /// on its own, scaled by `mul_small` and folded in by `add_assign` /
    /// `sub_assign`. The reference [`Self::switch`] is asserted against,
    /// with the same panic.
    pub fn switch_strict(&self, q: &Modulus, ct: &LweCiphertext) -> LweCiphertext {
        assert_eq!(ct.dim(), self.n_in, "input LWE dimension must equal n_in");
        let mut out = LweCiphertext::trivial(self.n_out, ct.b);
        for (i, &ai) in ct.a.iter().enumerate() {
            let digits = gadget_decompose(q.value(), ai, self.base_log, self.levels);
            for (j, &d) in digits.iter().enumerate() {
                if d == 0 {
                    continue;
                }
                let mut a = self.widened_row(i * self.levels + j);
                let b = a.pop().expect("n_out + 1 words");
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

    /// Row `r` of the key matrix (mask words, then the body) as `u64`.
    fn widened_row(&self, r: usize) -> Vec<u64> {
        let span = r * (self.n_out + 1)..(r + 1) * (self.n_out + 1);
        match &self.rows {
            KeyWords::Narrow(w) => w[span].iter().map(|&x| u64::from(x)).collect(),
            KeyWords::Wide(w) => w[span].to_vec(),
        }
    }
}

/// `bits(q) + base_log + ceil_log2(rows)`, an exclusive bound on the
/// bits of a body below `q` minus `rows` products `digit * word` with
/// `|digit| <= 2^(base_log - 1)` and `word < q`: the products sum below
/// `2^(bits(q) + base_log - 1 + ceil_log2(rows))`, the body adds less.
fn accumulation_bits(q: &Modulus, base_log: u32, rows: usize) -> u32 {
    q.bits() + base_log + rows.next_power_of_two().trailing_zeros()
}

/// Encrypts the `n_in * levels` gadget rows of a keyswitching key into
/// one flat matrix of `W` words, allocated once at its final size; row
/// by row the RNG draws are those of [`LweCiphertext::encrypt`].
fn encrypt_rows<W, R>(
    q: &Modulus,
    from: &LweSecretKey,
    to: &LweSecretKey,
    base_log: u32,
    levels: usize,
    noise_std: f64,
    rng: &mut R,
) -> Vec<W>
where
    W: Copy + Default + TryFrom<u64>,
    W::Error: std::fmt::Debug,
    R: Rng + ?Sized,
{
    let width = to.dim() + 1;
    let mut rows = vec![W::default(); from.dim() * levels * width];
    // One row encrypted at full width, then narrowed into the matrix:
    // measured faster to set up than encrypting into `W` words in place.
    let mut ct = vec![0u64; width];
    for (r, row) in rows.chunks_exact_mut(width).enumerate() {
        let g = gadget_element(q.value(), base_log, r % levels + 1);
        let msg = q.mul(q.from_i64(from.s[r / levels]), g);
        let (a, b) = ct.split_at_mut(width - 1);
        b[0] = LweCiphertext::encrypt_into(q, to, msg, noise_std, rng, a);
        for (w, &x) in row.iter_mut().zip(&ct) {
            *w = W::try_from(x).expect("a residue of q fits the key word");
        }
    }
    rows
}

/// Key words each lane of a split switch streams at least: about 0.8 ms
/// of the Set-I key on one lane, against 20–40 µs for the dispatch
/// (both timed on a 2-lane host; wider hosts split at the same grain,
/// untimed). A smaller switch runs inline on the caller.
const SPLIT_MIN_WORDS: usize = 1 << 20;

/// The accumulation of [`LweKeySwitchKey::switch`]: `body` minus
/// `digit(r) * row_r` for every `width`-word row `r` of `rows` with a
/// non-zero digit, unreduced — exact under the
/// [`LweKeySwitchKey::generate`] bound. The body is the last word. The
/// rows are folded on [`pool::shared`].
fn sub_digit_rows<W: Copy + Into<u64> + Sync>(
    body: u64,
    rows: &[W],
    width: usize,
    digit: impl Fn(usize) -> i64 + Sync,
) -> Vec<i64> {
    sub_digit_rows_on(pool::shared(), body, rows, width, digit)
}

/// [`sub_digit_rows`] on `pool`: one contiguous range of rows per lane
/// ([`WorkerPool::run_partition`], at least [`SPLIT_MIN_WORDS`] words a
/// range), each folded into its own `i64` partial, zero digits skipped;
/// the partials are then added to the body.
fn sub_digit_rows_on<W: Copy + Into<u64> + Sync>(
    pool: &WorkerPool,
    body: u64,
    rows: &[W],
    width: usize,
    digit: impl Fn(usize) -> i64 + Sync,
) -> Vec<i64> {
    let min_rows = SPLIT_MIN_WORDS.div_ceil(width);
    let partials = pool.run_partition(rows.len() / width, min_rows, |range| {
        let mut acc = vec![0i64; width];
        let lane_rows = rows[range.start * width..range.end * width].chunks_exact(width);
        for (r, row) in range.zip(lane_rows) {
            let d = digit(r);
            if d == 0 {
                continue;
            }
            for (x, &w) in acc.iter_mut().zip(row) {
                *x -= w.into() as i64 * d;
            }
        }
        acc
    });
    let mut acc = vec![0i64; width];
    acc[width - 1] = body as i64;
    for partial in partials {
        for (x, p) in acc.iter_mut().zip(partial) {
            *x += p;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl LweKeySwitchKey {
        /// The key matrix in row order, widened to `u64`, for the
        /// key-layout tests in `bootstrap`.
        pub(crate) fn words(&self) -> impl Iterator<Item = u64> + '_ {
            (0..self.n_in * self.levels).flat_map(|r| self.widened_row(r))
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

    /// At the Set-III extracted switch's shape (`k * N * lk` rows of
    /// `n_lwe + 1` words) a two-lane pool folds the rows as exactly two
    /// jobs and a one-lane pool inline, to the same words; a switch
    /// under two ranges' worth of words stays inline on both.
    #[test]
    fn switch_rows_split_once_per_lane_above_the_grain() {
        let p = crate::TfheParams::set_iii();
        let (q, width) = (q32().value(), p.n_lwe + 1);
        let rows_at = |n_rows: usize| -> Vec<u32> {
            (0..n_rows * width)
                .map(|i| ((i as u64).wrapping_mul(0x9e37_79b9) % q) as u32)
                .collect()
        };
        let digit = |r: usize| (r % 5) as i64 - 2;
        for (n_rows, split) in [(p.k * p.n * p.lk, true), (SPLIT_MIN_WORDS / width, false)] {
            let rows = rows_at(n_rows);
            let (one, two) = (WorkerPool::new(1), WorkerPool::new(2));
            let inline = sub_digit_rows_on(&one, q - 1, &rows, width, digit);
            let halves = sub_digit_rows_on(&two, q - 1, &rows, width, digit);
            assert_eq!(halves, inline, "{n_rows} rows");
            assert_eq!(one.parallel_jobs_dispatched(), 0, "{n_rows} rows");
            // A thread-starved host may have built a one-lane `two`.
            let jobs = if split && two.threads() == 2 { 2 } else { 0 };
            assert_eq!(two.parallel_jobs_dispatched(), jobs, "{n_rows} rows");
        }
    }

    /// Two switches run as the two jobs of one `map_chunks` — the
    /// nesting a gate batch split over the pool creates — give
    /// the words of the same two switches on the caller.
    #[test]
    fn switches_inside_pool_chunks_match_switches_on_the_caller() {
        let mut rng = StdRng::seed_from_u64(91);
        let (q, n_in, n_out, base_log, levels) = switch_shapes().swap_remove(0);
        let sk_in = LweSecretKey::generate(n_in, &mut rng);
        let sk_out = LweSecretKey::generate(n_out, &mut rng);
        let ksk = LweKeySwitchKey::generate(&q, &sk_in, &sk_out, base_log, levels, 1e-9, &mut rng);
        let cts: Vec<LweCiphertext> = [1, 3]
            .map(|m| LweCiphertext::encrypt(&q, &sk_in, m * (q.value() / 8), 1e-7, &mut rng))
            .into();
        let words = |ct: &LweCiphertext| {
            let out = ksk.switch(&q, ct);
            (out.a, out.b)
        };
        let nested = pool::shared().map_chunks(&cts, |chunk| chunk.iter().map(words).collect());
        let inline: Vec<_> = cts.iter().map(words).collect();
        assert_eq!(nested, inline);
    }

    /// The accumulation at exactly the bound `generate` asserts: every
    /// word `q - 1` times the most negative digit over `2^20` rows, for
    /// a 40-bit (wide) and a 32-bit (narrow) modulus, equals its `i128`
    /// recomputation word for word — no `i64` wrap.
    #[test]
    fn accumulation_is_exact_at_the_asserted_bound() {
        const ROWS: usize = 1 << 20;
        let q40 = Modulus::new(fhe_math::prime::prime_near(1 << 40, 1024)).unwrap();
        for (modulus, base_log) in [(q40, 2u32), (q32(), 10)] {
            assert_eq!(accumulation_bits(&modulus, base_log, ROWS), 62);
            let q = modulus.value();
            let d = -(1i64 << (base_log - 1));
            let want = |body: u64| body as i128 - ROWS as i128 * d as i128 * (q - 1) as i128;
            let got = if q <= u64::from(u32::MAX) {
                sub_digit_rows(q - 1, &vec![(q - 1) as u32; 2 * ROWS], 2, |_| d)
            } else {
                sub_digit_rows(q - 1, &vec![q - 1; 2 * ROWS], 2, |_| d)
            };
            let got: Vec<i128> = got.into_iter().map(i128::from).collect();
            assert_eq!(got, [want(0), want(q - 1)], "q {q}");
        }
    }

    /// The key words are as narrow as the modulus: the paper's Set-I
    /// key at 4 bytes a word, the ~45-bit cross-scheme shape at 8, each
    /// allocated at exactly its final size.
    #[test]
    fn heap_bytes_count_one_word_width_per_modulus() {
        let mut rng = StdRng::seed_from_u64(87);
        let shapes = switch_shapes();
        for ((q, n_in, n_out, base_log, levels), word) in [(&shapes[0], 4), (&shapes[3], 8)] {
            let sk_in = LweSecretKey::generate(*n_in, &mut rng);
            let sk_out = LweSecretKey::generate(*n_out, &mut rng);
            let ksk =
                LweKeySwitchKey::generate(q, &sk_in, &sk_out, *base_log, *levels, 1e-9, &mut rng);
            let words = n_in * levels * (n_out + 1);
            assert_eq!(ksk.words().count(), words);
            assert_eq!(ksk.heap_bytes(), words * word, "q {}", q.value());
        }
    }

    /// A gadget deeper than the modulus used to pass `base_log <= 32`
    /// and silently truncate the decomposition's `x * B^levels / q`.
    #[test]
    #[should_panic(expected = "keyswitch gadget deeper than the modulus")]
    fn generate_rejects_a_gadget_deeper_than_the_modulus() {
        let mut rng = StdRng::seed_from_u64(88);
        let sk = LweSecretKey::generate(4, &mut rng);
        LweKeySwitchKey::generate(&q32(), &sk, &sk, 16, 3, 1e-7, &mut rng);
    }

    /// One row past the `i64` bound: a 32-bit modulus, base `2^10` and
    /// `2^20 + 1` rows need 63 bits.
    #[test]
    #[should_panic(expected = "keyswitch gadget too wide for exact i64 accumulation")]
    fn generate_rejects_a_gadget_past_the_i64_bound() {
        let mut rng = StdRng::seed_from_u64(89);
        let from = LweSecretKey::from_coeffs(vec![0; (1 << 20) + 1]);
        let to = LweSecretKey::generate(1, &mut rng);
        LweKeySwitchKey::generate(&q32(), &from, &to, 10, 1, 1e-7, &mut rng);
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
