//! GLWE ciphertexts and sample extraction.
//!
//! A GLWE ciphertext is `(A_1(X), .., A_k(X), B(X))` with
//! `B = sum A_i S_i + M + E` over the negacyclic ring (paper §II-B),
//! stored as one flat `(k + 1) * n`-word buffer with stride `n` — the
//! `k` mask components first, the body last (§IV-B scratchpad rows).
//! `SampleExtract` (Algorithm 2 line 14, and the whole of the CKKS→TFHE
//! conversion, Algorithm 3) reads one message coefficient out as an LWE
//! ciphertext under the flattened key.

use rand::Rng;

use crate::lwe::{LweCiphertext, LweSecretKey};
use crate::ring::TfheRing;

/// A GLWE secret key: `k` binary polynomials.
#[derive(Debug, Clone)]
pub struct GlweSecretKey {
    /// Secret polynomials (signed coefficients, binary).
    pub polys: Vec<Vec<i64>>,
}

impl GlweSecretKey {
    /// Samples a binary GLWE secret of dimension `k` over degree `n`.
    pub fn generate<R: Rng + ?Sized>(k: usize, n: usize, rng: &mut R) -> Self {
        Self {
            polys: (0..k).map(|_| fhe_math::sampler::binary(rng, n)).collect(),
        }
    }

    /// GLWE dimension `k`.
    pub fn k(&self) -> usize {
        self.polys.len()
    }

    /// Flattens into the extracted LWE key of dimension `k * N`
    /// (the key `SampleExtract` outputs live under).
    pub fn extracted_lwe_key(&self) -> LweSecretKey {
        LweSecretKey {
            s: self.polys.concat(),
        }
    }
}

/// A GLWE ciphertext: `k` mask polynomials plus a body (flat; module docs).
#[derive(Debug, Clone)]
pub struct GlweCiphertext {
    words: Vec<u64>,
    n: usize,
}

impl GlweCiphertext {
    /// The trivial encryption of a plaintext polynomial.
    pub fn trivial(ring: &TfheRing, k: usize, message: Vec<u64>) -> Self {
        assert_eq!(message.len(), ring.n());
        let mut ct = Self::zero(ring, k);
        ct.words[k * ring.n()..].copy_from_slice(&message);
        ct
    }

    /// The all-zero ciphertext.
    pub fn zero(ring: &TfheRing, k: usize) -> Self {
        Self {
            words: vec![0u64; (k + 1) * ring.n()],
            n: ring.n(),
        }
    }

    /// Encrypts a plaintext polynomial (torus-encoded coefficients).
    pub fn encrypt<R: Rng + ?Sized>(
        ring: &TfheRing,
        sk: &GlweSecretKey,
        message: &[u64],
        noise_std: f64,
        rng: &mut R,
    ) -> Self {
        let n = ring.n();
        assert_eq!(message.len(), n);
        let q = ring.modulus();
        let mut ct = Self::zero(ring, sk.k());
        let (mask, body) = ct.words.split_at_mut(sk.k() * n);
        mask.fill_with(|| rng.gen_range(0..q.value()));
        let sigma_abs = (noise_std * q.value() as f64).max(1e-9);
        let noise = fhe_math::sampler::gaussian(rng, n, sigma_abs);
        for ((b, &e), &m) in body.iter_mut().zip(&noise).zip(message) {
            *b = q.add(q.from_i64(e), m);
        }
        // body += sum mask_i * s_i (negacyclic product via NTT).
        for (a, s) in mask.chunks_exact(n).zip(&sk.polys) {
            let s_lifted = ring.poly_from_signed(s);
            let prod = ring.table().negacyclic_mul(a, &s_lifted);
            ring.add_assign(body, &prod);
        }
        ct
    }

    /// GLWE dimension `k`.
    pub fn k(&self) -> usize {
        self.words.len() / self.n - 1
    }

    /// Mask polynomial `A_i`.
    pub fn mask(&self, i: usize) -> &[u64] {
        assert!(i < self.k(), "mask index out of range");
        &self.words[i * self.n..][..self.n]
    }

    /// Body polynomial `B`.
    pub fn body(&self) -> &[u64] {
        &self.words[self.words.len() - self.n..]
    }

    /// The `k + 1` component polynomials, mask first and body last.
    pub fn components(&self) -> std::slice::ChunksExact<'_, u64> {
        self.words.chunks_exact(self.n)
    }

    /// The whole buffer: the operand the engines hand to the kernels.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable view of the buffer (the slice fixes length and shape).
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Decrypts to the raw phase polynomial `B - sum A_i S_i`.
    pub fn phase(&self, ring: &TfheRing, sk: &GlweSecretKey) -> Vec<u64> {
        let mut acc = self.body().to_vec();
        for (a, s) in self.components().zip(&sk.polys) {
            let s_lifted = ring.poly_from_signed(s);
            let prod = ring.table().negacyclic_mul(a, &s_lifted);
            ring.sub_assign(&mut acc, &prod);
        }
        acc
    }

    /// `self += other`.
    ///
    /// # Panics
    ///
    /// Panics if the two ciphertexts (both on `ring`) differ in `k`.
    pub fn add_assign(&mut self, ring: &TfheRing, other: &GlweCiphertext) {
        assert_eq!(self.words.len(), other.words.len(), "GLWE shape mismatch");
        ring.add_assign(&mut self.words, &other.words);
    }

    /// `self -= other`; panics like [`Self::add_assign`].
    pub fn sub_assign(&mut self, ring: &TfheRing, other: &GlweCiphertext) {
        assert_eq!(self.words.len(), other.words.len(), "GLWE shape mismatch");
        ring.sub_assign(&mut self.words, &other.words);
    }

    /// Returns `self * X^r` (the Rotate of Algorithm 2, exact).
    pub fn rotate(&self, ring: &TfheRing, r: i64) -> GlweCiphertext {
        let mut out = Self::zero(ring, self.k());
        for (src, dst) in self.components().zip(out.words.chunks_exact_mut(self.n)) {
            fhe_math::poly::mul_monomial_row(ring.modulus(), src, r, dst);
        }
        out
    }

    /// Writes `self * X^r - self` into `diff` (flat, this ciphertext's
    /// layout), each component in one fused pass: the CMUX operand of
    /// the blind-rotation loop, equal word for word to
    /// [`Self::rotate`] followed by [`Self::sub_assign`].
    ///
    /// # Panics
    ///
    /// Panics if `diff` is not `(k + 1) * n` words.
    pub(crate) fn rotate_sub_into(&self, ring: &TfheRing, r: i64, diff: &mut [u64]) {
        assert_eq!(diff.len(), self.words.len(), "GLWE shape mismatch");
        for (src, dst) in self.components().zip(diff.chunks_exact_mut(self.n)) {
            ring.monomial_sub_into(src, r, dst);
        }
    }

    /// SampleExtract: extracts coefficient `idx` of the message as an
    /// LWE ciphertext under [`GlweSecretKey::extracted_lwe_key`] — per
    /// mask component the shared index walk
    /// [`fhe_math::poly::sample_extract_row`].
    ///
    /// # Panics
    ///
    /// Panics if `idx >= N`.
    pub fn sample_extract(&self, ring: &TfheRing, idx: usize) -> LweCiphertext {
        let n = ring.n();
        let (mask, body) = self.words.split_at(self.words.len() - n);
        let mut a = vec![0u64; mask.len()];
        for (src, dst) in mask.chunks_exact(n).zip(a.chunks_exact_mut(n)) {
            fhe_math::poly::sample_extract_row(ring.modulus(), src, idx, dst);
        }
        LweCiphertext { a, b: body[idx] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_math::Modulus;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (TfheRing, GlweSecretKey, StdRng) {
        let ring = TfheRing::new(1024, 32);
        let mut rng = StdRng::seed_from_u64(91);
        let sk = GlweSecretKey::generate(1, 1024, &mut rng);
        (ring, sk, rng)
    }

    #[test]
    fn encrypt_decrypt_polynomial() {
        let (ring, sk, mut rng) = setup();
        let q = ring.q();
        let msg: Vec<u64> = (0..1024).map(|i| ((i % 8) as u64) * (q / 8)).collect();
        let ct = GlweCiphertext::encrypt(&ring, &sk, &msg, 3.73e-9, &mut rng);
        let phase = ct.phase(&ring, &sk);
        let m = ring.modulus();
        for (p, &expect) in phase.iter().zip(&msg) {
            let err = m.to_centered(m.sub(*p, expect)).abs();
            assert!(err < (q / 64) as i64, "err {err}");
        }
    }

    #[test]
    fn rotation_shifts_message() {
        let (ring, sk, mut rng) = setup();
        let q = ring.q();
        let mut msg = ring.zero_poly();
        msg[0] = q / 8;
        let ct = GlweCiphertext::encrypt(&ring, &sk, &msg, 1e-9, &mut rng);
        let rot = ct.rotate(&ring, 5);
        let phase = rot.phase(&ring, &sk);
        let m = ring.modulus();
        let err = m.to_centered(m.sub(phase[5], q / 8)).abs();
        assert!(err < (q / 64) as i64);
        // Rotating by N negates.
        let neg = ct.rotate(&ring, 1024);
        let phase = neg.phase(&ring, &sk);
        let err = m.to_centered(m.sub(phase[0], m.neg(q / 8))).abs();
        assert!(err < (q / 64) as i64);
    }

    #[test]
    fn sample_extract_reads_each_coefficient() {
        let (ring, sk, mut rng) = setup();
        let q = ring.q();
        let m: &Modulus = ring.modulus();
        let msg: Vec<u64> = (0..1024).map(|i| ((i % 4) as u64) * (q / 4)).collect();
        let ct = GlweCiphertext::encrypt(&ring, &sk, &msg, 3.73e-9, &mut rng);
        let lwe_key = sk.extracted_lwe_key();
        for idx in [0usize, 1, 511, 1023] {
            let lwe = ct.sample_extract(&ring, idx);
            assert_eq!(lwe.dim(), 1024);
            let phase = lwe.phase(m, &lwe_key);
            let err = m.to_centered(m.sub(phase, msg[idx])).abs();
            assert!(err < (q / 32) as i64, "idx {idx}: err {err}");
        }
    }

    #[test]
    #[should_panic(expected = "GLWE shape mismatch")]
    fn add_assign_rejects_mismatched_k() {
        let (ring, _, _) = setup();
        // The nested layout zip-truncated to the shorter mask.
        let mut one = GlweCiphertext::zero(&ring, 1);
        one.add_assign(&ring, &GlweCiphertext::zero(&ring, 2));
    }

    #[test]
    fn trivial_ciphertext_has_exact_phase() {
        let (ring, sk, _) = setup();
        let mut msg = ring.zero_poly();
        msg[3] = 42;
        let ct = GlweCiphertext::trivial(&ring, 1, msg.clone());
        assert_eq!(ct.phase(&ring, &sk), msg);
    }
}
