//! GGSW ciphertexts and the external product, with interchangeable NTT
//! and FFT polynomial-multiplication backends.
//!
//! The external product (paper §II-B) multiplies a GLWE ciphertext by a
//! GGSW ciphertext: the GLWE components are gadget-decomposed into
//! `(k+1) * lb` small polynomials, which are multiplied against the GGSW
//! rows and accumulated — `NTT(tmp[j]) * bsk[i][j]` in Algorithm 2
//! line 9. Trinity runs this on exact NTT hardware; FFT-based
//! accelerators (Morphling, Strix, Matcha) use the approximate
//! double-precision path kept here as [`MulBackend::Fft`] for the
//! ablation.
//!
//! A GGSW is one flat buffer laid out `[gadget row][component][coeff]`:
//! row `r` is the `(k+1) * n` words at `r * (k+1) * n` — GLWE-shaped,
//! so one multiply-accumulate into a GLWE accumulator borrows it whole.

use fhe_math::kernel::{self, ExitFold};
use fhe_math::{Modulus, NttTable};
use rand::Rng;

use crate::glwe::{GlweCiphertext, GlweSecretKey};
use crate::lwe::gadget_element;
use crate::ring::TfheRing;

/// Which polynomial multiplier the external product uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulBackend {
    /// Exact NTT over the prime modulus (Trinity's approach).
    Ntt,
    /// Double-precision FFT with rounding (the conventional approach).
    Fft,
}

/// A GGSW ciphertext prepared for fast external products.
///
/// Gadget row `r = i * lb + (j - 1)` (for component `i in 0..=k`, level
/// `j in 1..=lb`) encrypts `m * g_j` added at component `i`. For the
/// NTT backend all rows are stored in evaluation form; for the FFT
/// backend rows are stored as centered signed integers.
#[derive(Debug, Clone)]
pub struct Ggsw {
    k: usize,
    lb: usize,
    bg_log: u32,
    repr: GgswRepr,
}

/// All `(k+1) * lb` gadget rows, flat (see the module docs).
#[derive(Debug, Clone)]
enum GgswRepr {
    /// NTT evaluation form.
    Ntt(Vec<u64>),
    /// Centered in `[-q/2, q/2)`.
    Fft(Vec<i64>),
}

impl Ggsw {
    /// Encrypts a small scalar `m` (0 or 1 for bootstrap keys) as a GGSW
    /// ciphertext, prepared for the chosen backend.
    ///
    /// The argument list mirrors the gadget parameters one-to-one; a
    /// params struct would only restate `TfheParams`.
    #[allow(clippy::too_many_arguments)]
    pub fn encrypt_scalar<R: Rng + ?Sized>(
        ring: &TfheRing,
        sk: &GlweSecretKey,
        m: u64,
        lb: usize,
        bg_log: u32,
        noise_std: f64,
        backend: MulBackend,
        rng: &mut R,
    ) -> Self {
        let k = sk.k();
        let n = ring.n();
        let q = ring.modulus();
        let zero = ring.zero_poly();
        // Allocated once at its final size; every row is written in place.
        let mut words = vec![0u64; (k + 1) * lb * (k + 1) * n];
        for (r, row) in words.chunks_exact_mut((k + 1) * n).enumerate() {
            let (i, j) = (r / lb, r % lb + 1);
            let ct = GlweCiphertext::encrypt(ring, sk, &zero, noise_std, rng);
            row.copy_from_slice(ct.words());
            if m != 0 {
                let g = gadget_element(q.value(), bg_log, j);
                row[i * n] = q.add(row[i * n], q.mul(q.reduce(m), g));
            }
        }
        let repr = match backend {
            MulBackend::Ntt => {
                let tables: Vec<&NttTable> = vec![ring.table().as_ref(); words.len() / n];
                kernel::active().forward_batch(&tables, &mut words, ExitFold::Canonical);
                GgswRepr::Ntt(words)
            }
            MulBackend::Fft => GgswRepr::Fft(words.iter().map(|&c| q.to_centered(c)).collect()),
        };
        Self {
            k,
            lb,
            bg_log,
            repr,
        }
    }

    /// The backend this GGSW was prepared for.
    pub fn backend(&self) -> MulBackend {
        match self.repr {
            GgswRepr::Ntt(_) => MulBackend::Ntt,
            GgswRepr::Fft(_) => MulBackend::Fft,
        }
    }

    /// Measured heap bytes of this ciphertext's row buffer (allocated
    /// capacity) — one summand of [`crate::ServerKey::key_bytes`], the
    /// number a byte-budgeted key cache evicts by.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            GgswRepr::Ntt(rows) => rows.capacity() * std::mem::size_of::<u64>(),
            GgswRepr::Fft(rows) => rows.capacity() * std::mem::size_of::<i64>(),
        }
    }

    /// External product `self ⊡ glwe` — the `k = 1` instance of
    /// [`Self::external_product_batch`], the one engine both key
    /// representations run through.
    pub fn external_product(&self, ring: &TfheRing, glwe: &GlweCiphertext) -> GlweCiphertext {
        Self::external_product_batch(ring, &[(self, glwe)])
            .pop()
            .expect("one job in, one product out")
    }

    /// Strict-oracle external product for the NTT backend: fully-reduced
    /// transforms (`forward_strict`/`inverse_strict`) and canonical
    /// multiply-accumulates, every kernel canonicalising its output.
    /// The reference [`Self::external_product_batch`] is asserted
    /// against.
    ///
    /// # Panics
    ///
    /// Panics if this GGSW was prepared for the FFT backend (the strict
    /// oracle only distinguishes reduction discipline, which is an
    /// NTT-path concept), or if `glwe` is not of this GGSW's `(k, n)`.
    pub fn external_product_strict(
        &self,
        ring: &TfheRing,
        glwe: &GlweCiphertext,
    ) -> GlweCiphertext {
        let n = ring.n();
        let GgswRepr::Ntt(key) = &self.repr else {
            panic!("external_product_strict requires the NTT backend");
        };
        let row_words = (self.k + 1) * n;
        let mut digits = vec![0i64; self.lb * row_words];
        self.decompose_digits(ring, glwe, &mut digits);
        let mut out = GlweCiphertext::zero(ring, self.k);
        for (digit, row) in digits.chunks_exact(n).zip(key.chunks_exact(row_words)) {
            let mut d = ring.poly_from_signed(digit);
            ring.table().forward_strict(&mut d);
            for (limb, key_poly) in out.words_mut().chunks_exact_mut(n).zip(row.chunks_exact(n)) {
                ring.table().pointwise_mul_acc(limb, &d, key_poly);
            }
        }
        for limb in out.words_mut().chunks_exact_mut(n) {
            ring.table().inverse_strict(limb);
        }
        out
    }

    /// Gadget-decomposes every component of `glwe` into `lb` digit rows
    /// (Algorithm 2 lines 6–8) straight from the ciphertext's buffer,
    /// one dispatch through the active kernel backend (which may slice
    /// component rows, never levels, across worker threads). Digit `j`
    /// of component `i` lands in row `i*lb + j` of `out` — the GGSW row
    /// alignment. Shared by both reduction disciplines; panics if
    /// `glwe` is not of this GGSW's `(k, n)`.
    fn decompose_digits(&self, ring: &TfheRing, glwe: &GlweCiphertext, out: &mut [i64]) {
        let n = ring.n();
        assert!(
            glwe.k() == self.k && glwe.words().len() == (self.k + 1) * n,
            "GLWE shape differs from the GGSW's (k, n)"
        );
        kernel::active().decompose_batch(ring.q(), self.bg_log, self.lb, n, glwe.words(), out);
    }

    /// The external-product engine: `jobs[i].0 ⊡ jobs[i].1` for every
    /// job (Algorithm 2 lines 6–10). [`Self::external_product`] is its
    /// one-job instance.
    ///
    /// Each GLWE is decomposed from its own buffer; the digit rows of
    /// all NTT-keyed jobs share one wide forward dispatch exiting in
    /// `[0, 2p)` (the MATCHA-style "k bootstraps through one kernel
    /// dispatch" shape the worker pool can slice); each job then
    /// multiply-accumulates lazily, gadget rows in increasing order,
    /// against its GGSW's rows borrowed in place and into the buffer
    /// that is its output ciphertext, and one canonicalising iNTT is
    /// the chain's single reduction. A job's output does not depend on
    /// its batch mates and is bit-identical to
    /// [`Self::external_product_strict`] (`tests/lazy_chains.rs`).
    /// FFT-keyed jobs are evaluated from their digits directly
    /// (rounding there is per product).
    ///
    /// All jobs must share the gadget geometry (`k`, `lb`, `bg_log`)
    /// and live on `ring`.
    ///
    /// # Panics
    ///
    /// Panics if the jobs disagree on gadget geometry, or a GLWE is not
    /// of its GGSW's `(k, n)`.
    pub fn external_product_batch(
        ring: &TfheRing,
        jobs: &[(&Ggsw, &GlweCiphertext)],
    ) -> Vec<GlweCiphertext> {
        let Some(&(head, _)) = jobs.first() else {
            return Vec::new();
        };
        let n = ring.n();
        let (k, lb, bg_log) = (head.k, head.lb, head.bg_log);
        assert!(
            jobs.iter()
                .all(|(g, _)| g.k == k && g.lb == lb && g.bg_log == bg_log),
            "external_product_batch requires one gadget geometry"
        );
        let job_words = (k + 1) * lb * n;
        let mut digits = vec![0i64; jobs.len() * job_words];
        // NTT jobs lift their digit rows into `fwd` for the lazy chain.
        let mut fwd = Vec::with_capacity(digits.len());
        for ((ggsw, glwe), out) in jobs.iter().zip(digits.chunks_exact_mut(job_words)) {
            head.decompose_digits(ring, glwe, out);
            if let GgswRepr::Ntt(_) = ggsw.repr {
                fwd.extend(out.iter().map(|&c| ring.modulus().from_i64(c)));
            }
        }
        let tables: Vec<&NttTable> = vec![ring.table().as_ref(); fwd.len() / n];
        kernel::active().forward_batch(&tables, &mut fwd, ExitFold::Lazy2p);

        let moduli = vec![*ring.modulus(); k + 1];
        let mut lifted = fwd.chunks_exact(job_words);
        jobs.iter()
            .zip(digits.chunks_exact(job_words))
            .map(|((ggsw, _), job_digits)| match &ggsw.repr {
                GgswRepr::Ntt(key) => {
                    let fwd = lifted.next().expect("one lifted slot per NTT job");
                    lazy_product(ring, &moduli, &tables[..=k], key, fwd)
                }
                GgswRepr::Fft(key) => fft_product(ring, k, key, job_digits),
            })
            .collect()
    }

    /// CMUX: returns `ct0 + self ⊡ (ct1 - ct0)` — selects `ct1` when the
    /// encrypted bit is 1, `ct0` when it is 0.
    pub fn cmux(
        &self,
        ring: &TfheRing,
        ct0: &GlweCiphertext,
        ct1: &GlweCiphertext,
    ) -> GlweCiphertext {
        let mut diff = ct1.clone();
        diff.sub_assign(ring, ct0);
        let mut out = self.external_product(ring, &diff);
        out.add_assign(ring, ct0);
        out
    }
}

/// One NTT-keyed external product from lazily transformed digit rows:
/// per gadget row one lazy multiply-accumulate against the borrowed key
/// row into the output's own buffer, then the canonicalising iNTT.
/// `moduli` and `tables` carry one entry per GLWE component.
fn lazy_product(
    ring: &TfheRing,
    moduli: &[Modulus],
    tables: &[&NttTable],
    key: &[u64],
    fwd: &[u64],
) -> GlweCiphertext {
    let n = ring.n();
    let mut out = GlweCiphertext::zero(ring, moduli.len() - 1);
    // The MAC takes operands as long as the accumulator: the digit is
    // replicated per component, key words are never copied.
    let mut digit_rows = vec![0u64; moduli.len() * n];
    for (digit, row) in fwd.chunks_exact(n).zip(key.chunks_exact(moduli.len() * n)) {
        for rep in digit_rows.chunks_exact_mut(n) {
            rep.copy_from_slice(digit);
        }
        kernel::active().mul_acc_lazy_batch(moduli, out.words_mut(), &digit_rows, row);
    }
    kernel::active().inverse_batch(tables, out.words_mut(), ExitFold::Canonical);
    out
}

/// One external product against FFT-prepared rows: per-row FFT products
/// accumulated in wide integers, then reduced — rounding error mirrors
/// real FFT accelerators.
fn fft_product(ring: &TfheRing, k: usize, key: &[i64], digits: &[i64]) -> GlweCiphertext {
    let n = ring.n();
    let q = ring.q() as i128;
    let mut acc = vec![0i128; (k + 1) * n];
    for (digit, row) in digits.chunks_exact(n).zip(key.chunks_exact((k + 1) * n)) {
        for (limb, key_poly) in acc.chunks_exact_mut(n).zip(row.chunks_exact(n)) {
            let prod = fhe_math::fft::negacyclic_mul_fft(digit, key_poly);
            for (a, &p) in limb.iter_mut().zip(&prod) {
                *a += p as i128;
            }
        }
    }
    let mut out = GlweCiphertext::zero(ring, k);
    for (o, &x) in out.words_mut().iter_mut().zip(&acc) {
        *o = x.rem_euclid(q) as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl Ggsw {
        /// The NTT row buffer, for the key-layout tests in `bootstrap`.
        pub(crate) fn words(&self) -> &Vec<u64> {
            match &self.repr {
                GgswRepr::Ntt(rows) => rows,
                GgswRepr::Fft(_) => panic!("FFT-prepared GGSW holds no residue words"),
            }
        }
    }

    fn setup() -> (TfheRing, GlweSecretKey, StdRng) {
        let ring = TfheRing::new(1024, 32);
        let mut rng = StdRng::seed_from_u64(101);
        let sk = GlweSecretKey::generate(1, 1024, &mut rng);
        (ring, sk, rng)
    }

    fn phase_error(ring: &TfheRing, got: &[u64], want: &[u64]) -> i64 {
        let m = ring.modulus();
        got.iter()
            .zip(want)
            .map(|(&g, &w)| m.to_centered(m.sub(g, w)).abs())
            .max()
            .unwrap()
    }

    #[test]
    fn external_product_by_one_is_identity_ish() {
        for backend in [MulBackend::Ntt, MulBackend::Fft] {
            let (ring, sk, mut rng) = setup();
            let q = ring.q();
            let ggsw_one = Ggsw::encrypt_scalar(&ring, &sk, 1, 2, 10, 3.73e-9, backend, &mut rng);
            let mut msg = ring.zero_poly();
            msg[0] = q / 8;
            msg[7] = q - q / 8;
            let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, 3.73e-9, &mut rng);
            let out = ggsw_one.external_product(&ring, &glwe);
            let phase = out.phase(&ring, &sk);
            let err = phase_error(&ring, &phase, &msg);
            assert!(err < (q / 64) as i64, "{backend:?}: err {err}");
        }
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        for backend in [MulBackend::Ntt, MulBackend::Fft] {
            let (ring, sk, mut rng) = setup();
            let q = ring.q();
            let ggsw_zero = Ggsw::encrypt_scalar(&ring, &sk, 0, 2, 10, 3.73e-9, backend, &mut rng);
            let mut msg = ring.zero_poly();
            msg[0] = q / 4;
            let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, 3.73e-9, &mut rng);
            let out = ggsw_zero.external_product(&ring, &glwe);
            let phase = out.phase(&ring, &sk);
            let err = phase_error(&ring, &phase, &ring.zero_poly());
            assert!(err < (q / 64) as i64, "{backend:?}: err {err}");
        }
    }

    #[test]
    fn cmux_selects() {
        for backend in [MulBackend::Ntt, MulBackend::Fft] {
            let (ring, sk, mut rng) = setup();
            let q = ring.q();
            let mut m0 = ring.zero_poly();
            m0[0] = q / 8;
            let mut m1 = ring.zero_poly();
            m1[0] = q - q / 8;
            let ct0 = GlweCiphertext::encrypt(&ring, &sk, &m0, 3.73e-9, &mut rng);
            let ct1 = GlweCiphertext::encrypt(&ring, &sk, &m1, 3.73e-9, &mut rng);
            for bit in [0u64, 1] {
                let sel = Ggsw::encrypt_scalar(&ring, &sk, bit, 2, 10, 3.73e-9, backend, &mut rng);
                let out = sel.cmux(&ring, &ct0, &ct1);
                let phase = out.phase(&ring, &sk);
                let want = if bit == 0 { &m0 } else { &m1 };
                let err = phase_error(&ring, &phase, want);
                assert!(err < (q / 64) as i64, "{backend:?} bit {bit}: err {err}");
            }
        }
    }

    fn job(
        ring: &TfheRing,
        sk: &GlweSecretKey,
        i: usize,
        backend: MulBackend,
        rng: &mut StdRng,
    ) -> (Ggsw, GlweCiphertext) {
        let ggsw = Ggsw::encrypt_scalar(ring, sk, (i % 2) as u64, 2, 10, 3.73e-9, backend, rng);
        let mut msg = ring.zero_poly();
        msg[i] = ring.q() / 8;
        (ggsw, GlweCiphertext::encrypt(ring, sk, &msg, 3.73e-9, rng))
    }

    /// "Sequential" is the `k = 1` instance of the same engine, so the
    /// independent reference for the wide batch is the strict oracle.
    #[test]
    fn batched_external_product_is_bit_identical_to_sequential() {
        let (ring, sk, mut rng) = setup();
        // Distinct GGSWs and GLWEs per job so the batch cannot get away
        // with evaluating only one and fanning it out.
        let jobs: Vec<(Ggsw, GlweCiphertext)> = (0..4)
            .map(|i| job(&ring, &sk, i, MulBackend::Ntt, &mut rng))
            .collect();
        let refs: Vec<(&Ggsw, &GlweCiphertext)> = jobs.iter().map(|(g, c)| (g, c)).collect();
        let batched = Ggsw::external_product_batch(&ring, &refs);
        for ((ggsw, glwe), got) in jobs.iter().zip(&batched) {
            let strict = ggsw.external_product_strict(&ring, glwe);
            let single = ggsw.external_product(&ring, glwe);
            for want in [strict, single] {
                assert_eq!(got.mask(0), want.mask(0));
                assert_eq!(got.body(), want.body());
            }
        }
        assert!(Ggsw::external_product_batch(&ring, &[]).is_empty());
    }

    /// FFT-keyed jobs run through the same engine, alone or beside NTT
    /// jobs, and neither kind is perturbed by its batch mates.
    #[test]
    fn batched_external_product_serves_fft_and_mixed_jobs() {
        let (ring, sk, mut rng) = setup();
        let backends = [
            MulBackend::Fft,
            MulBackend::Ntt,
            MulBackend::Fft,
            MulBackend::Ntt,
        ];
        let jobs: Vec<(Ggsw, GlweCiphertext)> = backends
            .iter()
            .enumerate()
            .map(|(i, &backend)| job(&ring, &sk, i, backend, &mut rng))
            .collect();
        let refs: Vec<(&Ggsw, &GlweCiphertext)> = jobs.iter().map(|(g, c)| (g, c)).collect();
        let mixed = Ggsw::external_product_batch(&ring, &refs);
        let fft_only = Ggsw::external_product_batch(&ring, &[refs[0], refs[2]]);
        assert_eq!(fft_only[0].body(), mixed[0].body());
        assert_eq!(fft_only[1].mask(0), mixed[2].mask(0));
        for (i, ((ggsw, glwe), got)) in jobs.iter().zip(&mixed).enumerate() {
            let single = ggsw.external_product(&ring, glwe);
            assert_eq!(got.mask(0), single.mask(0), "job {i}");
            assert_eq!(got.body(), single.body(), "job {i}");
            if ggsw.backend() == MulBackend::Ntt {
                let strict = ggsw.external_product_strict(&ring, glwe);
                assert_eq!(got.body(), strict.body(), "job {i} vs strict");
            }
            // Job i multiplies X^i * q/8 by the bit i % 2.
            let mut want = ring.zero_poly();
            want[i] = (i % 2) as u64 * (ring.q() / 8);
            let err = phase_error(&ring, &got.phase(&ring, &sk), &want);
            assert!(err < (ring.q() / 64) as i64, "job {i}: err {err}");
        }
    }

    #[test]
    #[should_panic(expected = "one gadget geometry")]
    fn batched_external_product_rejects_mixed_geometry() {
        let (ring, sk, mut rng) = setup();
        let two = Ggsw::encrypt_scalar(&ring, &sk, 1, 2, 10, 3.73e-9, MulBackend::Ntt, &mut rng);
        let three = Ggsw::encrypt_scalar(&ring, &sk, 1, 3, 7, 3.73e-9, MulBackend::Ntt, &mut rng);
        let glwe = GlweCiphertext::encrypt(&ring, &sk, &ring.zero_poly(), 3.73e-9, &mut rng);
        // A GLWE of the wrong dimension `k` is rejected too, at engine
        // entry, before any kernel reads past its buffer.
        let wrong_k = GlweCiphertext::zero(&ring, 2);
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Ggsw::external_product_batch(&ring, &[(&two, &glwe), (&two, &wrong_k)])
        }))
        .expect_err("a wrong-k GLWE must be rejected");
        let message = rejected.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(
            message.contains("GLWE shape"),
            "unexpected panic: {message}"
        );
        Ggsw::external_product_batch(&ring, &[(&two, &glwe), (&three, &glwe)]);
    }

    #[test]
    fn ntt_backend_is_more_accurate_than_fft() {
        // Chain external products by 1 and compare error growth: the NTT
        // path only accrues decomposition/key noise, the FFT path adds
        // rounding on top — the paper's motivation for the substitution.
        let mut max_err = std::collections::HashMap::new();
        for backend in [MulBackend::Ntt, MulBackend::Fft] {
            let (ring, sk, mut rng) = setup();
            let q = ring.q();
            let ggsw_one = Ggsw::encrypt_scalar(&ring, &sk, 1, 2, 10, 1e-9, backend, &mut rng);
            let mut msg = ring.zero_poly();
            msg[0] = q / 8;
            let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, 1e-9, &mut rng);
            let mut cur = glwe;
            for _ in 0..4 {
                cur = ggsw_one.external_product(&ring, &cur);
            }
            let phase = cur.phase(&ring, &sk);
            let err = phase_error(&ring, &phase, &msg);
            max_err.insert(backend, err);
        }
        assert!(
            max_err[&MulBackend::Ntt] <= max_err[&MulBackend::Fft],
            "NTT {} should not exceed FFT {}",
            max_err[&MulBackend::Ntt],
            max_err[&MulBackend::Fft]
        );
    }
}
