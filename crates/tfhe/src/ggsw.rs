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
//! so a multiply-accumulate reads each of its polynomials in place.
//!
//! # The one dataflow
//!
//! Every external product in this crate — a lone
//! [`Ggsw::external_product`], a batch, each of the `n_lwe` CMUX steps
//! of a blind rotation — is one step of `CmuxScratch`, which owns the
//! buffers (`diff`, `prod`: `jobs * (k+1) * n` words; `digits`, `fwd`:
//! `jobs * (k+1) * lb * n`; the `NttTable` row list; the slot list),
//! allocated once per blind rotation and reused by every step:
//!
//! 1. **Pack.** The jobs that take part in the step occupy the leading
//!    slots, NTT-keyed jobs first; a job that sits the step out
//!    occupies none.
//! 2. **Operand.** The caller writes each slot's GLWE operand into
//!    `diff` (blind rotation: `X^a * acc - acc` in one fused pass).
//! 3. **One `decompose_batch`** over all slots — `diff` is already in
//!    the job-major row layout the kernel emits digits for — and one
//!    branch-free lift of the signed digits into `fwd`.
//! 4. **One forward NTT** over every NTT-keyed slot, exiting in the
//!    lazy `[0, 2p)` window.
//! 5. **Multiply-accumulate**, gadget row outer, then slot, then
//!    component: one-row `mul_acc_lazy_batch` calls over the
//!    transformed digit row itself and the key polynomial borrowed in
//!    place. Nothing is replicated or copied, and slots that share a
//!    key meet its row while it is hot (key-stationary by loop order).
//! 6. **One canonicalising inverse NTT** over all NTT-keyed product
//!    rows — the chain's single reduction.
//!
//! Per slot the kernels and their order (gadget rows increasing) are
//! those of [`Ggsw::external_product_strict`], so every word is
//! bit-identical to it (`tests/lazy_chains.rs`). FFT-keyed slots are
//! evaluated from their digit rows directly.

use fhe_math::kernel::{self, ExitFold};
use fhe_math::NttTable;
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
    /// one dispatch through the active kernel backend. Digit `j` of
    /// component `i` lands in row `i*lb + j` of `out` — the GGSW row
    /// alignment. The strict oracle's decomposition; panics if `glwe`
    /// is not of this GGSW's `(k, n)`.
    fn decompose_digits(&self, ring: &TfheRing, glwe: &GlweCiphertext, out: &mut [i64]) {
        let n = ring.n();
        self.assert_shape(ring, glwe);
        kernel::active().decompose_batch(ring.q(), self.bg_log, self.lb, n, glwe.words(), out);
    }

    /// The operand contract of every external product, checked before
    /// any kernel reads the GLWE's buffer.
    fn assert_shape(&self, ring: &TfheRing, glwe: &GlweCiphertext) {
        assert!(
            glwe.k() == self.k && glwe.words().len() == (self.k + 1) * ring.n(),
            "GLWE shape differs from the GGSW's (k, n)"
        );
    }

    /// The external-product engine: `jobs[i].0 ⊡ jobs[i].1` for every
    /// job (Algorithm 2 lines 6–10) — one step of the crate's one
    /// dataflow (module docs) with every job taking part and its GLWE
    /// as the operand. [`Self::external_product`] is its one-job
    /// instance.
    ///
    /// All jobs share one `decompose_batch`, the NTT-keyed ones one
    /// lazy-exit forward NTT and one canonicalising inverse NTT; the
    /// multiply-accumulates between them read each transformed digit
    /// row and each key polynomial in place. A job's output does not
    /// depend on its batch mates and is bit-identical to
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
        let mut cmux = CmuxScratch::new(ring, head.k, head.lb, head.bg_log, jobs.len());
        cmux.step(
            |job| Some(jobs[job].0),
            |job, operand| {
                head.assert_shape(ring, jobs[job].1);
                operand.copy_from_slice(jobs[job].1.words());
            },
        );
        let mut outs = vec![GlweCiphertext::zero(ring, head.k); jobs.len()];
        for (job, prod) in cmux.products() {
            outs[job].words_mut().copy_from_slice(prod);
        }
        outs
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

/// The buffers of a CMUX loop and the one external-product dataflow
/// over them (module docs, "The one dataflow"): sized once for `jobs`
/// lockstep jobs of one gadget geometry, then reused by every
/// [`Self::step`] — nothing is allocated per step.
pub(crate) struct CmuxScratch<'a> {
    ring: &'a TfheRing,
    k: usize,
    lb: usize,
    bg_log: u32,
    jobs: usize,
    /// `(job, GGSW)` of the current step's slots, NTT-keyed first.
    slots: Vec<(usize, &'a Ggsw)>,
    /// Slot operands, `(k+1) * n` words each.
    diff: Vec<u64>,
    /// Slot products, laid out like `diff`.
    prod: Vec<u64>,
    /// Signed gadget digits, `(k+1) * lb * n` words per slot.
    digits: Vec<i64>,
    /// The NTT-keyed slots' digits, lifted and transformed.
    fwd: Vec<u64>,
    /// One table per row of `fwd`.
    tables: Vec<&'a NttTable>,
}

impl<'a> CmuxScratch<'a> {
    /// Buffers for `jobs` lockstep external products of gadget geometry
    /// `(k, lb, bg_log)` over `ring`.
    pub(crate) fn new(ring: &'a TfheRing, k: usize, lb: usize, bg_log: u32, jobs: usize) -> Self {
        let row_words = (k + 1) * ring.n();
        Self {
            ring,
            k,
            lb,
            bg_log,
            jobs,
            slots: Vec::with_capacity(jobs),
            diff: vec![0; jobs * row_words],
            prod: vec![0; jobs * row_words],
            digits: vec![0; jobs * lb * row_words],
            fwd: vec![0; jobs * lb * row_words],
            tables: vec![ring.table().as_ref(); jobs * (k + 1) * lb],
        }
    }

    /// One lockstep step: job `j` takes part iff `key(j)` names its
    /// GGSW, `operand(j, slot)` writes its GLWE operand, and
    /// [`Self::products`] then holds `key(j) ⊡ operand` per taking-part
    /// job.
    ///
    /// # Panics
    ///
    /// Panics if a GGSW's gadget geometry differs from the scratch's.
    pub(crate) fn step(
        &mut self,
        key: impl Fn(usize) -> Option<&'a Ggsw>,
        mut operand: impl FnMut(usize, &mut [u64]),
    ) {
        let n = self.ring.n();
        let row_words = (self.k + 1) * n;
        let job_rows = (self.k + 1) * self.lb;
        let job_words = job_rows * n;
        self.slots.clear();
        for kind in [MulBackend::Ntt, MulBackend::Fft] {
            for job in 0..self.jobs {
                let Some(ggsw) = key(job).filter(|ggsw| ggsw.backend() == kind) else {
                    continue;
                };
                assert!(
                    (ggsw.k, ggsw.lb, ggsw.bg_log) == (self.k, self.lb, self.bg_log),
                    "lockstep external products require one gadget geometry"
                );
                let slot = self.slots.len();
                operand(job, &mut self.diff[slot * row_words..][..row_words]);
                self.slots.push((job, ggsw));
            }
        }
        if self.slots.is_empty() {
            return;
        }
        let slots = self.slots.len();
        let ntt = self
            .slots
            .partition_point(|(_, ggsw)| ggsw.backend() == MulBackend::Ntt);
        let backend = kernel::active();
        backend.decompose_batch(
            self.ring.q(),
            self.bg_log,
            self.lb,
            n,
            &self.diff[..slots * row_words],
            &mut self.digits[..slots * job_words],
        );

        // The lazy NTT chain over the leading slots. A balanced digit
        // has |d| <= B/2 < p, so adding p to the negative ones is
        // `Modulus::from_i64` without its branches.
        let p = self.ring.q();
        let fwd = &mut self.fwd[..ntt * job_words];
        for (w, &d) in fwd.iter_mut().zip(&self.digits[..ntt * job_words]) {
            debug_assert!(d.unsigned_abs() < p, "gadget digit outside (-p, p)");
            *w = (d + (p as i64 & (d >> 63))) as u64;
        }
        backend.forward_batch(&self.tables[..ntt * job_rows], fwd, ExitFold::Lazy2p);
        let modulus = std::slice::from_ref(self.ring.modulus());
        let prod = &mut self.prod[..ntt * row_words];
        prod.fill(0);
        for r in 0..job_rows {
            for (slot, (_, ggsw)) in self.slots[..ntt].iter().enumerate() {
                let GgswRepr::Ntt(key) = &ggsw.repr else {
                    unreachable!("NTT-keyed slots lead");
                };
                let digit = &fwd[(slot * job_rows + r) * n..][..n];
                let key_row = &key[r * row_words..][..row_words];
                let acc = &mut prod[slot * row_words..][..row_words];
                for (acc, key_poly) in acc.chunks_exact_mut(n).zip(key_row.chunks_exact(n)) {
                    backend.mul_acc_lazy_batch(modulus, acc, digit, key_poly);
                }
            }
        }
        backend.inverse_batch(
            &self.tables[..ntt * (self.k + 1)],
            prod,
            ExitFold::Canonical,
        );

        for (slot, (_, ggsw)) in self.slots.iter().enumerate().skip(ntt) {
            let GgswRepr::Fft(key) = &ggsw.repr else {
                unreachable!("FFT-keyed slots trail");
            };
            let digits = &self.digits[slot * job_words..][..job_words];
            let out = &mut self.prod[slot * row_words..][..row_words];
            fft_product(self.ring, key, digits, out);
        }
    }

    /// `(job, product)` for every job that took part in the last step.
    pub(crate) fn products(&self) -> impl Iterator<Item = (usize, &[u64])> {
        let row_words = (self.k + 1) * self.ring.n();
        let jobs = self.slots.iter().map(|&(job, _)| job);
        jobs.zip(self.prod.chunks_exact(row_words))
    }
}

/// One external product against FFT-prepared rows into `out`: per-row
/// FFT products accumulated in wide integers, then reduced — rounding
/// error mirrors real FFT accelerators.
fn fft_product(ring: &TfheRing, key: &[i64], digits: &[i64], out: &mut [u64]) {
    let n = ring.n();
    let q = ring.q() as i128;
    let mut acc = vec![0i128; out.len()];
    for (digit, row) in digits.chunks_exact(n).zip(key.chunks_exact(out.len())) {
        for (limb, key_poly) in acc.chunks_exact_mut(n).zip(row.chunks_exact(n)) {
            let prod = fhe_math::fft::negacyclic_mul_fft(digit, key_poly);
            for (a, &p) in limb.iter_mut().zip(&prod) {
                *a += p as i128;
            }
        }
    }
    for (o, &x) in out.iter_mut().zip(&acc) {
        *o = x.rem_euclid(q) as u64;
    }
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
