//! GGSW ciphertexts and the external product over the exact NTT.
//!
//! The external product (paper §II-B) multiplies a GLWE ciphertext by a
//! GGSW ciphertext: the GLWE components are gadget-decomposed into
//! `(k+1) * lb` small polynomials, which are multiplied against the GGSW
//! rows and accumulated — `NTT(tmp[j]) * bsk[i][j]` in Algorithm 2
//! line 9. Trinity runs this on exact NTT hardware; FFT-based
//! accelerators (Morphling, Strix, Matcha) use approximate double
//! precision, a baseline this repo keeps at kernel level only
//! (`fhe_math::fft::negacyclic_mul_fft` against the NTT in the
//! `fhe-math` golden vectors).
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
//!    slots, in job order; a job that sits the step out occupies none.
//! 2. **Operand.** The caller writes each slot's GLWE operand into
//!    `diff` (blind rotation: `X^a * acc - acc` in one fused pass).
//! 3. **One `decompose_batch`** over all slots — `diff` is already in
//!    the job-major row layout the kernel emits digits for — and one
//!    branch-free lift of the signed digits into `fwd`.
//! 4. **One forward NTT** over every slot, exiting in the lazy
//!    `[0, 2p)` window.
//! 5. **Multiply-accumulate**, gadget row outer, then slot, then
//!    component: one-row `mul_acc_lazy_batch` calls over the
//!    transformed digit row itself and the key polynomial borrowed in
//!    place. Nothing is replicated or copied, and slots that share a
//!    key meet its row while it is hot (key-stationary by loop order).
//! 6. **One canonicalising inverse NTT** over all product rows — the
//!    chain's single reduction.
//!
//! Per slot the kernels and their order (gadget rows increasing) are
//! those of [`Ggsw::external_product_strict`], so every word is
//! bit-identical to it (`tests/lazy_chains.rs`).

use fhe_math::kernel::{self, ExitFold};
use fhe_math::NttTable;
use rand::Rng;

use crate::glwe::{GlweCiphertext, GlweSecretKey};
use crate::lwe::gadget_element;
use crate::ring::TfheRing;

/// The external product's polynomial multiplier: the exact NTT over the
/// prime modulus (Trinity's approach), the only one there is.
///
/// This one-variant type exists only for `benchmark/`'s frozen call
/// signature — the parameter of [`crate::ServerKey::generate`] and the
/// [`crate::ServerKey::backend`] field — and leaves with both at the
/// next benchmark re-baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulBackend {
    /// Exact NTT over the prime modulus.
    Ntt,
}

/// A GGSW ciphertext prepared for fast external products.
///
/// Gadget row `r = i * lb + (j - 1)` (for component `i in 0..=k`, level
/// `j in 1..=lb`) encrypts `m * g_j` added at component `i`. All rows
/// are stored in NTT evaluation form.
#[derive(Debug, Clone)]
pub struct Ggsw {
    k: usize,
    lb: usize,
    bg_log: u32,
    /// All `(k+1) * lb` gadget rows, flat (see the module docs).
    words: Vec<u64>,
}

impl Ggsw {
    /// Encrypts a small scalar `m` (0 or 1 for bootstrap keys) as a GGSW
    /// ciphertext in NTT evaluation form.
    ///
    /// # Panics
    ///
    /// Panics unless `bg_log * lb <= bits(q)`: deeper digits carry no
    /// precision, the decomposition's rounded `x * B_g^lb / q` must fit
    /// a word, and [`gadget_element`] shifts by `bg_log * j`.
    pub fn encrypt_scalar<R: Rng + ?Sized>(
        ring: &TfheRing,
        sk: &GlweSecretKey,
        m: u64,
        lb: usize,
        bg_log: u32,
        noise_std: f64,
        rng: &mut R,
    ) -> Self {
        let k = sk.k();
        let n = ring.n();
        let q = ring.modulus();
        assert!(
            bg_log as usize * lb <= q.bits() as usize,
            "bootstrapping gadget deeper than the modulus"
        );
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
        let tables: Vec<&NttTable> = vec![ring.table().as_ref(); words.len() / n];
        kernel::active().forward_batch(&tables, &mut words, ExitFold::Canonical);
        Self {
            k,
            lb,
            bg_log,
            words,
        }
    }

    /// Measured heap bytes of this ciphertext's row buffer (allocated
    /// capacity) — one summand of [`crate::ServerKey::key_bytes`], the
    /// number a byte-budgeted key cache evicts by.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// External product `self ⊡ glwe` (Algorithm 2 lines 6–10): one
    /// step of the crate's one dataflow (module docs) with one job, its
    /// GLWE as the operand. Bit-identical to
    /// [`Self::external_product_strict`] (`tests/lazy_chains.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `glwe` is not of this GGSW's `(k, n)`.
    pub fn external_product(&self, ring: &TfheRing, glwe: &GlweCiphertext) -> GlweCiphertext {
        self.assert_shape(ring, glwe);
        let mut cmux = CmuxScratch::new(ring, self.k, self.lb, self.bg_log, 1);
        cmux.step(
            |_| Some(self),
            |_, operand| operand.copy_from_slice(glwe.words()),
        );
        let (_, prod) = cmux.products().next().expect("one job in, one product out");
        let mut out = GlweCiphertext::zero(ring, self.k);
        out.words_mut().copy_from_slice(prod);
        out
    }

    /// Strict-oracle external product: fully-reduced transforms
    /// (`forward_strict`/`inverse_strict`) and canonical
    /// multiply-accumulates, every kernel canonicalising its output.
    /// The reference [`Self::external_product`] is asserted against.
    ///
    /// # Panics
    ///
    /// Panics if `glwe` is not of this GGSW's `(k, n)`.
    pub fn external_product_strict(
        &self,
        ring: &TfheRing,
        glwe: &GlweCiphertext,
    ) -> GlweCiphertext {
        let n = ring.n();
        let row_words = (self.k + 1) * n;
        let mut digits = vec![0i64; self.lb * row_words];
        self.decompose_digits(ring, glwe, &mut digits);
        let mut out = GlweCiphertext::zero(ring, self.k);
        let rows = self.words.chunks_exact(row_words);
        for (digit, row) in digits.chunks_exact(n).zip(rows) {
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
    /// `(job, GGSW)` of the current step's slots, in job order.
    slots: Vec<(usize, &'a Ggsw)>,
    /// Slot operands, `(k+1) * n` words each.
    diff: Vec<u64>,
    /// Slot products, laid out like `diff`.
    prod: Vec<u64>,
    /// Signed gadget digits, `(k+1) * lb * n` words per slot.
    digits: Vec<i64>,
    /// The slots' digits, lifted and transformed.
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
        for job in 0..self.jobs {
            let Some(ggsw) = key(job) else {
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
        if self.slots.is_empty() {
            return;
        }
        let slots = self.slots.len();
        let backend = kernel::active();
        backend.decompose_batch(
            self.ring.q(),
            self.bg_log,
            self.lb,
            n,
            &self.diff[..slots * row_words],
            &mut self.digits[..slots * job_words],
        );

        // The lazy NTT chain. A balanced digit has |d| <= B/2 < p, so
        // adding p to the negative ones is `Modulus::from_i64` without
        // its branches.
        let p = self.ring.q();
        let fwd = &mut self.fwd[..slots * job_words];
        for (w, &d) in fwd.iter_mut().zip(&self.digits[..slots * job_words]) {
            debug_assert!(d.unsigned_abs() < p, "gadget digit outside (-p, p)");
            *w = (d + (p as i64 & (d >> 63))) as u64;
        }
        backend.forward_batch(&self.tables[..slots * job_rows], fwd, ExitFold::Lazy2p);
        let modulus = std::slice::from_ref(self.ring.modulus());
        let prod = &mut self.prod[..slots * row_words];
        prod.fill(0);
        for r in 0..job_rows {
            for (slot, (_, ggsw)) in self.slots.iter().enumerate() {
                let digit = &fwd[(slot * job_rows + r) * n..][..n];
                let key_row = &ggsw.words[r * row_words..][..row_words];
                let acc = &mut prod[slot * row_words..][..row_words];
                for (acc, key_poly) in acc.chunks_exact_mut(n).zip(key_row.chunks_exact(n)) {
                    backend.mul_acc_lazy_batch(modulus, acc, digit, key_poly);
                }
            }
        }
        backend.inverse_batch(
            &self.tables[..slots * (self.k + 1)],
            prod,
            ExitFold::Canonical,
        );
    }

    /// `(job, product)` for every job that took part in the last step.
    pub(crate) fn products(&self) -> impl Iterator<Item = (usize, &[u64])> {
        let row_words = (self.k + 1) * self.ring.n();
        let jobs = self.slots.iter().map(|&(job, _)| job);
        jobs.zip(self.prod.chunks_exact(row_words))
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
            &self.words
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
        let (ring, sk, mut rng) = setup();
        let q = ring.q();
        let ggsw_one = Ggsw::encrypt_scalar(&ring, &sk, 1, 2, 10, 3.73e-9, &mut rng);
        let mut msg = ring.zero_poly();
        msg[0] = q / 8;
        msg[7] = q - q / 8;
        let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, 3.73e-9, &mut rng);
        let out = ggsw_one.external_product(&ring, &glwe);
        let phase = out.phase(&ring, &sk);
        let err = phase_error(&ring, &phase, &msg);
        assert!(err < (q / 64) as i64, "err {err}");
    }

    #[test]
    fn external_product_by_zero_kills_message() {
        let (ring, sk, mut rng) = setup();
        let q = ring.q();
        let ggsw_zero = Ggsw::encrypt_scalar(&ring, &sk, 0, 2, 10, 3.73e-9, &mut rng);
        let mut msg = ring.zero_poly();
        msg[0] = q / 4;
        let glwe = GlweCiphertext::encrypt(&ring, &sk, &msg, 3.73e-9, &mut rng);
        let out = ggsw_zero.external_product(&ring, &glwe);
        let phase = out.phase(&ring, &sk);
        let err = phase_error(&ring, &phase, &ring.zero_poly());
        assert!(err < (q / 64) as i64, "err {err}");
    }

    /// A gadget deeper than the modulus used to be accepted, and the
    /// reference decomposition truncated its rounded quotient to a word.
    #[test]
    #[should_panic(expected = "bootstrapping gadget deeper than the modulus")]
    fn encrypt_scalar_rejects_a_gadget_deeper_than_the_modulus() {
        let (ring, sk, mut rng) = setup();
        assert_eq!(ring.modulus().bits(), 32);
        Ggsw::encrypt_scalar(&ring, &sk, 1, 3, 11, 3.73e-9, &mut rng);
    }

    /// A GLWE of another dimension `k` is rejected at entry, before
    /// any kernel reads past its buffer.
    #[test]
    #[should_panic(expected = "GLWE shape")]
    fn external_product_rejects_a_glwe_of_another_k() {
        let (ring, sk, mut rng) = setup();
        let ggsw = Ggsw::encrypt_scalar(&ring, &sk, 1, 2, 10, 3.73e-9, &mut rng);
        ggsw.external_product(&ring, &GlweCiphertext::zero(&ring, 2));
    }
}
