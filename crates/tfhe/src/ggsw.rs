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
/// Row `(i, j)` (for component `i in 0..=k`, level `j in 1..=lb`)
/// encrypts `m * g_j` added at component `i`. For the NTT backend all
/// rows are stored in evaluation form; for the FFT backend rows are
/// stored as centered signed integers.
#[derive(Debug, Clone)]
pub struct Ggsw {
    k: usize,
    lb: usize,
    bg_log: u32,
    repr: GgswRepr,
}

#[derive(Debug, Clone)]
enum GgswRepr {
    /// `rows[r][component][coeff]` in NTT evaluation form.
    Ntt(Vec<Vec<Vec<u64>>>),
    /// `rows[r][component][coeff]` centered in `[-q/2, q/2)`.
    Fft(Vec<Vec<Vec<i64>>>),
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
        let q = ring.modulus();
        let mut rows = Vec::with_capacity((k + 1) * lb);
        for i in 0..=k {
            for j in 1..=lb {
                let zero = ring.zero_poly();
                let mut ct = GlweCiphertext::encrypt(ring, sk, &zero, noise_std, rng);
                if m != 0 {
                    let g = gadget_element(q.value(), bg_log, j);
                    let add = q.mul(q.reduce(m), g);
                    if i < k {
                        ct.mask[i][0] = q.add(ct.mask[i][0], add);
                    } else {
                        ct.body[0] = q.add(ct.body[0], add);
                    }
                }
                rows.push(ct);
            }
        }
        Self::prepare(ring, rows, k, lb, bg_log, backend)
    }

    fn prepare(
        ring: &TfheRing,
        rows: Vec<GlweCiphertext>,
        k: usize,
        lb: usize,
        bg_log: u32,
        backend: MulBackend,
    ) -> Self {
        let repr = match backend {
            MulBackend::Ntt => GgswRepr::Ntt(
                rows.into_iter()
                    .map(|ct| {
                        let mut comps = ct.mask;
                        comps.push(ct.body);
                        comps
                            .into_iter()
                            .map(|mut poly| {
                                ring.table().forward(&mut poly);
                                poly
                            })
                            .collect()
                    })
                    .collect(),
            ),
            MulBackend::Fft => GgswRepr::Fft(
                rows.into_iter()
                    .map(|ct| {
                        let mut comps = ct.mask;
                        comps.push(ct.body);
                        comps
                            .into_iter()
                            .map(|poly| ring.to_centered(&poly))
                            .collect()
                    })
                    .collect(),
            ),
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

    /// Measured heap bytes of this ciphertext's row storage (allocated
    /// `Vec` capacities at every nesting level) — one summand of
    /// [`crate::ServerKey::key_bytes`], the number a byte-budgeted key
    /// cache evicts by.
    pub fn heap_bytes(&self) -> usize {
        fn nested<T>(rows: &[Vec<Vec<T>>], cap: usize) -> usize {
            cap * std::mem::size_of::<Vec<Vec<T>>>()
                + rows
                    .iter()
                    .map(|row| {
                        row.capacity() * std::mem::size_of::<Vec<T>>()
                            + row
                                .iter()
                                .map(|c| c.capacity() * std::mem::size_of::<T>())
                                .sum::<usize>()
                    })
                    .sum::<usize>()
        }
        match &self.repr {
            GgswRepr::Ntt(rows) => nested(rows, rows.capacity()),
            GgswRepr::Fft(rows) => nested(rows, rows.capacity()),
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
    /// NTT-path concept).
    pub fn external_product_strict(
        &self,
        ring: &TfheRing,
        glwe: &GlweCiphertext,
    ) -> GlweCiphertext {
        let n = ring.n();
        let digits = self.decompose_digits(ring, std::iter::once(glwe));
        let GgswRepr::Ntt(rows) = &self.repr else {
            panic!("external_product_strict requires the NTT backend");
        };
        let mut acc = vec![vec![0u64; n]; self.k + 1];
        for (digit, row) in digits.chunks_exact(n).zip(rows) {
            let mut d = ring.poly_from_signed(digit);
            ring.table().forward_strict(&mut d);
            for (limb, key) in acc.iter_mut().zip(row) {
                ring.table().pointwise_mul_acc(limb, &d, key);
            }
        }
        glwe_from_components(acc.into_iter().map(|mut poly| {
            ring.table().inverse_strict(&mut poly);
            poly
        }))
    }

    /// Gadget-decomposes every component of every GLWE into `lb` digit
    /// rows (Algorithm 2 lines 6–8) with one dispatch through the
    /// active kernel backend, which may slice component rows across
    /// worker threads (the digit carry chain forbids slicing across
    /// levels). Digit `j` of GLWE `g`'s component `i` lands in row
    /// `g*(k+1)*lb + i*lb + j` — per GLWE exactly the GGSW row
    /// alignment. Shared by both reduction disciplines.
    fn decompose_digits<'a>(
        &self,
        ring: &TfheRing,
        glwes: impl Iterator<Item = &'a GlweCiphertext>,
    ) -> Vec<i64> {
        let n = ring.n();
        let mut src = Vec::new();
        for glwe in glwes {
            for mask in &glwe.mask {
                src.extend_from_slice(mask);
            }
            src.extend_from_slice(&glwe.body);
        }
        let mut digits = vec![0i64; src.len() * self.lb];
        kernel::active().decompose_batch(ring.q(), self.bg_log, self.lb, n, &src, &mut digits);
        digits
    }

    /// The external-product engine: `jobs[i].0 ⊡ jobs[i].1` for every
    /// job in one pass of wide kernel batch calls (Algorithm 2 lines
    /// 6–10). [`Self::external_product`] is its one-job instance.
    ///
    /// One gadget decomposition covers every job. NTT-keyed jobs then
    /// ride one lazy residue chain whose batch calls carry all their
    /// rows at once — the MATCHA-style "k independent bootstraps
    /// through one kernel dispatch" shape the worker pool can slice
    /// across threads: digit NTTs exit in `[0, 2p)`, the lazy
    /// multiply-accumulates run per gadget row in increasing row order,
    /// and one canonicalising iNTT per output limb is the chain's single
    /// ciphertext-boundary reduction. Rows never interact, so a job's
    /// output does not depend on its batch mates, and it is
    /// bit-identical to [`Self::external_product_strict`] (asserted by
    /// `tests/lazy_chains.rs`). FFT-keyed jobs are evaluated one by one
    /// from the shared digits (rounding there is per product).
    ///
    /// All jobs must share the gadget geometry (`k`, `lb`, `bg_log`)
    /// and live on `ring`.
    ///
    /// # Panics
    ///
    /// Panics if the jobs disagree on gadget geometry.
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
        let rows_per = (k + 1) * lb;
        let digits = head.decompose_digits(ring, jobs.iter().map(|&(_, glwe)| glwe));

        // The one place the key representation matters: FFT jobs finish
        // here, NTT jobs lift their digit rows into `fwd` for the chain.
        let mut out: Vec<Option<GlweCiphertext>> = vec![None; jobs.len()];
        let mut lazy: Vec<(usize, &[Vec<Vec<u64>>])> = Vec::with_capacity(jobs.len());
        let mut fwd = Vec::new();
        for (j, (ggsw, _)) in jobs.iter().enumerate() {
            let job_digits = &digits[j * rows_per * n..][..rows_per * n];
            match &ggsw.repr {
                GgswRepr::Ntt(rows) => {
                    lazy.push((j, rows));
                    fwd.extend(job_digits.iter().map(|&c| ring.modulus().from_i64(c)));
                }
                GgswRepr::Fft(rows) => out[j] = Some(fft_product(ring, k, rows, job_digits)),
            }
        }

        if !lazy.is_empty() {
            let tables: Vec<&NttTable> = vec![ring.table().as_ref(); lazy.len() * rows_per];
            kernel::active().forward_batch(&tables, &mut fwd, ExitFold::Lazy2p);

            // Accumulator row `slot*(k+1) + comp`; gadget rows accumulate
            // in increasing order whatever the batch width, so the lazy
            // sums agree word-for-word.
            let acc_rows = lazy.len() * (k + 1);
            let moduli = vec![*ring.modulus(); acc_rows];
            let mut acc = vec![0u64; acc_rows * n];
            let mut a_flat = vec![0u64; acc_rows * n];
            let mut b_flat = vec![0u64; acc_rows * n];
            for r in 0..rows_per {
                for (slot, (_, rows)) in lazy.iter().enumerate() {
                    let digit = &fwd[(slot * rows_per + r) * n..][..n];
                    for (comp, row) in rows[r].iter().enumerate() {
                        let at = (slot * (k + 1) + comp) * n;
                        a_flat[at..at + n].copy_from_slice(digit);
                        b_flat[at..at + n].copy_from_slice(row);
                    }
                }
                kernel::active().mul_acc_lazy_batch(&moduli, &mut acc, &a_flat, &b_flat);
            }
            kernel::active().inverse_batch(&tables[..acc_rows], &mut acc, ExitFold::Canonical);

            let mut limbs = acc.chunks_exact(n).map(<[u64]>::to_vec);
            for &(j, _) in &lazy {
                out[j] = Some(glwe_from_components(limbs.by_ref().take(k + 1)));
            }
        }
        out.into_iter()
            .map(|ct| ct.expect("every job is NTT- or FFT-keyed"))
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

/// Assembles a GLWE ciphertext from its `k + 1` component polynomials,
/// mask components first and the body last.
fn glwe_from_components(comps: impl Iterator<Item = Vec<u64>>) -> GlweCiphertext {
    let mut mask: Vec<Vec<u64>> = comps.collect();
    let body = mask.pop().expect("k+1 components");
    GlweCiphertext { mask, body }
}

/// One external product against FFT-prepared rows: per-row FFT products
/// accumulated in wide integers, then reduced — rounding error mirrors
/// real FFT accelerators.
fn fft_product(
    ring: &TfheRing,
    k: usize,
    rows: &[Vec<Vec<i64>>],
    digits: &[i64],
) -> GlweCiphertext {
    let q = ring.q() as i128;
    let mut acc = vec![vec![0i128; ring.n()]; k + 1];
    for (digit, row) in digits.chunks_exact(ring.n()).zip(rows) {
        for (limb, key) in acc.iter_mut().zip(row) {
            let prod = fhe_math::fft::negacyclic_mul_fft(digit, key);
            for (a, &p) in limb.iter_mut().zip(&prod) {
                *a += p as i128;
            }
        }
    }
    glwe_from_components(
        acc.iter()
            .map(|poly| poly.iter().map(|&x| x.rem_euclid(q) as u64).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
                assert_eq!(got.mask, want.mask);
                assert_eq!(got.body, want.body);
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
        assert_eq!(fft_only[0].body, mixed[0].body);
        assert_eq!(fft_only[1].mask, mixed[2].mask);
        for (i, ((ggsw, glwe), got)) in jobs.iter().zip(&mixed).enumerate() {
            let single = ggsw.external_product(&ring, glwe);
            assert_eq!(got.mask, single.mask, "job {i}");
            assert_eq!(got.body, single.body, "job {i}");
            if ggsw.backend() == MulBackend::Ntt {
                let strict = ggsw.external_product_strict(&ring, glwe);
                assert_eq!(got.body, strict.body, "job {i} vs strict");
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
