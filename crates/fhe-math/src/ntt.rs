//! Negacyclic Number Theoretic Transforms over `Z_p[X]/(X^N + 1)`.
//!
//! One transform and its oracle:
//!
//! * [`NttTable::forward`] / [`NttTable::inverse`] — the production hot
//!   path: in-place Cooley–Tukey / Gentleman–Sande with merged ψ-twisting
//!   **and Harvey lazy reduction**. Butterfly operands stay in `[0, 4p)`
//!   through the stages (forward) / `[0, 2p)` (inverse) and a single
//!   correction pass canonicalises the output, so each butterfly spends
//!   one conditional subtraction instead of three. Inputs and outputs
//!   are canonical residues in `[0, p)`.
//! * [`NttTable::forward_strict`] / [`NttTable::inverse_strict`] — the
//!   fully-reduced reference transform (every butterfly reduces to
//!   `[0, p)`), kept as the oracle the lazy path is asserted against.
//!
//! `forward` and `inverse` are one-row batches of the process-wide
//! [`crate::kernel::KernelBackend`] (the lazy-exit and MAC forms live
//! on its `*_batch` surface, which [`crate::RnsPoly`] wraps); the
//! `*_strict` oracles never dispatch, so the reference the backends
//! are asserted against stays fixed. The paper's hardware NTT
//! dataflows (the constant-geometry NTTU of §IV-C and the four-step
//! long NTT of §IV-E) are modelled by `trinity_core::ntt_engine`, not
//! here.

use crate::kernel::{self, ExitFold};
use crate::modulus::Modulus;
use crate::prime::primitive_root_of_unity;
use crate::util::{log2_exact, reverse_bits};

/// One butterfly twiddle table, structure-of-arrays: `w[i]` and, index
/// for index, its Shoup companion `ws[i]`, so a vector body loads
/// either with a plain unit-stride load.
#[derive(Debug, Clone)]
struct Twiddles {
    w: Vec<u64>,
    ws: Vec<u64>,
}

/// Precomputed tables for the negacyclic NTT of a fixed size and modulus.
#[derive(Debug, Clone)]
pub struct NttTable {
    modulus: Modulus,
    n: usize,
    /// psi^bitrev(i) for the forward transform.
    psi_rev: Twiddles,
    /// psi^{-bitrev(i)} for the inverse transform.
    psi_inv_rev: Twiddles,
    /// n^{-1} mod p as a Shoup pair.
    n_inv: (u64, u64),
}

impl NttTable {
    /// Builds NTT tables for ring degree `n` (a power of two) over `m`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or if the modulus does not
    /// satisfy `p ≡ 1 (mod 2n)` (no 2n-th root of unity exists).
    pub fn new(m: Modulus, n: usize) -> Self {
        let p = m.value();
        assert!(
            n.is_power_of_two() && n >= 2,
            "n must be a power of two >= 2"
        );
        assert_eq!(
            (p - 1) % (2 * n as u64),
            0,
            "modulus {p} is not NTT-friendly for n={n}"
        );
        let log_n = log2_exact(n);
        let psi = primitive_root_of_unity(&m, 2 * n as u64);
        let psi_inv = m.inv(psi).expect("psi invertible");

        let shoup = |w: u64| (w, m.shoup(w));
        let zeroed = || Twiddles {
            w: vec![0; n],
            ws: vec![0; n],
        };
        let (mut psi_rev, mut psi_inv_rev) = (zeroed(), zeroed());
        let mut pow_f = 1u64;
        let mut pow_i = 1u64;
        for i in 0..n {
            let r = reverse_bits(i, log_n);
            (psi_rev.w[r], psi_rev.ws[r]) = shoup(pow_f);
            (psi_inv_rev.w[r], psi_inv_rev.ws[r]) = shoup(pow_i);
            pow_f = m.mul(pow_f, psi);
            pow_i = m.mul(pow_i, psi_inv);
        }
        let n_inv = m.inv(n as u64).expect("n invertible mod prime");
        Self {
            modulus: m,
            n,
            psi_rev,
            psi_inv_rev,
            n_inv: shoup(n_inv),
        }
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The modulus these tables were built for.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.modulus
    }

    /// Backend SPI: the forward butterfly twiddles `psi^bitrev(i)` and,
    /// index for index, their Shoup companions — two slices of length
    /// `n` (see [`crate::kernel::KernelBackend`]).
    #[inline]
    pub fn psi_rev(&self) -> (&[u64], &[u64]) {
        (&self.psi_rev.w, &self.psi_rev.ws)
    }

    /// Backend SPI: the inverse butterfly twiddles `psi^{-bitrev(i)}`,
    /// laid out as [`Self::psi_rev`].
    #[inline]
    pub fn psi_inv_rev(&self) -> (&[u64], &[u64]) {
        (&self.psi_inv_rev.w, &self.psi_inv_rev.ws)
    }

    /// Backend SPI: `n^{-1} mod p` as a Shoup pair (the inverse
    /// transform's exit scaling constant).
    #[inline]
    pub fn n_inv(&self) -> (u64, u64) {
        self.n_inv
    }

    /// In-place forward negacyclic NTT (coefficient → evaluation form),
    /// using Harvey lazy reduction.
    ///
    /// Input and output are in natural order; the output is canonical
    /// (`[0, p)`) and the input may be canonical or a lazy `[0, 2p)`
    /// representative. *Between* butterfly stages values roam in
    /// `[0, 4p)` — each butterfly does one conditional subtraction (on
    /// its upper operand) instead of three, and a single correction pass
    /// at the end maps everything back to `[0, p)`. Sound because
    /// `p < 2^62`, so `4p` fits a `u64` with headroom.
    ///
    /// Bit-identical to [`Self::forward_strict`] (asserted by tests).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        crate::debug_assert_domain!(slice_within_2p: self.modulus, a, "forward");
        kernel::active().forward_batch(&[self], a, ExitFold::Canonical);
    }

    /// In-place inverse negacyclic NTT (evaluation → coefficient form),
    /// using Harvey lazy reduction (values stay in `[0, 2p)` through the
    /// Gentleman–Sande stages; the final `n^{-1}` scaling pass
    /// canonicalises). Accepts canonical or lazy `[0, 2p)` input and
    /// returns canonical output. Bit-identical to
    /// [`Self::inverse_strict`] on canonical input.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        crate::debug_assert_domain!(slice_within_2p: self.modulus, a, "inverse");
        kernel::active().inverse_batch(&[self], a, ExitFold::Canonical);
    }

    /// Fully-reduced forward transform: every butterfly reduces to
    /// `[0, p)`. Kept as the reference oracle for the lazy hot path (and
    /// as the strict comparator in the `ntt_lazy_vs_strict` bench).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn forward_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        crate::debug_assert_domain!(slice_canonical: self.modulus, a, "forward_strict");
        let m = &self.modulus;
        let mut t = self.n;
        let mut groups = 1usize;
        while groups < self.n {
            t >>= 1;
            for i in 0..groups {
                let (w, ws) = (self.psi_rev.w[groups + i], self.psi_rev.ws[groups + i]);
                let j1 = 2 * i * t;
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = m.mul_shoup(a[j + t], w, ws);
                    a[j] = m.add(u, v);
                    a[j + t] = m.sub(u, v);
                }
            }
            groups <<= 1;
        }
    }

    /// Fully-reduced inverse transform — the strict counterpart of
    /// [`Self::inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.n()`.
    pub fn inverse_strict(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n);
        crate::debug_assert_domain!(slice_canonical: self.modulus, a, "inverse_strict");
        let m = &self.modulus;
        let mut t = 1usize;
        let mut groups = self.n;
        while groups > 1 {
            let h = groups >> 1;
            let mut j1 = 0usize;
            for i in 0..h {
                let (w, ws) = (self.psi_inv_rev.w[h + i], self.psi_inv_rev.ws[h + i]);
                for j in j1..j1 + t {
                    let u = a[j];
                    let v = a[j + t];
                    a[j] = m.add(u, v);
                    a[j + t] = m.mul_shoup(m.sub(u, v), w, ws);
                }
                j1 += 2 * t;
            }
            t <<= 1;
            groups = h;
        }
        let (ni, nis) = self.n_inv;
        for x in a.iter_mut() {
            *x = m.mul_shoup(*x, ni, nis);
        }
    }

    /// Pointwise multiply-accumulate in evaluation form:
    /// `acc[i] += a[i] * b[i] mod p`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `self.n()`.
    pub fn pointwise_mul_acc(&self, acc: &mut [u64], a: &[u64], b: &[u64]) {
        assert_eq!(acc.len(), self.n);
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        let m = &self.modulus;
        crate::debug_assert_domain!(slice_canonical: m, acc, "pointwise_mul_acc (acc)");
        crate::debug_assert_domain!(slice_canonical: m, a, "pointwise_mul_acc (a)");
        crate::debug_assert_domain!(slice_canonical: m, b, "pointwise_mul_acc (b)");
        for i in 0..self.n {
            acc[i] = m.reduce_u128(a[i] as u128 * b[i] as u128 + acc[i] as u128);
        }
    }

    /// Negacyclic polynomial multiplication through the NTT.
    ///
    /// Convenience used pervasively by tests: `c = a * b mod (X^n+1, p)`.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths differ from `self.n()`.
    #[must_use]
    pub fn negacyclic_mul(&self, a: &[u64], b: &[u64]) -> Vec<u64> {
        assert_eq!(a.len(), self.n);
        assert_eq!(b.len(), self.n);
        let mut fa = a.to_vec();
        let mut fb = b.to_vec();
        self.forward(&mut fa);
        self.forward(&mut fb);
        let m = &self.modulus;
        for i in 0..self.n {
            fa[i] = m.mul(fa[i], fb[i]);
        }
        self.inverse(&mut fa);
        fa
    }
}

/// Schoolbook negacyclic multiplication, used as a test oracle.
///
/// Computes `a * b mod (X^n + 1)` in O(n^2).
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
pub fn negacyclic_mul_schoolbook(m: &Modulus, a: &[u64], b: &[u64]) -> Vec<u64> {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let k = i + j;
            let prod = m.mul(ai, bj);
            if k < n {
                out[k] = m.add(out[k], prod);
            } else {
                out[k - n] = m.sub(out[k - n], prod);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn table(bits: u32, n: usize) -> NttTable {
        let p = ntt_primes(bits, n, 1)[0];
        NttTable::new(Modulus::new(p).unwrap(), n)
    }

    fn rand_poly(rng: &mut StdRng, m: &Modulus, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..m.value())).collect()
    }

    #[test]
    fn forward_inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [4usize, 16, 64, 256, 1024] {
            let t = table(50, n);
            let a = rand_poly(&mut rng, t.modulus(), n);
            let mut b = a.clone();
            t.forward(&mut b);
            assert_ne!(a, b, "transform should change data");
            t.inverse(&mut b);
            assert_eq!(a, b, "roundtrip failed for n={n}");
        }
    }

    #[test]
    fn lazy_forward_inverse_equal_strict() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [4usize, 16, 256, 2048] {
            for bits in [30u32, 45, 61] {
                let t = table(bits, n);
                let a = rand_poly(&mut rng, t.modulus(), n);
                let mut lazy = a.clone();
                let mut strict = a.clone();
                t.forward(&mut lazy);
                t.forward_strict(&mut strict);
                assert_eq!(lazy, strict, "forward mismatch n={n} bits={bits}");
                t.inverse(&mut lazy);
                t.inverse_strict(&mut strict);
                assert_eq!(lazy, strict, "inverse mismatch n={n} bits={bits}");
                assert_eq!(lazy, a, "roundtrip mismatch n={n} bits={bits}");
            }
        }
    }

    #[test]
    fn lazy_in_lazy_out_matches_strict_after_fold() {
        // Lazy-exit one-row batches (the calls ggsw.rs and keyswitch.rs
        // make) on [0, 2p) inputs must be congruent to the strict
        // oracle, and bit-identical once folded.
        let k = kernel::active();
        let mut rng = StdRng::seed_from_u64(23);
        for n in [4usize, 64, 1024] {
            for bits in [30u32, 45, 61] {
                let t = table(bits, n);
                let m = t.modulus();
                let p = m.value();
                let a = rand_poly(&mut rng, m, n);
                // Lift to random [0, 2p) representatives of the same values.
                let lifted: Vec<u64> = a
                    .iter()
                    .map(|&x| if rng.gen::<bool>() { x + p } else { x })
                    .collect();

                let mut strict = a.clone();
                t.forward_strict(&mut strict);

                let mut lazy = lifted.clone();
                k.forward_batch(&[&t], &mut lazy, ExitFold::Lazy2p);
                assert!(lazy.iter().all(|&x| x < 2 * p), "n={n} bits={bits}");
                let mut folded = lazy.clone();
                k.fold_2p_to_canonical_batch(&[*m], &mut folded);
                assert_eq!(folded, strict, "forward n={n} bits={bits}");

                // Chain: lazy inverse directly on the lazy spectrum.
                k.inverse_batch(&[&t], &mut lazy, ExitFold::Lazy2p);
                assert!(lazy.iter().all(|&x| x < 2 * p));
                k.fold_2p_to_canonical_batch(&[*m], &mut lazy);
                t.inverse_strict(&mut strict);
                assert_eq!(lazy, strict, "roundtrip n={n} bits={bits}");
                assert_eq!(lazy, a, "roundtrip value n={n} bits={bits}");
            }
        }
    }

    #[test]
    fn lazy_mul_acc_matches_strict_after_fold() {
        let mut rng = StdRng::seed_from_u64(24);
        let t = table(50, 256);
        let m = t.modulus();
        let p = m.value();
        let a = rand_poly(&mut rng, m, 256);
        let b = rand_poly(&mut rng, m, 256);
        let mut acc_strict = rand_poly(&mut rng, m, 256);
        // Lazy accumulator starts from [0, 2p) representatives.
        let mut acc_lazy: Vec<u64> = acc_strict
            .iter()
            .map(|&x| if rng.gen::<bool>() { x + p } else { x })
            .collect();
        let a_lazy: Vec<u64> = a
            .iter()
            .map(|&x| if rng.gen::<bool>() { x + p } else { x })
            .collect();
        for _ in 0..3 {
            t.pointwise_mul_acc(&mut acc_strict, &a, &b);
            kernel::active().mul_acc_lazy_batch(&[*m], &mut acc_lazy, &a_lazy, &b);
        }
        assert!(acc_lazy.iter().all(|&x| x < 2 * p));
        kernel::active().fold_2p_to_canonical_batch(&[*m], &mut acc_lazy);
        assert_eq!(acc_lazy, acc_strict);
    }

    #[test]
    #[should_panic(expected = "leaked")]
    #[cfg(debug_assertions)]
    fn strict_kernel_rejects_lazy_residue() {
        let t = table(36, 16);
        let p = t.modulus().value();
        let mut a = vec![0u64; 16];
        a[3] = p + 1; // a [0, 2p) representative, not canonical
        t.forward_strict(&mut a);
    }

    #[test]
    fn ntt_mul_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [8usize, 32, 128] {
            let t = table(36, n);
            let a = rand_poly(&mut rng, t.modulus(), n);
            let b = rand_poly(&mut rng, t.modulus(), n);
            let via_ntt = t.negacyclic_mul(&a, &b);
            let oracle = negacyclic_mul_schoolbook(t.modulus(), &a, &b);
            assert_eq!(via_ntt, oracle, "n={n}");
        }
    }

    #[test]
    fn multiplication_by_x_shifts_negacyclically() {
        let t = table(36, 16);
        // a = X, b arbitrary: X*b rotates coefficients with sign flip.
        let mut a = vec![0u64; 16];
        a[1] = 1;
        let b: Vec<u64> = (1..=16u64).collect();
        let c = t.negacyclic_mul(&a, &b);
        let p = t.modulus().value();
        assert_eq!(c[0], p - 16); // -b[15]
        for i in 1..16 {
            assert_eq!(c[i], b[i - 1]);
        }
    }

    #[test]
    fn pointwise_mul_acc_accumulates() {
        let t = table(36, 8);
        let m = *t.modulus();
        let a = vec![2u64; 8];
        let b = vec![3u64; 8];
        let mut acc = vec![1u64; 8];
        t.pointwise_mul_acc(&mut acc, &a, &b);
        assert_eq!(acc, vec![7u64; 8]);
        t.pointwise_mul_acc(&mut acc, &a, &b);
        assert_eq!(acc, vec![13u64; 8]);
        let _ = m;
    }

    #[test]
    fn linearity_of_transform() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = table(40, 128);
        let m = *t.modulus();
        let a = rand_poly(&mut rng, &m, 128);
        let b = rand_poly(&mut rng, &m, 128);
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fs = sum.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fs);
        for i in 0..128 {
            assert_eq!(fs[i], m.add(fa[i], fb[i]));
        }
    }

    #[test]
    #[should_panic(expected = "not NTT-friendly")]
    fn rejects_unfriendly_modulus() {
        // 97 ≡ 1 mod 32 but not mod 64.
        let _ = NttTable::new(Modulus::new(97).unwrap(), 32);
    }
}
