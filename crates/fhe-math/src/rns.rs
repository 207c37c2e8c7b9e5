//! Residue Number System (RNS) bases and fast base conversion.
//!
//! RNS-CKKS (§II-A of the Trinity paper) decomposes a wide coefficient
//! modulus `Q = prod q_i` into word-size limbs. The `BConv` kernel —
//! one of the paper's core arithmetic kernels, executed on Trinity's CU
//! systolic arrays — is the fast base conversion of Halevi–Polyakov–Shoup:
//!
//! ```text
//! BConv_{A -> B}(x)_j = sum_i [ x_i * (A/a_i)^{-1} ]_{a_i} * |A/a_i|_{b_j}  (mod b_j)
//! ```
//!
//! which is exactly an `(alpha x N) x (alpha x l)` matrix product — the
//! reason it maps onto a MAC array (§III-C). The approximate variant may
//! overshoot by a small multiple of `A`; [`BasisConverter::convert_exact`]
//! removes the overshoot with a floating-point correction.

use std::sync::Arc;

use crate::bigint::{product, UBig};
use crate::modulus::Modulus;
use crate::ntt::NttTable;

/// An ordered RNS basis: distinct NTT-friendly primes with shared ring
/// degree, with one NTT table per prime.
#[derive(Debug, Clone)]
pub struct RnsBasis {
    moduli: Vec<Modulus>,
    tables: Vec<Arc<NttTable>>,
    n: usize,
}

/// Panics unless every prime in `primes` is distinct.
fn assert_distinct(primes: impl IntoIterator<Item = u64>) {
    let mut seen = std::collections::HashSet::new();
    for p in primes {
        assert!(seen.insert(p), "duplicate prime {p} in RNS basis");
    }
}

impl RnsBasis {
    /// Builds a basis over `primes` for ring degree `n`.
    ///
    /// # Panics
    ///
    /// Panics if primes are not distinct, or any prime is not
    /// NTT-friendly for `n`.
    pub fn new(primes: &[u64], n: usize) -> Self {
        assert_distinct(primes.iter().copied());
        let moduli: Vec<Modulus> = primes
            .iter()
            .map(|&p| Modulus::new(p).expect("prime in range"))
            .collect();
        let tables = moduli
            .iter()
            .map(|&m| Arc::new(NttTable::new(m, n)))
            .collect();
        Self { moduli, tables, n }
    }

    /// Ring degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of limbs.
    #[inline]
    pub fn len(&self) -> usize {
        self.moduli.len()
    }

    /// True when the basis has no limbs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.moduli.is_empty()
    }

    /// The moduli, in order.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// The NTT tables, in order (aligned with [`Self::moduli`]).
    #[inline]
    pub fn tables(&self) -> &[Arc<NttTable>] {
        &self.tables
    }

    /// Modulus of limb `i`.
    #[inline]
    pub fn modulus(&self, i: usize) -> &Modulus {
        &self.moduli[i]
    }

    /// NTT table of limb `i`.
    #[inline]
    pub fn table(&self, i: usize) -> &Arc<NttTable> {
        &self.tables[i]
    }

    /// Product of all moduli as a big integer.
    pub fn modulus_product(&self) -> UBig {
        product(self.moduli.iter().map(|m| m.value()))
    }

    /// Returns the sub-basis consisting of the first `k` limbs.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.len()` or `k == 0`.
    pub fn prefix(&self, k: usize) -> RnsBasis {
        assert!(k > 0 && k <= self.len());
        Self {
            moduli: self.moduli[..k].to_vec(),
            tables: self.tables[..k].to_vec(),
            n: self.n,
        }
    }

    /// Returns a sub-basis over the given limb indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select(&self, idx: &[usize]) -> RnsBasis {
        Self {
            moduli: idx.iter().map(|&i| self.moduli[i]).collect(),
            tables: idx.iter().map(|&i| self.tables[i].clone()).collect(),
            n: self.n,
        }
    }

    /// Concatenates two bases (over the same ring degree), sharing the
    /// parts' NTT tables rather than building new ones.
    ///
    /// # Panics
    ///
    /// Panics if ring degrees differ or primes collide.
    pub fn concat(&self, other: &RnsBasis) -> RnsBasis {
        assert_eq!(self.n, other.n);
        let moduli: Vec<Modulus> = [&self.moduli[..], &other.moduli[..]].concat();
        assert_distinct(moduli.iter().map(|m| m.value()));
        Self {
            moduli,
            tables: [&self.tables[..], &other.tables[..]].concat(),
            n: self.n,
        }
    }

    /// CRT-reconstructs the centered value of the residue vector `x`
    /// (one residue per limb) as an `f64`.
    ///
    /// The result is exact to f64 precision for values up to ~2^52 and
    /// approximate beyond; CKKS decoding divides by the scale right after,
    /// so the relative error is what matters.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn crt_to_centered_f64(&self, x: &[u64]) -> f64 {
        assert_eq!(x.len(), self.len());
        let q = self.modulus_product();
        // v = sum_i c_i * (Q/q_i) mod Q with c_i = [x_i * (Q/q_i)^{-1}]_{q_i}
        let mut v = UBig::zero();
        for (i, m) in self.moduli.iter().enumerate() {
            let qi = m.value();
            // Q/q_i mod q_i:
            let mut q_hat_mod = 1u64;
            for (j, mj) in self.moduli.iter().enumerate() {
                if j != i {
                    q_hat_mod = m.mul(q_hat_mod, m.reduce(mj.value()));
                }
            }
            let q_hat_inv = m.inv(q_hat_mod).expect("coprime moduli");
            let c = m.mul(m.reduce(x[i]), q_hat_inv);
            // Q/q_i as UBig:
            let mut q_over = UBig::from_u64(1);
            for (j, mj) in self.moduli.iter().enumerate() {
                if j != i {
                    q_over = q_over.mul_u64(mj.value());
                }
            }
            v.add_assign(&q_over.mul_u64(c));
            let _ = qi;
        }
        v.reduce_by(&q);
        let half = q.half();
        if v > half {
            let mut neg = q;
            neg.sub_assign(&v);
            -neg.to_f64()
        } else {
            v.to_f64()
        }
    }
}

/// Precomputed fast base conversion from basis `A` to basis `B`.
#[derive(Debug, Clone)]
pub struct BasisConverter {
    from: RnsBasis,
    to: RnsBasis,
    /// `(A/a_i)^{-1} mod a_i`, Shoup pairs per source limb.
    a_hat_inv: Vec<(u64, u64)>,
    /// `|A/a_i| mod b_j`, flat row-major per **output** limb
    /// (`[j*alpha + i]`) — the weight layout
    /// [`crate::kernel::KernelBackend::convert_approx_batch`] consumes,
    /// so each output row's `alpha` weights are one contiguous slice —
    /// the per-row weight operand of the wide BConv body.
    a_hat_mod_b: Vec<u64>,
    /// `A mod b_j` for the exact correction.
    a_mod_b: Vec<u64>,
    /// `1/a_i` as f64, for the overshoot estimate.
    a_inv_f64: Vec<f64>,
}

impl BasisConverter {
    /// Precomputes conversion tables from `from` to `to`.
    ///
    /// # Panics
    ///
    /// Panics if the two bases share a prime (conversion would be
    /// ill-defined) or differ in ring degree.
    pub fn new(from: &RnsBasis, to: &RnsBasis) -> Self {
        assert_eq!(from.n(), to.n(), "ring degree mismatch");
        // The conversion kernels accumulate `alpha` products of two
        // sub-2^62 residues in a u128: each term is < 2^124, so the sum
        // stays below 2^128 only for alpha <= 16. Real digit bases are
        // far smaller; enforce the bound at construction.
        assert!(
            from.len() <= 16,
            "source basis too wide ({} limbs) for u128 BConv accumulation",
            from.len()
        );
        for a in from.moduli() {
            for b in to.moduli() {
                assert_ne!(a.value(), b.value(), "bases must be disjoint");
            }
        }
        let alpha = from.len();
        let mut a_hat_inv = Vec::with_capacity(alpha);
        let mut a_hat_mod_b = vec![0u64; to.len() * alpha];
        for i in 0..alpha {
            let ai = from.modulus(i);
            let mut hat_mod_ai = 1u64;
            for (j, aj) in from.moduli().iter().enumerate() {
                if j != i {
                    hat_mod_ai = ai.mul(hat_mod_ai, ai.reduce(aj.value()));
                }
            }
            let inv = ai.inv(hat_mod_ai).expect("coprime moduli");
            a_hat_inv.push((inv, ai.shoup(inv)));

            for (j, bj) in to.moduli().iter().enumerate() {
                let mut hat_mod_bj = 1u64;
                for (j2, aj) in from.moduli().iter().enumerate() {
                    if j2 != i {
                        hat_mod_bj = bj.mul(hat_mod_bj, bj.reduce(aj.value()));
                    }
                }
                a_hat_mod_b[j * alpha + i] = hat_mod_bj;
            }
        }
        let a_mod_b = to
            .moduli()
            .iter()
            .map(|bj| {
                let mut acc = 1u64;
                for ai in from.moduli() {
                    acc = bj.mul(acc, bj.reduce(ai.value()));
                }
                acc
            })
            .collect();
        let a_inv_f64 = from
            .moduli()
            .iter()
            .map(|m| 1.0 / m.value() as f64)
            .collect();
        Self {
            from: from.clone(),
            to: to.clone(),
            a_hat_inv,
            a_hat_mod_b,
            a_mod_b,
            a_inv_f64,
        }
    }

    /// Destination basis.
    pub fn to_basis(&self) -> &RnsBasis {
        &self.to
    }

    /// Approximate fast base conversion of a coefficient vector.
    ///
    /// `src` is a **flat, limb-major** buffer of `alpha * n` residues
    /// (limb `i` at `src[i*n .. (i+1)*n]`, matching
    /// [`crate::RnsPoly::flat`]); returns a flat `to.len() * n` buffer in
    /// the same layout. The result may exceed the true value by a small
    /// multiple of `A` (bounded by `alpha`), which RNS-CKKS tolerates as
    /// extra noise — this is the hardware `BConv` kernel of the paper.
    /// Allocating wrapper of [`Self::convert_approx_into`].
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not `from.len() * n`.
    pub fn convert_approx(&self, src: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.to.len() * self.to.n()];
        self.convert_approx_into(src, &mut out);
        out
    }

    /// [`Self::convert_approx`] into caller-owned rows: `out` receives
    /// the `to.len() * n` converted residues (every word is overwritten).
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not `from.len() * n` or `out.len()` is
    /// not `to.len() * n`.
    pub fn convert_approx_into(&self, src: &[u64], out: &mut [u64]) {
        self.with_premultiplied(src, out.len(), |y| {
            // out_j = sum_i y_i * |A/a_i|_{b_j} — the systolic-array
            // matmul, dispatched through the active kernel backend,
            // which may slice the output-limb rows across worker
            // threads (bit-identical by the backend contract).
            crate::kernel::active().convert_approx_batch(
                self.to.moduli(),
                &self.a_hat_mod_b,
                y,
                out,
            );
        });
    }

    /// Exact base conversion using the floating-point overshoot estimate
    /// (Halevi–Polyakov–Shoup): computes `round(sum y_i / a_i)` and
    /// subtracts that multiple of `A mod b_j`.
    ///
    /// Exact when the underlying value is not pathologically close to a
    /// multiple of `A` (always true for FHE noise distributions). Flat,
    /// limb-major layout as in [`Self::convert_approx`]. Allocating
    /// wrapper of [`Self::convert_exact_into`].
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not `from.len() * n`.
    pub fn convert_exact(&self, src: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.to.len() * self.to.n()];
        self.convert_exact_into(src, &mut out);
        out
    }

    /// [`Self::convert_exact`] into caller-owned rows, as
    /// [`Self::convert_approx_into`].
    ///
    /// # Panics
    ///
    /// Panics if `src.len()` is not `from.len() * n` or `out.len()` is
    /// not `to.len() * n`.
    pub fn convert_exact_into(&self, src: &[u64], out: &mut [u64]) {
        self.with_premultiplied(src, out.len(), |y| {
            crate::scratch::with_scratch(self.from.n(), |v| {
                // The overshoot multiples are computed once, here, so
                // every backend applies the identical correction no
                // matter how it schedules the output-limb rows.
                self.overshoot_estimates(y, v);
                crate::kernel::active().convert_exact_batch(
                    self.to.moduli(),
                    &self.a_hat_mod_b,
                    &self.a_mod_b,
                    v,
                    y,
                    out,
                );
            });
        });
    }

    /// The shared front of both conversions: checks the flat geometry
    /// (`src` over `from`, `out_len` words over `to`) and runs `f` on
    /// the premultiplied digits of `src`, leased from the scratch pool.
    fn with_premultiplied(&self, src: &[u64], out_len: usize, f: impl FnOnce(&[u64])) {
        let n = self.from.n();
        let alpha = self.from.len();
        assert_eq!(src.len(), alpha * n, "wrong flat source length");
        assert_eq!(out_len, self.to.len() * n, "wrong flat output length");
        crate::scratch::with_scratch(alpha * n, |y| {
            self.premultiply(src, y);
            f(y);
        });
    }

    /// `v[c] = round(sum_i y_i[c] / a_i)` — the HPS overshoot multiple
    /// per coefficient, via Neumaier-compensated summation so the
    /// estimate stays correctly rounded even at `alpha = 16` with
    /// 59-bit limbs, where naive accumulation can drift across a `.5`
    /// rounding boundary.
    fn overshoot_estimates(&self, y: &[u64], v: &mut [u64]) {
        let n = self.from.n();
        let alpha = self.from.len();
        for (c, vc) in v.iter_mut().enumerate() {
            let mut sum = 0.0f64;
            let mut comp = 0.0f64;
            for (i, &a_inv) in self.a_inv_f64.iter().enumerate() {
                let term = y[i * n + c] as f64 * a_inv;
                let t = sum + term;
                // Neumaier: recover the low-order bits the add dropped.
                comp += if sum.abs() >= term.abs() {
                    (sum - t) + term
                } else {
                    (term - t) + sum
                };
                sum = t;
            }
            let est = (sum + comp).round();
            // Every term is in [0, 1), so the true sum lies in
            // [0, alpha]. An estimate outside that range means the
            // summation itself broke — fail loudly instead of letting
            // `as u64` saturate to 0 or clamp silently.
            debug_assert!(
                (0.0..=alpha as f64).contains(&est),
                "BConv overshoot estimate {est} outside [0, {alpha}] at coefficient {c}"
            );
            *vc = est as u64;
        }
    }

    /// `y_i = [x_i * (A/a_i)^{-1}]_{a_i}` for every source limb (flat
    /// layout), the shared first step of both conversions. Inputs must
    /// be canonical residues (`mul_shoup` debug-asserts this), matching
    /// the crate-wide invariant.
    fn premultiply(&self, src: &[u64], y: &mut [u64]) {
        let n = self.from.n();
        for (i, (yrow, xrow)) in y.chunks_exact_mut(n).zip(src.chunks_exact(n)).enumerate() {
            let ai = self.from.modulus(i);
            let (w, ws) = self.a_hat_inv[i];
            for (yc, &xc) in yrow.iter_mut().zip(xrow) {
                *yc = ai.mul_shoup(xc, w, ws);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::ntt_primes;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn two_bases(n: usize) -> (RnsBasis, RnsBasis) {
        let primes = ntt_primes(40, n, 6);
        (
            RnsBasis::new(&primes[..3], n),
            RnsBasis::new(&primes[3..], n),
        )
    }

    #[test]
    fn basis_product_and_prefix() {
        let (a, _) = two_bases(64);
        let q = a.modulus_product();
        assert_eq!(q.bits() as usize, 120); // three 40-bit primes
        let p = a.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.modulus(0).value(), a.modulus(0).value());
    }

    #[test]
    fn crt_reconstruction_small_values() {
        let (a, _) = two_bases(16);
        for val in [-1234567i64, 0, 1, 98765432100] {
            let residues: Vec<u64> = a.moduli().iter().map(|m| m.from_i64(val)).collect();
            let rec = a.crt_to_centered_f64(&residues);
            assert!((rec - val as f64).abs() < 1e-3, "val={val} rec={rec}");
        }
    }

    #[test]
    fn exact_conversion_matches_true_value() {
        let (a, b) = two_bases(32);
        let conv = BasisConverter::new(&a, &b);
        let mut rng = StdRng::seed_from_u64(12);
        // Random centered values well below A/2.
        let vals: Vec<i64> = (0..32)
            .map(|_| rng.gen_range(-(1i64 << 58)..(1 << 58)))
            .collect();
        let n = 32usize;
        let src: Vec<u64> = a
            .moduli()
            .iter()
            .flat_map(|m| vals.iter().map(|&v| m.from_i64(v)).collect::<Vec<_>>())
            .collect();
        let out = conv.convert_exact(&src);
        for (j, bj) in b.moduli().iter().enumerate() {
            for (c, &v) in vals.iter().enumerate() {
                assert_eq!(out[j * n + c], bj.from_i64(v), "limb {j} coeff {c}");
            }
        }
    }

    #[test]
    fn approx_conversion_off_by_multiple_of_a() {
        let (a, b) = two_bases(8);
        let conv = BasisConverter::new(&a, &b);
        let mut rng = StdRng::seed_from_u64(13);
        let n = 8usize;
        let vals: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() >> 5).collect();
        let src: Vec<u64> = a
            .moduli()
            .iter()
            .flat_map(|m| vals.iter().map(|&v| m.reduce(v)).collect::<Vec<_>>())
            .collect();
        let out = conv.convert_approx(&src);
        let a_prod = a.modulus_product();
        for (j, bj) in b.moduli().iter().enumerate() {
            for (c, &v) in vals.iter().enumerate() {
                // out = v + k*A (mod b_j) for k in 0..=alpha
                let mut found = false;
                let mut shift = UBig::zero();
                for _k in 0..=a.len() {
                    let mut t = shift.clone();
                    t.add_assign(&UBig::from_u64(v));
                    if out[j * n + c] == bj.reduce(t.rem_u64(bj.value())) {
                        found = true;
                        break;
                    }
                    shift.add_assign(&a_prod);
                }
                assert!(found, "limb {j} coeff {c}: overshoot not in range");
            }
        }
    }

    /// CRT-reconstructs the full value of one residue vector as a wide
    /// integer in `[0, A)` — the oracle the exact conversion is checked
    /// against.
    fn crt_value(basis: &RnsBasis, x: &[u64]) -> UBig {
        let q = basis.modulus_product();
        let mut v = UBig::zero();
        for (i, m) in basis.moduli().iter().enumerate() {
            let mut q_hat_mod = 1u64;
            for (j, mj) in basis.moduli().iter().enumerate() {
                if j != i {
                    q_hat_mod = m.mul(q_hat_mod, m.reduce(mj.value()));
                }
            }
            let q_hat_inv = m.inv(q_hat_mod).expect("coprime moduli");
            let c = m.mul(m.reduce(x[i]), q_hat_inv);
            let mut q_over = UBig::from_u64(1);
            for (j, mj) in basis.moduli().iter().enumerate() {
                if j != i {
                    q_over = q_over.mul_u64(mj.value());
                }
            }
            v.add_assign(&q_over.mul_u64(c));
        }
        v.reduce_by(&q);
        v
    }

    /// The widest supported conversion geometry: 16 source limbs of 59
    /// bits feeding 2 destination limbs.
    fn widest_bases(n: usize) -> (RnsBasis, RnsBasis) {
        let primes = ntt_primes(59, n, 18);
        (
            RnsBasis::new(&primes[..16], n),
            RnsBasis::new(&primes[16..], n),
        )
    }

    /// Regression net for the overshoot mis-rounding bug-class at the
    /// alpha = 16 / 59-bit boundary: values within `~A * 2^-30` of the
    /// `A/2` rounding boundary must still convert to their exact
    /// centered representative on both sides. The compensated summation
    /// keeps the f64 estimate correctly rounded here; the old naive
    /// accumulation had no such guarantee.
    #[test]
    fn exact_conversion_boundary_alpha16_59bit() {
        let n = 8usize;
        let (a, b) = widest_bases(n);
        let conv = BasisConverter::new(&a, &b);
        let big_a = a.modulus_product();
        let delta = big_a.div_u64(1 << 30);

        // x_lo = (A-1)/2 - delta, just below the boundary: the centered
        // representative is x_lo itself.
        let mut x_lo = big_a.half();
        x_lo.sub_assign(&delta);
        // x_hi = (A-1)/2 + delta + 1, just above: the centered
        // representative is x_hi - A = -x_lo (A - x_hi == x_lo).
        let mut x_hi = big_a.half();
        x_hi.add_assign(&delta);
        x_hi.add_assign(&UBig::from_u64(1));

        for (x, below) in [(&x_lo, true), (&x_hi, false)] {
            let src: Vec<u64> = a
                .moduli()
                .iter()
                .flat_map(|m| vec![x.rem_u64(m.value()); n])
                .collect();
            let out = conv.convert_exact(&src);
            for (j, bj) in b.moduli().iter().enumerate() {
                let expect = if below {
                    bj.reduce(x.rem_u64(bj.value()))
                } else {
                    bj.neg(bj.reduce(x_lo.rem_u64(bj.value())))
                };
                for c in 0..n {
                    assert_eq!(out[j * n + c], expect, "below={below} limb {j} coeff {c}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// `convert_exact` must agree with the wide-integer CRT oracle
        /// on uniformly random residue vectors at the widest geometry:
        /// every output limb carries the centered representative of the
        /// source value.
        #[test]
        fn exact_conversion_matches_wide_integer_oracle(seed in proptest::prelude::any::<u64>()) {
            let n = 4usize;
            let (a, b) = widest_bases(n);
            let conv = BasisConverter::new(&a, &b);
            let big_a = a.modulus_product();
            let half = big_a.half();
            let mut rng = StdRng::seed_from_u64(seed);
            let src: Vec<u64> = a
                .moduli()
                .iter()
                .flat_map(|m| (0..n).map(|_| rng.gen_range(0..m.value())).collect::<Vec<_>>())
                .collect();
            let out = conv.convert_exact(&src);
            for c in 0..n {
                let residues: Vec<u64> = (0..a.len()).map(|i| src[i * n + c]).collect();
                let x = crt_value(&a, &residues);
                // Exactness is only contracted away from the A/2
                // rounding boundary; uniform values land in that
                // sliver with probability ~2^-19 per coefficient.
                prop_assume!((x.to_f64() / big_a.to_f64() - 0.5).abs() > 1e-6);
                for (j, bj) in b.moduli().iter().enumerate() {
                    let expect = if x > half {
                        let mut neg = big_a.clone();
                        neg.sub_assign(&x);
                        bj.neg(bj.reduce(neg.rem_u64(bj.value())))
                    } else {
                        bj.reduce(x.rem_u64(bj.value()))
                    };
                    prop_assert_eq!(out[j * n + c], expect, "coeff {} limb {}", c, j);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_bases_rejected() {
        let primes = ntt_primes(40, 16, 3);
        let a = RnsBasis::new(&primes[..2], 16);
        let b = RnsBasis::new(&primes[1..], 16);
        let _ = BasisConverter::new(&a, &b);
    }

    #[test]
    fn concat_and_select() {
        let (a, b) = two_bases(16);
        let c = a.concat(&b);
        assert_eq!(c.len(), 6);
        // The concatenation shares its parts' tables.
        for (t, part) in c.tables().iter().zip(a.tables().iter().chain(b.tables())) {
            assert!(Arc::ptr_eq(t, part));
        }
        let s = c.select(&[0, 3, 5]);
        assert_eq!(s.modulus(0).value(), a.modulus(0).value());
        assert_eq!(s.modulus(1).value(), b.modulus(0).value());
        assert_eq!(s.modulus(2).value(), b.modulus(2).value());
    }

    #[test]
    #[should_panic(expected = "duplicate prime")]
    fn concat_rejects_a_shared_prime() {
        let primes = ntt_primes(40, 16, 3);
        let a = RnsBasis::new(&primes[..2], 16);
        let b = RnsBasis::new(&primes[1..], 16);
        let _ = a.concat(&b);
    }
}
