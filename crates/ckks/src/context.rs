//! Shared precomputed state for a CKKS instance.
//!
//! The context owns one [`RnsBasis`] per level, the special-prime basis,
//! the extended (level + special) bases, Galois permutation tables, and
//! all the hybrid-keyswitch base-conversion tables (the paper's `BConv`
//! kernels, Algorithm 1) so that ciphertext operations never rebuild
//! tables.

use std::sync::Arc;

use fhe_math::{BasisConverter, FftPlan, GaloisPerms, Modulus, RnsBasis};

use crate::params::CkksParams;

/// Precomputation for one keyswitch digit at one level.
#[derive(Debug)]
pub struct DigitPrecomp {
    /// Limb indices (within `0..=l`) forming this digit.
    pub digit_limbs: Vec<usize>,
    /// Limb indices (within `0..=l`) outside this digit.
    pub other_limbs: Vec<usize>,
    /// BConv from the digit basis to `others ∪ P` (ModUp).
    pub mod_up: BasisConverter,
}

/// Per-level keyswitch precomputation.
#[derive(Debug)]
pub struct KeySwitchPrecomp {
    /// One entry per digit (beta(l) of them).
    pub digits: Vec<DigitPrecomp>,
    /// BConv from the special basis P down to `C_l` (ModDown).
    pub mod_down: BasisConverter,
    /// `P^{-1} mod q_i` for each limb `i <= l`, as Shoup pairs
    /// `(w, shoup(w))`.
    pub p_inv_mod_q: Vec<(u64, u64)>,
    /// `q_l^{-1} mod q_i` for each limb `i < l`, as Shoup pairs — the
    /// divide of a rescale from level `l` (empty at level 0).
    pub q_last_inv_mod_q: Vec<(u64, u64)>,
}

/// Shared, immutable CKKS precomputation. Cheap to clone via [`Arc`].
#[derive(Debug)]
pub struct CkksContext {
    params: CkksParams,
    /// `level_bases[l]` = basis over `q_0..q_l`.
    level_bases: Vec<Arc<RnsBasis>>,
    /// Basis over the special primes.
    special_basis: Arc<RnsBasis>,
    /// `extended_bases[l]` = `q_0..q_l ++ p_0..p_{|P|-1}`.
    extended_bases: Vec<Arc<RnsBasis>>,
    /// Galois slot permutations (shared across levels; ring-degree keyed).
    galois: Arc<GaloisPerms>,
    /// Keyswitch tables per level.
    keyswitch: Vec<KeySwitchPrecomp>,
    /// 2N-point FFT plan for encoding.
    encode_fft: Arc<FftPlan>,
}

impl CkksContext {
    /// Builds the full precomputation for a parameter set.
    pub fn new(params: CkksParams) -> Arc<Self> {
        let n = params.n;
        let max_level = params.max_level();
        let full = RnsBasis::new(&params.q_chain, n);
        let special = Arc::new(RnsBasis::new(&params.p_special, n));
        let mut level_bases = Vec::with_capacity(max_level + 1);
        let mut extended_bases = Vec::with_capacity(max_level + 1);
        for l in 0..=max_level {
            let lb = Arc::new(full.prefix(l + 1));
            extended_bases.push(Arc::new(lb.concat(&special)));
            level_bases.push(lb);
        }
        let galois = Arc::new(GaloisPerms::new(level_bases[0].table(0).clone()));

        let mut keyswitch = Vec::with_capacity(max_level + 1);
        for (l, level_basis) in level_bases.iter().enumerate() {
            let beta = params.beta_at_level(l);
            let mut digits = Vec::with_capacity(beta);
            for j in 0..beta {
                let digit_limbs: Vec<usize> = params.digit_limbs(j).filter(|&i| i <= l).collect();
                let other_limbs: Vec<usize> =
                    (0..=l).filter(|i| !digit_limbs.contains(i)).collect();
                let digit_basis = level_basis.select(&digit_limbs);
                // Target order is [others..., specials...].
                let target = if other_limbs.is_empty() {
                    (*special).clone()
                } else {
                    level_basis.select(&other_limbs).concat(&special)
                };
                let mod_up = BasisConverter::new(&digit_basis, &target);
                digits.push(DigitPrecomp {
                    digit_limbs,
                    other_limbs,
                    mod_up,
                });
            }
            let mod_down = BasisConverter::new(&special, level_basis);
            // `x^{-1} mod q_i` as a Shoup pair.
            let inv_pair = |qi: &Modulus, x: u64| {
                let inv = qi.inv(x).expect("distinct primes are invertible");
                (inv, qi.shoup(inv))
            };
            let p_inv_mod_q = level_basis
                .moduli()
                .iter()
                .map(|qi| {
                    let mut p_mod = 1u64;
                    for &p in &params.p_special {
                        p_mod = qi.mul(p_mod, qi.reduce(p));
                    }
                    inv_pair(qi, p_mod)
                })
                .collect();
            let q_last = level_basis.modulus(l).value();
            let q_last_inv_mod_q = level_basis.moduli()[..l]
                .iter()
                .map(|qi| inv_pair(qi, qi.reduce(q_last)))
                .collect();
            keyswitch.push(KeySwitchPrecomp {
                digits,
                mod_down,
                p_inv_mod_q,
                q_last_inv_mod_q,
            });
        }
        let encode_fft = Arc::new(FftPlan::new(2 * n));
        Arc::new(Self {
            params,
            level_bases,
            special_basis: special,
            extended_bases,
            galois,
            keyswitch,
            encode_fft,
        })
    }

    /// The parameter set.
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.params.n
    }

    /// Basis over `q_0..q_l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` exceeds the maximum level.
    pub fn level_basis(&self, l: usize) -> &Arc<RnsBasis> {
        &self.level_bases[l]
    }

    /// The special-prime basis `P`.
    pub fn special_basis(&self) -> &Arc<RnsBasis> {
        &self.special_basis
    }

    /// Basis over `q_0..q_l ++ P`.
    pub fn extended_basis(&self, l: usize) -> &Arc<RnsBasis> {
        &self.extended_bases[l]
    }

    /// The full basis `q_0..q_L ++ P` (key material lives here).
    pub fn full_basis(&self) -> &Arc<RnsBasis> {
        self.extended_basis(self.params.max_level())
    }

    /// Galois slot-permutation tables.
    pub fn galois(&self) -> &Arc<GaloisPerms> {
        &self.galois
    }

    /// Keyswitch tables for level `l`.
    pub fn keyswitch_precomp(&self, l: usize) -> &KeySwitchPrecomp {
        &self.keyswitch[l]
    }

    /// The 2N-point FFT plan used by the encoder.
    pub fn encode_fft(&self) -> &Arc<FftPlan> {
        &self.encode_fft
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_all_levels() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let l_max = ctx.params().max_level();
        for l in 0..=l_max {
            assert_eq!(ctx.level_basis(l).len(), l + 1);
            assert_eq!(
                ctx.extended_basis(l).len(),
                l + 1 + ctx.params().p_special.len()
            );
            let ks = ctx.keyswitch_precomp(l);
            assert_eq!(ks.digits.len(), ctx.params().beta_at_level(l));
            assert_eq!(ks.p_inv_mod_q.len(), l + 1);
            assert_eq!(ks.q_last_inv_mod_q.len(), l);
        }
    }

    #[test]
    fn digit_limbs_partition_each_level() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        for l in 0..=ctx.params().max_level() {
            let ks = ctx.keyswitch_precomp(l);
            let mut covered = vec![false; l + 1];
            for d in &ks.digits {
                for &i in &d.digit_limbs {
                    assert!(!covered[i]);
                    covered[i] = true;
                }
                for &i in &d.other_limbs {
                    assert!(i <= l);
                    assert!(!d.digit_limbs.contains(&i));
                }
            }
            assert!(covered.into_iter().all(|c| c), "level {l} not covered");
        }
    }

    #[test]
    fn p_inverse_is_correct() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let l = ctx.params().max_level();
        let ks = ctx.keyswitch_precomp(l);
        for (i, qi) in ctx.level_basis(l).moduli().iter().enumerate() {
            let mut p_mod = 1u64;
            for &p in &ctx.params().p_special {
                p_mod = qi.mul(p_mod, qi.reduce(p));
            }
            let (inv, inv_shoup) = ks.p_inv_mod_q[i];
            assert_eq!(qi.mul(p_mod, inv), 1);
            assert_eq!(inv_shoup, qi.shoup(inv));
        }
        let q_last = ctx.level_basis(l).modulus(l).value();
        for (qi, &(inv, inv_shoup)) in ctx.level_basis(l).moduli().iter().zip(&ks.q_last_inv_mod_q)
        {
            assert_eq!(qi.mul(qi.reduce(q_last), inv), 1);
            assert_eq!(inv_shoup, qi.shoup(inv));
        }
    }
}
