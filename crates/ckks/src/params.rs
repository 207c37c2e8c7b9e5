//! CKKS parameter sets.
//!
//! The paper's default CKKS configuration (Table IV) is `N = 2^16`,
//! `L = 35`, `dnum = 3` at 128-bit security with a 36-bit word. The
//! functional layer runs the same algorithms at reduced ring degrees so
//! tests finish quickly; [`CkksParams::paper_default`] records the paper
//! configuration for the performance model, and
//! [`CkksParams::test_params`] is the workhorse for functional tests.

use fhe_math::kernel::WIDE_MAX_P;
use fhe_math::prime;

/// Parameters of an RNS-CKKS instance.
#[derive(Debug, Clone)]
pub struct CkksParams {
    /// Ring degree `N` (power of two). Slots = N/2.
    pub n: usize,
    /// Prime chain `q_0 .. q_L` (level `l` uses the first `l+1`).
    pub q_chain: Vec<u64>,
    /// Special primes `p_0 .. p_{k-1}` for hybrid keyswitching: at least
    /// [`Self::alpha`] of them, and enough that their product reaches the
    /// widest digit's (`k = alpha + 1` at `bootstrap_test_params`).
    pub p_special: Vec<u64>,
    /// log2 of the encoding scale Delta.
    pub scale_bits: u32,
    /// Decomposition number for hybrid keyswitch (digits).
    pub dnum: usize,
    /// Hamming weight of the ternary secret (None = dense i.i.d.).
    pub secret_hamming_weight: Option<usize>,
    /// Error standard deviation.
    pub sigma: f64,
}

/// Error produced when a parameter set is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidParamsError(pub String);

impl std::fmt::Display for InvalidParamsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid CKKS parameters: {}", self.0)
    }
}

impl std::error::Error for InvalidParamsError {}

impl CkksParams {
    /// Builds a parameter set with a freshly generated prime chain.
    ///
    /// `levels` is the maximum multiplicative level `L`; the chain holds
    /// `L + 1` primes. The first prime is `scale_bits + 10` bits for
    /// decryption headroom (and EvalMod's `q_0 / Delta = 2^10`); the rest
    /// sit within a few multiples of 2N of `2^scale_bits` so rescaling
    /// preserves the scale to high precision, none above
    /// [`WIDE_MAX_P`] (the wide kernel unit's bound): at `scale_bits = 50`
    /// they all sit just below `2^50`.
    ///
    /// The special primes `P` number at least `alpha = ceil((L+1)/dnum)`
    /// (Table I), and more where it takes more for `P` to reach the
    /// product of the widest digit (digit 0, which holds `q_0`), so
    /// ModUp's overshoot stays below `P`. Where `q_0` fits under
    /// [`WIDE_MAX_P`] (`scale_bits <= 40`) they are the top
    /// `alpha.min(8)` primes of the `scale_bits + 10`-bit class other
    /// than `q_0`, then those of the class one bit wider, so the last
    /// one is a bit wider than the rest (51 bits at `scale_bits = 40`);
    /// the tests pin these chains word for word. Where `q_0` does not
    /// fit, they are the primes the chain does not hold, walking down
    /// from [`WIDE_MAX_P`]: `bootstrap_test_params` gets seven 50-bit
    /// primes where `alpha` is six.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidParamsError`] if the geometry is unsatisfiable
    /// (non-power-of-two `n`, zero `dnum`, too many primes requested for
    /// the bit range, ...).
    pub fn new(
        n: usize,
        levels: usize,
        scale_bits: u32,
        dnum: usize,
    ) -> Result<Self, InvalidParamsError> {
        if !n.is_power_of_two() || n < 8 {
            return Err(InvalidParamsError(format!(
                "n={n} must be a power of two >= 8"
            )));
        }
        if dnum == 0 || dnum > levels + 1 {
            return Err(InvalidParamsError(format!(
                "dnum={dnum} must be in [1, L+1={}]",
                levels + 1
            )));
        }
        if !(20..=50).contains(&scale_bits) {
            return Err(InvalidParamsError(format!(
                "scale_bits={scale_bits} outside supported range [20, 50]"
            )));
        }
        let big_bits = scale_bits + 10;
        let step = 2 * n as u64;
        // q_0: one big prime; q_1..q_L: primes hugging 2^scale_bits.
        let q0 = prime::ntt_primes(big_bits, n, 1)[0];
        let mut q_chain = vec![q0];
        if levels > 0 {
            // Alternate above/below 2^scale_bits to keep the product of
            // ratios near 1 (standard scale-drift control); a candidate
            // above the wide bound never qualifies.
            let mut found = Vec::new();
            let target = 1u64 << scale_bits;
            let mut k = 0u64;
            while found.len() < levels {
                for cand in [target + 1 + k * step, target + 1 - (k + 1) * step] {
                    if found.len() < levels
                        && cand <= WIDE_MAX_P
                        && prime::is_prime(cand)
                        && cand % step == 1
                        && cand != q0
                        && !found.contains(&cand)
                    {
                        found.push(cand);
                    }
                }
                k += 1;
                if k > 1 << 22 {
                    return Err(InvalidParamsError(format!(
                        "could not find {levels} scale primes near 2^{scale_bits}"
                    )));
                }
            }
            q_chain.extend(found);
        }
        let alpha = (levels + 1).div_ceil(dnum);
        let digit_bits = q_chain.chunks(alpha).map(log2_product).fold(0.0, f64::max);
        let enough = |p: &[u64]| p.len() >= alpha && log2_product(p) >= digit_bits;
        let mut p_special = Vec::new();
        if q0 <= WIDE_MAX_P {
            let mut bits = big_bits;
            while !enough(&p_special) {
                for p in prime::ntt_primes(bits, n, alpha.min(8)) {
                    if !enough(&p_special) && !q_chain.contains(&p) && !p_special.contains(&p) {
                        p_special.push(p);
                    }
                }
                bits += 1;
            }
        } else {
            // Largest candidate `≡ 1 (mod 2N)` at or below the bound.
            let mut cand = WIDE_MAX_P - (WIDE_MAX_P - 1) % step;
            while !enough(&p_special) {
                if cand <= WIDE_MAX_P / 2 {
                    return Err(InvalidParamsError(format!(
                        "could not find special primes below 2^{}",
                        WIDE_MAX_P.ilog2()
                    )));
                }
                if prime::is_prime(cand) && !q_chain.contains(&cand) {
                    p_special.push(cand);
                }
                cand -= step;
            }
        }
        Ok(Self {
            n,
            q_chain,
            p_special,
            scale_bits,
            dnum,
            secret_hamming_weight: Some((n / 16).clamp(32, 192)),
            sigma: fhe_math::sampler::DEFAULT_SIGMA,
        })
    }

    /// Small but real parameter set used by the test suite:
    /// `N = 2^12`, `L = 4`, 36-bit scale, `dnum = 3`.
    pub fn test_params() -> Self {
        Self::new(1 << 12, 4, 36, 3).expect("test parameters are valid")
    }

    /// A tiny parameter set for fast unit tests (`N = 2^10`, `L = 3`).
    pub fn tiny_params() -> Self {
        Self::new(1 << 10, 3, 30, 2).expect("tiny parameters are valid")
    }

    /// The paper's default CKKS configuration (Table IV): `N = 2^16`,
    /// `L = 35`, `dnum = 3`, 128-bit security target.
    ///
    /// Intended for the performance model; running the functional layer
    /// at this size works but is slow.
    pub fn paper_default() -> Self {
        Self::new(1 << 16, 35, 36, 3).expect("paper parameters are valid")
    }

    /// Maximum level `L`.
    pub fn max_level(&self) -> usize {
        self.q_chain.len() - 1
    }

    /// Number of RNS moduli per digit, `alpha = ceil((L+1)/dnum)` — also
    /// the least number of special primes; `p_special.len()` is the
    /// actual `|P|`.
    pub fn alpha(&self) -> usize {
        self.q_chain.len().div_ceil(self.dnum)
    }

    /// Number of digits at level `l`, `beta = ceil((l+1)/alpha)`.
    pub fn beta_at_level(&self, l: usize) -> usize {
        (l + 1).div_ceil(self.alpha())
    }

    /// Number of slots (N/2).
    pub fn slots(&self) -> usize {
        self.n / 2
    }

    /// The encoding scale Delta.
    pub fn scale(&self) -> f64 {
        2f64.powi(self.scale_bits as i32)
    }

    /// Limb indices (into `0..=L`) belonging to digit `j`.
    pub fn digit_limbs(&self, j: usize) -> std::ops::Range<usize> {
        let a = self.alpha();
        let start = j * a;
        let end = ((j + 1) * a).min(self.q_chain.len());
        start..end
    }
}

/// `log2` of the product of `primes`: the bit width a chain segment
/// spans.
fn log2_product(primes: &[u64]) -> f64 {
    primes.iter().map(|&p| (p as f64).log2()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_geometry() {
        let p = CkksParams::test_params();
        assert_eq!(p.max_level(), 4);
        assert_eq!(p.q_chain.len(), 5);
        assert_eq!(p.alpha(), 2); // ceil(5/3)
        assert_eq!(p.p_special.len(), 2);
        assert_eq!(p.beta_at_level(4), 3);
        assert_eq!(p.beta_at_level(1), 1);
        assert_eq!(p.beta_at_level(2), 2);
    }

    #[test]
    fn scale_primes_hug_target() {
        let p = CkksParams::test_params();
        let target = 1u64 << p.scale_bits;
        for &q in &p.q_chain[1..] {
            let rel = (q as f64 - target as f64).abs() / target as f64;
            assert!(rel < 1e-3, "prime {q} too far from 2^{}", p.scale_bits);
        }
    }

    #[test]
    fn primes_are_distinct_and_ntt_friendly() {
        let p = CkksParams::test_params();
        let mut all: Vec<u64> = p.q_chain.clone();
        all.extend(&p.p_special);
        let set: std::collections::HashSet<u64> = all.iter().copied().collect();
        assert_eq!(set.len(), all.len(), "duplicate primes");
        for &q in &all {
            assert!(fhe_math::prime::is_prime(q));
            assert_eq!(q % (2 * p.n as u64), 1);
        }
    }

    #[test]
    fn digit_partition_covers_chain() {
        let p = CkksParams::test_params();
        let mut covered = vec![false; p.q_chain.len()];
        for j in 0..p.dnum {
            for i in p.digit_limbs(j) {
                assert!(!covered[i], "limb {i} in two digits");
                covered[i] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(CkksParams::new(100, 3, 36, 2).is_err()); // not a power of 2
        assert!(CkksParams::new(1024, 3, 36, 0).is_err()); // dnum 0
        assert!(CkksParams::new(1024, 3, 60, 2).is_err()); // scale too large
    }

    /// FNV-1a over `[|Q|, q_0.., |P|, p_0..]`, each word little-endian.
    fn chain_checksum(p: &CkksParams) -> u64 {
        let mut words = vec![p.q_chain.len() as u64];
        words.extend(&p.q_chain);
        words.push(p.p_special.len() as u64);
        words.extend(&p.p_special);
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            })
    }

    /// Every parameter set the tree builds at `scale_bits <= 40`, as
    /// `(n, L, scale_bits, dnum)`, with the checksum of its chain, which
    /// the wide-bound rules must not move: `test_params`,
    /// `tiny_params`, `paper_default`, `helr_training`'s,
    /// `micro.rs`'s, `chebyshev.rs`'s (`L` = 3, 5, 7) and
    /// `service_e2e.rs`'s `2n` context.
    const PINNED: [((usize, usize, u32, usize), u64); 9] = [
        ((1 << 12, 4, 36, 3), 0xe355_3b8f_cd8b_2d2a),
        ((1 << 10, 3, 30, 2), 0x1a4e_10db_0f8f_ed47),
        ((1 << 16, 35, 36, 3), 0xdaf6_4014_e95e_f0dd),
        ((1 << 12, 15, 40, 3), 0x3cf2_7768_364c_28a8),
        ((1 << 10, 8, 40, 2), 0xce92_4281_dba8_157b),
        ((1 << 10, 3, 40, 2), 0xff1a_e823_f1af_2757),
        ((1 << 10, 5, 40, 2), 0x3fd2_ba6e_61af_3d88),
        ((1 << 10, 7, 40, 2), 0x0348_9469_7348_8732),
        ((1 << 11, 3, 30, 2), 0x8020_05eb_8328_dc0a),
    ];

    #[test]
    fn narrow_chains_are_pinned() {
        assert_eq!(
            CkksParams::test_params().q_chain,
            [
                70368743669761,
                68719484929,
                68719403009,
                68719230977,
                68719206401
            ]
        );
        assert_eq!(
            CkksParams::test_params().p_special,
            [70368743587841, 140737488273409]
        );
        assert_eq!(
            CkksParams::tiny_params().q_chain,
            [1099511592961, 1073750017, 1073754113, 1073707009]
        );
        assert_eq!(
            CkksParams::tiny_params().p_special,
            [1099511590913, 2199023251457]
        );
        for ((n, l, s, d), sum) in PINNED {
            let p = CkksParams::new(n, l, s, d).unwrap();
            assert_eq!(chain_checksum(&p), sum, "({n}, {l}, {s}, {d})");
        }
    }

    #[test]
    fn bootstrap_chain_is_wide_but_q0() {
        let p = crate::bootstrap::bootstrap_test_params();
        assert!(p.q_chain[0] > WIDE_MAX_P, "q_0 keeps its 60 bits");
        assert_eq!(p.q_chain[0], prime::ntt_primes(60, p.n, 1)[0]);
        for &q in p.q_chain[1..].iter().chain(&p.p_special) {
            assert!(q <= WIDE_MAX_P, "{q} above the wide bound");
        }
        assert_eq!(p.q_chain.len(), 17);
        assert_eq!(p.p_special.len(), p.alpha() + 1);
    }

    #[test]
    fn special_primes_cover_the_widest_digit() {
        let mut sets: Vec<CkksParams> = PINNED
            .iter()
            .map(|&((n, l, s, d), _)| CkksParams::new(n, l, s, d).unwrap())
            .collect();
        sets.push(crate::bootstrap::bootstrap_test_params());
        for p in sets {
            let widest = (0..p.dnum)
                .map(|j| log2_product(&p.q_chain[p.digit_limbs(j)]))
                .fold(0.0, f64::max);
            assert!(
                log2_product(&p.p_special) >= widest,
                "n={} L={}: bits(P) {} < {widest}",
                p.n,
                p.max_level(),
                log2_product(&p.p_special)
            );
            assert!(p.p_special.len() >= p.alpha());
            let mut all = p.q_chain.clone();
            all.extend(&p.p_special);
            let set: std::collections::HashSet<u64> = all.iter().copied().collect();
            assert_eq!(set.len(), all.len(), "duplicate primes");
        }
    }

    #[test]
    fn paper_default_shape() {
        // Only geometry checks; building the full chain is fast since it
        // is pure prime search.
        let p = CkksParams::paper_default();
        assert_eq!(p.n, 1 << 16);
        assert_eq!(p.max_level(), 35);
        assert_eq!(p.dnum, 3);
        assert_eq!(p.alpha(), 12);
    }
}
