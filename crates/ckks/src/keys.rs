//! Key material: secret, public, relinearisation, and Galois keys.
//!
//! Switching keys follow the hybrid-keyswitch construction the paper
//! accelerates (Algorithm 1, after Han–Ki): the chain `q_0..q_L` is
//! partitioned into `dnum` digits; for each digit `j` the key holds an
//! RLWE sample over the extended modulus `Q * P` whose message is
//! `P * G_j * s_from`, where the gadget `G_j = (Q/D_j) * [(Q/D_j)^{-1}]_{D_j}`
//! has residues `P mod q_i` on the digit's own limbs and `0` everywhere
//! else — so key generation never touches big integers.

use std::collections::HashMap;
use std::sync::Arc;

use fhe_math::{sampler, Representation, RnsPoly};
use rand::Rng;

use crate::context::CkksContext;

/// The ternary secret key.
#[derive(Debug, Clone)]
pub struct SecretKey {
    /// Signed coefficients in {-1, 0, 1}.
    coeffs: Vec<i64>,
    /// Cached evaluation-form secret over the full extended basis.
    full_eval: RnsPoly,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn generate<R: Rng + ?Sized>(ctx: &Arc<CkksContext>, rng: &mut R) -> Self {
        let coeffs = sampler::ternary(rng, ctx.n(), ctx.params().secret_hamming_weight);
        Self::from_coeffs(ctx, coeffs)
    }

    /// Builds a secret key from explicit ternary coefficients (used by
    /// the scheme-conversion layer, which must share secrets with TFHE).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the ring degree or any entry is
    /// outside {-1, 0, 1}.
    pub fn from_coeffs(ctx: &Arc<CkksContext>, coeffs: Vec<i64>) -> Self {
        assert_eq!(coeffs.len(), ctx.n());
        assert!(coeffs.iter().all(|&c| (-1..=1).contains(&c)));
        let mut full_eval = RnsPoly::from_signed_coeffs(ctx.full_basis().clone(), &coeffs);
        full_eval.to_eval();
        Self { coeffs, full_eval }
    }

    /// The signed coefficients.
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }

    /// Evaluation-form secret over the level-`l` basis.
    pub fn poly_at_level(&self, ctx: &CkksContext, l: usize) -> RnsPoly {
        let n = self.full_eval.n();
        let data = self.full_eval.flat()[..(l + 1) * n].to_vec();
        RnsPoly::from_flat(ctx.level_basis(l).clone(), data, Representation::Eval)
    }

    /// Evaluation-form secret over the extended level-`l` basis
    /// (`q_0..q_l ++ P`).
    pub fn poly_extended(&self, ctx: &CkksContext, l: usize) -> RnsPoly {
        let n = self.full_eval.n();
        let max_l = ctx.params().max_level();
        let mut data = self.full_eval.flat()[..(l + 1) * n].to_vec();
        data.extend_from_slice(&self.full_eval.flat()[(max_l + 1) * n..]);
        RnsPoly::from_flat(ctx.extended_basis(l).clone(), data, Representation::Eval)
    }
}

/// A public encryption key: an RLWE sample `(b, a)` with `b = -a s + e`
/// over the full `q`-chain.
#[derive(Debug, Clone)]
pub struct PublicKey {
    /// `b = -a s + e` (evaluation form, level L).
    pub b: RnsPoly,
    /// Uniform `a` (evaluation form, level L).
    pub a: RnsPoly,
}

impl PublicKey {
    /// Measured heap bytes of this key's residue buffers (allocated
    /// `Vec` capacities) — the unit a byte-budgeted key cache accounts
    /// in.
    pub fn key_bytes(&self) -> usize {
        self.b.heap_bytes() + self.a.heap_bytes()
    }
}

/// A switching key: one RLWE sample per digit over `Q * P`.
#[derive(Debug, Clone)]
pub struct SwitchingKey {
    /// Per-digit pairs `(b_j, a_j)` in evaluation form over the full
    /// extended basis `q_0..q_L ++ P`.
    rows: Vec<(RnsPoly, RnsPoly)>,
    /// `L + 1`: where the special limbs start in every stored row.
    q_limbs: usize,
}

impl SwitchingKey {
    /// Generates a key switching `s_from -> s_to`.
    ///
    /// `s_from` and `s_to` are evaluation-form polynomials over the full
    /// extended basis.
    pub fn generate<R: Rng + ?Sized>(
        ctx: &Arc<CkksContext>,
        s_from: &RnsPoly,
        s_to: &RnsPoly,
        rng: &mut R,
    ) -> Self {
        let params = ctx.params();
        let full = ctx.full_basis().clone();
        let n = ctx.n();
        let max_l = params.max_level();
        let dnum_digits = params.beta_at_level(max_l);
        let mut rows = Vec::with_capacity(dnum_digits);
        for j in 0..dnum_digits {
            // Uniform a_j over the extended basis.
            let mut a_flat = Vec::with_capacity(full.len() * n);
            for m in full.moduli() {
                a_flat.extend(sampler::uniform_residues(rng, m, n));
            }
            let a = RnsPoly::from_flat(full.clone(), a_flat, Representation::Eval);
            // e_j small.
            let mut e =
                RnsPoly::from_signed_coeffs(full.clone(), &sampler::gaussian(rng, n, params.sigma));
            e.to_eval();
            // Gadget residues: P mod q_i on digit-j q-limbs, else 0.
            let digit: Vec<usize> = params.digit_limbs(j).collect();
            let gadget: Vec<u64> = full
                .moduli()
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    if i <= max_l && digit.contains(&i) {
                        let mut p_mod = 1u64;
                        for &p in &params.p_special {
                            p_mod = m.mul(p_mod, m.reduce(p));
                        }
                        p_mod
                    } else {
                        0
                    }
                })
                .collect();
            // b_j = -a_j * s_to + e_j + gadget ⊙ s_from.
            let mut b = a.clone();
            b.mul_assign_pointwise(s_to);
            b.neg_assign();
            b.add_assign(&e);
            let mut gs = s_from.clone();
            gs.mul_scalar_residues(&gadget);
            b.add_assign(&gs);
            rows.push((b, a));
        }
        Self {
            rows,
            q_limbs: max_l + 1,
        }
    }

    /// Digit `j`'s pair at level `l`, borrowed: `[b, a]`, each as the
    /// two contiguous segments of its stored row that level reads —
    /// limbs `q_0..q_l`, then the special limbs `P`. What the keyswitch
    /// engine multiplies against in place; [`Self::row_at_level`] is
    /// the copying form.
    ///
    /// # Panics
    ///
    /// Panics if `j` is not a digit of this key or `l` exceeds the
    /// maximum level.
    pub fn row_segments(&self, j: usize, l: usize) -> [(&[u64], &[u64]); 2] {
        assert!(l < self.q_limbs, "level {l} above the key's maximum");
        let (b, a) = &self.rows[j];
        let n = b.n();
        [b, a].map(|poly| {
            let (q, p) = poly.flat().split_at(self.q_limbs * n);
            (&q[..(l + 1) * n], p)
        })
    }

    /// Restricts digit `j`'s pair to the extended basis of level `l`
    /// (residues for `q_0..q_l ++ P`) — the copying form of
    /// [`Self::row_segments`].
    pub fn row_at_level(&self, ctx: &CkksContext, j: usize, l: usize) -> (RnsPoly, RnsPoly) {
        let target = ctx.extended_basis(l);
        let [b, a] = self.row_segments(j, l).map(|(q, p)| {
            RnsPoly::from_flat(target.clone(), [q, p].concat(), Representation::Eval)
        });
        (b, a)
    }

    /// Measured heap bytes of this key: the allocated capacity of every
    /// per-digit residue buffer plus the row `Vec`'s own backing
    /// storage. Switching keys (relinearisation and one per Galois
    /// element) are the dominant per-tenant state a serving layer
    /// holds, so its key cache evicts by this number.
    pub fn key_bytes(&self) -> usize {
        let rows = self.rows.capacity() * std::mem::size_of::<(RnsPoly, RnsPoly)>();
        rows + self
            .rows
            .iter()
            .map(|(b, a)| b.heap_bytes() + a.heap_bytes())
            .sum::<usize>()
    }
}

/// The full key set most applications need.
#[derive(Debug)]
pub struct KeySet {
    /// The secret key.
    pub secret: SecretKey,
    /// Public encryption key.
    pub public: PublicKey,
    /// Relinearisation key (`s^2 -> s`).
    pub relin: SwitchingKey,
    /// Galois keys by Galois element.
    pub galois: HashMap<u64, SwitchingKey>,
}

/// Generates key material for a context.
#[derive(Debug)]
pub struct KeyGenerator {
    ctx: Arc<CkksContext>,
}

impl KeyGenerator {
    /// Creates a generator bound to a context.
    pub fn new(ctx: Arc<CkksContext>) -> Self {
        Self { ctx }
    }

    /// Samples a secret key.
    pub fn secret_key<R: Rng + ?Sized>(&self, rng: &mut R) -> SecretKey {
        SecretKey::generate(&self.ctx, rng)
    }

    /// Derives the public key for a secret.
    pub fn public_key<R: Rng + ?Sized>(&self, sk: &SecretKey, rng: &mut R) -> PublicKey {
        let l = self.ctx.params().max_level();
        let basis = self.ctx.level_basis(l).clone();
        let n = self.ctx.n();
        let mut a_flat = Vec::with_capacity(basis.len() * n);
        for m in basis.moduli() {
            a_flat.extend(sampler::uniform_residues(rng, m, n));
        }
        let a = RnsPoly::from_flat(basis.clone(), a_flat, Representation::Eval);
        let mut e =
            RnsPoly::from_signed_coeffs(basis, &sampler::gaussian(rng, n, self.ctx.params().sigma));
        e.to_eval();
        let s = sk.poly_at_level(&self.ctx, l);
        let mut b = a.clone();
        b.mul_assign_pointwise(&s);
        b.neg_assign();
        b.add_assign(&e);
        PublicKey { b, a }
    }

    /// Relinearisation key: switches `s^2` back to `s`.
    pub fn relin_key<R: Rng + ?Sized>(&self, sk: &SecretKey, rng: &mut R) -> SwitchingKey {
        let l = self.ctx.params().max_level();
        let s = sk.poly_extended(&self.ctx, l);
        let mut s2 = s.clone();
        s2.mul_assign_pointwise(&s);
        SwitchingKey::generate(&self.ctx, &s2, &s, rng)
    }

    /// Galois key for automorphism `X -> X^g`: switches `sigma_g(s) -> s`.
    pub fn galois_key<R: Rng + ?Sized>(&self, sk: &SecretKey, g: u64, rng: &mut R) -> SwitchingKey {
        let l = self.ctx.params().max_level();
        let s = sk.poly_extended(&self.ctx, l);
        let mut s_g = s.clone();
        s_g.automorphism(g, self.ctx.galois());
        SwitchingKey::generate(&self.ctx, &s_g, &s, rng)
    }

    /// Generates the complete key set with Galois keys for the listed
    /// rotations (by slot count; conjugation key is always included).
    pub fn key_set<R: Rng + ?Sized>(&self, rotations: &[i64], rng: &mut R) -> KeySet {
        let sk = self.secret_key(rng);
        let pk = self.public_key(&sk, rng);
        let rlk = self.relin_key(&sk, rng);
        let mut galois = HashMap::new();
        for &r in rotations {
            let g = fhe_math::galois::rotation_galois_element(r, self.ctx.n());
            galois
                .entry(g)
                .or_insert_with(|| self.galois_key(&sk, g, rng));
        }
        let conj = fhe_math::galois::conjugation_galois_element(self.ctx.n());
        galois
            .entry(conj)
            .or_insert_with(|| self.galois_key(&sk, conj, rng));
        KeySet {
            secret: sk,
            public: pk,
            relin: rlk,
            galois,
        }
    }

    /// The bound context.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn secret_key_has_requested_weight() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(31);
        let sk = SecretKey::generate(&ctx, &mut rng);
        let h = ctx.params().secret_hamming_weight.unwrap();
        assert_eq!(sk.coeffs().iter().filter(|&&c| c != 0).count(), h);
    }

    #[test]
    fn public_key_is_valid_rlwe_sample() {
        // b + a*s must be small (the error term).
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(32);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let pk = kg.public_key(&sk, &mut rng);
        let l = ctx.params().max_level();
        let s = sk.poly_at_level(&ctx, l);
        let mut check = pk.a.clone();
        check.mul_assign_pointwise(&s);
        check.add_assign(&pk.b);
        check.to_coeff();
        let vals = check.to_centered_f64();
        let bound = 6.0 * ctx.params().sigma + 1.0;
        for v in vals {
            assert!(v.abs() <= bound, "error coefficient {v} too large");
        }
    }

    /// `key_bytes` must equal the manual sum of the underlying `Vec`
    /// capacities — the cache's eviction arithmetic is only as honest
    /// as this accounting.
    #[test]
    fn key_bytes_pins_to_manual_capacity_sums() {
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(34);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);

        let pk = kg.public_key(&sk, &mut rng);
        let word = std::mem::size_of::<u64>();
        let poly_bytes = |p: &fhe_math::RnsPoly| std::mem::size_of_val(p.flat());
        // These buffers are built exactly-sized (with_capacity +
        // extend), so capacity == len and the manual sum is exact.
        assert_eq!(pk.key_bytes(), poly_bytes(&pk.b) + poly_bytes(&pk.a));
        // Sanity: full q-chain, both halves, nonzero.
        let expect_rows = ctx.params().max_level() + 1;
        assert_eq!(pk.key_bytes(), 2 * expect_rows * ctx.n() * word);

        let rlk = kg.relin_key(&sk, &mut rng);
        let manual: usize = rlk.rows.capacity() * std::mem::size_of::<(RnsPoly, RnsPoly)>()
            + rlk
                .rows
                .iter()
                .map(|(b, a)| poly_bytes(b) + poly_bytes(a))
                .sum::<usize>();
        assert_eq!(rlk.key_bytes(), manual);
        // Each digit row spans the full extended basis.
        let full_rows = ctx.full_basis().len();
        assert!(rlk.key_bytes() >= rlk.rows.len() * 2 * full_rows * ctx.n() * word);

        // Galois keys share the construction, and distinct keys of one
        // context measure identically — what lets a cache predict the
        // cost of admitting a tenant before generating anything.
        let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
        let gk = kg.galois_key(&sk, g, &mut rng);
        assert_eq!(gk.key_bytes(), rlk.key_bytes());
    }

    #[test]
    fn switching_key_satisfies_gadget_relation() {
        // For each digit j: b_j + a_j*s = e_j + gadget_j ⊙ s_from, so
        // (b_j + a_j*s - gadget⊙s_from) must be small on every limb.
        let ctx = CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(33);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let rlk = kg.relin_key(&sk, &mut rng);
        let l = ctx.params().max_level();
        let s = sk.poly_extended(&ctx, l);
        let mut s2 = s.clone();
        s2.mul_assign_pointwise(&s);
        let full = ctx.full_basis();
        for (j, (b, a)) in rlk.rows.iter().enumerate() {
            let mut check = a.clone();
            check.mul_assign_pointwise(&s);
            check.add_assign(b);
            // Subtract gadget ⊙ s^2.
            let digit: Vec<usize> = ctx.params().digit_limbs(j).collect();
            let gadget: Vec<u64> = full
                .moduli()
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    if i <= l && digit.contains(&i) {
                        let mut p_mod = 1u64;
                        for &p in &ctx.params().p_special {
                            p_mod = m.mul(p_mod, m.reduce(p));
                        }
                        p_mod
                    } else {
                        0
                    }
                })
                .collect();
            let mut gs = s2.clone();
            gs.mul_scalar_residues(&gadget);
            check.sub_assign(&gs);
            check.to_coeff();
            // Every limb should hold the same small error polynomial.
            let bound = 6.0 * ctx.params().sigma + 1.0;
            for (row, m) in check.flat().chunks_exact(ctx.n()).zip(full.moduli()) {
                for &c in row {
                    let centered = m.to_centered(c);
                    assert!(
                        (centered as f64).abs() <= bound,
                        "digit {j}: residue {centered} too large"
                    );
                }
            }
        }
    }
}
