//! TFHE → CKKS direction: ring embedding, PackLWEs and the field trace
//! (paper Algorithms 4 and 5, after Chen–Dai–Kim–Song).
//!
//! `nslot` LWE ciphertexts under the CKKS secret's coefficient key are
//! merged into one RLWE ciphertext whose plaintext carries message `j`
//! at coefficient `j * N/nslot`:
//!
//! 1. **Ring embedding** — each LWE `(a, b)` becomes a degree-1 RLWE
//!    ciphertext with the message in coefficient 0 (a negacyclic
//!    reversal of the mask), mod-raised from `q_0` to the packing level's
//!    full modulus `Q_l`. Because `q_0 | Q_l` the raise
//!    `round(x * Q_l / q_0)` is exactly `x * (Q_l / q_0)`, and that
//!    quotient is `q_1 .. q_l`: zero modulo every limb but `q_0`, where
//!    it is one word computed once per packer.
//! 2. **PackLWEs** — `log2(nslot)` merge rounds; a merge to size `m`
//!    computes `(even + X^{N/m} odd) + sigma_{m+1}(even - X^{N/m} odd)`,
//!    where `sigma` is a keyswitched automorphism (`HRotate`) and the
//!    monomial multiplication is the key-free `Rotate`. A round's
//!    `m/2` differences share the Galois element and the key; each is
//!    one `Evaluator::apply_galois` call.
//! 3. **Field trace** — `log2(N/nslot)` rounds `ct += sigma_{2^t+1}(ct)`
//!    kill every non-aligned coefficient exactly and double the aligned
//!    ones (each round reads the previous one).
//!
//! The aggregate multiplication by `N` is absorbed into the CKKS scale
//! field rather than corrected with an `N^{-1}` multiplication, keeping
//! the LWE noise untouched.
//!
//! **Headroom requirement**: because pack + trace multiply the packed
//! values by `N`, inputs must satisfy `|message| * N < q_0 / 2` or the
//! result wraps around `Q`. Callers encode LWE messages at a scale of
//! at most `q_0 / (2 N t)` for a `t`-valued message space.

use std::collections::HashMap;
use std::sync::Arc;

use fhe_ckks::{Ciphertext, CkksContext, Evaluator, KeyGenerator, SecretKey, SwitchingKey};
use fhe_math::galois::trace_galois_element;
use fhe_math::{Representation, RnsPoly};
use fhe_tfhe::LweCiphertext;
use rand::Rng;

/// Packs LWE ciphertexts into CKKS RLWE ciphertexts.
#[derive(Debug)]
pub struct RlwePacker {
    ctx: Arc<CkksContext>,
    eval: Evaluator,
    level: usize,
    /// Galois keys for the elements `2^t + 1`, `t = 1..=log2(N)`.
    keys: HashMap<u64, SwitchingKey>,
    /// `Q_level / q_0 mod q_0` (the modulus raise; the quotient is 0
    /// modulo every other limb).
    raise: u64,
    /// `Q_level / q_0` as `f64` (scale bookkeeping).
    ratio: f64,
}

impl RlwePacker {
    /// Creates a packer at `level`, generating the `log2(N)` Galois keys
    /// the merge and trace steps need.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the parameter set's maximum level
    /// ("packing level above the parameter set's maximum").
    pub fn new<R: Rng + ?Sized>(
        ctx: Arc<CkksContext>,
        sk: &SecretKey,
        level: usize,
        rng: &mut R,
    ) -> Self {
        let max_level = ctx.params().max_level();
        assert!(
            level <= max_level,
            "packing level above the parameter set's maximum: {level} > {max_level}"
        );
        let kg = KeyGenerator::new(ctx.clone());
        let log_n = fhe_math::util::log2_exact(ctx.n());
        let mut keys = HashMap::new();
        for t in 1..=log_n {
            let g = trace_galois_element(t);
            keys.insert(g, kg.galois_key(sk, g, rng));
        }
        let basis = ctx.level_basis(level);
        let q0 = basis.modulus(0);
        // Q_level / q_0 = q_1 * .. * q_level.
        let raise = basis.moduli()[1..]
            .iter()
            .fold(1, |acc, qj| q0.mul(acc, q0.reduce(qj.value())));
        let ratio = basis.modulus_product().to_f64() / q0.value() as f64;
        Self {
            eval: Evaluator::new(ctx.clone()),
            ctx,
            level,
            keys,
            raise,
            ratio,
        }
    }

    /// The packing level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// Ring embedding: turns an LWE ciphertext `(a, b)` mod `q_0` (under
    /// the CKKS secret's coefficient key) into an RLWE ciphertext at the
    /// packing level whose plaintext coefficient 0 holds the (mod-raised)
    /// LWE phase.
    ///
    /// `scale` is the scale of the LWE message relative to `q_0`; the
    /// output ciphertext's scale is `scale * Q_level / q_0`.
    ///
    /// # Panics
    ///
    /// Panics if the LWE dimension differs from the ring degree.
    pub fn ring_embed(&self, lwe: &LweCiphertext, scale: f64) -> Ciphertext {
        let n = self.ctx.n();
        assert_eq!(lwe.dim(), n, "LWE dimension must equal ring degree");
        let basis = self.ctx.level_basis(self.level);
        let q0 = basis.modulus(0);
        // c0 = b * X^0; c1[0] = -a_0 and c1[N-j] = +a_j for j >= 1,
        // each word times `raise` in limb 0 and zero in every other.
        let mut c0 = RnsPoly::zero(basis.clone(), Representation::Coeff);
        c0.limb_mut(0)[0] = q0.mul(lwe.b, self.raise);
        let mut c1 = RnsPoly::zero(basis.clone(), Representation::Coeff);
        let row = c1.limb_mut(0);
        row[0] = q0.neg(q0.mul(lwe.a[0], self.raise));
        for (dst, &aj) in row[1..].iter_mut().rev().zip(&lwe.a[1..]) {
            *dst = q0.mul(aj, self.raise);
        }
        c0.to_eval();
        c1.to_eval();
        Ciphertext {
            c0,
            c1,
            level: self.level,
            scale: scale * self.ratio,
        }
    }

    /// PackLWEs (Algorithm 4): merges `2^k` embedded ciphertexts (a
    /// shorter input is padded with zero ciphertexts). Each round merges
    /// every pair: sum and difference, one keyswitched rotation of the
    /// difference, then their sum.
    ///
    /// # Panics
    ///
    /// Panics if `cts` is empty or holds more than `N` ciphertexts
    /// ("cannot pack more than N ciphertexts": the merge to size `m`
    /// needs the Galois key of `m + 1`, and there is none above `N + 1`).
    pub fn pack_embedded(&self, mut cts: Vec<Ciphertext>) -> Ciphertext {
        assert!(!cts.is_empty());
        let n = self.ctx.n();
        assert!(
            cts.len() <= n,
            "cannot pack more than N ciphertexts: {} > {n}",
            cts.len()
        );
        // Pad to a power of two with zero ciphertexts at matching scale.
        let target = cts.len().next_power_of_two();
        while cts.len() < target {
            let basis = self.ctx.level_basis(self.level).clone();
            cts.push(Ciphertext {
                c0: RnsPoly::zero(basis.clone(), Representation::Eval),
                c1: RnsPoly::zero(basis, Representation::Eval),
                level: self.level,
                scale: cts[0].scale,
            });
        }
        // The recursion of Algorithm 4 splits into even/odd index
        // subsequences; the equivalent bottom-up sweep must therefore
        // consume the inputs in bit-reversed order for message `j` to
        // land at coefficient `j * N/nslot`.
        fhe_math::util::bit_reverse_permute(&mut cts);
        let mut size = 1usize;
        while cts.len() > 1 {
            size *= 2;
            let shift = (n / size) as i64; // X^{N/size}
            let g = trace_galois_element(size.trailing_zeros());
            let gk = &self.keys[&g];
            cts = cts
                .chunks(2)
                .map(|pair| {
                    let odd_shifted = self.eval.mul_monomial(&pair[1], shift);
                    let sum = self.eval.add(&pair[0], &odd_shifted);
                    let diff = self.eval.sub(&pair[0], &odd_shifted);
                    let rotated = self.eval.apply_galois(&diff, g, gk);
                    let mut merged = self.eval.add(&sum, &rotated);
                    merged.scale = sum.scale * 2.0;
                    merged
                })
                .collect();
        }
        cts.pop().expect("one ciphertext remains")
    }

    /// Field trace (Algorithm 5, lines 3–4): zeroes every coefficient
    /// whose index is not a multiple of `N / nslot`.
    ///
    /// # Panics
    ///
    /// Panics if `nslot` is not a power of two or exceeds `N`.
    pub fn field_trace(&self, ct: &Ciphertext, nslot: usize) -> Ciphertext {
        let n = self.ctx.n();
        assert!(nslot.is_power_of_two() && nslot <= n);
        let log_n = fhe_math::util::log2_exact(n);
        let log_ns = fhe_math::util::log2_exact(nslot);
        let mut cur = ct.clone();
        for k in 1..=(log_n - log_ns) {
            let g = trace_galois_element(log_n - k + 1);
            let rotated = self.eval.apply_galois(&cur, g, &self.keys[&g]);
            let mut sum = self.eval.add(&cur, &rotated);
            sum.scale = cur.scale * 2.0;
            cur = sum;
        }
        cur
    }

    /// Full conversion (Algorithm 5): embeds, packs and traces `nslot`
    /// LWE ciphertexts into one RLWE ciphertext carrying message `j` at
    /// coefficient `j * N/nslot`. The output scale absorbs the `x N`
    /// trace/pack gain and the `Q/q_0` raise.
    ///
    /// # Panics
    ///
    /// Panics if `lwes` is empty or not a power-of-two length.
    pub fn convert(&self, lwes: &[LweCiphertext], scale: f64) -> Ciphertext {
        assert!(!lwes.is_empty());
        assert!(
            lwes.len().is_power_of_two(),
            "pad the LWE batch to a power of two"
        );
        let nslot = lwes.len();
        let embedded: Vec<Ciphertext> =
            lwes.iter().map(|lwe| self.ring_embed(lwe, scale)).collect();
        let packed = self.pack_embedded(embedded);
        self.field_trace(&packed, nslot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fhe_ckks::{CkksParams, Decryptor};
    use fhe_tfhe::LweSecretKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    struct Fixture {
        ctx: Arc<CkksContext>,
        sk: SecretKey,
        lwe_key: LweSecretKey,
        packer: RlwePacker,
        rng: StdRng,
    }

    fn fixture(level: usize, seed: u64) -> Fixture {
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(seed);
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let lwe_key = LweSecretKey::from_coeffs(sk.coeffs().to_vec());
        let packer = RlwePacker::new(ctx.clone(), &sk, level, &mut rng);
        Fixture {
            ctx,
            sk,
            lwe_key,
            packer,
            rng,
        }
    }

    fn encrypt_lwe(f: &mut Fixture, value: i64, delta: u64) -> LweCiphertext {
        let q0 = *f.ctx.level_basis(0).modulus(0);
        let msg = if value >= 0 {
            q0.mul(q0.reduce(value as u64), q0.reduce(delta))
        } else {
            q0.neg(q0.mul(q0.reduce((-value) as u64), q0.reduce(delta)))
        };
        LweCiphertext::encrypt(&q0, &f.lwe_key, msg, 1e-8, &mut f.rng)
    }

    /// The parent's bodies, kept as the references the engine forms are
    /// pinned to: the bigint mod-raise `round(x * Q / q_0)` per word,
    /// the flat-buffer embedding, and the merge that keyswitches one
    /// difference at a time.
    impl RlwePacker {
        fn raise_reference(&self, x: u64) -> Vec<u64> {
            use fhe_math::UBig;
            let basis = self.ctx.level_basis(self.level);
            let q0 = self.ctx.level_basis(0).modulus(0);
            let centered = q0.to_centered(x);
            let mut v = basis.modulus_product().mul_u64(centered.unsigned_abs());
            v.add_assign(&UBig::from_u64(q0.value() / 2));
            let v = v.div_u64(q0.value());
            basis
                .moduli()
                .iter()
                .map(|m| {
                    let r = v.rem_u64(m.value());
                    if centered < 0 {
                        m.neg(r)
                    } else {
                        r
                    }
                })
                .collect()
        }

        fn ring_embed_reference(&self, lwe: &LweCiphertext, scale: f64) -> Ciphertext {
            let n = self.ctx.n();
            let basis = self.ctx.level_basis(self.level).clone();
            let limbs = basis.len();
            let mut c0_flat = vec![0u64; limbs * n];
            let mut c1_flat = vec![0u64; limbs * n];
            for (l, &r) in self.raise_reference(lwe.b).iter().enumerate() {
                c0_flat[l * n] = r;
            }
            for (j, &aj) in lwe.a.iter().enumerate() {
                for (l, &r) in self.raise_reference(aj).iter().enumerate() {
                    if j == 0 {
                        c1_flat[l * n] = basis.modulus(l).neg(r);
                    } else {
                        c1_flat[l * n + n - j] = r;
                    }
                }
            }
            let mut c0 = RnsPoly::from_flat(basis.clone(), c0_flat, Representation::Coeff);
            let mut c1 = RnsPoly::from_flat(basis, c1_flat, Representation::Coeff);
            c0.to_eval();
            c1.to_eval();
            Ciphertext {
                c0,
                c1,
                level: self.level,
                scale: scale * self.ratio,
            }
        }

        fn pack_embedded_reference(&self, mut cts: Vec<Ciphertext>) -> Ciphertext {
            let target = cts.len().next_power_of_two();
            while cts.len() < target {
                let basis = self.ctx.level_basis(self.level).clone();
                cts.push(Ciphertext {
                    c0: RnsPoly::zero(basis.clone(), Representation::Eval),
                    c1: RnsPoly::zero(basis, Representation::Eval),
                    level: self.level,
                    scale: cts[0].scale,
                });
            }
            fhe_math::util::bit_reverse_permute(&mut cts);
            let n = self.ctx.n() as i64;
            let mut size = 1usize;
            while cts.len() > 1 {
                size *= 2;
                let shift = n / size as i64;
                let g = size as u64 + 1;
                let gk = &self.keys[&g];
                let mut next = Vec::with_capacity(cts.len() / 2);
                for pair in cts.chunks(2) {
                    let even = &pair[0];
                    let odd_shifted = self.eval.mul_monomial(&pair[1], shift);
                    let sum = self.eval.add(even, &odd_shifted);
                    let diff = self.eval.sub(even, &odd_shifted);
                    let rotated = self.eval.apply_galois(&diff, g, gk);
                    let mut merged = self.eval.add(&sum, &rotated);
                    merged.scale = even.scale * 2.0;
                    next.push(merged);
                }
                cts = next;
            }
            cts.pop().expect("one ciphertext remains")
        }
    }

    fn assert_same_ciphertext(got: &Ciphertext, want: &Ciphertext, what: &str) {
        assert_eq!(got.c0.flat(), want.c0.flat(), "{what}: c0");
        assert_eq!(got.c1.flat(), want.c1.flat(), "{what}: c1");
        assert_eq!(got.level, want.level, "{what}: level");
        assert_eq!(got.scale.to_bits(), want.scale.to_bits(), "{what}: scale");
    }

    /// The residue mod-raise against the bigint one at levels 0, 1, 2:
    /// random ciphertexts plus the words where the centring and the
    /// rounding could differ — `0`, `1`, `q_0 - 1`, `q_0 / 2`,
    /// `q_0 / 2 + 1` — in every mask position class (`a_0`, the
    /// reversed tail) and in the body.
    #[test]
    fn ring_embed_is_bit_identical_to_the_bigint_reference() {
        for level in 0..=2 {
            let mut f = fixture(level, 145 + level as u64);
            let q0 = f.ctx.level_basis(0).modulus(0).value();
            let n = f.ctx.n();
            let edges = [0, 1, q0 - 1, q0 / 2, q0 / 2 + 1];
            let mut lwes = vec![encrypt_lwe(&mut f, 3, q0 / 64)];
            for (i, &b) in edges.iter().enumerate() {
                let a = (0..n).map(|j| edges[(i + j) % edges.len()]).collect();
                lwes.push(LweCiphertext { a, b });
            }
            for (i, lwe) in lwes.iter().enumerate() {
                let got = f.packer.ring_embed(lwe, 3.5);
                let want = f.packer.ring_embed_reference(lwe, 3.5);
                assert_same_ciphertext(&got, &want, &format!("level {level}, input {i}"));
            }
        }
    }

    /// The merge rounds and the whole conversion against the
    /// reference bodies: nslot 1, 2, 4, 8, and a
    /// three-ciphertext `pack_embedded` input (padded to four).
    #[test]
    fn pack_and_convert_are_bit_identical_to_the_sequential_reference() {
        let mut f = fixture(1, 146);
        let q0 = f.ctx.level_basis(0).modulus(0).value();
        let delta = q0 / (64 * f.ctx.n() as u64);
        let lwes: Vec<LweCiphertext> = (0..8).map(|j| encrypt_lwe(&mut f, j - 4, delta)).collect();
        let embed = |count: usize| -> Vec<Ciphertext> {
            lwes[..count]
                .iter()
                .map(|lwe| f.packer.ring_embed(lwe, delta as f64))
                .collect()
        };
        for count in [1usize, 2, 3, 4, 8] {
            let got = f.packer.pack_embedded(embed(count));
            let want = f.packer.pack_embedded_reference(embed(count));
            assert_same_ciphertext(&got, &want, &format!("pack_embedded of {count}"));
            if count.is_power_of_two() {
                let converted = f.packer.convert(&lwes[..count], delta as f64);
                let reference = f.packer.field_trace(&want, count);
                assert_same_ciphertext(&converted, &reference, &format!("convert of {count}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot pack more than N ciphertexts")]
    fn pack_embedded_rejects_more_than_n_ciphertexts() {
        let f = fixture(0, 147);
        let basis = f.ctx.level_basis(0).clone();
        let zero = Ciphertext {
            c0: RnsPoly::zero(basis.clone(), Representation::Eval),
            c1: RnsPoly::zero(basis, Representation::Eval),
            level: 0,
            scale: 1.0,
        };
        f.packer.pack_embedded(vec![zero; f.ctx.n() + 1]);
    }

    #[test]
    #[should_panic(expected = "packing level above the parameter set's maximum")]
    fn packer_rejects_a_level_above_the_maximum() {
        let ctx = fhe_ckks::CkksContext::new(CkksParams::tiny_params());
        let mut rng = StdRng::seed_from_u64(148);
        let sk = KeyGenerator::new(ctx.clone()).secret_key(&mut rng);
        let level = ctx.params().max_level() + 1;
        RlwePacker::new(ctx, &sk, level, &mut rng);
    }

    #[test]
    fn ring_embed_preserves_message_in_coeff_zero() {
        let mut f = fixture(1, 141);
        let q0 = f.ctx.level_basis(0).modulus(0).value();
        let delta = q0 / 64;
        let lwe = encrypt_lwe(&mut f, 5, delta);
        let ct = f.packer.ring_embed(&lwe, delta as f64);
        let dec = Decryptor::new(f.ctx.clone());
        let poly = dec.decrypt_poly(&ct, &f.sk);
        let vals = poly.to_centered_f64();
        let got = vals[0] / ct.scale;
        assert!((got - 5.0).abs() < 0.01, "coeff0 {got} vs 5");
    }

    #[test]
    fn pack_places_messages_at_strided_coefficients() {
        for nslot in [1usize, 2, 4, 8] {
            let mut f = fixture(2, 142 + nslot as u64);
            let q0 = f.ctx.level_basis(0).modulus(0).value();
            // Headroom: messages |m| <= 4 gain a factor N in the trace,
            // so encode at q0 / (64 * N).
            let delta = q0 / (64 * f.ctx.n() as u64);
            let msgs: Vec<i64> = (0..nslot)
                .map(|j| (j as i64) - (nslot as i64 / 2))
                .collect();
            let lwes: Vec<LweCiphertext> = msgs
                .iter()
                .map(|&m| encrypt_lwe(&mut f, m, delta))
                .collect();
            let packed = f.packer.convert(&lwes, delta as f64);
            let dec = Decryptor::new(f.ctx.clone());
            let poly = dec.decrypt_poly(&packed, &f.sk);
            let vals = poly.to_centered_f64();
            let n = f.ctx.n();
            let stride = n / nslot;
            for (j, &m) in msgs.iter().enumerate() {
                let got = vals[j * stride] / packed.scale;
                assert!(
                    (got - m as f64).abs() < 0.01,
                    "nslot {nslot} msg {j}: {got} vs {m}"
                );
            }
            // Junk coefficients are killed by the trace.
            for (i, &v) in vals.iter().enumerate() {
                if i % stride != 0 {
                    assert!(
                        (v / packed.scale).abs() < 0.01,
                        "coefficient {i} should be dead, got {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_scale_accounts_for_n_gain() {
        let mut f = fixture(1, 143);
        let q0 = f.ctx.level_basis(0).modulus(0).value();
        let delta = q0 / (64 * f.ctx.n() as u64);
        let lwes = vec![encrypt_lwe(&mut f, 1, delta), encrypt_lwe(&mut f, 1, delta)];
        let packed = f.packer.convert(&lwes, delta as f64);
        // scale = delta * (Q_1/q0) * N.
        let n = f.ctx.n() as f64;
        let expect = delta as f64 * f.packer.ratio * n;
        let rel = (packed.scale - expect).abs() / expect;
        assert!(rel < 1e-9, "scale {} vs {expect}", packed.scale);
    }

    #[test]
    fn extract_then_pack_roundtrip() {
        // CKKS -> LWE -> CKKS: Algorithm 3 followed by Algorithm 5.
        let mut f = fixture(1, 144);
        let q0m = *f.ctx.level_basis(0).modulus(0);
        let n = f.ctx.n();
        let delta = (q0m.value() / (128 * n as u64)) as i64;
        let nslot = 4usize;
        // CKKS ciphertext with coefficient-encoded messages 1,-2,3,-4.
        let msgs = [1i64, -2, 3, -4];
        let mut coeffs = vec![0i64; n];
        for (j, &m) in msgs.iter().enumerate() {
            coeffs[j] = m * delta;
        }
        let mut poly = RnsPoly::from_signed_coeffs(f.ctx.level_basis(0).clone(), &coeffs);
        poly.to_eval();
        let pt = fhe_ckks::Plaintext {
            poly,
            scale: delta as f64,
            level: 0,
        };
        let encryptor = fhe_ckks::Encryptor::new(f.ctx.clone());
        let ct = encryptor.encrypt_sk(&pt, &f.sk, &mut f.rng);
        let lwes = crate::extract::extract_lwes(&f.ctx, &ct, nslot);
        let packed = f.packer.convert(&lwes, delta as f64);
        let dec = Decryptor::new(f.ctx.clone());
        let out = dec.decrypt_poly(&packed, &f.sk);
        let vals = out.to_centered_f64();
        let stride = n / nslot;
        for (j, &m) in msgs.iter().enumerate() {
            let got = vals[j * stride] / packed.scale;
            assert!((got - m as f64).abs() < 0.02, "msg {j}: {got} vs {m}");
        }
    }
}
