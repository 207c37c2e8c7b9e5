//! Programmable bootstrapping — the paper's Algorithm 2.
//!
//! `ModSwitch → Blind Rotation (n_lwe CMUXes of external products) →
//! SampleExtract → TFHE KeySwitch`. This is the operation Trinity's
//! Table VII benchmarks (PBS throughput under Sets I–III) and the NN-x
//! benchmarks chain thousands of times.
//!
//! The pipeline up to `SampleExtract` is written once, as the batch
//! engine [`ServerKey::bootstrap_batch`]; every `bootstrap_*` entry
//! point is its one-job instance, a gate dispatch and a network layer
//! are wider ones.

use std::sync::Arc;

use fhe_math::Modulus;
use rand::Rng;

use crate::ggsw::{CmuxScratch, Ggsw, MulBackend};
use crate::glwe::{GlweCiphertext, GlweSecretKey};
use crate::lwe::{LweCiphertext, LweKeySwitchKey, LweSecretKey};
use crate::params::TfheParams;
use crate::ring::TfheRing;

/// Shared immutable TFHE state: parameters plus the ring.
#[derive(Debug, Clone)]
pub struct TfheContext {
    /// Parameter set.
    pub params: TfheParams,
    /// The negacyclic ring (modulus = closest prime to `2^q_bits`).
    pub ring: Arc<TfheRing>,
}

impl TfheContext {
    /// Builds the ring for a parameter set.
    pub fn new(params: TfheParams) -> Self {
        let ring = Arc::new(TfheRing::new(params.n, params.q_bits));
        Self { params, ring }
    }

    /// The LWE/GLWE modulus.
    pub fn q(&self) -> &Modulus {
        self.ring.modulus()
    }

    /// Encodes a boolean as `±q/8`.
    pub fn encode_bit(&self, bit: bool) -> u64 {
        let q = self.q().value();
        if bit {
            q / 8
        } else {
            q - q / 8
        }
    }

    /// Decodes a phase to a boolean (`true` when the phase lies in the
    /// upper half-plane `(0, q/2)`).
    pub fn decode_bit(&self, phase: u64) -> bool {
        phase < self.q().value() / 2
    }

    /// Encodes a message `m in [0, t)` at the centre of its half-torus
    /// window (for LUT bootstrapping).
    ///
    /// # Panics
    ///
    /// Panics if `m >= t`.
    pub fn encode_message(&self, m: u64, t: u64) -> u64 {
        assert!(m < t);
        let q = self.q().value() as u128;
        ((2 * m as u128 + 1) * q / (4 * t as u128)) as u64
    }

    /// Decodes a phase back to a message in `[0, t)` (half-torus
    /// convention matching [`Self::encode_message`]): window `m` covers
    /// phases `[m*q/2t, (m+1)*q/2t)`.
    pub fn decode_message(&self, phase: u64, t: u64) -> u64 {
        let q = self.q().value() as u128;
        let m = (phase as u128 * 2 * t as u128) / q;
        (m as u64).min(t - 1)
    }
}

/// Client-side key material.
#[derive(Debug)]
pub struct ClientKey {
    /// Context.
    pub ctx: TfheContext,
    /// Small-dimension LWE secret (ciphertexts live here).
    pub lwe_sk: LweSecretKey,
    /// GLWE secret used inside bootstrapping.
    pub glwe_sk: GlweSecretKey,
}

impl ClientKey {
    /// Generates fresh client keys.
    pub fn generate<R: Rng + ?Sized>(ctx: TfheContext, rng: &mut R) -> Self {
        let lwe_sk = LweSecretKey::generate(ctx.params.n_lwe, rng);
        let glwe_sk = GlweSecretKey::generate(ctx.params.k, ctx.params.n, rng);
        Self {
            ctx,
            lwe_sk,
            glwe_sk,
        }
    }

    /// Encrypts a boolean.
    pub fn encrypt_bit<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> LweCiphertext {
        LweCiphertext::encrypt(
            self.ctx.q(),
            &self.lwe_sk,
            self.ctx.encode_bit(bit),
            self.ctx.params.lwe_noise,
            rng,
        )
    }

    /// Decrypts a boolean.
    pub fn decrypt_bit(&self, ct: &LweCiphertext) -> bool {
        self.ctx.decode_bit(ct.phase(self.ctx.q(), &self.lwe_sk))
    }

    /// Encrypts a message in `[0, t)` (half-torus encoding).
    pub fn encrypt_message<R: Rng + ?Sized>(&self, m: u64, t: u64, rng: &mut R) -> LweCiphertext {
        LweCiphertext::encrypt(
            self.ctx.q(),
            &self.lwe_sk,
            self.ctx.encode_message(m, t),
            self.ctx.params.lwe_noise,
            rng,
        )
    }

    /// Decrypts a message in `[0, t)`.
    pub fn decrypt_message(&self, ct: &LweCiphertext, t: u64) -> u64 {
        self.ctx
            .decode_message(ct.phase(self.ctx.q(), &self.lwe_sk), t)
    }
}

/// Server-side key material: bootstrapping key + keyswitching key.
#[derive(Debug)]
pub struct ServerKey {
    /// Context.
    pub ctx: TfheContext,
    /// One GGSW per LWE secret bit (`bsk`).
    pub bsk: Vec<Ggsw>,
    /// Keyswitch from the extracted dimension `k*N` back to `n_lwe`.
    pub ksk: LweKeySwitchKey,
    /// Always [`MulBackend::Ntt`]. Exists only for `benchmark/`'s frozen
    /// `ServerKey { .. }` literal; leaves at the next benchmark
    /// re-baseline.
    pub backend: MulBackend,
}

impl ServerKey {
    /// Generates server keys from client keys.
    ///
    /// `backend` can only be [`MulBackend::Ntt`]: the parameter exists
    /// only for `benchmark/`'s frozen call signature and leaves at the
    /// next benchmark re-baseline.
    pub fn generate<R: Rng + ?Sized>(ck: &ClientKey, backend: MulBackend, rng: &mut R) -> Self {
        let ctx = ck.ctx.clone();
        let p = &ctx.params;
        let bsk = ck
            .lwe_sk
            .s
            .iter()
            .map(|&si| {
                Ggsw::encrypt_scalar(
                    &ctx.ring,
                    &ck.glwe_sk,
                    si as u64,
                    p.lb,
                    p.bg_log,
                    p.glwe_noise,
                    rng,
                )
            })
            .collect();
        let extracted = ck.glwe_sk.extracted_lwe_key();
        let ksk = LweKeySwitchKey::generate(
            ctx.q(),
            &extracted,
            &ck.lwe_sk,
            p.ks_base_log,
            p.lk,
            p.lwe_noise,
            rng,
        );
        Self {
            ctx,
            bsk,
            ksk,
            backend,
        }
    }

    /// Measured heap bytes of the server-side key material (allocated
    /// capacities of the `bsk` table, each GGSW's flat row buffer and
    /// the flat keyswitch matrix) — the per-tenant number a
    /// byte-budgeted key cache evicts by, pinned against manual
    /// capacity sums by `tests::key_bytes_pins_to_manual_capacity_sums`.
    pub fn key_bytes(&self) -> usize {
        self.bsk.capacity() * std::mem::size_of::<Ggsw>()
            + self.bsk.iter().map(Ggsw::heap_bytes).sum::<usize>()
            + self.ksk.heap_bytes()
    }

    /// Whether both keys' jobs can share one lockstep rotation — and so
    /// one batched gate dispatch ([`crate::apply_gates_batched`]): equal
    /// (parameters, modulus) mean identical deterministic NTT tables.
    /// Unlike the CKKS coalescing key (`trinity-service`'s `Geometry`),
    /// *pointer* identity of the ring is therefore not required: TFHE
    /// tenants never share key material, and per-job bootstrap and
    /// keyswitch keys are what keep cross-tenant batching safe.
    pub fn shares_ring_with(&self, other: &ServerKey) -> bool {
        self.ctx.params == other.ctx.params && self.ctx.ring.q() == other.ctx.ring.q()
    }

    /// Blind rotation (Algorithm 2 lines 2–12): rotates the test vector
    /// by the encrypted phase through `n_lwe` CMUXes — the one-job
    /// instance of [`Self::blind_rotate_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `a_tilde.len() != n_lwe`.
    pub fn blind_rotate(&self, a_tilde: &[u64], b_tilde: u64, tv: &[u64]) -> GlweCiphertext {
        Self::blind_rotate_batch(&[(self, a_tilde, b_tilde)], tv)
            .pop()
            .expect("one job in, one accumulator out")
    }

    /// The blind-rotation engine: each job rotates the test vector by
    /// its own mod-switched phase under its own bootstrapping key
    /// (`acc <- acc + bsk[i] ⊡ (rotate(acc, a_i) - acc)` for every
    /// non-zero `a_i`, in increasing `i`), the `n_lwe` CMUX steps in
    /// lockstep and **in place**: the accumulators and one
    /// `CmuxScratch` (the [`crate::ggsw`] module's one external-product
    /// dataflow) are created here, and a step allocates nothing. Per
    /// step `i`: the jobs with `a_i != 0` take the leading slots (a job
    /// that skips the step occupies none); each slot's operand is
    /// written straight from its accumulator as `X^{a_i} * acc - acc`
    /// in one fused pass; then one `decompose_batch`, one forward NTT
    /// and one inverse NTT serve all slots, the multiply-accumulates
    /// between them run gadget row outer so batch mates sharing a key
    /// meet `bsk[i]`'s row while it is hot; last, `acc += product` per
    /// slot. A job's output does not depend on its batch mates, whose
    /// keys may differ from its own; every key must share the head's
    /// ring ([`Self::shares_ring_with`]), the lockstep condition.
    ///
    /// # Panics
    ///
    /// Panics if a job's key does not share the first job's ring,
    /// `tv.len()` differs from the ring degree `N`, or any job's
    /// `a_tilde.len()` from its key's `n_lwe`.
    pub fn blind_rotate_batch(
        jobs: &[(&ServerKey, &[u64], u64)],
        tv: &[u64],
    ) -> Vec<GlweCiphertext> {
        let Some(&(head, ..)) = jobs.first() else {
            return Vec::new();
        };
        assert!(
            jobs.iter().all(|(sk, ..)| sk.shares_ring_with(head)),
            "every job in a batch must share the head's ring"
        );
        let ring = &head.ctx.ring;
        let p = &head.ctx.params;
        assert_eq!(
            tv.len(),
            ring.n(),
            "test vector length must equal the ring degree N"
        );
        let mut accs: Vec<GlweCiphertext> = jobs
            .iter()
            .map(|&(_, a_tilde, b_tilde)| {
                assert_eq!(
                    a_tilde.len(),
                    p.n_lwe,
                    "switched mask length must equal n_lwe"
                );
                GlweCiphertext::trivial(ring, p.k, ring.mul_monomial(tv, -(b_tilde as i64)))
            })
            .collect();
        let mut cmux = CmuxScratch::new(ring, p.k, p.lb, p.bg_log, jobs.len());
        for i in 0..p.n_lwe {
            // Jobs whose i-th switched mask coefficient is zero skip
            // this CMUX.
            cmux.step(
                |j| (jobs[j].1[i] != 0).then(|| &jobs[j].0.bsk[i]),
                |j, diff| accs[j].rotate_sub_into(ring, jobs[j].1[i] as i64, diff),
            );
            for (j, prod) in cmux.products() {
                ring.add_assign(accs[j].words_mut(), prod);
            }
        }
        accs
    }

    /// The programmable-bootstrap engine (Algorithm 2 lines 1–14):
    /// per job the dimension check and `ModSwitch` to `2N`, one
    /// [`Self::blind_rotate_batch`] over all jobs (which must share one
    /// ring), per job `SampleExtract` of coefficient 0. Outputs are
    /// *unswitched*: each stays under its key's extracted GLWE key
    /// (dimension `k * N`) and carries only the blind-rotation noise;
    /// chain
    /// [`crate::lwe::LweKeySwitchKey::switch`] to return to the small
    /// key. A job's output does not depend on its batch mates:
    /// [`Self::bootstrap_with_tv_unswitched`] is the one-job instance,
    /// [`crate::apply_gates_batched`] and [`Self::infer_layer`] are
    /// wider ones.
    ///
    /// # Panics
    ///
    /// Panics if a job's ciphertext is not of its key's dimension
    /// `n_lwe`, a job's key does not share the first job's ring, or
    /// `tv.len()` differs from the ring degree `N`.
    pub fn bootstrap_batch(
        jobs: &[(&ServerKey, &LweCiphertext)],
        tv: &[u64],
    ) -> Vec<LweCiphertext> {
        let switched: Vec<(Vec<u64>, u64)> = jobs
            .iter()
            .map(|&(sk, ct)| {
                let p = &sk.ctx.params;
                assert_eq!(ct.dim(), p.n_lwe, "input LWE dimension must equal n_lwe");
                ct.mod_switch(sk.ctx.q(), 2 * p.n as u64)
            })
            .collect();
        let rotations: Vec<(&ServerKey, &[u64], u64)> = jobs
            .iter()
            .zip(&switched)
            .map(|(&(sk, _), (a, b))| (sk, a.as_slice(), *b))
            .collect();
        Self::blind_rotate_batch(&rotations, tv)
            .iter()
            .zip(jobs)
            .map(|(acc, &(sk, _))| acc.sample_extract(&sk.ctx.ring, 0))
            .collect()
    }

    /// Programmable bootstrap *without* the final TFHE keyswitch — the
    /// one-job instance of [`Self::bootstrap_batch`].
    ///
    /// Scheme-conversion pipelines aggregate and convert from this form
    /// (the TFHE keyswitch would add noise the conversion budget cannot
    /// afford).
    ///
    /// # Panics
    ///
    /// Panics if `ct` is not of dimension `n_lwe`.
    pub fn bootstrap_with_tv_unswitched(&self, ct: &LweCiphertext, tv: &[u64]) -> LweCiphertext {
        Self::bootstrap_batch(&[(self, ct)], tv)
            .pop()
            .expect("one job in, one ciphertext out")
    }

    /// Full programmable bootstrap with an explicit test vector.
    ///
    /// Returns a fresh LWE ciphertext of dimension `n_lwe` whose phase is
    /// the test-vector coefficient selected by the input phase.
    pub fn bootstrap_with_tv(&self, ct: &LweCiphertext, tv: &[u64]) -> LweCiphertext {
        let extracted = self.bootstrap_with_tv_unswitched(ct, tv);
        self.ksk.switch(self.ctx.q(), &extracted)
    }

    /// Sign bootstrap: phase in `[0, q/2)` maps to `+q/8`, the rest to
    /// `-q/8` (the gate-bootstrapping test vector).
    pub fn bootstrap_sign(&self, ct: &LweCiphertext) -> LweCiphertext {
        let q = self.ctx.q().value();
        let tv = vec![q / 8; self.ctx.params.n];
        self.bootstrap_with_tv(ct, &tv)
    }

    /// LUT bootstrap over the half-torus message space `[0, t)`:
    /// applies `m -> lut[m]` (outputs are raw torus points).
    ///
    /// # Panics
    ///
    /// Panics if `lut.len()` does not divide the ring degree.
    pub fn bootstrap_lut(&self, ct: &LweCiphertext, lut: &[u64]) -> LweCiphertext {
        self.bootstrap_with_tv(ct, &self.lut_test_vector(lut))
    }

    /// Predicate bootstrap: evaluates `m -> +amplitude` when
    /// `pred(m)` holds and `-amplitude` otherwise, over message space
    /// `[0, t)`. The result stays under the extracted GLWE key so
    /// predicate bits can be aggregated and scheme-converted without the
    /// TFHE keyswitch noise (the HE3DB filter pattern; see the
    /// `encrypted_db` example).
    pub fn bootstrap_predicate_unswitched(
        &self,
        ct: &LweCiphertext,
        t: u64,
        pred: impl Fn(u64) -> bool,
        amplitude: u64,
    ) -> LweCiphertext {
        let q = self.ctx.q();
        let lut: Vec<u64> = (0..t)
            .map(|m| if pred(m) { amplitude } else { q.neg(amplitude) })
            .collect();
        self.bootstrap_with_tv_unswitched(ct, &self.lut_test_vector(&lut))
    }

    /// Expands a `t`-entry LUT into the full test vector.
    ///
    /// # Panics
    ///
    /// Panics if `lut.len()` does not divide the ring degree.
    fn lut_test_vector(&self, lut: &[u64]) -> Vec<u64> {
        let n = self.ctx.params.n;
        let t = lut.len();
        assert!(n.is_multiple_of(t), "LUT size must divide N");
        let window = n / t;
        let mut tv = vec![0u64; n];
        for (m, &v) in lut.iter().enumerate() {
            tv[m * window..(m + 1) * window].fill(v);
        }
        tv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use std::sync::OnceLock;

    fn keys(params: TfheParams, seed: u64) -> (ClientKey, ServerKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ck = ClientKey::generate(TfheContext::new(params), &mut rng);
        let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
        (ck, sk)
    }

    // Key generation dominates these tests, so each key is generated
    // once per test binary and shared: the per-case #[test] fns below
    // stay cheap (one or two bootstraps each) instead of one monolithic
    // test paying every case back to back.
    fn set_i_ntt() -> &'static (ClientKey, ServerKey) {
        static K: OnceLock<(ClientKey, ServerKey)> = OnceLock::new();
        K.get_or_init(|| keys(TfheParams::set_i(), 111))
    }

    /// A second Set-I tenant: another key on the same ring, so batches
    /// mix keys in lockstep.
    fn set_i_second() -> &'static (ClientKey, ServerKey) {
        static K: OnceLock<(ClientKey, ServerKey)> = OnceLock::new();
        K.get_or_init(|| keys(TfheParams::set_i(), 114))
    }

    fn set_ii_ntt() -> &'static (ClientKey, ServerKey) {
        static K: OnceLock<(ClientKey, ServerKey)> = OnceLock::new();
        K.get_or_init(|| keys(TfheParams::set_ii(), 115))
    }

    fn set_iii_ntt() -> &'static (ClientKey, ServerKey) {
        static K: OnceLock<(ClientKey, ServerKey)> = OnceLock::new();
        K.get_or_init(|| keys(TfheParams::set_iii(), 116))
    }

    /// `key_bytes` must equal the manual sum of the flat key buffers —
    /// the service key cache's eviction arithmetic depends on this
    /// accounting being honest — and every buffer must be allocated at
    /// exactly its final size (`capacity == len`): the keys dominate a
    /// process's resident set. The keyswitch key's words are `u32`
    /// under the 32-bit torus prime: 16 416 768 B (32 833 536 B as
    /// `u64`), and `key_bytes` 49 208 768 B (65 625 536 B).
    #[test]
    fn key_bytes_pins_to_manual_capacity_sums() {
        let (_, sk) = set_i_ntt();
        let p = &sk.ctx.params;
        let word = std::mem::size_of::<u64>();
        let ksk_word = std::mem::size_of::<u32>();
        let ggsw_words = (p.k + 1) * p.lb * (p.k + 1) * p.n;
        let ksk_words = p.k * p.n * p.lk * (p.n_lwe + 1);
        assert_eq!(sk.bsk.capacity(), sk.bsk.len());
        for ggsw in &sk.bsk {
            assert_eq!(ggsw.words().capacity(), ggsw.words().len());
            assert_eq!(ggsw.heap_bytes(), ggsw_words * word);
        }
        // `heap_bytes` counts capacity: equal to the length in bytes,
        // the matrix has no spare capacity.
        assert_eq!(sk.ksk.words().count(), ksk_words);
        assert_eq!(sk.ksk.heap_bytes(), ksk_words * ksk_word);
        assert_eq!(sk.ksk.heap_bytes(), 16_416_768);
        assert_eq!(
            sk.key_bytes(),
            p.n_lwe * (std::mem::size_of::<Ggsw>() + ggsw_words * word) + ksk_words * ksk_word
        );
        assert_eq!(sk.key_bytes(), 49_208_768);
    }

    /// Equal parameters and modulus are the lockstep condition, not one
    /// shared ring or key: two Set-I tenants share a ring, Set-I and
    /// Set-II do not.
    #[test]
    fn shares_ring_with_requires_matching_params() {
        let (_, a) = set_i_ntt();
        let (_, b) = set_i_second();
        let (_, other) = set_ii_ntt();
        assert!(a.shares_ring_with(b), "distinct rings, same tables");
        assert!(!a.shares_ring_with(other) && !other.shares_ring_with(a));
    }

    /// FNV-1a over the key words of `set_i_ntt()` — bsk in
    /// `[i][gadget row][component][coeff]` order, then ksk in
    /// `[i][j][n_out + 1]` order — computed at the commit that still
    /// stored both keys as nested `u64` `Vec`s: neither the flat layout
    /// nor the `u32` keyswitch words (hashed here widened) moved a key
    /// bit, and key generation still draws from the RNG in that order.
    #[test]
    fn server_key_words_match_the_nested_layout_checksum() {
        let (_, sk) = set_i_ntt();
        let words = sk
            .bsk
            .iter()
            .flat_map(|ggsw| ggsw.words().iter().copied())
            .chain(sk.ksk.words());
        let (mut hash, mut count) = (0xcbf2_9ce4_8422_2325_u64, 0usize);
        for w in words {
            hash = (hash ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            count += 1;
        }
        assert_eq!(count, 8_200_192);
        assert_eq!(hash, 0x87be_cbc8_d1f8_f378);
    }

    fn check_sign_bootstrap(bit: bool, seed: u64) {
        let (ck, sk) = set_i_ntt();
        let mut rng = StdRng::seed_from_u64(seed);
        let q = ck.ctx.q().value();
        let ct = ck.encrypt_bit(bit, &mut rng);
        let boot = sk.bootstrap_sign(&ct);
        let phase = boot.phase(ck.ctx.q(), &ck.lwe_sk);
        let expect = ck.ctx.encode_bit(bit);
        let err = ck.ctx.q().to_centered(ck.ctx.q().sub(phase, expect)).abs();
        assert!(
            err < (q / 16) as i64,
            "bit {bit}: phase {phase} vs {expect}, err {err}"
        );
    }

    #[test]
    fn sign_bootstrap_refreshes_true() {
        check_sign_bootstrap(true, 1111);
    }

    #[test]
    fn sign_bootstrap_refreshes_false() {
        check_sign_bootstrap(false, 1112);
    }

    #[test]
    fn bootstrap_reduces_noise() {
        // Inject heavy noise, bootstrap, verify the output noise is small.
        let (ck, sk) = set_i_ntt();
        let mut rng = StdRng::seed_from_u64(112);
        let q = ck.ctx.q();
        let qv = q.value();
        let mut ct = ck.encrypt_bit(true, &mut rng);
        // Add noise worth q/32 — large but decodable.
        ct.b = q.add(ct.b, qv / 32);
        let boot = sk.bootstrap_sign(&ct);
        let phase = boot.phase(q, &ck.lwe_sk);
        let err = q.to_centered(q.sub(phase, ck.ctx.encode_bit(true))).abs();
        assert!(err < (qv / 32) as i64, "post-bootstrap error {err}");
    }

    fn check_lut_bootstrap(ms: std::ops::Range<u64>) {
        let (ck, sk) = set_i_ntt();
        let mut rng = StdRng::seed_from_u64(113 + ms.start);
        let t = 4u64;
        // LUT: m -> (3 - m) encoded in the half-torus.
        let lut: Vec<u64> = (0..t).map(|m| ck.ctx.encode_message(3 - m, t)).collect();
        for m in ms {
            let ct = ck.encrypt_message(m, t, &mut rng);
            let out = sk.bootstrap_lut(&ct, &lut);
            let got = ck.decrypt_message(&out, t);
            assert_eq!(got, 3 - m, "LUT({m})");
        }
    }

    #[test]
    fn lut_bootstrap_low_messages() {
        check_lut_bootstrap(0..2);
    }

    #[test]
    fn lut_bootstrap_high_messages() {
        check_lut_bootstrap(2..4);
    }

    fn check_predicate_bootstrap(ms: &[u64], seed: u64) {
        let (ck, sk) = set_iii_ntt();
        let mut rng = StdRng::seed_from_u64(seed);
        let t = 16u64;
        let q = ck.ctx.q();
        let amplitude = q.value() / 32;
        let extracted = ck.glwe_sk.extracted_lwe_key();
        for &m in ms {
            let ct = ck.encrypt_message(m, t, &mut rng);
            let out = sk.bootstrap_predicate_unswitched(&ct, t, |x| x < 8, amplitude);
            let phase = q.to_centered(out.phase(q, &extracted));
            let got_true = phase > 0;
            assert_eq!(got_true, m < 8, "predicate(m={m})");
            // Amplitude preserved within the blind-rotate noise.
            assert!(
                (phase.unsigned_abs() as f64 / amplitude as f64 - 1.0).abs() < 0.5,
                "m={m}: phase {phase} vs +/-{amplitude}"
            );
        }
    }

    #[test]
    fn predicate_bootstrap_below_threshold() {
        check_predicate_bootstrap(&[0, 5], 117);
    }

    #[test]
    fn predicate_bootstrap_at_and_above_threshold() {
        check_predicate_bootstrap(&[8, 15], 118);
    }

    /// The sequential CMUX loop over the strict external product — the
    /// reference the one rotation engine is checked against, sharing no
    /// code with it.
    fn blind_rotate_reference(
        sk: &ServerKey,
        a_tilde: &[u64],
        b_tilde: u64,
        tv: &[u64],
    ) -> GlweCiphertext {
        let ring = &sk.ctx.ring;
        let init = ring.mul_monomial(tv, -(b_tilde as i64));
        let mut acc = GlweCiphertext::trivial(ring, sk.ctx.params.k, init);
        for (bsk_i, &ai) in sk.bsk.iter().zip(a_tilde) {
            if ai == 0 {
                continue;
            }
            let mut diff = acc.rotate(ring, ai as i64);
            diff.sub_assign(ring, &acc);
            let mut out = bsk_i.external_product_strict(ring, &diff);
            out.add_assign(ring, &acc);
            acc = out;
        }
        acc
    }

    fn switched_bits(ck: &ClientKey, bits: &[bool], rng: &mut StdRng) -> Vec<(Vec<u64>, u64)> {
        let two_n = 2 * ck.ctx.params.n as u64;
        bits.iter()
            .map(|&bit| ck.encrypt_bit(bit, rng).mod_switch(ck.ctx.q(), two_n))
            .collect()
    }

    #[test]
    fn batched_blind_rotate_is_bit_identical_to_sequential() {
        let (ck, sk) = set_i_ntt();
        let mut rng = StdRng::seed_from_u64(119);
        let tv = vec![ck.ctx.q().value() / 8; ck.ctx.params.n];
        let switched = switched_bits(ck, &[true, false, true], &mut rng);
        let jobs: Vec<(&ServerKey, &[u64], u64)> = switched
            .iter()
            .map(|(a, b)| (sk, a.as_slice(), *b))
            .collect();
        let batched = ServerKey::blind_rotate_batch(&jobs, &tv);
        for ((a, b), got) in switched.iter().zip(&batched) {
            let reference = blind_rotate_reference(sk, a, *b, &tv);
            let single = sk.blind_rotate(a, *b, &tv);
            for want in [reference, single] {
                assert_eq!(got.mask(0), want.mask(0));
                assert_eq!(got.body(), want.body());
            }
        }
        assert!(ServerKey::blind_rotate_batch(&[], &tv).is_empty());
    }

    /// Batch shapes beyond one key: the second Set-I tenant's job alone,
    /// beside the first tenant's, and four jobs alternating the two
    /// keys — every output equal to the job's own single rotation and
    /// decrypting to its input bit.
    #[test]
    fn blind_rotate_batch_serves_mixed_key_jobs() {
        let fixtures = [set_i_second(), set_i_ntt(), set_i_ntt(), set_i_second()];
        let head = &fixtures[0].0.ctx;
        let tv = vec![head.q().value() / 8; head.params.n];
        let bits = [true, false, false, true];
        let mut rng = StdRng::seed_from_u64(120);
        let switched: Vec<(Vec<u64>, u64)> = fixtures
            .iter()
            .zip(bits)
            .map(|((ck, _), bit)| switched_bits(ck, &[bit], &mut rng).remove(0))
            .collect();
        let jobs: Vec<(&ServerKey, &[u64], u64)> = fixtures
            .iter()
            .zip(&switched)
            .map(|((_, sk), (a, b))| (sk, a.as_slice(), *b))
            .collect();
        // [second] alone, [second, first], then all four.
        for batch in [&jobs[..1], &jobs[..2], &jobs[..]] {
            let got = ServerKey::blind_rotate_batch(batch, &tv);
            assert_eq!(got.len(), batch.len());
            for (i, (&(sk, a, b), acc)) in batch.iter().zip(&got).enumerate() {
                let single = sk.blind_rotate(a, b, &tv);
                assert_eq!(acc.mask(0), single.mask(0), "job {i} of {}", batch.len());
                assert_eq!(acc.body(), single.body(), "job {i} of {}", batch.len());
                let (ck, _) = fixtures[i];
                let extracted = acc.sample_extract(&sk.ctx.ring, 0);
                let out = sk.ksk.switch(sk.ctx.q(), &extracted);
                assert_eq!(ck.decrypt_bit(&out), bits[i], "job {i} of {}", batch.len());
            }
        }
    }

    /// The parent's `bootstrap_with_tv_unswitched`, kept as the
    /// reference the one pipeline is pinned to.
    fn bootstrap_reference(sk: &ServerKey, ct: &LweCiphertext, tv: &[u64]) -> LweCiphertext {
        let two_n = 2 * sk.ctx.params.n as u64;
        let (a_tilde, b_tilde) = ct.mod_switch(sk.ctx.q(), two_n);
        let acc = sk.blind_rotate(&a_tilde, b_tilde, tv);
        acc.sample_extract(&sk.ctx.ring, 0)
    }

    /// Three jobs in one call under two Set-I tenants' keys equal, word
    /// for word, their three one-job calls and the reference pipeline,
    /// and decrypt to their inputs after the keyswitch.
    #[test]
    fn bootstrap_batch_is_bit_identical_to_one_job_calls() {
        let fixtures = [set_i_ntt(), set_i_second(), set_i_ntt()];
        let head = &fixtures[0].0.ctx;
        let tv = vec![head.q().value() / 8; head.params.n];
        let bits = [true, false, true];
        let mut rng = StdRng::seed_from_u64(121);
        let inputs: Vec<LweCiphertext> = fixtures
            .iter()
            .zip(bits)
            .map(|((ck, _), bit)| ck.encrypt_bit(bit, &mut rng))
            .collect();
        let jobs: Vec<(&ServerKey, &LweCiphertext)> = fixtures
            .iter()
            .zip(&inputs)
            .map(|((_, sk), ct)| (sk, ct))
            .collect();
        for batch in [&jobs[..2], &jobs[..]] {
            let got = ServerKey::bootstrap_batch(batch, &tv);
            assert_eq!(got.len(), batch.len());
            for (i, (&(sk, ct), out)) in batch.iter().zip(&got).enumerate() {
                let single = sk.bootstrap_with_tv_unswitched(ct, &tv);
                let reference = bootstrap_reference(sk, ct, &tv);
                for want in [single, reference] {
                    assert_eq!((&out.a, out.b), (&want.a, want.b), "job {i}");
                }
                let switched = sk.ksk.switch(sk.ctx.q(), out);
                assert_eq!(fixtures[i].0.decrypt_bit(&switched), bits[i], "job {i}");
            }
        }
        assert!(ServerKey::bootstrap_batch(&[], &tv).is_empty());
    }

    /// Random masks hold a zero once in 2 048 coefficients, so the
    /// jobs here carry hand-built ones whose zeros are staggered: at
    /// step 0 job 0 sits out while its mates run, at step 7 jobs 0 and
    /// 1 do, at step 8 job 1 alone, and job 2 never takes a slot.
    #[test]
    fn blind_rotate_batch_packs_jobs_that_sit_a_step_out() {
        let (ck, first) = set_i_ntt();
        let (_, second) = set_i_second();
        let n_lwe = ck.ctx.params.n_lwe;
        let tv = vec![ck.ctx.q().value() / 8; ck.ctx.params.n];
        let zeros: [&[usize]; 4] = [&[0, 7], &[7, 8], &[], &[]];
        let masks: Vec<Vec<u64>> = (0..4)
            .map(|j| {
                if j == 2 {
                    return vec![0; n_lwe];
                }
                let mut a: Vec<u64> = (0..n_lwe)
                    .map(|i| 1 + ((i * 37 + j * 101) % 2047) as u64)
                    .collect();
                for &step in zeros[j] {
                    a[step] = 0;
                }
                a
            })
            .collect();
        for keys in [[first; 4], [first, second, second, first]] {
            let jobs: Vec<(&ServerKey, &[u64], u64)> = keys
                .iter()
                .zip(&masks)
                .enumerate()
                .map(|(j, (sk, a))| (*sk, a.as_slice(), 3 + 500 * j as u64))
                .collect();
            let batched = ServerKey::blind_rotate_batch(&jobs, &tv);
            for (j, (&(sk, a, b), got)) in jobs.iter().zip(&batched).enumerate() {
                let single = sk.blind_rotate(a, b, &tv);
                assert_eq!(got.words(), single.words(), "job {j} vs its k = 1 run");
                let reference = blind_rotate_reference(sk, a, b, &tv);
                assert_eq!(got.words(), reference.words(), "job {j} vs reference");
            }
        }
    }

    /// A Set-I and a Set-II key share the ring degree but not the
    /// parameters (`n_lwe`, gadget): no lockstep rotation serves both,
    /// and the serving layer never forms such a batch
    /// ([`ServerKey::shares_ring_with`] groups its gates). The gate
    /// engine checks the whole batch before it splits it: on a two-lane
    /// pool the Set-II job would otherwise sit alone in the second
    /// chunk.
    #[test]
    #[should_panic(expected = "every job in a batch must share the head's ring")]
    fn batch_engines_reject_jobs_of_another_parameter_set() {
        let (ck_i, sk_i) = set_i_ntt();
        let (ck_ii, sk_ii) = set_ii_ntt();
        let mut rng = StdRng::seed_from_u64(122);
        let a = ck_i.encrypt_bit(true, &mut rng);
        let b = ck_ii.encrypt_bit(false, &mut rng);
        let two = fhe_math::pool::WorkerPool::new(2);
        crate::gates::apply_gates_batched_on(
            &two,
            &[
                (sk_i, crate::GateOp::And, &a, &a),
                (sk_ii, crate::GateOp::And, &b, &b),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "test vector length must equal the ring degree N")]
    fn blind_rotate_rejects_wrong_test_vector_length() {
        let (ck, sk) = set_i_ntt();
        // A short vector used to die inside the monomial copy.
        let tv = vec![ck.ctx.q().value() / 8; ck.ctx.params.n - 1];
        sk.blind_rotate(&vec![1u64; ck.ctx.params.n_lwe], 0, &tv);
    }

    #[test]
    #[should_panic(expected = "switched mask length must equal n_lwe")]
    fn blind_rotate_rejects_wrong_mask_length() {
        let (ck, sk) = set_i_ntt();
        let tv = vec![ck.ctx.q().value() / 8; ck.ctx.params.n];
        // One coefficient too many would index past `bsk`; one too few
        // would silently skip CMUXes.
        let a_tilde = vec![1u64; ck.ctx.params.n_lwe + 1];
        sk.blind_rotate(&a_tilde, 0, &tv);
    }

    #[test]
    #[should_panic(expected = "input LWE dimension must equal n_lwe")]
    fn bootstrap_rejects_wrong_lwe_dimension() {
        let (ck, sk) = set_i_ntt();
        let ct = LweCiphertext::trivial(ck.ctx.params.n_lwe - 1, ck.ctx.encode_bit(true));
        sk.bootstrap_sign(&ct);
    }

    fn check_set_bootstraps(fixture: &(ClientKey, ServerKey), bit: bool, seed: u64) {
        let (ck, sk) = fixture;
        let mut rng = StdRng::seed_from_u64(seed);
        let ct = ck.encrypt_bit(bit, &mut rng);
        assert_eq!(ck.decrypt_bit(&sk.bootstrap_sign(&ct)), bit);
    }

    #[test]
    fn set_ii_bootstraps_true() {
        check_set_bootstraps(set_ii_ntt(), true, 1151);
    }

    #[test]
    fn set_ii_bootstraps_false() {
        check_set_bootstraps(set_ii_ntt(), false, 1152);
    }

    #[test]
    fn set_iii_bootstraps_true() {
        check_set_bootstraps(set_iii_ntt(), true, 1161);
    }

    #[test]
    fn set_iii_bootstraps_false() {
        check_set_bootstraps(set_iii_ntt(), false, 1162);
    }
}
