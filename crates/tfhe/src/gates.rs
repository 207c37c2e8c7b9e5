//! Gate bootstrapping: homomorphic boolean gates.
//!
//! Each binary gate is one linear combination followed by one sign PBS —
//! the throughput unit of the paper's Table VII and the building block
//! of its NN-x benchmarks. Booleans are encoded as `±q/8`. A dispatch
//! of `k` gates is split into one chunk per lane of the process pool
//! [`pool::shared`], and each chunk runs the linear parts, one
//! [`ServerKey::bootstrap_batch`] under the sign test vector, then
//! keyswitch and negate per gate.

use fhe_math::pool::{self, WorkerPool};

use crate::bootstrap::ServerKey;
use crate::lwe::LweCiphertext;

/// A binary homomorphic gate as *data* — the job payload a serving
/// layer queues on its Interactive lane (each application is one linear
/// combination plus one sign PBS, the latency unit of the paper's
/// Table VII), dispatched through [`ServerKey::apply_gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateOp {
    /// Homomorphic AND.
    And,
    /// Homomorphic OR.
    Or,
    /// Homomorphic NAND.
    Nand,
    /// Homomorphic NOR.
    Nor,
    /// Homomorphic XOR.
    Xor,
    /// Homomorphic XNOR.
    Xnor,
}

impl GateOp {
    /// All binary gates, for exhaustive tests and traffic generators.
    pub const ALL: [GateOp; 6] = [
        GateOp::And,
        GateOp::Or,
        GateOp::Nand,
        GateOp::Nor,
        GateOp::Xor,
        GateOp::Xnor,
    ];

    /// The plaintext truth table this gate computes.
    pub fn eval(self, a: bool, b: bool) -> bool {
        match self {
            GateOp::And => a && b,
            GateOp::Or => a || b,
            GateOp::Nand => !(a && b),
            GateOp::Nor => !(a || b),
            GateOp::Xor => a ^ b,
            GateOp::Xnor => !(a ^ b),
        }
    }
}

impl ServerKey {
    /// Applies a binary gate selected at runtime — the dispatch point
    /// for queued [`GateOp`] jobs, and the one-job instance of
    /// [`apply_gates_batched`].
    pub fn apply_gate(&self, op: GateOp, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        apply_gates_batched(&[(self, op, a, b)])
            .pop()
            .expect("one job in, one gate out")
    }

    /// The linear combination feeding a gate's sign bootstrap, plus
    /// whether the bootstrapped output must be negated (the N-gates).
    fn gate_linear(
        &self,
        op: GateOp,
        a: &LweCiphertext,
        b: &LweCiphertext,
    ) -> (LweCiphertext, bool) {
        let q = self.ctx.q();
        let qv = q.value();
        // (bias, double inputs, negate output): AND/NAND share
        // `a + b - q/8`, OR/NOR share `a + b + q/8`, XOR/XNOR share the
        // doubling trick `2a + 2b + q/4`.
        let (bias, double, negate) = match op {
            GateOp::And => (q.neg(qv / 8), false, false),
            GateOp::Nand => (q.neg(qv / 8), false, true),
            GateOp::Or => (qv / 8, false, false),
            GateOp::Nor => (qv / 8, false, true),
            GateOp::Xor => (qv / 4, true, false),
            GateOp::Xnor => (qv / 4, true, true),
        };
        let mut lin = LweCiphertext::trivial(a.dim(), bias);
        if double {
            let mut two_a = a.clone();
            two_a.mul_small(q, 2);
            let mut two_b = b.clone();
            two_b.mul_small(q, 2);
            lin.add_assign(q, &two_a);
            lin.add_assign(q, &two_b);
        } else {
            lin.add_assign(q, a);
            lin.add_assign(q, b);
        }
        (lin, negate)
    }

    /// Homomorphic NOT — purely linear, no bootstrap.
    pub fn not(&self, a: &LweCiphertext) -> LweCiphertext {
        let mut out = a.clone();
        out.neg_assign(self.ctx.q());
        out
    }

    /// Homomorphic AND.
    pub fn and(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply_gate(GateOp::And, a, b)
    }

    /// Homomorphic OR.
    pub fn or(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply_gate(GateOp::Or, a, b)
    }

    /// Homomorphic NAND — the universal gate the TFHE literature
    /// benchmarks.
    pub fn nand(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply_gate(GateOp::Nand, a, b)
    }

    /// Homomorphic NOR.
    pub fn nor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply_gate(GateOp::Nor, a, b)
    }

    /// Homomorphic XOR (single bootstrap via the doubling trick).
    pub fn xor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply_gate(GateOp::Xor, a, b)
    }

    /// Homomorphic XNOR.
    pub fn xnor(&self, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        self.apply_gate(GateOp::Xnor, a, b)
    }

    /// Homomorphic MUX: `sel ? a : b` (three bootstraps).
    pub fn mux(&self, sel: &LweCiphertext, a: &LweCiphertext, b: &LweCiphertext) -> LweCiphertext {
        let t1 = self.and(sel, a);
        let not_sel = self.not(sel);
        let t2 = self.and(&not_sel, b);
        self.or(&t1, &t2)
    }
}

/// One gate application of a batched dispatch: the tenant's server key,
/// the gate, and its two encrypted inputs.
pub type BatchedGateJob<'a> = (&'a ServerKey, GateOp, &'a LweCiphertext, &'a LweCiphertext);

/// The gate engine: applies `k` independent binary gates as one
/// dispatch — the serving layer's Interactive-lane batch. The jobs are
/// split into one contiguous chunk per lane of [`pool::shared`]
/// ([`WorkerPool::map_chunks`]; one job, or a one-lane pool, runs
/// inline), and each chunk runs per job the gate's linear combination,
/// then its sign bootstraps as one [`ServerKey::bootstrap_batch`] (one
/// wide kernel batch call per CMUX step instead of one narrow call per
/// job), then keyswitch and negate per job. [`ServerKey::apply_gate`] is
/// the one-job instance, so a job's output does not depend on how it
/// was batched or split. Different tenants' keys may share a dispatch
/// as long as they share one ring ([`ServerKey::shares_ring_with`], the
/// grouping the serving layer forms): the sign test vector is `q/8`
/// over the head's `N` coefficients.
///
/// # Panics
///
/// Panics if a job's key does not share the first job's ring — checked
/// over the whole batch, before it is split — or a job's inputs are not
/// of its key's LWE dimension `n_lwe`.
pub fn apply_gates_batched(jobs: &[BatchedGateJob<'_>]) -> Vec<LweCiphertext> {
    apply_gates_batched_on(pool::shared(), jobs)
}

/// [`apply_gates_batched`] split over `pool`'s lanes.
pub(crate) fn apply_gates_batched_on(
    pool: &WorkerPool,
    jobs: &[BatchedGateJob<'_>],
) -> Vec<LweCiphertext> {
    let Some(&(head, ..)) = jobs.first() else {
        return Vec::new();
    };
    assert!(
        jobs.iter().all(|(sk, ..)| sk.shares_ring_with(head)),
        "every job in a batch must share the head's ring"
    );
    let tv = vec![head.ctx.ring.q() / 8; head.ctx.ring.n()];
    pool.map_chunks(jobs, |chunk| {
        let lins: Vec<(LweCiphertext, bool)> = chunk
            .iter()
            .map(|&(sk, op, a, b)| sk.gate_linear(op, a, b))
            .collect();
        let boots: Vec<(&ServerKey, &LweCiphertext)> = chunk
            .iter()
            .zip(&lins)
            .map(|(&(sk, ..), (lin, _))| (sk, lin))
            .collect();
        let mut outs = ServerKey::bootstrap_batch(&boots, &tv);
        for ((out, &(sk, ..)), &(_, negate)) in outs.iter_mut().zip(chunk).zip(&lins) {
            *out = sk.ksk.switch(sk.ctx.q(), out);
            if negate {
                out.neg_assign(sk.ctx.q());
            }
        }
        outs
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bootstrap::{ClientKey, TfheContext};
    use crate::ggsw::MulBackend;
    use crate::params::TfheParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (ClientKey, ServerKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(121);
        let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
        let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
        (ck, sk, rng)
    }

    #[test]
    fn truth_tables() {
        let (ck, sk, mut rng) = setup();
        for a in [false, true] {
            for b in [false, true] {
                let ca = ck.encrypt_bit(a, &mut rng);
                let cb = ck.encrypt_bit(b, &mut rng);
                assert_eq!(ck.decrypt_bit(&sk.and(&ca, &cb)), a && b, "AND({a},{b})");
                assert_eq!(ck.decrypt_bit(&sk.or(&ca, &cb)), a || b, "OR({a},{b})");
                assert_eq!(
                    ck.decrypt_bit(&sk.nand(&ca, &cb)),
                    !(a && b),
                    "NAND({a},{b})"
                );
                assert_eq!(ck.decrypt_bit(&sk.nor(&ca, &cb)), !(a || b), "NOR({a},{b})");
                assert_eq!(ck.decrypt_bit(&sk.xor(&ca, &cb)), a ^ b, "XOR({a},{b})");
                assert_eq!(
                    ck.decrypt_bit(&sk.xnor(&ca, &cb)),
                    !(a ^ b),
                    "XNOR({a},{b})"
                );
            }
        }
    }

    #[test]
    fn apply_gate_matches_plaintext_truth_tables() {
        let (ck, sk, mut rng) = setup();
        for op in GateOp::ALL {
            for a in [false, true] {
                for b in [false, true] {
                    let ca = ck.encrypt_bit(a, &mut rng);
                    let cb = ck.encrypt_bit(b, &mut rng);
                    assert_eq!(
                        ck.decrypt_bit(&sk.apply_gate(op, &ca, &cb)),
                        op.eval(a, b),
                        "{op:?}({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_gates_are_bit_identical_to_sequential() {
        let (ck, sk, mut rng) = setup();
        // One job per gate so every (bias, double, negate) shape is
        // covered by a single batched dispatch.
        let inputs: Vec<(GateOp, LweCiphertext, LweCiphertext, bool, bool)> = GateOp::ALL
            .iter()
            .enumerate()
            .map(|(i, &op)| {
                let a = i % 2 == 0;
                let b = i % 3 == 0;
                (
                    op,
                    ck.encrypt_bit(a, &mut rng),
                    ck.encrypt_bit(b, &mut rng),
                    a,
                    b,
                )
            })
            .collect();
        let jobs: Vec<BatchedGateJob<'_>> = inputs
            .iter()
            .map(|(op, ca, cb, ..)| (&sk, *op, ca, cb))
            .collect();
        let batched = apply_gates_batched(&jobs);
        for ((op, ca, cb, a, b), got) in inputs.iter().zip(&batched) {
            let want = sk.apply_gate(*op, ca, cb);
            assert_eq!(got.a, want.a, "{op:?} mask");
            assert_eq!(got.b, want.b, "{op:?} body");
            assert_eq!(ck.decrypt_bit(got), op.eval(*a, *b), "{op:?}({a},{b})");
        }
        assert!(apply_gates_batched(&[]).is_empty());
    }

    /// Batch shapes beyond one key: one Set-I tenant's job alone, then
    /// beside a second Set-I tenant's — every output equal to the job's
    /// own `apply_gate` and decrypting to the truth table.
    #[test]
    fn batched_gates_serve_mixed_key_jobs() {
        let mut rng = StdRng::seed_from_u64(122);
        let tenants: Vec<(ClientKey, ServerKey)> = (0..2)
            .map(|_| {
                let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
                let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
                (ck, sk)
            })
            .collect();
        let inputs: Vec<(GateOp, LweCiphertext, LweCiphertext)> = tenants
            .iter()
            .zip([GateOp::Nand, GateOp::Xor])
            .map(|((ck, _), op)| {
                (
                    op,
                    ck.encrypt_bit(true, &mut rng),
                    ck.encrypt_bit(false, &mut rng),
                )
            })
            .collect();
        let jobs: Vec<BatchedGateJob<'_>> = tenants
            .iter()
            .zip(&inputs)
            .map(|((_, sk), (op, a, b))| (sk, *op, a, b))
            .collect();
        for batch in [&jobs[..1], &jobs[..]] {
            let got = apply_gates_batched(batch);
            assert_eq!(got.len(), batch.len());
            for (i, (&(sk, op, a, b), out)) in batch.iter().zip(&got).enumerate() {
                let single = sk.apply_gate(op, a, b);
                assert_eq!(out.a, single.a, "job {i} of {}", batch.len());
                assert_eq!(out.b, single.b, "job {i} of {}", batch.len());
                assert_eq!(tenants[i].0.decrypt_bit(out), op.eval(true, false));
            }
        }
    }

    /// `k` Set-I gates split over a private one-lane pool run inline,
    /// over a two-lane pool as `min(k, 2)` chunks, and both give the
    /// words of `k` one-job `apply_gate` calls. Each gate's keyswitch
    /// dispatches into the process pool, never into the private one.
    #[test]
    fn split_gates_match_one_job_calls_on_one_and_two_lanes() {
        let (ck, sk, mut rng) = setup();
        let inputs: Vec<(GateOp, LweCiphertext, LweCiphertext)> = GateOp::ALL[..3]
            .iter()
            .enumerate()
            .map(|(i, &op)| {
                let a = ck.encrypt_bit(i % 2 == 0, &mut rng);
                (op, a, ck.encrypt_bit(true, &mut rng))
            })
            .collect();
        let jobs: Vec<BatchedGateJob<'_>> =
            inputs.iter().map(|(op, a, b)| (&sk, *op, a, b)).collect();
        let singles: Vec<LweCiphertext> = jobs
            .iter()
            .map(|&(sk, op, a, b)| sk.apply_gate(op, a, b))
            .collect();
        for k in 1..=jobs.len() {
            let (one, two) = (WorkerPool::new(1), WorkerPool::new(2));
            for pool in [&one, &two] {
                let got = apply_gates_batched_on(pool, &jobs[..k]);
                assert_eq!(got.len(), k);
                for (i, (out, want)) in got.iter().zip(&singles).enumerate() {
                    assert_eq!(out.a, want.a, "job {i} of {k}, {pool:?}");
                    assert_eq!(out.b, want.b, "job {i} of {k}, {pool:?}");
                }
            }
            assert_eq!(one.parallel_jobs_dispatched(), 0, "k = {k}");
            // A thread-starved host may have built a one-lane `two`.
            let chunks = if k >= 2 && two.threads() == 2 { 2 } else { 0 };
            assert_eq!(two.parallel_jobs_dispatched(), chunks, "k = {k}");
        }
    }

    #[test]
    fn not_is_linear_and_exact() {
        let (ck, sk, mut rng) = setup();
        for a in [false, true] {
            let ca = ck.encrypt_bit(a, &mut rng);
            assert_eq!(ck.decrypt_bit(&sk.not(&ca)), !a);
        }
    }

    #[test]
    fn mux_selects() {
        let (ck, sk, mut rng) = setup();
        for sel in [false, true] {
            for a in [false, true] {
                for b in [false, true] {
                    let cs = ck.encrypt_bit(sel, &mut rng);
                    let ca = ck.encrypt_bit(a, &mut rng);
                    let cb = ck.encrypt_bit(b, &mut rng);
                    let out = sk.mux(&cs, &ca, &cb);
                    let expect = if sel { a } else { b };
                    assert_eq!(ck.decrypt_bit(&out), expect, "MUX({sel},{a},{b})");
                }
            }
        }
    }

    #[test]
    fn gate_chaining_survives_depth() {
        // A small circuit: full adder chained 4 times (ripple carry).
        let (ck, sk, mut rng) = setup();
        let x = 0b1011u8;
        let y = 0b0110u8;
        let mut carry = ck.encrypt_bit(false, &mut rng);
        let mut sum_bits = Vec::new();
        for i in 0..4 {
            let a = ck.encrypt_bit((x >> i) & 1 == 1, &mut rng);
            let b = ck.encrypt_bit((y >> i) & 1 == 1, &mut rng);
            let ab = sk.xor(&a, &b);
            let s = sk.xor(&ab, &carry);
            let c1 = sk.and(&a, &b);
            let c2 = sk.and(&ab, &carry);
            carry = sk.or(&c1, &c2);
            sum_bits.push(s);
        }
        let mut got = 0u8;
        for (i, s) in sum_bits.iter().enumerate() {
            if ck.decrypt_bit(s) {
                got |= 1 << i;
            }
        }
        if ck.decrypt_bit(&carry) {
            got |= 1 << 4;
        }
        assert_eq!(got, x + y, "homomorphic adder: {got} != {}", x + y);
    }
}
