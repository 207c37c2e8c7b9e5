//! The kernel dispatches one blind-rotation step issues — called
//! directly, and under a whole `infer_layer` — observed through a
//! counting [`KernelBackend`] decorator installed with
//! [`kernel::force`]. `force` swaps process-wide state, so this binary
//! holds exactly one test.

use std::sync::Mutex;

use fhe_math::kernel::{self, ExitFold, KernelBackend, LANES_BACKEND};
use fhe_math::{Modulus, NttTable};
use fhe_tfhe::{
    ClientKey, LweCiphertext, MulBackend, ServerKey, SignLayer, TfheContext, TfheParams,
};
use rand::SeedableRng;

/// One logged dispatch: the entry point and the rows it covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Decompose(usize),
    Forward(usize),
    MulAcc(usize),
    Inverse(usize),
}

/// Logs the four entry points the external-product dataflow uses and
/// delegates to the lane backend; every other method keeps its
/// provided body.
#[derive(Debug)]
struct CountingBackend {
    log: Mutex<Vec<Call>>,
}

impl CountingBackend {
    fn record(&self, call: Call) {
        self.log.lock().expect("log lock").push(call);
    }
}

impl KernelBackend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn forward_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        assert_eq!(exit, ExitFold::Lazy2p, "digit NTTs stay lazy");
        self.record(Call::Forward(tables.len()));
        LANES_BACKEND.forward_batch(tables, flat, exit);
    }

    fn inverse_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        assert_eq!(exit, ExitFold::Canonical, "one canonicalising iNTT");
        self.record(Call::Inverse(tables.len()));
        LANES_BACKEND.inverse_batch(tables, flat, exit);
    }

    fn mul_acc_lazy_batch(&self, moduli: &[Modulus], acc: &mut [u64], a: &[u64], b: &[u64]) {
        self.record(Call::MulAcc(moduli.len()));
        LANES_BACKEND.mul_acc_lazy_batch(moduli, acc, a, b);
    }

    fn decompose_batch(
        &self,
        q: u64,
        base_log: u32,
        levels: usize,
        n: usize,
        src: &[u64],
        out: &mut [i64],
    ) {
        self.record(Call::Decompose(src.len() / n));
        LANES_BACKEND.decompose_batch(q, base_log, levels, n, src, out);
    }
}

static COUNTING: CountingBackend = CountingBackend {
    log: Mutex::new(Vec::new()),
};

/// Runs `work` with the counting backend forced and returns its result
/// beside the dispatches it logged.
fn counted<T>(work: impl FnOnce() -> T) -> (T, Vec<Call>) {
    let previous = kernel::force(&COUNTING).expect("a backend was resolved before");
    let out = work();
    kernel::force(previous);
    let log = std::mem::take(&mut *COUNTING.log.lock().expect("log lock"));
    (out, log)
}

/// Asserts `log` starts with `n_lwe` CMUX steps of `w` slots each — 1
/// `decompose_batch`, 1 `forward_batch` of `w (k+1) lb` rows,
/// `w (k+1)^2 lb` one-row `mul_acc_lazy_batch` and 1 `inverse_batch` of
/// `w (k+1)` rows: whatever the job count, one decompose / NTT / iNTT
/// dispatch per step — and returns what follows them.
fn after_rotation_steps<'a>(log: &'a [Call], p: &TfheParams, w: usize) -> &'a [Call] {
    let rows = p.k + 1;
    let mut step = vec![Call::Decompose(w * rows), Call::Forward(w * rows * p.lb)];
    step.resize(2 + w * rows * rows * p.lb, Call::MulAcc(1));
    step.push(Call::Inverse(w * rows));
    assert!(
        log.len() >= p.n_lwe * step.len(),
        "{} dispatches",
        log.len()
    );
    let (steps, rest) = log.split_at(p.n_lwe * step.len());
    for (i, calls) in steps.chunks_exact(step.len()).enumerate() {
        assert_eq!(calls, step, "step {i}");
    }
    rest
}

/// Masks with no zero after `ModSwitch` (a job with a zero coefficient
/// sits that step out): word `i` of job `j` switches to
/// `1 + (37 i + 101 j) mod 2047`.
fn switched_mask(p: &TfheParams, j: usize) -> Vec<u64> {
    (0..p.n_lwe)
        .map(|i| 1 + ((i * 37 + j * 101) % 2047) as u64)
        .collect()
}

/// A 3-job all-NTT Set-I blind rotation, then a width-3 `infer_layer`
/// under the same key: both are `n_lwe` steps of 3 slots and nothing
/// else inside the rotation — the layer's bootstraps are one batch, not
/// three rotations of one slot — followed, for the layer, by the three
/// LWE keyswitches' one-row decompositions.
#[test]
fn blind_rotation_step_dispatch_shape() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let p = &ck.ctx.params;
    let q = ck.ctx.q().value();
    let tv = vec![q / 8; p.n];
    let masks: Vec<Vec<u64>> = (0..3).map(|j| switched_mask(p, j)).collect();
    let jobs: Vec<(&ServerKey, &[u64], u64)> = masks
        .iter()
        .enumerate()
        .map(|(j, a)| (&sk, a.as_slice(), 5 * j as u64))
        .collect();

    let want = ServerKey::blind_rotate_batch(&jobs, &tv);
    let (got, log) = counted(|| ServerKey::blind_rotate_batch(&jobs, &tv));
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got.body(), want.body());
    }
    assert_eq!(after_rotation_steps(&log, p, 3), []);

    // Neuron `o` reads input `o` alone, so its pre-activation is that
    // input: word `m * ceil(q / 2N)` mod-switches to `m`.
    let layer = SignLayer::new(
        vec![vec![1, 0, 0], vec![0, 1, 0], vec![0, 0, 1]],
        vec![0, 0, 0],
    );
    let unit = q.div_ceil(2 * p.n as u64);
    let inputs: Vec<LweCiphertext> = masks
        .iter()
        .map(|mask| LweCiphertext {
            a: mask.iter().map(|&m| m * unit).collect(),
            b: 7 * unit,
        })
        .collect();
    for (input, mask) in inputs.iter().zip(&masks) {
        assert_eq!(input.mod_switch(ck.ctx.q(), 2 * p.n as u64).0, *mask);
    }
    let want = sk.infer_layer(&layer, &inputs, q / 8);
    let (got, log) = counted(|| sk.infer_layer(&layer, &inputs, q / 8));
    for (got, want) in got.iter().zip(&want) {
        assert_eq!((&got.a, got.b), (&want.a, want.b));
    }
    assert_eq!(after_rotation_steps(&log, p, 3), [Call::Decompose(1); 3]);
}
