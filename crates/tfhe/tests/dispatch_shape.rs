//! The kernel dispatches one blind-rotation step issues, observed
//! through a counting [`KernelBackend`] decorator installed with
//! [`kernel::force`]. `force` swaps process-wide state, so this binary
//! holds exactly one test.

use std::sync::Mutex;

use fhe_math::kernel::{self, ExitFold, KernelBackend, LANES_BACKEND};
use fhe_math::{Modulus, NttTable};
use fhe_tfhe::{ClientKey, MulBackend, ServerKey, TfheContext, TfheParams};
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

/// A 3-job all-NTT Set-I batch, no zero mask coefficient: every one of
/// the `n_lwe` steps is 1 `decompose_batch`, 1 `forward_batch` of
/// `3 (k+1) lb` rows, `3 (k+1)^2 lb` one-row `mul_acc_lazy_batch` and
/// 1 `inverse_batch` of `3 (k+1)` rows — whatever the job count, one
/// decompose / NTT / iNTT dispatch per step — and nothing else.
#[test]
fn blind_rotation_step_dispatch_shape() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let p = &ck.ctx.params;
    let tv = vec![ck.ctx.q().value() / 8; p.n];
    let masks: Vec<Vec<u64>> = (0..3)
        .map(|j| {
            (0..p.n_lwe)
                .map(|i| 1 + ((i * 37 + j * 101) % 2047) as u64)
                .collect()
        })
        .collect();
    let jobs: Vec<(&ServerKey, &[u64], u64)> = masks
        .iter()
        .enumerate()
        .map(|(j, a)| (&sk, a.as_slice(), 5 * j as u64))
        .collect();

    let want = ServerKey::blind_rotate_batch(&jobs, &tv);
    let previous = kernel::force(&COUNTING).expect("the run above resolved a backend");
    let got = ServerKey::blind_rotate_batch(&jobs, &tv);
    kernel::force(previous);
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got.body(), want.body());
    }

    let rows = p.k + 1;
    let mut step = vec![Call::Decompose(3 * rows), Call::Forward(3 * rows * p.lb)];
    step.resize(2 + 3 * rows * rows * p.lb, Call::MulAcc(1));
    step.push(Call::Inverse(3 * rows));
    let log = COUNTING.log.lock().expect("log lock");
    assert_eq!(log.len(), p.n_lwe * step.len());
    for (i, calls) in log.chunks_exact(step.len()).enumerate() {
        assert_eq!(calls, step, "step {i}");
    }
}
