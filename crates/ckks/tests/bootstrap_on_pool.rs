//! The bootstrap runs CoeffToSlot's two sources, and then its two
//! EvalMod + SlotToCoeff halves, as two-job batches on the process
//! pool; this binary pins that doing so conserves kernel traffic and
//! words. One bootstrap runs under a
//! counting [`KernelBackend`] decorator installed with
//! [`kernel::force`], which books rows from whichever thread makes the
//! call, and its per-class totals and output words must equal those of
//! the same stages run one after the other on the calling thread.
//! `force` swaps process-wide state, so this binary holds exactly one
//! test.

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

use fhe_ckks::bootstrap::bootstrap_test_params;
use fhe_ckks::{
    BootstrapParams, Bootstrapper, Ciphertext, CkksContext, Encoder, Encryptor, Evaluator,
};
use fhe_math::kernel::{self, ExitFold, KernelBackend, LANES_BACKEND};
use fhe_math::{Modulus, NttTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The kernel classes a CKKS bootstrap dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Forward,
    Inverse,
    Fold,
    Add,
    Sub,
    Mul,
    MulAcc,
    Permute,
    BconvApprox,
    BconvExact,
}

/// Logs `(class, rows)` per call of the batched entry points — from
/// whichever thread makes it — and delegates to the lane backend;
/// every other method keeps its provided body.
#[derive(Debug)]
struct CountingBackend {
    log: Mutex<Vec<(Class, usize)>>,
}

impl CountingBackend {
    fn record(&self, class: Class, rows: usize) {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((class, rows));
    }
}

impl KernelBackend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn forward_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        self.record(Class::Forward, tables.len());
        LANES_BACKEND.forward_batch(tables, flat, exit);
    }

    fn inverse_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        self.record(Class::Inverse, tables.len());
        LANES_BACKEND.inverse_batch(tables, flat, exit);
    }

    fn fold_2p_to_canonical_batch(&self, moduli: &[Modulus], flat: &mut [u64]) {
        self.record(Class::Fold, moduli.len());
        LANES_BACKEND.fold_2p_to_canonical_batch(moduli, flat);
    }

    fn add_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        self.record(Class::Add, moduli.len());
        LANES_BACKEND.add_lazy_batch(moduli, a, b);
    }

    fn sub_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        self.record(Class::Sub, moduli.len());
        LANES_BACKEND.sub_lazy_batch(moduli, a, b);
    }

    fn mul_lazy_batch(&self, moduli: &[Modulus], a: &mut [u64], b: &[u64]) {
        self.record(Class::Mul, moduli.len());
        LANES_BACKEND.mul_lazy_batch(moduli, a, b);
    }

    fn mul_acc_lazy_batch(&self, moduli: &[Modulus], acc: &mut [u64], a: &[u64], b: &[u64]) {
        self.record(Class::MulAcc, moduli.len());
        LANES_BACKEND.mul_acc_lazy_batch(moduli, acc, a, b);
    }

    fn permute_batch(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        self.record(Class::Permute, src.len() / perm.len().max(1));
        LANES_BACKEND.permute_batch(perm, src, dst);
    }

    fn convert_approx_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        self.record(Class::BconvApprox, to_moduli.len());
        LANES_BACKEND.convert_approx_batch(to_moduli, weights, y, out);
    }

    fn convert_exact_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        a_mod_b: &[u64],
        v: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        self.record(Class::BconvExact, to_moduli.len());
        LANES_BACKEND.convert_exact_batch(to_moduli, weights, a_mod_b, v, y, out);
    }
}

static COUNTING: CountingBackend = CountingBackend {
    log: Mutex::new(Vec::new()),
};

/// Per-class `(calls, rows)` totals of one logged run.
type Traffic = BTreeMap<Class, (usize, usize)>;

/// Runs `work` with the counting backend forced and returns its result
/// beside the per-class traffic it logged.
fn counted<T>(work: impl FnOnce() -> T) -> (T, Traffic) {
    let previous = kernel::force(&COUNTING);
    let out = work();
    kernel::force(previous);
    let log = std::mem::take(&mut *COUNTING.log.lock().unwrap_or_else(PoisonError::into_inner));
    let mut traffic = Traffic::new();
    for (class, rows) in log {
        let entry = traffic.entry(class).or_default();
        entry.0 += 1;
        entry.1 += rows;
    }
    (out, traffic)
}

/// Per-class row totals, dropping the call counts.
fn rows(traffic: &Traffic) -> BTreeMap<Class, usize> {
    traffic.iter().map(|(&c, &(_, r))| (c, r)).collect()
}

fn assert_same_words(got: &Ciphertext, want: &Ciphertext) {
    assert_eq!(got.c0.flat(), want.c0.flat(), "c0");
    assert_eq!(got.c1.flat(), want.c1.flat(), "c1");
    assert_eq!(got.level, want.level, "level");
    assert_eq!(got.scale, want.scale, "scale");
}

#[test]
fn bootstrap_on_pool_conserves_kernel_rows_and_words() {
    let pool = fhe_math::pool::shared();
    let ctx = CkksContext::new(bootstrap_test_params());
    let boot = Bootstrapper::new(ctx.clone(), BootstrapParams::default());
    let mut rng = StdRng::seed_from_u64(38);
    let keys = boot.generate_keys(&mut rng);
    let enc = Encoder::new(ctx.clone());
    let eval = Evaluator::new(ctx.clone());
    let n = boot.params().sparse_slots;
    let tiled: Vec<f64> = (0..ctx.n() / 2)
        .map(|j| (j % n) as f64 / n as f64 - 0.4)
        .collect();
    let ct =
        Encryptor::new(ctx.clone()).encrypt_sk(&enc.encode_real(&tiled, 0), &keys.secret, &mut rng);

    // The reference: every stage on the calling thread, half 0's
    // EvalMod before half 1's, then both SlotToCoeff matvecs.
    let (want, sequential) = counted(|| {
        let traced = boot.sub_sum(&boot.mod_raise(&ct), &eval, &keys);
        let (t0, t1) = boot.coeff_to_slot(&traced, &eval, &enc, &keys);
        let m0 = boot.eval_mod(&t0, &eval, &keys);
        let m1 = boot.eval_mod(&t1, &eval, &keys);
        boot.slot_to_coeff(&m0, &m1, &eval, &enc, &keys)
    });

    let fanned_before = pool.parallel_jobs_dispatched();
    let (got, pooled) = counted(|| boot.bootstrap(&ct, &eval, &enc, &keys));
    assert_same_words(&got, &want);
    assert_eq!(
        rows(&pooled),
        rows(&sequential),
        "pooled {pooled:?}, sequential {sequential:?}"
    );
    for class in [
        Class::Forward,
        Class::Inverse,
        Class::MulAcc,
        Class::Permute,
        Class::BconvApprox,
    ] {
        assert!(
            rows(&sequential).contains_key(&class),
            "{class:?} never ran"
        );
    }

    // On a multi-core host CoeffToSlot's two sources and the two halves
    // really ran as pool jobs: two of each.
    if pool.threads() >= 2 {
        let fanned = pool.parallel_jobs_dispatched() - fanned_before;
        assert!(fanned >= 4, "{fanned} parallel jobs per bootstrap");
    }
}
