//! The threaded limb-parallel backend under real concurrency.
//!
//! The kernel unit suite (`kernel::tests`) sweeps every batched entry
//! point against the scalar reference; this file covers what a unit
//! test can't:
//!
//! * whole [`RnsPoly`] lazy chains running through the **process-wide**
//!   threaded backend (the exact dispatch path production takes),
//!   asserted bit-identical to the strict oracles, which never
//!   dispatch;
//! * several evaluator threads sharing **one** pool concurrently,
//!   exercising the thread-local `scratch` lease pool and the shared
//!   `GaloisPerms` cache from worker-adjacent threads;
//! * a job that panics mid-batch: the payload must reach the caller,
//!   and the backend (and its workers) must keep serving jobs.
//!
//! This binary forces the global backend to `threaded` up front, so
//! every test in it runs the row-parallel dispatch; the cross-crate
//! oracle suites run under `threaded` the same way, one sweep at a
//! time (`tests/common/mod.rs`).

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use fhe_math::kernel::{self, ExitFold, KernelBackend};
use fhe_math::{
    prime, GaloisPerms, ReductionState, Representation, RnsBasis, RnsPoly, ThreadedBackend,
};

/// Forces the process-wide backend to a 3-lane threaded instance
/// (idempotent across the tests of this binary; tests may run
/// concurrently, so everyone forces the same instance).
fn force_threaded() -> &'static ThreadedBackend {
    let backend = kernel::threaded(Some(3));
    kernel::force(backend);
    backend
}

fn basis(n: usize, limbs: usize) -> Arc<RnsBasis> {
    Arc::new(RnsBasis::new(&prime::ntt_primes(45, n, limbs), n))
}

/// A big-enough shape that the default job threshold genuinely fans
/// out (8 rows x 2048 words splits into 3+ jobs on a 3-lane pool).
const N: usize = 2048;
const LIMBS: usize = 8;

/// The production lazy chain — batched NTT, IP accumulate, automorphism,
/// batched iNTT, one deferred fold — through the global threaded
/// backend must be bit-identical to the strict oracle chain, which
/// never dispatches through a backend.
#[test]
fn rns_poly_lazy_chain_matches_strict_oracle_under_threaded_backend() {
    force_threaded();
    let b = basis(N, LIMBS);
    let perms = GaloisPerms::new(b.table(0).clone());
    let xs: Vec<i64> = (0..N as i64).map(|i| (i * 7) % 1001 - 500).collect();
    let ys: Vec<i64> = (0..N as i64).map(|i| (i * 13) % 601 - 300).collect();

    let mut lazy_x = RnsPoly::from_signed_coeffs(b.clone(), &xs);
    let mut lazy_y = RnsPoly::from_signed_coeffs(b.clone(), &ys);
    lazy_x.to_eval_lazy();
    lazy_y.to_eval_lazy();
    assert_eq!(lazy_x.reduction_state(), ReductionState::Lazy2p);
    let mut lazy_acc = RnsPoly::zero(b.clone(), Representation::Eval);
    lazy_acc.mul_acc_pointwise_lazy(&lazy_x, &lazy_y);
    lazy_acc.mul_acc_pointwise_lazy(&lazy_y, &lazy_y);
    lazy_acc.add_assign_lazy(&lazy_x);
    lazy_acc.sub_assign_lazy(&lazy_y);
    lazy_acc.automorphism_lazy(5, &perms);
    lazy_acc.to_coeff_lazy();
    lazy_acc.canonicalize();

    let mut strict_x = RnsPoly::from_signed_coeffs(b.clone(), &xs);
    let mut strict_y = RnsPoly::from_signed_coeffs(b.clone(), &ys);
    strict_x.to_eval_strict();
    strict_y.to_eval_strict();
    let mut strict_acc = RnsPoly::zero(b, Representation::Eval);
    strict_acc.mul_acc_pointwise(&strict_x, &strict_y);
    strict_acc.mul_acc_pointwise(&strict_y, &strict_y);
    strict_acc.add_assign(&strict_x);
    strict_acc.sub_assign(&strict_y);
    strict_acc.automorphism(5, &perms);
    strict_acc.to_coeff_strict();

    assert_eq!(lazy_acc.flat(), strict_acc.flat());
}

/// Several evaluator threads hammer the same global threaded pool at
/// once — each runs its own lazy chain (leasing thread-local scratch
/// buffers via the automorphism and sharing one `GaloisPerms` cache)
/// and must reproduce the strict oracle bit for bit.
#[test]
fn concurrent_evaluators_share_one_pool() {
    force_threaded();
    let b = basis(N, LIMBS);
    let perms = Arc::new(GaloisPerms::new(b.table(0).clone()));

    std::thread::scope(|s| {
        for thread_id in 0..4usize {
            let b = b.clone();
            let perms = Arc::clone(&perms);
            s.spawn(move || {
                let g = [3u64, 5, 7, 9][thread_id];
                let coeffs: Vec<i64> = (0..N as i64)
                    .map(|i| (i * (thread_id as i64 + 3)) % 257 - 128)
                    .collect();
                for _ in 0..3 {
                    let mut lazy = RnsPoly::from_signed_coeffs(b.clone(), &coeffs);
                    lazy.to_eval_lazy();
                    lazy.automorphism_lazy(g, &perms);
                    let lazy_rhs = lazy.clone();
                    lazy.mul_assign_pointwise_lazy(&lazy_rhs);
                    lazy.to_coeff_lazy();
                    lazy.canonicalize();

                    let mut strict = RnsPoly::from_signed_coeffs(b.clone(), &coeffs);
                    strict.to_eval_strict();
                    strict.automorphism(g, &perms);
                    let rhs = strict.clone();
                    strict.mul_assign_pointwise(&rhs);
                    strict.to_coeff_strict();

                    assert_eq!(lazy.flat(), strict.flat(), "thread {thread_id} g={g}");
                }
            });
        }
    });
}

/// A panicking job must surface on the dispatching caller and leave the
/// backend fully operational (the worker catches the unwind; pool
/// mutexes recover from poisoning).
#[test]
fn worker_panic_propagates_and_backend_recovers() {
    // A dedicated instance so the deliberate panic cannot interleave
    // with the other tests' dispatches on the global pool.
    let backend = ThreadedBackend::with_config(3, 64);
    let b = basis(256, 6);
    let tables: Vec<&fhe_math::NttTable> = b.tables().iter().map(|t| t.as_ref()).collect();

    // Rows of the wrong length: the lane pass asserts `row.len() == n`
    // inside the dispatched job.
    let mut bad = vec![0u64; 6 * 128];
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        backend.forward_batch(&tables, &mut bad, ExitFold::Lazy2p);
    }));
    assert!(caught.is_err(), "mis-sized batch must panic");

    // The pool survived: a well-formed batch still matches the scalar
    // reference afterwards.
    let mut flat: Vec<u64> = (0..(6 * 256) as u64).collect();
    let mut oracle = flat.clone();
    backend.forward_batch(&tables, &mut flat, ExitFold::Lazy2p);
    kernel::SCALAR.forward_batch(&tables, &mut oracle, ExitFold::Lazy2p);
    assert_eq!(flat, oracle);
}

/// `threaded:1` is the degenerate pool: no workers, every batch runs
/// the sequential fallback inline — and still matches the reference.
#[test]
fn single_lane_threaded_backend_is_sequential() {
    let backend = ThreadedBackend::with_threads(1);
    assert_eq!(backend.threads(), 1);
    let b = basis(256, 4);
    let tables: Vec<&fhe_math::NttTable> = b.tables().iter().map(|t| t.as_ref()).collect();
    let mut flat: Vec<u64> = (0..(4 * 256) as u64).collect();
    let mut oracle = flat.clone();
    backend.forward_batch(&tables, &mut flat, ExitFold::Canonical);
    kernel::SCALAR.forward_batch(&tables, &mut oracle, ExitFold::Canonical);
    assert_eq!(flat, oracle);
}
