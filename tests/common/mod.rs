//! The in-process backend matrix, shared by every suite that runs its
//! assertions under each kernel backend: this crate's `tests/`, and —
//! through `#[path]` — `fhe-math`'s golden vectors and the service
//! suites; and the word-range check [`is_canonical`], shared with the
//! `fhe-ckks` unit tests the same way.
//!
//! [`kernel::force`] swaps process-wide state, so every sweep in one
//! test binary serialises on one mutex and restores the previously
//! active backend before releasing it.

use std::sync::{Mutex, PoisonError};

use fhe_math::kernel::{self, KernelBackend};
use fhe_math::RnsPoly;

static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// The scalar reference and the default lane backend.
pub fn backends() -> [&'static dyn KernelBackend; 2] {
    [&kernel::SCALAR, &kernel::LANES_BACKEND]
}

/// Runs `work` once per backend with the process-wide dispatch forced
/// to it, returning the per-backend results; restores the previously
/// active backend afterwards. Each run first prints its backend, so
/// the captured output of a panicking test names the one it failed
/// under.
pub fn under_each_backend<T>(mut work: impl FnMut() -> T) -> Vec<(&'static str, T)> {
    let _guard = FORCE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    backends()
        .into_iter()
        .map(|b| {
            println!("kernel backend: {}", b.name());
            let previous = kernel::force(b);
            let result = work();
            kernel::force(previous);
            (b.name(), result)
        })
        .collect()
}

/// Whether every word of `p` is a canonical `[0, p)` residue for its
/// limb — the invariant every `RnsPoly` holds at rest, read off the
/// words themselves.
#[allow(dead_code)] // not every suite that includes this module checks words
pub fn is_canonical(p: &RnsPoly) -> bool {
    p.flat()
        .chunks_exact(p.n())
        .zip(p.basis().moduli())
        .all(|(row, m)| row.iter().all(|&x| x < m.value()))
}
