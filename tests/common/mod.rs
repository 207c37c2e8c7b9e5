//! The in-process backend matrix, shared by every suite that runs its
//! assertions under each kernel backend: this crate's `tests/`, and —
//! through `#[path]` — `fhe-math`'s golden vectors and the service
//! suites.
//!
//! [`kernel::force`] swaps process-wide state, so every sweep in one
//! test binary serialises on one mutex and restores the previously
//! active backend before releasing it.

use std::sync::{Mutex, PoisonError};

use fhe_math::kernel::{self, KernelBackend};

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
