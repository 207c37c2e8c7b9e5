//! # fhe-math — arithmetic substrate for the Trinity reproduction
//!
//! Everything the CKKS, TFHE and scheme-conversion layers need, built
//! from scratch:
//!
//! * [`Modulus`] — Barrett/Shoup modular arithmetic on word-size primes.
//! * [`prime`] — Miller–Rabin, NTT-friendly prime generation, and the
//!   paper's "closest prime to `q`" selection for the FFT→NTT
//!   substitution in TFHE (§II-B).
//! * [`NttTable`] — negacyclic NTTs in hardware-relevant flavours: the
//!   lazy-reduction hot path (Harvey), a fully-reduced strict reference,
//!   constant-geometry (Pease — Trinity's NTTU/CU dataflow), and
//!   four-step (Bailey — Trinity's long-NTT strategy).
//! * [`FftPlan`] — the double-precision FFT that FFT-based TFHE
//!   accelerators use, kept as a comparison baseline.
//! * [`RnsBasis`] / [`BasisConverter`] — RNS bases and the `BConv`
//!   kernel (fast base conversion), operating on flat limb-major
//!   buffers.
//! * [`RnsPoly`] — RNS polynomials with NTT, automorphism, and monomial
//!   operations over a flat contiguous limb buffer.
//! * [`kernel`] — pluggable batched kernel backends ([`KernelBackend`]):
//!   the scalar reference and a chunked/unrolled lane implementation;
//!   a process runs the lane one. Production dispatches only the
//!   `*_batch` (whole-poly) entry points; the row passes behind them
//!   are the backend-internal SPI.
//! * [`pool`] — the persistent home-grown worker pool that runs
//!   independent jobs on every core (`std::thread` + channels; the
//!   build is offline, so no `rayon`).
//! * [`sampler`] — uniform / ternary / binary / Gaussian samplers.
//! * [`scratch`] — thread-local scratch buffers for the transform hot
//!   paths.
//! * [`UBig`] — minimal big integers for CRT reconstruction.
//!
//! # Data layout and reduction discipline
//!
//! **Flat limb-major storage.** An [`RnsPoly`] over `L` limbs and ring
//! degree `N` is a single `Vec<u64>` of `L * N` words; limb `i` is the
//! slice `data[i*N .. (i+1)*N]`, reachable via [`RnsPoly::limb`] /
//! [`RnsPoly::limb_mut`] and wholesale via [`RnsPoly::flat`]. The
//! [`BasisConverter`] kernels consume and produce the same layout, so
//! keyswitching moves residues between bases without re-boxing rows.
//!
//! **Lazy-reduction windows.** Inside [`NttTable::forward`] /
//! [`NttTable::inverse`] butterfly operands roam in `[0, 4p)` (forward)
//! and `[0, 2p)` (inverse) — Harvey's trick, sound because every modulus
//! is below `2^62`. That `[0, 4p)` window never escapes a transform.
//! The narrower `[0, 2p)` window, however, *may* cross kernel
//! boundaries: the `*_lazy` kernel family (the `RnsPoly::*_lazy` ops,
//! the [`KernelBackend`] `*_batch` entries with [`kernel::ExitFold::Lazy2p`],
//! and the scalar `Modulus::*_lazy` primitives) consumes and produces
//! `[0, 2p)` representatives so whole
//! kernel chains — keyswitch digit NTTs feeding inner products, tensor
//! products, external-product accumulators — skip per-kernel
//! canonicalisation and fold exactly once at the ciphertext boundary
//! ([`RnsPoly::canonicalize`]).
//!
//! **Explicit reduction state.** An [`RnsPoly`] tracks which window it
//! is in via [`ReductionState`] (`Canonical` vs `Lazy2p`), orthogonal
//! to [`Representation`]. Strict kernels debug-assert `Canonical` on
//! entry, so a lazy residue can never leak into a strict-only kernel
//! unnoticed; the lazy chains are asserted bit-identical (after
//! canonicalisation) to the strict oracle by `tests/lazy_chains.rs` at
//! the workspace root.
//!
//! **Canonical residues at rest.** Ciphertexts and keys store canonical
//! residues in `[0, p)` per limb; `BasisConverter::convert_*` requires
//! canonical input (base conversion depends on the actual
//! representative, not just its residue class — a `[0, 2p)` lift would
//! change the overshoot estimate). The scalar lazy primitives say so in
//! their names: `Modulus::mul_shoup_lazy`, `add_lazy`, `mul_lazy`,
//! `reduce_u128_lazy` return `[0, 2p)`; `Modulus::reduce_2p` folds
//! back.
//!
//! # Examples
//!
//! ```
//! use fhe_math::{Modulus, NttTable, prime};
//!
//! // An NTT-friendly 36-bit prime for ring degree 1024 (the paper's word
//! // size), and an exact negacyclic product.
//! let p = prime::ntt_primes(36, 1024, 1)[0];
//! let table = NttTable::new(Modulus::new(p)?, 1024);
//! let mut x = vec![0u64; 1024];
//! x[1] = 1; // X
//! let y = table.negacyclic_mul(&x, &x); // X^2
//! assert_eq!(y[2], 1);
//! # Ok::<(), fhe_math::InvalidModulusError>(())
//! ```

#![warn(missing_docs)]

pub mod bigint;
pub mod domain;
pub mod fft;
pub mod galois;
pub mod kernel;
pub mod modulus;
pub mod ntt;
pub mod poly;
pub mod pool;
pub mod prime;
pub mod rns;
pub mod sampler;
pub mod scratch;
pub mod util;
#[cfg(target_arch = "x86_64")]
mod wide;

pub use bigint::UBig;
pub use fft::{Complex, FftPlan};
pub use galois::GaloisPerms;
pub use kernel::{KernelBackend, LaneBackend, ScalarBackend};
pub use modulus::{InvalidModulusError, Modulus};
pub use ntt::NttTable;
pub use poly::{ReductionState, Representation, RnsPoly};
pub use rns::{BasisConverter, RnsBasis};
