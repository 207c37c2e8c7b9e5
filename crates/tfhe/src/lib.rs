//! # fhe-tfhe — TFHE built from scratch on the exact NTT
//!
//! The logic-FHE substrate of the Trinity reproduction (paper §II-B):
//! LWE/GLWE/GGSW ciphertexts, the external product, CMUX, blind
//! rotation, programmable bootstrapping (Algorithm 2), LWE keyswitching
//! and the full boolean gate set.
//!
//! The distinguishing reproduction detail: polynomial multiplication
//! inside the external product runs over the NTT-friendly prime closest
//! to `2^32` — exact, and on the same NTT kernels CKKS uses (Trinity's
//! design). The double-precision FFT the paper replaces survives only
//! as the kernel-level baseline `fhe_math::fft::negacyclic_mul_fft`.
//!
//! # Data layout
//!
//! Every ciphertext and key owns exactly one flat buffer indexed by
//! stride (paper §IV-B scratchpad rows, like `fhe_math::RnsPoly`), so
//! the engines lend the kernel backend slices instead of staging
//! copies; the [`glwe`], [`ggsw`] and [`lwe`] module docs give each.
//!
//! # Lazy-domain invariants
//!
//! Every operation is one engine. [`Ggsw::external_product`] is a
//! one-job step of the CMUX dataflow every blind rotation runs; the
//! batch engines' single-request form is their `k = 1` instance
//! ([`ServerKey::blind_rotate`] over
//! [`ServerKey::blind_rotate_batch`], every `bootstrap_*` over
//! [`ServerKey::bootstrap_batch`], [`ServerKey::apply_gate`] over
//! [`apply_gates_batched`], itself a `bootstrap_batch` under the sign
//! test vector, like [`ServerKey::infer_layer`]). The external
//! product — and through it the blind-rotation accumulator of
//! every bootstrap — is a cross-kernel lazy residue chain: digit NTTs
//! exit in the `[0, 2p)` window, all `(k+1)^2 * lb` one-row
//! multiply-accumulates stay lazy, and the
//! iNTT exit performs the single deferred canonicalisation (once per
//! output limb, the way NTT hardware pipelines fold at memory
//! writeback). All of them are steps of one dataflow over buffers a
//! blind rotation creates once and updates in place (the [`ggsw`]
//! module docs list the six stages of a step). [`Ggsw::external_product_strict`] is the fully-reduced
//! oracle; the workspace suite `tests/lazy_chains.rs` asserts
//! bit-identity across the paper's Sets I–III.
//!
//! The row passes underneath dispatch through the process-wide
//! [`fhe_math::kernel::KernelBackend`] (the lane implementation; tests
//! swap in the scalar reference); backends are bit-identical by
//! contract, so the swap never changes a ciphertext. See `README.md`.
//!
//! # Examples
//!
//! ```no_run
//! use fhe_tfhe::{ClientKey, MulBackend, ServerKey, TfheContext, TfheParams};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
//! let sk = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
//! let a = ck.encrypt_bit(true, &mut rng);
//! let b = ck.encrypt_bit(false, &mut rng);
//! let out = sk.nand(&a, &b);
//! assert!(ck.decrypt_bit(&out));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod gates;
pub mod ggsw;
pub mod glwe;
pub mod integer;
pub mod lwe;
pub mod nn;
pub mod params;
pub mod ring;

pub use bootstrap::{ClientKey, ServerKey, TfheContext};
pub use gates::{apply_gates_batched, BatchedGateJob, GateOp};
pub use ggsw::{Ggsw, MulBackend};
pub use glwe::{GlweCiphertext, GlweSecretKey};
pub use integer::{RadixCiphertext, RadixParams};
pub use lwe::{LweCiphertext, LweKeySwitchKey, LweSecretKey};
pub use nn::{DiscreteMlp, SignLayer};
pub use params::TfheParams;
pub use ring::TfheRing;
