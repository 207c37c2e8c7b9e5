//! # fhe-ckks — RNS-CKKS built from scratch
//!
//! The arithmetic-FHE substrate of the Trinity reproduction (paper
//! §II-A): approximate homomorphic arithmetic over packed complex slot
//! vectors, with the full hierarchical operation set of the paper's
//! Table II — `HAdd`, `PAdd`, `PMult`, `HMult` (tensor +
//! hybrid-keyswitch relinearisation, Algorithm 1), `HRotate` (Galois
//! automorphism + keyswitch), and `Rescale` — plus the BSGS linear
//! transforms CKKS applications are built from.
//!
//! # Lazy-domain invariants
//!
//! The chained hot paths keep residues in the redundant `[0, 2p)`
//! window *across* kernels inside one engine call, on flat word
//! buffers, canonicalising once per limb before the call returns — the
//! way hardware pipelines keep operands in redundant form between
//! butterfly/MAC stages and only fully reduce at memory writeback:
//!
//! * Every [`fhe_math::RnsPoly`] is **canonical at rest**: the
//!   [`Ciphertext`] and [`Ciphertext3`] components, keys and every
//!   value crossing a public API. [`Evaluator::mul_no_relin`] runs its
//!   tensor with the lazy pointwise kernels and folds each component
//!   once before returning it.
//! * [`key_switch`] — the one lazy engine, one job per call
//!   ([`hoist_rotations`] splits its stages) — keeps digit NTTs and
//!   inner-product
//!   accumulators lazy and transforms only the limbs a base conversion
//!   reads; ModDown, run in the evaluation domain, canonicalises each
//!   accumulator limb once.
//! * [`Evaluator::apply_galois`] moves the automorphism into the
//!   keyswitch ([`key_switch_galois`]): in evaluation form it is a
//!   pure, reduction-agnostic slot permutation, so the whole HRotate
//!   chain (digit NTT → `Auto` → `IP`) stays `[0, 2p)` and is
//!   canonicalised once, by ModDown.
//! * Every lazy chain has one strict oracle ([`key_switch_strict`],
//!   [`Evaluator::mul_strict`], ...) built on the fully-reduced
//!   transforms; the workspace suite `tests/lazy_chains.rs` asserts
//!   bit-identity across all modulus shapes, and strict kernels
//!   debug-assert their inputs are canonical so a lazy residue can
//!   never leak in unnoticed.
//!
//! See `README.md` for the accelerator model this mirrors.
//!
//! # Examples
//!
//! ```
//! use fhe_ckks::{CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let ctx = CkksContext::new(CkksParams::tiny_params());
//! let keys = KeyGenerator::new(ctx.clone()).key_set(&[], &mut rng);
//! let enc = Encoder::new(ctx.clone());
//! let encryptor = Encryptor::new(ctx.clone());
//! let eval = Evaluator::new(ctx.clone());
//! let decryptor = Decryptor::new(ctx.clone());
//!
//! let l = ctx.params().max_level();
//! let ct_x = encryptor.encrypt_sk(&enc.encode_real(&[0.5, 0.25], l), &keys.secret, &mut rng);
//! let ct_y = encryptor.encrypt_sk(&enc.encode_real(&[0.5, 0.5], l), &keys.secret, &mut rng);
//! let prod = eval.rescale(&eval.mul(&ct_x, &ct_y, &keys.relin));
//! let slots = decryptor.decrypt(&prod, &keys.secret, &enc);
//! assert!((slots[0].re - 0.25).abs() < 1e-2);
//! assert!((slots[1].re - 0.125).abs() < 1e-2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bootstrap;
pub mod chebyshev;
pub mod ciphertext;
pub mod context;
pub mod encoding;
pub mod encryption;
pub mod eval;
pub mod keys;
pub mod keyswitch;
pub mod linalg;
pub mod noise;
pub mod params;
#[cfg(test)]
#[allow(dead_code)] // the unit tests use only the word-range check
#[path = "../../../tests/common/mod.rs"]
mod test_common;

pub use bootstrap::{BootstrapParams, Bootstrapper};
pub use chebyshev::ChebyshevPoly;
pub use ciphertext::{Ciphertext, Ciphertext3};
pub use context::CkksContext;
pub use encoding::{Encoder, Plaintext};
pub use encryption::{Decryptor, Encryptor};
pub use eval::Evaluator;
pub use keys::{KeyGenerator, KeySet, PublicKey, SecretKey, SwitchingKey};
pub use keyswitch::{
    hoist_rotations, key_switch, key_switch_galois, key_switch_galois_hoisted,
    key_switch_galois_strict, key_switch_strict, HoistedRotations,
};
pub use linalg::LinearTransform;
pub use noise::{measure_noise_bits, NoiseEstimate, NoiseModel};
pub use params::{CkksParams, InvalidParamsError};
