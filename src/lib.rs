//! # Trinity — a general-purpose FHE accelerator, reproduced in Rust
//!
//! This facade crate re-exports the whole workspace reproducing
//! *"Trinity: A General Purpose FHE Accelerator"* (MICRO 2024):
//!
//! * [`math`] (`fhe-math`) — modular arithmetic, NTT (lazy engine and
//!   strict oracle), FFT, RNS and base conversion.
//! * [`ckks`] (`fhe-ckks`) — RNS-CKKS: encoding, hybrid keyswitch
//!   (Algorithm 1), rotations, rescaling, BSGS linear transforms.
//! * [`tfhe`] (`fhe-tfhe`) — TFHE: programmable bootstrapping
//!   (Algorithm 2) on the exact NTT external product, gates.
//! * [`convert`] (`fhe-convert`) — scheme conversion (Algorithms 3-5):
//!   SampleExtract, ring embedding, PackLWEs, field trace.
//! * [`accel`] (`trinity-core`) — the accelerator architecture model:
//!   components, clusters, mapping policies, cycle simulation,
//!   area/power.
//! * [`workloads`] (`trinity-workloads`) — kernel DAGs for every paper
//!   benchmark.
//! * [`compiler`] (`trinity-compiler`) — the Fig. 8 workload-allocation
//!   pipeline: FHE-op IR, automatic bootstrap insertion, lowering to
//!   scheduled kernel flows.
//! * [`service`] (`trinity-service`) — the multi-tenant serving core:
//!   QoS-laned job queue, byte-budgeted session key cache, and
//!   cross-request keyswitch coalescing with a JSONL audit trail.
//!
//! # Quickstart
//!
//! ```
//! use trinity::ckks::{CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let ctx = CkksContext::new(CkksParams::tiny_params());
//! let keys = KeyGenerator::new(ctx.clone()).key_set(&[], &mut rng);
//! let enc = Encoder::new(ctx.clone());
//! let encryptor = Encryptor::new(ctx.clone());
//! let eval = Evaluator::new(ctx.clone());
//! let dec = Decryptor::new(ctx.clone());
//!
//! let l = ctx.params().max_level();
//! let ct = encryptor.encrypt_sk(&enc.encode_real(&[1.5, -2.0], l), &keys.secret, &mut rng);
//! let doubled = eval.add(&ct, &ct);
//! let out = dec.decrypt(&doubled, &keys.secret, &enc);
//! assert!((out[0].re - 3.0).abs() < 1e-2);
//! ```
//!
//! See `examples/` for end-to-end scenarios including the hybrid
//! encrypted-database query that motivates the paper.

#![forbid(unsafe_code)]

pub use fhe_ckks as ckks;
pub use fhe_convert as convert;
pub use fhe_math as math;
pub use fhe_tfhe as tfhe;
pub use trinity_compiler as compiler;
pub use trinity_core as accel;
pub use trinity_service as service;
pub use trinity_workloads as workloads;
