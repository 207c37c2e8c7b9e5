//! # fhe-convert — scheme conversion between CKKS and TFHE
//!
//! The paper's Algorithms 3–5 (after Chen–Dai–Kim–Song \[10\]):
//!
//! * **CKKS → TFHE** ([`extract`]): `SampleExtract` turns one RLWE
//!   ciphertext into per-coefficient LWE ciphertexts; an LWE modulus
//!   switch moves them onto the TFHE prime.
//! * **TFHE → CKKS** ([`pack`]): ring embedding, the recursive
//!   `PackLWEs` merge (monomial `Rotate` + keyswitched `HRotate`), and
//!   the field trace — producing an RLWE ciphertext ready for CKKS
//!   arithmetic.
//!
//! Both directions share the CKKS secret key's coefficient vector as
//! the LWE key, matching the paper's single-accelerator premise: the
//! conversion reuses CKKS and TFHE kernels (`SampleExtract` on the
//! Rotator, `HRotate` on AutoU + NTTU + CU + EWE, §IV-G).
//!
//! # Lazy-domain invariants
//!
//! Extraction leaves the evaluation domain once per ciphertext (two
//! iNTT rows) and gathers every index from the coefficient rows; the
//! modulus raise of the ring embedding is word arithmetic. The keyed
//! rotations of the `PackLWEs` merge rounds and the field trace are
//! `fhe_ckks::Evaluator::apply_galois` calls, one per rotation, so they
//! ride the lazy Galois chain: the automorphism is hoisted into the
//! keyswitch as an evaluation-form slot permutation and the digit-NTT →
//! `Auto` → `IP` → iNTT pipeline stays in the `[0, 2p)` window, folding
//! once per limb at ModDown (strict oracle and bit-identity assertions
//! live in `tests/lazy_chains.rs`). This crate only ever sees canonical
//! ciphertexts at rest, and its results are independent of the
//! runtime-selected `fhe_math::kernel::KernelBackend` bit for bit.
//! See `README.md` for the kernel mapping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod pack;

pub use extract::{extract_lwes, extracted_key, lwe_mod_switch, sample_extract};
pub use pack::RlwePacker;
