//! # trinity-compiler — workload allocation for Trinity (paper Fig. 8)
//!
//! The paper's workload-allocation procedure: an FHE application is
//! "firstly decomposed as the kernel flow. Then, the kernel flow is
//! carefully scheduled to eliminate the hardware hazards and guarantee
//! hardware utilization", with a compiler stage that inserts bootstraps
//! into the execution graph. This crate implements that pipeline over
//! the kernel taxonomy of `trinity-core` and the per-operation DAG
//! builders of `trinity-workloads`:
//!
//! 1. [`FheProgram`] — an SSA-style multi-modal IR spanning CKKS, TFHE,
//!    and scheme-conversion operations;
//! 2. [`FheProgram::insert_bootstraps`] — level tracking with automatic
//!    bootstrap insertion (Fig. 8's "Insert Bootstrap");
//! 3. [`compile`] — lowering to a hazard-free [`trinity_core::kernel::KernelGraph`]
//!    that [`trinity_core::sched::simulate`] places onto any machine
//!    model, including co-scheduled multi-application flows (§IV-K).
//!
//! # Examples
//!
//! ```
//! use trinity_compiler::{compile, CompilerConfig, FheProgram};
//! use trinity_core::arch::AcceleratorConfig;
//! use trinity_core::mapping::{build_machine, MappingPolicy};
//!
//! // A hybrid program: TFHE gate, conversion, CKKS multiply.
//! let mut p = FheProgram::new();
//! let x = p.tfhe_input();
//! let y = p.tfhe_input();
//! let flag = p.gate(x, y);
//! let packed = p.tfhe_to_ckks(flag, 8);
//! let w = p.ckks_input(20);
//! let prod = p.hmult(packed, w);
//! let _ = p.rescale(prod);
//!
//! let compiled = compile(p, &CompilerConfig::paper_default());
//! let machine = build_machine(&AcceleratorConfig::trinity(), MappingPolicy::Hybrid);
//! let result = compiled.simulate(&machine);
//! assert!(result.total_cycles > 0);
//! ```
//!
//! Level soundness is a fixpoint, exactly Fig. 8's "Insert Bootstrap"
//! box: [`FheProgram::insert_bootstraps`] re-runs [`LevelAnalysis`]
//! and patches the first level-underflowing rescale with a
//! [`FheOpKind::CkksBootstrap`] until the program analyses clean
//! (each inserted bootstrap restores
//! [`BootstrapPolicy::restored_level`]).
//!
//! Lowering emits kernel flows at the same lazy-chain granularity as
//! the `trinity-workloads` builders — no per-kernel canonicalisation
//! kernels; reduction is one fold per limb at chain boundaries (see
//! `ARCHITECTURE.md` at the workspace root). Run
//! `cargo run --release --example compiler_flow` for the pipeline end
//! to end, or `cargo run --release --example encrypted_db` for the
//! hybrid HE3DB query compiled and scheduled the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ir;
pub mod lower;

pub use ir::{
    BootstrapPolicy, FheOp, FheOpKind, FheProgram, LevelAnalysis, LevelUnderflowError, Scheme,
    ValueId,
};
pub use lower::{compile, CompiledProgram, CompilerConfig};
