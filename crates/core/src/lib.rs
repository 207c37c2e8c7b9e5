//! # trinity-core — the Trinity accelerator architecture model
//!
//! The paper's primary contribution as an executable model: a
//! kernel-level, event-driven cycle simulator of the Trinity multi-modal
//! FHE accelerator (MICRO 2024) and of the baselines it is evaluated
//! against.
//!
//! * [`kernel`] — the finite kernel taxonomy both CKKS and TFHE reduce
//!   to (§II), with dependency DAGs and the Fig. 2 NTT/MAC breakdown.
//! * [`ntt_engine`] — structural utilization models of F1-like,
//!   FAB-like and Trinity NTT organisations (Figs. 1 and 9).
//! * [`arch`] — component inventories: Trinity (Table III) plus SHARP,
//!   Morphling and ablation configurations (Table V).
//! * [`mapping`] — the adaptive CU allocation policies of §IV-F
//!   (Fig. 7) that turn a configuration into schedulable lanes.
//! * [`sched`] — the list scheduler producing latencies and
//!   per-component utilizations (Tables VI–X, Figs. 10–14).
//! * [`area`] — the Table XI area/power model and Fig. 16 scaling.
//!
//! # Reduction discipline
//!
//! The cycle model charges no standalone canonicalisation kernels:
//! operands are assumed to move between butterfly and MAC stages in
//! redundant `[0, 2p)` form and to be fully reduced only at memory
//! writeback (hence the Fig. 2 NTT/MAC split has no reduction slice).
//! The functional crates implement the same discipline — lazy residue
//! chains in `fhe_ckks::key_switch`, the HMult tensor, and the TFHE
//! external product, verified bit-identical against strict oracles by
//! `tests/lazy_chains.rs` — so `measured` and `modeled` rows account
//! reduction work identically. See `README.md`.
//!
//! # Examples
//!
//! ```
//! use trinity_core::arch::AcceleratorConfig;
//! use trinity_core::kernel::{KernelGraph, KernelKind};
//! use trinity_core::mapping::{build_machine, MappingPolicy};
//! use trinity_core::sched::simulate;
//!
//! let machine = build_machine(&AcceleratorConfig::trinity(), MappingPolicy::CkksAdaptive);
//! let mut g = KernelGraph::new();
//! let ntt = g.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
//! g.add(KernelKind::Intt { n: 1 << 16 }, &[ntt]);
//! let result = simulate(&machine, &g);
//! assert!(result.total_cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod area;
pub mod kernel;
pub mod mapping;
pub mod memory;
pub mod ntt_engine;
pub mod sched;

pub use arch::{AcceleratorConfig, ComponentKind, ComponentSpec};
pub use area::{chip_budget, AreaPower, ChipBudget};
pub use kernel::{ClassBreakdown, Kernel, KernelClass, KernelGraph, KernelId, KernelKind};
pub use mapping::{build_machine, Lane, LaneFilter, LaneModel, Machine, MappingPolicy};
pub use memory::{MemorySystem, SramSpec, WorkingSet};
pub use ntt_engine::{utilization_sweep, NttEngineKind, NttEngineModel};
pub use sched::{simulate, SimResult};
