//! # trinity-workloads — kernel DAGs for every paper benchmark
//!
//! Builders that decompose the paper's benchmark suite (§V-B) into the
//! kernel taxonomy of [`trinity_core`], exactly the way the functional
//! crates execute them:
//!
//! * [`ckks_ops`] — Table II operations (HMult, HRotate, Rescale, ...)
//!   and the hybrid keyswitch of Algorithm 1.
//! * [`tfhe_ops`] — programmable bootstrapping (Algorithm 2), gates.
//! * [`conversion`] — LWE repacking (Algorithms 4 and 5).
//! * [`apps`] — Bootstrap / HELR / ResNet-20 / NN-x / HE3DB-x.
//! * [`linear`] — a *functional* encrypted linear layer run with
//!   `fhe-ckks` (not modeled): the hoisted-rotation matvec and its
//!   sequential bit-identity oracle.
//! * [`reference`](mod@reference) — cited constants for rows the simulator does not
//!   regenerate, tagged by provenance.
//! * [`traffic`] — deterministic multi-tenant request streams feeding
//!   the `trinity-service` QoS scheduler and its property tests.
//!
//! Every builder appends kernels to a
//! [`trinity_core::kernel::KernelGraph`] and returns the frontier
//! [`trinity_core::kernel::KernelId`]s so operations compose into
//! application DAGs; `trinity_core::sched::simulate` then places the
//! graph on any machine model. Graphs are deterministic per shape.
//!
//! The DAGs count kernels at the **lazy-chain granularity** the
//! functional crates execute (see `ARCHITECTURE.md` at the workspace
//! root): keyswitch digits are raised, transformed and
//! inner-product-accumulated with no per-kernel canonicalisation
//! kernels, because reduction is deferred to one fold per limb at the
//! chain boundary — the paper's redundant-form pipelines, and the
//! reason the modeled Fig. 2 NTT/MAC split matches the published one.
//!
//! # Examples
//!
//! ```
//! use trinity_core::kernel::KernelGraph;
//! use trinity_workloads::{ckks_ops, CkksShape, KeySwitchOpts};
//!
//! // One hybrid keyswitch (Alg. 1) at the paper's default shape,
//! // as a schedulable kernel DAG.
//! let shape = CkksShape::paper_default();
//! let mut g = KernelGraph::new();
//! let l = shape.levels - 1;
//! ckks_ops::keyswitch(&mut g, &shape, l, &[], KeySwitchOpts::default());
//! assert!(g.len() > 0);
//! // NTT work dominates the modular multiplies, as in Fig. 2.
//! assert!(g.modmul_breakdown().ntt_fraction() > 0.5);
//! ```
//!
//! Run `cargo bench -p trinity-bench --bench paper_tables` to see the
//! tables these DAGs regenerate, or
//! `cargo run --release --example accelerator_sim` for a scheduled
//! workload end to end.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod ckks_ops;
pub mod conversion;
pub mod linear;
pub mod reference;
pub mod tfhe_ops;
pub mod traffic;

pub use apps::{bootstrap, helr, resnet20, He3dbRecipe, NnRecipe};
pub use ckks_ops::{CkksShape, KeySwitchOpts};
pub use conversion::{repack, repack_keyswitch_count};
pub use linear::LinearLayer;
pub use reference::Source;
pub use tfhe_ops::{pbs, pbs_batch, TfheShape};
pub use traffic::{stream, RequestKind, TrafficEvent, TrafficMix};
