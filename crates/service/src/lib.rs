//! # trinity-service — multi-tenant FHE serving core
//!
//! The functional crates (`fhe-ckks`, `fhe-tfhe`) evaluate one
//! operation for one key at a time; a deployment serves *streams* of
//! such operations from many tenants with very different latency
//! needs. This crate is the layer in between: a long-running service
//! core that queues encrypted jobs, schedules them over QoS lanes,
//! holds tenant evaluation keys behind an eviction-managed cache, and
//! — the throughput lever — groups independent same-geometry jobs
//! from *different requests* into one dispatch spread over every
//! core, so the host stays busy even when each individual request is
//! small.
//!
//! The moving parts, bottom-up:
//!
//! * [`lane`] — the three QoS lanes (Interactive gates, Timed
//!   deadline work, Bulk analytics) and their minimum-share budgets.
//! * [`queue`] — the windowed lane scheduler: budget deficits first,
//!   priority slack second, starvation pre-empting both. Pure
//!   decision logic, property-tested over randomized traffic. The
//!   Timed lane orders its own queue earliest-deadline-first
//!   ([`edf_pick`], equally pure).
//! * [`session`] — per-tenant key material in a byte-budgeted LRU
//!   cache charging *measured* `key_bytes()`, with pinning and
//!   admission control.
//! * [`coalesce`] — the dispatch-compatibility key [`Geometry`]
//!   (shared context, level, Galois element) for CKKS keyswitches,
//!   plus mate selection. Batched TFHE gates need only
//!   [`fhe_tfhe::ServerKey::shares_ring_with`].
//! * [`audit`] — a JSONL log of every admission, rejection, dispatch
//!   (with its coalesced job count and group id), completion and
//!   starvation event, opened by a configuration-stamping meta line.
//! * [`core`](mod@core) — [`ServiceCore`]: one loop that decides
//!   (admission, lane picks, group formation, audit) on one thread and
//!   executes — each dispatch group runs in the tick that forms it, as
//!   one batch-engine call that splits the group over the cores.
//!
//! Scheduling is measured in dispatch *ticks*, not wall-clock time,
//! so every guarantee in this crate is exactly reproducible in tests:
//! lane shares, starvation bounds, batch sizes and results are all
//! deterministic functions of the submitted stream — under any kernel
//! backend, which `tests/service_e2e.rs` replays three ways.
//!
//! # Example
//!
//! See `examples/multi_tenant_service.rs` at the workspace root for
//! mixed TFHE + CKKS tenants running through the queue, and
//! `crates/service/tests/` for the end-to-end bit-identity and
//! fairness suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod coalesce;
pub mod core;
pub mod lane;
pub mod queue;
pub mod session;

pub use audit::{AuditEvent, AuditLog, PickCause, SCHEMA_VERSION};
pub use coalesce::Geometry;
pub use core::{RequestId, Response, ServiceConfig, ServiceCore, Workload};
pub use lane::{BudgetError, Lane, LaneBudgets, StarvationPolicy};
pub use queue::{edf_pick, Scheduler};
pub use session::{AdmissionError, KeyCache, TenantKeys};
