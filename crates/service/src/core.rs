//! The service core: admission, queueing, dispatch, results.
//!
//! [`ServiceCore`] separates *deciding* from *executing*. A
//! single-threaded decision loop admits requests, picks lanes, forms
//! dispatch groups (coalesced rotations, batched gates) and writes the
//! audit log — one group per tick, always, regardless of configuration.
//! Execution is deferred: formed groups park in a FIFO in-flight window
//! of at most [`ServiceConfig::max_in_flight`] groups, and whenever the
//! window fills, a *wave* of mutually independent groups (pairwise
//! disjoint tenants, no group consuming another in-flight group's
//! output) retires — executed concurrently on scoped threads when the
//! wave has more than one group, inline otherwise.
//!
//! Because every scheduling decision is made *before* its group
//! executes, and group outputs are folded back in formation order, the
//! audit log and every ciphertext are byte-for-byte identical for any
//! `max_in_flight` and any kernel backend. `max_in_flight = 1` (the
//! default) degenerates to the fully sequential core: each group
//! retires in the same tick it forms.
//!
//! Time is measured in *ticks* — one tick per dispatch opportunity —
//! which keeps budget enforcement and starvation detection exact and
//! reproducible under test (no wall clock anywhere).

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use fhe_ckks::{Ciphertext, CkksContext, Evaluator, SwitchingKey};
use fhe_math::galois::rotation_galois_element;
use fhe_math::{Representation, RnsPoly};
use fhe_tfhe::{BatchedGateJob, GateOp, LweCiphertext, ServerKey};

use crate::audit::{AuditEvent, AuditLog, PickCause};
use crate::coalesce::{gates_compatible, mates, Geometry};
use crate::lane::{BudgetError, Lane, LaneBudgets, StarvationPolicy};
use crate::queue::{self, Scheduler};
use crate::session::{AdmissionError, KeyCache, TenantKeys};

/// Service-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Per-lane minimum dispatch shares.
    pub budgets: LaneBudgets,
    /// Starvation threshold.
    pub starvation: StarvationPolicy,
    /// Budget-enforcement window (picks).
    pub window: usize,
    /// Maximum queued requests across all lanes; admission rejects
    /// beyond this.
    pub queue_capacity: usize,
    /// Key-cache byte budget.
    pub key_cache_bytes: usize,
    /// Maximum requests coalesced into one kernel dispatch.
    pub max_batch: usize,
    /// Maximum dispatch groups formed but not yet executed. `1` (the
    /// default) executes every group in the tick that forms it —
    /// today's sequential behavior; larger values let independent
    /// groups execute concurrently on scoped threads without changing
    /// a single audit byte or ciphertext bit. `0` is treated as `1`.
    pub max_in_flight: usize,
}

impl ServiceConfig {
    /// Defaults sized for the CI-scale contexts the test suites run:
    /// the 20/30/50 lane split over a 20-pick window, a 256-request
    /// queue, a 64 MiB key cache, up to 8 requests per dispatch, and
    /// strictly sequential execution (`max_in_flight = 1`).
    pub fn default_config() -> Self {
        ServiceConfig {
            budgets: LaneBudgets::default_split(),
            starvation: StarvationPolicy::default_policy(),
            window: 20,
            queue_capacity: 256,
            key_cache_bytes: 64 << 20,
            max_batch: 8,
            max_in_flight: 1,
        }
    }
}

/// Handle for a submitted request; redeem with
/// [`ServiceCore::take_result`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// The id as it appears in the audit log.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// What a tenant asks the service to compute.
pub enum Workload {
    /// A TFHE boolean gate over two encrypted bits
    /// ([`Lane::Interactive`]).
    Gate {
        /// The gate.
        op: GateOp,
        /// Encrypted left input.
        a: LweCiphertext,
        /// Encrypted right input.
        b: LweCiphertext,
    },
    /// One CKKS rotation that must complete within `deadline` ticks of
    /// admission ([`Lane::Timed`]).
    Rotation {
        /// The ciphertext to rotate.
        ct: Ciphertext,
        /// Rotation step.
        step: i64,
        /// Completion deadline, in ticks after admission.
        deadline: u64,
    },
    /// A CKKS analytics scan applying `steps` in order
    /// ([`Lane::Bulk`]).
    Analytics {
        /// The ciphertext to scan.
        ct: Ciphertext,
        /// Rotation steps, applied sequentially.
        steps: Vec<i64>,
    },
}

/// A finished request's payload.
pub enum Response {
    /// Result of a [`Workload::Gate`].
    Bit(LweCiphertext),
    /// Result of a [`Workload::Rotation`] or [`Workload::Analytics`].
    Vector(Ciphertext),
}

/// A rotation job's working ciphertext. `Pending` is the deferred-
/// execution placeholder: the value is still being produced by an
/// in-flight group, but the decision loop already knows everything it
/// needs — the level (Galois keyswitching preserves it) for geometry
/// matching, and the producing group for the wave-independence rule.
enum CtSlot {
    Ready(Ciphertext),
    Pending { group: u64, level: usize },
}

impl CtSlot {
    fn level(&self) -> usize {
        match self {
            CtSlot::Ready(ct) => ct.level,
            CtSlot::Pending { level, .. } => *level,
        }
    }
}

enum JobWork {
    Gate {
        op: GateOp,
        a: LweCiphertext,
        b: LweCiphertext,
    },
    /// A rotation chain; `next` indexes the step the job still owes.
    /// [`Workload::Rotation`] is the one-step instance.
    Rotations {
        ct: CtSlot,
        steps: Vec<i64>,
        next: usize,
    },
}

struct Job {
    request: u64,
    tenant: usize,
    lane: Lane,
    admitted: u64,
    /// Tick the job was last served (or admitted); starvation wait is
    /// measured from here, so multi-step chains re-arm between steps.
    last_service: u64,
    deadline: Option<u64>,
    work: JobWork,
}

/// The tick a timed job must have completed by (`u64::MAX` = undated).
fn due_tick(job: &Job) -> u64 {
    job.deadline
        .and_then(|d| job.admitted.checked_add(d))
        .unwrap_or(u64::MAX)
}

struct GateJob {
    request: u64,
    tenant: usize,
    op: GateOp,
    a: LweCiphertext,
    b: LweCiphertext,
}

struct RotJob {
    request: u64,
    tenant: usize,
    step: i64,
    input: CtSlot,
    /// Whether this dispatch finishes the job's chain (result goes to
    /// the tenant) or feeds its next step (result goes to `chain_out`).
    last: bool,
}

enum GroupWork {
    Gates(Vec<GateJob>),
    Rotations {
        ctx: Arc<CkksContext>,
        galois: u64,
        jobs: Vec<RotJob>,
    },
}

/// A dispatch group that has been formed, audited and scheduled, but
/// not yet executed.
struct InFlightGroup {
    id: u64,
    work: GroupWork,
}

impl InFlightGroup {
    fn tenants(&self) -> Vec<usize> {
        match &self.work {
            GroupWork::Gates(jobs) => jobs.iter().map(|j| j.tenant).collect(),
            GroupWork::Rotations { jobs, .. } => jobs.iter().map(|j| j.tenant).collect(),
        }
    }

    /// Whether any input is produced by a group in `wave`.
    fn depends_on(&self, wave: &HashSet<u64>) -> bool {
        match &self.work {
            GroupWork::Gates(_) => false,
            GroupWork::Rotations { jobs, .. } => jobs
                .iter()
                .any(|j| matches!(&j.input, CtSlot::Pending { group, .. } if wave.contains(group))),
        }
    }
}

/// Executes one fully resolved group. Free function so retiring waves
/// can run it from scoped threads while the core only lends out
/// `&KeyCache` / `&contexts`.
fn exec_group(
    cache: &KeyCache,
    contexts: &[(Arc<CkksContext>, Evaluator)],
    group: &InFlightGroup,
) -> Vec<Response> {
    match &group.work {
        GroupWork::Gates(jobs) => {
            let batch: Vec<BatchedGateJob<'_>> = jobs
                .iter()
                .map(|j| {
                    let Some(TenantKeys::Tfhe { server }) = cache.get(j.tenant) else {
                        unreachable!("admission pinned the tenant's TFHE session");
                    };
                    (server, j.op, &j.a, &j.b)
                })
                .collect();
            fhe_tfhe::apply_gates_batched(&batch)
                .into_iter()
                .map(Response::Bit)
                .collect()
        }
        GroupWork::Rotations { ctx, galois, jobs } => {
            let eval = &contexts
                .iter()
                .find(|(c, _)| Arc::ptr_eq(c, ctx))
                .expect("registration recorded the context")
                .1;
            let kjobs: Vec<(&Ciphertext, &SwitchingKey)> = jobs
                .iter()
                .map(|j| {
                    let Some(TenantKeys::Ckks { galois: keys, .. }) = cache.get(j.tenant) else {
                        unreachable!("admission pinned the tenant's CKKS session");
                    };
                    let CtSlot::Ready(ct) = &j.input else {
                        unreachable!("wave inputs were resolved before execution");
                    };
                    let key = keys.get(&j.step).expect("admission validated every step");
                    (ct, key)
                })
                .collect();
            eval.apply_galois_coalesced(&kjobs, *galois)
                .into_iter()
                .map(Response::Vector)
                .collect()
        }
    }
}

/// The shape the rotation engine asserts, checked in O(1) at the door:
/// a level the tenant's context has, and in each component `level + 1`
/// limbs of the context's degree, in evaluation form. Residue ranges
/// are not checked.
fn check_ckks_shape(ctx: &CkksContext, ct: &Ciphertext) -> Result<(), AdmissionError> {
    let fits = |c: &RnsPoly| {
        c.limbs() == ct.level + 1 && c.n() == ctx.n() && c.representation() == Representation::Eval
    };
    if ct.level <= ctx.params().max_level() && fits(&ct.c0) && fits(&ct.c1) {
        Ok(())
    } else {
        Err(AdmissionError::MalformedCiphertext)
    }
}

/// The multi-tenant serving core. See the module docs for the design.
pub struct ServiceCore {
    cfg: ServiceConfig,
    sched: Scheduler,
    audit: AuditLog,
    cache: KeyCache,
    /// One evaluator per distinct shared context, so coalesced
    /// dispatches have a single op-counter home.
    contexts: Vec<(Arc<CkksContext>, Evaluator)>,
    lanes: [VecDeque<Job>; 3],
    /// Tick each lane last received a dispatch; lane wait (the
    /// scheduler's starvation observation) is measured from here.
    last_served: [u64; 3],
    results: HashMap<u64, Response>,
    /// Formed-but-unexecuted dispatch groups, oldest first.
    in_flight: VecDeque<InFlightGroup>,
    /// Intermediate chain outputs by request id, parked between a
    /// producing group's retirement and the consuming dispatch's.
    chain_out: HashMap<u64, Ciphertext>,
    tick: u64,
    next_request: u64,
    next_group: u64,
}

impl ServiceCore {
    /// Builds a service, validating the lane budgets. The audit log
    /// opens with a [`AuditEvent::Meta`] line stamping the
    /// configuration.
    pub fn new(cfg: ServiceConfig) -> Result<Self, BudgetError> {
        let sched = Scheduler::new(cfg.budgets, cfg.starvation, cfg.window)?;
        let mut audit = AuditLog::new();
        audit.push(AuditEvent::Meta {
            max_in_flight: cfg.max_in_flight,
            max_batch: cfg.max_batch,
            window: cfg.window,
        });
        Ok(ServiceCore {
            sched,
            audit,
            cache: KeyCache::new(cfg.key_cache_bytes),
            contexts: Vec::new(),
            lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            last_served: [0; 3],
            results: HashMap::new(),
            in_flight: VecDeque::new(),
            chain_out: HashMap::new(),
            tick: 0,
            next_request: 0,
            next_group: 0,
            cfg,
        })
    }

    /// Registers a CKKS tenant: a (possibly shared) context plus
    /// Galois keys by rotation step. Tenants registered over the same
    /// `Arc`'d context become coalescing candidates for one another.
    /// Returns the key bytes charged to the cache.
    pub fn register_ckks_tenant(
        &mut self,
        tenant: usize,
        ctx: Arc<CkksContext>,
        galois: HashMap<i64, SwitchingKey>,
    ) -> Result<usize, AdmissionError> {
        // Insert first: a refused registration must not leave the
        // context (and a fresh Evaluator) resident forever.
        let bytes = self.cache.insert(
            tenant,
            TenantKeys::Ckks {
                ctx: ctx.clone(),
                galois,
            },
        )?;
        if !self.contexts.iter().any(|(c, _)| Arc::ptr_eq(c, &ctx)) {
            self.contexts
                .push((ctx.clone(), Evaluator::new(ctx.clone())));
        }
        Ok(bytes)
    }

    /// Registers a TFHE tenant with its server key. Returns the key
    /// bytes charged to the cache.
    pub fn register_tfhe_tenant(
        &mut self,
        tenant: usize,
        server: ServerKey,
    ) -> Result<usize, AdmissionError> {
        self.cache.insert(tenant, TenantKeys::Tfhe { server })
    }

    /// Admits a request or rejects it (queue saturated, keys not
    /// resident / wrong scheme, a ciphertext whose shape the session
    /// cannot evaluate, uncovered rotation step). Every outcome is
    /// audited.
    pub fn submit(&mut self, tenant: usize, work: Workload) -> Result<RequestId, AdmissionError> {
        if let Err(e) = self.admissible(tenant, &work) {
            self.audit.push(AuditEvent::Reject {
                tick: self.tick,
                tenant,
                reason: e.audit_reason(),
            });
            return Err(e);
        }
        let (lane, job_work, deadline) = match work {
            Workload::Gate { op, a, b } => (Lane::Interactive, JobWork::Gate { op, a, b }, None),
            Workload::Rotation { ct, step, deadline } => (
                Lane::Timed,
                JobWork::Rotations {
                    ct: CtSlot::Ready(ct),
                    steps: vec![step],
                    next: 0,
                },
                Some(deadline),
            ),
            Workload::Analytics { ct, steps } => (
                Lane::Bulk,
                JobWork::Rotations {
                    ct: CtSlot::Ready(ct),
                    steps,
                    next: 0,
                },
                None,
            ),
        };
        let request = self.next_request;
        self.next_request += 1;
        self.cache.touch(tenant);
        self.cache.pin(tenant);
        self.audit.push(AuditEvent::Admit {
            tick: self.tick,
            tenant,
            request,
            lane,
        });
        self.lanes[lane.index()].push_back(Job {
            request,
            tenant,
            lane,
            admitted: self.tick,
            last_service: self.tick,
            deadline,
            work: job_work,
        });
        Ok(RequestId(request))
    }

    fn admissible(&self, tenant: usize, work: &Workload) -> Result<(), AdmissionError> {
        if self.pending_total() >= self.cfg.queue_capacity {
            return Err(AdmissionError::QueueSaturated);
        }
        match (self.cache.get(tenant), work) {
            (Some(TenantKeys::Tfhe { server }), Workload::Gate { a, b, .. }) => {
                let n_lwe = server.ctx.params.n_lwe;
                if a.dim() == n_lwe && b.dim() == n_lwe {
                    Ok(())
                } else {
                    Err(AdmissionError::MalformedCiphertext)
                }
            }
            (Some(TenantKeys::Ckks { ctx, galois }), Workload::Rotation { ct, step, .. }) => {
                check_ckks_shape(ctx, ct)?;
                if galois.contains_key(step) {
                    Ok(())
                } else {
                    Err(AdmissionError::MissingGaloisKey { step: *step })
                }
            }
            (Some(TenantKeys::Ckks { ctx, galois }), Workload::Analytics { ct, steps }) => {
                // An empty scan would pass the key check vacuously but
                // has no step for the dispatcher to serve.
                if steps.is_empty() {
                    return Err(AdmissionError::EmptyWorkload);
                }
                check_ckks_shape(ctx, ct)?;
                steps
                    .iter()
                    .find(|s| !galois.contains_key(s))
                    .map_or(Ok(()), |s| {
                        Err(AdmissionError::MissingGaloisKey { step: *s })
                    })
            }
            // No session, or a session for the other scheme.
            _ => Err(AdmissionError::UnknownTenant),
        }
    }

    /// Runs dispatches until every lane drains, then retires every
    /// in-flight group.
    pub fn run_until_idle(&mut self) {
        while self.dispatch_next().is_some() {}
        self.quiesce();
    }

    /// Performs one dispatch decision (forming one group for one
    /// lane), returning the lane served, or `None` when all lanes are
    /// empty. When the in-flight window is full, retires waves until
    /// it has room again — with `max_in_flight = 1` that executes the
    /// freshly formed group immediately.
    pub fn dispatch_next(&mut self) -> Option<Lane> {
        let waits = self.waits();
        let (lane, cause) = self.sched.pick(waits)?;
        if cause == PickCause::Starvation {
            self.audit.push(AuditEvent::Starvation {
                tick: self.tick,
                lane,
                waited: waits[lane.index()].unwrap_or(0),
            });
        }
        let pending = self.lanes.each_ref().map(VecDeque::len);
        match lane {
            Lane::Interactive => self.dispatch_gate(cause, pending),
            Lane::Timed | Lane::Bulk => self.dispatch_rotations(lane, cause, pending),
        }
        self.last_served[lane.index()] = self.tick;
        self.tick += 1;
        while self.in_flight.len() >= self.cfg.max_in_flight.max(1) {
            self.retire_wave();
        }
        Some(lane)
    }

    /// Per-lane waits for the scheduler: ticks since the lane was last
    /// dispatched (or since its head job became runnable, whichever is
    /// later), matching the lane-wait model the scheduler's starvation
    /// property is verified against. Measuring from the *lane's* last
    /// service — not the head job's admission — keeps a deep old
    /// backlog from reading as permanently starved and overriding the
    /// budget mechanism. A timed job past its deadline reports a wait
    /// past the starvation threshold, so deadline misses surface
    /// through the same force-serve path; the scan covers the whole
    /// lane, not just its front, because EDF (not FIFO) decides which
    /// timed job a dispatch serves.
    fn waits(&self) -> [Option<u64>; 3] {
        let mut w = [None; 3];
        for lane in Lane::ALL {
            if let Some(job) = self.lanes[lane.index()].front() {
                let since = job.last_service.max(self.last_served[lane.index()]);
                let mut waited = self.tick - since;
                // checked_add: a deadline near u64::MAX means "never",
                // not an overflow panic.
                let min_due = self.lanes[lane.index()]
                    .iter()
                    .filter_map(|j| j.deadline.and_then(|d| j.admitted.checked_add(d)))
                    .min();
                if min_due.is_some_and(|due| self.tick > due) {
                    waited = waited.max(self.sched.policy().max_wait_ticks + 1);
                }
                w[lane.index()] = Some(waited);
            }
        }
        w
    }

    /// Forms one Interactive group: the head gate plus every queued
    /// gate whose server key can share its batched blind rotation
    /// ([`gates_compatible`]), FIFO, capped at
    /// [`ServiceConfig::max_batch`] (the head counts).
    fn dispatch_gate(&mut self, cause: PickCause, pending: [usize; 3]) {
        let head = self.lanes[Lane::Interactive.index()]
            .pop_front()
            .expect("scheduler picked a non-empty lane");
        let picked: Vec<usize> = {
            let Some(TenantKeys::Tfhe { server: head_key }) = self.cache.get(head.tenant) else {
                unreachable!("admission pinned the tenant's TFHE session");
            };
            self.lanes[Lane::Interactive.index()]
                .iter()
                .enumerate()
                .filter(|(_, job)| {
                    let Some(TenantKeys::Tfhe { server }) = self.cache.get(job.tenant) else {
                        unreachable!("interactive lane carries TFHE jobs only");
                    };
                    gates_compatible(head_key, server)
                })
                .map(|(qi, _)| qi)
                .take(self.cfg.max_batch.saturating_sub(1))
                .collect()
        };
        let mut batch = vec![head];
        // Remove back-to-front so queue indices stay valid.
        for &qi in picked.iter().rev() {
            let job = self.lanes[Lane::Interactive.index()]
                .remove(qi)
                .expect("mate index is live");
            batch.push(job);
        }
        // Canonical completion order: ascending request id.
        batch.sort_by_key(|j| j.request);
        let group = self.next_group;
        self.next_group += 1;
        self.audit.push(AuditEvent::Dispatch {
            tick: self.tick,
            group,
            lane: Lane::Interactive,
            cause,
            jobs: batch.len(),
            pending,
        });
        let mut jobs = Vec::with_capacity(batch.len());
        for job in batch {
            let JobWork::Gate { op, a, b } = job.work else {
                unreachable!("interactive lane carries gate jobs only");
            };
            self.audit.push(AuditEvent::Complete {
                tick: self.tick,
                group,
                request: job.request,
            });
            jobs.push(GateJob {
                request: job.request,
                tenant: job.tenant,
                op,
                a,
                b,
            });
        }
        self.in_flight.push_back(InFlightGroup {
            id: group,
            work: GroupWork::Gates(jobs),
        });
    }

    /// Forms one rotation group for `lane`, coalescing every queued
    /// Timed/Bulk job that shares the head's geometry (same shared
    /// context, level, Galois element) — each job under its own
    /// tenant's switching key. The Timed lane serves
    /// earliest-deadline-first ([`queue::edf_pick`]); Bulk stays FIFO.
    fn dispatch_rotations(&mut self, lane: Lane, cause: PickCause, pending: [usize; 3]) {
        let head_idx = if lane == Lane::Timed {
            let dues: Vec<(u64, u64)> = self.lanes[lane.index()]
                .iter()
                .map(|j| (due_tick(j), j.request))
                .collect();
            queue::edf_pick(&dues).expect("scheduler picked a non-empty lane")
        } else {
            0
        };
        let head = self.lanes[lane.index()]
            .remove(head_idx)
            .expect("scheduler picked a non-empty lane");
        let head_ctx = self.job_ctx(&head);
        let head_geom = self.job_geometry(&head, &head_ctx);
        let g = head_geom.galois();

        // Collect geometry-matching mates from both rotation lanes,
        // FIFO within each lane, Timed before Bulk.
        let mut batch = vec![head];
        let mut candidates = Vec::new();
        let mut locs = Vec::new();
        for l in [Lane::Timed, Lane::Bulk] {
            for (qi, job) in self.lanes[l.index()].iter().enumerate() {
                let ctx = self.job_ctx(job);
                candidates.push((locs.len(), self.job_geometry(job, &ctx)));
                locs.push((l, qi));
            }
        }
        let picked = mates(head_geom, &candidates, self.cfg.max_batch);
        // Remove back-to-front so queue indices stay valid.
        for &p in picked.iter().rev() {
            let (l, qi) = locs[p];
            let job = self.lanes[l.index()]
                .remove(qi)
                .expect("mate index is live");
            batch.push(job);
        }
        // Canonical completion order: ascending request id, whichever
        // job EDF or coalescing pulled first.
        batch.sort_by_key(|j| j.request);

        let group = self.next_group;
        self.next_group += 1;
        self.audit.push(AuditEvent::Dispatch {
            tick: self.tick,
            group,
            lane,
            cause,
            jobs: batch.len(),
            pending,
        });
        // Galois keyswitching preserves the level, so every output of
        // this group sits at the head geometry's level.
        let level = head_geom.level();
        let mut jobs = Vec::with_capacity(batch.len());
        for mut job in batch {
            let JobWork::Rotations { ct, steps, next } = &mut job.work else {
                unreachable!("rotation lanes carry rotation jobs only");
            };
            let step = steps[*next];
            let input = std::mem::replace(ct, CtSlot::Pending { group, level });
            *next += 1;
            let last = *next == steps.len();
            jobs.push(RotJob {
                request: job.request,
                tenant: job.tenant,
                step,
                input,
                last,
            });
            if last {
                self.audit.push(AuditEvent::Complete {
                    tick: self.tick,
                    group,
                    request: job.request,
                });
            } else {
                job.last_service = self.tick;
                self.lanes[job.lane.index()].push_back(job);
            }
        }
        self.in_flight.push_back(InFlightGroup {
            id: group,
            work: GroupWork::Rotations {
                ctx: head_ctx,
                galois: g,
                jobs,
            },
        });
    }

    /// Retires the next *wave*: the maximal leading run of in-flight
    /// groups that are mutually independent — pairwise-disjoint tenant
    /// sets (so per-tenant key material and cache pins are never
    /// shared across concurrent dispatches) and no group consuming a
    /// ciphertext produced by an earlier group still in the wave. The
    /// first group is always eligible (everything before it has
    /// retired), so progress is guaranteed. A wave of one executes
    /// inline; larger waves fan out on scoped threads, one per group.
    /// Outputs fold back in formation order, keeping results and
    /// chain hand-offs deterministic.
    fn retire_wave(&mut self) {
        if self.in_flight.is_empty() {
            return;
        }
        let mut wave_tenants: HashSet<usize> = HashSet::new();
        let mut wave_ids: HashSet<u64> = HashSet::new();
        let mut len = 0;
        for group in &self.in_flight {
            let tenants = group.tenants();
            let conflicts =
                tenants.iter().any(|t| wave_tenants.contains(t)) || group.depends_on(&wave_ids);
            if len > 0 && conflicts {
                break;
            }
            wave_tenants.extend(tenants);
            wave_ids.insert(group.id);
            len += 1;
        }
        let mut wave: Vec<InFlightGroup> = self.in_flight.drain(..len).collect();
        // Resolve chained inputs: the producer retired in an earlier
        // wave (the independence rule guarantees it), so its output is
        // parked in `chain_out` under this job's request id.
        for group in &mut wave {
            if let GroupWork::Rotations { jobs, .. } = &mut group.work {
                for job in jobs {
                    if matches!(job.input, CtSlot::Pending { .. }) {
                        let ct = self
                            .chain_out
                            .remove(&job.request)
                            .expect("producer group retired first");
                        job.input = CtSlot::Ready(ct);
                    }
                }
            }
        }
        let outputs: Vec<Vec<Response>> = {
            let cache = &self.cache;
            let contexts = &self.contexts[..];
            if wave.len() == 1 {
                vec![exec_group(cache, contexts, &wave[0])]
            } else {
                std::thread::scope(|s| {
                    let handles: Vec<_> = wave
                        .iter()
                        .map(|g| s.spawn(move || exec_group(cache, contexts, g)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("in-flight group execution panicked"))
                        .collect()
                })
            }
        };
        for (group, outs) in wave.into_iter().zip(outputs) {
            match group.work {
                GroupWork::Gates(jobs) => {
                    for (job, out) in jobs.into_iter().zip(outs) {
                        self.results.insert(job.request, out);
                        self.cache.unpin(job.tenant);
                    }
                }
                GroupWork::Rotations { jobs, .. } => {
                    for (job, out) in jobs.into_iter().zip(outs) {
                        if job.last {
                            self.results.insert(job.request, out);
                            self.cache.unpin(job.tenant);
                        } else {
                            let Response::Vector(ct) = out else {
                                unreachable!("rotation groups yield vectors");
                            };
                            self.chain_out.insert(job.request, ct);
                        }
                    }
                }
            }
        }
    }

    /// Retires every in-flight group.
    fn quiesce(&mut self) {
        while !self.in_flight.is_empty() {
            self.retire_wave();
        }
    }

    fn job_ctx(&self, job: &Job) -> Arc<CkksContext> {
        let Some(TenantKeys::Ckks { ctx, .. }) = self.cache.get(job.tenant) else {
            unreachable!("rotation jobs belong to CKKS tenants");
        };
        ctx.clone()
    }

    fn job_geometry(&self, job: &Job, ctx: &Arc<CkksContext>) -> Geometry {
        let JobWork::Rotations { ct, steps, next } = &job.work else {
            unreachable!("rotation lanes carry rotation jobs only");
        };
        let g = rotation_galois_element(steps[*next], ctx.n());
        Geometry::new(ctx, ct.level(), g)
    }

    /// Collects a finished request's result, retiring in-flight groups
    /// as needed to produce it.
    pub fn take_result(&mut self, id: RequestId) -> Option<Response> {
        while !self.results.contains_key(&id.0) && !self.in_flight.is_empty() {
            self.retire_wave();
        }
        self.results.remove(&id.0)
    }

    /// Requests queued across all lanes (excluding in-flight groups).
    pub fn pending_total(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Dispatch groups formed but not yet executed.
    pub fn in_flight_groups(&self) -> usize {
        self.in_flight.len()
    }

    /// The audit log so far.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// The key cache (capacity, usage, evictions).
    pub fn key_cache(&self) -> &KeyCache {
        &self.cache
    }

    /// The current scheduler tick.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The shared evaluator for `ctx`, if any tenant registered over
    /// it — its op counters aggregate the context's service traffic.
    pub fn evaluator_for(&self, ctx: &Arc<CkksContext>) -> Option<&Evaluator> {
        self.contexts
            .iter()
            .find(|(c, _)| Arc::ptr_eq(c, ctx))
            .map(|(_, e)| e)
    }
}
