//! The service core: admission, queueing, dispatch, results.
//!
//! [`ServiceCore`] is one loop that decides on one thread and executes
//! on every core. Each tick it picks a lane, forms one dispatch group
//! (coalesced rotations or batched gates), audits the decision and runs
//! the group before the tick ends: a finished request's result is
//! collectable as soon as the [`ServiceCore::dispatch_next`] call that
//! completed it returns, and a chained job goes back to its lane
//! carrying its real intermediate ciphertext.
//!
//! A group's jobs are independent — a job's output does not depend on
//! its batch mates — so the group is split into one contiguous
//! sub-batch per lane of the process pool [`fhe_math::pool::shared`]
//! ([`WorkerPool::map_chunks`]), and each sub-batch runs on its
//! own core — gates through one batched-gate call, rotations one
//! keyswitch per job. Results, the audit and completion order are
//! those of running the group unsplit; a 1-wide group, or a 1-core
//! host, runs it inline.
//!
//! Time is measured in *ticks* — one tick per dispatch opportunity —
//! which keeps budget enforcement and starvation detection exact and
//! reproducible under test (no wall clock anywhere).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use fhe_ckks::{Ciphertext, CkksContext, Evaluator, SwitchingKey};
use fhe_math::galois::rotation_galois_element;
use fhe_math::pool::{self, WorkerPool};
use fhe_math::{Representation, RnsPoly};
use fhe_tfhe::{BatchedGateJob, GateOp, LweCiphertext, ServerKey};

use crate::audit::{AuditEvent, AuditLog, PickCause};
use crate::coalesce::{mates, Geometry};
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
    /// Maximum requests in one dispatch group. The group is split into
    /// one sub-batch per core, so one batched-gate call carries at most
    /// `ceil(max_batch / cores)` of them; a rotation is always one
    /// keyswitch of its own.
    pub max_batch: usize,
    /// Ignored: every dispatch group executes in the tick that forms
    /// it, whatever this holds. The field exists only because
    /// `benchmark/`'s frozen `ServiceConfig { .. }` literal sets it;
    /// the benchmark re-baseline (ROADMAP item 2(a)) deletes it.
    pub max_in_flight: usize,
}

impl ServiceConfig {
    /// Defaults sized for the CI-scale contexts the test suites run:
    /// the 20/30/50 lane split over a 20-pick window, a 256-request
    /// queue, a 64 MiB key cache and up to 8 requests per dispatch.
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

enum JobWork {
    Gate {
        op: GateOp,
        a: LweCiphertext,
        b: LweCiphertext,
    },
    /// A rotation chain; `next` indexes the step the job still owes.
    /// [`Workload::Rotation`] is the one-step instance.
    Rotations {
        ct: Ciphertext,
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
    /// One evaluator per distinct shared context, so every rotation
    /// over that context — whichever tenant and core ran it — counts
    /// in one place.
    contexts: Vec<(Arc<CkksContext>, Evaluator)>,
    lanes: [VecDeque<Job>; 3],
    /// Tick each lane last received a dispatch; lane wait (the
    /// scheduler's starvation observation) is measured from here.
    last_served: [u64; 3],
    results: HashMap<u64, Response>,
    tick: u64,
    next_request: u64,
    next_group: u64,
    /// The process pool ([`pool::shared`]), one lane per core: each
    /// dispatch group's jobs are split across it.
    pool: &'static WorkerPool,
    /// Dispatch groups that ran as more than one sub-batch.
    split_groups: u64,
}

impl ServiceCore {
    /// Builds a service, validating the lane budgets. The audit log
    /// opens with a [`AuditEvent::Meta`] line stamping the
    /// configuration.
    pub fn new(cfg: ServiceConfig) -> Result<Self, BudgetError> {
        let sched = Scheduler::new(cfg.budgets, cfg.starvation, cfg.window)?;
        let mut audit = AuditLog::new();
        audit.push(AuditEvent::Meta {
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
            tick: 0,
            next_request: 0,
            next_group: 0,
            pool: pool::shared(),
            split_groups: 0,
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
                    ct,
                    steps: vec![step],
                    next: 0,
                },
                Some(deadline),
            ),
            Workload::Analytics { ct, steps } => {
                (Lane::Bulk, JobWork::Rotations { ct, steps, next: 0 }, None)
            }
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

    /// Runs dispatches until every lane drains.
    pub fn run_until_idle(&mut self) {
        while self.dispatch_next().is_some() {}
    }

    /// Performs one dispatch — forms one group for one lane and runs
    /// it — returning the lane served, or `None` when all lanes are
    /// empty. Every request the dispatch completes is collectable with
    /// [`ServiceCore::take_result`] as soon as this returns.
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

    /// Forms and runs one Interactive group: the head gate plus every
    /// queued gate whose server key can share its batched blind
    /// rotation ([`ServerKey::shares_ring_with`]), FIFO, capped at
    /// [`ServiceConfig::max_batch`] (the head counts). The group runs as
    /// one [`fhe_tfhe::apply_gates_batched`] call per pool chunk.
    fn dispatch_gate(&mut self, cause: PickCause, pending: [usize; 3]) {
        let head = self.lanes[Lane::Interactive.index()]
            .pop_front()
            .expect("scheduler picked a non-empty lane");
        let picked: Vec<usize> = {
            let head_key = self.server_key(head.tenant);
            self.lanes[Lane::Interactive.index()]
                .iter()
                .enumerate()
                .filter(|(_, job)| head_key.shares_ring_with(self.server_key(job.tenant)))
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
        let group = self.open_group(Lane::Interactive, cause, batch.len(), pending);
        let sub_batches = AtomicUsize::new(0);
        let outs = {
            let jobs: Vec<BatchedGateJob<'_>> = batch
                .iter()
                .map(|job| {
                    let JobWork::Gate { op, a, b } = &job.work else {
                        unreachable!("interactive lane carries gate jobs only");
                    };
                    (self.server_key(job.tenant), *op, a, b)
                })
                .collect();
            self.pool.map_chunks(&jobs, |chunk| {
                sub_batches.fetch_add(1, Ordering::Relaxed);
                fhe_tfhe::apply_gates_batched(chunk)
            })
        };
        self.split_groups += u64::from(sub_batches.into_inner() > 1);
        for (job, out) in batch.iter().zip(outs) {
            self.complete(group, job, Response::Bit(out));
        }
    }

    /// Forms and runs one rotation group for `lane`, coalescing every
    /// queued Timed/Bulk job that shares the head's geometry (same
    /// shared context, level, Galois element) — each job under its own
    /// tenant's switching key. The Timed lane serves
    /// earliest-deadline-first ([`queue::edf_pick`]); Bulk stays FIFO.
    /// The group is split into one sub-batch per core, and each job of
    /// a sub-batch is one [`Evaluator::apply_galois`] call. A chained
    /// job whose steps remain goes back to its lane carrying this
    /// step's output.
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

        let group = self.open_group(lane, cause, batch.len(), pending);
        let sub_batches = AtomicUsize::new(0);
        let outs = {
            let eval = self
                .evaluator_for(&head_ctx)
                .expect("registration recorded the context");
            let jobs: Vec<(&Ciphertext, &SwitchingKey)> = batch
                .iter()
                .map(|job| {
                    let JobWork::Rotations { ct, steps, next } = &job.work else {
                        unreachable!("rotation lanes carry rotation jobs only");
                    };
                    let Some(TenantKeys::Ckks { galois, .. }) = self.cache.get(job.tenant) else {
                        unreachable!("admission pinned the tenant's CKKS session");
                    };
                    let key = galois
                        .get(&steps[*next])
                        .expect("admission validated every step");
                    (ct, key)
                })
                .collect();
            let g = head_geom.galois();
            self.pool.map_chunks(&jobs, |chunk| {
                sub_batches.fetch_add(1, Ordering::Relaxed);
                chunk
                    .iter()
                    .map(|&(ct, key)| eval.apply_galois(ct, g, key))
                    .collect()
            })
        };
        self.split_groups += u64::from(sub_batches.into_inner() > 1);
        for (mut job, out) in batch.into_iter().zip(outs) {
            let JobWork::Rotations { ct, steps, next } = &mut job.work else {
                unreachable!("rotation lanes carry rotation jobs only");
            };
            *next += 1;
            if *next == steps.len() {
                self.complete(group, &job, Response::Vector(out));
            } else {
                *ct = out;
                job.last_service = self.tick;
                self.lanes[job.lane.index()].push_back(job);
            }
        }
    }

    /// Audits one dispatch decision and returns its group id.
    fn open_group(
        &mut self,
        lane: Lane,
        cause: PickCause,
        jobs: usize,
        pending: [usize; 3],
    ) -> u64 {
        let group = self.next_group;
        self.next_group += 1;
        self.audit.push(AuditEvent::Dispatch {
            tick: self.tick,
            group,
            lane,
            cause,
            jobs,
            pending,
        });
        group
    }

    /// Audits `job`'s completion by `group`, hands its result over and
    /// unpins its tenant's session.
    fn complete(&mut self, group: u64, job: &Job, out: Response) {
        self.audit.push(AuditEvent::Complete {
            tick: self.tick,
            group,
            request: job.request,
        });
        self.results.insert(job.request, out);
        self.cache.unpin(job.tenant);
    }

    fn server_key(&self, tenant: usize) -> &ServerKey {
        let Some(TenantKeys::Tfhe { server }) = self.cache.get(tenant) else {
            unreachable!("interactive lane carries TFHE jobs only");
        };
        server
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
        Geometry::new(ctx, ct.level, g)
    }

    /// Collects a finished request's result.
    pub fn take_result(&mut self, id: RequestId) -> Option<Response> {
        self.results.remove(&id.0)
    }

    /// Requests queued across all lanes.
    pub fn pending_total(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Dispatch groups so far that ran as more than one pool sub-batch:
    /// the service's own record of splitting a group across cores,
    /// apart from whatever the jobs inside a sub-batch dispatch into the
    /// pool themselves (each gate's LWE keyswitch does).
    pub fn split_groups(&self) -> u64 {
        self.split_groups
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
