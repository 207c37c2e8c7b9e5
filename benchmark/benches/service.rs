//! The three `svc_*` workloads: a seeded request stream through
//! `ServiceCore`, paced on the service's own tick clock.
//!
//! The stream comes from `trinity::workloads::traffic`: a fixed arrival
//! schedule filled with seeded contents (see [`seeded_stream`]).

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity::ckks::{
    Ciphertext, CkksContext, CkksParams, Decryptor, Encoder, Encryptor, Evaluator, KeyGenerator,
    SecretKey, SwitchingKey,
};
use trinity::math::galois::rotation_galois_element;
use trinity::math::kernel;
use trinity::service::{
    AuditEvent, Lane, RequestId, Response, ServiceConfig, ServiceCore, Workload as Job,
};
use trinity::tfhe::{
    ClientKey, GateOp, LweCiphertext, MulBackend, ServerKey, TfheContext, TfheParams,
};
use trinity::workloads::traffic::stream_with_deadlines;
use trinity::workloads::{RequestKind, TrafficEvent, TrafficMix};

use crate::harness::{
    checksum, ct_checksum, median, ms, percentile, us, Metrics, RepOut, Workload, KEY_SEED,
    ROTATION_STEPS,
};
use crate::probes;
use crate::span::Tracer;

/// CKKS tenants sharing one context; the TFHE tenant is tenant 0 and
/// CKKS tenant `t` is service tenant `t + 1`.
const CKKS_TENANTS: usize = 3;
/// A decoded rotation may differ from the rotated plaintext by this.
const SLOT_TOLERANCE: f64 = 1e-3;

pub struct SvcSpec {
    /// Requests in the stream.
    pub len: usize,
    pub mix: TrafficMix,
    /// Arrival ticks per allowed dispatch: the stream needs about 1.6
    /// dispatches per arrival tick at width 1, so 4 oversubscribes the
    /// service and backlogs build. 0 drains it before every arrival.
    pub pace: u64,
    pub deadlines: RangeInclusive<u64>,
    /// The request class `job_p50_ms` is taken over; `None` for all.
    pub headline: Option<Lane>,
}

pub fn spec(workload: &str) -> SvcSpec {
    match workload {
        "svc_mixed" => SvcSpec {
            len: 30,
            mix: TrafficMix::default_mix(),
            pace: 4,
            deadlines: 4..=16,
            headline: Some(Lane::Interactive),
        },
        "svc_light" => SvcSpec {
            len: 30,
            mix: TrafficMix::default_mix(),
            pace: 0,
            deadlines: 4..=16,
            headline: Some(Lane::Interactive),
        },
        "svc_rotations" => SvcSpec {
            len: 200,
            mix: TrafficMix {
                gate_permille: 0,
                timed_permille: 400,
                bulk_permille: 600,
            },
            pace: 4,
            deadlines: 3..=60,
            headline: None,
        },
        other => panic!("not a service workload: {other}"),
    }
}

/// The arrival schedule (which class of request arrives at which
/// tick, and how long each scan is) is part of the workload, like the
/// keys: it is `traffic::stream` at this fixed seed.
const SCHEDULE_SEED: u64 = 0;

/// The workload's request stream: the fixed schedule, filled with the
/// contents `traffic::stream` draws at `seed` - gate type and operand
/// bits, rotation steps, deadlines and tenants, each class's in order.
///
/// A backlogged queue amplifies any change of schedule: with a
/// schedule per seed the median gate latency of `svc_mixed` ranged
/// 231-694 ms over ten seeds and would bury every code change. The
/// contents still decide what a later change can exploit or break:
/// which rotations share a Galois element and coalesce, the EDF order,
/// whose keys a dispatch touches.
fn seeded_stream(seed: u64, spec: &SvcSpec) -> Vec<TrafficEvent> {
    let draw = |seed, len| {
        stream_with_deadlines(seed, CKKS_TENANTS, len, spec.mix, spec.deadlines.clone())
    };
    // Eight times the schedule's length: every class has enough.
    let contents = draw(seed, spec.len * 8);
    let mut tenants = contents.iter().map(|e| e.tenant);
    let mut gates = contents
        .iter()
        .filter(|e| matches!(e.kind, RequestKind::Gate { .. }));
    let mut timed = contents
        .iter()
        .filter(|e| matches!(e.kind, RequestKind::TimedRotation { .. }));
    let mut steps = contents
        .iter()
        .filter_map(|e| match &e.kind {
            RequestKind::BulkRotations { steps } => Some(steps),
            _ => None,
        })
        .flatten()
        .copied();
    draw(SCHEDULE_SEED, spec.len)
        .into_iter()
        .map(|slot| {
            let kind = match slot.kind {
                RequestKind::Gate { .. } => gates.next().expect("enough gates").kind.clone(),
                RequestKind::TimedRotation { .. } => {
                    timed.next().expect("enough timed rotations").kind.clone()
                }
                RequestKind::BulkRotations { steps: scan } => RequestKind::BulkRotations {
                    steps: steps.by_ref().take(scan.len()).collect(),
                },
            };
            TrafficEvent {
                arrival: slot.arrival,
                tenant: tenants.next().expect("enough tenants"),
                kind,
            }
        })
        .collect()
}

enum Work {
    Gate {
        op: GateOp,
        a: LweCiphertext,
        b: LweCiphertext,
        expect: bool,
    },
    Rotations {
        tenant: usize,
        steps: Vec<i64>,
        /// `Some` for a timed rotation, `None` for a bulk scan.
        deadline: Option<u64>,
    },
}

struct Request {
    arrival: u64,
    work: Work,
}

impl Request {
    fn lane(&self) -> Lane {
        match &self.work {
            Work::Gate { .. } => Lane::Interactive,
            Work::Rotations {
                deadline: Some(_), ..
            } => Lane::Timed,
            Work::Rotations { deadline: None, .. } => Lane::Bulk,
        }
    }

    fn jobs(&self) -> u64 {
        match &self.work {
            Work::Gate { .. } => 1,
            Work::Rotations { steps, .. } => steps.len() as u64,
        }
    }
}

struct CkksTenant {
    sk: SecretKey,
    galois: HashMap<i64, SwitchingKey>,
    input: Ciphertext,
    values: Vec<f64>,
}

pub struct Svc {
    spec: SvcSpec,
    tfhe: Option<(ClientKey, ServerKey)>,
    ctx: Arc<CkksContext>,
    eval: Evaluator,
    encoder: Encoder,
    decryptor: Decryptor,
    tenants: Vec<CkksTenant>,
    requests: Vec<Request>,
    gen: Duration,
    /// Observations of the latest repetition, for `layers`.
    last: RefCell<Run>,
    /// Per request, the checksum of a CKKS result that decrypted to
    /// the right plaintext.
    decrypted: RefCell<Vec<Option<u64>>>,
}

fn clone_server(s: &ServerKey) -> ServerKey {
    ServerKey {
        ctx: s.ctx.clone(),
        bsk: s.bsk.clone(),
        ksk: s.ksk.clone(),
        backend: s.backend,
    }
}

impl Svc {
    /// Key generation, contexts, the request stream with its encrypted
    /// inputs, and one warm-up operation per kind of work.
    pub fn setup(workload: &str, seed: u64) -> Svc {
        let spec = spec(workload);
        let mut rng = StdRng::seed_from_u64(KEY_SEED);
        let tfhe = (spec.mix.gate_permille > 0).then(|| {
            let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
            let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
            (ck, server)
        });

        let ctx = CkksContext::new(CkksParams::test_params());
        let encoder = Encoder::new(ctx.clone());
        let encryptor = Encryptor::new(ctx.clone());
        let tenants: Vec<CkksTenant> = (0..CKKS_TENANTS)
            .map(|t| {
                let kg = KeyGenerator::new(ctx.clone());
                let sk = kg.secret_key(&mut rng);
                let galois = ROTATION_STEPS
                    .iter()
                    .map(|&r| {
                        let g = rotation_galois_element(r, ctx.n());
                        (r, kg.galois_key(&sk, g, &mut rng))
                    })
                    .collect();
                let values: Vec<f64> = (0..encoder.slots())
                    .map(|i| ((i * 37 + t * 11) % 101) as f64 / 101.0 - 0.5)
                    .collect();
                let pt = encoder.encode_real(&values, ctx.params().max_level());
                let input = encryptor.encrypt_sk(&pt, &sk, &mut rng);
                CkksTenant {
                    sk,
                    galois,
                    input,
                    values,
                }
            })
            .collect();

        let t = Instant::now();
        let events = seeded_stream(seed, &spec);
        let gen = t.elapsed();
        let requests: Vec<Request> = events
            .into_iter()
            .map(|ev| {
                let work = match ev.kind {
                    RequestKind::Gate { gate, a, b } => {
                        let (ck, _) = tfhe.as_ref().expect("gates need the TFHE tenant");
                        let op = GateOp::ALL[gate % GateOp::ALL.len()];
                        Work::Gate {
                            op,
                            a: ck.encrypt_bit(a, &mut rng),
                            b: ck.encrypt_bit(b, &mut rng),
                            expect: op.eval(a, b),
                        }
                    }
                    RequestKind::TimedRotation { step, deadline } => Work::Rotations {
                        tenant: ev.tenant % CKKS_TENANTS,
                        steps: vec![step],
                        deadline: Some(deadline),
                    },
                    RequestKind::BulkRotations { steps } => Work::Rotations {
                        tenant: ev.tenant % CKKS_TENANTS,
                        steps,
                        deadline: None,
                    },
                };
                Request {
                    arrival: ev.arrival,
                    work,
                }
            })
            .collect();

        let svc = Svc {
            eval: Evaluator::new(ctx.clone()),
            decryptor: Decryptor::new(ctx.clone()),
            spec,
            tfhe,
            ctx,
            encoder,
            tenants,
            gen,
            last: RefCell::default(),
            decrypted: RefCell::new(vec![None; requests.len()]),
            requests,
        };
        svc.warm_up();
        svc
    }

    fn warm_up(&self) {
        if let Some(Work::Gate { op, a, b, .. }) = self
            .requests
            .iter()
            .map(|r| &r.work)
            .find(|w| matches!(w, Work::Gate { .. }))
        {
            let (_, server) = self.tfhe.as_ref().expect("gates need the TFHE tenant");
            std::hint::black_box(server.apply_gate(*op, a, b));
        }
        for t in &self.tenants {
            std::hint::black_box(self.eval.rotate(&t.input, 1, &t.galois[&1]));
        }
    }

    fn job_for(&self, work: &Work) -> (usize, Job) {
        match work {
            Work::Gate { op, a, b, .. } => (
                0,
                Job::Gate {
                    op: *op,
                    a: a.clone(),
                    b: b.clone(),
                },
            ),
            Work::Rotations {
                tenant,
                steps,
                deadline,
            } => {
                let ct = self.tenants[*tenant].input.clone();
                let job = match deadline {
                    Some(deadline) => Job::Rotation {
                        ct,
                        step: steps[0],
                        deadline: *deadline,
                    },
                    None => Job::Analytics {
                        ct,
                        steps: steps.clone(),
                    },
                };
                (tenant + 1, job)
            }
        }
    }

    /// Checks the response to request `idx` against the plaintext
    /// computation and returns the checksum of its bits, or `None` when
    /// it is wrong. Decrypting and decoding a CKKS result costs more
    /// than the rotation that made it, so a result whose bits equal
    /// those of an earlier, decrypted result of the same request is
    /// taken as checked.
    fn verify(&self, idx: usize, response: Option<Response>) -> Option<u64> {
        match (&self.requests[idx].work, response?) {
            (Work::Gate { expect, .. }, Response::Bit(ct)) => {
                let (ck, _) = self.tfhe.as_ref()?;
                (ck.decrypt_bit(&ct) == *expect).then(|| lwe_checksum(&ct))
            }
            (Work::Rotations { tenant, steps, .. }, Response::Vector(ct)) => {
                let sum = ct_checksum(&ct);
                if self.decrypted.borrow()[idx] == Some(sum) {
                    return Some(sum);
                }
                let ok = self.rotation_ok(*tenant, steps, &ct);
                if ok {
                    self.decrypted.borrow_mut()[idx] = Some(sum);
                }
                ok.then_some(sum)
            }
            _ => None,
        }
    }

    fn rotation_ok(&self, tenant: usize, steps: &[i64], ct: &Ciphertext) -> bool {
        let t = &self.tenants[tenant];
        let slots = t.values.len() as i64;
        let shift = steps.iter().sum::<i64>().rem_euclid(slots) as usize;
        let got = self.decryptor.decrypt(ct, &t.sk, &self.encoder);
        got.iter().enumerate().all(|(i, z)| {
            let want = t.values[(i + shift) % t.values.len()];
            (z.re - want).abs() < SLOT_TOLERANCE && z.im.abs() < SLOT_TOLERANCE
        })
    }

    /// The same requests one by one through the library, without the
    /// service: the bit-identity oracle and the batching baseline.
    fn isolated(&self) -> (Duration, Vec<u64>) {
        let mut wall = Duration::ZERO;
        let checks = self
            .requests
            .iter()
            .map(|req| match &req.work {
                Work::Gate { op, a, b, .. } => {
                    let (_, server) = self.tfhe.as_ref().expect("gates need the TFHE tenant");
                    let t = Instant::now();
                    let out = server.apply_gate(*op, a, b);
                    wall += t.elapsed();
                    lwe_checksum(&out)
                }
                Work::Rotations { tenant, steps, .. } => {
                    let tenant = &self.tenants[*tenant];
                    let mut ct = tenant.input.clone();
                    let t = Instant::now();
                    for step in steps {
                        ct = self.eval.rotate(&ct, *step, &tenant.galois[step]);
                    }
                    wall += t.elapsed();
                    ct_checksum(&ct)
                }
            })
            .collect();
        (wall, checks)
    }

    fn run(&self, max_in_flight: usize, tracer: &mut Tracer) -> (RepOut, Run) {
        let cfg = ServiceConfig {
            key_cache_bytes: 1 << 30,
            max_in_flight,
            ..ServiceConfig::default_config()
        };
        let mut svc = ServiceCore::new(cfg).expect("default budgets are valid");
        if let Some((_, server)) = &self.tfhe {
            svc.register_tfhe_tenant(0, clone_server(server))
                .expect("1 GiB cache holds the TFHE keys");
        }
        for (t, tenant) in self.tenants.iter().enumerate() {
            svc.register_ckks_tenant(t + 1, self.ctx.clone(), tenant.galois.clone())
                .expect("1 GiB cache holds the CKKS keys");
        }

        let mut state = Loop {
            svc,
            seen: 0,
            collected: 0,
            submitted: HashMap::new(),
            out: RepOut {
                checks: vec![0; self.requests.len()],
                ..RepOut::default()
            },
            run: Run::default(),
        };
        let phase = Instant::now();
        for (idx, req) in self.requests.iter().enumerate() {
            while state.svc.tick() * self.spec.pace < req.arrival && state.dispatch(self, tracer) {}
            let ((tenant, job), d) =
                tracer.span("client", Some(idx as u64), |_| self.job_for(&req.work));
            state.out.excluded += d;
            let first_call = state.out.calls.len();
            let (admitted, d) = tracer.span("submit", Some(idx as u64), |_| {
                state.svc.submit(tenant, job)
            });
            state.out.calls.push(d);
            state.run.submit_us.push(us(d));
            state.out.attempted += 1;
            match admitted {
                Ok(id) => {
                    state.submitted.insert(id.raw(), (id, idx, first_call));
                }
                Err(_) => state.out.failed += 1,
            }
        }
        while state.dispatch(self, tracer) {}
        state.drain(self, tracer);
        state.out.phase = phase.elapsed();
        state.out.failed += (state.submitted.len() - state.collected) as u64;

        let (jsonl, d) = tracer.span("audit_render", None, |_| state.svc.audit().to_jsonl());
        state.run.audit_render = d;
        state.run.key_cache_bytes = state.svc.key_cache().used_bytes();
        state.run.ticks = state.svc.tick();
        state
            .run
            .read_audit(&state.svc, &self.requests, &state.submitted);
        state.run.audit_bytes = jsonl.len();
        state.out.fingerprint = checksum(jsonl.as_str());
        (state.out, state.run)
    }
}

fn lwe_checksum(ct: &LweCiphertext) -> u64 {
    checksum(&(&ct.a, ct.b))
}

type Submitted = (RequestId, usize, usize);

/// The driver loop's state for one repetition.
struct Loop {
    svc: ServiceCore,
    /// Audit events already read.
    seen: usize,
    /// Requests whose result has been taken.
    collected: usize,
    /// Audit request id -> (handle, index into the workload's requests,
    /// index of its submit call).
    submitted: HashMap<u64, Submitted>,
    /// `out.calls` is the measured clock: a latency is the sum of the
    /// calls from a request's submit to its hand-over, so the time the
    /// driver spends encrypting and verifying is in nobody's latency.
    out: RepOut,
    run: Run,
}

impl Loop {
    /// One `dispatch_next()`, then collects and verifies what it
    /// completed. False when the service had nothing to do.
    fn dispatch(&mut self, w: &Svc, tracer: &mut Tracer) -> bool {
        let (lane, d) = tracer.span("dispatch", None, |_| self.svc.dispatch_next());
        let Some(lane) = lane else {
            return false;
        };
        self.run.dispatch_ms[lane.index()].push(ms(d));
        self.collect(d, w, tracer);
        true
    }

    /// Retires what is still in flight once the lanes are empty (only
    /// with `max_in_flight` above 1 is there anything).
    fn drain(&mut self, w: &Svc, tracer: &mut Tracer) {
        let ((), d) = tracer.span("dispatch", None, |_| self.svc.run_until_idle());
        self.collect(d, w, tracer);
    }

    /// Books a measured call of duration `d`, then takes and verifies
    /// the results of the requests it completed.
    fn collect(&mut self, d: Duration, w: &Svc, tracer: &mut Tracer) {
        self.out.calls.push(d);
        let done: Vec<u64> = self
            .svc
            .audit()
            .events()
            .skip(self.seen)
            .filter_map(|ev| match ev {
                AuditEvent::Complete { request, .. } => Some(*request),
                _ => None,
            })
            .collect();
        self.seen = self.svc.audit().len();
        for request in done {
            let (id, idx, first_call) = self.submitted[&request];
            self.collected += 1;
            let req = &w.requests[idx];
            // With a deferred-execution window the audit completes a
            // request when its last group is formed; taking the result
            // is what waits for the group to run, so it is measured.
            let (response, d) = tracer.span("take", Some(idx as u64), |_| self.svc.take_result(id));
            self.out.calls.push(d);
            let latency: Duration = self.out.calls[first_call..].iter().sum();
            self.run.lat_ms[req.lane().index()].push(ms(latency));
            if w.spec.headline.is_none_or(|lane| lane == req.lane()) {
                self.out
                    .headline
                    .push((first_call, self.out.calls.len() - 1));
            }
            let (check, d) = tracer.span("verify", Some(idx as u64), |_| w.verify(idx, response));
            self.out.excluded += d;
            match check {
                Some(sum) => {
                    self.out.checks[idx] = sum;
                    self.out.jobs += req.jobs();
                }
                None => self.out.failed += 1,
            }
        }
    }
}

/// Per-lane and audit-derived observations of one repetition.
#[derive(Default)]
struct Run {
    submit_us: Vec<f64>,
    dispatch_ms: [Vec<f64>; 3],
    lat_ms: [Vec<f64>; 3],
    widths: [Vec<f64>; 3],
    wait_ticks: [Vec<f64>; 3],
    timed_sent: u64,
    timed_missed: u64,
    dispatches: u64,
    coalesced: u64,
    starvations: u64,
    rejected: u64,
    max_pending: usize,
    ticks: u64,
    audit_bytes: usize,
    audit_render: Duration,
    key_cache_bytes: usize,
}

impl Run {
    fn read_audit(
        &mut self,
        svc: &ServiceCore,
        requests: &[Request],
        submitted: &HashMap<u64, Submitted>,
    ) {
        let mut admitted: HashMap<u64, (u64, Lane)> = HashMap::new();
        for ev in svc.audit().events() {
            match ev {
                AuditEvent::Admit {
                    tick,
                    request,
                    lane,
                    ..
                } => {
                    admitted.insert(*request, (*tick, *lane));
                }
                AuditEvent::Reject { .. } => self.rejected += 1,
                AuditEvent::Dispatch {
                    lane,
                    jobs,
                    pending,
                    ..
                } => {
                    self.dispatches += 1;
                    self.coalesced += u64::from(*jobs >= 2);
                    self.widths[lane.index()].push(*jobs as f64);
                    self.max_pending = self.max_pending.max(pending.iter().sum());
                }
                AuditEvent::Complete { tick, request, .. } => {
                    let (admit, lane) = admitted[request];
                    let waited = tick - admit;
                    self.wait_ticks[lane.index()].push(waited as f64);
                    if let Work::Rotations {
                        deadline: Some(deadline),
                        ..
                    } = &requests[submitted[request].1].work
                    {
                        self.timed_missed += u64::from(waited > *deadline);
                    }
                }
                AuditEvent::Starvation { .. } => self.starvations += 1,
                AuditEvent::Meta { .. } => {}
            }
        }
        self.timed_sent = requests.iter().filter(|r| r.lane() == Lane::Timed).count() as u64;
    }
}

impl Workload for Svc {
    fn rep(&self, tracer: &mut Tracer) -> RepOut {
        let (out, run) = self.run(1, tracer);
        *self.last.borrow_mut() = run;
        out
    }

    fn excluded_spans(&self) -> &'static [&'static str] {
        &["client", "verify", "audit_render"]
    }

    fn layers(
        &self,
        traced: &Tracer,
        untraced_wall: Duration,
        checks: &[u64],
        out: &mut Metrics,
    ) -> bool {
        // `last` is the traced repetition: its counts are a function
        // of the stream alone, its timings carry the tracing overhead.
        let run = self.last.take();
        out.set("service.submit_us", median(&run.submit_us));
        for lane in Lane::ALL {
            let i = lane.index();
            for (metric, value) in [
                ("dispatch_ms", median(&run.dispatch_ms[i])),
                ("lat_p50_ms", percentile(&run.lat_ms[i], 0.5)),
                ("lat_p90_ms", percentile(&run.lat_ms[i], 0.9)),
                ("lat_samples", run.lat_ms[i].len() as f64),
                ("width_mean", mean(&run.widths[i])),
                ("wait_ticks_p90", percentile(&run.wait_ticks[i], 0.9)),
            ] {
                out.set(format!("service.{metric}.{}", lane.name()), value);
            }
        }
        out.set(
            "service.timed_miss_share",
            run.timed_missed as f64 / (run.timed_sent as f64).max(1.0),
        );
        out.set("service.dispatches", run.dispatches as f64);
        out.set("service.ticks", run.ticks as f64);
        out.set(
            "service.coalesced_share",
            run.coalesced as f64 / (run.dispatches as f64).max(1.0),
        );
        out.set("service.starvations", run.starvations as f64);
        out.set("service.rejected", run.rejected as f64);
        out.set("service.max_pending", run.max_pending as f64);
        out.set("service.audit_bytes", run.audit_bytes as f64);
        out.set("service.audit_render_ms", ms(run.audit_render));
        out.set(
            "service.key_cache_mb",
            run.key_cache_bytes as f64 / (1u64 << 20) as f64,
        );
        out.set("traffic.gen_ms", ms(self.gen));
        out.set("traffic.events", self.requests.len() as f64);

        // From the traced spans: the share of dispatch time that is not
        // kernel time (service decisions plus the libraries' own
        // allocation and gather work), and the share of the wall spent
        // in admission and result hand-over, which reach no kernel.
        let sum_ns = |name| traced.durations_ms(name).iter().sum::<f64>() * 1e6;
        let dispatch_ns = sum_ns("dispatch");
        let admission_ns = sum_ns("submit") + sum_ns("take");
        let in_dispatch = traced.kernels_under("dispatch").busy_ns() as f64;
        out.set("service.overhead_share", 1.0 - in_dispatch / dispatch_ns);
        out.set(
            "service.self_share",
            admission_ns / (dispatch_ns + admission_ns),
        );

        // Twice, keeping the faster: the replay is compared with a
        // wall that was folded over two repetitions.
        let (isolated, oracle) = [self.isolated(), self.isolated()]
            .into_iter()
            .min_by_key(|(wall, _)| *wall)
            .expect("two replays");
        let wall = untraced_wall.as_secs_f64();
        out.set("service.speedup_vs_isolated", isolated.as_secs_f64() / wall);

        // Informational re-measurements, one extra repetition each, on
        // the workload each configuration is meant for.
        let quiet = &mut Tracer::new(false);
        if self.tfhe.is_some() && self.spec.pace > 0 {
            let (two, _) = self.run(2, quiet);
            out.set("service.inflight2_speedup", wall / two.wall().as_secs_f64());
        }
        if self.tfhe.is_none() {
            let lanes = kernel::active();
            kernel::force(kernel::threaded(None));
            let (threaded, _) = self.run(1, quiet);
            kernel::force(lanes);
            out.set(
                "math.threaded_speedup",
                wall / threaded.wall().as_secs_f64(),
            );
        }

        probes::ckks(&self.ctx, &self.tenants[0].sk, out);
        if let Some((ck, server)) = &self.tfhe {
            probes::tfhe(ck, server, out);
        }
        oracle == checks
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}
