//! End-to-end service suite: mixed tenants through the queue.
//!
//! The acceptance contract for the serving layer, in four parts:
//!
//! 1. **Bit-identity.** A mixed TFHE + CKKS tenant stream scheduled,
//!    coalesced, batched and executed by [`ServiceCore`] produces
//!    ciphertexts bit-identical to evaluating each tenant's requests
//!    in isolation, sequentially — under the `scalar` *and* `lanes`
//!    kernel backends (swapped in-process with `kernel::force`, which
//!    is test-only by lint rule). Coalescing
//!    and QoS must be invisible in the bits, and the audit bytes must
//!    not depend on the backend.
//! 2. **Coalescing.** The JSONL audit shows keyswitch dispatches that
//!    carried at least two independent requests each, and every
//!    completion correlates to the dispatch group that produced it.
//! 3. **Budgets.** Over the audited prefix where every lane was
//!    backlogged, each lane's dispatch share holds its configured
//!    minimum (within the enforcement window's quantisation).
//! 4. **Starvation + admission.** A starved lane is force-served and
//!    audited within the threshold; saturated queues/caches, uncovered
//!    keys and malformed ciphertexts are rejected at the door with
//!    audited reasons.
//!
//! EDF ordering has `scheduler_props.rs`.

mod common;

use std::collections::HashMap;

use common::backends::under_each_backend;
use common::{ckks_tenant, mixed_cfg, parse_completes, parse_dispatches, run_mixed_scenario};
use fhe_ckks::{CkksContext, CkksParams, Evaluator, SwitchingKey};
use fhe_math::{Representation, RnsPoly};
use fhe_tfhe::{ClientKey, GateOp, MulBackend, ServerKey, TfheContext, TfheParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity_service::{
    AdmissionError, AuditEvent, Lane, LaneBudgets, PickCause, Response, ServiceConfig, ServiceCore,
    StarvationPolicy, Workload,
};

#[test]
fn mixed_tenants_bit_identical_across_backends_and_coalesced() {
    let runs = under_each_backend(|| run_mixed_scenario(mixed_cfg()));

    // The audit must show real cross-request coalescing: at least one
    // keyswitch dispatch carrying >= 2 requests, and at least one gate
    // dispatch batching >= 2 blind rotations.
    let (_, base) = &runs[0];
    let dispatches = parse_dispatches(&base.jsonl);
    let widest = dispatches
        .iter()
        .filter(|d| d.lane != "interactive")
        .map(|d| d.jobs)
        .max()
        .unwrap();
    assert!(
        widest >= 2,
        "no coalesced dispatch carried >= 2 requests: {dispatches:?}"
    );
    let widest_gates = dispatches
        .iter()
        .filter(|d| d.lane == "interactive")
        .map(|d| d.jobs)
        .max()
        .unwrap();
    assert!(
        widest_gates >= 2,
        "no batched gate dispatch carried >= 2 requests: {dispatches:?}"
    );
    // Every line is schema-versioned JSONL.
    assert!(base
        .jsonl
        .lines()
        .all(|l| l.starts_with("{\"schema_version\":3,") && l.ends_with('}')));

    // Canonical completion order: within one dispatch group,
    // completions are audited in ascending request id.
    let completes = parse_completes(&base.jsonl);
    for pair in completes.windows(2) {
        let ((_, g0, r0), (_, g1, r1)) = (pair[0], pair[1]);
        assert!(
            g0 != g1 || r0 < r1,
            "group {g0} completions out of canonical order: {r0} before {r1}"
        );
    }
    // Every completion's group correlates to a dispatched group wide
    // enough to have produced it. Gate groups retire every job they
    // carry; rotation groups may retire fewer (a chained job's
    // intermediate steps complete nothing — the result feeds its next
    // dispatch).
    for d in &dispatches {
        let retired = completes.iter().filter(|&&(_, g, _)| g == d.group).count();
        assert!(
            retired <= d.jobs,
            "group {} dispatched {} jobs but retired {retired}",
            d.group,
            d.jobs
        );
        if d.lane == "interactive" {
            assert_eq!(retired, d.jobs, "gate group {} retired short", d.group);
        }
    }

    // Backend choice must be unobservable: identical ciphertext bits
    // AND identical scheduling decisions.
    for (name, run) in &runs[1..] {
        assert_eq!(run.flats, base.flats, "{name} diverged from {}", runs[0].0);
        assert_eq!(run.jsonl, base.jsonl, "{name} scheduled differently");
    }
}

/// Every dispatch group runs in the tick that forms it: each request a
/// `dispatch_next` call audits as complete is collectable the moment
/// that call returns, chained scans included. `max_in_flight` is inert:
/// a run that sets it audits byte for byte what the default run does,
/// meta line included.
#[test]
fn results_are_ready_when_dispatch_returns() {
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let tenants: Vec<_> = (0..2)
        .map(|t| ckks_tenant(&ctx, 980 + t, &[1, 2]))
        .collect();
    let run = |cfg: ServiceConfig| {
        let mut svc = ServiceCore::new(cfg).unwrap();
        for (t, tenant) in tenants.iter().enumerate() {
            svc.register_ckks_tenant(t, ctx.clone(), tenant.galois.clone())
                .unwrap();
        }
        // Timed rotations due against admission order, interleaved
        // with two-step Analytics chains.
        let mut ids = HashMap::new();
        for i in 0..8u64 {
            let t = (i % 2) as usize;
            let ct = tenants[t].input.clone();
            let work = if i % 4 < 2 {
                Workload::Rotation {
                    ct,
                    step: 1 + (i % 2) as i64,
                    deadline: 12 - i,
                }
            } else {
                Workload::Analytics {
                    ct,
                    steps: vec![1, 2],
                }
            };
            let id = svc.submit(t, work).unwrap();
            ids.insert(id.raw(), id);
        }
        let mut seen = svc.audit().len();
        while svc.dispatch_next().is_some() {
            let done: Vec<u64> = svc
                .audit()
                .events()
                .skip(seen)
                .filter_map(|e| match e {
                    AuditEvent::Complete { request, .. } => Some(*request),
                    _ => None,
                })
                .collect();
            seen = svc.audit().len();
            for r in done {
                let id = ids.remove(&r).expect("a request completes once");
                assert!(
                    svc.take_result(id).is_some(),
                    "request {r} audited complete but its result is not ready"
                );
            }
        }
        assert!(ids.is_empty(), "never completed: {:?}", ids.keys());
        svc.audit().to_jsonl()
    };
    let inert = run(ServiceConfig {
        max_in_flight: 4,
        ..ServiceConfig::default_config()
    });
    assert_eq!(inert, run(ServiceConfig::default_config()));
}

#[test]
fn lane_budgets_hold_over_the_backlogged_prefix() {
    // max_batch = 1 isolates the scheduler: every dispatch serves
    // exactly one request, so audited shares are pick shares.
    let cfg = ServiceConfig {
        max_batch: 1,
        ..ServiceConfig::default_config()
    };
    let mut svc = ServiceCore::new(cfg).unwrap();

    let mut trng = StdRng::seed_from_u64(902);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut trng);
    let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut trng);
    svc.register_tfhe_tenant(0, server).unwrap();
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let tenant = ckks_tenant(&ctx, 920, &[1, 2]);
    svc.register_ckks_tenant(1, ctx.clone(), tenant.galois.clone())
        .unwrap();

    // Backlog: 8 interactive, 20 timed, 30 bulk — enough that all
    // three lanes stay non-empty for ~40 dispatches at 20/30/50.
    for i in 0..8 {
        let a = ck.encrypt_bit(i % 2 == 0, &mut trng);
        let b = ck.encrypt_bit(i % 3 == 0, &mut trng);
        svc.submit(
            0,
            Workload::Gate {
                op: GateOp::Xor,
                a,
                b,
            },
        )
        .unwrap();
    }
    for i in 0..20 {
        svc.submit(
            1,
            Workload::Rotation {
                ct: tenant.input.clone(),
                step: 1 + (i % 2),
                deadline: 100,
            },
        )
        .unwrap();
    }
    for i in 0..30 {
        svc.submit(
            1,
            Workload::Analytics {
                ct: tenant.input.clone(),
                steps: vec![1 + (i % 2)],
            },
        )
        .unwrap();
    }
    svc.run_until_idle();

    let jsonl = svc.audit().to_jsonl();
    // The on-disk rendering is byte-for-byte the in-memory one.
    let path = std::env::temp_dir().join("trinity_service_e2e_audit.jsonl");
    svc.audit().write_jsonl(&path).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), jsonl);
    let _ = std::fs::remove_file(&path);
    let dispatches = parse_dispatches(&jsonl);
    assert!(dispatches.iter().all(|d| d.jobs == 1));
    // The enforcement claim applies while every lane is backlogged.
    let prefix: Vec<_> = dispatches
        .iter()
        .take_while(|d| d.pending.iter().all(|&p| p > 0))
        .collect();
    assert!(
        prefix.len() >= 20,
        "backlogged prefix too short to measure: {}",
        prefix.len()
    );
    let budgets = LaneBudgets::default_split();
    for lane in Lane::ALL {
        let count = prefix.iter().filter(|d| d.lane == lane.name()).count();
        let share = count * 100 / prefix.len();
        let min = budgets.min_for(lane) as usize;
        // One window slot (100/20 = 5%) of quantisation slack, plus
        // the enforcement lag of the first window.
        assert!(
            share + 10 >= min,
            "{} got {share}% < {min}% over the backlogged prefix (audit:\n{jsonl})",
            lane.name()
        );
    }
}

#[test]
fn starved_lane_is_force_served_and_audited() {
    // All-slack budgets: priority alone would serve gates forever.
    let cfg = ServiceConfig {
        budgets: LaneBudgets {
            interactive_min: 0,
            timed_min: 0,
            bulk_min: 0,
        },
        starvation: StarvationPolicy { max_wait_ticks: 3 },
        max_batch: 1,
        ..ServiceConfig::default_config()
    };
    let mut svc = ServiceCore::new(cfg).unwrap();

    let mut trng = StdRng::seed_from_u64(903);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut trng);
    let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut trng);
    svc.register_tfhe_tenant(0, server).unwrap();
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let tenant = ckks_tenant(&ctx, 930, &[1]);
    svc.register_ckks_tenant(1, ctx.clone(), tenant.galois.clone())
        .unwrap();

    for i in 0..6 {
        let a = ck.encrypt_bit(i % 2 == 0, &mut trng);
        let b = ck.encrypt_bit(true, &mut trng);
        svc.submit(
            0,
            Workload::Gate {
                op: GateOp::And,
                a,
                b,
            },
        )
        .unwrap();
    }
    let bulk = svc
        .submit(
            1,
            Workload::Analytics {
                ct: tenant.input.clone(),
                steps: vec![1],
            },
        )
        .unwrap();
    svc.run_until_idle();
    assert!(svc.take_result(bulk).is_some());

    // The starvation event fired for bulk within threshold + 1 ticks,
    // and the matching dispatch is cause-tagged.
    let starvations: Vec<_> = svc
        .audit()
        .events()
        .filter_map(|e| match e {
            AuditEvent::Starvation { lane, waited, tick } => Some((*lane, *waited, *tick)),
            _ => None,
        })
        .collect();
    assert_eq!(starvations.len(), 1, "{starvations:?}");
    let (lane, waited, tick) = starvations[0];
    assert_eq!(lane, Lane::Bulk);
    assert_eq!(waited, 4, "starved exactly one past the threshold");
    assert_eq!(tick, 4, "force-served at the first over-threshold tick");
    assert!(svc.audit().events().any(|e| matches!(
        e,
        AuditEvent::Dispatch {
            lane: Lane::Bulk,
            cause: PickCause::Starvation,
            ..
        }
    )));
}

#[test]
fn admission_control_rejects_and_audits_saturation() {
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let tenant = ckks_tenant(&ctx, 940, &[1]);

    // Queue saturation.
    let cfg = ServiceConfig {
        queue_capacity: 2,
        ..ServiceConfig::default_config()
    };
    let mut svc = ServiceCore::new(cfg).unwrap();
    svc.register_ckks_tenant(1, ctx.clone(), tenant.galois.clone())
        .unwrap();
    let rot = |svc: &mut ServiceCore, step: i64| {
        svc.submit(
            1,
            Workload::Rotation {
                ct: tenant.input.clone(),
                step,
                deadline: 10,
            },
        )
    };
    rot(&mut svc, 1).unwrap();
    rot(&mut svc, 1).unwrap();
    assert_eq!(
        rot(&mut svc, 1).unwrap_err(),
        AdmissionError::QueueSaturated
    );
    // Uncovered step and unknown tenant are refused too.
    assert_eq!(
        rot(&mut svc, 1).map(|_| ()).unwrap_err(),
        AdmissionError::QueueSaturated
    );
    svc.run_until_idle();
    assert_eq!(
        rot(&mut svc, 3).unwrap_err(),
        AdmissionError::MissingGaloisKey { step: 3 }
    );
    assert_eq!(
        svc.submit(
            9,
            Workload::Analytics {
                ct: tenant.input.clone(),
                steps: vec![1],
            },
        )
        .unwrap_err(),
        AdmissionError::UnknownTenant
    );
    // A zero-step scan has nothing to dispatch: refused at the door
    // rather than crashing the dispatcher.
    assert_eq!(
        svc.submit(
            1,
            Workload::Analytics {
                ct: tenant.input.clone(),
                steps: vec![],
            },
        )
        .unwrap_err(),
        AdmissionError::EmptyWorkload
    );
    let jsonl = svc.audit().to_jsonl();
    assert!(jsonl.contains("\"reason\":\"queue_saturated\""));
    assert!(jsonl.contains("\"reason\":\"missing_galois_key\""));
    assert!(jsonl.contains("\"reason\":\"unknown_tenant\""));
    assert!(jsonl.contains("\"reason\":\"empty_workload\""));

    // Key-cache saturation: a budget fitting one tenant refuses a
    // second while the first is pinned by queued work.
    let one = tenant
        .galois
        .values()
        .map(SwitchingKey::key_bytes)
        .sum::<usize>();
    let cfg = ServiceConfig {
        key_cache_bytes: one,
        ..ServiceConfig::default_config()
    };
    let mut svc = ServiceCore::new(cfg).unwrap();
    svc.register_ckks_tenant(1, ctx.clone(), tenant.galois.clone())
        .unwrap();
    rot(&mut svc, 1).unwrap();
    // The queued job pins tenant 1's session: re-registering now would
    // swap the keys the admitted job was validated against.
    assert_eq!(
        svc.register_ckks_tenant(1, ctx.clone(), tenant.galois.clone())
            .unwrap_err(),
        AdmissionError::SessionBusy
    );
    let other = ckks_tenant(&ctx, 941, &[1]);
    assert_eq!(
        svc.register_ckks_tenant(2, ctx.clone(), other.galois.clone())
            .unwrap_err(),
        AdmissionError::KeyCacheSaturated
    );
    // Once the queue drains the idle session is evictable and the
    // second tenant fits.
    svc.run_until_idle();
    svc.register_ckks_tenant(2, ctx, other.galois.clone())
        .unwrap();
    assert_eq!(svc.key_cache().evictions(), 1);
}

#[test]
fn huge_deadlines_and_failed_registrations_are_harmless() {
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let tenant = ckks_tenant(&ctx, 950, &[1]);

    // A deadline near u64::MAX on a job admitted at a non-zero tick
    // must read as "no deadline", not overflow the due-tick math.
    let mut svc = ServiceCore::new(ServiceConfig::default_config()).unwrap();
    svc.register_ckks_tenant(1, ctx.clone(), tenant.galois.clone())
        .unwrap();
    let rot = |svc: &mut ServiceCore, deadline: u64| {
        svc.submit(
            1,
            Workload::Rotation {
                ct: tenant.input.clone(),
                step: 1,
                deadline,
            },
        )
        .unwrap()
    };
    rot(&mut svc, 10);
    svc.run_until_idle(); // advance past tick 0
    let id = rot(&mut svc, u64::MAX);
    svc.run_until_idle();
    assert!(svc.take_result(id).is_some());

    // A registration the cache refuses must not leave the context
    // (and a fresh evaluator) resident in the service forever.
    let cfg = ServiceConfig {
        key_cache_bytes: 0,
        ..ServiceConfig::default_config()
    };
    let mut svc = ServiceCore::new(cfg).unwrap();
    let fresh = CkksContext::new(CkksParams::tiny_params());
    let t2 = ckks_tenant(&fresh, 951, &[1]);
    assert_eq!(
        svc.register_ckks_tenant(1, fresh.clone(), t2.galois.clone())
            .unwrap_err(),
        AdmissionError::KeyCacheSaturated
    );
    assert!(svc.evaluator_for(&fresh).is_none());
}

fn malformed_rejects(svc: &ServiceCore) -> usize {
    svc.audit()
        .to_jsonl()
        .matches("\"reason\":\"malformed_ciphertext\"")
        .count()
}

/// CKKS ciphertexts whose shape the tenant's context cannot evaluate
/// are refused at the door with an audited reject — the keyswitch
/// engine asserts that shape, so admitting one would panic the core —
/// while a well-formed mate submitted alongside still completes,
/// bit-identical to isolated evaluation.
#[test]
fn malformed_rotation_is_rejected_and_its_mate_completes() {
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let tenant = ckks_tenant(&ctx, 960, &[1]);
    let mut svc = ServiceCore::new(ServiceConfig::default_config()).unwrap();
    svc.register_ckks_tenant(1, ctx.clone(), tenant.galois.clone())
        .unwrap();
    let good = &tenant.input;
    let rotation = |ct| Workload::Rotation {
        ct,
        step: 1,
        deadline: 10,
    };
    let mate = svc.submit(1, rotation(good.clone())).unwrap();

    let mut level_mismatch = good.clone();
    level_mismatch.level -= 1;
    let mut beyond_top = good.clone();
    beyond_top.level += 1;
    let mut coeff_form = good.clone();
    coeff_form.c1.to_coeff();
    let mut foreign_degree = good.clone();
    let wide = CkksContext::new(CkksParams::new(2 * ctx.n(), 3, 30, 2).unwrap());
    let zero = RnsPoly::zero(wide.level_basis(good.level).clone(), Representation::Eval);
    foreign_degree.c0 = zero.clone();
    foreign_degree.c1 = zero;
    let scan = |ct| Workload::Analytics { ct, steps: vec![1] };
    for ct in [level_mismatch, beyond_top, coeff_form, foreign_degree] {
        for work in [rotation(ct.clone()), scan(ct)] {
            assert_eq!(
                svc.submit(1, work).unwrap_err(),
                AdmissionError::MalformedCiphertext
            );
        }
    }
    svc.run_until_idle();

    let Some(Response::Vector(out)) = svc.take_result(mate) else {
        panic!("the well-formed mate did not complete");
    };
    let expect = Evaluator::new(ctx.clone()).rotate(good, 1, &tenant.galois[&1]);
    assert_eq!(out.c0.flat(), expect.c0.flat());
    assert_eq!(out.c1.flat(), expect.c1.flat());
    assert_eq!(malformed_rejects(&svc), 8);
}

/// Gate inputs whose LWE mask is not the server key's `n_lwe` long are
/// refused at the door with an audited reject — the gate engine
/// asserts that length, so admitting one would panic the core — while
/// a well-formed gate submitted alongside completes and decrypts.
#[test]
fn malformed_gate_is_rejected_and_its_mate_completes() {
    let mut trng = StdRng::seed_from_u64(904);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut trng);
    let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut trng);
    let mut svc = ServiceCore::new(ServiceConfig::default_config()).unwrap();
    svc.register_tfhe_tenant(0, server).unwrap();
    let a = ck.encrypt_bit(true, &mut trng);
    let b = ck.encrypt_bit(false, &mut trng);
    let nand = |a, b| Workload::Gate {
        op: GateOp::Nand,
        a,
        b,
    };
    let mate = svc.submit(0, nand(a.clone(), b.clone())).unwrap();

    let mut short = a.clone();
    short.a.pop();
    let mut long = b.clone();
    long.a.push(0);
    for (x, y) in [
        (short.clone(), b.clone()),
        (a.clone(), long.clone()),
        (short, long),
    ] {
        assert_eq!(
            svc.submit(0, nand(x, y)).unwrap_err(),
            AdmissionError::MalformedCiphertext
        );
    }
    svc.run_until_idle();

    let Some(Response::Bit(out)) = svc.take_result(mate) else {
        panic!("the well-formed mate did not complete");
    };
    assert!(ck.decrypt_bit(&out), "NAND(1, 0) must decrypt to 1");
    assert_eq!(malformed_rejects(&svc), 3);
}
