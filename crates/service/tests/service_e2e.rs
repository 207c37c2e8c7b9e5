//! End-to-end service suite: mixed tenants through the queue.
//!
//! The acceptance contract for the serving layer, in four parts:
//!
//! 1. **Bit-identity.** A mixed TFHE + CKKS tenant stream scheduled,
//!    coalesced, batched and executed by [`ServiceCore`] produces
//!    ciphertexts bit-identical to evaluating each tenant's requests
//!    in isolation, sequentially — under `scalar`, `lanes` *and*
//!    `threaded` kernel backends (swapped in-process with
//!    `kernel::force`, which is test-only by lint rule). Coalescing
//!    and QoS must be invisible in the bits. The scenario, budget and
//!    starvation tests each run at `max_in_flight` 1 and 4, so the
//!    same contract is enforced under concurrent in-flight dispatch.
//! 2. **Coalescing.** The JSONL audit shows keyswitch dispatches that
//!    carried at least two independent requests each.
//! 3. **Budgets.** Over the audited prefix where every lane was
//!    backlogged, each lane's dispatch share holds its configured
//!    minimum (within the enforcement window's quantisation).
//! 4. **Starvation + admission.** A starved lane is force-served and
//!    audited within the threshold; saturated queues/caches, uncovered
//!    keys and malformed ciphertexts are rejected at the door with
//!    audited reasons.
//!
//! Cross-`max_in_flight` determinism has its own metamorphic suite
//! (`service_determinism.rs`); EDF ordering has `scheduler_props.rs`.

mod common;

use common::backends::under_each_backend;
use common::{ckks_tenant, mixed_cfg, parse_dispatches, run_mixed_scenario};
use fhe_ckks::{CkksContext, CkksParams, Evaluator, SwitchingKey};
use fhe_math::{Representation, RnsPoly};
use fhe_tfhe::{ClientKey, GateOp, MulBackend, ServerKey, TfheContext, TfheParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity_service::{
    AdmissionError, AuditEvent, Lane, LaneBudgets, PickCause, Response, ServiceConfig, ServiceCore,
    StarvationPolicy, Workload,
};

/// The in-flight windows every scheduling test runs under: the
/// sequential core and concurrent waves.
const IN_FLIGHT: [usize; 2] = [1, 4];

#[test]
fn mixed_tenants_bit_identical_across_backends_and_coalesced() {
    for max_in_flight in IN_FLIGHT {
        println!("max_in_flight: {max_in_flight}");
        let runs = under_each_backend(|| run_mixed_scenario(mixed_cfg(max_in_flight)));

        // The audit must show real cross-request coalescing: at least one
        // keyswitch dispatch carrying >= 2 requests — and, since PR 10,
        // at least one *gate* dispatch batching >= 2 blind rotations.
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
            .all(|l| l.starts_with("{\"schema_version\":2,") && l.ends_with('}')));

        // Backend choice must be unobservable: identical ciphertext bits
        // AND identical scheduling decisions.
        for (name, run) in &runs[1..] {
            assert_eq!(run.flats, base.flats, "{name} diverged from {}", runs[0].0);
            assert_eq!(run.jsonl, base.jsonl, "{name} scheduled differently");
        }
    }
}

#[test]
fn lane_budgets_hold_over_the_backlogged_prefix() {
    for max_in_flight in IN_FLIGHT {
        println!("max_in_flight: {max_in_flight}");
        // max_batch = 1 isolates the scheduler: every dispatch serves
        // exactly one request, so audited shares are pick shares.
        let cfg = ServiceConfig {
            max_batch: 1,
            max_in_flight,
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
}

#[test]
fn starved_lane_is_force_served_and_audited() {
    for max_in_flight in IN_FLIGHT {
        println!("max_in_flight: {max_in_flight}");
        // All-slack budgets: priority alone would serve gates forever.
        let cfg = ServiceConfig {
            budgets: LaneBudgets {
                interactive_min: 0,
                timed_min: 0,
                bulk_min: 0,
            },
            starvation: StarvationPolicy { max_wait_ticks: 3 },
            max_batch: 1,
            max_in_flight,
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
