//! The service splits each dispatch group into one sub-batch per pool
//! lane; this binary pins that the split conserves kernel traffic. A
//! 4-gate group and a 4-rotation group run through [`ServiceCore`]
//! under a counting [`KernelBackend`] decorator installed with
//! [`kernel::force`], and each kernel class's row total must equal that
//! of the same jobs run unsplit on the calling thread — one batched-gate
//! call, one `apply_galois` per rotation — only the number of calls may
//! differ. `force` swaps process-wide state, so this binary holds
//! exactly one test.

mod common;

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use common::{ckks_tenant, ct_flat, parse_dispatches};
use fhe_ckks::{CkksContext, CkksParams, Evaluator};
use fhe_math::kernel::{self, ExitFold, KernelBackend, LANES_BACKEND};
use fhe_math::{Modulus, NttTable};
use fhe_tfhe::{ClientKey, GateOp, MulBackend, ServerKey, TfheContext, TfheParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity_service::{Response, ServiceConfig, ServiceCore, Workload};

/// The kernel classes whose rows are conserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Forward,
    Inverse,
    MulAcc,
    BconvApprox,
    BconvExact,
    Decompose,
    Permute,
}

/// Logs `(class, rows)` per call of the seven entry points — from
/// whichever thread makes it — and delegates to the lane backend;
/// every other method keeps its provided body.
#[derive(Debug)]
struct CountingBackend {
    log: Mutex<Vec<(Class, usize)>>,
}

impl CountingBackend {
    fn record(&self, class: Class, rows: usize) {
        self.log
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((class, rows));
    }
}

impl KernelBackend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn forward_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        self.record(Class::Forward, tables.len());
        LANES_BACKEND.forward_batch(tables, flat, exit);
    }

    fn inverse_batch(&self, tables: &[&NttTable], flat: &mut [u64], exit: ExitFold) {
        self.record(Class::Inverse, tables.len());
        LANES_BACKEND.inverse_batch(tables, flat, exit);
    }

    fn mul_acc_lazy_batch(&self, moduli: &[Modulus], acc: &mut [u64], a: &[u64], b: &[u64]) {
        self.record(Class::MulAcc, moduli.len());
        LANES_BACKEND.mul_acc_lazy_batch(moduli, acc, a, b);
    }

    fn permute_batch(&self, perm: &[usize], src: &[u64], dst: &mut [u64]) {
        self.record(Class::Permute, src.len() / perm.len().max(1));
        LANES_BACKEND.permute_batch(perm, src, dst);
    }

    fn convert_approx_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        self.record(Class::BconvApprox, to_moduli.len());
        LANES_BACKEND.convert_approx_batch(to_moduli, weights, y, out);
    }

    fn convert_exact_batch(
        &self,
        to_moduli: &[Modulus],
        weights: &[u64],
        a_mod_b: &[u64],
        v: &[u64],
        y: &[u64],
        out: &mut [u64],
    ) {
        self.record(Class::BconvExact, to_moduli.len());
        LANES_BACKEND.convert_exact_batch(to_moduli, weights, a_mod_b, v, y, out);
    }

    fn decompose_batch(
        &self,
        q: u64,
        base_log: u32,
        levels: usize,
        n: usize,
        src: &[u64],
        out: &mut [i64],
    ) {
        self.record(Class::Decompose, src.len() / n);
        LANES_BACKEND.decompose_batch(q, base_log, levels, n, src, out);
    }
}

static COUNTING: CountingBackend = CountingBackend {
    log: Mutex::new(Vec::new()),
};

/// Per-class `(calls, rows)` totals of one logged run.
type Traffic = BTreeMap<Class, (usize, usize)>;

/// Runs `work` with the counting backend forced and returns its result
/// beside the per-class traffic it logged.
fn counted<T>(work: impl FnOnce() -> T) -> (T, Traffic) {
    let previous = kernel::force(&COUNTING);
    let out = work();
    kernel::force(previous);
    let log = std::mem::take(&mut *COUNTING.log.lock().unwrap_or_else(PoisonError::into_inner));
    let mut traffic = Traffic::new();
    for (class, rows) in log {
        let entry = traffic.entry(class).or_default();
        entry.0 += 1;
        entry.1 += rows;
    }
    (out, traffic)
}

/// Per-class row totals, dropping the call counts.
fn rows(traffic: &Traffic) -> BTreeMap<Class, usize> {
    traffic.iter().map(|(&c, &(_, r))| (c, r)).collect()
}

/// Runs one dispatch of `svc` under the counting backend, asserting it
/// formed a single group of `width` jobs.
fn dispatch_one_group(svc: &mut ServiceCore, width: usize) -> Traffic {
    let (served, traffic) = counted(|| svc.dispatch_next());
    assert!(served.is_some(), "a lane was served");
    let groups = parse_dispatches(&svc.audit().to_jsonl());
    assert_eq!(groups.len(), 1, "{groups:?}");
    assert_eq!(groups[0].jobs, width, "{groups:?}");
    traffic
}

#[test]
fn split_groups_conserve_per_class_kernel_rows() {
    // On a multi-core host the service splits each 4-job group; the
    // identities below then cover the split path.
    let split_expected = u64::from(fhe_math::pool::shared().threads() >= 2);

    // A 4-gate Interactive group under one Set-I server key.
    let mut rng = StdRng::seed_from_u64(35);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);
    let gates: Vec<_> = [
        (GateOp::Nand, true, true),
        (GateOp::Xor, true, false),
        (GateOp::And, true, true),
        (GateOp::Or, false, false),
    ]
    .into_iter()
    .map(|(op, a, b)| (op, ck.encrypt_bit(a, &mut rng), ck.encrypt_bit(b, &mut rng)))
    .collect();
    let jobs: Vec<_> = gates
        .iter()
        .map(|(op, a, b)| (&server, *op, a, b))
        .collect();
    let (want, unsplit) = counted(|| fhe_tfhe::apply_gates_batched(&jobs));
    drop(jobs);

    let mut svc = ServiceCore::new(ServiceConfig::default_config()).unwrap();
    svc.register_tfhe_tenant(0, server).unwrap();
    let ids: Vec<_> = gates
        .into_iter()
        .map(|(op, a, b)| svc.submit(0, Workload::Gate { op, a, b }).unwrap())
        .collect();
    let split = dispatch_one_group(&mut svc, 4);
    assert_eq!(svc.split_groups(), split_expected, "gate group split");
    for (id, want) in ids.into_iter().zip(&want) {
        let Some(Response::Bit(got)) = svc.take_result(id) else {
            panic!("gate {id:?} did not complete");
        };
        assert_eq!((&got.a, got.b), (&want.a, want.b), "gate {id:?}");
    }
    assert_eq!(
        rows(&split),
        rows(&unsplit),
        "gates: split {split:?}, unsplit {unsplit:?}"
    );
    assert!(rows(&unsplit).contains_key(&Class::Decompose));

    // A 4-rotation Timed group: two tenants over one shared context,
    // each rotating by one step under its own key.
    let ctx: Arc<CkksContext> = CkksContext::new(CkksParams::tiny_params());
    let tenants: Vec<_> = (0..2).map(|t| ckks_tenant(&ctx, 350 + t, &[1])).collect();
    let eval = Evaluator::new(ctx.clone());
    let jobs: Vec<_> = (0..4)
        .map(|j| (&tenants[j % 2].input, &tenants[j % 2].galois[&1]))
        .collect();
    let g = fhe_math::galois::rotation_galois_element(1, ctx.n());
    let (want, unsplit) = counted(|| {
        jobs.iter()
            .map(|&(ct, key)| eval.apply_galois(ct, g, key))
            .collect::<Vec<_>>()
    });

    let mut svc = ServiceCore::new(ServiceConfig::default_config()).unwrap();
    for (t, tenant) in tenants.iter().enumerate() {
        svc.register_ckks_tenant(t, ctx.clone(), tenant.galois.clone())
            .unwrap();
    }
    let ids: Vec<_> = (0..4)
        .map(|j| {
            let work = Workload::Rotation {
                ct: tenants[j % 2].input.clone(),
                step: 1,
                deadline: 50,
            };
            svc.submit(j % 2, work).unwrap()
        })
        .collect();
    let split = dispatch_one_group(&mut svc, 4);
    assert_eq!(svc.split_groups(), split_expected, "rotation group split");
    for (id, want) in ids.into_iter().zip(&want) {
        let Some(Response::Vector(got)) = svc.take_result(id) else {
            panic!("rotation {id:?} did not complete");
        };
        assert_eq!(ct_flat(&got), ct_flat(want), "rotation {id:?}");
    }
    assert_eq!(
        rows(&split),
        rows(&unsplit),
        "rotations: split {split:?}, unsplit {unsplit:?}"
    );
    for class in [
        Class::Forward,
        Class::Inverse,
        Class::MulAcc,
        Class::Permute,
    ] {
        assert!(rows(&unsplit).contains_key(&class), "{class:?} never ran");
    }
}
