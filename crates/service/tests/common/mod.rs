//! Shared harness for the service integration suites (`service_e2e`,
//! `scheduler_props`).
//!
//! Everything here is deterministic from fixed seeds: the scenario
//! builders regenerate tenant key material per run (TFHE server keys
//! are deliberately not `Clone`), so two runs with the same seed —
//! under any kernel backend — must produce bit-identical ciphertexts
//! and byte-identical audit logs. The backend replay in `service_e2e`
//! is built on exactly that property.

#![allow(dead_code)] // each test binary uses its own slice of the harness

use std::collections::HashMap;
use std::sync::Arc;

use fhe_ckks::{
    Ciphertext, CkksContext, CkksParams, Encoder, Encryptor, Evaluator, KeyGenerator, SwitchingKey,
};
use fhe_math::Complex;
use fhe_tfhe::{ClientKey, GateOp, MulBackend, ServerKey, TfheContext, TfheParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity_service::{Response, ServiceConfig, ServiceCore, Workload};

/// The workspace's one in-process backend matrix.
#[path = "../../../../tests/common/mod.rs"]
pub mod backends;

/// A CKKS tenant's keys (as the service will hold them) plus an
/// encrypted input. The secret key is dropped: CKKS results are
/// checked by bit-identity against isolated evaluation, not by
/// decryption.
pub struct CkksTenant {
    pub galois: HashMap<i64, SwitchingKey>,
    pub input: Ciphertext,
}

pub fn ckks_tenant(ctx: &Arc<CkksContext>, seed: u64, steps: &[i64]) -> CkksTenant {
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(ctx.clone());
    let sk = kg.secret_key(&mut rng);
    let galois = steps
        .iter()
        .map(|&r| {
            let g = fhe_math::galois::rotation_galois_element(r, ctx.n());
            (r, kg.galois_key(&sk, g, &mut rng))
        })
        .collect();
    let encoder = Encoder::new(ctx.clone());
    let values: Vec<Complex> = (0..encoder.slots())
        .map(|i| Complex::new(seed as f64 + i as f64, i as f64 / 3.0))
        .collect();
    let pt = encoder.encode(&values, ctx.params().max_level());
    let input = Encryptor::new(ctx.clone()).encrypt_sk(&pt, &sk, &mut rng);
    CkksTenant { galois, input }
}

pub fn ct_flat(ct: &Ciphertext) -> Vec<u64> {
    let mut v = ct.c0.flat().to_vec();
    v.extend_from_slice(ct.c1.flat());
    v
}

/// Pulls `"key":<u64>` out of one rendered JSONL line.
pub fn json_u64(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// One parsed `dispatch` audit row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchRow {
    pub tick: u64,
    pub group: u64,
    pub lane: String,
    pub cause: String,
    pub jobs: usize,
    pub pending: [usize; 3],
}

pub fn parse_dispatches(jsonl: &str) -> Vec<DispatchRow> {
    jsonl
        .lines()
        .filter(|l| l.contains("\"event\":\"dispatch\""))
        .map(|l| {
            let text = |k: &str| {
                let at = l.find(k).unwrap() + k.len();
                l[at..]
                    .chars()
                    .take_while(|c| *c != '"')
                    .collect::<String>()
            };
            let at = l.find("\"pending\":[").unwrap() + "\"pending\":[".len();
            let nums: Vec<usize> = l[at..]
                .chars()
                .take_while(|c| *c != ']')
                .collect::<String>()
                .split(',')
                .map(|n| n.parse().unwrap())
                .collect();
            DispatchRow {
                tick: json_u64(l, "tick").unwrap(),
                group: json_u64(l, "group").unwrap(),
                lane: text("\"lane\":\""),
                cause: text("\"cause\":\""),
                jobs: json_u64(l, "jobs").unwrap() as usize,
                pending: [nums[0], nums[1], nums[2]],
            }
        })
        .collect()
}

/// Parsed `complete` rows as `(tick, group, request)`, in log order.
pub fn parse_completes(jsonl: &str) -> Vec<(u64, u64, u64)> {
    jsonl
        .lines()
        .filter(|l| l.contains("\"event\":\"complete\""))
        .map(|l| {
            (
                json_u64(l, "tick").unwrap(),
                json_u64(l, "group").unwrap(),
                json_u64(l, "request").unwrap(),
            )
        })
        .collect()
}

/// Everything one mixed-scenario run produces: each request's result
/// as flat words (submit order), the audit JSONL and the number of
/// dispatch groups the service split across the pool
/// ([`ServiceCore::split_groups`]).
pub struct ScenarioRun {
    pub flats: Vec<Vec<u64>>,
    pub jsonl: String,
    pub split_groups: u64,
}

/// Runs the canonical mixed TFHE + CKKS tenant scenario once under the
/// active kernel backend and the given service configuration,
/// asserting every result bit-identical to its isolated sequential
/// oracle (gates also decrypt-checked). Fully seeded: the TFHE tenant
/// regenerates its keys from seed 901 each call, CKKS tenants from
/// 911..=913, so repeated runs are bit-reproducible by construction.
///
/// Traffic shape: 4 gates (one tenant, so the Interactive lane can
/// batch them), then 3 timed rotations with deliberately *skewed*
/// deadlines (admission order != deadline order, exercising EDF) and
/// 3 bulk analytics chains sharing the timed jobs' geometry
/// (exercising cross-lane coalescing).
pub fn run_mixed_scenario(cfg: ServiceConfig) -> ScenarioRun {
    // TFHE tenant 0.
    let mut trng = StdRng::seed_from_u64(901);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut trng);
    let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut trng);
    let gate_cases = [
        (GateOp::Nand, true, true),
        (GateOp::Xor, true, false),
        (GateOp::And, false, true),
        (GateOp::Or, false, false),
    ];
    let gate_inputs: Vec<_> = gate_cases
        .iter()
        .map(|&(op, a, b)| {
            (
                op,
                ck.encrypt_bit(a, &mut trng),
                ck.encrypt_bit(b, &mut trng),
                op.eval(a, b),
            )
        })
        .collect();
    // Isolated sequential oracle, before the server key moves in.
    let gate_expected: Vec<_> = gate_inputs
        .iter()
        .map(|(op, a, b, _)| server.apply_gate(*op, a, b))
        .collect();

    // CKKS tenants 1..=3 over ONE shared context: coalescing
    // candidates for one another.
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let tenants: Vec<CkksTenant> = (1..=3)
        .map(|t| ckks_tenant(&ctx, 910 + t, &[1, 2]))
        .collect();
    // (tenant, steps, deadline) in submit order after the gates. The
    // timed deadlines are skewed so EDF must serve against admission
    // order (all admits land on tick 0, so due = deadline).
    let rotation_reqs: [(usize, &[i64], Option<u64>); 6] = [
        (1, &[1], Some(20)),
        (2, &[1], Some(6)),
        (3, &[2], Some(12)),
        (1, &[1, 2], None),
        (2, &[1, 1], None),
        (3, &[2, 1], None),
    ];
    // Isolated sequential oracle: each request evaluated alone.
    let oracle = Evaluator::new(ctx.clone());
    let rotation_expected: Vec<Ciphertext> = rotation_reqs
        .iter()
        .map(|&(t, steps, _)| {
            let tenant = &tenants[t - 1];
            let mut ct = tenant.input.clone();
            for &r in steps {
                ct = oracle.rotate(&ct, r, &tenant.galois[&r]);
            }
            ct
        })
        .collect();

    let mut svc = ServiceCore::new(cfg).unwrap();
    svc.register_tfhe_tenant(0, server).unwrap();
    for (i, tenant) in tenants.iter().enumerate() {
        svc.register_ckks_tenant(i + 1, ctx.clone(), tenant.galois.clone())
            .unwrap();
    }
    let mut ids = Vec::new();
    for (op, a, b, _) in &gate_inputs {
        ids.push(
            svc.submit(
                0,
                Workload::Gate {
                    op: *op,
                    a: a.clone(),
                    b: b.clone(),
                },
            )
            .unwrap(),
        );
    }
    for &(t, steps, deadline) in &rotation_reqs {
        let ct = tenants[t - 1].input.clone();
        let work = match deadline {
            Some(d) => Workload::Rotation {
                ct,
                step: steps[0],
                deadline: d,
            },
            None => Workload::Analytics {
                ct,
                steps: steps.to_vec(),
            },
        };
        ids.push(svc.submit(t, work).unwrap());
    }
    svc.run_until_idle();

    // Collect + verify against the oracles.
    let mut flats = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        match svc.take_result(*id).expect("request completed") {
            Response::Bit(out) => {
                let (_, _, _, plain) = gate_inputs[i];
                assert_eq!(ck.decrypt_bit(&out), plain, "gate {i} decrypts wrong");
                let exp = &gate_expected[i];
                assert!(
                    out.a == exp.a && out.b == exp.b,
                    "gate {i} not bit-identical to isolated evaluation"
                );
                let mut v = out.a.clone();
                v.push(out.b);
                flats.push(v);
            }
            Response::Vector(out) => {
                let r = i - gate_inputs.len();
                let exp = &rotation_expected[r];
                assert_eq!(
                    ct_flat(&out),
                    ct_flat(exp),
                    "rotation request {r} not bit-identical to isolated evaluation"
                );
                flats.push(ct_flat(&out));
            }
        }
    }
    ScenarioRun {
        flats,
        jsonl: svc.audit().to_jsonl(),
        split_groups: svc.split_groups(),
    }
}

/// The mixed scenario's configuration: the four tenants' real key
/// material outgrows the CI-sized default cache, so give it room.
pub fn mixed_cfg() -> ServiceConfig {
    ServiceConfig {
        key_cache_bytes: 1 << 30,
        ..ServiceConfig::default_config()
    }
}
