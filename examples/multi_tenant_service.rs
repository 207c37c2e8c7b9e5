//! A multi-tenant FHE service run, end to end: four tenants (one TFHE
//! boolean tenant, three CKKS analytics tenants sharing a context)
//! submit a deterministic request stream through the QoS-laned job
//! queue. The service enforces the 20/30/50 lane budgets, coalesces
//! same-geometry rotations from different requests into one dispatch
//! spread over the cores, and audits every decision as JSONL.
//!
//! Run with: `cargo run --release --example multi_tenant_service`

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use trinity::ckks::{
    CkksContext, CkksParams, Encoder, Encryptor, KeyGenerator, SecretKey, SwitchingKey,
};
use trinity::math::galois::rotation_galois_element;
use trinity::math::Complex;
use trinity::service::{Lane, Response, ServiceConfig, ServiceCore, Workload};
use trinity::tfhe::{ClientKey, GateOp, MulBackend, ServerKey, TfheContext, TfheParams};
use trinity::workloads::{stream, RequestKind, TrafficMix};

fn main() {
    // --- Tenants ---------------------------------------------------
    // Tenant 0: TFHE boolean gates (Set-I parameters, NTT externals).
    let mut rng = StdRng::seed_from_u64(77);
    let ck = ClientKey::generate(TfheContext::new(TfheParams::set_i()), &mut rng);
    let server = ServerKey::generate(&ck, MulBackend::Ntt, &mut rng);

    // Tenants 1..=3: CKKS analytics over ONE shared context — that
    // shared geometry is what makes their rotations coalescable.
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let steps: Vec<i64> = (1..=4).flat_map(|m| [m, -m]).collect();
    let encoder = Encoder::new(ctx.clone());
    let encryptor = Encryptor::new(ctx.clone());
    let mut secrets: Vec<SecretKey> = Vec::new();
    let mut galois_sets: Vec<HashMap<i64, SwitchingKey>> = Vec::new();
    let mut inputs = Vec::new();
    for t in 0..3usize {
        let kg = KeyGenerator::new(ctx.clone());
        let sk = kg.secret_key(&mut rng);
        let galois: HashMap<i64, SwitchingKey> = steps
            .iter()
            .map(|&r| {
                let g = rotation_galois_element(r, ctx.n());
                (r, kg.galois_key(&sk, g, &mut rng))
            })
            .collect();
        let values: Vec<Complex> = (0..encoder.slots())
            .map(|i| Complex::new((t * 100 + i) as f64, 0.0))
            .collect();
        let pt = encoder.encode(&values, ctx.params().max_level());
        inputs.push(encryptor.encrypt_sk(&pt, &sk, &mut rng));
        secrets.push(sk);
        galois_sets.push(galois);
    }

    // --- Service ---------------------------------------------------
    let cfg = ServiceConfig {
        key_cache_bytes: 1 << 30,
        ..ServiceConfig::default_config()
    };
    println!(
        "service: lanes interactive/timed/bulk >= {}/{}/{}% of dispatches, \
         window {}, starvation threshold {} ticks, max batch {}",
        cfg.budgets.interactive_min,
        cfg.budgets.timed_min,
        cfg.budgets.bulk_min,
        cfg.window,
        cfg.starvation.max_wait_ticks,
        cfg.max_batch
    );
    let mut svc = ServiceCore::new(cfg).expect("valid budgets");
    svc.register_tfhe_tenant(0, server).expect("cache fits");
    for (t, galois) in galois_sets.iter().enumerate() {
        let bytes = svc
            .register_ckks_tenant(t + 1, ctx.clone(), galois.clone())
            .expect("cache fits");
        println!(
            "tenant {}: CKKS session resident ({} key bytes)",
            t + 1,
            bytes
        );
    }

    // --- Traffic ---------------------------------------------------
    // A deterministic 40-request stream; gates route to the TFHE
    // tenant, rotations round-robin over the CKKS tenants.
    let events = stream(42, 3, 40, TrafficMix::default_mix());
    let mut submitted = Vec::new();
    let mut plain_gates = Vec::new();
    for ev in &events {
        // Let the scheduler work while requests are still arriving —
        // at one dispatch per four arrival ticks, so the service runs
        // oversubscribed and backlogs (the coalescing opportunity)
        // actually build up.
        while svc.tick() * 4 < ev.arrival && svc.dispatch_next().is_some() {}
        match &ev.kind {
            RequestKind::Gate { gate, a, b } => {
                let op = GateOp::ALL[gate % GateOp::ALL.len()];
                plain_gates.push((submitted.len(), op.eval(*a, *b)));
                let id = svc
                    .submit(
                        0,
                        Workload::Gate {
                            op,
                            a: ck.encrypt_bit(*a, &mut rng),
                            b: ck.encrypt_bit(*b, &mut rng),
                        },
                    )
                    .expect("admitted");
                submitted.push(id);
            }
            RequestKind::TimedRotation { step, deadline } => {
                let t = ev.tenant % 3;
                let id = svc
                    .submit(
                        t + 1,
                        Workload::Rotation {
                            ct: inputs[t].clone(),
                            step: *step,
                            deadline: *deadline,
                        },
                    )
                    .expect("admitted");
                submitted.push(id);
            }
            RequestKind::BulkRotations { steps } => {
                let t = ev.tenant % 3;
                let id = svc
                    .submit(
                        t + 1,
                        Workload::Analytics {
                            ct: inputs[t].clone(),
                            steps: steps.clone(),
                        },
                    )
                    .expect("admitted");
                submitted.push(id);
            }
        }
    }
    svc.run_until_idle();

    // --- What happened ---------------------------------------------
    let jsonl = svc.audit().to_jsonl();
    let dispatches: Vec<(&str, usize)> = jsonl
        .lines()
        .filter(|l| l.contains("\"event\":\"dispatch\""))
        .map(|l| {
            let lane = if l.contains("\"lane\":\"interactive\"") {
                "interactive"
            } else if l.contains("\"lane\":\"timed\"") {
                "timed"
            } else {
                "bulk"
            };
            let at = l.find("\"jobs\":").unwrap() + 7;
            let jobs: usize = l[at..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap();
            (lane, jobs)
        })
        .collect();
    let total = dispatches.len();
    println!(
        "\n{} requests -> {} kernel dispatches over {} ticks",
        submitted.len(),
        total,
        svc.tick()
    );
    for lane in Lane::ALL {
        let of_lane: Vec<usize> = dispatches
            .iter()
            .filter(|(l, _)| *l == lane.name())
            .map(|&(_, jobs)| jobs)
            .collect();
        let jobs: usize = of_lane.iter().sum();
        println!(
            "  {:<11} {:>3} dispatches ({:>3}% of picks), {} jobs, widest batch {}",
            lane.name(),
            of_lane.len(),
            of_lane.len() * 100 / total.max(1),
            jobs,
            of_lane.iter().max().copied().unwrap_or(0)
        );
    }
    let coalesced = dispatches.iter().filter(|&&(_, jobs)| jobs >= 2).count();
    println!(
        "  {coalesced} dispatches carried >= 2 coalesced requests (cross-tenant rotation groups)"
    );
    // The oversubscribed pacing must actually build an Interactive
    // backlog: at least one dispatch batches >= 2 gates through a
    // single wide blind rotation. An assert, not a print — CI runs
    // this example, so a regression that silently stops batching fails
    // the build instead of cosmetically shrinking a stat line.
    let widest_gates = dispatches
        .iter()
        .filter(|(l, _)| *l == "interactive")
        .map(|&(_, jobs)| jobs)
        .max()
        .unwrap_or(0);
    assert!(
        widest_gates >= 2,
        "no Interactive dispatch batched >= 2 gates (widest {widest_gates})"
    );
    println!(
        "  key cache: {} / {} bytes resident, {} evictions",
        svc.key_cache().used_bytes(),
        svc.key_cache().capacity_bytes(),
        svc.key_cache().evictions()
    );

    // Spot-check correctness: every gate decrypts to its plaintext
    // truth table entry.
    let mut checked = 0;
    for &(idx, expect) in &plain_gates {
        match svc.take_result(submitted[idx]) {
            Some(Response::Bit(ct)) => {
                assert_eq!(ck.decrypt_bit(&ct), expect, "gate result wrong");
                checked += 1;
            }
            _ => panic!("gate request returned no bit"),
        }
    }
    println!("\nverified {checked} gate results against plaintext truth tables");

    println!("\naudit tail (last 8 JSONL events):");
    let lines: Vec<&str> = jsonl.lines().collect();
    for l in &lines[lines.len().saturating_sub(8)..] {
        println!("  {l}");
    }
}
