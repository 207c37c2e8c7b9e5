//! Property suites for the lane scheduler: budget enforcement and
//! starvation bounds over randomized traffic shapes.
//!
//! The scheduler is pure decision logic, so these suites drive it
//! directly with synthetic backlog observations — thousands of
//! randomized streams per second, no ciphertexts anywhere. The
//! end-to-end suite (`service_e2e.rs`) separately checks that the
//! real service loop feeds the scheduler the same observations these
//! models do.

mod common;

use std::collections::HashMap;

use common::{ckks_tenant, json_u64, parse_dispatches};
use fhe_ckks::{CkksContext, CkksParams};
use proptest::prelude::*;
use trinity_service::{
    edf_pick, AuditEvent, Lane, LaneBudgets, PickCause, Response, Scheduler, ServiceConfig,
    ServiceCore, StarvationPolicy, Workload,
};
use trinity_workloads::traffic::{self, RequestKind, TrafficMix};

/// Ceiling share of one window slot, percent.
fn quantum(window: usize) -> u32 {
    100u32.div_ceil(window as u32)
}

/// Drives `picks` scheduler rounds with every lane permanently
/// backlogged, modelling head-of-line wait as ticks-since-last-service.
fn run_full_backlog(s: &mut Scheduler, picks: usize, check_from: usize, slack: u32) {
    let mut wait = [0u64; 3];
    for round in 0..picks {
        let (lane, _) = s
            .pick([Some(wait[0]), Some(wait[1]), Some(wait[2])])
            .expect("backlogged lanes always yield a pick");
        for l in Lane::ALL {
            wait[l.index()] += 1;
        }
        wait[lane.index()] = 0;
        if round >= check_from {
            for l in Lane::ALL {
                let share = s.share_percent(l);
                let min = s.budgets().min_for(l);
                assert!(
                    share + slack >= min,
                    "{l:?} share {share}% below min {min}% (slack {slack}) at round {round}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Budget enforcement: under full backlog, every lane holds its
    /// minimum share (up to window quantisation) for *any*
    /// satisfiable budget split and window size.
    #[test]
    fn minimum_shares_hold_for_any_satisfiable_split(
        i in 0u32..=60,
        t in 0u32..=60,
        b in 0u32..=60,
        window in 10usize..=40,
    ) {
        prop_assume!(i + t + b <= 100);
        let mut s = Scheduler::new(
            LaneBudgets { interactive_min: i, timed_min: t, bulk_min: b },
            // Starvation disabled: this property isolates the budget
            // mechanism (the starvation property has its own suite).
            StarvationPolicy { max_wait_ticks: u64::MAX },
            window,
        ).unwrap();
        let warmup = 3 * window;
        run_full_backlog(&mut s, warmup + 100, warmup, 2 * quantum(window) + 1);
    }

    /// Budget enforcement under churn: the backlogged lanes keep
    /// their minimums even while another lane flaps between empty
    /// and flooding.
    #[test]
    fn backlogged_lanes_keep_minimums_while_interactive_flaps(
        flaps in proptest::collection::vec(any::<bool>(), 150..250),
    ) {
        let budgets = LaneBudgets { interactive_min: 20, timed_min: 30, bulk_min: 50 };
        let window = 20;
        let mut s = Scheduler::new(
            budgets,
            StarvationPolicy { max_wait_ticks: u64::MAX },
            window,
        ).unwrap();
        let mut wait = [0u64; 3];
        for (round, &interactive_up) in flaps.iter().enumerate() {
            let waits = [
                interactive_up.then_some(wait[0]),
                Some(wait[1]),
                Some(wait[2]),
            ];
            let (lane, _) = s.pick(waits).expect("timed and bulk stay backlogged");
            prop_assert!(interactive_up || lane != Lane::Interactive,
                "picked an empty lane at round {round}");
            for l in Lane::ALL {
                wait[l.index()] += 1;
            }
            wait[lane.index()] = 0;
            if !interactive_up {
                wait[Lane::Interactive.index()] = 0;
            }
            if round >= 3 * window {
                for l in [Lane::Timed, Lane::Bulk] {
                    let share = s.share_percent(l);
                    let min = budgets.min_for(l);
                    let slack = 3 * quantum(window);
                    prop_assert!(share + slack >= min,
                        "{l:?} share {share}% below min {min}% at round {round}");
                }
            }
        }
    }

    /// EDF selection: `edf_pick` always returns the queued job with
    /// the lexicographically smallest `(due, request)` — so dispatch
    /// order is non-decreasing in due tick, and no job is ever served
    /// while another queued job is due strictly earlier.
    #[test]
    fn edf_pick_is_the_min_due_over_any_queue(
        dues in proptest::collection::vec((0u64..100, 0u64..1000), 1..40),
    ) {
        let i = edf_pick(&dues).expect("non-empty queue yields a pick");
        let best = dues[i];
        for (j, &cand) in dues.iter().enumerate() {
            prop_assert!(
                j == i || cand >= best,
                "picked {best:?} but {cand:?} sorts earlier"
            );
        }
    }

    /// EDF under churn: serving a queue to exhaustion with arbitrary
    /// interleaved admissions yields a service order in which every
    /// pick was the earliest-due job *available at that moment* —
    /// i.e., a job is only ever served "out of deadline order" when
    /// the earlier-deadline job had not arrived yet.
    #[test]
    fn edf_drain_order_is_deadline_feasible(
        arrivals in proptest::collection::vec((0u64..60, 1u64..50), 1..60),
    ) {
        // Admit in rounds: each round admits one arrival, then serves
        // one job. (admit_round + deadline, request) is the due key.
        let mut queue: Vec<(u64, u64)> = Vec::new();
        let mut served: Vec<(u64, u64)> = Vec::new();
        for (round, &(jitter, deadline)) in arrivals.iter().enumerate() {
            let request = round as u64;
            queue.push((round as u64 + jitter + deadline, request));
            let i = edf_pick(&queue).expect("just pushed");
            let pick = queue.remove(i);
            for &waiting in &queue {
                prop_assert!(waiting >= pick,
                    "served {pick:?} while {waiting:?} was due earlier");
            }
            served.push(pick);
        }
        while let Some(i) = edf_pick(&queue) {
            let pick = queue.remove(i);
            prop_assert!(queue.iter().all(|&w| w >= pick));
            served.push(pick);
        }
        // Once admissions stop, the tail drains in due order.
        let tail = &served[arrivals.len()..];
        prop_assert!(tail.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Starvation detection: no backlogged lane ever waits more than
    /// `threshold + 2` ticks past its last service (the +2 covers the
    /// other two lanes crossing the threshold in the same tick), and
    /// every starvation-caused pick really was over threshold.
    #[test]
    fn starvation_fires_within_threshold(
        threshold in 5u64..40,
        up in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<bool>()), 200..400),
        i in 0u32..=50,
        t in 0u32..=50,
    ) {
        prop_assume!(i + t <= 100);
        let mut s = Scheduler::new(
            LaneBudgets { interactive_min: i, timed_min: t, bulk_min: 0 },
            StarvationPolicy { max_wait_ticks: threshold },
            20,
        ).unwrap();
        let mut wait = [0u64; 3];
        for (round, &(a, b, c)) in up.iter().enumerate() {
            let backlog = [a, b, c];
            let waits: Vec<Option<u64>> = Lane::ALL
                .iter()
                .map(|l| backlog[l.index()].then_some(wait[l.index()]))
                .collect();
            let picked = s.pick([waits[0], waits[1], waits[2]]);
            for l in Lane::ALL {
                let li = l.index();
                if backlog[li] {
                    prop_assert!(wait[li] <= threshold + 2,
                        "{l:?} starved for {} > {} ticks at round {round}",
                        wait[li], threshold + 2);
                    wait[li] += 1;
                } else {
                    // An empty lane has no head job; when one arrives
                    // its wait starts from zero.
                    wait[li] = 0;
                }
            }
            if let Some((lane, cause)) = picked {
                prop_assert!(backlog[lane.index()], "picked an empty lane");
                if cause == PickCause::Starvation {
                    prop_assert!(wait[lane.index()] - 1 > threshold,
                        "starvation pick below threshold at round {round}");
                }
                wait[lane.index()] = 0;
            } else {
                prop_assert!(backlog.iter().all(|&x| !x));
            }
        }
    }
}

/// The Timed lane is EDF, proven by audit replay: `len` deadline-skewed
/// rotations across 3 CKKS tenants sharing one context, paced against
/// the service's own tick (so admission ticks — and therefore due
/// ticks — vary with the schedule itself), every one of which
/// completes.
#[test]
fn timed_lane_is_edf() {
    let len = 24;
    // max_batch = 1 isolates EDF: every Timed dispatch serves exactly
    // the job `edf_pick` chose, with no coalescing mates riding along.
    let cfg = ServiceConfig {
        max_batch: 1,
        key_cache_bytes: 1 << 30,
        ..ServiceConfig::default_config()
    };
    let mut svc = ServiceCore::new(cfg).unwrap();
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let steps: Vec<i64> = (1..=4).flat_map(|s| [s, -s]).collect();
    let tenants: Vec<_> = (0..3).map(|t| ckks_tenant(&ctx, 960 + t, &steps)).collect();
    for (t, tenant) in tenants.iter().enumerate() {
        svc.register_ckks_tenant(t, ctx.clone(), tenant.galois.clone())
            .unwrap();
    }

    let mix = TrafficMix {
        gate_permille: 0,
        timed_permille: 1000,
        bulk_permille: 0,
    };
    // 3..=60: wide enough that admission order and deadline order
    // decorrelate hard (the whole point of EDF).
    let events = traffic::stream_with_deadlines(97, 3, len, mix, 3..=60);
    let mut ids = Vec::new();
    let mut deadline_of: HashMap<u64, u64> = HashMap::new();
    for ev in &events {
        while svc.tick() < ev.arrival && svc.dispatch_next().is_some() {}
        let RequestKind::TimedRotation { step, deadline } = &ev.kind else {
            unreachable!("timed-only mix");
        };
        let id = svc
            .submit(
                ev.tenant,
                Workload::Rotation {
                    ct: tenants[ev.tenant].input.clone(),
                    step: *step,
                    deadline: *deadline,
                },
            )
            .unwrap();
        deadline_of.insert(id.raw(), *deadline);
        ids.push(id);
    }
    svc.run_until_idle();

    // Replay the audit against the EDF model: at every completion,
    // the served job must be the queue's `(due, request)` minimum —
    // equivalently, dispatch order is non-decreasing in due tick
    // among simultaneously queued jobs, and a job past its deadline
    // is only ever "missed" when everything still queued is due no
    // earlier (no feasible-deadline job waits while a later-deadline
    // job is served).
    let jsonl = svc.audit().to_jsonl();
    let mut queue: Vec<(u64, u64)> = Vec::new();
    let mut completions = 0;
    for line in jsonl.lines() {
        if line.contains("\"event\":\"admit\"") {
            let r = json_u64(line, "request").unwrap();
            let t = json_u64(line, "tick").unwrap();
            queue.push((t + deadline_of[&r], r));
        } else if line.contains("\"event\":\"dispatch\"") {
            assert_eq!(json_u64(line, "jobs"), Some(1), "max_batch = 1");
        } else if line.contains("\"event\":\"complete\"") {
            let r = json_u64(line, "request").unwrap();
            let min = *queue.iter().min().expect("completion implies a queued job");
            assert_eq!(
                min.1, r,
                "served request {r} while request {} was due at tick {}",
                min.1, min.0
            );
            queue.retain(|&(_, q)| q != r);
            completions += 1;
        }
    }
    assert_eq!(completions, len, "every timed job completed");
    for id in ids {
        assert!(matches!(svc.take_result(id), Some(Response::Vector(_))));
    }
}

/// Under a two-lane (Timed + Bulk) backlog, budget minimums hold over
/// the backlogged prefix, and a starved lane is force-served one tick
/// past its threshold.
#[test]
fn budget_and_starvation_invariants_hold() {
    let ctx = CkksContext::new(CkksParams::tiny_params());
    let t0 = ckks_tenant(&ctx, 970, &[1, 2]);
    let t1 = ckks_tenant(&ctx, 971, &[1, 2]);

    // Budgets: timed 30 / bulk 50 over a 16 timed + 24 bulk backlog
    // (no interactive traffic; its floor is 0).
    let cfg = ServiceConfig {
        budgets: LaneBudgets {
            interactive_min: 0,
            timed_min: 30,
            bulk_min: 50,
        },
        max_batch: 1,
        key_cache_bytes: 1 << 30,
        ..ServiceConfig::default_config()
    };
    let mut svc = ServiceCore::new(cfg).unwrap();
    svc.register_ckks_tenant(0, ctx.clone(), t0.galois.clone())
        .unwrap();
    svc.register_ckks_tenant(1, ctx.clone(), t1.galois.clone())
        .unwrap();
    for i in 0..16i64 {
        svc.submit(
            (i % 2) as usize,
            Workload::Rotation {
                ct: [&t0, &t1][(i % 2) as usize].input.clone(),
                step: 1 + (i % 2),
                deadline: 100,
            },
        )
        .unwrap();
    }
    for i in 0..24i64 {
        svc.submit(
            (i % 2) as usize,
            Workload::Analytics {
                ct: [&t0, &t1][(i % 2) as usize].input.clone(),
                steps: vec![1 + (i % 2)],
            },
        )
        .unwrap();
    }
    svc.run_until_idle();
    let jsonl = svc.audit().to_jsonl();
    let prefix: Vec<_> = parse_dispatches(&jsonl)
        .into_iter()
        .take_while(|d| d.pending[1] > 0 && d.pending[2] > 0)
        .collect();
    assert!(prefix.len() >= 20, "short prefix: {}", prefix.len());
    for (lane, min) in [(Lane::Timed, 30usize), (Lane::Bulk, 50)] {
        let count = prefix.iter().filter(|d| d.lane == lane.name()).count();
        let share = count * 100 / prefix.len();
        assert!(share + 10 >= min, "{} got {share}% < {min}%", lane.name());
    }

    // Starvation: all-slack budgets, threshold 3 — priority alone
    // would serve Timed forever, so Bulk must be force-served.
    let cfg = ServiceConfig {
        budgets: LaneBudgets {
            interactive_min: 0,
            timed_min: 0,
            bulk_min: 0,
        },
        starvation: StarvationPolicy { max_wait_ticks: 3 },
        max_batch: 1,
        key_cache_bytes: 1 << 30,
        ..ServiceConfig::default_config()
    };
    let mut svc = ServiceCore::new(cfg).unwrap();
    svc.register_ckks_tenant(0, ctx.clone(), t0.galois.clone())
        .unwrap();
    svc.register_ckks_tenant(1, ctx.clone(), t1.galois.clone())
        .unwrap();
    for i in 0..6i64 {
        svc.submit(
            0,
            Workload::Rotation {
                ct: t0.input.clone(),
                step: 1 + (i % 2),
                deadline: 100,
            },
        )
        .unwrap();
    }
    let bulk = svc
        .submit(
            1,
            Workload::Analytics {
                ct: t1.input.clone(),
                steps: vec![1],
            },
        )
        .unwrap();
    svc.run_until_idle();
    assert!(svc.take_result(bulk).is_some());
    let starved: Vec<_> = svc
        .audit()
        .events()
        .filter_map(|e| match e {
            AuditEvent::Starvation { lane, waited, .. } => Some((*lane, *waited)),
            _ => None,
        })
        .collect();
    assert_eq!(
        starved,
        vec![(Lane::Bulk, 4)],
        "bulk not force-served one past threshold"
    );
}
