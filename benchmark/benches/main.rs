//! `trinity-benchmark`: five seeded workloads over the Trinity FHE
//! stack, measured end to end and layer by layer from the outside.
//!
//! One workload per process:
//!
//! ```text
//! trinity-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! prints the metrics by name and, as the last line of standard output,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` measures the end-to-end metrics over as many untraced
//! repetitions as fit in `--seconds`; `--trace 1` adds one traced
//! repetition and reports the per-layer metrics. `--suite` and
//! `--selfcheck` run every workload in child processes (see
//! `suite.rs`). The README has the catalogue.

mod harness;
mod json;
mod library;
mod probes;
mod service;
mod span;
mod suite;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{
    fold, loadavg1, math_metrics, median, ms, nproc, percentile, spread, Metrics, RepOut, Workload,
    END_TO_END, PER_LAYER, WORKLOADS,
};
use span::{SpanBackend, Tracer};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Tracing may slow the measured phase by this share before the
/// per-layer numbers stop describing the untraced program.
const MAX_TRACE_OVERHEAD: f64 = 0.15;
/// Untraced/traced pairs a traced run makes at most.
const MAX_TRACE_PAIRS: usize = 4;
/// The measured spans must add up to the phase clock within this.
const MAX_RECONCILE_GAP: f64 = 0.02;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where trace and result files go; nothing is written without it.
    pub out: Option<PathBuf>,
    /// `BENCHMARK.json`, for `--selfcheck`.
    pub bounds: Option<PathBuf>,
    pub suite: bool,
    pub selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 18,
        trace: false,
        out: None,
        bounds: None,
        suite: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--bounds" => args.bounds = Some(PathBuf::from(value()?)),
            "--suite" => args.suite = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}; one of {WORKLOADS:?}"));
        }
    }
    Ok(args)
}

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "lib_bootstrap" => Box::new(library::Boot::setup(seed)),
        "lib_hybrid" => Box::new(library::Hybrid::setup(seed)),
        svc => Box::new(service::Svc::setup(svc, seed)),
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The outcome of a run: the result line's fields.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Whether every repetition produced the same result bits and the same
/// deterministic by-products as the first.
fn reps_agree(reps: &[&RepOut]) -> bool {
    reps.windows(2)
        .all(|w| w[0].checks == w[1].checks && w[0].fingerprint == w[1].fingerprint)
}

fn run_untraced(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut w = None;
    for _ in 0..SETUPS {
        // One set of keys at a time, so the peak is one set-up's.
        drop(w.take());
        let t = Instant::now();
        w = Some(setup(workload, seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let w = w.expect("SETUPS > 0");

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let t = Instant::now();
        reps.push(w.rep(&mut Tracer::new(false)));
        // Another repetition when more than half of it still fits.
        if start.elapsed() + t.elapsed() / 2 >= budget {
            break;
        }
    }
    let rss = peak_rss_mb();

    let throughput: Vec<f64> = reps.iter().map(RepOut::jobs_per_s).collect();
    let p50: Vec<f64> = reps.iter().map(RepOut::p50_ms).collect();
    let folded = fold(&reps);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setups));
    if let Some(c) = &folded {
        metrics.set("jobs_per_s", c.jobs_per_s());
        metrics.set("job_p50_ms", c.p50_ms());
    }
    metrics.set("peak_rss_mb", rss);

    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let agree = reps_agree(&reps.iter().collect::<Vec<_>>()) && folded.is_some();
    println!(
        "{workload} seed {seed}: {} repetitions of {} jobs, {} samples behind each job_p50_ms; \
         per repetition jobs_per_s {throughput:.3?} (spread {:.4}) job_p50_ms {p50:.2?} \
         (spread {:.4}); set-ups {setups:.3?} s; measured {:.2} s of {:.2} s",
        reps.len(),
        reps[0].jobs,
        reps[0].headline.len(),
        spread(&throughput),
        spread(&p50),
        reps.iter().map(|r| r.wall().as_secs_f64()).sum::<f64>(),
        start.elapsed().as_secs_f64(),
    );
    if !agree {
        println!("FAIL: repetitions disagree on result bits or audit bytes");
    }
    Outcome {
        correct: failed == 0 && agree,
        attempted,
        failed,
        metrics,
    }
}

fn run_traced(workload: &str, seed: u64, out_dir: Option<&PathBuf>) -> Outcome {
    let w = setup(workload, seed);
    // Untraced and traced passes alternate and are folded call by call
    // like the end-to-end repetitions, so that a slow spell of the host
    // does not read as tracing overhead. Two pairs; while the folded
    // overhead still reads above the guard, up to two more. The
    // per-layer numbers come from the last traced pass.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (tracer, folded) = loop {
        untraced.push(w.rep(&mut Tracer::new(false)));
        let (rep, tracer) = traced_rep(w.as_ref());
        traced.push(rep);
        let folded = fold(&untraced).zip(fold(&traced));
        let settled = folded.as_ref().is_none_or(|(u, t)| {
            t.wall().as_secs_f64() <= (1.0 + MAX_TRACE_OVERHEAD) * u.wall().as_secs_f64()
        });
        if traced.len() >= 2 && (settled || traced.len() == MAX_TRACE_PAIRS) {
            break (tracer, folded);
        }
    };
    // Repetitions of different shapes do not fold; the run is then not
    // correct, and the walls read 0.
    let (untraced_wall, traced_wall, overhead) =
        folded
            .as_ref()
            .map_or((Duration::ZERO, Duration::ZERO, 0.0), |(u, t)| {
                let overhead = t.wall().as_secs_f64() / u.wall().as_secs_f64() - 1.0;
                (u.wall(), t.wall(), overhead)
            });
    let rep = traced.last().expect("at least two traced passes");

    let mut m = Metrics::default();
    let excluded = w.excluded_spans();
    let kernels = tracer.kernels_where(|name| !excluded.contains(&name));
    math_metrics(&kernels, rep.wall(), &mut m);
    probes::math(&mut m);
    let oracle_ok = w.layers(&tracer, untraced_wall, &untraced[0].checks, &mut m);
    let residual = 1.0 - m.get("math.kernel_share") - m.get("service.self_share");
    m.set("math.residual_share", residual);

    let gap =
        (rep.phase.as_secs_f64() - rep.excluded.as_secs_f64()) / rep.wall().as_secs_f64() - 1.0;
    let all: Vec<&RepOut> = untraced.iter().chain(&traced).collect();
    let agree = reps_agree(&all) && folded.is_some();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    m.set("bench.jobs", rep.jobs as f64);
    m.set("bench.job_p90_ms", percentile(&rep.headline_ms(), 0.9));
    m.set("bench.job_samples", rep.headline.len() as f64);
    m.set("bench.traced_wall_ms", ms(traced_wall));
    m.set("bench.untraced_wall_ms", ms(untraced_wall));
    m.set("bench.trace_overhead_share", overhead);
    let spread_of = |f: fn(&RepOut) -> f64| spread(&untraced.iter().map(f).collect::<Vec<_>>());
    m.set(
        "bench.rep_spread",
        spread_of(RepOut::jobs_per_s).max(spread_of(RepOut::p50_ms)),
    );
    m.set("bench.reconcile_gap_share", gap);
    m.set("bench.spans", tracer.spans().len() as f64);
    m.set("bench.nproc", nproc() as f64);
    m.set("bench.loadavg1", loadavg1());
    m.set("bench.fail_share", failed as f64 / attempted as f64);
    m.set("bench.counts_repeat", f64::from(u8::from(agree)));
    m.set("bench.results_repeat", f64::from(u8::from(oracle_ok)));

    if let Some(dir) = out_dir {
        let path = dir.join(format!("trace-{workload}.jsonl"));
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_jsonl()))
        {
            eprintln!("could not write {}: {e}", path.display());
        }
    }

    let mut correct = failed == 0 && agree && oracle_ok;
    for (what, bad) in [
        ("repetitions disagree on result bits or audit bytes", !agree),
        (
            "results differ from the isolated library replay",
            !oracle_ok,
        ),
        ("tracing overhead above 0.15", overhead > MAX_TRACE_OVERHEAD),
        (
            "spans and phase clock differ by more than 2 %",
            gap.abs() > MAX_RECONCILE_GAP,
        ),
    ] {
        if bad {
            println!("FAIL: {what}");
            correct = false;
        }
    }
    Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    }
}

/// One repetition under the span backend and a recording tracer.
fn traced_rep(w: &dyn Workload) -> (RepOut, Tracer) {
    let backend = SpanBackend::install();
    let mut tracer = Tracer::new(true);
    let (rep, _) = tracer.span("phase", None, |t| w.rep(t));
    backend.uninstall();
    (rep, tracer)
}

fn run_one(args: &Args, workload: &str) -> ExitCode {
    let (outcome, catalogue): (Outcome, &[(&str, &str)]) = if args.trace {
        (
            run_traced(workload, args.seed, args.out.as_ref()),
            &PER_LAYER,
        )
    } else {
        (run_untraced(workload, args.seed, args.seconds), &END_TO_END)
    };
    for (name, unit) in catalogue {
        let v = outcome.metrics.get(name);
        println!("{workload:<14} {name:<36} {v:>16.4} {unit}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json(catalogue)
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trinity-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return suite::selfcheck(&args);
    }
    match &args.workload {
        Some(workload) if !args.suite => run_one(&args, workload),
        _ => suite::run(&args),
    }
}
