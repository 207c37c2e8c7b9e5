//! What every workload shares: the repetition result, the metric
//! catalogue, and the small statistics the report needs.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Duration;

use trinity::ckks::Ciphertext;

use crate::span::{Class, KernelAcc, Tracer};

/// Keys, encryption randomness and probe inputs come from this seed,
/// never from the workload seed.
pub const KEY_SEED: u64 = 77;

/// The rotation steps every CKKS tenant holds Galois keys for: what
/// `traffic::stream` draws from.
pub const ROTATION_STEPS: [i64; 8] = [1, -1, 2, -2, 3, -3, 4, -4];

/// The five workloads; the names are permanent.
pub const WORKLOADS: [&str; 5] = [
    "svc_mixed",
    "svc_light",
    "svc_rotations",
    "lib_bootstrap",
    "lib_hybrid",
];

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 86] = [
    ("math.ntt_fwd_ms", "ms"),
    ("math.ntt_inv_ms", "ms"),
    ("math.mac_ms", "ms"),
    ("math.bconv_ms", "ms"),
    ("math.auto_ms", "ms"),
    ("math.fold_ms", "ms"),
    ("math.decompose_ms", "ms"),
    ("math.ewise_ms", "ms"),
    ("math.ntt_rows", "count"),
    ("math.mac_rows", "count"),
    ("math.bconv_rows", "count"),
    ("math.auto_rows", "count"),
    ("math.decompose_rows", "count"),
    ("math.kernel_calls", "count"),
    ("math.rows_per_call", "count"),
    ("math.kernel_share", "share"),
    ("math.residual_share", "share"),
    ("math.scratch_retained_words", "count"),
    ("math.pool_roundtrip_us", "us"),
    ("math.threaded_speedup", "x"),
    ("ckks.keyswitch_ms", "ms"),
    ("ckks.rotate_ms", "ms"),
    ("ckks.coalesced4_ms", "ms"),
    ("ckks.hmult_rescale_ms", "ms"),
    ("ckks.hoisted8_ms", "ms"),
    ("ckks.bootstrap_ms", "ms"),
    ("ckks.residual_share", "share"),
    ("tfhe.gate_ms", "ms"),
    ("tfhe.gates_batched4_ms", "ms"),
    ("tfhe.pbs_predicate_ms", "ms"),
    ("tfhe.external_product_us", "us"),
    ("tfhe.lwe_keyswitch_ms", "ms"),
    ("tfhe.residual_share", "share"),
    ("convert.extract8_us", "us"),
    ("convert.mod_switch_us", "us"),
    ("convert.ring_embed_ms", "ms"),
    ("convert.pack8_ms", "ms"),
    ("service.submit_us", "us"),
    ("service.dispatch_ms.interactive", "ms"),
    ("service.dispatch_ms.timed", "ms"),
    ("service.dispatch_ms.bulk", "ms"),
    ("service.overhead_share", "share"),
    ("service.self_share", "share"),
    ("service.speedup_vs_isolated", "x"),
    ("service.inflight2_speedup", "x"),
    ("service.lat_p50_ms.interactive", "ms"),
    ("service.lat_p50_ms.timed", "ms"),
    ("service.lat_p50_ms.bulk", "ms"),
    ("service.lat_p90_ms.interactive", "ms"),
    ("service.lat_p90_ms.timed", "ms"),
    ("service.lat_p90_ms.bulk", "ms"),
    ("service.lat_samples.interactive", "count"),
    ("service.lat_samples.timed", "count"),
    ("service.lat_samples.bulk", "count"),
    ("service.timed_miss_share", "share"),
    ("service.dispatches", "count"),
    ("service.ticks", "count"),
    ("service.width_mean.interactive", "count"),
    ("service.width_mean.timed", "count"),
    ("service.width_mean.bulk", "count"),
    ("service.coalesced_share", "share"),
    ("service.wait_ticks_p90.interactive", "count"),
    ("service.wait_ticks_p90.timed", "count"),
    ("service.wait_ticks_p90.bulk", "count"),
    ("service.starvations", "count"),
    ("service.rejected", "count"),
    ("service.max_pending", "count"),
    ("service.audit_bytes", "count"),
    ("service.audit_render_ms", "ms"),
    ("service.key_cache_mb", "MB"),
    ("traffic.gen_ms", "ms"),
    ("traffic.events", "count"),
    ("bench.jobs", "count"),
    ("bench.job_p90_ms", "ms"),
    ("bench.job_samples", "count"),
    ("bench.traced_wall_ms", "ms"),
    ("bench.untraced_wall_ms", "ms"),
    ("bench.trace_overhead_share", "share"),
    ("bench.rep_spread", "share"),
    ("bench.reconcile_gap_share", "share"),
    ("bench.spans", "count"),
    ("bench.nproc", "count"),
    ("bench.loadavg1", "count"),
    ("bench.fail_share", "share"),
    ("bench.counts_repeat", "count"),
    ("bench.results_repeat", "count"),
];

/// The per-layer metrics that are counts made by the program: they
/// must repeat exactly between two runs of one commit and one seed.
pub fn is_exact_count(name: &str) -> bool {
    matches!(
        name,
        "math.ntt_rows"
            | "math.mac_rows"
            | "math.bconv_rows"
            | "math.auto_rows"
            | "math.decompose_rows"
            | "math.kernel_calls"
            | "math.rows_per_call"
            | "service.timed_miss_share"
            | "service.dispatches"
            | "service.ticks"
            | "service.coalesced_share"
            | "service.starvations"
            | "service.rejected"
            | "service.max_pending"
            | "service.audit_bytes"
            | "traffic.events"
            | "bench.jobs"
            | "bench.fail_share"
            | "bench.counts_repeat"
            | "bench.results_repeat"
    ) || name.starts_with("service.width_mean.")
        || name.starts_with("service.wait_ticks_p90.")
        || name.starts_with("service.lat_samples.")
}

/// Named values, filled by a run and printed in catalogue order.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// # Panics
    ///
    /// Panics when `name` is in neither catalogue: a misspelt metric
    /// would otherwise silently read 0.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.0.insert(name, value);
    }

    /// The value of `name`; 0 when the run did not set it, or set it
    /// to something JSON cannot carry.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0)
    }

    /// The `metrics` object of the result line, over `catalogue`.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> String {
        let body: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    self.get(name)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// What one repetition of a workload's measured phase produced.
#[derive(Debug, Default)]
pub struct RepOut {
    /// Duration of every measured call (a submit, a dispatch, a result
    /// hand-over, a library job), in order. Their sum is the measured
    /// wall: client-side work and verification are outside it.
    pub calls: Vec<Duration>,
    /// Per request of the workload's headline class, the first and the
    /// last call its latency covers.
    pub headline: Vec<(usize, usize)>,
    /// Wall of the whole phase, excluded spans included.
    pub phase: Duration,
    /// Time in the excluded spans.
    pub excluded: Duration,
    /// Verified units of work: a gate, a rotation step, a bootstrap
    /// iteration or a hybrid query.
    pub jobs: u64,
    pub attempted: u64,
    pub failed: u64,
    /// One checksum per request, over the bits of its result.
    pub checks: Vec<u64>,
    /// Checksum of everything else that must repeat exactly between
    /// repetitions (the service's audit bytes).
    pub fingerprint: u64,
}

impl RepOut {
    pub fn wall(&self) -> Duration {
        self.calls.iter().sum()
    }

    /// Latencies of the headline requests, ms.
    pub fn headline_ms(&self) -> Vec<f64> {
        self.headline
            .iter()
            .map(|&(from, to)| ms(self.calls[from..=to].iter().sum()))
            .collect()
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall().as_secs_f64()
    }

    pub fn p50_ms(&self) -> f64 {
        percentile(&self.headline_ms(), 0.5)
    }
}

/// The repetitions of one run folded into one: call `k` does the same
/// work in every repetition (the phase is a deterministic function of
/// the seed), so its duration is taken as the minimum over the
/// repetitions; wall and latencies follow from those. Only `calls`,
/// `headline` and `jobs` of the result mean anything.
///
/// The minimum and not the median because the reference host's noise
/// is one-sided: a sharp floor (a Set-I gate: 67 ms) under slow spells
/// of +20..70 % that last from half a second to minutes and cover a
/// third to a half of the time. No repetition is clean from end to end,
/// and at a given call the median over a dozen repetitions is still a
/// disturbed one in a fifth of the runs. The least disturbed
/// observation of a deterministic call describes the program; the
/// others describe the neighbours.
///
/// `None` when the repetitions differ in shape: then they are not
/// repetitions of one computation, and the run is not correct.
pub fn fold(reps: &[RepOut]) -> Option<RepOut> {
    let first = reps.first()?;
    if reps
        .iter()
        .any(|r| r.calls.len() != first.calls.len() || r.headline != first.headline)
    {
        return None;
    }
    Some(RepOut {
        calls: (0..first.calls.len())
            .map(|k| reps.iter().map(|r| r.calls[k]).min().unwrap_or_default())
            .collect(),
        headline: first.headline.clone(),
        jobs: first.jobs,
        ..RepOut::default()
    })
}

/// A workload after set-up: keys, contexts and inputs are ready.
pub trait Workload {
    /// Runs the measured phase once, on a fresh service or loop state.
    fn rep(&self, tracer: &mut Tracer) -> RepOut;

    /// Per-layer metrics of this workload's own layers, from the traced
    /// repetition and from probe calls. `untraced_wall` and `checks`
    /// are the wall and the result checksums of the untraced
    /// repetitions, to compare against. Returns whether the results
    /// were bit-identical to the isolated library replay (true where
    /// the workload is the library).
    fn layers(
        &self,
        traced: &Tracer,
        untraced_wall: Duration,
        checks: &[u64],
        out: &mut Metrics,
    ) -> bool;

    /// Span names that are outside the measured wall.
    fn excluded_spans(&self) -> &'static [&'static str];
}

/// CPUs this process may run on; results taken on different counts
/// are not comparable.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host's one-minute load average; 0 where `/proc` has none.
pub fn loadavg1() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile of unsorted `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median as the mean of the middle pair; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median`; 0 for fewer than two values.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values)
}

/// Median duration of `n` calls of `f`, after one warm-up call.
pub fn probe<R>(n: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f());
    let mut samples: Vec<Duration> = (0..n)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// A hash of a result's words (or of the audit's bytes), so that
/// repetitions and the isolated replay can be compared bit for bit
/// without keeping the results. `DefaultHasher::new()` has fixed keys.
pub fn checksum<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

pub fn ct_checksum(ct: &Ciphertext) -> u64 {
    checksum(&(ct.c0.flat(), ct.c1.flat()))
}

/// Fills the `math.*` busy-time and count metrics from kernel work.
pub fn math_metrics(k: &KernelAcc, wall: Duration, out: &mut Metrics) {
    let busy = |c: Class| k.get(c).ns as f64 / 1e6;
    out.set("math.ntt_fwd_ms", busy(Class::NttFwd));
    out.set("math.ntt_inv_ms", busy(Class::NttInv));
    out.set("math.mac_ms", busy(Class::Mac));
    out.set("math.bconv_ms", busy(Class::Bconv));
    out.set("math.auto_ms", busy(Class::Auto));
    out.set("math.fold_ms", busy(Class::Fold));
    out.set("math.decompose_ms", busy(Class::Decompose));
    out.set("math.ewise_ms", busy(Class::Ewise));
    let rows = |c: Class| k.get(c).rows as f64;
    out.set("math.ntt_rows", rows(Class::NttFwd) + rows(Class::NttInv));
    out.set("math.mac_rows", rows(Class::Mac));
    out.set("math.bconv_rows", rows(Class::Bconv));
    out.set("math.auto_rows", rows(Class::Auto));
    out.set("math.decompose_rows", rows(Class::Decompose));
    out.set("math.kernel_calls", k.calls() as f64);
    out.set(
        "math.rows_per_call",
        k.rows() as f64 / (k.calls() as f64).max(1.0),
    );
    out.set(
        "math.kernel_share",
        k.busy_ns() as f64 / wall.as_nanos() as f64,
    );
}
