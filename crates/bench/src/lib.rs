//! # trinity-bench — regenerates every table and figure of the paper
//!
//! One function per experiment (`fig1` .. `fig16`, `table6` ..
//! `table12`). Each returns structured [`Row`]s — name,
//! [`Source`] provenance
//! (`Paper` transcribed / `Modeled` simulated / `Measured` host
//! wall-clock), values — which the `paper_tables` bench target
//! renders; the test suite asserts the reproduced *shapes* (who wins,
//! by roughly what factor) against the published numbers in
//! [`trinity_workloads::reference`], so a model regression that flips
//! a paper conclusion fails `cargo test`.
//!
//! Three bench targets (see this crate's README for the group map):
//!
//! ```sh
//! cargo bench -p trinity-bench --bench paper_tables  # Tables VI-XII, Figs. 1-16
//! cargo bench -p trinity-bench --bench ablations     # sensitivity sweeps
//! cargo bench -p trinity-bench --bench micro         # CPU kernel micros
//! cargo bench -p trinity-bench --bench micro -- keyswitch   # substring filter
//! ```
//!
//! The `micro` target keeps only the tiers and shapes `benchmark/`
//! does not probe; keyswitch, rotation, HMult, gate, external-product,
//! bootstrap and repacking costs are `benchmark/` metrics
//! (`ckks.keyswitch_ms`, `tfhe.gate_ms`, ...). Its `lazy_scalar_*` tier
//! swaps the process-wide kernel backend with `fhe_math::kernel::force`
//! around its measurement; the workspace `tests/backend_identity.rs`
//! asserts the swapped backends are bit-identical, so the tier measures
//! row bodies, never different arithmetic. Simulated (`Modeled`) rows are
//! deterministic; `Measured` rows are host wall-clock under
//! `[profile.bench]` and inherit the functional crates' lazy-domain
//! discipline (one fold per limb at chain boundaries — see
//! `ARCHITECTURE.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;

use trinity_core::arch::AcceleratorConfig;
use trinity_core::kernel::KernelGraph;
use trinity_core::mapping::{build_machine, Machine, MappingPolicy};
use trinity_core::ntt_engine::{utilization_sweep, NttEngineModel};
use trinity_core::sched::{simulate, SimResult};
use trinity_workloads::reference::Source;
use trinity_workloads::*;

/// A generic numeric table row: name, provenance, values.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label.
    pub name: String,
    /// Where the numbers come from.
    pub source: Source,
    /// Values (column meaning is table-specific). `NaN` = not reported.
    pub values: Vec<f64>,
}

impl Row {
    fn new(name: &str, source: Source, values: Vec<f64>) -> Self {
        Self {
            name: name.into(),
            source,
            values,
        }
    }
}

/// Pretty-prints a table.
pub fn print_table(title: &str, columns: &[&str], rows: &[Row]) {
    println!("\n=== {title} ===");
    print!("{:<30} {:>9}", "design", "source");
    for c in columns {
        print!(" {c:>14}");
    }
    println!();
    for r in rows {
        print!("{:<30} {:>9}", r.name, r.source.to_string());
        for v in &r.values {
            if v.is_nan() {
                print!(" {:>14}", "-");
            } else if *v >= 1000.0 {
                print!(" {:>14.0}", v);
            } else {
                print!(" {:>14.3}", v);
            }
        }
        println!();
    }
}

/// Machines used across experiments.
pub struct Machines {
    /// Trinity in CKKS mode.
    pub trinity_ckks: Machine,
    /// Trinity in TFHE mode.
    pub trinity_tfhe: Machine,
    /// Trinity with inner product on the EWE (ablation).
    pub trinity_ip_ewe: Machine,
    /// Trinity with fixed NTT + systolic array (ablation).
    pub trinity_no_cu: Machine,
    /// SHARP.
    pub sharp: Machine,
    /// ARK.
    pub ark: Machine,
    /// Strix.
    pub strix: Machine,
    /// Morphling at 1.2 GHz.
    pub morphling: Machine,
    /// Morphling clocked at 1 GHz.
    pub morphling_1ghz: Machine,
}

impl Machines {
    /// Builds all evaluation machines.
    pub fn build() -> Self {
        Self {
            trinity_ckks: build_machine(&AcceleratorConfig::trinity(), MappingPolicy::CkksAdaptive),
            trinity_tfhe: build_machine(&AcceleratorConfig::trinity(), MappingPolicy::TfheAdaptive),
            trinity_ip_ewe: build_machine(
                &AcceleratorConfig::trinity(),
                MappingPolicy::CkksIpUseEwe,
            ),
            trinity_no_cu: build_machine(
                &AcceleratorConfig::trinity_tfhe_without_cu(),
                MappingPolicy::TfheFixed,
            ),
            sharp: build_machine(&AcceleratorConfig::sharp(), MappingPolicy::Baseline),
            ark: build_machine(&AcceleratorConfig::ark(), MappingPolicy::Baseline),
            strix: build_machine(&AcceleratorConfig::strix(), MappingPolicy::Baseline),
            morphling: build_machine(&AcceleratorConfig::morphling(), MappingPolicy::Baseline),
            morphling_1ghz: build_machine(
                &AcceleratorConfig::morphling_at_freq(1.0),
                MappingPolicy::Baseline,
            ),
        }
    }
}

/// Fig. 1 — utilization of F1-like vs FAB-like NTT engines across
/// polynomial lengths `2^8..2^16`.
pub fn fig1() -> Vec<Row> {
    let f1 = utilization_sweep(&NttEngineModel::f1_like());
    let fab = utilization_sweep(&NttEngineModel::fab_like());
    vec![
        Row::new(
            "F1-like NTT",
            Source::Modeled,
            f1.iter().map(|(_, u)| *u).collect(),
        ),
        Row::new(
            "FAB-like NTT",
            Source::Modeled,
            fab.iter().map(|(_, u)| *u).collect(),
        ),
    ]
}

/// Fig. 9 — Trinity's NTT utilization vs F1-like.
pub fn fig9() -> Vec<Row> {
    let f1 = utilization_sweep(&NttEngineModel::f1_like());
    let tr = utilization_sweep(&NttEngineModel::trinity());
    vec![
        Row::new(
            "F1-like NTT",
            Source::Modeled,
            f1.iter().map(|(_, u)| *u).collect(),
        ),
        Row::new(
            "Trinity NTT",
            Source::Modeled,
            tr.iter().map(|(_, u)| *u).collect(),
        ),
    ]
}

/// Fig. 2 — NTT vs MAC computational breakdown (CKKS KeySwitch at
/// L=23/dnum=3 and PBS under Sets I-III). Values: modeled NTT share %,
/// paper NTT share %.
pub fn fig2() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut shape = CkksShape::paper_default();
    shape.levels = 23;
    let mut g = KernelGraph::new();
    ckks_ops::keyswitch(&mut g, &shape, 23, &[], KeySwitchOpts::default());
    rows.push(Row::new(
        "CKKS KeySwitch",
        Source::Modeled,
        vec![g.modmul_breakdown().ntt_fraction() * 100.0, 59.2],
    ));
    for ((name, s), paper) in TfheShape::paper_sets().iter().zip([75.6, 74.5, 76.3]) {
        let mut g = KernelGraph::new();
        pbs(&mut g, s, &[], false);
        rows.push(Row::new(
            &format!("PBS {name}"),
            Source::Modeled,
            vec![g.modmul_breakdown().ntt_fraction() * 100.0, paper],
        ));
    }
    rows
}

/// Simulated CKKS application latencies (the modeled rows of Table VI).
pub struct CkksAppResults {
    /// Bootstrap on (Trinity, SHARP, Trinity-IP-use-EWE).
    pub bootstrap: (SimResult, SimResult, SimResult),
    /// HELR iteration.
    pub helr: (SimResult, SimResult, SimResult),
    /// ResNet-20.
    pub resnet: (SimResult, SimResult, SimResult),
    /// The same three applications on ARK (Bootstrap, HELR, ResNet).
    pub ark: (SimResult, SimResult, SimResult),
}

/// Runs the three CKKS applications on Trinity, SHARP and the IP-on-EWE
/// ablation.
pub fn ckks_apps(machines: &Machines) -> CkksAppResults {
    let shape = CkksShape::paper_default();
    let gb = bootstrap(&shape);
    let gh = helr(&shape);
    let gr = resnet20(&shape);
    let run = |g: &KernelGraph| {
        (
            simulate(&machines.trinity_ckks, g),
            simulate(&machines.sharp, g),
            simulate(&machines.trinity_ip_ewe, g),
        )
    };
    CkksAppResults {
        bootstrap: run(&gb),
        helr: run(&gh),
        resnet: run(&gr),
        ark: (
            simulate(&machines.ark, &gb),
            simulate(&machines.ark, &gh),
            simulate(&machines.ark, &gr),
        ),
    }
}

/// Table VI — CKKS workload latencies in ms (Bootstrap, HELR, ResNet-20).
pub fn table6(apps: &CkksAppResults) -> Vec<Row> {
    let mut rows: Vec<Row> = reference::TABLE_VI
        .iter()
        .filter(|(name, ..)| *name != "SHARP" && *name != "Trinity")
        .map(|(name, b, h, r)| Row::new(name, Source::Paper, vec![*b, *h, *r]))
        .collect();
    rows.push(Row::new(
        "ARK",
        Source::Modeled,
        vec![apps.ark.0.time_ms, apps.ark.1.time_ms, apps.ark.2.time_ms],
    ));
    rows.push(Row::new(
        "SHARP (paper)",
        Source::Paper,
        vec![3.12, 2.53, 99.0],
    ));
    rows.push(Row::new(
        "SHARP",
        Source::Modeled,
        vec![
            apps.bootstrap.1.time_ms,
            apps.helr.1.time_ms,
            apps.resnet.1.time_ms,
        ],
    ));
    rows.push(Row::new(
        "Trinity (paper)",
        Source::Paper,
        vec![1.92, 1.37, 89.0],
    ));
    rows.push(Row::new(
        "Trinity",
        Source::Modeled,
        vec![
            apps.bootstrap.0.time_ms,
            apps.helr.0.time_ms,
            apps.resnet.0.time_ms,
        ],
    ));
    rows
}

/// Simulated PBS throughput for a machine (OPS).
pub fn pbs_throughput(machine: &Machine, shape: &TfheShape, batch: usize) -> f64 {
    let mut g = KernelGraph::new();
    pbs_batch(&mut g, shape, batch);
    simulate(machine, &g).ops_per_second(batch)
}

/// Table VII — PBS throughput (OPS) under Sets I-III.
pub fn table7(machines: &Machines, batch: usize) -> Vec<Row> {
    let mut rows: Vec<Row> = reference::TABLE_VII
        .iter()
        .filter(|(name, ..)| !name.starts_with("Trinity") && !name.starts_with("Morphling"))
        .map(|(name, a, b, c)| Row::new(name, Source::Paper, vec![*a, *b, *c]))
        .collect();
    let sets = TfheShape::paper_sets();
    let sweep = |m: &Machine| -> Vec<f64> {
        sets.iter()
            .map(|(_, s)| pbs_throughput(m, s, batch))
            .collect()
    };
    rows.push(Row::new("Strix", Source::Modeled, sweep(&machines.strix)));
    rows.push(Row::new(
        "Morphling (paper)",
        Source::Paper,
        vec![147_615.0, 78_692.0, 41_850.0],
    ));
    rows.push(Row::new(
        "Morphling",
        Source::Modeled,
        sweep(&machines.morphling),
    ));
    rows.push(Row::new(
        "Morphling-1GHz",
        Source::Modeled,
        sweep(&machines.morphling_1ghz),
    ));
    rows.push(Row::new(
        "Trinity w/o CU",
        Source::Modeled,
        sweep(&machines.trinity_no_cu),
    ));
    rows.push(Row::new(
        "Trinity (paper)",
        Source::Paper,
        vec![600_060.0, 340_136.0, 180_987.0],
    ));
    rows.push(Row::new(
        "Trinity",
        Source::Modeled,
        sweep(&machines.trinity_tfhe),
    ));
    rows
}

/// Table VIII — NN-20/50/100 latencies in ms.
pub fn table8(machines: &Machines) -> Vec<Row> {
    let mut rows: Vec<Row> = reference::TABLE_VIII
        .iter()
        .filter(|(name, ..)| *name != "Trinity")
        .map(|(name, sec, a, b, c)| {
            Row::new(&format!("{name} [{sec}]"), Source::Paper, vec![*a, *b, *c])
        })
        .collect();
    // NN-x runs under Set-II; affine layers on the VPU.
    let ops = pbs_throughput(&machines.trinity_tfhe, &TfheShape::set_ii(), 64);
    rows.push(Row::new(
        "Trinity (paper) [128-bit]",
        Source::Paper,
        vec![69.86, 146.26, 277.13],
    ));
    rows.push(Row::new(
        "Trinity [128-bit]",
        Source::Modeled,
        [20usize, 50, 100]
            .iter()
            .map(|&layers| NnRecipe::new(layers).latency_ms(ops, 0.05))
            .collect(),
    ));
    rows
}

/// Table IX — scheme conversion (repacking) latency in ms for
/// nslot = 2, 8, 32.
pub fn table9(machines: &Machines) -> Vec<Row> {
    let shape = CkksShape::conversion_benchmark();
    let mut rows: Vec<Row> = reference::TABLE_IX
        .iter()
        .map(|(name, a, b, c)| {
            Row::new(
                &format!("{name}{}", if *name == "Trinity" { " (paper)" } else { "" }),
                Source::Paper,
                vec![*a, *b, *c],
            )
        })
        .collect();
    let vals: Vec<f64> = [2usize, 8, 32]
        .iter()
        .map(|&nslot| {
            let mut g = KernelGraph::new();
            repack(&mut g, &shape, nslot);
            simulate(&machines.trinity_ckks, &g).time_ms
        })
        .collect();
    rows.push(Row::new("Trinity", Source::Modeled, vals));
    rows
}

/// Repack latency on a given machine (used by Table X).
pub fn repack_ms(machine: &Machine, nslot: usize) -> f64 {
    let shape = CkksShape::conversion_benchmark();
    let mut g = KernelGraph::new();
    repack(&mut g, &shape, nslot);
    simulate(machine, &g).time_ms
}

/// Table X — hybrid HE3DB query latency in seconds.
pub fn table10(machines: &Machines) -> Vec<Row> {
    let mut rows: Vec<Row> = reference::TABLE_X
        .iter()
        .map(|(name, a, b)| {
            Row::new(
                &format!(
                    "{name}{}",
                    if name.contains("CPU") { "" } else { " (paper)" }
                ),
                Source::Paper,
                vec![*a, *b],
            )
        })
        .collect();
    let shape = CkksShape::conversion_benchmark();
    for (label, pbs_machine, conv_machine, two_chip) in [
        (
            "SHARP+Morphling",
            &machines.morphling,
            &machines.sharp,
            true,
        ),
        (
            "Trinity",
            &machines.trinity_tfhe,
            &machines.trinity_ckks,
            false,
        ),
    ] {
        let vals: Vec<f64> = [4096usize, 16384]
            .iter()
            .map(|&entries| {
                let recipe = He3dbRecipe::new(entries);
                let pbs_ops = pbs_throughput(pbs_machine, &TfheShape::set_i(), 64);
                let rp = repack_ms(conv_machine, recipe.pack_batch);
                let agg = simulate(conv_machine, &recipe.aggregation_graph(&shape)).time_ms;
                let ms = if two_chip {
                    // RLWE ciphertext bytes at the conversion level.
                    let rlwe_bytes = 2.0 * 9.0 * shape.n as f64 * shape.word_bytes;
                    recipe.latency_two_chip_ms(pbs_ops, rp, agg, rlwe_bytes, 128.0, 5.0)
                } else {
                    recipe.latency_ms(pbs_ops, rp, agg)
                };
                ms / 1e3
            })
            .collect();
        rows.push(Row::new(label, Source::Modeled, vals));
    }
    rows
}

/// Table XI — circuit area and power by component, plus totals.
pub fn table11() -> Vec<Row> {
    let budget = trinity_core::chip_budget(&AcceleratorConfig::trinity());
    let mut rows = Vec::new();
    for (label, count, unit) in &budget.rows {
        rows.push(Row::new(
            &format!("{count}x {label}"),
            Source::Modeled,
            vec![unit.area_mm2 * *count as f64, unit.power_w * *count as f64],
        ));
    }
    rows.push(Row::new(
        "cluster",
        Source::Modeled,
        vec![budget.cluster.area_mm2, budget.cluster.power_w],
    ));
    rows.push(Row::new(
        "4x cluster",
        Source::Modeled,
        vec![
            budget.clusters_total.area_mm2,
            budget.clusters_total.power_w,
        ],
    ));
    rows.push(Row::new(
        "inter-cluster NoC",
        Source::Modeled,
        vec![budget.inter_noc.area_mm2, budget.inter_noc.power_w],
    ));
    rows.push(Row::new(
        "scratchpad",
        Source::Modeled,
        vec![budget.scratchpad.area_mm2, budget.scratchpad.power_w],
    ));
    rows.push(Row::new(
        "HBM PHY",
        Source::Modeled,
        vec![budget.hbm_phy.area_mm2, budget.hbm_phy.power_w],
    ));
    rows.push(Row::new(
        "Total",
        Source::Modeled,
        vec![budget.total.area_mm2, budget.total.power_w],
    ));
    rows.push(Row::new(
        "Total (paper)",
        Source::Paper,
        vec![157.26, 229.36],
    ));
    rows
}

/// Table XII — cross-accelerator comparison
/// (word bits, freq GHz, BW GB/s, on-chip MB, area mm², power W).
pub fn table12() -> Vec<Row> {
    let mut rows: Vec<Row> = reference::TABLE_XII
        .iter()
        .map(|(name, bits, freq, bw, mem, _tech, area, power)| {
            Row::new(
                name,
                Source::Paper,
                vec![*bits as f64, *freq, *bw, *mem, *area, *power],
            )
        })
        .collect();
    let b = trinity_core::chip_budget(&AcceleratorConfig::trinity());
    rows.push(Row::new(
        "Trinity (modeled)",
        Source::Modeled,
        vec![36.0, 1.0, 1000.0, 191.0, b.total.area_mm2, b.total.power_w],
    ));
    rows
}

/// Fig. 10 — mean NTTU+EWE(+CU) utilization on CKKS apps, percent.
pub fn fig10(apps: &CkksAppResults) -> Vec<Row> {
    let util = |r: &SimResult, with_cu: bool| {
        let mut parts = vec![r.mean_utilization("NTTU"), r.mean_utilization("EWE")];
        if with_cu {
            parts.push(r.mean_utilization("CU-"));
        }
        parts.iter().sum::<f64>() / parts.len() as f64 * 100.0
    };
    vec![
        Row::new(
            "NTTU+EWE (IP-use-EWE)",
            Source::Modeled,
            vec![
                util(&apps.bootstrap.2, false),
                util(&apps.helr.2, false),
                util(&apps.resnet.2, false),
            ],
        ),
        Row::new(
            "NTTU+EWE+CU (Trinity)",
            Source::Modeled,
            vec![
                util(&apps.bootstrap.0, true),
                util(&apps.helr.0, true),
                util(&apps.resnet.0, true),
            ],
        ),
    ]
}

/// Fig. 11 — normalized latency of Trinity vs the IP-on-EWE ablation.
pub fn fig11(apps: &CkksAppResults) -> Vec<Row> {
    let norm = |t: &SimResult, e: &SimResult| t.time_ms / e.time_ms;
    vec![
        Row::new(
            "Trinity-CKKS-IP-use-EWE",
            Source::Modeled,
            vec![1.0, 1.0, 1.0],
        ),
        Row::new(
            "Trinity",
            Source::Modeled,
            vec![
                norm(&apps.bootstrap.0, &apps.bootstrap.2),
                norm(&apps.helr.0, &apps.helr.2),
                norm(&apps.resnet.0, &apps.resnet.2),
            ],
        ),
    ]
}

/// Fig. 12 — NTT+MAC utilization of the fixed vs flexible TFHE designs
/// under PBS (percent per set).
pub fn fig12(machines: &Machines, batch: usize) -> Vec<Row> {
    let mut fixed = Vec::new();
    let mut flex = Vec::new();
    for (_, s) in TfheShape::paper_sets() {
        let mut g = KernelGraph::new();
        pbs_batch(&mut g, &s, batch);
        let rf = simulate(&machines.trinity_no_cu, &g);
        let rx = simulate(&machines.trinity_tfhe, &g);
        fixed.push((rf.mean_utilization("NTTU") + rf.mean_utilization("SA")) / 2.0 * 100.0);
        flex.push((rx.mean_utilization("NTTU") + rx.mean_utilization("CU-")) / 2.0 * 100.0);
    }
    vec![
        Row::new("Trinity-TFHE w/o CU (NTTU+SA)", Source::Modeled, fixed),
        Row::new("Trinity-TFHE w/ CU (NTTU+CU)", Source::Modeled, flex),
    ]
}

/// Fig. 13 — per-component utilization within CKKS workloads (percent):
/// columns are Bootstrap, HELR, ResNet-20.
pub fn fig13(apps: &CkksAppResults) -> Vec<Row> {
    let comps = [
        "NTTU", "EWE", "AutoU", "CU-1", "CU-2a", "CU-2b", "CU-2c", "CU-2d", "CU-3",
    ];
    comps
        .iter()
        .map(|c| {
            Row::new(
                c,
                Source::Modeled,
                vec![
                    apps.bootstrap.0.mean_utilization(c) * 100.0,
                    apps.helr.0.mean_utilization(c) * 100.0,
                    apps.resnet.0.mean_utilization(c) * 100.0,
                ],
            )
        })
        .collect()
}

/// Fig. 14 — per-component utilization within TFHE PBS (percent):
/// columns are Set-I, Set-II, Set-III.
pub fn fig14(machines: &Machines, batch: usize) -> Vec<Row> {
    let comps = [
        "NTTU", "EWE", "CU-1", "CU-2a", "CU-2b", "CU-2c", "CU-2d", "CU-3", "Rotator", "VPU",
    ];
    let results: Vec<SimResult> = TfheShape::paper_sets()
        .iter()
        .map(|(_, s)| {
            let mut g = KernelGraph::new();
            pbs_batch(&mut g, s, batch);
            simulate(&machines.trinity_tfhe, &g)
        })
        .collect();
    comps
        .iter()
        .map(|c| {
            Row::new(
                c,
                Source::Modeled,
                results
                    .iter()
                    .map(|r| r.mean_utilization(c) * 100.0)
                    .collect(),
            )
        })
        .collect()
}

/// Fig. 15 — latency sensitivity to cluster count (normalized to 2
/// clusters). Columns: Bootstrap, HELR, NN-20.
pub fn fig15() -> Vec<Row> {
    let shape = CkksShape::paper_default();
    let gb = bootstrap(&shape);
    let gh = helr(&shape);
    let mut per_cluster: Vec<(usize, Vec<f64>)> = Vec::new();
    for clusters in [2usize, 4, 8] {
        let cfg = AcceleratorConfig::trinity_with_clusters(clusters);
        let ckks = build_machine(&cfg, MappingPolicy::CkksAdaptive);
        let tfhe = build_machine(&cfg, MappingPolicy::TfheAdaptive);
        let boot = simulate(&ckks, &gb).time_ms;
        let helr_ms = simulate(&ckks, &gh).time_ms;
        let pbs_ops = pbs_throughput(&tfhe, &TfheShape::set_i(), 64);
        let nn = NnRecipe::new(20).latency_ms(pbs_ops, 0.05);
        per_cluster.push((clusters, vec![boot, helr_ms, nn]));
    }
    let base = per_cluster[0].1.clone();
    per_cluster
        .into_iter()
        .map(|(c, vals)| {
            Row::new(
                &format!("{c} clusters"),
                Source::Modeled,
                vals.iter().zip(&base).map(|(v, b)| v / b).collect(),
            )
        })
        .collect()
}

/// Fig. 16 — area/power sensitivity to cluster count (normalized to 2
/// clusters). Columns: area, power.
pub fn fig16() -> Vec<Row> {
    let base = trinity_core::chip_budget(&AcceleratorConfig::trinity_with_clusters(2));
    [2usize, 4, 8]
        .iter()
        .map(|&c| {
            let b = trinity_core::chip_budget(&AcceleratorConfig::trinity_with_clusters(c));
            Row::new(
                &format!("{c} clusters"),
                Source::Modeled,
                vec![
                    b.total.area_mm2 / base.total.area_mm2,
                    b.total.power_w / base.total.power_w,
                ],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shapes() {
        let rows = fig1();
        let f1 = &rows[0].values;
        let fab = &rows[1].values;
        assert!(f1.last() > f1.first(), "F1-like rises with N");
        assert!(fab.last() < fab.first(), "FAB-like falls with N");
    }

    #[test]
    fn fig2_matches_paper_breakdown() {
        for row in fig2() {
            let (got, paper) = (row.values[0], row.values[1]);
            assert!(
                (got - paper).abs() < 8.0,
                "{}: {got:.1}% vs paper {paper:.1}%",
                row.name
            );
        }
    }

    #[test]
    fn trinity_beats_sharp_on_ckks() {
        let machines = Machines::build();
        let apps = ckks_apps(&machines);
        let speedup_boot = apps.bootstrap.1.time_ms / apps.bootstrap.0.time_ms;
        let speedup_helr = apps.helr.1.time_ms / apps.helr.0.time_ms;
        assert!(
            (1.2..=2.2).contains(&speedup_boot),
            "bootstrap speedup {speedup_boot:.2} (paper 1.63)"
        );
        assert!(
            (1.1..=2.4).contains(&speedup_helr),
            "HELR speedup {speedup_helr:.2} (paper 1.85)"
        );
    }

    #[test]
    fn ark_lands_behind_sharp() {
        // Paper Table VI ordering: Trinity < SHARP < ARK on all three
        // CKKS applications.
        let machines = Machines::build();
        let apps = ckks_apps(&machines);
        for (name, trinity, sharp, ark) in [
            (
                "bootstrap",
                &apps.bootstrap.0,
                &apps.bootstrap.1,
                &apps.ark.0,
            ),
            ("helr", &apps.helr.0, &apps.helr.1, &apps.ark.1),
            ("resnet", &apps.resnet.0, &apps.resnet.1, &apps.ark.2),
        ] {
            assert!(
                trinity.time_ms < sharp.time_ms && sharp.time_ms < ark.time_ms,
                "{name}: trinity {:.2} / sharp {:.2} / ark {:.2}",
                trinity.time_ms,
                sharp.time_ms,
                ark.time_ms
            );
        }
    }

    #[test]
    fn strix_lands_behind_morphling() {
        // Paper Table VII ordering: Strix ~ half of Morphling.
        let machines = Machines::build();
        for (name, s) in TfheShape::paper_sets() {
            let strix = pbs_throughput(&machines.strix, &s, 32);
            let morphling = pbs_throughput(&machines.morphling, &s, 32);
            let ratio = strix / morphling;
            assert!(
                (0.2..0.95).contains(&ratio),
                "{name}: Strix/Morphling {ratio:.2} (paper ~0.5)"
            );
        }
    }

    #[test]
    fn trinity_beats_morphling_on_pbs() {
        let machines = Machines::build();
        for (name, s) in TfheShape::paper_sets() {
            let t = pbs_throughput(&machines.trinity_tfhe, &s, 32);
            let m = pbs_throughput(&machines.morphling, &s, 32);
            let ratio = t / m;
            assert!(
                (2.5..=8.0).contains(&ratio),
                "{name}: Trinity/Morphling {ratio:.2} (paper ~4.2)"
            );
        }
    }

    #[test]
    fn without_cu_is_slower() {
        let machines = Machines::build();
        for (name, s) in TfheShape::paper_sets() {
            let with = pbs_throughput(&machines.trinity_tfhe, &s, 32);
            let without = pbs_throughput(&machines.trinity_no_cu, &s, 32);
            assert!(without < with, "{name}: {without} !< {with}");
        }
    }

    #[test]
    fn conversion_millisecond_scale() {
        let machines = Machines::build();
        let rows = table9(&machines);
        let modeled = rows.last().unwrap();
        // Paper: 0.049 / 0.063 / 0.142 ms. Accept the same order of
        // magnitude with the right monotonicity.
        for (v, paper) in modeled.values.iter().zip([0.049, 0.063, 0.142]) {
            assert!(
                *v > paper / 4.0 && *v < paper * 4.0,
                "repack {v:.3} ms vs paper {paper}"
            );
        }
        assert!(modeled.values[2] > modeled.values[0]);
    }

    #[test]
    fn hybrid_two_chip_penalty() {
        let machines = Machines::build();
        let rows = table10(&machines);
        let sm = rows
            .iter()
            .find(|r| r.name == "SHARP+Morphling" && r.source == Source::Modeled)
            .unwrap();
        let t = rows
            .iter()
            .find(|r| r.name == "Trinity" && r.source == Source::Modeled)
            .unwrap();
        for (a, b) in sm.values.iter().zip(&t.values) {
            let ratio = a / b;
            assert!(
                ratio > 3.0,
                "two-chip penalty only {ratio:.1}x (paper 13.4x)"
            );
        }
    }

    #[test]
    fn cluster_scaling_speedup() {
        let rows = fig15();
        let r8 = &rows[2];
        for v in &r8.values {
            // Dependency chains keep Bootstrap below perfect scaling,
            // as in the paper's own Fig. 15.
            assert!(*v < 0.55, "8-cluster normalized latency {v}");
        }
    }
}
