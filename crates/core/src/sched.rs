//! Event-driven list scheduler: maps a kernel DAG onto a machine.
//!
//! Kernels are visited in topological (insertion) order; each is placed
//! on the compatible lane that lets it finish earliest. Per-component
//! busy time is tracked for the utilization figures (paper Figs. 9–14),
//! and the makespan yields the latency/throughput tables (VI–X).

use std::collections::BTreeMap;

use crate::kernel::KernelGraph;
use crate::mapping::Machine;

/// One kernel's placement in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Kernel id in the graph.
    pub kernel: usize,
    /// Lane index in the machine.
    pub lane: usize,
    /// Start cycle.
    pub start: u64,
    /// End cycle (exclusive).
    pub end: u64,
}

/// Result of simulating one kernel graph on one machine.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Makespan in cycles.
    pub total_cycles: u64,
    /// Wall-clock milliseconds at the machine's frequency.
    pub time_ms: f64,
    /// Busy cycles per physical component label.
    pub component_busy: BTreeMap<String, u64>,
    /// Busy cycles per kernel class.
    pub class_busy: BTreeMap<String, u64>,
    /// Number of kernels executed.
    pub kernel_count: usize,
    /// Per-kernel placements in graph order (lane, start, end).
    pub placements: Vec<Placement>,
}

impl SimResult {
    /// Utilization of a component (busy / makespan).
    pub fn utilization(&self, component: &str) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        *self.component_busy.get(component).unwrap_or(&0) as f64 / self.total_cycles as f64
    }

    /// Mean utilization over components whose label contains `pat`
    /// (e.g. `"NTTU"` averages all NTTUs of all clusters).
    pub fn mean_utilization(&self, pat: &str) -> f64 {
        let matches: Vec<f64> = self
            .component_busy
            .iter()
            .filter(|(k, _)| k.contains(pat))
            .map(|(_, &v)| v as f64 / self.total_cycles.max(1) as f64)
            .collect();
        if matches.is_empty() {
            0.0
        } else {
            matches.iter().sum::<f64>() / matches.len() as f64
        }
    }

    /// Mean utilization across every compute component (excludes HBM).
    pub fn overall_utilization(&self) -> f64 {
        let vals: Vec<f64> = self
            .component_busy
            .iter()
            .filter(|(k, _)| *k != "HBM")
            .map(|(_, &v)| v as f64 / self.total_cycles.max(1) as f64)
            .collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Operations per second for a batch of `ops` independent
    /// operations simulated in one graph.
    pub fn ops_per_second(&self, ops: usize) -> f64 {
        ops as f64 / (self.time_ms / 1e3)
    }

    /// Renders a text timeline of the schedule: one row per lane that
    /// did work, `width` character columns across the makespan, `#`
    /// where the lane is busy. Debugging aid for mapping decisions.
    pub fn timeline(&self, machine: &crate::mapping::Machine, width: usize) -> String {
        let width = width.max(10);
        let span = self.total_cycles.max(1);
        let mut rows: Vec<(usize, Vec<bool>)> = Vec::new();
        for p in &self.placements {
            let row = match rows.iter().position(|(l, _)| *l == p.lane) {
                Some(i) => i,
                None => {
                    rows.push((p.lane, vec![false; width]));
                    rows.len() - 1
                }
            };
            let from = (p.start * width as u64 / span) as usize;
            let to = ((p.end * width as u64).div_ceil(span) as usize).min(width);
            for c in &mut rows[row].1[from..to.max(from + 1).min(width)] {
                *c = true;
            }
        }
        rows.sort_by_key(|(l, _)| *l);
        let mut out = String::new();
        for (lane, cells) in rows {
            let name = &machine.lanes[lane].name;
            out.push_str(&format!("{name:<14} |"));
            out.extend(cells.iter().map(|&b| if b { '#' } else { '.' }));
            out.push_str("|\n");
        }
        out
    }
}

/// Per-lane reservation state with backfilling: the lane tracks its
/// tail (end of the last reservation) plus a bounded list of free gaps
/// left behind by dependency stalls, so independent kernel chains
/// interleave the way a hardware scheduler would pipeline them.
#[derive(Debug, Clone, Default)]
struct LaneState {
    tail: u64,
    /// Disjoint free intervals before `tail`, sorted by start.
    gaps: Vec<(u64, u64)>,
}

/// Gaps smaller than this are discarded (they model pipeline slack a
/// real scheduler could not exploit either).
const MIN_GAP: u64 = 4;
/// Bound on tracked gaps per lane to keep scheduling near-linear. When
/// the list is full the oldest gap is dropped (least useful as the
/// schedule's frontier advances).
const MAX_GAPS: usize = 2048;

impl LaneState {
    /// Earliest start for a reservation of `dur` cycles not before
    /// `ready`, considering gaps; returns the candidate start.
    fn earliest_start(&self, ready: u64, dur: u64) -> u64 {
        for &(gs, ge) in &self.gaps {
            let s = gs.max(ready);
            if s + dur <= ge {
                return s;
            }
        }
        ready.max(self.tail)
    }

    /// Commits a reservation at `start` for `dur` cycles.
    fn reserve(&mut self, start: u64, dur: u64) {
        let end = start + dur;
        // Inside a gap?
        for i in 0..self.gaps.len() {
            let (gs, ge) = self.gaps[i];
            if start >= gs && end <= ge {
                self.gaps.remove(i);
                if start - gs >= MIN_GAP {
                    self.gaps.insert(i, (gs, start));
                }
                if ge - end >= MIN_GAP {
                    let at = if start - gs >= MIN_GAP { i + 1 } else { i };
                    self.gaps.insert(at, (end, ge));
                }
                return;
            }
        }
        // Appending after the tail: record the new gap if any.
        if start > self.tail && start - self.tail >= MIN_GAP {
            if self.gaps.len() >= MAX_GAPS {
                self.gaps.remove(0);
            }
            self.gaps.push((self.tail, start));
        }
        self.tail = self.tail.max(end);
    }
}

/// Simulates `graph` on `machine`.
///
/// # Panics
///
/// Panics if a kernel has no compatible lane in the machine.
pub fn simulate(machine: &Machine, graph: &KernelGraph) -> SimResult {
    let lanes = &machine.lanes;
    let mut states: Vec<LaneState> = vec![LaneState::default(); lanes.len()];
    let mut finish = vec![0u64; graph.len()];
    let mut component_busy: BTreeMap<String, u64> = BTreeMap::new();
    let mut class_busy: BTreeMap<String, u64> = BTreeMap::new();
    let mut placements: Vec<Placement> = Vec::with_capacity(graph.len());

    for k in graph.kernels() {
        let ready = k.deps.iter().map(|&d| finish[d]).max().unwrap_or(0);
        // Choose the compatible lane with the earliest finish time.
        let mut best: Option<(usize, u64, u64)> = None; // (lane, start, dur)
        for (li, lane) in lanes.iter().enumerate() {
            if !lane.accepts(&k.kind) {
                continue;
            }
            let dur = lane.cycles(&k.kind).max(1);
            let start = states[li].earliest_start(ready, dur);
            if best.is_none_or(|(_, bs, bd)| start + dur < bs + bd) {
                best = Some((li, start, dur));
            }
        }
        let (li, start, dur) = best.unwrap_or_else(|| {
            panic!(
                "no lane accepts kernel {:?} on machine {}",
                k.kind, machine.name
            )
        });
        states[li].reserve(start, dur);
        finish[k.id] = start + dur;
        placements.push(Placement {
            kernel: k.id,
            lane: li,
            start,
            end: start + dur,
        });
        for member in &lanes[li].members {
            *component_busy.entry(member.clone()).or_insert(0) += dur;
        }
        *class_busy
            .entry(format!("{:?}", k.kind.class()))
            .or_insert(0) += dur;
    }

    let total_cycles = finish.iter().copied().max().unwrap_or(0);
    SimResult {
        total_cycles,
        time_ms: total_cycles as f64 / (machine.freq_ghz * 1e9) * 1e3,
        component_busy,
        class_busy,
        kernel_count: graph.len(),
        placements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::AcceleratorConfig;
    use crate::kernel::{KernelGraph, KernelKind};
    use crate::mapping::{build_machine, MappingPolicy};

    fn trinity_ckks() -> Machine {
        build_machine(&AcceleratorConfig::trinity(), MappingPolicy::CkksAdaptive)
    }

    #[test]
    fn empty_graph_is_instant() {
        let r = simulate(&trinity_ckks(), &KernelGraph::new());
        assert_eq!(r.total_cycles, 0);
    }

    #[test]
    fn independent_kernels_run_in_parallel() {
        let m = trinity_ckks();
        let mut one = KernelGraph::new();
        one.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        let t1 = simulate(&m, &one).total_cycles;

        let mut eight = KernelGraph::new();
        for _ in 0..8 {
            eight.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        }
        let t8 = simulate(&m, &eight).total_cycles;
        // 8 NTT lanes exist, so 8 independent NTTs take the same time.
        assert_eq!(t1, t8);

        let mut sixteen = KernelGraph::new();
        for _ in 0..16 {
            sixteen.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        }
        let t16 = simulate(&m, &sixteen).total_cycles;
        assert_eq!(t16, 2 * t8, "9th..16th NTT queue behind the first 8");
    }

    #[test]
    fn dependencies_serialize() {
        let m = trinity_ckks();
        let mut g = KernelGraph::new();
        let a = g.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        g.add(KernelKind::Intt { n: 1 << 16 }, &[a]);
        let r = simulate(&m, &g);
        let single = {
            let mut g1 = KernelGraph::new();
            g1.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
            simulate(&m, &g1).total_cycles
        };
        assert_eq!(r.total_cycles, 2 * single);
    }

    #[test]
    fn utilization_accounting() {
        let m = trinity_ckks();
        let mut g = KernelGraph::new();
        for _ in 0..32 {
            g.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        }
        let r = simulate(&m, &g);
        // All 8 NTTU pipelines saturated.
        let u = r.mean_utilization("NTTU");
        assert!(u > 0.95, "NTTU utilization {u}");
        // EWE untouched.
        assert_eq!(r.mean_utilization("EWE"), 0.0);
    }

    #[test]
    fn hbm_transfers_costed() {
        let m = trinity_ckks();
        let mut g = KernelGraph::new();
        // 1 MB at 1000 B/cycle = ~1000 cycles + fill.
        g.add(KernelKind::HbmLoad { bytes: 1_000_000 }, &[]);
        let r = simulate(&m, &g);
        assert!((1000..1200).contains(&r.total_cycles), "{}", r.total_cycles);
    }

    #[test]
    fn backfill_interleaves_independent_chains() {
        // Two dependency chains alternating between NTT and EWE work:
        // without backfilling each chain's idle gaps, the second chain
        // would queue entirely behind the first.
        let m = trinity_ckks();
        let chain = |g: &mut KernelGraph| {
            let mut prev: Option<usize> = None;
            for _ in 0..50 {
                let deps: Vec<usize> = prev.into_iter().collect();
                let a = g.add(KernelKind::Ntt { n: 1 << 16 }, &deps);
                let b = g.add(
                    KernelKind::ModMul {
                        limbs: 36,
                        n: 1 << 16,
                    },
                    &[a],
                );
                prev = Some(b);
            }
        };
        let mut one = KernelGraph::new();
        chain(&mut one);
        let t1 = simulate(&m, &one).total_cycles;
        let mut many = KernelGraph::new();
        for _ in 0..8 {
            chain(&mut many);
        }
        let t8 = simulate(&m, &many).total_cycles;
        // 8 chains across 8 NTT lanes + 4 EWE lanes: far better than 8x.
        assert!(
            (t8 as f64) < 3.0 * t1 as f64,
            "8 chains took {t8} vs single {t1} — backfilling broken"
        );
    }

    #[test]
    fn ops_per_second_consistent_with_time() {
        let m = trinity_ckks();
        let mut g = KernelGraph::new();
        for _ in 0..8 {
            g.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        }
        let r = simulate(&m, &g);
        let ops = r.ops_per_second(8);
        let expect = 8.0 / (r.time_ms / 1e3);
        assert!((ops - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn mean_utilization_empty_pattern_is_zero() {
        let m = trinity_ckks();
        let mut g = KernelGraph::new();
        g.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        let r = simulate(&m, &g);
        assert_eq!(r.mean_utilization("NoSuchUnit"), 0.0);
        assert!(r.overall_utilization() > 0.0);
    }

    #[test]
    fn placements_are_consistent() {
        let m = trinity_ckks();
        let mut g = KernelGraph::new();
        let a = g.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        let b = g.add(KernelKind::Intt { n: 1 << 16 }, &[a]);
        let r = simulate(&m, &g);
        assert_eq!(r.placements.len(), 2);
        let pa = r.placements.iter().find(|p| p.kernel == a).unwrap();
        let pb = r.placements.iter().find(|p| p.kernel == b).unwrap();
        // Dependency order respected; end never exceeds the makespan.
        assert!(pb.start >= pa.end);
        assert!(r.placements.iter().all(|p| p.end <= r.total_cycles));
        assert!(r.placements.iter().all(|p| p.start < p.end));
    }

    #[test]
    fn timeline_renders_busy_lanes() {
        let m = trinity_ckks();
        let mut g = KernelGraph::new();
        let a = g.add(KernelKind::Ntt { n: 1 << 16 }, &[]);
        g.add(KernelKind::Intt { n: 1 << 16 }, &[a]);
        let r = simulate(&m, &g);
        let tl = r.timeline(&m, 40);
        // Exactly one lane did work (the chain shares one NTT lane).
        assert_eq!(tl.lines().count(), 1);
        let line = tl.lines().next().unwrap();
        assert!(line.contains('#'), "busy marks missing: {line}");
        // Fully busy across the makespan: no idle dots inside.
        let cells: String = line.chars().skip_while(|&c| c != '|').collect();
        assert!(!cells.trim_matches('|').contains('.'), "{line}");
    }

    #[test]
    #[should_panic(expected = "no lane accepts")]
    fn missing_lane_panics() {
        // Morphling has no AutoU: an Automorphism kernel must panic.
        let m = build_machine(&AcceleratorConfig::morphling(), MappingPolicy::Baseline);
        let mut g = KernelGraph::new();
        g.add(
            KernelKind::Automorphism {
                limbs: 1,
                n: 1 << 10,
            },
            &[],
        );
        let _ = simulate(&m, &g);
    }
}
