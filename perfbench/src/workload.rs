//! The benchmark's workloads: which paper-figure sweep each one runs, the
//! requests that sweep submits, and the figure rebuilt from its runs.

use sipt_core::{baseline_32k_8w_vipt, table2_sipt_configs};
use sipt_sim::experiments::bypass::config_for_bits;
use sipt_sim::experiments::{benchmark_names, combined, ideal, sensitivity};
use sipt_sim::{
    arithmetic_mean, harmonic_mean, Condition, Isolation, RunMetrics, RunRequest, SystemKind,
};
use sipt_workloads::benchmark;

/// One named workload of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 12 (combined perceptron + IDB predictor), thread isolation.
    CombinedOoo,
    /// Fig 2 (ideal-indexing configurations), process isolation.
    IdealProcess,
    /// Fig 18 (operating-condition sensitivity), thread isolation.
    Sensitivity,
}

/// The Fig 18 roster: a fixed subset, because Fig 18 on it already
/// takes about 20 s at `--jobs 2` and all 26 benchmarks are half as much
/// work again, too long for one measured run. It keeps 17 × 4 = 68 distinct (benchmark, condition) pairs,
/// more than the prep cache's default capacity of 64, so the eviction
/// and re-preparation of every pair before the in-order half reuses it
/// still shows. It also keeps the five slowest trace builds (ycsb,
/// graph500, cactusADM, calculix, gromacs) and every allocation pattern.
const SENSITIVITY_ROSTER: [&str; 17] = [
    "sjeng",
    "deepsjeng_17",
    "mcf",
    "h264ref",
    "gcc",
    "omnetpp",
    "hmmer",
    "perlbench",
    "libquantum",
    "bwaves",
    "cactusADM",
    "calculix",
    "gromacs",
    "graph500",
    "ycsb",
    "xalancbmk_17",
    "xz_17",
];

/// A figure function's output.
#[derive(Debug, Clone, PartialEq)]
pub enum Figure {
    /// `combined::fig12` rows.
    Fig12(Vec<combined::Fig12Row>),
    /// `ideal::fig2` figure.
    Fig2(ideal::IdealFigure),
    /// `sensitivity::fig18` groups.
    Fig18(Vec<sensitivity::Fig18Group>),
}

impl Figure {
    /// Normalized quantities, which must be finite and positive: IPCs and
    /// energies relative to the baseline, with their means.
    pub fn ratios(&self) -> Vec<f64> {
        match self {
            Figure::Fig12(_) => Vec::new(),
            Figure::Fig2(fig) => fig
                .rows
                .iter()
                .flat_map(|r| r.normalized_ipc.iter().copied())
                .chain(fig.average.iter().copied())
                .collect(),
            Figure::Fig18(groups) => groups
                .iter()
                .flat_map(|g| g.mean_ipc.iter().chain(&g.mean_energy).copied())
                .collect(),
        }
    }

    /// Fractions of accesses, which must lie in `[0, 1]`.
    pub fn fractions(&self) -> Vec<f64> {
        match self {
            Figure::Fig12(rows) => rows
                .iter()
                .flat_map(|r| r.by_bits.iter())
                .flat_map(|b| [b.correct_speculation, b.idb_hit, b.slow, b.fast()])
                .collect(),
            Figure::Fig2(_) => Vec::new(),
            Figure::Fig18(groups) => {
                groups.iter().flat_map(|g| g.accuracy.iter().copied()).collect()
            }
        }
    }
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::CombinedOoo, Workload::IdealProcess, Workload::Sensitivity];

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CombinedOoo => "combined_ooo",
            Workload::IdealProcess => "ideal_process",
            Workload::Sensitivity => "sensitivity",
        }
    }

    /// How the sweep isolates its tasks.
    pub fn isolation(self) -> Isolation {
        match self {
            Workload::IdealProcess => Isolation::Process,
            Workload::CombinedOoo | Workload::Sensitivity => Isolation::Thread,
        }
    }

    /// The benchmarks on the figure's x-axis.
    pub fn benchmarks(self) -> Vec<&'static str> {
        match self {
            Workload::CombinedOoo | Workload::IdealProcess => benchmark_names(),
            Workload::Sensitivity => SENSITIVITY_ROSTER.to_vec(),
        }
    }

    /// Run the figure's own function in `sipt_sim::experiments`, as its
    /// binary does.
    pub fn run_figure(self, benches: &[&str], cond: &Condition) -> Figure {
        match self {
            Workload::CombinedOoo => Figure::Fig12(combined::fig12(benches, cond)),
            Workload::IdealProcess => Figure::Fig2(ideal::fig2(benches, cond)),
            Workload::Sensitivity => Figure::Fig18(sensitivity::fig18(benches, cond)),
        }
    }

    /// Every run the figure function submits, in its submission order. Under
    /// process isolation the supervisor checks each worker result against
    /// these requests' fingerprints, and [`Workload::figure_from_runs`]
    /// rebuilds the figure from runs in this order, so a drift from the
    /// figure function shows as a failed check.
    pub fn requests(self, benches: &[&str], cond: &Condition) -> Vec<RunRequest> {
        let mut out = Vec::new();
        let mut push = |bench: &str, l1, system, cond: &Condition| {
            let spec = benchmark(bench).unwrap_or_else(|| panic!("{bench} is in the roster"));
            out.push(RunRequest { spec, l1, system, cond: *cond, label: bench.to_owned() });
        };
        match self {
            Workload::CombinedOoo => {
                for &bench in benches {
                    for bits in [1, 2, 3] {
                        push(bench, config_for_bits(bits), SystemKind::OooThreeLevel, cond);
                    }
                }
            }
            Workload::IdealProcess => {
                for &bench in benches {
                    push(bench, baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, cond);
                    for cfg in ideal::ideal_configs() {
                        push(bench, cfg, SystemKind::OooThreeLevel, cond);
                    }
                }
            }
            Workload::Sensitivity => {
                for (system, _) in sensitivity_systems() {
                    for (_, group_cond) in sensitivity_conditions(cond) {
                        for &bench in benches {
                            push(bench, baseline_32k_8w_vipt(), system, &group_cond);
                            for cfg in table2_sipt_configs() {
                                push(bench, cfg, system, &group_cond);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// The figure rebuilt from `runs`, one per request of
    /// [`Workload::requests`] in the same order, by the arithmetic of
    /// the paper's figure definitions.
    pub fn figure_from_runs(self, benches: &[&str], runs: &[RunMetrics]) -> Figure {
        let mut runs = runs.iter();
        let mut next = || runs.next().expect("one run per request");
        match self {
            Workload::CombinedOoo => Figure::Fig12(
                benches
                    .iter()
                    .map(|&bench| combined::Fig12Row {
                        benchmark: bench.to_owned(),
                        by_bits: [(); 3].map(|()| {
                            let m = next();
                            let total = m.sipt.accesses.max(1) as f64;
                            combined::CombinedBreakdown {
                                correct_speculation: m.sipt.correct_speculation as f64 / total,
                                idb_hit: m.sipt.idb_hits as f64 / total,
                                slow: m.sipt.extra_accesses as f64 / total,
                            }
                        }),
                    })
                    .collect(),
            ),
            Workload::IdealProcess => {
                let configs = ideal::ideal_configs().len();
                let rows: Vec<ideal::IdealRow> = benches
                    .iter()
                    .map(|&bench| {
                        let base = next();
                        ideal::IdealRow {
                            benchmark: bench.to_owned(),
                            normalized_ipc: (0..configs).map(|_| next().ipc_vs(base)).collect(),
                        }
                    })
                    .collect();
                let average = (0..configs)
                    .map(|i| {
                        harmonic_mean(&rows.iter().map(|r| r.normalized_ipc[i]).collect::<Vec<_>>())
                    })
                    .collect();
                Figure::Fig2(ideal::IdealFigure { rows, average })
            }
            Workload::Sensitivity => {
                let configs = table2_sipt_configs().len();
                let mut groups = Vec::new();
                for (_, sys_label) in sensitivity_systems() {
                    for (cond_label, _) in Condition::sensitivity_sweep() {
                        let mut ipc = vec![Vec::new(); configs];
                        let mut energy = vec![Vec::new(); configs];
                        let mut accuracy = vec![Vec::new(); configs];
                        for _ in benches {
                            let base = next();
                            for i in 0..configs {
                                let m = next();
                                ipc[i].push(m.ipc_vs(base));
                                energy[i].push(m.energy_vs(base));
                                accuracy[i].push(m.sipt.fast_fraction());
                            }
                        }
                        groups.push(sensitivity::Fig18Group {
                            label: format!("{sys_label} {cond_label}"),
                            mean_ipc: ipc.iter().map(|v| harmonic_mean(v)).collect(),
                            mean_energy: energy.iter().map(|v| arithmetic_mean(v)).collect(),
                            accuracy: accuracy.iter().map(|v| arithmetic_mean(v)).collect(),
                        });
                    }
                }
                Figure::Fig18(groups)
            }
        }
    }
}

/// Fig 18's two systems, in figure order, with their group labels.
fn sensitivity_systems() -> [(SystemKind, &'static str); 2] {
    [(SystemKind::OooThreeLevel, "OOO"), (SystemKind::InOrderTwoLevel, "In-order")]
}

/// Fig 18's four operating conditions, with the run length, seed and
/// memory floor taken from `base` exactly as `sensitivity::fig18` does.
fn sensitivity_conditions(base: &Condition) -> Vec<(&'static str, Condition)> {
    Condition::sensitivity_sweep()
        .into_iter()
        .map(|(label, cond)| {
            let cond = Condition {
                instructions: base.instructions,
                warmup: base.warmup,
                seed: base.seed,
                memory_bytes: cond.memory_bytes.max(base.memory_bytes),
                ..cond
            };
            (label, cond)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_counts_match_the_figures() {
        let cond = Condition::default();
        let all = benchmark_names();
        assert_eq!(Workload::CombinedOoo.requests(&all, &cond).len(), 26 * 3);
        assert_eq!(Workload::IdealProcess.requests(&all, &cond).len(), 26 * 6);
        let roster = Workload::Sensitivity.benchmarks();
        assert_eq!(Workload::Sensitivity.requests(&roster, &cond).len(), 17 * 2 * 4 * 5);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn sensitivity_roster_outgrows_the_prep_cache() {
        // 4 conditions per benchmark; the cache holds 64 pairs.
        assert!(SENSITIVITY_ROSTER.len() * 4 > 64);
        for name in SENSITIVITY_ROSTER {
            assert!(benchmark(name).is_some(), "{name}");
        }
    }
}
