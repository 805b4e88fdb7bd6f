//! Quad-core multiprogrammed simulation (paper §VI.B, Fig 15).
//!
//! The paper's quad-core runs multiprogrammed (no-sharing) mixes with
//! private L1/L2 per core, an LLC scaled with core count, and traces
//! recycled until the last core finishes; it observes that "individual
//! application speedup on each core is nearly-identical to the single-core
//! experiments … there is no sharing and no contention". We model exactly
//! that structure: the four workloads allocate from a *shared* physical
//! memory (so buddy-allocator interleaving across processes is real — the
//! part that matters to SIPT), then each core runs on its private L1/L2
//! and its constant per-core LLC share. Throughput is reported as
//! sum-of-IPC, as in the paper.

use crate::machine::{Machine, SystemKind};
use crate::metrics::{PhaseProfile, RunMetrics};
use crate::prep_cache::{self, PrepCache, PreparedMix, PreparedMixCore};
use crate::runner::{collect, Condition};
use sipt_core::L1Config;
use sipt_mem::{AddressSpace, BuddyAllocator};
use sipt_workloads::{benchmark, MaterializedTrace, TraceGen, MIXES};
use std::sync::Arc;
use std::time::Instant;

/// Metrics of one quad-core mix run.
#[derive(Debug, Clone)]
pub struct MixMetrics {
    /// Mix name (Table III).
    pub name: String,
    /// Per-core metrics, in mix order.
    pub cores: Vec<RunMetrics>,
}

impl MixMetrics {
    /// Sum of per-core IPCs (the paper's throughput metric).
    pub fn sum_ipc(&self) -> f64 {
        self.cores.iter().map(RunMetrics::ipc).sum()
    }

    /// Sum-of-IPC speedup versus a baseline mix run.
    pub fn speedup_vs(&self, baseline: &MixMetrics) -> f64 {
        self.sum_ipc() / baseline.sum_ipc()
    }

    /// Total hierarchy energy across cores, normalized to a baseline.
    /// Returns 0 when the baseline consumed no energy (e.g. an empty
    /// mix), rather than dividing by zero.
    pub fn energy_vs(&self, baseline: &MixMetrics) -> f64 {
        let e: f64 = self.cores.iter().map(|c| c.energy.total()).sum();
        let b: f64 = baseline.cores.iter().map(|c| c.energy.total()).sum();
        if b > 0.0 {
            e / b
        } else {
            0.0
        }
    }

    /// Mean extra-L1-access fraction across cores, versus a baseline.
    /// Returns 0 for an empty mix rather than dividing by zero.
    pub fn extra_accesses_vs(&self, baseline: &MixMetrics) -> f64 {
        if self.cores.is_empty() {
            return 0.0;
        }
        self.cores.iter().zip(&baseline.cores).map(|(c, b)| c.extra_accesses_vs(b)).sum::<f64>()
            / self.cores.len() as f64
    }
}

/// Run one Table III mix on a quad-core system with the given private-L1
/// configuration.
///
/// # Panics
///
/// Panics if `mix_name` is not in Table III or memory is insufficient.
pub fn run_mix(mix_name: &str, l1: L1Config, cond: &Condition) -> MixMetrics {
    let (_, apps) = MIXES
        .iter()
        .find(|(name, _)| *name == mix_name)
        .unwrap_or_else(|| panic!("unknown mix {mix_name}"));

    // Mixes cache as a *unit*: the four processes allocate from one
    // shared buddy allocator in program order, so the interleaving (the
    // part that matters to SIPT) is a property of the whole mix, not of
    // any one `(spec, cond)`.
    let prepared = prep_cache::get_or_prepare_mix(mix_name, cond, |cache| {
        Arc::new(prepare_mix(cache, mix_name, apps, cond))
    });

    // The paper's quad-core mixes share no state at runtime (private
    // L1/L2, per-core LLC share, immutable prepared traces), so the four
    // cores are independent replays and can run on their own threads
    // *within* one mix run. Sharding is gated off inside sweep-pool tasks
    // (fig15 runs whole mixes as pool tasks — worker counts must not
    // multiply) and under `jobs = 1` (exact serial contract). Results are
    // bit-identical either way: each core owns its machine and cursor, and
    // the process-wide simulation totals accumulate order-independently.
    let shard = !crate::resilience::in_pool_task()
        && crate::sweep::effective_jobs() > 1
        && prepared.cores.len() > 1;
    let cores: Vec<RunMetrics> = if shard {
        std::thread::scope(|scope| {
            let l1 = &l1;
            let handles: Vec<_> = prepared
                .cores
                .iter()
                .map(|prep| scope.spawn(move || run_mix_core(prep, l1.clone(), cond)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        })
    } else {
        prepared.cores.iter().map(|prep| run_mix_core(prep, l1.clone(), cond)).collect()
    };
    MixMetrics { name: mix_name.to_owned(), cores }
}

/// Replay one prepared core of a mix: warmup, reset, measure, collect.
/// Mixes are generated workloads (always fully mapped), so a trace error
/// here is a simulator bug and panics like the other trusted-input paths.
fn run_mix_core(prep: &PreparedMixCore, l1: L1Config, cond: &Condition) -> RunMetrics {
    let mut machine = Machine::new_shared(Arc::clone(&prep.asp), l1, SystemKind::OooThreeLevel);
    let allocated = Instant::now();
    let mut cursor = prep.trace.cursor();
    let batch = crate::block::replay_batch();
    crate::block::replay(
        SystemKind::OooThreeLevel,
        &mut machine,
        &mut cursor,
        cond.warmup as usize,
        batch,
        &prep.app,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    machine.reset_stats();
    let warmed = Instant::now();
    let core = crate::block::replay(
        SystemKind::OooThreeLevel,
        &mut machine,
        &mut cursor,
        usize::MAX,
        batch,
        &prep.app,
    )
    .unwrap_or_else(|e| panic!("{e}"));
    let measure_secs = warmed.elapsed().as_secs_f64();
    crate::metrics::record_simulation(core.instructions, measure_secs);
    let phases = PhaseProfile {
        allocate_ms: prep.allocate_ms,
        warmup_ms: warmed.duration_since(allocated).as_secs_f64() * 1e3,
        measure_ms: measure_secs * 1e3,
        simulated_mips: if measure_secs > 0.0 {
            core.instructions as f64 / (measure_secs * 1e6)
        } else {
            0.0
        },
        worker: 0,
    };
    let mut metrics = collect(&prep.app, core, &machine);
    metrics.phases = phases;
    metrics
}

/// Allocate and generate a whole mix against one shared physical memory.
///
/// All four processes allocate in program order, so later processes see
/// the earlier ones' footprints. Each core's allocate phase is timed
/// individually so the per-core phase profiles serialize as real
/// measurements (not the zeroed defaults the JSON reports would
/// otherwise present as data); replays reuse the preparation-time cost.
/// Fragmented memory is a clone of `cache`'s snapshot for the mix's
/// `cond.seed ^ 0x4C0E` fragmentation RNG.
fn prepare_mix(cache: &PrepCache, mix_name: &str, apps: &[&str], cond: &Condition) -> PreparedMix {
    let mut phys = match cond.fragmented {
        true => {
            cache.fragmented_memory(cond.memory_bytes, cond.seed ^ 0x4C0E).expect("fragmentation")
        }
        false => BuddyAllocator::with_bytes(cond.memory_bytes),
    };

    let mut cores = Vec::new();
    for (core_id, app) in apps.iter().enumerate() {
        let t0 = Instant::now();
        let spec = benchmark(app).unwrap_or_else(|| panic!("unknown app {app}"));
        let mut asp = AddressSpace::new(core_id as u16, cond.placement);
        let gen = TraceGen::build(
            &spec,
            &mut asp,
            &mut phys,
            cond.warmup + cond.instructions,
            cond.seed + core_id as u64,
        )
        .unwrap_or_else(|e| panic!("{mix_name}/{app}: {e}"));
        let trace = MaterializedTrace::from_gen(gen);
        cores.push(PreparedMixCore {
            app: (*app).to_owned(),
            asp: Arc::new(asp),
            trace,
            allocate_ms: t0.elapsed().as_secs_f64() * 1e3,
        });
    }
    PreparedMix { cores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_core::{baseline_32k_8w_vipt, sipt_32k_2w};

    fn quad_cond() -> Condition {
        Condition {
            memory_bytes: 4 << 30,
            instructions: 15_000,
            warmup: 5_000,
            ..Condition::default()
        }
    }

    #[test]
    fn mix_runs_all_four_cores() {
        let m = run_mix("mix0", baseline_32k_8w_vipt(), &quad_cond());
        assert_eq!(m.cores.len(), 4);
        assert_eq!(m.cores[0].name, "h264ref");
        assert!(m.sum_ipc() > 0.5);
    }

    #[test]
    fn sipt_improves_mix_throughput() {
        let cond = quad_cond();
        let base = run_mix("mix0", baseline_32k_8w_vipt(), &cond);
        let sipt = run_mix("mix0", sipt_32k_2w(), &cond);
        assert!(sipt.speedup_vs(&base) > 1.0, "mix0 speedup = {}", sipt.speedup_vs(&base));
        assert!(sipt.energy_vs(&base) < 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown mix")]
    fn unknown_mix_panics() {
        let _ = run_mix("mix99", baseline_32k_8w_vipt(), &quad_cond());
    }

    /// Regression: quad-core runs used to leave `PhaseProfile::default()`
    /// (0 ms, 0 MIPS) in every core's metrics, which the JSON reports
    /// serialized as if they were real measurements.
    #[test]
    fn mix_cores_carry_real_phase_profiles() {
        let m = run_mix("mix0", sipt_32k_2w(), &quad_cond());
        for core in &m.cores {
            assert!(
                core.phases.measure_ms > 0.0,
                "{}: measure phase must be timed, got {:?}",
                core.name,
                core.phases
            );
            assert!(core.phases.warmup_ms > 0.0, "{}: warmup must be timed", core.name);
            assert!(core.phases.allocate_ms > 0.0, "{}: allocation must be timed", core.name);
            assert!(core.phases.simulated_mips > 0.0, "{}: MIPS must be derived", core.name);
        }
    }

    /// Regression: the mix-level ratios used to divide by zero for empty
    /// mixes and zero-energy baselines.
    #[test]
    fn mix_ratios_guard_degenerate_baselines() {
        let empty = MixMetrics { name: "empty".into(), cores: Vec::new() };
        assert_eq!(empty.extra_accesses_vs(&empty), 0.0, "empty mix must not divide by zero");
        assert_eq!(empty.energy_vs(&empty), 0.0, "zero-energy baseline must not divide");
        let real = run_mix("mix0", sipt_32k_2w(), &quad_cond());
        assert!(real.extra_accesses_vs(&real).is_finite());
        assert!((real.energy_vs(&real) - 1.0).abs() < 1e-12);
        assert_eq!(real.energy_vs(&empty), 0.0);
    }

    /// Intra-run core sharding must be a pure wall-clock optimization:
    /// the scientific payload (core counts, cache/TLB stats, energy) of a
    /// sharded mix run is bit-identical to a serial one.
    #[test]
    fn sharded_mix_matches_serial_mix() {
        let cond = quad_cond();
        let prev = crate::sweep::effective_jobs();
        crate::sweep::set_jobs(1);
        let serial = run_mix("mix1", sipt_32k_2w(), &cond);
        crate::sweep::set_jobs(4);
        let sharded = run_mix("mix1", sipt_32k_2w(), &cond);
        crate::sweep::set_jobs(prev);
        assert_eq!(serial.cores.len(), sharded.cores.len());
        for (a, b) in serial.cores.iter().zip(&sharded.cores) {
            assert_eq!(a.name, b.name, "core order is submission order");
            assert_eq!(a.core, b.core, "{}: core counts must match", a.name);
            assert_eq!(a.sipt, b.sipt, "{}: L1 stats must match", a.name);
            assert_eq!(a.tlb, b.tlb, "{}: TLB stats must match", a.name);
            assert_eq!(a.llc, b.llc, "{}: LLC stats must match", a.name);
            assert_eq!(a.energy, b.energy, "{}: energy must match", a.name);
        }
    }

    #[test]
    fn shared_allocator_interleaves_processes() {
        // Four processes allocating from one buddy allocator must not
        // receive overlapping frames — verified implicitly by the buddy
        // allocator's double-allocation assertions while running any mix
        // with fine-grained allocators (mix2 contains calculix+gromacs).
        let cond = Condition { instructions: 2_000, warmup: 500, ..quad_cond() };
        let m = run_mix("mix2", sipt_32k_2w(), &cond);
        assert_eq!(m.cores.len(), 4);
    }
}
