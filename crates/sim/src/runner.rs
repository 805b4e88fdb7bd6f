//! Single-core experiment runner: allocate a workload through the OS
//! model, warm the machine, then measure.
//!
//! Untrusted inputs — benchmark names, L1/condition configuration, and
//! workload sizing against physical memory — flow through the `try_*`
//! entry points, which surface a typed [`SimError`] instead of panicking.
//! The panicking front-ends remain for trusted callers (the figure
//! drivers, whose inputs are compiled-in paper constants).
//!
//! A run is location-transparent: the same entry points execute on the
//! in-process sweep pool (thread isolation) and inside `--worker-shard`
//! re-executions under the process-isolation supervisor
//! ([`crate::supervisor`]). Every simulated bit derives from the run's
//! own seeded RNG and configuration, never from process identity, which
//! is what makes worker-process results byte-identical to in-process ones.

use crate::error::SimError;
use crate::machine::{Machine, SystemKind};
use crate::metrics::{PhaseProfile, RunMetrics};
use sipt_core::L1Config;
use sipt_cpu::CoreResult;
use sipt_mem::{
    fragment_memory, AddressSpace, BuddyAllocator, MemError, PlacementPolicy, TranslationCache,
};
use sipt_rng::{SeedableRng, StdRng};
use sipt_telemetry::Span;
use sipt_workloads::{benchmark, TraceGen, WorkloadSpec};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Event-trace capacity requested via the `SIPT_TRACE_EVENTS` environment
/// variable (0 / unset → no event retention; metrics are always recorded
/// when telemetry is attached).
///
/// Parsed exactly once per process: a malformed value warns on stderr
/// (instead of being silently treated as 0) and every subsequent run —
/// including every [`crate::sweep::Sweep`] worker — sees the same
/// capacity.
pub(crate) fn trace_capacity() -> usize {
    static PARSED: OnceLock<usize> = OnceLock::new();
    *PARSED.get_or_init(|| {
        crate::env::parse_or_warn("SIPT_TRACE_EVENTS").unwrap_or(0).min(usize::MAX as u64) as usize
    })
}

/// Operating conditions of a run: memory state, placement policy, and
/// simulation length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Condition {
    /// Page-placement policy (the §VII.B sensitivity axis).
    pub placement: PlacementPolicy,
    /// Whether physical memory is pre-fragmented to `Fu(9) > 0.95`.
    pub fragmented: bool,
    /// Simulated physical memory size in bytes.
    pub memory_bytes: u64,
    /// Measured instructions.
    pub instructions: u64,
    /// Warmup instructions (caches/TLB/predictors train; stats then
    /// reset — the paper does not warm the predictor, but does fast-forward
    /// to a SimPoint, which warmup approximates).
    pub warmup: u64,
    /// RNG seed for workload generation and fragmentation.
    pub seed: u64,
}

impl Default for Condition {
    fn default() -> Self {
        Self {
            placement: PlacementPolicy::LinuxDefault,
            fragmented: false,
            memory_bytes: 1 << 30,
            instructions: 200_000,
            warmup: 50_000,
            seed: 42,
        }
    }
}

impl Condition {
    /// A quick-run condition for tests and smoke benches.
    pub fn quick() -> Self {
        Self { instructions: 30_000, warmup: 8_000, ..Self::default() }
    }

    /// Validate this condition as untrusted input.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] when the simulation window is empty or the
    /// physical memory is smaller than one page.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.instructions == 0 {
            return Err(SimError::config("measured instructions must be >= 1"));
        }
        if self.memory_bytes < 4096 {
            return Err(SimError::config(format!(
                "physical memory of {} bytes is smaller than one 4 KiB page",
                self.memory_bytes
            )));
        }
        Ok(())
    }

    /// The paper's four §VII.B sensitivity conditions, in figure order:
    /// normal, fragmented, THP off, and no >4 KiB contiguity.
    pub fn sensitivity_sweep() -> Vec<(&'static str, Condition)> {
        let normal = Condition::default();
        vec![
            ("Normal", normal),
            ("Fragmented", Condition { fragmented: true, memory_bytes: 2 << 30, ..normal }),
            ("THP-off", Condition { placement: PlacementPolicy::ThpOff, ..normal }),
            ("Par-bound", Condition { placement: PlacementPolicy::Scattered, ..normal }),
        ]
    }
}

/// Run one benchmark on one L1 configuration and system.
///
/// # Panics
///
/// Panics if `name` is not a known benchmark preset or the workload does
/// not fit in the configured memory.
pub fn run_benchmark(name: &str, l1: L1Config, system: SystemKind, cond: &Condition) -> RunMetrics {
    try_run_benchmark(name, l1, system, cond).unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_benchmark`] for untrusted inputs: unknown benchmark names,
/// invalid L1/condition configurations, and workloads that do not fit in
/// the configured memory surface as a typed [`SimError`] instead of a
/// panic.
///
/// # Errors
///
/// [`SimError::UnknownBenchmark`], [`SimError::Config`],
/// [`SimError::WorkloadTooLarge`], or [`SimError::Audit`] (with
/// `SIPT_AUDIT=1`).
pub fn try_run_benchmark(
    name: &str,
    l1: L1Config,
    system: SystemKind,
    cond: &Condition,
) -> Result<RunMetrics, SimError> {
    let spec =
        benchmark(name).ok_or_else(|| SimError::UnknownBenchmark { name: name.to_owned() })?;
    try_run_spec(&spec, l1, system, cond)
}

/// [`run_spec`] with typed errors: validates the L1 configuration and the
/// condition, then prepares and runs the workload.
///
/// # Errors
///
/// [`SimError::Config`], [`SimError::WorkloadTooLarge`], or
/// [`SimError::Audit`] (with `SIPT_AUDIT=1`).
pub fn try_run_spec(
    spec: &WorkloadSpec,
    l1: L1Config,
    system: SystemKind,
    cond: &Condition,
) -> Result<RunMetrics, SimError> {
    l1.try_validate().map_err(SimError::config)?;
    cond.validate()?;
    try_run_spec_with_trace_capacity(spec, l1, system, cond, trace_capacity())
}

/// The allocate/fragment/trace-build preamble shared by [`run_spec`] and
/// [`speculation_profile`]: one buddy allocator, fragmented by the
/// `cond.seed ^ 0xF7A6` RNG when `cond.fragmented`, and a trace generator
/// covering `warmup + instructions` instructions — so a profile explains
/// exactly the access window the timed runs measure. Callers normally
/// reach this through [`crate::prep_cache::get_or_prepare`], which shares
/// what does not depend on the pair: one fragmented allocator per
/// `(memory_bytes, seed)`, cloned into every fragmented pair, and one
/// materialized trace per generator state, whatever the condition that
/// built it.
pub(crate) struct PreparedRun {
    /// The workload's address space (owns the page table).
    pub asp: AddressSpace,
    /// The workload trace, `warmup + instructions` long.
    pub trace: TraceGen,
}

/// XORed into `cond.seed` to seed a single-core run's fragmentation RNG.
const FRAGMENT_SALT: u64 = 0xF7A6;

/// `memory_bytes` of physical memory fragmented to `Fu(9) > 0.95` by the
/// RNG seeded `rng_seed`, with half the frames left free as scattered
/// holes. The other half stay allocated in the allocator's bitmap for
/// good, so the returned allocator alone is the fragmented state and a
/// clone of it is indistinguishable from a fresh fragmentation. The RNG
/// is used for nothing else.
///
/// # Errors
///
/// Propagates the injector's [`MemError`].
pub(crate) fn fragmented_memory(
    memory_bytes: u64,
    rng_seed: u64,
) -> Result<BuddyAllocator, MemError> {
    let mut phys = BuddyAllocator::with_bytes(memory_bytes);
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let _pinned = fragment_memory(&mut phys, 0.5, &mut rng)?;
    Ok(phys)
}

/// [`PreparedRun`] construction with typed errors: workload sizing against physical
/// memory is untrusted input (huge-page mixes under fragmentation can
/// exhaust a small memory), so exhaustion surfaces as
/// [`SimError::WorkloadTooLarge`] rather than a process abort. With
/// `SIPT_AUDIT=1`, the page-table↔allocator ownership audit runs here,
/// while the allocator is still alive. Every step runs fresh: this is the
/// reference the prep cache's shared path is tested against.
///
/// # Errors
///
/// [`SimError::WorkloadTooLarge`] when allocation fails, or
/// [`SimError::Audit`] on an ownership violation.
pub(crate) fn try_prepare_run(
    spec: &WorkloadSpec,
    cond: &Condition,
) -> Result<PreparedRun, SimError> {
    prepare_run_with(spec, cond, fragmented_memory)
}

/// [`try_prepare_run`] with the fragmented allocator taken from
/// `fragmented(memory_bytes, rng_seed)` instead of built fresh; the prep
/// cache passes a clone of its snapshot.
pub(crate) fn prepare_run_with(
    spec: &WorkloadSpec,
    cond: &Condition,
    fragmented: impl FnOnce(u64, u64) -> Result<BuddyAllocator, MemError>,
) -> Result<PreparedRun, SimError> {
    let mut phys = match cond.fragmented {
        true => fragmented(cond.memory_bytes, cond.seed ^ FRAGMENT_SALT).map_err(|e| {
            SimError::WorkloadTooLarge {
                workload: spec.name.to_owned(),
                detail: format!("fragmentation preamble failed: {e}"),
            }
        })?,
        false => BuddyAllocator::with_bytes(cond.memory_bytes),
    };
    let mut asp = AddressSpace::new(0, cond.placement);
    let trace =
        TraceGen::build(spec, &mut asp, &mut phys, cond.warmup + cond.instructions, cond.seed)
            .map_err(|e| SimError::WorkloadTooLarge {
                workload: spec.name.to_owned(),
                detail: e.to_string(),
            })?;
    if crate::audit::enabled() {
        crate::audit::check_ownership(asp.page_table(), &phys)?;
    }
    Ok(PreparedRun { asp, trace })
}

/// Run a workload spec on one L1 configuration and system.
pub fn run_spec(
    spec: &WorkloadSpec,
    l1: L1Config,
    system: SystemKind,
    cond: &Condition,
) -> RunMetrics {
    run_spec_with_trace_capacity(spec, l1, system, cond, trace_capacity())
}

/// [`run_spec`] with an explicit event-trace capacity — the entry point
/// [`crate::sweep::Sweep`] uses so the capacity is resolved once per sweep
/// rather than per worker.
pub(crate) fn run_spec_with_trace_capacity(
    spec: &WorkloadSpec,
    l1: L1Config,
    system: SystemKind,
    cond: &Condition,
    trace_events: usize,
) -> RunMetrics {
    try_run_spec_with_trace_capacity(spec, l1, system, cond, trace_events)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The fallible core of every single-run entry point.
///
/// Preparation goes through [`crate::prep_cache::get_or_prepare`]: with
/// the cache enabled (the default), N configurations sweeping the same
/// `(spec, cond)` share one preparation; disabled, each run prepares
/// fresh. Either way the run replays a
/// [`sipt_workloads::MaterializedTrace`] cursor, so the simulated stream
/// — and therefore every scientific result — is bit-identical.
pub(crate) fn try_run_spec_with_trace_capacity(
    spec: &WorkloadSpec,
    l1: L1Config,
    system: SystemKind,
    cond: &Condition,
    trace_events: usize,
) -> Result<RunMetrics, SimError> {
    try_run_prepared(spec, l1, system, cond, trace_events)
}

fn try_run_prepared(
    spec: &WorkloadSpec,
    l1: L1Config,
    system: SystemKind,
    cond: &Condition,
    trace_events: usize,
) -> Result<RunMetrics, SimError> {
    let t0 = Instant::now();
    let (prepared, mut machine) = {
        let _phase = Span::enter(format!("allocate {}", spec.name), "run.phase");
        let prepared = crate::prep_cache::get_or_prepare(spec, cond)?;
        let mut machine = Machine::new_shared(Arc::clone(&prepared.asp), l1, system);
        machine
            .l1_mut()
            .attach_telemetry_sampled(trace_events, crate::observability::flight_sample_every());
        (prepared, machine)
    };
    let allocated = Instant::now();

    // One replay phase: `limit` instructions through the block kernel.
    let batch = crate::block::replay_batch();
    let run_phase = |machine: &mut Machine,
                     cursor: &mut sipt_workloads::TraceCursor<'_>,
                     limit: usize|
     -> Result<sipt_cpu::CoreResult, SimError> {
        crate::block::replay(system, machine, cursor, limit, batch, spec.name)
    };

    let mut cursor = prepared.trace.cursor();
    {
        let _phase = Span::enter(format!("warmup {}", spec.name), "run.phase");
        run_phase(&mut machine, &mut cursor, cond.warmup as usize)?;
        machine.reset_stats();
    }
    let warmed = Instant::now();
    let core = {
        let _phase = Span::enter(format!("measure {}", spec.name), "run.phase");
        run_phase(&mut machine, &mut cursor, usize::MAX)?
    };
    let measured = Instant::now();

    let measure_secs = measured.duration_since(warmed).as_secs_f64();
    crate::metrics::record_simulation(core.instructions, measure_secs);
    let phases = PhaseProfile {
        allocate_ms: allocated.duration_since(t0).as_secs_f64() * 1e3,
        warmup_ms: warmed.duration_since(allocated).as_secs_f64() * 1e3,
        measure_ms: measure_secs * 1e3,
        simulated_mips: if measure_secs > 0.0 {
            core.instructions as f64 / (measure_secs * 1e6)
        } else {
            0.0
        },
        worker: 0,
    };
    if crate::audit::enabled() {
        crate::audit::check_l1(machine.l1())?;
    }
    let mut metrics = collect(spec.name, core, &machine);
    metrics.phases = phases;
    Ok(metrics)
}

/// Execute a trace on the system's core model through the per-access
/// [`sipt_cpu::MemoryPath`] surface of [`Machine`]: the independent
/// reference the block kernel's differential test compares against.
#[cfg(test)]
pub(crate) fn run_core<I>(system: SystemKind, trace: I, machine: &mut Machine) -> CoreResult
where
    I: IntoIterator<Item = sipt_cpu::Inst>,
{
    use sipt_cpu::{simulate_inorder, simulate_ooo, InOrderConfig, OooConfig};
    match system {
        SystemKind::OooThreeLevel => simulate_ooo(OooConfig::default(), trace, machine),
        SystemKind::InOrderTwoLevel => simulate_inorder(InOrderConfig::default(), trace, machine),
    }
}

/// Assemble metrics from a finished machine. The wall-clock `phases`
/// profile is left default; `run_spec` fills it in (multicore runs keep
/// the default).
pub(crate) fn collect(name: &str, core: CoreResult, machine: &Machine) -> RunMetrics {
    let energy = sipt_energy::account(&machine.energy_params(), &machine.activity(core.cycles));
    if crate::observability::flight_armed() {
        if let Some(t) = machine.l1().telemetry() {
            crate::observability::record_flight(name, t.flight_json());
        }
    }
    RunMetrics {
        name: name.to_owned(),
        core,
        sipt: machine.l1().stats(),
        way_pred: machine.l1().way_pred_stats(),
        tlb: machine.tlb().stats(),
        l2: machine.lower().l2_stats(),
        llc: machine.lower().llc_stats(),
        dram: machine.lower().backend().stats(),
        energy,
        huge_fraction: machine.address_space().huge_page_fraction(),
        phases: PhaseProfile::default(),
        l1_metrics: machine.l1().telemetry().map(|t| t.metrics().snapshot()),
    }
}

/// Translation-level speculation profile of a workload — the data behind
/// Fig 5, computed without any cache model: for each memory access, do the
/// `n` index bits above the page offset survive translation, and is the
/// access backed by a huge page (which guarantees 9 bits)?
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpeculationProfile {
    /// Fraction of accesses whose low `i+1` index bits are unchanged
    /// (indices 0..3 → 1..=3 bits, the paper's "1-bit/2-bit/3-bit" bars).
    pub unchanged: [f64; 3],
    /// Fraction of accesses to huge-page-backed memory (the paper's
    /// "Hugepage (9-bit)" component — 21 offset bits are guaranteed).
    pub hugepage: f64,
    /// Memory accesses profiled.
    pub accesses: u64,
}

/// Profile a benchmark's index-bit stability under the given condition.
///
/// Uses the same preparation as [`run_spec`] — identical allocator state,
/// fragmentation RNG, and trace length — *via the same prep cache*, so
/// when fig05 profiles a benchmark the timed runs already prepared (or
/// vice versa), the workload is prepared exactly once. Profiles only the
/// *measured* window (the trace after `cond.warmup` instructions), so
/// Fig 5 explains exactly the accesses the timed runs measure rather
/// than a shorter, warmup-shifted window. Translations go through a
/// [`TranslationCache`], not a per-access page-table hash probe.
pub fn speculation_profile(name: &str, cond: &Condition) -> SpeculationProfile {
    let spec = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let prepared = crate::prep_cache::get_or_prepare(&spec, cond).unwrap_or_else(|e| panic!("{e}"));
    let page_table = prepared.asp.page_table();
    let mut xlat = TranslationCache::new();
    let mut counts = [0u64; 3];
    let mut huge = 0u64;
    let mut total = 0u64;
    for inst in prepared.trace.cursor().skip(cond.warmup as usize) {
        let Some(mem) = inst.mem else { continue };
        let t = xlat.translate(page_table, mem.va).expect("mapped");
        total += 1;
        for (i, c) in counts.iter_mut().enumerate() {
            if t.index_bits_unchanged(mem.va, i as u32 + 1) {
                *c += 1;
            }
        }
        if t.page_size == sipt_mem::PageSize::Huge2M {
            huge += 1;
        }
    }
    let frac = |c: u64| if total == 0 { 0.0 } else { c as f64 / total as f64 };
    SpeculationProfile {
        unchanged: [frac(counts[0]), frac(counts[1]), frac(counts[2])],
        hugepage: frac(huge),
        accesses: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_core::{baseline_32k_8w_vipt, sipt_32k_2w, L1Policy};

    #[test]
    fn baseline_run_produces_sane_metrics() {
        let m = run_benchmark(
            "sjeng",
            baseline_32k_8w_vipt(),
            SystemKind::OooThreeLevel,
            &Condition::quick(),
        );
        assert_eq!(m.core.instructions, 30_000);
        assert!(m.ipc() > 0.2 && m.ipc() < 6.0, "ipc = {}", m.ipc());
        assert!(m.sipt.hit_rate() > 0.5, "L1 hit rate = {}", m.sipt.hit_rate());
        assert!(m.energy.total() > 0.0);
        assert!(m.tlb.total() > 0);
    }

    #[test]
    fn sipt_beats_baseline_on_friendly_workload() {
        let cond = Condition::quick();
        let base = run_benchmark("hmmer", baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, &cond);
        let sipt = run_benchmark("hmmer", sipt_32k_2w(), SystemKind::OooThreeLevel, &cond);
        assert!(
            sipt.ipc_vs(&base) > 1.0,
            "2-cycle SIPT should beat 4-cycle baseline: {}",
            sipt.ipc_vs(&base)
        );
        assert!(sipt.energy_vs(&base) < 1.0, "energy = {}", sipt.energy_vs(&base));
        assert!(sipt.sipt.fast_fraction() > 0.9, "fast = {}", sipt.sipt.fast_fraction());
    }

    #[test]
    fn naive_sipt_struggles_on_hostile_workload() {
        let cond = Condition::quick();
        let naive = run_benchmark(
            "calculix",
            sipt_32k_2w().with_policy(L1Policy::SiptNaive),
            SystemKind::OooThreeLevel,
            &cond,
        );
        let combined = run_benchmark("calculix", sipt_32k_2w(), SystemKind::OooThreeLevel, &cond);
        assert!(
            naive.sipt.fast_fraction() < 0.6,
            "calculix must defeat naive speculation: {}",
            naive.sipt.fast_fraction()
        );
        assert!(
            combined.sipt.fast_fraction() > naive.sipt.fast_fraction() + 0.2,
            "IDB must rescue calculix: naive {} vs combined {}",
            naive.sipt.fast_fraction(),
            combined.sipt.fast_fraction()
        );
    }

    #[test]
    fn speculation_profile_matches_fig5_shape() {
        let cond = Condition::quick();
        // Streaming burst allocator → huge pages → all bits unchanged.
        let lib = speculation_profile("libquantum", &cond);
        assert!(lib.hugepage > 0.95, "libquantum hugepage = {}", lib.hugepage);
        assert!(lib.unchanged[2] > 0.95);
        // Fine-grained allocator → majority of accesses change bits.
        let cal = speculation_profile("calculix", &cond);
        assert!(cal.unchanged[0] < 0.6, "calculix 1-bit unchanged = {}", cal.unchanged[0]);
        // Monotonic: more bits can only be harder.
        for p in [lib, cal] {
            assert!(p.unchanged[0] >= p.unchanged[1]);
            assert!(p.unchanged[1] >= p.unchanged[2]);
            assert!(p.accesses > 1000);
        }
    }

    #[test]
    fn fragmentation_degrades_speculation() {
        let normal = Condition::quick();
        let fragged = Condition { fragmented: true, memory_bytes: 2 << 30, ..normal };
        let a = speculation_profile("bwaves", &normal);
        let b = speculation_profile("bwaves", &fragged);
        assert!(b.hugepage < 0.05, "no huge pages under Fu(9)>0.95 fragmentation: {}", b.hugepage);
        assert!(b.unchanged[1] < a.unchanged[1]);
    }

    #[test]
    fn in_order_system_runs() {
        let m = run_benchmark(
            "hmmer",
            sipt_core::sipt_64k_4w(),
            SystemKind::InOrderTwoLevel,
            &Condition::quick(),
        );
        assert!(m.l2.is_none());
        assert!(m.ipc() > 0.1 && m.ipc() <= 2.0);
    }

    #[test]
    fn sensitivity_sweep_has_four_conditions() {
        let sweep = Condition::sensitivity_sweep();
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep[0].0, "Normal");
        assert!(sweep[1].1.fragmented);
        assert_eq!(sweep[2].1.placement, PlacementPolicy::ThpOff);
        assert_eq!(sweep[3].1.placement, PlacementPolicy::Scattered);
    }
}
