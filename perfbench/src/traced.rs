//! The traced run: where a sweep's host time goes, layer by layer.
//!
//! It runs the sweep untraced and then traced, and replays every request
//! of the sweep serially on the same prepared inputs. For each request
//! it times the full replay and then each layer alone, by calling the
//! layer's public functions on the inputs the replay saw. Each call into
//! a layer is wrapped in a span recorded from this file; the spans stay
//! in memory with the program's own spans and are written as one
//! Chrome-trace file at the end. Every serial replay is checked against
//! the sweep's result for the same request (see [`crate::checks`]).

use crate::checks;
use crate::workload::{Figure, Workload};
use sipt_cache::LineAddr;
use sipt_core::{L1Policy, PredictorBank, SiptL1};
use sipt_cpu::{
    unpack_meta_fields, InOrderConfig, InOrderEngine, MemOp, MemResponse, OooConfig, OooEngine,
};
use sipt_dram::{Dram, DramConfig};
use sipt_mem::{
    fragment_memory, AddressSpace, BuddyAllocator, Translation, TranslationCache, VirtAddr,
};
use sipt_rng::{SeedableRng, StdRng};
use sipt_sim::{
    prep_cache, replay_trace, resilience, set_isolation, supervisor, Condition, Isolation, Machine,
    RunMetrics, RunRequest, Sweep, SystemKind, DEFAULT_REPLAY_BATCH,
};
use sipt_telemetry::json::Json;
use sipt_telemetry::span::{self, SpanPhase};
use sipt_telemetry::Span;
use sipt_tlb::{DataTlb, TlbConfig};
use sipt_workloads::{MaterializedTrace, TraceGen, WorkloadSpec};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Span category of every span this file records.
const SPAN_CAT: &str = "perfbench";

/// Host seconds per layer and work counts, summed over a sweep's
/// requests. Layer passes cover the whole replayed trace (warmup and
/// measured window); the component counts cover the measured window.
#[derive(Debug, Default)]
pub struct Layers {
    pub trace_build_s: f64,
    pub materialize_s: f64,
    pub fragment_s: f64,
    pub trace_bytes: u64,
    pub replay_s: f64,
    pub cursor_s: f64,
    pub tlb_s: f64,
    pub l1_s: f64,
    pub predictor_s: f64,
    pub engine_s: f64,
    pub lower_s: f64,
    /// Instructions through the replay and every per-instruction layer.
    pub replayed_insts: u64,
    /// Calls into the TLB layer, the L1 layer and the lower hierarchy.
    pub tlb_calls: u64,
    pub l1_calls: u64,
    pub lower_calls: u64,
    /// Predictions the predictor bank counted in its own statistics.
    pub predictor_accesses: u64,
    /// Measured-window counts from the replayed components' statistics.
    pub instructions: u64,
    pub l1_accesses: u64,
    pub l1_misses: u64,
    pub l1_slow_accesses: u64,
    pub tlb_walks: u64,
    pub dram_accesses: u64,
}

impl Layers {
    /// Replay time the timed layers do not account for, per instruction.
    /// The predictor bank is left out of the sum: `SiptL1::access`
    /// consults it, so the L1 layer's time already holds it.
    pub fn residue_ns_per_inst(&self) -> f64 {
        let parts = self.cursor_s + self.tlb_s + self.l1_s + self.engine_s + self.lower_s;
        per(self.replay_s - parts, self.replayed_insts)
    }
}

/// Nanoseconds per unit, 0 when there were no units.
fn per(secs: f64, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        secs * 1e9 / units as f64
    }
}

/// A span recorded from this file around one call into a layer, with
/// the host time it measured.
struct Timed {
    _span: Span,
    start: Instant,
}

impl Timed {
    fn start(layer: &str, what: &str) -> Timed {
        Timed { _span: Span::enter(format!("{layer} {what}"), SPAN_CAT), start: Instant::now() }
    }

    fn secs(self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// One memory reference of a trace, in stream order.
struct MemAccess {
    pc: u64,
    va: VirtAddr,
    store: bool,
}

/// What a layer pass feeds the engine for one instruction.
type Decoded = (Option<u8>, [Option<u8>; 2], Option<bool>, u64);

/// A (benchmark, condition) pair prepared by the program's own
/// preparation steps, split at the warmup boundary the way the runner
/// replays it.
struct Prepared {
    asp: Arc<AddressSpace>,
    warm: MaterializedTrace,
    measured: MaterializedTrace,
    mem: Vec<MemAccess>,
    decoded: Vec<Decoded>,
    measured_mem_refs: u64,
}

/// Prepare one pair with the steps of the runner's preparation — the
/// buddy allocator, the fragmentation preamble with the runner's seed
/// and free fraction, `TraceGen::build` and `MaterializedTrace::from_gen`
/// — timing each step. The serial replays that follow must reproduce
/// the sweep bit for bit, so a drift from the runner fails a check.
fn prepare(spec: &WorkloadSpec, cond: &Condition, layers: &mut Layers) -> Result<Prepared, String> {
    let what = format!("{} {:?} fragmented={}", spec.name, cond.placement, cond.fragmented);
    let mut phys = BuddyAllocator::with_bytes(cond.memory_bytes);
    let _hold = if cond.fragmented {
        let mut rng = StdRng::seed_from_u64(cond.seed ^ 0xF7A6);
        let t = Timed::start("prep.fragment", spec.name);
        let hold = fragment_memory(&mut phys, 0.5, &mut rng).map_err(|e| format!("{what}: {e}"))?;
        layers.fragment_s += t.secs();
        checks::fragmented_enough(&what, phys.unusable_free_space_index(9))?;
        Some(hold)
    } else {
        None
    };
    let mut asp = AddressSpace::new(0, cond.placement);
    let t = Timed::start("prep.trace_build", spec.name);
    let gen =
        TraceGen::build(spec, &mut asp, &mut phys, cond.warmup + cond.instructions, cond.seed)
            .map_err(|e| format!("{what}: {e}"))?;
    layers.trace_build_s += t.secs();
    let t = Timed::start("prep.materialize", spec.name);
    let trace = MaterializedTrace::from_gen(gen);
    layers.materialize_s += t.secs();
    layers.trace_bytes += trace.bytes() as u64;

    let warmup = cond.warmup as usize;
    let warm = MaterializedTrace::from_insts(trace.cursor().take(warmup));
    let measured = MaterializedTrace::from_insts(trace.cursor().skip(warmup));
    let mem: Vec<MemAccess> = trace
        .cursor()
        .filter_map(|inst| {
            inst.mem.map(|m| MemAccess { pc: inst.pc, va: m.va, store: m.op == MemOp::Store })
        })
        .collect();
    let measured_mem_refs = measured.cursor().filter(|inst| inst.mem.is_some()).count() as u64;
    let mut decoded = Vec::with_capacity(trace.len());
    for part in [&warm, &measured] {
        let mut cursor = part.cursor();
        while let Some(block) = cursor.next_block(DEFAULT_REPLAY_BATCH) {
            decoded.extend(block.meta.iter().map(|&meta| unpack_meta_fields(meta)));
        }
    }
    Ok(Prepared { asp: Arc::new(asp), warm, measured, mem, decoded, measured_mem_refs })
}

/// Replay one request as the runner does — a fresh machine over the
/// shared address space, warmup, statistics reset, measured window —
/// and collect its metrics. Returns the metrics and the replay's host
/// seconds.
fn replay(
    req: &RunRequest,
    l1: &sipt_core::L1Config,
    p: &Prepared,
) -> Result<(RunMetrics, f64), String> {
    let what = format!("{} {}", req.label, l1.name);
    let mut machine = Machine::new_shared(Arc::clone(&p.asp), l1.clone(), req.system);
    machine.l1_mut().attach_telemetry_sampled(0, sipt_sim::observability::flight_sample_every());
    let start = Instant::now();
    replay_trace(req.system, &mut machine, &p.warm, req.spec.name)
        .map_err(|e| format!("{what}: {e}"))?;
    machine.reset_stats();
    let core = replay_trace(req.system, &mut machine, &p.measured, req.spec.name)
        .map_err(|e| format!("{what}: {e}"))?;
    let secs = start.elapsed().as_secs_f64();
    let metrics = RunMetrics {
        name: req.spec.name.to_owned(),
        core,
        sipt: machine.l1().stats(),
        way_pred: machine.l1().way_pred_stats(),
        tlb: machine.tlb().stats(),
        l2: machine.lower().l2_stats(),
        llc: machine.lower().llc_stats(),
        dram: machine.lower().backend().stats(),
        energy: sipt_energy::account(&machine.energy_params(), &machine.activity(core.cycles)),
        huge_fraction: machine.address_space().huge_page_fraction(),
        phases: Default::default(),
        l1_metrics: None,
    };
    Ok((metrics, secs))
}

/// One operation the L1 layer hands to the lower hierarchy.
enum LowerOp {
    Access(LineAddr, bool),
    Writeback(LineAddr),
}

/// Time each replay ingredient alone over the request's whole trace.
fn time_layers(req: &RunRequest, p: &Prepared, layers: &mut Layers) {
    let what = req.label.as_str();
    let insts = p.decoded.len() as u64;

    // Cursor: block slicing and metadata decode.
    let t = Timed::start("cursor", what);
    let mut acc = 0u64;
    for part in [&p.warm, &p.measured] {
        let mut cursor = part.cursor();
        while let Some(block) = cursor.next_block(DEFAULT_REPLAY_BATCH) {
            for (&meta, &pc) in block.meta.iter().zip(block.pcs) {
                let (dst, srcs, mem, lat) = unpack_meta_fields(meta);
                acc = acc
                    .wrapping_add(pc ^ lat)
                    .wrapping_add(u64::from(dst.unwrap_or(0)) + u64::from(srcs[0].unwrap_or(0)))
                    .wrapping_add(u64::from(mem.unwrap_or(false)));
            }
            acc = acc.wrapping_add(block.mem_vas.len() as u64);
        }
    }
    black_box(acc);
    layers.cursor_s += t.secs();

    // TLB: the machine's TLB with a translation cache in front of the
    // page-table walk, over the trace's memory VAs.
    let page_table = p.asp.page_table();
    let mut tlb = DataTlb::new(TlbConfig::default());
    let mut xlat = TranslationCache::new();
    let mut translations: Vec<(Translation, u64)> = Vec::with_capacity(p.mem.len());
    let t = Timed::start("tlb", what);
    for a in &p.mem {
        let out = tlb
            .translate_with(a.va, |va| xlat.translate(page_table, va))
            .expect("the replay already translated every address of this trace");
        translations.push((out.translation, out.cycles));
    }
    layers.tlb_s += t.secs();
    layers.tlb_calls += p.mem.len() as u64;

    // L1: demand accesses with the real translations, and the fills of
    // their misses.
    let mut l1 = SiptL1::new(req.l1.clone());
    let mut lower_ops = Vec::new();
    let t = Timed::start("l1", what);
    for (a, &(translation, cycles)) in p.mem.iter().zip(&translations) {
        if !l1.access(a.pc, a.va, translation, cycles, a.store).hit {
            let line = LineAddr::of_phys(translation.pa);
            lower_ops.push(LowerOp::Access(line, a.store));
            if let Some(evicted) = l1.fill(line, a.store) {
                if evicted.dirty {
                    lower_ops.push(LowerOp::Writeback(evicted.line));
                }
            }
        }
    }
    layers.l1_s += t.secs();
    layers.l1_calls += p.mem.len() as u64;

    // Predictor bank: the combined policy's fused perceptron + IDB access
    // on the real PC, index-bits-unchanged outcome and observed delta.
    if req.l1.policy == L1Policy::SiptCombined {
        let cfg = &req.l1;
        let bits = cfg.speculative_bits();
        let want_idb = bits > 1;
        let feed: Vec<(u64, bool, u64)> = p
            .mem
            .iter()
            .zip(&translations)
            .map(|(a, (tr, _))| {
                let delta = if want_idb { tr.index_delta(a.va, bits) } else { 0 };
                (a.pc, tr.index_bits_unchanged(a.va, bits), delta)
            })
            .collect();
        let mut bank = PredictorBank::new(cfg.perceptron, cfg.idb_config(), cfg.counter);
        let t = Timed::start("predictor", what);
        let mut acc = 0u64;
        for &(pc, unchanged, delta) in &feed {
            let out = bank.combined_access(pc, unchanged, want_idb, delta, None);
            acc = acc.wrapping_add(out.delta).wrapping_add(u64::from(out.speculate));
        }
        black_box(acc);
        layers.predictor_s += t.secs();
        layers.predictor_accesses += bank.perceptron_stats().predictions;
    }

    // Engine: the system's core model with constant-latency memory.
    let hit = MemResponse { latency: req.l1.latency, port_slots: 1 };
    let t = Timed::start("engine", what);
    let retired = match req.system {
        SystemKind::OooThreeLevel => {
            let mut engine = OooEngine::new(OooConfig::default());
            for &(dst, srcs, mem, lat) in &p.decoded {
                engine.step(dst, srcs, mem, lat, |_| hit);
            }
            engine.finish().instructions
        }
        SystemKind::InOrderTwoLevel => {
            let mut engine = InOrderEngine::new(InOrderConfig::default());
            for &(dst, srcs, mem, lat) in &p.decoded {
                engine.step(dst, srcs, mem, lat, |_| hit);
            }
            engine.finish().instructions
        }
    };
    layers.engine_s += t.secs();
    assert_eq!(retired, insts, "the engine layer retires every instruction of the trace");

    // Lower hierarchy: the L1 layer's misses and writebacks, in order, on
    // a clock advanced by each service latency.
    let mut lower = sipt_cache::LowerHierarchy::new(
        req.system.l2(),
        req.system.llc(),
        Dram::new(DramConfig::default()),
    );
    let t = Timed::start("lower", what);
    let mut now = 0u64;
    for op in &lower_ops {
        match *op {
            LowerOp::Access(line, write) => now += lower.access(line, write, now).latency,
            LowerOp::Writeback(line) => lower.writeback(line),
        }
    }
    black_box(now);
    layers.lower_s += t.secs();
    layers.lower_calls += lower_ops.len() as u64;
    layers.replayed_insts += insts;
}

/// Replay every request of the workload's sweep serially, time each
/// layer on the same inputs, and check the outputs:
///
/// - each run's measured-window counts ([`checks::window_counts`]);
/// - each run equals the sweep's run of the same request;
/// - speculating runs hold the same contents as the ideal twin of the
///   same geometry and system (ideal runs are twinned with naive SIPT);
/// - fragmented preparations reach `Fu(9) >= 0.95` and their runs have
///   almost no huge pages;
/// - the figure rebuilt from the serial runs equals `figure`.
pub fn replay_and_check(
    workload: Workload,
    benches: &[&str],
    cond: &Condition,
    sweep_runs: &[RunMetrics],
    figure: &Figure,
) -> Result<Layers, String> {
    let requests = workload.requests(benches, cond);
    if sweep_runs.len() != requests.len() {
        return Err(format!("{} sweep runs for {} requests", sweep_runs.len(), requests.len()));
    }
    // Requests grouped by their prepared pair, in first-use order.
    let mut pairs: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, req) in requests.iter().enumerate() {
        let key = prep_cache::fingerprint(&req.spec, &req.cond);
        match pairs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, idxs)) => idxs.push(i),
            None => pairs.push((key, vec![i])),
        }
    }
    let mut layers = Layers::default();
    let mut serial: Vec<Option<RunMetrics>> = vec![None; requests.len()];
    for (_, idxs) in &pairs {
        let first = &requests[idxs[0]];
        let prepared = prepare(&first.spec, &first.cond, &mut layers)?;
        for &i in idxs {
            let req = &requests[i];
            let what = format!(
                "{} {} {:?} {:?} fragmented={}",
                req.label, req.l1.name, req.system, req.cond.placement, req.cond.fragmented
            );
            let t = Timed::start("replay", &req.label);
            let (m, secs) = replay(req, &req.l1, &prepared)?;
            drop(t);
            layers.replay_s += secs;
            checks::window_counts(&what, req.cond.instructions, prepared.measured_mem_refs, &m)?;
            checks::same_simulated_fields(&format!("{what} serial vs sweep"), &m, &sweep_runs[i])?;
            if req.cond.fragmented {
                checks::few_huge_pages(&what, m.huge_fraction)?;
            }
            let twin = match req.l1.policy {
                L1Policy::SiptNaive | L1Policy::SiptBypass | L1Policy::SiptCombined => {
                    Some(L1Policy::Ideal)
                }
                L1Policy::Ideal => Some(L1Policy::SiptNaive),
                L1Policy::Vipt | L1Policy::Pipt => None,
            };
            if let Some(policy) = twin {
                let (other, _) = replay(req, &req.l1.clone().with_policy(policy), &prepared)?;
                let (speculating, ideal) = match policy {
                    L1Policy::Ideal => (&m, &other),
                    _ => (&other, &m),
                };
                checks::same_contents(&what, speculating, ideal)?;
            }
            time_layers(req, &prepared, &mut layers);
            layers.instructions += m.core.instructions;
            layers.l1_accesses += m.sipt.accesses;
            layers.l1_misses += m.sipt.misses;
            layers.l1_slow_accesses += m.sipt.accesses - m.sipt.fast_accesses;
            layers.tlb_walks += m.tlb.walks;
            layers.dram_accesses += m.dram.reads + m.dram.writes;
            serial[i] = Some(m);
        }
    }
    let serial: Vec<RunMetrics> =
        serial.into_iter().map(|m| m.expect("every request was replayed")).collect();
    checks::figures_identical(
        "the figure rebuilt from serial runs vs the sweep's",
        &workload.figure_from_runs(benches, &serial),
        figure,
    )?;
    Ok(layers)
}

/// Summed duration of the program's `prep_cache` spans that resolved to
/// a hit: time a worker spent on a pair another worker prepared,
/// waiting on that pair's cell until the preparation finished.
pub fn prep_wait_s(events: &[span::SpanEvent]) -> f64 {
    let mut open: std::collections::HashMap<u32, Vec<(&'static str, u64)>> = Default::default();
    let mut total_us = 0u64;
    for e in events {
        match e.phase {
            SpanPhase::Begin => open.entry(e.tid).or_default().push((e.cat, e.ts_us)),
            SpanPhase::End => {
                let Some((cat, begin)) = open.get_mut(&e.tid).and_then(Vec::pop) else { continue };
                let hit = e.args.iter().any(|(k, v)| *k == "outcome" && v.as_str() == Some("hit"));
                if cat == "prep_cache" && hit {
                    total_us += e.ts_us.saturating_sub(begin);
                }
            }
            SpanPhase::Instant => {}
        }
    }
    total_us as f64 / 1e6
}

/// Per-worker busy milliseconds and pool wall milliseconds accumulated
/// over every sweep so far.
fn parallelism_totals() -> (Vec<f64>, f64) {
    let Some(json) = sipt_sim::sweep::parallelism_json() else { return (Vec::new(), 0.0) };
    let busy = json
        .get("worker_busy_ms")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    (busy, json.get("wall_ms").and_then(Json::as_f64).unwrap_or(0.0))
}

/// Worker processes the supervisor has spawned so far.
fn workers_spawned() -> u64 {
    supervisor::supervisor_json()
        .and_then(|j| j.get("workers_spawned").and_then(Json::as_f64))
        .map_or(0, |v| v as u64)
}

/// One sweep of `requests` from a cold process-wide prep cache, with its
/// wall-clock seconds.
fn timed_sweep(requests: &[RunRequest]) -> (Vec<RunMetrics>, f64) {
    prep_cache::clear();
    let mut sweep = Sweep::new();
    for req in requests {
        sweep.push(req.clone());
    }
    let start = Instant::now();
    let runs = sweep.run().metrics;
    (runs, start.elapsed().as_secs_f64())
}

/// What the traced run measured.
pub struct TracedReport {
    pub layers: Layers,
    pub tasks: u64,
    pub failed: u64,
    pub prep_hits: u64,
    pub prep_misses: u64,
    pub prep_wait_s: f64,
    pub busy_s: f64,
    pub idle_s: f64,
    pub supervisor_overhead_s: f64,
    pub supervisor_busy_spread_s: f64,
    pub workers_spawned: u64,
    pub trace_overhead_s: f64,
    pub trace_path: PathBuf,
}

impl TracedReport {
    /// The per-layer metrics of `BENCHMARK.json`, with their units.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let l = &self.layers;
        vec![
            ("prep.trace_build_ms", l.trace_build_s * 1e3, "ms"),
            ("prep.materialize_ms", l.materialize_s * 1e3, "ms"),
            ("prep.fragment_ms", l.fragment_s * 1e3, "ms"),
            ("prep.trace_mb", l.trace_bytes as f64 / 1e6, "MB"),
            ("prep_cache.hits", self.prep_hits as f64, "count"),
            ("prep_cache.misses", self.prep_misses as f64, "count"),
            ("sweep.prep_wait_s", self.prep_wait_s, "s"),
            ("sweep.busy_s", self.busy_s, "s"),
            ("sweep.idle_s", self.idle_s, "s"),
            ("supervisor.overhead_s", self.supervisor_overhead_s, "s"),
            ("supervisor.busy_spread_s", self.supervisor_busy_spread_s, "s"),
            ("supervisor.workers_spawned", self.workers_spawned as f64, "count"),
            ("replay.ns_per_inst", per(l.replay_s, l.replayed_insts), "ns"),
            ("cursor.ns_per_inst", per(l.cursor_s, l.replayed_insts), "ns"),
            ("tlb.ns_per_access", per(l.tlb_s, l.tlb_calls), "ns"),
            ("l1.ns_per_access", per(l.l1_s, l.l1_calls), "ns"),
            ("predictor.ns_per_access", per(l.predictor_s, l.predictor_accesses), "ns"),
            ("engine.ns_per_inst", per(l.engine_s, l.replayed_insts), "ns"),
            ("lower.ns_per_access", per(l.lower_s, l.lower_calls), "ns"),
            ("replay.residue_ns_per_inst", l.residue_ns_per_inst(), "ns"),
            ("replay.instructions", l.instructions as f64, "count"),
            ("l1.accesses", l.l1_accesses as f64, "count"),
            ("l1.misses", l.l1_misses as f64, "count"),
            ("l1.slow_accesses", l.l1_slow_accesses as f64, "count"),
            ("tlb.walks", l.tlb_walks as f64, "count"),
            ("predictor.accesses", l.predictor_accesses as f64, "count"),
            ("lower.dram_accesses", l.dram_accesses as f64, "count"),
            ("trace.overhead_s", self.trace_overhead_s, "s"),
        ]
    }
}

/// The traced run of `workload`: an untraced sweep, for
/// `ideal_process` the same sweep under thread isolation, the figure's
/// figure function with spans on, and then the serial layer passes.
pub fn run(
    workload: Workload,
    benches: &[&str],
    cond: &Condition,
    jobs: usize,
) -> Result<TracedReport, String> {
    let requests = workload.requests(benches, cond);
    let failures_before = resilience::failure_count();

    let (untraced_runs, untraced_wall) = timed_sweep(&requests);
    let mut supervisor_overhead_s = 0.0;
    if workload.isolation() == Isolation::Process {
        set_isolation(Isolation::Thread);
        let (thread_runs, thread_wall) = timed_sweep(&requests);
        set_isolation(workload.isolation());
        for (i, (a, b)) in untraced_runs.iter().zip(&thread_runs).enumerate() {
            checks::same_simulated_fields(&format!("run {i} process vs thread isolation"), a, b)?;
        }
        supervisor_overhead_s = untraced_wall - thread_wall;
    }

    span::reset();
    span::set_enabled(true);
    prep_cache::clear();
    let (busy_before, wall_before) = parallelism_totals();
    let spawned_before = workers_spawned();
    let start = Instant::now();
    let figure = workload.run_figure(benches, cond);
    let traced_wall = start.elapsed().as_secs_f64();
    let (busy_after, wall_after) = parallelism_totals();
    let prep_stats = prep_cache::stats();
    prep_cache::clear();
    checks::figure_bounds(&figure)?;
    let failed = (resilience::failure_count() - failures_before) as u64;

    let worker_busy: Vec<f64> = busy_after
        .iter()
        .enumerate()
        .map(|(i, after)| (after - busy_before.get(i).copied().unwrap_or(0.0)) / 1e3)
        .collect();
    let busy_s: f64 = worker_busy.iter().sum();
    let pool_wall_s = (wall_after - wall_before) / 1e3;
    let process = workload.isolation() == Isolation::Process;
    let spread = worker_busy.iter().copied().fold(f64::MIN, f64::max)
        - worker_busy.iter().copied().fold(f64::MAX, f64::min);

    let layers = replay_and_check(workload, benches, cond, &untraced_runs, &figure)?;

    let trace_path = PathBuf::from("results").join("perfbench").join(format!(
        "{}-seed{}.trace.json",
        workload.name(),
        cond.seed
    ));
    let events = span::snapshot_events();
    span::set_enabled(false);
    std::fs::create_dir_all(trace_path.parent().expect("the trace path has a directory"))
        .and_then(|()| std::fs::write(&trace_path, span::export_chrome_trace().render()))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    Ok(TracedReport {
        layers,
        tasks: 2 * requests.len() as u64 + if process { requests.len() as u64 } else { 0 },
        failed,
        prep_hits: prep_stats.hits,
        prep_misses: prep_stats.misses,
        prep_wait_s: prep_wait_s(&events),
        busy_s,
        idle_s: jobs as f64 * pool_wall_s - busy_s,
        supervisor_overhead_s,
        supervisor_busy_spread_s: if process { spread } else { 0.0 },
        workers_spawned: workers_spawned() - spawned_before,
        trace_overhead_s: traced_wall - untraced_wall,
        trace_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_telemetry::span::SpanEvent;

    fn ev(
        phase: SpanPhase,
        cat: &'static str,
        ts_us: u64,
        tid: u32,
        outcome: Option<&str>,
    ) -> SpanEvent {
        SpanEvent {
            phase,
            name: "prep x".into(),
            cat,
            ts_us,
            tid,
            args: outcome.map(|o| vec![("outcome", Json::str(o))]).unwrap_or_default(),
        }
    }

    #[test]
    fn prep_wait_sums_only_hit_spans_per_thread() {
        let events = [
            ev(SpanPhase::Begin, "prep_cache", 0, 1, None),
            ev(SpanPhase::Begin, "prep_cache", 10, 2, None),
            ev(SpanPhase::End, "", 500_000, 1, Some("miss")),
            ev(SpanPhase::End, "", 400_010, 2, Some("hit")),
            ev(SpanPhase::Begin, "run.phase", 0, 1, None),
            ev(SpanPhase::End, "", 900_000, 1, Some("hit")),
        ];
        assert_eq!(prep_wait_s(&events), 0.4);
    }

    /// Every check of the traced run holds on mcf, calculix and
    /// libquantum, for each workload's sweep shape.
    #[test]
    fn checks_hold_on_three_benchmarks() {
        let benches = ["mcf", "calculix", "libquantum"];
        let cond = Condition { instructions: 20_000, warmup: 5_000, ..Condition::default() };
        for workload in Workload::ALL {
            let requests = workload.requests(&benches, &cond);
            let (runs, _) = timed_sweep(&requests);
            let figure = workload.run_figure(&benches, &cond);
            checks::figure_bounds(&figure).unwrap();
            let layers = replay_and_check(workload, &benches, &cond, &runs, &figure)
                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert_eq!(layers.instructions, cond.instructions * requests.len() as u64);
            assert!(layers.replay_s > 0.0 && layers.l1_calls > 0);
            assert_eq!(layers.predictor_accesses > 0, workload != Workload::IdealProcess);
            assert_eq!(layers.fragment_s > 0.0, workload == Workload::Sensitivity);
        }
    }

    #[test]
    fn a_flipped_sweep_field_fails_the_replay_check() {
        let benches = ["mcf"];
        let cond = Condition { instructions: 10_000, warmup: 2_000, ..Condition::default() };
        let workload = Workload::CombinedOoo;
        let (mut runs, _) = timed_sweep(&workload.requests(&benches, &cond));
        let figure = workload.run_figure(&benches, &cond);
        replay_and_check(workload, &benches, &cond, &runs, &figure).unwrap();
        runs[1].sipt.idb_hits ^= 1;
        let err = replay_and_check(workload, &benches, &cond, &runs, &figure).unwrap_err();
        assert!(err.contains("serial vs sweep"), "{err}");
    }
}
