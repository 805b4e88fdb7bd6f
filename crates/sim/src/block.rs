//! The block-replay kernel: the hot path of every timed run.
//!
//! Per-access replay (`runner::run_core`) pays, for every instruction, an
//! `Inst` rematerialization, a TLB probe, two `match`es on the L1 policy,
//! and a virtual-ish hop through the [`MemoryPath`] trait object surface.
//! This module restructures the loop around fixed-size blocks of packed
//! structure-of-arrays instructions ([`sipt_workloads::InstBlock`]):
//!
//! 1. **Translation hoisted out of the timing loop** — each block's
//!    memory VAs are translated *before* the timing loop. Consecutive
//!    accesses to the same 4 KiB page skip the set-associative TLB probe
//!    via [`sipt_tlb::DataTlb::translate_repeat`]; every other access
//!    takes the plain [`sipt_tlb::DataTlb::translate_with`] probe.
//!    Translation state (TLB + translation cache) is disjoint from the
//!    cache hierarchy and translations are time-independent, so hoisting
//!    them out of the timing loop is bit-identical by construction.
//! 2. **Monomorphized policy dispatch** — the `(SystemKind, L1Policy)`
//!    pair is matched *once per run*; the inner loop calls
//!    [`sipt_core::SiptL1::access_mono`] with a zero-sized
//!    [`sipt_core::PolicyTag`], so the per-access policy `match`es constant-fold
//!    away and the engine step inlines without trait indirection.
//! 3. **Engine state in a struct** — [`sipt_cpu::OooEngine`] /
//!    [`sipt_cpu::InOrderEngine`] carry the timestamp-dataflow state, so the
//!    kernel steps decoded fields (`unpack_meta_fields`) without building
//!    `Inst` values.
//! 4. **Per-block telemetry accumulation** — when the attached
//!    [`sipt_core::L1Telemetry`] retains no events and samples every
//!    access (the runner's default), the timing loop records into a
//!    stack-local [`sipt_core::BlockTelemetry`] and merges it into the
//!    shared sink once per block, keeping the ring-buffer and sampling
//!    machinery off the per-access path. Snapshots, flight summaries and
//!    tracer drop-accounting stay byte-identical (pinned by
//!    `block_merge_matches_sequential_recording` in `sipt-core`).
//!
//! Phase 2 steps every instruction through the engine one at a time, and
//! every memory access goes through the L1 (and its predictor bank) once.
//!
//! A translation fault (an unmapped VA — possible only for *external*
//! traces, never for generated workloads) surfaces as a typed
//! [`SimError::Trace`] instead of a panic, before any timing state is
//! advanced for the faulting block.
//!
//! Callers pass the batch size; production callers pass [`replay_batch`]
//! (`SIPT_REPLAY_BATCH`, default [`DEFAULT_REPLAY_BATCH`], or
//! [`set_replay_batch`]). Any batch size produces bit-identical results —
//! the golden-fingerprint tests pin this.

use crate::error::SimError;
use crate::machine::{Machine, SystemKind};
use sipt_cache::{LineAddr, LowerHierarchy};
use sipt_core::{policy_tags, BlockTelemetry, L1Policy, PolicyTag, SiptL1};
use sipt_cpu::{
    unpack_meta_fields, CoreResult, InOrderConfig, InOrderEngine, MemResponse, OooConfig, OooEngine,
};
use sipt_dram::Dram;
use sipt_mem::{VirtAddr, VirtPageNum};
use sipt_tlb::TlbOutcome;
use sipt_workloads::{InstBlock, MaterializedTrace, TraceCursor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Batch-size knob
// ---------------------------------------------------------------------------

/// Default instructions per replay block. Large enough to amortize the
/// per-block dispatch and translation-buffer setup, small enough that the
/// block's SoA slices and translation buffer stay L1-cache resident.
pub const DEFAULT_REPLAY_BATCH: usize = 256;

/// Programmatic batch override (0 = unset; takes precedence over the
/// environment).
static BATCH_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide replay batch size, overriding `SIPT_REPLAY_BATCH`
/// (0 clears the override). Any batch size yields bit-identical results;
/// this knob exists for the differential tests and the CI batch smoke.
pub fn set_replay_batch(batch: usize) {
    BATCH_OVERRIDE.store(batch, Ordering::Relaxed);
}

/// The replay batch size: the [`set_replay_batch`] override, else
/// `SIPT_REPLAY_BATCH` (parsed once, clamped to >= 1, malformed values
/// warn), else [`DEFAULT_REPLAY_BATCH`].
pub fn replay_batch() -> usize {
    let explicit = BATCH_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    static PARSED: OnceLock<usize> = OnceLock::new();
    *PARSED.get_or_init(|| match crate::env::parse_or_warn("SIPT_REPLAY_BATCH") {
        Some(0) => {
            eprintln!("warning: SIPT_REPLAY_BATCH=0 is invalid (need >= 1); using the default");
            DEFAULT_REPLAY_BATCH
        }
        Some(n) => n.min(usize::MAX as u64) as usize,
        None => DEFAULT_REPLAY_BATCH,
    })
}

// ---------------------------------------------------------------------------
// Engine abstraction
// ---------------------------------------------------------------------------

/// The two core timing engines, unified for the kernel's generic inner
/// loop. Implemented on the concrete engine types so every call site
/// monomorphizes — no dyn dispatch on the hot path.
trait BlockEngine {
    /// Fresh engine with the system's Table II default configuration.
    fn fresh() -> Self;
    /// Advance by one decoded instruction (same contract as
    /// [`OooEngine::step`]).
    fn step_inst<F: FnMut(u64) -> MemResponse>(
        &mut self,
        dst: Option<u8>,
        srcs: [Option<u8>; 2],
        mem_store: Option<bool>,
        exec_latency: u64,
        mem: F,
    );
    /// Final counts for the stream stepped so far.
    fn result(&self) -> CoreResult;
}

impl BlockEngine for OooEngine {
    fn fresh() -> Self {
        OooEngine::new(OooConfig::default())
    }

    #[inline(always)]
    fn step_inst<F: FnMut(u64) -> MemResponse>(
        &mut self,
        dst: Option<u8>,
        srcs: [Option<u8>; 2],
        mem_store: Option<bool>,
        exec_latency: u64,
        mem: F,
    ) {
        self.step(dst, srcs, mem_store, exec_latency, mem);
    }

    fn result(&self) -> CoreResult {
        self.finish()
    }
}

impl BlockEngine for InOrderEngine {
    fn fresh() -> Self {
        InOrderEngine::new(InOrderConfig::default())
    }

    #[inline(always)]
    fn step_inst<F: FnMut(u64) -> MemResponse>(
        &mut self,
        dst: Option<u8>,
        srcs: [Option<u8>; 2],
        mem_store: Option<bool>,
        exec_latency: u64,
        mem: F,
    ) {
        self.step(dst, srcs, mem_store, exec_latency, mem);
    }

    fn result(&self) -> CoreResult {
        self.finish()
    }
}

// ---------------------------------------------------------------------------
// The kernel
// ---------------------------------------------------------------------------

/// Replay up to `limit` instructions from `cursor` through `machine` on
/// the system's core model, in blocks of `batch` (at least 1)
/// instructions. Pass `usize::MAX` to drain the cursor. The cursor stops
/// exactly at the boundary, so warmup and measurement are separate calls
/// (VPN coalescing state never crosses the `reset_stats` boundary — it is
/// per-block anyway).
///
/// # Errors
///
/// [`SimError::Trace`] when the stream references an unmapped virtual
/// address (`workload` names the stream in the error).
pub(crate) fn replay(
    system: SystemKind,
    machine: &mut Machine,
    cursor: &mut TraceCursor<'_>,
    limit: usize,
    batch: usize,
    workload: &str,
) -> Result<CoreResult, SimError> {
    debug_assert!(batch > 0, "replay batch must be at least 1");
    // One match per *run*: 2 systems x 6 policies, each arm a fully
    // monomorphized kernel instance.
    macro_rules! dispatch_policies {
        ($engine:ty) => {
            match machine.l1.config().policy {
                L1Policy::Vipt => replay_mono::<$engine, policy_tags::Vipt>(
                    machine, cursor, limit, batch, workload,
                ),
                L1Policy::Ideal => replay_mono::<$engine, policy_tags::Ideal>(
                    machine, cursor, limit, batch, workload,
                ),
                L1Policy::Pipt => replay_mono::<$engine, policy_tags::Pipt>(
                    machine, cursor, limit, batch, workload,
                ),
                L1Policy::SiptNaive => replay_mono::<$engine, policy_tags::SiptNaive>(
                    machine, cursor, limit, batch, workload,
                ),
                L1Policy::SiptBypass => replay_mono::<$engine, policy_tags::SiptBypass>(
                    machine, cursor, limit, batch, workload,
                ),
                L1Policy::SiptCombined => replay_mono::<$engine, policy_tags::SiptCombined>(
                    machine, cursor, limit, batch, workload,
                ),
            }
        };
    }
    match system {
        SystemKind::OooThreeLevel => dispatch_policies!(OooEngine),
        SystemKind::InOrderTwoLevel => dispatch_policies!(InOrderEngine),
    }
}

/// Replay a whole materialized trace through `machine` — the public entry
/// point for external traces (`trace_tool replay`, differential tests).
///
/// # Errors
///
/// [`SimError::Trace`] when the trace references an unmapped virtual
/// address — external trace files are untrusted input, so a bad trace is
/// a typed, *non-retryable* error rather than a panic.
pub fn replay_trace(
    system: SystemKind,
    machine: &mut Machine,
    trace: &MaterializedTrace,
    workload: &str,
) -> Result<CoreResult, SimError> {
    let mut cursor = trace.cursor();
    replay(system, machine, &mut cursor, usize::MAX, replay_batch(), workload)
}

/// The monomorphized kernel body: everything the per-access path did, with
/// translation hoisted per block and the policy constant-folded.
fn replay_mono<E: BlockEngine, P: PolicyTag>(
    machine: &mut Machine,
    cursor: &mut TraceCursor<'_>,
    limit: usize,
    batch: usize,
    workload: &str,
) -> Result<CoreResult, SimError> {
    let mut engine = E::fresh();
    let mut xbuf: Vec<TlbOutcome> = Vec::with_capacity(batch.min(1 << 16));
    // Telemetry mode is a property of the attachment, fixed for the run:
    // block accumulation when the tracer retains nothing and sampling is
    // 1:1 (the runner's default), per-access recording otherwise.
    let block_tlm = machine.l1().telemetry_block_eligible();
    let mut blk = BlockTelemetry::new();
    let mut remaining = limit;
    while remaining > 0 {
        let Some(block) = cursor.next_block(batch.min(remaining)) else { break };
        remaining -= block.len();

        // Disjoint field borrows: the translation phase needs tlb + xlat +
        // asp; the timing phase needs l1 + lower.
        let Machine { asp, tlb, xlat, l1, lower, .. } = machine;

        // Phase 1: translate the block's memory VAs. `prev_vpn` tracks VPN
        // runs (the previous outcome is xbuf's last entry).
        xbuf.clear();
        let mut prev_vpn: Option<VirtPageNum> = None;
        for &raw in block.mem_vas {
            let va = VirtAddr::new(raw);
            let vpn = va.vpn();
            let outcome = if prev_vpn == Some(vpn) {
                let prev = xbuf.last().expect("a VPN run starts with a full translation");
                tlb.translate_repeat(prev, va)
            } else {
                tlb.translate_with(va, |va| xlat.translate(asp.page_table(), va))
                    .map_err(|fault| SimError::trace(workload, fault.to_string()))?
            };
            prev_vpn = Some(vpn);
            xbuf.push(outcome);
        }

        // Phase 2: step the timing engine over the block, then drain the
        // block-local telemetry (if engaged) in one merge.
        if block_tlm {
            step_block::<E, P, true>(&mut engine, l1, lower, &block, &xbuf, &mut blk);
            l1.flush_block_telemetry(&mut blk);
        } else {
            step_block::<E, P, false>(&mut engine, l1, lower, &block, &xbuf, &mut blk);
        }
    }
    Ok(engine.result())
}

/// Phase 2 of the kernel: step the timing engine over one block. Memory
/// instructions consume pre-translated outcomes in order; the memory
/// closure is the body of `Machine::access` minus the TLB probe. `BLK_TLM`
/// selects block-local telemetry accumulation at compile time, so the
/// per-access path carries no telemetry-mode branch in either instance.
#[inline]
fn step_block<E: BlockEngine, P: PolicyTag, const BLK_TLM: bool>(
    engine: &mut E,
    l1: &mut SiptL1,
    lower: &mut LowerHierarchy<Dram>,
    block: &InstBlock<'_>,
    xbuf: &[TlbOutcome],
    blk: &mut BlockTelemetry,
) {
    let mut mem_idx = 0usize;
    for (&meta, &pc) in block.meta.iter().zip(block.pcs) {
        let (dst, srcs, mem_store, exec_latency) = unpack_meta_fields(meta);
        let Some(is_store) = mem_store else {
            engine.step_inst(dst, srcs, None, exec_latency, |_| -> MemResponse {
                unreachable!("non-memory instruction")
            });
            continue;
        };
        let va = VirtAddr::new(block.mem_vas[mem_idx]);
        let outcome = xbuf[mem_idx];
        mem_idx += 1;
        engine.step_inst(dst, srcs, Some(is_store), exec_latency, |now| {
            let access = if BLK_TLM {
                l1.access_mono_block::<P>(
                    pc,
                    va,
                    outcome.translation,
                    outcome.cycles,
                    is_store,
                    blk,
                )
            } else {
                l1.access_mono::<P>(pc, va, outcome.translation, outcome.cycles, is_store)
            };
            let mut latency = access.latency;
            if !access.hit {
                let line = LineAddr::of_phys(outcome.translation.pa);
                let service = lower.access(line, is_store, now + latency);
                latency += service.latency;
                if let Some(evicted) = l1.fill(line, is_store) {
                    if evicted.dirty {
                        lower.writeback(evicted.line);
                    }
                }
            }
            MemResponse { latency, port_slots: access.array_reads.max(1) }
        });
    }
    debug_assert_eq!(mem_idx, xbuf.len(), "every memory VA consumed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_core::{sipt_32k_2w, L1Config};
    use sipt_cpu::Inst;
    use sipt_mem::{AddressSpace, BuddyAllocator, PlacementPolicy};
    use sipt_workloads::{benchmark, TraceGen};

    fn prepared(name: &str, n: u64) -> (AddressSpace, MaterializedTrace) {
        let spec = benchmark(name).unwrap();
        let mut phys = BuddyAllocator::with_bytes(1 << 30);
        let mut asp = AddressSpace::new(0, PlacementPolicy::LinuxDefault);
        let gen = TraceGen::build(&spec, &mut asp, &mut phys, n, 42).unwrap();
        (asp, MaterializedTrace::from_gen(gen))
    }

    fn run_block(
        system: SystemKind,
        l1: L1Config,
        asp: AddressSpace,
        trace: &MaterializedTrace,
        warmup: usize,
        batch: usize,
    ) -> (CoreResult, Machine) {
        let mut machine = Machine::new(asp, l1, system);
        let mut cursor = trace.cursor();
        replay(system, &mut machine, &mut cursor, warmup, batch, "test").unwrap();
        machine.reset_stats();
        let core = replay(system, &mut machine, &mut cursor, usize::MAX, batch, "test").unwrap();
        (core, machine)
    }

    fn run_per_access(
        system: SystemKind,
        l1: L1Config,
        asp: AddressSpace,
        trace: &MaterializedTrace,
        warmup: usize,
    ) -> (CoreResult, Machine) {
        let mut machine = Machine::new(asp, l1, system);
        let mut cursor = trace.cursor();
        crate::runner::run_core(system, (&mut cursor).take(warmup), &mut machine);
        machine.reset_stats();
        let core = crate::runner::run_core(system, cursor, &mut machine);
        assert!(machine.take_fault().is_none());
        (core, machine)
    }

    /// The load-bearing invariant: the block kernel is bit-identical to
    /// per-access replay — same core counts and same per-structure stats —
    /// for every system, representative policies, and batch sizes
    /// bracketing the block boundary cases.
    #[test]
    fn block_kernel_matches_per_access_replay() {
        use sipt_core::baseline_32k_8w_vipt;
        let cases = [
            (SystemKind::OooThreeLevel, sipt_32k_2w()),
            (SystemKind::OooThreeLevel, baseline_32k_8w_vipt()),
            (SystemKind::InOrderTwoLevel, sipt_32k_2w()),
        ];
        for (system, l1) in cases {
            let policy = l1.policy;
            let (asp_ref, trace) = prepared("mcf", 12_000);
            let (ref_core, ref_machine) =
                run_per_access(system, l1.clone(), asp_ref, &trace, 3_000);
            for batch in [1usize, 7, 256] {
                let (asp, trace2) = prepared("mcf", 12_000);
                assert_eq!(trace2, trace, "preparation is deterministic");
                let (core, machine) = run_block(system, l1.clone(), asp, &trace2, 3_000, batch);
                let tag = format!("{system:?}/{policy:?} batch {batch}");
                assert_eq!(core, ref_core, "{tag}");
                assert_eq!(machine.l1().stats(), ref_machine.l1().stats(), "{tag}");
                assert_eq!(machine.tlb().stats(), ref_machine.tlb().stats(), "{tag}");
                assert_eq!(machine.lower().llc_stats(), ref_machine.lower().llc_stats(), "{tag}");
            }
        }
    }

    #[test]
    fn unmapped_va_surfaces_as_typed_trace_error() {
        let (asp, _) = prepared("mcf", 100);
        let bogus = MaterializedTrace::from_insts(vec![Inst::load(
            0x40,
            1,
            None,
            VirtAddr::new(0xdead_0000_0000),
        )]);
        let mut machine = Machine::new(asp, sipt_32k_2w(), SystemKind::OooThreeLevel);
        let err =
            replay_trace(SystemKind::OooThreeLevel, &mut machine, &bogus, "bad-trace").unwrap_err();
        assert!(matches!(err, SimError::Trace { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("bad-trace") && msg.contains("page fault"), "{msg}");
    }

    #[test]
    fn limit_zero_runs_nothing() {
        let (asp, trace) = prepared("sjeng", 500);
        let mut machine = Machine::new(asp, sipt_32k_2w(), SystemKind::OooThreeLevel);
        let mut cursor = trace.cursor();
        let system = SystemKind::OooThreeLevel;
        let core =
            replay(system, &mut machine, &mut cursor, 0, DEFAULT_REPLAY_BATCH, "test").unwrap();
        assert_eq!(core.instructions, 0);
        // The cursor did not advance: a full drain still sees everything.
        let rest =
            replay(system, &mut machine, &mut cursor, usize::MAX, DEFAULT_REPLAY_BATCH, "test")
                .unwrap();
        assert_eq!(rest.instructions, 500);
    }

    #[test]
    fn batch_knob_resolution_order() {
        set_replay_batch(17);
        assert_eq!(replay_batch(), 17);
        set_replay_batch(0); // clears the override back to env/default
        set_replay_batch(DEFAULT_REPLAY_BATCH);
        assert_eq!(replay_batch(), DEFAULT_REPLAY_BATCH);
    }
}
