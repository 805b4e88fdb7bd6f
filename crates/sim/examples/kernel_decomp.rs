//! Wall-clock decomposition of the block-replay kernel — a profiling aid,
//! not a benchmark of record (`cargo run -p sipt-sim --release --example
//! kernel_decomp`). Times each kernel ingredient in isolation over the
//! same trace the full kernel replays, so a perf regression can be
//! attributed to a phase without a system profiler.

use sipt_cache::WayPredictor;
use sipt_core::{sipt_32k_2w, L1Policy, PredictorBank, SiptL1};
use sipt_cpu::{unpack_meta_fields, MemResponse, OooConfig, OooEngine};
use sipt_mem::{
    AddressSpace, BuddyAllocator, PhysAddr, PhysFrameNum, PlacementPolicy, Translation, VirtAddr,
};
use sipt_predictors::{IndexDeltaBuffer, PerceptronPredictor};
use sipt_sim::{replay_trace, Machine, SystemKind};
use sipt_workloads::{benchmark, MaterializedTrace, TraceGen};
use std::time::Instant;

const INSTS: u64 = 200_000;
const REPS: u32 = 5;

fn time<R>(label: &str, insts: u64, mut f: impl FnMut() -> R) {
    // One warmup, then best-of-REPS.
    std::hint::black_box(f());
    let mut best = f64::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    println!("{label:32} {:8.2} ns/inst  ({:.1} ms)", best * 1e9 / insts as f64, best * 1e3);
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "mcf".into());
    let spec = benchmark(&which).unwrap();
    let mut phys = BuddyAllocator::with_bytes(1 << 30);
    let mut asp = AddressSpace::new(7, PlacementPolicy::LinuxDefault);
    let gen = TraceGen::build(&spec, &mut asp, &mut phys, INSTS, 42).unwrap();
    let trace = MaterializedTrace::from_gen(gen);
    let mem_count: u64 = {
        let mut c = trace.cursor();
        let mut n = 0u64;
        while let Some(b) = c.next_block(4096) {
            n += b.mem_vas.len() as u64;
        }
        n
    };
    println!(
        "trace {which}: {INSTS} insts, {mem_count} memory refs ({:.0}%)",
        100.0 * mem_count as f64 / INSTS as f64
    );

    // (a) full kernel, one replay per policy.
    for (label, cfg) in [
        ("full replay (SiptCombined)", sipt_32k_2w()),
        ("full replay (Ideal)", sipt_32k_2w().with_policy(L1Policy::Ideal)),
    ] {
        let mut machine = Machine::new(asp.clone(), cfg, SystemKind::OooThreeLevel);
        time(label, INSTS, || {
            replay_trace(SystemKind::OooThreeLevel, &mut machine, &trace, "decomp").unwrap()
        });
    }

    // (b) cursor walk alone: block slicing + meta decode.
    time("cursor + meta decode", INSTS, || {
        let mut c = trace.cursor();
        let mut acc = 0u64;
        while let Some(b) = c.next_block(256) {
            for (&meta, &pc) in b.meta.iter().zip(b.pcs) {
                let (d, s, m, l) = unpack_meta_fields(meta);
                acc = acc
                    .wrapping_add(pc)
                    .wrapping_add(l)
                    .wrapping_add(d.unwrap_or(0) as u64)
                    .wrapping_add(s[0].unwrap_or(0) as u64)
                    .wrapping_add(m.map_or(0, u64::from));
            }
        }
        acc
    });

    // (c) engine steps alone: constant-latency memory, no L1/TLB.
    time("engine step (OOO)", INSTS, || {
        let mut engine = OooEngine::new(OooConfig::default());
        let mut c = trace.cursor();
        while let Some(b) = c.next_block(256) {
            for &meta in b.meta {
                let (dst, srcs, mem_store, lat) = unpack_meta_fields(meta);
                engine
                    .step(dst, srcs, mem_store, lat, |_| MemResponse { latency: 3, port_slots: 1 });
            }
        }
        engine.finish()
    });

    // (d) L1 access alone over the trace's memory VAs (identity
    // translation; hit-heavy by construction).
    for (label, policy) in [
        ("l1 access (SiptCombined)", L1Policy::SiptCombined),
        ("l1 access (Ideal)", L1Policy::Ideal),
    ] {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(policy));
        let vas: Vec<u64> = {
            let mut c = trace.cursor();
            let mut v = Vec::new();
            while let Some(b) = c.next_block(4096) {
                v.extend_from_slice(b.mem_vas);
            }
            v
        };
        time(label, vas.len() as u64, || {
            let mut acc = 0u64;
            for (i, &raw) in vas.iter().enumerate() {
                let va = VirtAddr::new(raw);
                let t = Translation {
                    pa: PhysAddr::new(raw),
                    pfn: PhysFrameNum::new(raw >> 12),
                    page_size: sipt_mem::PageSize::Base4K,
                };
                let a = l1.access(0x400000 + (i as u64 % 64) * 4, va, t, 2, false);
                acc = acc.wrapping_add(a.latency);
            }
            acc
        });
    }

    // (e) combined-predictor decomposition: the L1's predictor overhead
    // split into its ingredients, each over the trace's memory-access
    // stream. Outcomes use a deterministic synthetic mix (~75% index bits
    // unchanged) so the perceptron trains at a realistic rate instead of
    // saturating, and deltas derive from the VA's index bits.
    let cfg = sipt_32k_2w();
    let (pcs, mvas): (Vec<u64>, Vec<u64>) = {
        let mut c = trace.cursor();
        let (mut p, mut v) = (Vec::new(), Vec::new());
        while let Some(b) = c.next_block(4096) {
            let mut mi = 0usize;
            for (&meta, &pc) in b.meta.iter().zip(b.pcs) {
                if unpack_meta_fields(meta).2.is_some() {
                    p.push(pc);
                    v.push(b.mem_vas[mi]);
                    mi += 1;
                }
            }
        }
        (p, v)
    };
    let unchanged: Vec<bool> = mvas.iter().map(|&raw| (raw ^ (raw >> 7)) & 3 != 0).collect();
    let deltas: Vec<u64> = mvas.iter().map(|&raw| (raw >> 12) & 3).collect();
    let nmem = pcs.len() as u64;

    time("  perceptron predict+train", nmem, || {
        let mut p = PerceptronPredictor::new(cfg.perceptron);
        let mut acc = 0u64;
        for (&pc, &un) in pcs.iter().zip(&unchanged) {
            acc = acc.wrapping_add(u64::from(p.predict(pc)));
            p.update(pc, un);
        }
        acc
    });
    time("  idb predict+update", nmem, || {
        let mut idb = IndexDeltaBuffer::new(cfg.idb_config());
        let mut acc = 0u64;
        for (&pc, &d) in pcs.iter().zip(&deltas) {
            acc = acc.wrapping_add(idb.predict(pc));
            idb.update(pc, d);
        }
        acc
    });
    time("  way predictor", nmem, || {
        let mut wp = WayPredictor::new(cfg.geometry.sets(), cfg.geometry.ways);
        let mut acc = 0u64;
        for &raw in &mvas {
            let set = (raw >> 6) % cfg.geometry.sets();
            let way = wp.predict(set);
            acc = acc.wrapping_add(u64::from(way));
            wp.record_hit(set, way ^ ((raw >> 9) as u32 & 1));
        }
        acc
    });
    time("  bank fused combined", nmem, || {
        let mut bank = PredictorBank::new(cfg.perceptron, cfg.idb_config(), cfg.counter);
        let mut acc = 0u64;
        for ((&pc, &un), &d) in pcs.iter().zip(&unchanged).zip(&deltas) {
            let o = bank.combined_access(pc, un, true, d, None);
            acc = acc.wrapping_add(o.margin).wrapping_add(o.delta);
        }
        acc
    });
}
