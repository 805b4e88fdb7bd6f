//! Future-work exploration: SIPT for instruction caches.
//!
//! The paper defers I-caches, arguing they should work "at least as well"
//! because instruction working sets are small and I-TLB hit rates high
//! (§III, citing Bhattacharjee & Martonosi). This driver checks that
//! argument inside our framework: it maps each workload's *code* (the
//! distinct pages its instruction PCs occupy) through the same OS model
//! used for data, then replays the dynamic PC stream through a SIPT-
//! configured L1 used as an I-cache, reporting speculation accuracy and
//! hit rates.
//!
//! No timing integration is attempted — fetch latency interacts with the
//! branch front-end, which this reproduction does not model — so the
//! result is a feasibility profile, exactly the form of evidence the
//! paper's future-work remark rests on.

use crate::runner::Condition;
use crate::sweep::run_parallel_default;
use sipt_core::{L1Config, SiptL1};
use sipt_mem::{AddressSpace, BuddyAllocator, VirtAddr, VirtPageNum, PAGE_SIZE};
use sipt_tlb::{DataTlb, TlbConfig};
use sipt_workloads::{benchmark, TraceGen};

/// Result of replaying a workload's PC stream through an I-side SIPT L1.
#[derive(Debug, Clone, PartialEq)]
pub struct ICacheRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Distinct 4 KiB code pages the PC stream touched.
    pub code_pages: u64,
    /// I-L1 hit rate.
    pub hit_rate: f64,
    /// Fast-access fraction (speculation or IDB correct).
    pub fast_fraction: f64,
    /// I-TLB L1 hit rate.
    pub itlb_hit_rate: f64,
}

/// Replay each benchmark's instruction PCs through an I-SIPT cache.
pub fn future_icache(benchmarks: &[&str], cond: &Condition, l1: L1Config) -> Vec<ICacheRow> {
    let tasks: Vec<_> = benchmarks
        .iter()
        .map(|&name| {
            let cond = *cond;
            let l1 = l1.clone();
            move || replay_one(name, &cond, l1)
        })
        .collect();
    run_parallel_default(tasks).0
}

/// Replay one benchmark's instruction PCs through an I-side SIPT L1.
fn replay_one(name: &str, cond: &Condition, l1: L1Config) -> ICacheRow {
    let spec = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark {name}"));
    let mut phys = match cond.fragmented {
        true => crate::prep_cache::fragmented_memory(cond.memory_bytes, cond.seed ^ 0x1CAC)
            .expect("fragment"),
        false => BuddyAllocator::with_bytes(cond.memory_bytes),
    };
    let mut asp = AddressSpace::new(0, cond.placement);
    // Build the data side only to obtain the dynamic PC stream.
    let trace =
        TraceGen::build(&spec, &mut asp, &mut phys, cond.instructions, cond.seed).expect("fit");
    let pcs: Vec<u64> = trace.map(|inst| inst.pc).collect();

    // Map the code: one linear code region sized by the distinct
    // PC pages, allocated through the same OS model (code segments
    // are mapped in one burst at exec time).
    let mut code_pages: Vec<u64> = pcs.iter().map(|pc| pc / PAGE_SIZE).collect();
    code_pages.sort_unstable();
    code_pages.dedup();
    let code_base = *code_pages.first().expect("nonempty trace");
    let span_pages = code_pages.last().unwrap() - code_base + 1;
    let code_region = asp.mmap(span_pages * PAGE_SIZE, &mut phys).expect("code fits");

    // Replay fetches.
    let mut il1 = SiptL1::new(l1);
    let mut itlb = DataTlb::new(TlbConfig::default());
    for pc in &pcs {
        let va = VirtAddr::new(code_region.start.raw() + (pc - code_base * PAGE_SIZE));
        let outcome = itlb.translate(va, asp.page_table()).expect("code mapped");
        let access = il1.access(*pc, va, outcome.translation, outcome.cycles, false);
        if !access.hit {
            il1.fill(sipt_cache::LineAddr::of_phys(outcome.translation.pa), false);
        }
    }
    let _ = VirtPageNum::new(0);
    let stats = il1.stats();
    ICacheRow {
        benchmark: name.to_owned(),
        code_pages: code_pages.len() as u64,
        hit_rate: stats.hit_rate(),
        fast_fraction: stats.fast_fraction(),
        itlb_hit_rate: itlb.stats().l1_hit_rate(),
    }
}

/// Render the exploration as a table.
pub fn render(rows: &[ICacheRow]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.code_pages.to_string(),
                super::report::pct(r.hit_rate),
                super::report::pct(r.fast_fraction),
                super::report::pct(r.itlb_hit_rate),
            ]
        })
        .collect();
    super::report::table(&["benchmark", "code pages", "I-L1 hit", "fast", "I-TLB hit"], &table_rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_core::sipt_32k_2w;

    #[test]
    fn instruction_side_is_sipt_friendly() {
        let cond = Condition { instructions: 20_000, warmup: 0, ..Condition::default() };
        let rows = future_icache(&["sjeng", "gcc"], &cond, sipt_32k_2w());
        for r in &rows {
            // Small code footprints, high hit rates, near-perfect
            // speculation — the paper's future-work premise.
            assert!(r.code_pages < 512, "{}: {} pages", r.benchmark, r.code_pages);
            assert!(r.hit_rate > 0.9, "{}: I-L1 hit {}", r.benchmark, r.hit_rate);
            assert!(r.fast_fraction > 0.9, "{}: fast {}", r.benchmark, r.fast_fraction);
            assert!(r.itlb_hit_rate > 0.95, "{}: I-TLB {}", r.benchmark, r.itlb_hit_rate);
        }
        assert!(!render(&rows).is_empty());
    }
}
