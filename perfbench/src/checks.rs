//! Output checks made apart from the program: bounds every figure must
//! respect, counts that must agree between components, and identities
//! between runs that may differ only in host time.
//!
//! Each check returns `Err` with a message naming the run and the
//! quantities that disagree.

use crate::workload::Figure;
use sipt_sim::RunMetrics;

/// The result of one check.
pub type Check = Result<(), String>;

/// Normalized IPCs and energies are finite and positive; fractions of
/// accesses lie in `[0, 1]`.
pub fn figure_bounds(fig: &Figure) -> Check {
    if let Some(v) = fig.ratios().into_iter().find(|v| !v.is_finite() || *v <= 0.0) {
        return Err(format!("normalized value {v} is not finite and positive"));
    }
    if let Some(v) = fig.fractions().into_iter().find(|v| !(0.0..=1.0).contains(v)) {
        return Err(format!("fraction {v} lies outside [0, 1]"));
    }
    Ok(())
}

/// Two figures agree bit for bit. `Debug` prints every `f64` in its
/// shortest round-trip form, so equal renderings mean equal bits.
pub fn figures_identical(what: &str, a: &Figure, b: &Figure) -> Check {
    if format!("{a:?}") != format!("{b:?}") {
        return Err(format!("{what}: figures differ\n  {a:?}\n  {b:?}"));
    }
    Ok(())
}

/// Every simulated field of a run: what must not depend on how or where
/// the run executed. Host-time phases and telemetry snapshots are left
/// out.
fn simulated_fields(m: &RunMetrics) -> String {
    format!(
        "{:?}",
        (m.core, m.sipt, m.way_pred, m.tlb, m.l2, m.llc, m.dram, m.energy, m.huge_fraction)
    )
}

/// Two runs of the same request produced the same simulated fields.
pub fn same_simulated_fields(what: &str, a: &RunMetrics, b: &RunMetrics) -> Check {
    let (fa, fb) = (simulated_fields(a), simulated_fields(b));
    if fa != fb {
        return Err(format!("{what}: simulated fields differ\n  {fa}\n  {fb}"));
    }
    Ok(())
}

/// Counts of one run's measured window agree across the components:
///
/// - the core retired exactly `instructions`;
/// - core memory ops = L1 demand accesses = TLB translations = the
///   memory references of the window, counted by walking the trace;
/// - L2 accesses = L1 misses, and LLC accesses = L2 misses on the
///   three-level system or = L1 misses on the two-level one.
pub fn window_counts(what: &str, instructions: u64, trace_mem_refs: u64, m: &RunMetrics) -> Check {
    if m.core.instructions != instructions {
        return Err(format!(
            "{what}: retired {} instructions, not {instructions}",
            m.core.instructions
        ));
    }
    let refs = [
        ("core memory ops", m.core.mem_ops),
        ("L1 demand accesses", m.sipt.accesses),
        ("TLB translations", m.tlb.total()),
    ];
    if let Some((name, n)) = refs.into_iter().find(|&(_, n)| n != trace_mem_refs) {
        return Err(format!(
            "{what}: {name} = {n}, but the trace holds {trace_mem_refs} memory references"
        ));
    }
    let llc_feed = match m.l2 {
        Some(l2) => {
            if l2.accesses != m.sipt.misses {
                return Err(format!(
                    "{what}: L2 accesses {} != L1 misses {}",
                    l2.accesses, m.sipt.misses
                ));
            }
            ("L2 misses", l2.misses)
        }
        None => ("L1 misses", m.sipt.misses),
    };
    if m.llc.accesses != llc_feed.1 {
        return Err(format!(
            "{what}: LLC accesses {} != {} {}",
            m.llc.accesses, llc_feed.0, llc_feed.1
        ));
    }
    Ok(())
}

/// A speculating run and the ideal run of the same geometry and system
/// hold the same contents: speculation changes timing only, so L1 hits
/// and misses and every lower-level count agree.
pub fn same_contents(what: &str, speculating: &RunMetrics, ideal: &RunMetrics) -> Check {
    let contents = |m: &RunMetrics| {
        format!(
            "L1 hits {} misses {}, L2 {:?}, LLC {:?}, DRAM reads {} writes {}",
            m.sipt.hits, m.sipt.misses, m.l2, m.llc, m.dram.reads, m.dram.writes
        )
    };
    let (a, b) = (contents(speculating), contents(ideal));
    if a != b {
        return Err(format!("{what}: speculation changed cache contents\n  {a}\n  {b}"));
    }
    Ok(())
}

/// The fragmentation preamble reached the paper's `Fu(9) >= 0.95`.
pub fn fragmented_enough(what: &str, unusable_free_space_index: f64) -> Check {
    if unusable_free_space_index < 0.95 {
        return Err(format!(
            "{what}: Fu(9) = {unusable_free_space_index} < 0.95 after fragmentation"
        ));
    }
    Ok(())
}

/// A workload allocated in fragmented memory got almost no huge pages.
pub fn few_huge_pages(what: &str, huge_fraction: f64) -> Check {
    if huge_fraction >= 0.05 {
        return Err(format!(
            "{what}: huge-page fraction {huge_fraction} >= 0.05 in fragmented memory"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use sipt_core::{sipt_32k_2w, L1Policy};
    use sipt_sim::{run_benchmark, Condition, SystemKind};

    fn run(policy: L1Policy, system: SystemKind) -> RunMetrics {
        run_benchmark("mcf", sipt_32k_2w().with_policy(policy), system, &Condition::quick())
    }

    fn mem_refs(m: &RunMetrics) -> u64 {
        m.core.mem_ops
    }

    #[test]
    fn figure_bounds_catch_a_bad_ipc_and_a_bad_fraction() {
        let benches = ["mcf"];
        let cond = Condition::quick();
        for w in [Workload::IdealProcess, Workload::CombinedOoo] {
            let runs: Vec<RunMetrics> = w
                .requests(&benches, &cond)
                .iter()
                .map(|r| run_benchmark(r.spec.name, r.l1.clone(), r.system, &r.cond))
                .collect();
            let fig = w.figure_from_runs(&benches, &runs);
            figure_bounds(&fig).unwrap();
            let mut bad = fig.clone();
            match &mut bad {
                Figure::Fig2(f) => f.rows[0].normalized_ipc[0] = 0.0,
                Figure::Fig12(rows) => rows[0].by_bits[0].slow = 1.0 + 1e-9,
                Figure::Fig18(_) => unreachable!(),
            }
            assert!(figure_bounds(&bad).is_err());
            assert!(figures_identical("perturbed", &fig, &bad).is_err());
            figures_identical("same", &fig, &fig.clone()).unwrap();
        }
    }

    #[test]
    fn window_counts_catch_each_off_by_one() {
        for system in [SystemKind::OooThreeLevel, SystemKind::InOrderTwoLevel] {
            let m = run(L1Policy::SiptCombined, system);
            let insts = Condition::quick().instructions;
            window_counts("clean", insts, mem_refs(&m), &m).unwrap();
            assert!(window_counts("insts", insts + 1, mem_refs(&m), &m).is_err());
            assert!(window_counts("refs", insts, mem_refs(&m) + 1, &m).is_err());
            let mut bad = m.clone();
            bad.sipt.accesses += 1;
            assert!(window_counts("l1", insts, mem_refs(&m), &bad).is_err());
            let mut bad = m.clone();
            bad.tlb.walks += 1;
            assert!(window_counts("tlb", insts, mem_refs(&m), &bad).is_err());
            let mut bad = m.clone();
            bad.llc.accesses += 1;
            assert!(window_counts("llc", insts, mem_refs(&m), &bad).is_err());
            if let Some(l2) = m.l2 {
                let mut bad = m.clone();
                bad.l2 = Some(sipt_cache::LevelStats { accesses: l2.accesses + 1, ..l2 });
                assert!(window_counts("l2", insts, mem_refs(&m), &bad).is_err());
            }
        }
    }

    #[test]
    fn same_contents_and_fields_catch_one_flipped_count() {
        let ideal = run(L1Policy::Ideal, SystemKind::OooThreeLevel);
        for policy in [L1Policy::SiptNaive, L1Policy::SiptCombined] {
            let spec = run(policy, SystemKind::OooThreeLevel);
            same_contents("clean", &spec, &ideal).unwrap();
            let mut bad = spec.clone();
            bad.dram.reads += 1;
            assert!(same_contents("dram", &bad, &ideal).is_err());
            let mut bad = spec.clone();
            bad.sipt.hits -= 1;
            assert!(same_contents("l1", &bad, &ideal).is_err());
        }
        same_simulated_fields("clean", &ideal, &ideal.clone()).unwrap();
        let mut bad = ideal.clone();
        bad.core.cycles += 1;
        assert!(same_simulated_fields("cycles", &ideal, &bad).is_err());
        let mut bad = ideal.clone();
        bad.huge_fraction = f64::from_bits(ideal.huge_fraction.to_bits() ^ 1);
        assert!(same_simulated_fields("huge", &ideal, &bad).is_err());
    }

    #[test]
    fn fragmentation_checks_have_edges() {
        fragmented_enough("ok", 0.95).unwrap();
        assert!(fragmented_enough("low", 0.9499).is_err());
        few_huge_pages("ok", 0.0499).unwrap();
        assert!(few_huge_pages("high", 0.05).is_err());
    }
}
