//! The workload-preparation cache must be invisible in the results: a
//! cached run and a `SIPT_PREP_CACHE=0` run must produce byte-identical
//! report payloads, for any worker count, and resuming from a checkpoint
//! must not touch (or double-count) the prep cache at all. These tests
//! pin that contract for fig02, the bypass-predictor ablation and a
//! Fig 18-shaped sweep, whose interleaved (system, condition) order is
//! what the pool's prep-affine scheduling regroups.
//!
//! The cache and the sweep job count are process-wide state, so every
//! test serializes on one gate and restores the defaults afterwards.

use sipt_core::{sipt_32k_2w, BypassKind, L1Policy};
use sipt_sim::experiments::{ideal, report, sensitivity, smoke_benchmarks};
use sipt_sim::{checkpoint, prep_cache, set_jobs, Condition, RunMetrics, Sweep, SystemKind};
use sipt_telemetry::json::Json;
use std::sync::{Mutex, PoisonError};

/// Serialize tests that flip process-wide knobs (cache enable, jobs,
/// checkpoint), with clean cache state on entry and defaults restored on
/// exit.
fn with_exclusive_state<R>(f: impl FnOnce() -> R) -> R {
    static GATE: Mutex<()> = Mutex::new(());
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    checkpoint::clear();
    prep_cache::clear();
    prep_cache::set_enabled(true);
    let out = f();
    checkpoint::clear();
    prep_cache::clear();
    prep_cache::set_enabled(true);
    set_jobs(1);
    out
}

/// fig02's exact payload bytes at smoke scale (the figure drivers render
/// object keys in deterministic order, so equal strings mean equal
/// reports).
fn fig02_payload() -> String {
    report::ideal_json(&ideal::fig2(&smoke_benchmarks(), &Condition::quick())).render()
}

/// Fig 18's payload bytes on two smoke benchmarks: every (benchmark,
/// condition) pair is submitted twice, once per system, with the other
/// pairs in between.
fn fig18_payload() -> String {
    report::fig18_json(&sensitivity::fig18(&smoke_benchmarks()[..2], &Condition::quick())).render()
}

/// The bypass-predictor ablation's sweep (perceptron vs counter per
/// benchmark), rendered per-run with the host-time-dependent `phases`
/// object masked out.
fn ablation_payload() -> Vec<String> {
    let cond = Condition::quick();
    let mut sweep = Sweep::new();
    for &bench in &smoke_benchmarks() {
        sweep.bench(
            bench,
            sipt_32k_2w().with_policy(L1Policy::SiptBypass),
            SystemKind::OooThreeLevel,
            &cond,
        );
        sweep.bench(
            bench,
            sipt_32k_2w().with_policy(L1Policy::SiptBypass).with_bypass(BypassKind::Counter),
            SystemKind::OooThreeLevel,
            &cond,
        );
    }
    sweep.run().metrics.iter().map(masked_report).collect()
}

fn masked_report(m: &RunMetrics) -> String {
    let mut json = report::run_summary_json(m);
    json.insert("phases", Json::str("masked"));
    json.render()
}

#[test]
fn fig02_cached_vs_uncached_byte_identical_jobs_1() {
    with_exclusive_state(|| {
        set_jobs(1);
        let cached = fig02_payload();
        let stats = prep_cache::stats();
        assert!(stats.hits > 0, "5 extra configs per benchmark must hit, got {stats:?}");
        assert_eq!(
            stats.misses,
            smoke_benchmarks().len() as u64,
            "one preparation per distinct benchmark"
        );

        prep_cache::set_enabled(false);
        let uncached = fig02_payload();
        let after = prep_cache::stats();
        assert_eq!(
            (after.hits, after.misses),
            (stats.hits, stats.misses),
            "disabled counts nothing"
        );

        assert_eq!(cached, uncached, "fig02 payload must not depend on the prep cache");
    });
}

#[test]
fn fig02_cached_vs_uncached_byte_identical_jobs_8() {
    with_exclusive_state(|| {
        set_jobs(8);
        let cached = fig02_payload();
        prep_cache::set_enabled(false);
        let uncached = fig02_payload();
        assert_eq!(cached, uncached, "fig02 payload must not depend on the prep cache at jobs 8");
    });
}

#[test]
fn fig02_cache_counters_independent_of_job_count() {
    with_exclusive_state(|| {
        set_jobs(1);
        let _ = fig02_payload();
        let serial = prep_cache::stats();
        prep_cache::clear();
        set_jobs(8);
        let _ = fig02_payload();
        let parallel = prep_cache::stats();
        assert_eq!(
            (serial.hits, serial.misses),
            (parallel.hits, parallel.misses),
            "hit/miss accounting must be deterministic across worker counts"
        );
    });
}

#[test]
fn ablation_cached_vs_uncached_byte_identical_both_job_counts() {
    with_exclusive_state(|| {
        for jobs in [1usize, 8] {
            set_jobs(jobs);
            prep_cache::clear();
            prep_cache::set_enabled(true);
            let cached = ablation_payload();
            prep_cache::set_enabled(false);
            let uncached = ablation_payload();
            assert_eq!(
                cached, uncached,
                "ablation payload must not depend on the prep cache at jobs {jobs}"
            );
        }
    });
}

#[test]
fn fig18_cached_vs_uncached_byte_identical_at_every_job_count() {
    with_exclusive_state(|| {
        for jobs in [1usize, 2, 8] {
            set_jobs(jobs);
            prep_cache::clear();
            prep_cache::set_enabled(true);
            let cached = fig18_payload();
            prep_cache::set_enabled(false);
            let uncached = fig18_payload();
            assert_eq!(
                cached, uncached,
                "fig18 payload must not depend on the prep cache at jobs {jobs}"
            );
        }
    });
}

#[test]
fn fig18_prepares_each_pair_once_at_jobs_1_and_8() {
    with_exclusive_state(|| {
        // Two benchmarks × four conditions; both systems share a pair.
        let pairs = 2 * sipt_sim::Condition::sensitivity_sweep().len() as u64;
        assert_eq!(pairs, 8);
        for jobs in [1usize, 8] {
            set_jobs(jobs);
            prep_cache::clear();
            let _ = fig18_payload();
            let stats = prep_cache::stats();
            assert_eq!(stats.misses, pairs, "one preparation per distinct pair at jobs {jobs}");
        }
    });
}

/// Resume-with-cache interaction: a resumed sweep restores completed
/// tasks from the checkpoint *without* executing them, so it must not
/// perform any prep-cache lookups — checkpoint hits and cache hits are
/// disjoint counters and must never double-count.
#[test]
fn resume_restores_without_touching_the_prep_cache() {
    with_exclusive_state(|| {
        set_jobs(2);
        let dir = std::env::temp_dir()
            .join(format!("sipt-prep-cache-determinism-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fig02.checkpoint.json");

        // First run: records every completed task to the checkpoint.
        let ckpt = checkpoint::configure(&path, true).expect("arm checkpoint");
        assert_eq!(ckpt.restored_len(), 0, "fresh checkpoint restores nothing");
        let first = fig02_payload();
        let after_first = prep_cache::stats();
        assert!(after_first.misses > 0, "first run must prepare workloads");

        // Second run, resuming: every task restores from the checkpoint,
        // so the prep cache must see zero additional lookups.
        checkpoint::clear();
        let ckpt = checkpoint::configure(&path, true).expect("re-arm checkpoint");
        assert!(ckpt.restored_len() > 0, "checkpoint must have recorded the first run");
        let resumed = fig02_payload();
        let after_resume = prep_cache::stats();

        assert_eq!(first, resumed, "resumed payload must be byte-identical");
        assert_eq!(
            (after_resume.hits, after_resume.misses),
            (after_first.hits, after_first.misses),
            "restored tasks must not touch the prep cache (no double-counting)"
        );

        checkpoint::clear();
        let _ = std::fs::remove_dir_all(&dir);
    });
}
