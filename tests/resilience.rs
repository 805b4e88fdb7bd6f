//! Integration tests for the resilience layer: panic isolation on the
//! sweep pool, the watchdog, checkpoint/resume bit-exactness, and the
//! typed error surface on untrusted-input paths.
//!
//! Several of these tests mutate process-wide state (the watchdog
//! timeout, the active checkpoint), so they serialize on one lock.

use sipt_core::{baseline_32k_8w_vipt, sipt_32k_2w};
use sipt_sim::sweep::Sweep;
use sipt_sim::{checkpoint, resilience};
use sipt_sim::{run_benchmark, Condition, PoolTask, SimError, SystemKind};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The tentpole guarantee: a panic in task k of n is captured as a
/// structured failure while every other task completes with metrics
/// bit-identical to a clean direct run.
#[test]
fn panic_in_one_task_leaves_survivors_bit_identical() {
    let _g = global_lock();
    let cond = Condition::quick();
    let names = ["sjeng", "mcf", "libquantum", "calculix"];
    let k = 2; // libquantum's slot panics
    let base = resilience::allocate_task_ids(names.len());
    let tasks: Vec<PoolTask<_>> = names
        .iter()
        .enumerate()
        .map(|(i, name)| PoolTask {
            id: base + i,
            affinity: i as u64,
            label: (*name).to_owned(),
            task: move |_worker: usize| {
                if i == k {
                    panic!("injected corruption in {name}");
                }
                run_benchmark(name, sipt_32k_2w(), SystemKind::OooThreeLevel, &cond)
            },
        })
        .collect();
    let (outcomes, profile) = sipt_sim::run_parallel_isolated(tasks, 2, 1);
    assert_eq!(profile.tasks, names.len());
    for (i, name) in names.iter().enumerate() {
        if i == k {
            let failure = outcomes[i].as_ref().expect_err("task k must fail");
            assert_eq!(failure.task, base + k);
            assert_eq!(failure.label, *name);
            assert_eq!(failure.attempts, 1);
            assert!(failure.panic_msg.contains("injected corruption"));
        } else {
            let m = outcomes[i].as_ref().expect("survivor completes");
            let direct = run_benchmark(name, sipt_32k_2w(), SystemKind::OooThreeLevel, &cond);
            assert_eq!(m.core, direct.core, "{name}: core counters must be bit-identical");
            assert_eq!(m.sipt, direct.sipt, "{name}: L1 stats must be bit-identical");
            assert_eq!(m.energy, direct.energy, "{name}: energy must be bit-identical");
        }
    }
}

/// The watchdog flags (but does not kill, by default) a task exceeding
/// the configured `--task-timeout`.
#[test]
fn watchdog_flags_overrunning_tasks() {
    let _g = global_lock();
    resilience::set_task_timeout_ms(30);
    let base = resilience::allocate_task_ids(1);
    let tasks = vec![PoolTask {
        id: base,
        affinity: 0,
        label: "sleeper".to_owned(),
        task: move |_worker: usize| {
            std::thread::sleep(std::time::Duration::from_millis(150));
            7u8
        },
    }];
    let (outcomes, _) = sipt_sim::run_parallel_isolated(tasks, 1, 1);
    resilience::set_task_timeout_ms(0); // watchdog off again
    assert_eq!(*outcomes[0].as_ref().expect("slow is not failed"), 7);
    let flags = resilience::watchdog_flags();
    let flag = flags.iter().find(|f| f.task == base).expect("the overrunning task must be flagged");
    assert_eq!(flag.timeout_ms, 30);
    assert!(flag.elapsed_ms > 30.0, "flag fired at {} ms", flag.elapsed_ms);
}

/// Checkpoint/resume: a sweep whose tasks were persisted restores them
/// bit-exactly (byte-identical metric encodings) instead of re-running.
#[test]
fn checkpoint_resume_restores_bit_exactly() {
    let _g = global_lock();
    let dir = std::env::temp_dir().join(format!("sipt-resilience-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("sweep.checkpoint.json");
    let cond = Condition::quick();
    let build = || {
        let mut sweep = Sweep::new();
        for name in ["sjeng", "mcf"] {
            sweep.bench(name, baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, &cond);
            sweep.bench(name, sipt_32k_2w(), SystemKind::OooThreeLevel, &cond);
        }
        sweep
    };

    // First run: fresh checkpoint, everything simulated and persisted.
    checkpoint::configure(&path, false).expect("fresh checkpoint");
    let first = build().run_with_jobs(2);
    checkpoint::clear();
    assert!(first.failures.is_empty());
    assert_eq!(first.metrics.len(), 4);

    // Second run: resume. All four tasks restore from disk (matched by
    // content fingerprint), so nothing is simulated and the metrics are
    // byte-identical under the bit-exact codec.
    let handle = checkpoint::configure(&path, true).expect("resume");
    assert_eq!(handle.restored_len(), 4, "all four tasks on file");
    let second = build().run_with_jobs(2);
    checkpoint::clear();
    let _ = std::fs::remove_dir_all(&dir);

    assert!(second.failures.is_empty());
    assert_eq!(second.profile.tasks, 0, "resume must skip all simulation");
    for (i, (a, b)) in first.metrics.iter().zip(&second.metrics).enumerate() {
        assert_eq!(
            checkpoint::encode_metrics(a),
            checkpoint::encode_metrics(b),
            "slot {i}: resumed metrics must be bit-identical"
        );
    }
}

/// Untrusted-input paths return typed [`SimError`]s instead of panicking.
#[test]
fn typed_errors_replace_panics_on_untrusted_input() {
    let cond = Condition::quick();
    let err = sipt_sim::try_run_benchmark(
        "no-such-bench",
        baseline_32k_8w_vipt(),
        SystemKind::OooThreeLevel,
        &cond,
    )
    .expect_err("unknown benchmark");
    assert!(matches!(err, SimError::UnknownBenchmark { .. }));
    assert!(err.to_string().contains("no-such-bench"));

    // A 4 KiB machine cannot hold any benchmark's working set: the buddy
    // allocator's typed OOM propagates as WorkloadTooLarge, not a panic.
    let tiny = Condition { memory_bytes: 1 << 12, ..Condition::quick() };
    let err = sipt_sim::try_run_benchmark(
        "mcf",
        baseline_32k_8w_vipt(),
        SystemKind::OooThreeLevel,
        &tiny,
    )
    .expect_err("4 KiB of memory cannot fit mcf");
    assert!(matches!(err, SimError::WorkloadTooLarge { .. } | SimError::Mem(_)), "got {err}");

    // Invalid L1 configuration (zero latency) is a Config error.
    let mut bad = baseline_32k_8w_vipt();
    bad.latency = 0;
    let err = sipt_sim::try_run_benchmark("mcf", bad, SystemKind::OooThreeLevel, &cond)
        .expect_err("zero-latency L1 is invalid");
    assert!(matches!(err, SimError::Config { .. }), "got {err}");
}
