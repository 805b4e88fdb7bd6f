//! End-to-end tests of the process-isolation sweep supervisor against
//! the real `fig02` and `fig18` binaries: payload byte-identity across
//! isolation modes and job counts, abort containment with backoff respawn,
//! respawn-budget exhaustion and per-task quarantine, graceful SIGTERM
//! drain with
//! checkpoint flush and `--resume` round-trip, and the scoped watchdog
//! kill (process mode kills only the offending worker; thread mode keeps
//! the documented exit-124 fallback).
//!
//! Each test runs the binary in a subprocess with its own
//! `SIPT_RESULTS_DIR` so env-var knobs (parsed once per process) never
//! leak between tests.

use sipt_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::mpsc;
use std::time::Duration;

fn temp_results_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sipt-supervisor-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Build a `fig02 quick --json [extra args]` command with a dedicated
/// results dir and a scrubbed environment.
fn fig02_cmd(dir: &Path, envs: &[(&str, &str)], extra_args: &[&str]) -> Command {
    figure_cmd(env!("CARGO_BIN_EXE_fig02"), dir, envs, extra_args)
}

/// [`fig02_cmd`] for the figure binary at `exe`.
fn figure_cmd(exe: &str, dir: &Path, envs: &[(&str, &str)], extra_args: &[&str]) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("quick").arg("--json").args(extra_args);
    cmd.env("SIPT_RESULTS_DIR", dir);
    // Ambient knobs from the outer environment must not leak in; the
    // `SIPT_WORKER_*` target vars especially would turn the run into a
    // worker.
    for (var, _) in std::env::vars_os() {
        if var.to_string_lossy().starts_with("SIPT_") {
            cmd.env_remove(var);
        }
    }
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd
}

fn run_fig02(dir: &Path, envs: &[(&str, &str)], extra_args: &[&str]) -> Output {
    fig02_cmd(dir, envs, extra_args).output().expect("fig02 spawns")
}

fn read_report(dir: &Path) -> Json {
    let text = std::fs::read_to_string(dir.join("fig02.json")).expect("fig02.json written");
    json::parse(&text).expect("valid JSON")
}

fn payload_bytes(report: &Json) -> String {
    report.path("payload").expect("payload present").render()
}

/// FNV-1a 64-bit — the same fingerprint function and golden constant as
/// `tests/kernel_bit_identity.rs`, so the supervisor is pinned to the
/// exact payload bytes the in-process kernel produces.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FIG02_GOLDEN_FNV1A: u64 = 0xF633_03AE_7922_41E7;

fn supervisor_field(report: &Json, field: &str) -> f64 {
    report
        .path(&format!("resilience.supervisor.{field}"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("resilience.supervisor.{field} present"))
}

/// The headline byte-identity contract: `--isolation process` merges
/// worker results into a payload byte-identical to the default
/// thread-isolation run, at one, two and eight workers, and a clean run
/// spawns exactly one worker process per job and sweep.
#[test]
fn process_isolation_payload_is_byte_identical_to_thread() {
    let thread_dir = temp_results_dir("thread");
    let thread = run_fig02(&thread_dir, &[], &["--jobs", "2", "--isolation", "thread"]);
    assert!(thread.status.success(), "thread run passes: {thread:?}");
    let thread_report = read_report(&thread_dir);
    assert!(
        thread_report.path("resilience").is_none(),
        "a clean thread run carries no resilience block (byte-compat with v5)"
    );
    let reference = payload_bytes(&thread_report);
    assert_eq!(
        fnv1a(reference.as_bytes()),
        FIG02_GOLDEN_FNV1A,
        "thread-mode payload must match the kernel_bit_identity golden"
    );

    for jobs in ["1", "2", "8"] {
        let dir = temp_results_dir(&format!("process-j{jobs}"));
        let out = run_fig02(&dir, &[], &["--jobs", jobs, "--isolation", "process"]);
        assert!(out.status.success(), "process run (jobs {jobs}) passes: {out:?}");
        let report = read_report(&dir);
        assert_eq!(
            payload_bytes(&report),
            reference,
            "process-isolation payload (jobs {jobs}) must be byte-identical"
        );
        assert_eq!(
            fnv1a(payload_bytes(&report).as_bytes()),
            FIG02_GOLDEN_FNV1A,
            "process-isolation payload (jobs {jobs}) must match the golden fingerprint"
        );
        // The supervisor accounting rides in the v6 resilience block.
        assert_eq!(
            report.path("resilience.supervisor.isolation").and_then(Json::as_str),
            Some("process")
        );
        assert_eq!(supervisor_field(&report, "results_merged"), 24.0);
        assert_eq!(supervisor_field(&report, "worker_deaths"), 0.0);
        assert_eq!(supervisor_field(&report, "quarantined_tasks"), 0.0);
        let sweeps = supervisor_field(&report, "sweeps");
        assert!(sweeps >= 1.0);
        assert_eq!(
            supervisor_field(&report, "workers_spawned"),
            sweeps * jobs.parse::<f64>().unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&thread_dir);
}

/// Preparation-cache lookups happen inside the workers under process
/// isolation; each worker reports its own hits and misses, so the
/// parent's `parallelism.prep_cache` block counts as many lookups as a
/// thread-mode run of the same sweep. (The hit/miss split differs: each
/// worker process has a cache of its own.)
#[test]
fn process_mode_report_counts_worker_prep_cache_lookups() {
    let lookups = |report: &Json| -> f64 {
        let field = |name: &str| {
            report
                .path(&format!("parallelism.prep_cache.{name}"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("parallelism.prep_cache.{name} present"))
        };
        field("hits") + field("misses")
    };
    let thread_dir = temp_results_dir("prep-thread");
    let thread = run_fig02(&thread_dir, &[], &["--jobs", "2", "--isolation", "thread"]);
    assert!(thread.status.success(), "thread run passes: {thread:?}");
    let process_dir = temp_results_dir("prep-process");
    let process = run_fig02(&process_dir, &[], &["--jobs", "2", "--isolation", "process"]);
    assert!(process.status.success(), "process run passes: {process:?}");

    let want = lookups(&read_report(&thread_dir));
    assert!(want > 0.0, "a cached thread-mode fig02 run looks workloads up");
    let report = read_report(&process_dir);
    assert_eq!(supervisor_field(&report, "worker_deaths"), 0.0);
    assert_eq!(lookups(&report), want, "process mode must count its workers' lookups");

    let _ = std::fs::remove_dir_all(&thread_dir);
    let _ = std::fs::remove_dir_all(&process_dir);
}

/// The snapshot and trace counters travel the same way. At one worker
/// the worker's cache sees the whole Fig 18 sweep, so every counter
/// equals the thread-mode run's: one fragmented snapshot, and 11 shared
/// traces over 16 pairs (libquantum, mcf and sjeng share one trace
/// across the four conditions, calculix one across three).
#[test]
fn process_mode_report_counts_worker_snapshots_and_shared_traces() {
    let counters = |dir: &Path| -> Vec<f64> {
        let text = std::fs::read_to_string(dir.join("fig18.json")).expect("fig18.json written");
        let report = json::parse(&text).expect("valid JSON");
        ["hits", "misses", "fragment_builds", "shared_traces"]
            .iter()
            .map(|name| {
                report
                    .path(&format!("parallelism.prep_cache.{name}"))
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("parallelism.prep_cache.{name} present"))
            })
            .collect()
    };
    let mut runs = Vec::new();
    for isolation in ["thread", "process"] {
        let dir = temp_results_dir(&format!("fig18-{isolation}"));
        let out = figure_cmd(
            env!("CARGO_BIN_EXE_fig18"),
            &dir,
            &[],
            &["--jobs", "1", "--isolation", isolation],
        )
        .output()
        .expect("fig18 spawns");
        assert!(out.status.success(), "{isolation} run passes: {out:?}");
        runs.push(counters(&dir));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(runs[0], vec![144.0, 16.0, 1.0, 11.0], "thread-mode counters");
    assert_eq!(runs[1], runs[0], "process mode must count its worker's snapshots and traces");
}

/// Fig 18 (fragmented, THP-off and scattered placement, four conditions
/// per benchmark) under both isolations at two jobs: the supervisor's
/// group claims and tail steals must merge into the thread pool's payload
/// byte for byte.
#[test]
fn fig18_process_payload_matches_thread_at_two_jobs() {
    let mut payloads = Vec::new();
    for isolation in ["thread", "process"] {
        let dir = temp_results_dir(&format!("fig18-j2-{isolation}"));
        let out = figure_cmd(
            env!("CARGO_BIN_EXE_fig18"),
            &dir,
            &[],
            &["--jobs", "2", "--isolation", isolation],
        )
        .output()
        .expect("fig18 spawns");
        assert!(out.status.success(), "{isolation} run passes: {out:?}");
        let text = std::fs::read_to_string(dir.join("fig18.json")).expect("fig18.json written");
        payloads.push(payload_bytes(&json::parse(&text).expect("valid JSON")));
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(payloads[1], payloads[0], "fig18 process payload differs from thread at --jobs 2");
}

/// Abort containment: `SIPT_FAULT_INJECT=abort:2:once` kills a worker
/// process outright (`catch_unwind` can't see it). The supervisor
/// re-queues the task with its death count so the `:once` fault does not
/// re-fire, and the completed run is byte-identical to a fault-free one —
/// the paper-facing payload never shows the crash.
#[test]
fn aborted_worker_is_respawned_and_payload_survives_byte_identical() {
    let clean_dir = temp_results_dir("abort-clean");
    let clean = run_fig02(&clean_dir, &[], &["--jobs", "2"]);
    assert!(clean.status.success());
    let reference = payload_bytes(&read_report(&clean_dir));

    let dir = temp_results_dir("abort-once");
    let out = run_fig02(
        &dir,
        &[("SIPT_FAULT_INJECT", "abort:2:once")],
        &["--jobs", "2", "--isolation", "process"],
    );
    assert!(out.status.success(), "an aborted worker must not fail the run: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("SIGABRT"), "death diagnosis names the signal: {stderr}");
    assert!(stderr.contains("respawn"), "respawn announced on stderr: {stderr}");

    let report = read_report(&dir);
    assert_eq!(payload_bytes(&report), reference, "payload survives the abort byte-identically");
    assert!(supervisor_field(&report, "worker_deaths") >= 1.0);
    assert!(supervisor_field(&report, "respawns") >= 1.0);
    assert_eq!(supervisor_field(&report, "results_merged"), 24.0);
    assert_eq!(supervisor_field(&report, "quarantined_tasks"), 0.0);

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A persistent abort (fires on every attempt) exhausts the respawn
/// budget of that one task: it alone is quarantined as a permanent
/// failure in the report's failure table, every other task (its prep
/// group's included) merges, and the binary exits 1.
#[test]
fn respawn_budget_exhaustion_quarantines_the_poison_shard() {
    let dir = temp_results_dir("quarantine");
    let out = run_fig02(
        &dir,
        &[("SIPT_FAULT_INJECT", "abort:2")],
        &["--jobs", "2", "--isolation", "process"],
    );
    assert_eq!(out.status.code(), Some(1), "quarantined tasks exit 1: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("quarantining task 2"), "quarantine announced: {stderr}");
    assert!(stderr.contains("task failures"), "failure table printed: {stderr}");

    let report = read_report(&dir);
    assert_eq!(supervisor_field(&report, "quarantined_tasks"), 1.0);
    // Budget of 2 respawns => 3 deaths of the poison task, then quarantine.
    assert_eq!(supervisor_field(&report, "worker_deaths"), 3.0);
    assert_eq!(supervisor_field(&report, "respawns"), 2.0);
    // Every other task merged.
    assert_eq!(supervisor_field(&report, "results_merged"), 23.0);
    let failures = report.path("resilience.failures").and_then(Json::as_arr).expect("failures[]");
    assert_eq!(failures.len(), 1, "only the poison task fails: {failures:?}");
    assert_eq!(failures[0].get("task").and_then(Json::as_f64), Some(2.0));
    assert!(failures[0]
        .get("panic_msg")
        .and_then(Json::as_str)
        .is_some_and(|m| m.contains("quarantined task")));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Worker deaths lose no preparation counts: each worker reports its
/// prep-cache counts before every result, so with a poison task killing
/// three workers the report still counts at least one lookup per merged
/// result.
#[test]
fn worker_deaths_keep_prep_cache_counts() {
    let dir = temp_results_dir("prep-deaths");
    let out = run_fig02(
        &dir,
        &[("SIPT_FAULT_INJECT", "abort:2")],
        &["--jobs", "2", "--isolation", "process"],
    );
    assert_eq!(out.status.code(), Some(1), "the poison task is quarantined: {out:?}");
    let report = read_report(&dir);
    assert_eq!(supervisor_field(&report, "worker_deaths"), 3.0);
    let prep = |name: &str| {
        report
            .path(&format!("parallelism.prep_cache.{name}"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("parallelism.prep_cache.{name} present"))
    };
    let merged = supervisor_field(&report, "results_merged");
    assert!(
        prep("hits") + prep("misses") >= merged,
        "{} hits + {} misses for {merged} merged results",
        prep("hits"),
        prep("misses")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Graceful drain: SIGTERM mid-sweep asks workers to finish in-flight
/// tasks, flushes completed results to the checkpoint, prints resume
/// instructions, and exits 130. A `--resume` re-run restores the drained
/// progress and reproduces the uninterrupted payload byte-for-byte.
#[test]
fn sigterm_drains_flushes_checkpoint_and_resume_roundtrips() {
    let clean_dir = temp_results_dir("drain-clean");
    let clean = run_fig02(&clean_dir, &[], &["--jobs", "2"]);
    assert!(clean.status.success());
    let reference = payload_bytes(&read_report(&clean_dir));

    // Slow down the first slot of the first two prep groups (tasks 0 and
    // 6: one benchmark's six configurations each), which the two workers
    // claim first, and send the signal once both have announced their
    // sleep: both workers are then busy and most of the sweep is still
    // unexecuted, however long the workers took to start. The slowdown
    // never changes payload bytes.
    let dir = temp_results_dir("drain");
    let mut child = fig02_cmd(
        &dir,
        &[("SIPT_FAULT_INJECT", "slow:0:2500,slow:6:2500")],
        &["--jobs", "2", "--isolation", "process", "--resume"],
    )
    .stdout(Stdio::null())
    .stderr(Stdio::piped())
    .spawn()
    .expect("fig02 spawns");
    let (lines_tx, lines_rx) = mpsc::channel();
    let stderr_pipe = child.stderr.take().expect("stderr piped");
    let reader = std::thread::spawn(move || {
        let mut all = String::new();
        for line in BufReader::new(stderr_pipe).lines().map_while(Result::ok) {
            let _ = lines_tx.send(line.clone());
            all.push_str(&line);
            all.push('\n');
        }
        all
    });
    let mut in_flight = [false; 2];
    while in_flight != [true, true] {
        let line = lines_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("both slowed tasks start within 60 s");
        for (seen, task) in in_flight.iter_mut().zip(["slow task 0 ", "slow task 6 "]) {
            *seen |= line.contains(task);
        }
    }
    let term =
        Command::new("kill").args(["-TERM", &child.id().to_string()]).status().expect("kill runs");
    assert!(term.success(), "SIGTERM delivered");
    let status = child.wait().expect("fig02 exits");
    let stderr = reader.join().expect("stderr reader");
    assert_eq!(status.code(), Some(130), "a drained run exits 130: {stderr}");
    assert!(stderr.contains("drain: signal received"), "drain announced: {stderr}");
    assert!(stderr.contains("asking 2 worker(s)"), "the drain asks both workers: {stderr}");
    assert!(stderr.contains("--resume to continue"), "resume instructions printed: {stderr}");
    let checkpoint =
        std::fs::read_to_string(dir.join("fig02.checkpoint.json")).expect("checkpoint flushed");
    let flushed = checkpoint.lines().filter(|l| !l.trim().is_empty()).count();
    assert!((1..24).contains(&flushed), "the drain leaves tasks unexecuted: {flushed} flushed");
    assert!(!dir.join("fig02.json").exists(), "a drained run publishes no report");

    // Resume (fault-free this time): restores the drained tasks,
    // simulates only the remainder, reproduces the payload exactly.
    let resumed = run_fig02(&dir, &[], &["--jobs", "2", "--isolation", "process", "--resume"]);
    assert!(resumed.status.success(), "resumed run passes: {resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(stderr.contains("restored"), "resume restores from the checkpoint: {stderr}");
    assert_eq!(
        payload_bytes(&read_report(&dir)),
        reference,
        "drain + resume must reproduce the uninterrupted payload byte-for-byte"
    );

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The scoped watchdog kill: under process isolation,
/// `SIPT_WATCHDOG_KILL=1` kills only the worker holding the stuck task.
/// The victim slot is recorded as a failure, a fresh worker takes over
/// the rest of the sweep, and the run exits 1 (failure table) — never
/// the thread-mode 124. The generous timeout leaves room for each fresh
/// worker process's cold workload-preparation on its first task.
#[test]
fn watchdog_kill_is_scoped_to_the_offending_worker_in_process_mode() {
    let dir = temp_results_dir("watchdog-scoped");
    let out = run_fig02(
        &dir,
        &[("SIPT_FAULT_INJECT", "slow:0:10000"), ("SIPT_WATCHDOG_KILL", "1")],
        &["--jobs", "2", "--isolation", "process", "--task-timeout", "1500"],
    );
    assert_eq!(out.status.code(), Some(1), "scoped kill exits 1, not 124: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("the sweep continues"),
        "kill is announced as scoped to one worker: {stderr}"
    );

    let report = read_report(&dir);
    assert!(supervisor_field(&report, "watchdog_kills") >= 1.0);
    let failures = report.path("resilience.failures").and_then(Json::as_arr).expect("failures[]");
    assert!(
        failures.iter().any(|f| f.get("task").and_then(Json::as_f64) == Some(0.0)),
        "the stuck task is the recorded victim: {failures:?}"
    );
    // The rest of the sweep survived the kill.
    assert!(supervisor_field(&report, "results_merged") >= 12.0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Thread mode keeps the documented fallback: without process isolation
/// a watchdog kill can only take down the whole process (exit 124), and
/// the diagnostic points at `--isolation process`.
#[test]
fn watchdog_kill_in_thread_mode_keeps_the_exit_124_fallback() {
    let dir = temp_results_dir("watchdog-124");
    let out = run_fig02(
        &dir,
        &[("SIPT_FAULT_INJECT", "slow:0:10000"), ("SIPT_WATCHDOG_KILL", "1")],
        &["--jobs", "2", "--task-timeout", "300"],
    );
    assert_eq!(out.status.code(), Some(124), "thread-mode kill exits 124: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--isolation process"),
        "the diagnostic advertises the scoped alternative: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
