//! The resilience layer: structured task failures, retry/watchdog policy,
//! deterministic fault injection, and the schema-v3 `resilience` report
//! block.
//!
//! Long sweeps must never lose finished work to one bad point. The worker
//! pool ([`crate::sweep`]) wraps every task in `catch_unwind`; a panic is
//! captured here as a [`TaskFailure`] (task id, worker, panic message,
//! elapsed time, attempts) while the remaining tasks complete
//! deterministically. A process-wide registry accumulates every failure
//! and watchdog flag so the figure binaries can print a failure table,
//! stamp the report's `resilience` block, and exit non-zero.
//!
//! Knobs (all parsed once per process):
//!
//! - `SIPT_TASK_RETRIES` / [`set_task_retries`] — bounded re-execution of
//!   a panicked task (default 1 retry; simulations are pure functions of
//!   their inputs, so retries only help against injected/transient
//!   faults, and a deterministic panic fails every attempt).
//! - `SIPT_TASK_TIMEOUT_MS` / [`set_task_timeout_ms`] (the `--task-timeout`
//!   CLI flag) — a watchdog flags tasks running longer than this; with
//!   `SIPT_WATCHDOG_KILL=1` it kills overrunning work instead of waiting
//!   forever. Under `--isolation process` the kill is scoped to the
//!   offending *worker process* (the task is failed, the sweep continues);
//!   in thread mode the only containable unit is the whole process, so it
//!   aborts with exit 124 (the documented fallback).
//! - `SIPT_FAULT_INJECT=<spec>` — deterministic fault injection for
//!   proving the isolation/retry/audit machinery actually fires (see
//!   [`FaultSpec`]). `abort:` directives take down the whole process —
//!   only `--isolation process` (see [`crate::supervisor`]) survives them.

use sipt_telemetry::json::Json;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

// ---------------------------------------------------------------------------
// Structured failures
// ---------------------------------------------------------------------------

/// One captured task failure: a panic (organic or injected) that exhausted
/// its retry budget, recorded instead of aborting the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFailure {
    /// Process-global task id (submission order across all sweeps).
    pub task: usize,
    /// Caller label (benchmark/config) when known, else `task-<id>`.
    pub label: String,
    /// Worker that executed the final attempt.
    pub worker: usize,
    /// The panic payload, downcast to text when possible.
    pub panic_msg: String,
    /// Wall-clock milliseconds spent in the final attempt.
    pub elapsed_ms: f64,
    /// Total attempts made (1 = no retry).
    pub attempts: u32,
}

impl TaskFailure {
    /// This failure as a `failures[]` entry of the schema-v3 `resilience`
    /// block.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("task", Json::u64(self.task as u64)),
            ("label", Json::str(&self.label)),
            ("worker", Json::u64(self.worker as u64)),
            ("panic_msg", Json::str(&self.panic_msg)),
            ("elapsed_ms", Json::num(self.elapsed_ms)),
            ("attempts", Json::u64(u64::from(self.attempts))),
        ])
    }
}

impl core::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "task {} ({}) failed on worker {} after {} attempt(s) ({:.1} ms): {}",
            self.task, self.label, self.worker, self.attempts, self.elapsed_ms, self.panic_msg
        )
    }
}

/// A watchdog observation: a task exceeded the configured timeout.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogFlag {
    /// Process-global task id.
    pub task: usize,
    /// Elapsed milliseconds when flagged.
    pub elapsed_ms: f64,
    /// The timeout that was exceeded.
    pub timeout_ms: u64,
}

impl WatchdogFlag {
    /// This flag as a `watchdog_flags[]` entry.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("task", Json::u64(self.task as u64)),
            ("elapsed_ms", Json::num(self.elapsed_ms)),
            ("timeout_ms", Json::u64(self.timeout_ms)),
        ])
    }
}

// ---------------------------------------------------------------------------
// Process-wide registry
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct Registry {
    failures: Vec<TaskFailure>,
    watchdog_flags: Vec<WatchdogFlag>,
    retries_spent: u64,
    checkpoint_hits: u64,
    corrupt_checkpoint_lines: u64,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(Registry::default))
}

/// Record a captured failure in the process-wide registry (the pool calls
/// this; tests may too).
pub fn record_failure(failure: TaskFailure) {
    eprintln!("sweep task failure: {failure}");
    sipt_telemetry::span::instant_with(
        format!("task {} failed", failure.task),
        "resilience",
        vec![
            ("label", Json::str(&failure.label)),
            ("attempts", Json::u64(failure.attempts as u64)),
        ],
    );
    with_registry(|r| r.failures.push(failure));
}

/// Record a watchdog flag.
pub fn record_watchdog_flag(flag: WatchdogFlag) {
    eprintln!(
        "watchdog: task {} exceeded --task-timeout ({:.0} ms > {} ms)",
        flag.task, flag.elapsed_ms, flag.timeout_ms
    );
    sipt_telemetry::span::instant_with(
        format!("watchdog flag task {}", flag.task),
        "resilience",
        vec![
            ("elapsed_ms", Json::num(flag.elapsed_ms)),
            ("timeout_ms", Json::u64(flag.timeout_ms)),
        ],
    );
    with_registry(|r| r.watchdog_flags.push(flag));
}

/// Record that a retry was spent (an attempt failed but the budget allowed
/// another).
pub fn record_retry() {
    sipt_telemetry::span::instant("retry", "resilience");
    with_registry(|r| r.retries_spent += 1);
}

/// Record that `n` tasks were restored from a sweep checkpoint instead of
/// being re-executed.
pub fn record_checkpoint_hits(n: u64) {
    with_registry(|r| r.checkpoint_hits += n);
}

/// Record that `n` corrupt (unparseable) lines were skipped while loading
/// a sweep checkpoint. Each line was already warned about individually on
/// stderr; the count surfaces in the `resilience` report block so silent
/// checkpoint corruption is visible in artifacts, not just scrollback.
pub fn record_corrupt_checkpoint_lines(n: u64) {
    with_registry(|r| r.corrupt_checkpoint_lines += n);
}

/// Number of corrupt checkpoint lines skipped so far.
pub fn corrupt_checkpoint_lines() -> u64 {
    with_registry(|r| r.corrupt_checkpoint_lines)
}

/// All failures captured so far, in capture order.
pub fn failures() -> Vec<TaskFailure> {
    with_registry(|r| r.failures.clone())
}

/// Number of failures captured so far.
pub fn failure_count() -> usize {
    with_registry(|r| r.failures.len())
}

/// All watchdog flags raised so far.
pub fn watchdog_flags() -> Vec<WatchdogFlag> {
    with_registry(|r| r.watchdog_flags.clone())
}

/// The `resilience` report block (schema v3, extended in v6 with
/// `corrupt_checkpoint_lines` and the `supervisor` sub-block): `None`
/// until something worth reporting happened (a failure, a watchdog flag,
/// a retry, a checkpoint restore, checkpoint corruption, fault injection
/// being armed, or a process-isolation sweep having run). Scientific
/// payloads are unchanged when no fault occurs — the block is simply
/// absent.
pub fn resilience_json() -> Option<Json> {
    let (failures, flags, retries, ckpt, corrupt) = with_registry(|r| {
        (
            r.failures.clone(),
            r.watchdog_flags.clone(),
            r.retries_spent,
            r.checkpoint_hits,
            r.corrupt_checkpoint_lines,
        )
    });
    let injected = injected_fault_count();
    let supervisor = crate::supervisor::supervisor_json();
    if failures.is_empty()
        && flags.is_empty()
        && retries == 0
        && ckpt == 0
        && corrupt == 0
        && injected == 0
        && supervisor.is_none()
    {
        return None;
    }
    Some(Json::obj([
        ("failures", Json::arr(failures.iter().map(TaskFailure::to_json))),
        ("watchdog_flags", Json::arr(flags.iter().map(WatchdogFlag::to_json))),
        ("retries_spent", Json::u64(retries)),
        ("checkpoint_hits", Json::u64(ckpt)),
        ("corrupt_checkpoint_lines", Json::u64(corrupt)),
        ("fault_injections", Json::u64(injected)),
        ("task_retries", Json::u64(u64::from(task_retries()))),
        ("task_timeout_ms", task_timeout_ms().map_or(Json::Null, Json::u64)),
        ("supervisor", supervisor.unwrap_or(Json::Null)),
    ]))
}

/// Render the human-readable failure table printed by bench binaries
/// before a non-zero exit. Empty string when there are no failures.
pub fn failure_table() -> String {
    let failures = failures();
    if failures.is_empty() {
        return String::new();
    }
    let mut out = String::from("== task failures ==\n");
    out.push_str("task  attempts  worker  elapsed_ms  label            panic\n");
    for f in &failures {
        out.push_str(&format!(
            "{:<4}  {:<8}  {:<6}  {:<10.1}  {:<15}  {}\n",
            f.task, f.attempts, f.worker, f.elapsed_ms, f.label, f.panic_msg
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Policy knobs
// ---------------------------------------------------------------------------

/// `--task-retries` / programmatic override (`u32::MAX` = unset).
static RETRIES_OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);
/// `--task-timeout` override in ms (0 = unset, `u64::MAX` = explicitly off).
static TIMEOUT_OVERRIDE_MS: AtomicU64 = AtomicU64::new(0);

use crate::env::parse_or_warn as env_u64;

/// Set the per-task retry budget (number of *re*-executions after a
/// panicked attempt). Takes precedence over `SIPT_TASK_RETRIES`.
pub fn set_task_retries(retries: u32) {
    RETRIES_OVERRIDE.store(retries as usize, Ordering::Relaxed);
}

/// The per-task retry budget: the [`set_task_retries`] override, else
/// `SIPT_TASK_RETRIES`, else 1.
pub fn task_retries() -> u32 {
    let explicit = RETRIES_OVERRIDE.load(Ordering::Relaxed);
    if explicit != usize::MAX {
        return explicit as u32;
    }
    static PARSED: OnceLock<Option<u64>> = OnceLock::new();
    PARSED.get_or_init(|| env_u64("SIPT_TASK_RETRIES")).map_or(1, |n| n.min(16) as u32)
}

/// Set the watchdog timeout in milliseconds (the `--task-timeout` flag;
/// 0 disables the watchdog).
pub fn set_task_timeout_ms(ms: u64) {
    TIMEOUT_OVERRIDE_MS.store(if ms == 0 { u64::MAX } else { ms }, Ordering::Relaxed);
}

/// The watchdog timeout: the [`set_task_timeout_ms`] override, else
/// `SIPT_TASK_TIMEOUT_MS`, else `None` (watchdog off).
pub fn task_timeout_ms() -> Option<u64> {
    match TIMEOUT_OVERRIDE_MS.load(Ordering::Relaxed) {
        0 => {
            static PARSED: OnceLock<Option<u64>> = OnceLock::new();
            *PARSED.get_or_init(|| env_u64("SIPT_TASK_TIMEOUT_MS").filter(|&n| n > 0))
        }
        u64::MAX => None,
        ms => Some(ms),
    }
}

/// Whether the watchdog should abort the process (exit 124) when a task
/// exceeds the timeout, instead of just flagging it (`SIPT_WATCHDOG_KILL=1`).
pub fn watchdog_kill() -> bool {
    static PARSED: OnceLock<bool> = OnceLock::new();
    *PARSED.get_or_init(|| matches!(std::env::var("SIPT_WATCHDOG_KILL"), Ok(v) if v == "1"))
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// One deterministic fault directive from `SIPT_FAULT_INJECT`.
///
/// Spec grammar (comma-separated directives):
///
/// ```text
/// panic:<task>          panic on every attempt of global task <task>
/// panic:<task>:once     panic only on the first attempt (retry recovers)
/// abort:<task>          call std::process::abort() at the start of task
///                       <task> — a fault catch_unwind CANNOT contain;
///                       only --isolation process survives it
/// abort:<task>:once     abort only on the very first attempt (a respawned
///                       worker then completes the task)
/// slow:<task>:<ms>      sleep <ms> at the start of task <task> (trips the watchdog)
/// flip:<task>           XOR 1 into the task's SIPT access counter after the
///                       run (metrics-conservation audit must catch it)
/// ```
///
/// Task ids are process-global submission indices (0-based, across all
/// sweeps in the process), so injection is deterministic regardless of
/// worker scheduling. `:once` counts attempts across worker *deaths*
/// too: a task re-run after its worker process died numbers its attempts
/// after the dead workers' (see [`crate::wire::Run`]), so the fault does
/// not re-fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Panic inside the task.
    Panic {
        /// Global task id.
        task: usize,
        /// Inject only on the first attempt (retries then recover).
        once: bool,
    },
    /// Abort the whole process at task start (`std::process::abort()`),
    /// modelling the fault class `catch_unwind` cannot contain: SIGABRT,
    /// segfaults, OOM kills.
    Abort {
        /// Global task id.
        task: usize,
        /// Inject only on the task's first attempt — the worker respawned
        /// after the abort then completes the task.
        once: bool,
    },
    /// Sleep at task start.
    Slow {
        /// Global task id.
        task: usize,
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// Flip a bit in the task's metrics after the run.
    BitFlip {
        /// Global task id.
        task: usize,
    },
}

/// Parse a `SIPT_FAULT_INJECT` spec string. Returns `Err` with a
/// description for malformed directives.
pub fn parse_fault_spec(spec: &str) -> Result<Vec<FaultSpec>, String> {
    let mut out = Vec::new();
    for directive in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let parts: Vec<&str> = directive.split(':').collect();
        let parse_task =
            |s: &str| s.parse::<usize>().map_err(|_| format!("bad task id {s:?} in {directive:?}"));
        match parts.as_slice() {
            ["panic", task] => out.push(FaultSpec::Panic { task: parse_task(task)?, once: false }),
            ["panic", task, "once"] => {
                out.push(FaultSpec::Panic { task: parse_task(task)?, once: true });
            }
            ["abort", task] => out.push(FaultSpec::Abort { task: parse_task(task)?, once: false }),
            ["abort", task, "once"] => {
                out.push(FaultSpec::Abort { task: parse_task(task)?, once: true });
            }
            ["slow", task, ms] => out.push(FaultSpec::Slow {
                task: parse_task(task)?,
                ms: ms.parse().map_err(|_| format!("bad ms {ms:?} in {directive:?}"))?,
            }),
            ["flip", task] => out.push(FaultSpec::BitFlip { task: parse_task(task)? }),
            _ => return Err(format!("unknown fault directive {directive:?}")),
        }
    }
    Ok(out)
}

/// The armed fault set, parsed once from `SIPT_FAULT_INJECT` (malformed
/// specs warn and arm nothing rather than aborting a long run).
pub fn armed_faults() -> &'static [FaultSpec] {
    static PARSED: OnceLock<Vec<FaultSpec>> = OnceLock::new();
    PARSED.get_or_init(|| match std::env::var("SIPT_FAULT_INJECT") {
        Ok(spec) if !spec.is_empty() => match parse_fault_spec(&spec) {
            Ok(faults) => faults,
            Err(e) => {
                eprintln!("warning: malformed SIPT_FAULT_INJECT: {e}; injection disarmed");
                Vec::new()
            }
        },
        _ => Vec::new(),
    })
}

static INJECTED: AtomicU64 = AtomicU64::new(0);

/// Number of faults actually injected so far this process.
pub fn injected_fault_count() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Fault-injection hook at task start: sleeps for `slow` directives
/// (announcing the sleep on stderr, so a caller can tell the task is in
/// flight),
/// panics for matching `panic` directives, and aborts the process for
/// `abort` directives. Called by the pool inside the `catch_unwind`
/// boundary (which contains the panics but, by design, not the aborts).
/// `attempt` counts every attempt at the task so far, including those of
/// worker processes that died running it, so `:once` means attempt 0.
pub fn inject_at_task_start(task: usize, attempt: u32) {
    for fault in armed_faults() {
        match *fault {
            FaultSpec::Slow { task: t, ms } if t == task => {
                INJECTED.fetch_add(1, Ordering::Relaxed);
                // One write, so workers sharing a stderr pipe cannot split the line.
                let line =
                    format!("injected fault: slow task {task} for {ms} ms (attempt {attempt})\n");
                let _ = std::io::Write::write_all(&mut std::io::stderr(), line.as_bytes());
                std::thread::sleep(std::time::Duration::from_millis(ms));
            }
            FaultSpec::Panic { task: t, once } if t == task && (!once || attempt == 0) => {
                INJECTED.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: panic at task {task} (attempt {attempt})");
            }
            FaultSpec::Abort { task: t, once } if t == task && (!once || attempt == 0) => {
                INJECTED.fetch_add(1, Ordering::Relaxed);
                eprintln!("injected fault: abort at task {task} (attempt {attempt})");
                std::process::abort();
            }
            _ => {}
        }
    }
}

/// Whether a `flip` directive targets `task`. The sweep layer applies the
/// actual metric corruption (it owns the metrics type).
pub fn inject_bit_flip(task: usize) -> bool {
    let hit =
        armed_faults().iter().any(|f| matches!(*f, FaultSpec::BitFlip { task: t } if t == task));
    if hit {
        INJECTED.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

// ---------------------------------------------------------------------------
// Global task ids
// ---------------------------------------------------------------------------

static NEXT_TASK_ID: AtomicUsize = AtomicUsize::new(0);

/// Allocate `n` consecutive process-global task ids (called at submission
/// time, on the main thread, so ids are deterministic).
pub fn allocate_task_ids(n: usize) -> usize {
    NEXT_TASK_ID.fetch_add(n, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Panic-message capture
// ---------------------------------------------------------------------------

thread_local! {
    static IN_POOL_TASK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once) a panic hook that silences the default backtrace noise
/// for panics *inside pool tasks* — they are captured as [`TaskFailure`]s
/// — while delegating to the previous hook everywhere else.
pub fn install_quiet_panic_hook() {
    static INSTALLED: OnceLock<()> = OnceLock::new();
    INSTALLED.get_or_init(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_POOL_TASK.with(std::cell::Cell::get) {
                // Captured and reported as a structured TaskFailure.
                return;
            }
            previous(info);
        }));
    });
}

/// Whether the current thread is executing inside a pool task (including
/// the serial inline path). Used to gate nested parallelism: quad-core
/// mixes shard their cores across threads only when *not* already running
/// under the sweep pool, so worker counts never multiply.
pub fn in_pool_task() -> bool {
    IN_POOL_TASK.with(std::cell::Cell::get)
}

/// Run `f` with panics captured: returns `Err(panic message)` instead of
/// unwinding past the caller. Marks the thread as "in pool task" so the
/// quiet hook suppresses the default stderr trace.
pub fn catch_task_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    IN_POOL_TASK.with(|flag| flag.set(true));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    IN_POOL_TASK.with(|flag| flag.set(false));
    result.map_err(|payload| panic_message(payload.as_ref()))
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("non-string panic payload")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_spec_parses_all_directives() {
        let faults =
            parse_fault_spec("panic:3, panic:4:once, abort:5, abort:6:once, slow:2:250, flip:7")
                .unwrap();
        assert_eq!(
            faults,
            vec![
                FaultSpec::Panic { task: 3, once: false },
                FaultSpec::Panic { task: 4, once: true },
                FaultSpec::Abort { task: 5, once: false },
                FaultSpec::Abort { task: 6, once: true },
                FaultSpec::Slow { task: 2, ms: 250 },
                FaultSpec::BitFlip { task: 7 },
            ]
        );
        assert_eq!(parse_fault_spec("").unwrap(), vec![]);
        assert!(parse_fault_spec("panic:x").is_err());
        assert!(parse_fault_spec("abort:x").is_err());
        assert!(parse_fault_spec("abort:1:twice").is_err());
        assert!(parse_fault_spec("melt:3").is_err());
        assert!(parse_fault_spec("slow:1:fast").is_err());
    }

    #[test]
    fn catch_task_panic_returns_message() {
        install_quiet_panic_hook();
        assert_eq!(catch_task_panic(|| 42).unwrap(), 42);
        let err = catch_task_panic(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(err, "boom 7");
        let err = catch_task_panic(|| std::panic::panic_any(13u32)).unwrap_err();
        assert!(err.contains("non-string"));
        // The thread-local is reset either way.
        assert_eq!(catch_task_panic(|| 1).unwrap(), 1);
    }

    #[test]
    fn registry_accumulates_and_renders() {
        let before = failure_count();
        record_failure(TaskFailure {
            task: 900_001,
            label: "unit-test".into(),
            worker: 0,
            panic_msg: "synthetic".into(),
            elapsed_ms: 1.5,
            attempts: 2,
        });
        assert_eq!(failure_count(), before + 1);
        let table = failure_table();
        assert!(table.contains("unit-test"));
        assert!(table.contains("synthetic"));
        let json = resilience_json().expect("failures present");
        assert!(json.get("failures").is_some());
        assert!(json.get("task_retries").is_some());
    }

    #[test]
    fn task_ids_are_monotonic() {
        let a = allocate_task_ids(3);
        let b = allocate_task_ids(2);
        assert!(b >= a + 3);
    }

    #[test]
    fn failure_display_mentions_everything() {
        let f = TaskFailure {
            task: 5,
            label: "sjeng/32K2w".into(),
            worker: 1,
            panic_msg: "oops".into(),
            elapsed_ms: 12.0,
            attempts: 2,
        };
        let s = f.to_string();
        for needle in ["task 5", "sjeng/32K2w", "worker 1", "2 attempt", "oops"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
        let j = f.to_json();
        assert_eq!(j.path("attempts").and_then(Json::as_f64), Some(2.0));
    }
}
