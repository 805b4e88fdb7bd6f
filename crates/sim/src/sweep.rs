//! Dependency-free parallel sweep engine with panic isolation.
//!
//! Every paper artifact is a benchmark × configuration × condition sweep
//! whose individual runs are pure functions of their inputs (each run
//! seeds its own RNGs from the [`Condition`]), so they parallelize
//! embarrassingly — the same structure trace-driven simulators like
//! Sniper and gem5's multi-run harnesses exploit. This module provides:
//!
//! - [`run_parallel_isolated`]: execute independent tasks on a
//!   [`std::thread::scope`]-based worker pool with **panic isolation** —
//!   every task runs inside `catch_unwind`, a panicking run is captured
//!   as a structured [`TaskFailure`] (with a bounded retry budget and an
//!   optional watchdog timeout) and the rest of the sweep completes
//!   deterministically, with results in **submission order**;
//! - **prep-affine scheduling**: each [`PoolTask`] carries an affinity
//!   key, and tasks sharing a key form a group that one worker claims
//!   whole. [`Sweep`] keys its runs by
//!   [`crate::prep_cache::fingerprint`], so every configuration of one
//!   `(benchmark, condition)` pair runs back to back on the worker that
//!   prepared it: the pair is prepared once even when the prep cache is
//!   smaller than the sweep, and no worker waits on another's
//!   preparation except at the sweep tail, where idle workers steal
//!   single tasks to keep every worker busy;
//! - [`run_parallel`]: the legacy all-or-nothing front-end (`Vec<T>` out,
//!   one group per task, so first-come scheduling); failures are still
//!   isolated, recorded and reported — it panics with an aggregate
//!   summary only *after* every other task has finished;
//! - [`Sweep`]: a typed builder over [`RunRequest`]s with
//!   checkpoint/resume: completed task metrics are persisted to
//!   `results/<name>.checkpoint.json` as they finish and restored
//!   (bit-exactly) on `--resume`, and failed tasks are replaced by inert
//!   placeholders so figure assembly survives;
//! - job-count plumbing: `SIPT_JOBS` (parsed once, warning on malformed
//!   values) overridden by [`set_jobs`] (the `--jobs N` CLI flag), with
//!   [`std::thread::available_parallelism`] as the default;
//! - a process-wide [`ParallelismProfile`] accumulator that the report
//!   writer folds into the `parallelism` block.
//!
//! `jobs = 1` is an *exact* serial fallback: no worker threads are
//! spawned and the tasks run inline on the calling thread, in prep-group
//! order, which is submission order for benchmark-major sweeps.

use crate::checkpoint;
use crate::machine::SystemKind;
use crate::metrics::RunMetrics;
use crate::resilience::{self, TaskFailure, WatchdogFlag};
use crate::runner::{trace_capacity, Condition};
use sipt_telemetry::json::Json;
use sipt_telemetry::{span, Span};
use sipt_workloads::{benchmark, WorkloadSpec};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Job-count resolution
// ---------------------------------------------------------------------------

/// Explicit override set by the `--jobs N` CLI flag (0 = unset).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// `SIPT_JOBS`, parsed exactly once for the whole process so every sweep
/// (and every worker) agrees on it. Malformed values warn on stderr and
/// fall back to the default rather than being silently treated as 0.
fn jobs_from_env() -> Option<usize> {
    static PARSED: OnceLock<Option<usize>> = OnceLock::new();
    *PARSED.get_or_init(|| match crate::env::parse_or_warn("SIPT_JOBS") {
        Some(0) => {
            eprintln!("warning: SIPT_JOBS=0 is invalid (need >= 1); using the default");
            None
        }
        Some(n) => Some(n.min(usize::MAX as u64) as usize),
        None => None,
    })
}

/// Set the process-wide job count (the `--jobs N` flag). Takes precedence
/// over `SIPT_JOBS`. Values of 0 are ignored.
pub fn set_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The job count sweeps use unless given an explicit count: the
/// [`set_jobs`] override, else `SIPT_JOBS`, else the host's available
/// parallelism.
pub fn effective_jobs() -> usize {
    let explicit = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    jobs_from_env().unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

// ---------------------------------------------------------------------------
// Parallelism accounting
// ---------------------------------------------------------------------------

/// Wall-clock accounting of one parallel sweep execution: how many
/// workers ran, how busy each was, and the resulting speedup over the
/// serial (sum-of-busy-time) cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelismProfile {
    /// Worker count actually used (after clamping to the task count).
    pub jobs: usize,
    /// Number of tasks executed.
    pub tasks: usize,
    /// Wall-clock milliseconds from first submission to last completion.
    pub wall_ms: f64,
    /// Per-worker busy milliseconds (time spent inside tasks, including
    /// failed attempts), indexed by worker id. Length equals `jobs`.
    pub worker_busy_ms: Vec<f64>,
    /// Which worker executed each task, in submission order.
    pub assigned_worker: Vec<usize>,
}

impl ParallelismProfile {
    /// Total busy milliseconds across workers — the serial cost of the
    /// same sweep.
    pub fn total_busy_ms(&self) -> f64 {
        self.worker_busy_ms.iter().sum()
    }

    /// Wall-clock speedup versus running the same tasks serially:
    /// `total_busy_ms / wall_ms` (1.0 when the sweep ran serially).
    pub fn speedup(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.total_busy_ms() / self.wall_ms
        } else {
            1.0
        }
    }

    /// This profile as the report-schema `parallelism` object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("jobs", Json::u64(self.jobs as u64)),
            ("tasks", Json::u64(self.tasks as u64)),
            ("wall_ms", Json::num(self.wall_ms)),
            ("worker_busy_ms", Json::arr(self.worker_busy_ms.iter().map(|&v| Json::num(v)))),
            ("total_busy_ms", Json::num(self.total_busy_ms())),
            ("speedup", Json::num(self.speedup())),
        ])
    }
}

/// Process-wide accumulation of every sweep executed so far, folded into
/// the report `parallelism` block by the figure binaries.
#[derive(Debug, Clone, Default, PartialEq)]
struct Accumulated {
    sweeps: usize,
    jobs_max: usize,
    tasks: usize,
    wall_ms: f64,
    worker_busy_ms: Vec<f64>,
}

static ACCUMULATED: Mutex<Option<Accumulated>> = Mutex::new(None);

/// Fold one executed profile into the process-wide accumulator (the
/// supervisor records its sharded profiles through this too).
pub(crate) fn record_profile(profile: &ParallelismProfile) {
    let mut guard = ACCUMULATED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let acc = guard.get_or_insert_with(Accumulated::default);
    acc.sweeps += 1;
    acc.jobs_max = acc.jobs_max.max(profile.jobs);
    acc.tasks += profile.tasks;
    acc.wall_ms += profile.wall_ms;
    if acc.worker_busy_ms.len() < profile.worker_busy_ms.len() {
        acc.worker_busy_ms.resize(profile.worker_busy_ms.len(), 0.0);
    }
    for (total, busy) in acc.worker_busy_ms.iter_mut().zip(&profile.worker_busy_ms) {
        *total += busy;
    }
}

/// The process-wide `parallelism` report block: `None` until the first
/// sweep has executed. Aggregates every sweep run so far (a figure binary
/// typically runs several). Since schema v4 it also carries the
/// workload-preparation-cache counters (`prep_cache`) — wall-clock
/// accounting only, never part of the scientific payload.
pub fn parallelism_json() -> Option<Json> {
    let guard = ACCUMULATED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let acc = guard.as_ref()?;
    let total_busy: f64 = acc.worker_busy_ms.iter().sum();
    let speedup = if acc.wall_ms > 0.0 { total_busy / acc.wall_ms } else { 1.0 };
    Some(Json::obj([
        ("jobs", Json::u64(acc.jobs_max as u64)),
        ("sweeps", Json::u64(acc.sweeps as u64)),
        ("tasks", Json::u64(acc.tasks as u64)),
        ("wall_ms", Json::num(acc.wall_ms)),
        ("worker_busy_ms", Json::arr(acc.worker_busy_ms.iter().map(|&v| Json::num(v)))),
        ("total_busy_ms", Json::num(total_busy)),
        ("speedup", Json::num(speedup)),
        ("prep_cache", crate::prep_cache::stats_json()),
    ]))
}

/// Snapshot of the process-wide sweep accounting: `(tasks, wall_ms)`
/// across every sweep executed so far. Used by the perf harness to
/// derive per-figure simulated-MIPS without re-parsing reports.
pub fn accumulated_totals() -> Option<(usize, f64)> {
    let guard = ACCUMULATED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    guard.as_ref().map(|acc| (acc.tasks, acc.wall_ms))
}

// ---------------------------------------------------------------------------
// The watchdog
// ---------------------------------------------------------------------------

/// Per-worker in-flight state shared with the watchdog monitor thread.
type InflightSlots = Arc<Vec<Mutex<Option<(usize, Instant)>>>>;

/// A watchdog monitoring the pool's in-flight tasks against the
/// configured `--task-timeout`. When no timeout is configured this is a
/// no-op (no thread is spawned).
struct Watchdog {
    slots: InflightSlots,
    done: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn start(workers: usize) -> Self {
        let slots: InflightSlots = Arc::new((0..workers).map(|_| Mutex::new(None)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let handle = resilience::task_timeout_ms().map(|timeout_ms| {
            let slots = Arc::clone(&slots);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let poll = Duration::from_millis((timeout_ms / 4).clamp(5, 50));
                let mut flagged = std::collections::HashSet::new();
                while !done.load(Ordering::Relaxed) {
                    std::thread::sleep(poll);
                    for slot in slots.iter() {
                        let inflight =
                            *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                        if let Some((task, start)) = inflight {
                            let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
                            if elapsed_ms > timeout_ms as f64 && flagged.insert(task) {
                                resilience::record_watchdog_flag(WatchdogFlag {
                                    task,
                                    elapsed_ms,
                                    timeout_ms,
                                });
                                if resilience::watchdog_kill() {
                                    // Thread-mode fallback: an in-process
                                    // task cannot be killed individually, so
                                    // the whole run aborts with exit 124.
                                    // `--isolation process` scopes the kill
                                    // to the offending worker instead.
                                    eprintln!(
                                        "watchdog: SIPT_WATCHDOG_KILL=1 — aborting (exit 124; \
                                         use --isolation process to kill only the stuck worker)"
                                    );
                                    std::process::exit(124);
                                }
                            }
                        }
                    }
                }
            })
        });
        Self { slots, done, handle }
    }

    fn begin(slots: &InflightSlots, worker: usize, task: usize) {
        *slots[worker].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
            Some((task, Instant::now()));
    }

    fn finish(slots: &InflightSlots, worker: usize) {
        *slots[worker].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    fn stop(mut self) {
        self.done.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------------

/// Marker panic message of a drain placeholder: the slot was never
/// executed because a SIGTERM/SIGINT drain stopped the pool. Drain
/// placeholders are never recorded as real failures — the sweep layer
/// recognises them and exits through the drain path instead.
pub(crate) const DRAIN_MARKER: &str = "graceful drain: task not executed";

fn drain_placeholder(id: usize) -> TaskFailure {
    TaskFailure {
        task: id,
        label: format!("task-{id}"),
        worker: 0,
        panic_msg: DRAIN_MARKER.to_owned(),
        elapsed_ms: 0.0,
        attempts: 0,
    }
}

/// Whether a failure is a drain placeholder rather than a real fault.
pub(crate) fn is_drain_placeholder(f: &TaskFailure) -> bool {
    f.attempts == 0 && f.panic_msg == DRAIN_MARKER
}

// ---------------------------------------------------------------------------
// The isolated engine
// ---------------------------------------------------------------------------

/// One pool task: a process-global id (assigned at submission via
/// [`resilience::allocate_task_ids`], so fault injection and failure
/// reports are deterministic regardless of worker scheduling), an
/// affinity key, a caller label, and the work itself. The closure
/// receives the executing worker id; it must be `FnMut` so the retry
/// policy can re-invoke it.
pub struct PoolTask<F> {
    /// Process-global task id.
    pub id: usize,
    /// Tasks sharing this key form one group, which a worker claims whole
    /// (see [`run_parallel_isolated`]). [`Sweep`] uses the prep
    /// fingerprint; distinct keys give plain first-come scheduling.
    pub affinity: u64,
    /// Caller label for failure reporting.
    pub label: String,
    /// The work. Re-invoked on retry.
    pub task: F,
}

/// Execute one task with panic capture, fault injection, and a bounded
/// attempt budget. Returns the result (or the final failure) plus the
/// total busy milliseconds across attempts. Shared with the supervisor's
/// worker executor so in-process and sharded attempts behave identically.
pub(crate) fn execute_attempts<T, F: FnMut(usize) -> T>(
    id: usize,
    label: &str,
    worker: usize,
    max_attempts: u32,
    f: &mut F,
) -> (Result<T, TaskFailure>, f64) {
    let max_attempts = max_attempts.max(1);
    let mut busy = 0.0;
    let mut last: Option<(String, f64)> = None;
    for attempt in 0..max_attempts {
        let mut task_span = Span::enter_with(
            label.to_owned(),
            "sweep.task",
            vec![("task", Json::u64(id as u64)), ("attempt", Json::u64(u64::from(attempt)))],
        );
        let t0 = Instant::now();
        let outcome = resilience::catch_task_panic(|| {
            resilience::inject_at_task_start(id, attempt);
            f(worker)
        });
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        busy += elapsed_ms;
        match outcome {
            Ok(value) => {
                task_span.arg("status", Json::str("ok"));
                return (Ok(value), busy);
            }
            Err(panic_msg) => {
                task_span.arg("status", Json::str("panicked"));
                if attempt + 1 < max_attempts {
                    resilience::record_retry();
                    eprintln!(
                        "sweep task {id} ({label}) panicked (attempt {}/{max_attempts}): \
                         {panic_msg}; retrying",
                        attempt + 1
                    );
                }
                last = Some((panic_msg, elapsed_ms));
            }
        }
    }
    let (panic_msg, elapsed_ms) = last.expect("at least one attempt ran");
    let failure = TaskFailure {
        task: id,
        label: label.to_owned(),
        worker,
        panic_msg,
        elapsed_ms,
        attempts: max_attempts,
    };
    (Err(failure), busy)
}

/// The pool's claim queue: task indices grouped by affinity key, groups
/// in order of first appearance, each group in submission order.
struct GroupQueue {
    groups: Vec<Vec<usize>>,
    claims: Mutex<Claims>,
}

/// What is left to claim: the unclaimed range `front..back` of every
/// group, and the first group no worker has claimed yet.
struct Claims {
    ranges: Vec<(usize, usize)>,
    fresh: usize,
}

impl GroupQueue {
    fn new(keys: impl IntoIterator<Item = u64>) -> Self {
        let mut group_of: std::collections::HashMap<u64, usize> = Default::default();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, key) in keys.into_iter().enumerate() {
            let g = *group_of.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
        let ranges = groups.iter().map(|g| (0, g.len())).collect();
        Self { groups, claims: Mutex::new(Claims { ranges, fresh: 0 }) }
    }

    /// The next task index for a worker that owns group `own`: the front
    /// of its own group while it has unclaimed tasks, else the front of
    /// the next fresh group (which it then owns), else one task stolen
    /// from the back of the group with the most unclaimed tasks (lowest
    /// group on ties). `None` once every task is claimed.
    fn claim(&self, own: &mut Option<usize>) -> Option<usize> {
        let mut claims = self.claims.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let owned = own.filter(|&g| claims.ranges[g].0 < claims.ranges[g].1);
        let g = match owned {
            Some(g) => g,
            None if claims.fresh < self.groups.len() => {
                claims.fresh += 1;
                *own = Some(claims.fresh - 1);
                claims.fresh - 1
            }
            None => {
                *own = None;
                let ranges = &mut claims.ranges;
                let g = (0..ranges.len())
                    .max_by_key(|&g| (ranges[g].1 - ranges[g].0, std::cmp::Reverse(g)))?;
                let range = &mut ranges[g];
                if range.0 == range.1 {
                    return None;
                }
                range.1 -= 1;
                return Some(self.groups[g][range.1]);
            }
        };
        let range = &mut claims.ranges[g];
        range.0 += 1;
        Some(self.groups[g][range.0 - 1])
    }
}

/// Run independent tasks on a scoped worker pool with panic isolation and
/// return their outcomes in **submission order** together with the
/// parallelism profile.
///
/// Tasks are scheduled by [`PoolTask::affinity`]: tasks sharing a key
/// form a group, and groups are ordered by first appearance. A worker
/// claims the next fresh group whole and runs its tasks in submission
/// order; only when no fresh group is left does it steal single tasks
/// from the group with the most unclaimed tasks, so the tail stays
/// balanced and a sweep with fewer groups than workers still uses every
/// worker. Task ids, retries, the watchdog, drain placeholders,
/// [`ParallelismProfile::assigned_worker`] and result slots are all per
/// task, whatever order the tasks ran in.
///
/// Each task runs inside `catch_unwind` with up to `max_attempts`
/// executions; a task that panics on every attempt yields
/// `Err(TaskFailure)` in its slot while every other task still completes.
/// The caller decides what to do with failures (record, substitute,
/// re-panic). A configured `--task-timeout` arms a watchdog thread that
/// flags (or, with `SIPT_WATCHDOG_KILL=1`, aborts on) overrunning tasks.
///
/// `jobs <= 1` (or a single task) is an exact serial fallback: everything
/// runs inline on the calling thread with no pool, in prep-group order,
/// which is submission order for benchmark-major sweeps. Results are
/// identical either way because each task is an independent pure function
/// — the pool only changes *when* a task runs, never its inputs.
pub fn run_parallel_isolated<T, F>(
    tasks: Vec<PoolTask<F>>,
    jobs: usize,
    max_attempts: u32,
) -> (Vec<Result<T, TaskFailure>>, ParallelismProfile)
where
    T: Send,
    F: FnMut(usize) -> T + Send,
{
    resilience::install_quiet_panic_hook();
    let n = tasks.len();
    let jobs = jobs.max(1).min(n.max(1));
    let wall = Instant::now();

    // Each slot is claimed exactly once through the queue, and each
    // outcome lands in its submission slot, so output order is
    // independent of execution order.
    let queue = GroupQueue::new(tasks.iter().map(|t| t.affinity));
    let ids: Vec<usize> = tasks.iter().map(|t| t.id).collect();
    let task_cells: Vec<Mutex<Option<(String, F)>>> =
        tasks.into_iter().map(|t| Mutex::new(Some((t.label, t.task)))).collect();
    let result_cells: Vec<Mutex<Option<Result<T, TaskFailure>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let assigned: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let watchdog = Watchdog::start(jobs);

    // One worker's claim loop; returns its busy milliseconds (time inside
    // tasks, failed attempts included).
    let run_worker = |worker: usize| -> f64 {
        let mut own = None;
        let mut busy = 0.0;
        while let Some(i) = queue.claim(&mut own) {
            // Graceful drain: in-flight tasks finish, unclaimed slots
            // become drain placeholders so every result cell is still
            // filled (the caller exits through the drain path, never
            // treating them as results).
            let result = if sipt_signal::drain_requested() {
                Err(drain_placeholder(ids[i]))
            } else {
                let (label, mut task) = task_cells[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .take()
                    .expect("task claimed twice");
                Watchdog::begin(&watchdog.slots, worker, ids[i]);
                let (result, task_busy) =
                    execute_attempts(ids[i], &label, worker, max_attempts, &mut task);
                Watchdog::finish(&watchdog.slots, worker);
                busy += task_busy;
                assigned[i].store(worker, Ordering::Relaxed);
                result
            };
            *result_cells[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
                Some(result);
        }
        busy
    };

    let worker_busy_ms: Vec<f64> = if jobs <= 1 {
        // The calling thread *is* the worker: the whole call is busy
        // time (per-attempt timing still feeds failure reports).
        run_worker(0);
        vec![wall.elapsed().as_secs_f64() * 1e3]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..jobs)
                .map(|worker| {
                    let run_worker = &run_worker;
                    scope.spawn(move || {
                        // Claim a stable trace track: tid 0 is the
                        // orchestrator, workers are 1..=jobs regardless of
                        // OS thread identity.
                        span::set_virtual_tid(worker as u32 + 1, &format!("worker {worker}"));
                        run_worker(worker)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("pool workers catch task panics")).collect()
        })
    };
    watchdog.stop();

    let results: Vec<Result<T, TaskFailure>> = result_cells
        .into_iter()
        .map(|cell| {
            cell.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("worker completed every claimed task")
        })
        .collect();
    let profile = ParallelismProfile {
        jobs,
        tasks: n,
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        worker_busy_ms,
        assigned_worker: assigned.into_iter().map(AtomicUsize::into_inner).collect(),
    };
    record_profile(&profile);
    (results, profile)
}

/// Run independent tasks on the pool and return plain results in
/// submission order — the legacy all-or-nothing front-end.
///
/// Panic isolation still applies: a panicking task no longer aborts the
/// pool mid-flight. Every other task completes first, each failure is
/// recorded in the process-wide resilience registry, and only then does
/// this function panic with an aggregate summary (callers that need the
/// per-task outcomes use [`run_parallel_isolated`]).
///
/// # Panics
///
/// Panics (after completing all other tasks) if any task panicked.
pub fn run_parallel<T, F>(tasks: Vec<F>, jobs: usize) -> (Vec<T>, ParallelismProfile)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    let base = resilience::allocate_task_ids(n);
    let pool_tasks: Vec<PoolTask<_>> = tasks
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let mut cell = Some(f);
            PoolTask {
                id: base + i,
                affinity: (base + i) as u64,
                label: format!("task-{}", base + i),
                task: move |_worker: usize| (cell.take().expect("single attempt"))(),
            }
        })
        .collect();
    // FnOnce tasks cannot be retried, so the attempt budget is 1.
    let (outcomes, profile) = run_parallel_isolated(pool_tasks, jobs, 1);
    let mut results = Vec::with_capacity(n);
    let mut failures: Vec<TaskFailure> = Vec::new();
    let mut drained = false;
    for outcome in outcomes {
        match outcome {
            Ok(v) => results.push(v),
            Err(f) if is_drain_placeholder(&f) => drained = true,
            Err(f) => {
                resilience::record_failure(f.clone());
                failures.push(f);
            }
        }
    }
    if drained {
        // A SIGTERM/SIGINT drain stopped the pool: this front-end cannot
        // return a partial Vec<T>, so exit through the drain path (the
        // checkpoint, when armed, already holds everything completed).
        crate::supervisor::exit_for_drain(results.len(), n);
    }
    if let Some(first) = failures.first() {
        panic!("{} of {n} parallel tasks failed; first: {first}", failures.len());
    }
    (results, profile)
}

/// [`run_parallel`] at the process-default job count ([`effective_jobs`]).
pub fn run_parallel_default<T, F>(tasks: Vec<F>) -> (Vec<T>, ParallelismProfile)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_parallel(tasks, effective_jobs())
}

// ---------------------------------------------------------------------------
// The typed single-core sweep builder
// ---------------------------------------------------------------------------

/// One single-core benchmark run: the exact inputs of
/// [`crate::runner::run_spec`], plus a caller label for row assembly and
/// the event-trace capacity resolved once per sweep so every worker
/// agrees on it.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Workload to run.
    pub spec: WorkloadSpec,
    /// L1 configuration.
    pub l1: sipt_core::L1Config,
    /// System (core + hierarchy) model.
    pub system: SystemKind,
    /// Operating condition.
    pub cond: Condition,
    /// Caller label (benchmark name, config label, …) for row assembly.
    pub label: String,
}

impl RunRequest {
    /// Deterministic content fingerprint of this request, used to match
    /// checkpoint entries against the sweep that produced them.
    pub fn fingerprint(&self) -> u64 {
        // Debug formatting of the full input tuple is deterministic
        // (f64's Debug prints the shortest round-trip representation) and
        // covers every field that influences the run.
        checkpoint::fnv1a64(
            format!("{:?}|{:?}|{:?}|{:?}|{}", self.spec, self.l1, self.system, self.cond, {
                &self.label
            })
            .as_bytes(),
        )
    }
}

/// Builder that collects [`RunRequest`]s and executes them on the worker
/// pool, returning metrics in submission order.
#[derive(Debug, Default)]
pub struct Sweep {
    requests: Vec<RunRequest>,
}

/// Process-global sweep sequence number: sweeps execute in deterministic
/// program order on the main thread, so `(sweep seq, task index)` is a
/// stable checkpoint key across runs of the same binary.
fn next_sweep_seq() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The results of a sweep: one [`RunMetrics`] per request, in submission
/// order, plus the parallelism profile and any captured task failures.
///
/// A failed task's slot holds [`RunMetrics::failed_placeholder`] — inert
/// values (IPC 1.0, zero counters) that keep downstream figure assembly
/// alive — and the corresponding [`TaskFailure`] appears both here and in
/// the process-wide resilience registry (so the binary's failure table,
/// report block, and non-zero exit all fire).
#[derive(Debug)]
pub struct SweepResult {
    /// Metrics in submission order.
    pub metrics: Vec<RunMetrics>,
    /// Wall-clock/parallelism accounting.
    pub profile: ParallelismProfile,
    /// Captured failures (empty on a clean sweep).
    pub failures: Vec<TaskFailure>,
}

/// Consuming the results yields [`RunMetrics`] in submission order — the
/// porting idiom is `let mut runs = sweep.run().into_iter()` followed by
/// `runs.next().expect("submitted")` in the same order as submission.
impl IntoIterator for SweepResult {
    type Item = RunMetrics;
    type IntoIter = std::vec::IntoIter<RunMetrics>;

    fn into_iter(self) -> Self::IntoIter {
        self.metrics.into_iter()
    }
}

impl Sweep {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a raw request. Returns its submission index.
    pub fn push(&mut self, request: RunRequest) -> usize {
        self.requests.push(request);
        self.requests.len() - 1
    }

    /// Queue a run of a named benchmark preset (the parallel analogue of
    /// [`crate::runner::run_benchmark`]). Returns its submission index.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::UnknownBenchmark`] if `name` is not a known
    /// benchmark preset.
    pub fn try_bench(
        &mut self,
        name: &str,
        l1: sipt_core::L1Config,
        system: SystemKind,
        cond: &Condition,
    ) -> Result<usize, crate::SimError> {
        let spec = benchmark(name)
            .ok_or_else(|| crate::SimError::UnknownBenchmark { name: name.to_owned() })?;
        Ok(self.push(RunRequest { spec, l1, system, cond: *cond, label: name.to_owned() }))
    }

    /// Queue a run of a named benchmark preset.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known benchmark preset — use
    /// [`Sweep::try_bench`] on untrusted names.
    pub fn bench(
        &mut self,
        name: &str,
        l1: sipt_core::L1Config,
        system: SystemKind,
        cond: &Condition,
    ) -> usize {
        self.try_bench(name, l1, system, cond).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the sweep is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Execute at the process-default job count ([`effective_jobs`]).
    pub fn run(self) -> SweepResult {
        let jobs = effective_jobs();
        self.run_with_jobs(jobs)
    }

    /// Execute on exactly `jobs` workers (1 = serial, inline).
    ///
    /// Under `--isolation process` (parent side) the pending slots are
    /// handed to the [`crate::supervisor`], which re-execs this binary in
    /// worker mode per shard; merged results are byte-identical to the
    /// in-process path because workers stream metrics in the checkpoint
    /// byte codec. In a worker process this call either returns inert
    /// placeholders (sweeps before the assigned one — the replay skips
    /// them) or executes the assigned shard and exits, never returning.
    pub fn run_with_jobs(self, jobs: usize) -> SweepResult {
        // Resolve the event-trace capacity once, outside the pool, so the
        // workers cannot disagree (and the env var is only parsed once).
        let capacity = trace_capacity();
        let n = self.requests.len();
        let sweep_seq = next_sweep_seq();

        // Worker mode: the replay of the binary's main up to the target
        // sweep. Ids are still allocated (so fault-injection ids line up
        // with the supervisor's), but only the assigned shard executes.
        if let Some(shard) = crate::supervisor::worker_shard() {
            let local_base = resilience::allocate_task_ids(n);
            if sweep_seq < shard.sweep_seq {
                return crate::supervisor::skipped_sweep_result(&self.requests);
            }
            if local_base != shard.base_id {
                eprintln!(
                    "warning: worker replay allocated task base {local_base} but the \
                     supervisor assigned {}; using the supervisor's ids",
                    shard.base_id
                );
            }
            crate::supervisor::run_worker_shard(self.requests, shard, capacity, sweep_seq);
        }

        // Each run's prep group: the pool hands all runs of one
        // `(spec, cond)` pair to the worker that prepares it.
        let prep_keys: Vec<u64> = self
            .requests
            .iter()
            .map(|req| crate::prep_cache::fingerprint(&req.spec, &req.cond))
            .collect();
        let groups = prep_keys.iter().collect::<std::collections::HashSet<_>>().len();
        let isolation = crate::supervisor::isolation();
        let _sweep_span = Span::enter_with(
            format!("sweep {sweep_seq}"),
            "sweep",
            vec![
                ("tasks", Json::u64(n as u64)),
                ("groups", Json::u64(groups as u64)),
                ("jobs", Json::u64(jobs.max(1) as u64)),
                ("isolation", Json::str(isolation.name())),
            ],
        );
        // Global ids are allocated for *every* slot — including ones that
        // resume from a checkpoint — so fault-injection task ids stay
        // stable whether or not a resume skipped work.
        let base_id = resilience::allocate_task_ids(n);

        // Restore completed tasks from the checkpoint, when resuming.
        let ckpt = checkpoint::active();
        let mut slots: Vec<Option<RunMetrics>> = (0..n).map(|_| None).collect();
        let mut restored = 0u64;
        if let Some(ckpt) = &ckpt {
            let mut restore_span = Span::enter(format!("restore sweep {sweep_seq}"), "checkpoint");
            for (i, req) in self.requests.iter().enumerate() {
                let key = checkpoint::task_key(sweep_seq, i);
                if let Some(metrics) = ckpt.restore(&key, req.fingerprint()) {
                    slots[i] = Some(metrics);
                    restored += 1;
                }
            }
            restore_span.arg("restored", Json::u64(restored));
            if restored > 0 {
                resilience::record_checkpoint_hits(restored);
                eprintln!(
                    "resume: sweep {sweep_seq} restored {restored}/{n} task(s) from {}",
                    ckpt.path().display()
                );
            }
        }

        // Slots that still need to run, with their requests.
        let mut pending: Vec<(usize, RunRequest)> = Vec::new();
        for (i, req) in self.requests.into_iter().enumerate() {
            if slots[i].is_none() {
                pending.push((i, req));
            }
        }

        let attempts = resilience::task_retries() + 1;
        let mut failures = Vec::new();
        let mut drained = false;
        let mut profile: Option<ParallelismProfile> = None;

        // Process isolation: hand the pending slots to the supervisor,
        // which shards them across re-exec'd worker processes. A
        // supervisor that cannot start at all degrades to the thread
        // pool with a warning rather than failing the sweep.
        if isolation == crate::supervisor::Isolation::Process && !pending.is_empty() {
            match crate::supervisor::run_sharded(
                &pending,
                sweep_seq,
                base_id,
                jobs.max(1),
                ckpt.as_ref(),
            ) {
                Ok((outcomes, sharded_profile)) => {
                    for (slot, outcome) in outcomes {
                        match outcome {
                            Ok(metrics) => slots[slot] = Some(metrics),
                            Err(failure) => {
                                resilience::record_failure(failure.clone());
                                slots[slot] = Some(RunMetrics::failed_placeholder(&failure.label));
                                failures.push(failure);
                            }
                        }
                    }
                    drained = sipt_signal::drain_requested();
                    profile = Some(sharded_profile);
                }
                Err(e) => {
                    eprintln!(
                        "warning: {e}; falling back to thread isolation for sweep {sweep_seq}"
                    );
                }
            }
        }

        // Thread isolation (the default, the worker-mode path, and the
        // supervisor-unavailable fallback): pool tasks with the full
        // per-task pipeline inside the isolation boundary — simulate,
        // stamp the worker id, apply any injected metric corruption,
        // audit, and append to the checkpoint.
        let profile = match profile {
            Some(profile) => profile,
            None => {
                let order: Vec<usize> = pending.iter().map(|&(i, _)| i).collect();
                let tasks: Vec<PoolTask<_>> = pending
                    .into_iter()
                    .map(|(i, req)| {
                        let id = base_id + i;
                        let label = req.label.clone();
                        let err_label = req.label.clone();
                        let key = checkpoint::task_key(sweep_seq, i);
                        let fingerprint = req.fingerprint();
                        let ckpt = ckpt.clone();
                        PoolTask {
                            id,
                            affinity: prep_keys[i],
                            label,
                            // The closure returns `Result`: a typed SimError
                            // (bad trace, unknown benchmark, oversized
                            // workload) is a deterministic property of the
                            // *inputs*, so it is wrapped as a TaskFailure
                            // immediately — the retry budget (which exists
                            // for injected/transient panics) never spends an
                            // attempt re-running it. Panics (including audit
                            // violations) still unwind into the pool's catch
                            // and stay retryable.
                            task: move |worker: usize| -> Result<RunMetrics, TaskFailure> {
                                let t0 = Instant::now();
                                let mut metrics =
                                    match crate::runner::try_run_spec_with_trace_capacity(
                                        &req.spec,
                                        req.l1.clone(),
                                        req.system,
                                        &req.cond,
                                        capacity,
                                    ) {
                                        Ok(metrics) => metrics,
                                        Err(e) => {
                                            return Err(TaskFailure {
                                                task: id,
                                                label: err_label.clone(),
                                                worker,
                                                panic_msg: e.to_string(),
                                                elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
                                                attempts: 1,
                                            });
                                        }
                                    };
                                metrics.phases.worker = worker;
                                if resilience::inject_bit_flip(id) {
                                    metrics.sipt.accesses ^= 1;
                                }
                                if crate::audit::enabled() {
                                    if let Err(e) = crate::audit::check_metrics(&metrics) {
                                        panic!("{e}");
                                    }
                                }
                                if let Some(ckpt) = &ckpt {
                                    ckpt.append(&key, fingerprint, &metrics);
                                }
                                Ok(metrics)
                            },
                        }
                    })
                    .collect();

                let (outcomes, profile) = run_parallel_isolated(tasks, jobs, attempts);
                for (slot, outcome) in order.into_iter().zip(outcomes) {
                    // Two failure planes: Err(_) from the pool (panic
                    // exhausted the retry budget) and Ok(Err(_)) from the
                    // task itself (typed error, attempts == 1, zero retries
                    // spent). Drain placeholders are neither — they mark
                    // slots a graceful shutdown never executed.
                    match outcome.and_then(|typed| typed) {
                        Ok(metrics) => slots[slot] = Some(metrics),
                        Err(failure) if is_drain_placeholder(&failure) => drained = true,
                        Err(failure) => {
                            resilience::record_failure(failure.clone());
                            slots[slot] = Some(RunMetrics::failed_placeholder(&failure.label));
                            failures.push(failure);
                        }
                    }
                }
                profile
            }
        };

        if drained {
            // Completed results are flushed to the checkpoint (when armed);
            // report what was saved and exit through the drain path.
            let done = slots.iter().filter(|slot| slot.is_some()).count();
            crate::supervisor::exit_for_drain(done, n);
        }
        let metrics = slots
            .into_iter()
            .map(|slot| slot.expect("every slot restored, computed, or placeholdered"))
            .collect();
        SweepResult { metrics, profile, failures }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_core::{baseline_32k_8w_vipt, sipt_32k_2w};

    #[test]
    fn results_arrive_in_submission_order() {
        // Tasks with deliberately inverted costs: the first submission is
        // the slowest, so completion order differs from submission order.
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                Box::new(move || {
                    std::thread::sleep(std::time::Duration::from_millis((8 - i) as u64));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let (results, profile) = run_parallel(tasks, 4);
        assert_eq!(results, (0..8).collect::<Vec<_>>());
        assert_eq!(profile.jobs, 4);
        assert_eq!(profile.tasks, 8);
        assert_eq!(profile.assigned_worker.len(), 8);
        // Each `run_parallel` task is its own group, so the tasks still
        // spread across workers first come, first served.
        let mut used = profile.assigned_worker.clone();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() > 1, "tasks spread: {:?}", profile.assigned_worker);
        assert!(profile.worker_busy_ms.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn serial_fallback_spawns_no_pool() {
        let (results, profile) = run_parallel((0..3).map(|i| move || i * 2).collect(), 1);
        assert_eq!(results, vec![0, 2, 4]);
        assert_eq!(profile.jobs, 1);
        assert_eq!(profile.worker_busy_ms.len(), 1);
        assert_eq!(profile.assigned_worker, vec![0, 0, 0]);
        assert!((profile.speedup() - 1.0).abs() < 0.5, "serial speedup ~1");
    }

    #[test]
    fn jobs_clamp_to_task_count() {
        let (results, profile) = run_parallel(vec![|| 7usize], 16);
        assert_eq!(results, vec![7]);
        assert_eq!(profile.jobs, 1, "one task needs one worker");
    }

    #[test]
    fn empty_sweep_is_fine() {
        let (results, profile) = run_parallel(Vec::<fn() -> u8>::new(), 4);
        assert!(results.is_empty());
        assert_eq!(profile.tasks, 0);
    }

    #[test]
    fn sweep_matches_direct_runner_calls() {
        let cond = Condition::quick();
        let mut sweep = Sweep::new();
        sweep.bench("sjeng", baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, &cond);
        sweep.bench("sjeng", sipt_32k_2w(), SystemKind::OooThreeLevel, &cond);
        assert_eq!(sweep.len(), 2);
        let result = sweep.run_with_jobs(2);
        assert!(result.failures.is_empty());
        let direct_base =
            crate::run_benchmark("sjeng", baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, &cond);
        let direct_sipt =
            crate::run_benchmark("sjeng", sipt_32k_2w(), SystemKind::OooThreeLevel, &cond);
        assert_eq!(result.metrics[0].core, direct_base.core);
        assert_eq!(result.metrics[0].sipt, direct_base.sipt);
        assert_eq!(result.metrics[1].core, direct_sipt.core);
        assert_eq!(result.metrics[1].sipt, direct_sipt.sipt);
    }

    #[test]
    fn profile_json_has_required_keys() {
        let (_, profile) = run_parallel(vec![|| ()], 1);
        let json = profile.to_json();
        for key in ["jobs", "tasks", "wall_ms", "worker_busy_ms", "total_busy_ms", "speedup"] {
            assert!(json.get(key).is_some(), "missing {key}");
        }
        assert!(parallelism_json().is_some(), "global accumulator must be primed");
    }

    #[test]
    fn isolated_pool_captures_panics_and_finishes_the_rest() {
        let base = resilience::allocate_task_ids(6);
        let tasks: Vec<PoolTask<_>> = (0..6usize)
            .map(|i| PoolTask {
                id: base + i,
                affinity: i as u64,
                label: format!("iso-{i}"),
                task: move |_w: usize| {
                    if i == 2 {
                        panic!("kaboom {i}");
                    }
                    i * 10
                },
            })
            .collect();
        let (outcomes, profile) = run_parallel_isolated(tasks, 3, 2);
        assert_eq!(profile.tasks, 6);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                let failure = outcome.as_ref().unwrap_err();
                assert_eq!(failure.task, base + 2);
                assert_eq!(failure.label, "iso-2");
                assert_eq!(failure.attempts, 2, "retry budget spent");
                assert!(failure.panic_msg.contains("kaboom"));
            } else {
                assert_eq!(*outcome.as_ref().unwrap(), i * 10);
            }
        }
    }

    #[test]
    fn retry_recovers_transient_panics() {
        let base = resilience::allocate_task_ids(1);
        let attempts = std::sync::Arc::new(AtomicUsize::new(0));
        let seen = std::sync::Arc::clone(&attempts);
        let tasks = vec![PoolTask {
            id: base,
            affinity: 0,
            label: "flaky".to_owned(),
            task: move |_w: usize| {
                if seen.fetch_add(1, Ordering::Relaxed) == 0 {
                    panic!("transient");
                }
                99usize
            },
        }];
        let (outcomes, _) = run_parallel_isolated(tasks, 1, 3);
        assert_eq!(*outcomes[0].as_ref().unwrap(), 99);
        assert_eq!(attempts.load(Ordering::Relaxed), 2, "second attempt succeeded");
    }

    #[test]
    #[should_panic(expected = "parallel tasks failed")]
    fn legacy_front_end_panics_after_completion() {
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("legacy boom")), Box::new(|| 3)];
        let _ = run_parallel(tasks, 2);
    }

    /// `groups` groups of `per_group` tasks, submitted group-major, each
    /// sleeping `sleep_ms` and returning its submission index.
    fn sleeping_groups(
        groups: usize,
        per_group: usize,
        sleep_ms: u64,
    ) -> Vec<PoolTask<impl FnMut(usize) -> usize + Send>> {
        let n = groups * per_group;
        let base = resilience::allocate_task_ids(n);
        (0..n)
            .map(|i| PoolTask {
                id: base + i,
                affinity: (i / per_group) as u64,
                label: format!("group-{}", i / per_group),
                task: move |_w: usize| {
                    std::thread::sleep(Duration::from_millis(sleep_ms));
                    i
                },
            })
            .collect()
    }

    #[test]
    fn workers_claim_whole_groups_until_the_tail() {
        let (outcomes, profile) = run_parallel_isolated(sleeping_groups(8, 4, 5), 2, 1);
        let results: Vec<usize> = outcomes.into_iter().map(Result::unwrap).collect();
        assert_eq!(results, (0..32).collect::<Vec<_>>(), "results in submission order");
        // Groups are claimed in order; only the last two (one per worker
        // when the fresh groups run out) may be split by tail stealing.
        for (g, workers) in profile.assigned_worker.chunks(4).enumerate().take(6) {
            assert!(workers.iter().all(|&w| w == workers[0]), "group {g} split: {workers:?}");
        }
        assert!(profile.assigned_worker.contains(&0) && profile.assigned_worker.contains(&1));
    }

    #[test]
    fn interleaved_groups_keep_submission_order_and_serial_runs_group_order() {
        // Keys alternate a, b, a, b, ...: the serial path runs every `a`
        // task before any `b` task, yet results land in submission order.
        let base = resilience::allocate_task_ids(6);
        let order = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<PoolTask<_>> = (0..6usize)
            .map(|i| {
                let order = Arc::clone(&order);
                PoolTask {
                    id: base + i,
                    affinity: (i % 2) as u64,
                    label: format!("alt-{i}"),
                    task: move |_w: usize| {
                        order.lock().unwrap().push(i);
                        i * 3
                    },
                }
            })
            .collect();
        let (outcomes, profile) = run_parallel_isolated(tasks, 1, 1);
        let results: Vec<usize> = outcomes.into_iter().map(Result::unwrap).collect();
        assert_eq!(results, vec![0, 3, 6, 9, 12, 15]);
        assert_eq!(*order.lock().unwrap(), vec![0, 2, 4, 1, 3, 5]);
        assert_eq!(profile.assigned_worker, vec![0; 6]);
    }

    #[test]
    fn a_single_group_is_shared_through_tail_stealing() {
        let (outcomes, profile) = run_parallel_isolated(sleeping_groups(1, 8, 20), 4, 1);
        assert!(outcomes.iter().all(Result::is_ok));
        let mut used = profile.assigned_worker.clone();
        used.sort_unstable();
        used.dedup();
        assert!(used.len() > 1, "one group must still spread: {:?}", profile.assigned_worker);
    }

    #[test]
    fn group_queue_claims_fresh_groups_then_steals_from_the_largest() {
        let queue = GroupQueue::new([7, 7, 9, 7, 9, 5]);
        assert_eq!(queue.groups, vec![vec![0, 1, 3], vec![2, 4], vec![5]]);
        let (mut a, mut b) = (None, None);
        assert_eq!(queue.claim(&mut a), Some(0), "a claims group 0");
        assert_eq!(queue.claim(&mut b), Some(2), "b claims group 1");
        assert_eq!(queue.claim(&mut b), Some(4));
        assert_eq!(queue.claim(&mut b), Some(5), "b claims group 2");
        assert_eq!(queue.claim(&mut b), Some(3), "b steals the back of group 0");
        assert_eq!(queue.claim(&mut a), Some(1), "a keeps its own group's front");
        assert_eq!(queue.claim(&mut a), None);
        assert_eq!(queue.claim(&mut b), None);
    }

    #[test]
    fn request_fingerprints_discriminate_inputs() {
        let cond = Condition::quick();
        let mut sweep = Sweep::new();
        sweep.bench("sjeng", baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, &cond);
        sweep.bench("sjeng", sipt_32k_2w(), SystemKind::OooThreeLevel, &cond);
        let a = sweep.requests[0].fingerprint();
        let b = sweep.requests[1].fingerprint();
        assert_ne!(a, b, "different configs must fingerprint differently");
        assert_eq!(a, sweep.requests[0].fingerprint(), "fingerprints are stable");
    }

    #[test]
    fn try_bench_reports_unknown_names() {
        let cond = Condition::quick();
        let mut sweep = Sweep::new();
        let err = sweep
            .try_bench("not-a-benchmark", baseline_32k_8w_vipt(), SystemKind::OooThreeLevel, &cond)
            .unwrap_err();
        assert!(matches!(err, crate::SimError::UnknownBenchmark { .. }));
        assert!(sweep.is_empty());
    }
}
