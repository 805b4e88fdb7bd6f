//! The process-isolation sweep supervisor: crash-proof worker processes
//! that claim work from the pool's queue, backoff respawn, per-task
//! quarantine, and graceful drain.
//!
//! PR 3's `catch_unwind` isolation contains *panics*, but an `abort()`,
//! a segfault, or the OOM killer takes the whole process — and with it
//! every completed-but-unreported task. With `--isolation process` (or
//! `SIPT_ISOLATION=process`) a [`crate::Sweep`] no longer runs its tasks
//! in-process: the supervisor re-execs the *current binary* as `jobs`
//! worker processes and supervises them over a pipe-based protocol
//! ([`crate::wire`]).
//!
//! Workers are deterministic replays, not serialized closures: a worker
//! re-runs the binary's `main`, skips every sweep before its target
//! (inert placeholders), says `hello`, and then runs whatever slots of
//! the target sweep the supervisor sends it, one `run` command at a time,
//! streaming each result as bit-exact checkpoint-codec bytes, preceded
//! by the prep-cache counts that run added. Closing its stdin tells it
//! to finish (or drain): it exits. Because every run is a pure function
//! of its [`crate::RunRequest`], the merged results are byte-identical to
//! in-process execution — the kernel-bit-identity fingerprints hold
//! across `--isolation thread|process` at any job count.
//!
//! Scheduling is the thread pool's: the supervisor owns one
//! [`GroupQueue`] keyed by [`crate::prep_cache::fingerprint`], and
//! whenever a worker says `hello` or resolves a slot it claims that
//! worker's next slot with the same [`GroupQueue::claim`] a pool thread
//! calls — whole prep groups first, single tasks stolen at the tail.
//!
//! Fault containment policy:
//!
//! - a worker that dies (abort, signal, OOM-kill, nonzero exit, protocol
//!   corruption) with a slot in flight charges that *slot*: the slot is
//!   re-queued after an exponential backoff and the worker respawned, up
//!   to `SIPT_RESPAWN_BUDGET` deaths of the slot; one death more
//!   **quarantines** just that slot as a permanent [`TaskFailure`]
//!   (placeholder metrics, failure table, exit 1);
//! - a death with nothing in flight (spawn failure, no hello before
//!   `SIPT_WORKER_SPAWN_TIMEOUT_MS`, corruption between tasks) charges
//!   the *worker slot*; a slot over budget retires, and when every slot
//!   has retired the unfinished slots are quarantined — so a sweep
//!   respawns at most `jobs × (budget + 1)` workers for such deaths;
//! - `SIPT_WATCHDOG_KILL=1` kills only the offending *worker* (the
//!   in-flight task is failed, the worker slot respawns without charging
//!   any budget) — exit 124 remains the documented thread-mode fallback;
//! - SIGTERM/SIGINT drain the fleet gracefully: no new work is handed
//!   out, every worker's stdin is closed so it finishes its in-flight
//!   task and exits, merged partial results are already in the
//!   checkpoint, and the run exits [`sipt_signal::EXIT_DRAINED`] with
//!   resume instructions.
//!
//! Everything the supervisor observed lands in the schema-v6
//! `resilience.supervisor` report block ([`supervisor_json`]).

use crate::checkpoint::{self, CheckpointHandle};
use crate::error::SimError;
use crate::metrics::RunMetrics;
use crate::resilience::{self, TaskFailure, WatchdogFlag};
use crate::sweep::{execute_attempts, record_profile, GroupQueue, ParallelismProfile, RunRequest};
use crate::wire::{self, Parsed, WorkerMsg};
use sipt_telemetry::json::Json;
use sipt_telemetry::{span, Span};
use std::io::{BufRead, Write as _};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Isolation mode selection
// ---------------------------------------------------------------------------

/// How a sweep isolates its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isolation {
    /// In-process worker threads with `catch_unwind` (the default).
    /// Contains panics; cannot contain aborts, segfaults, or OOM kills.
    Thread,
    /// Supervised worker subprocesses. Contains everything short of the
    /// supervisor itself dying.
    Process,
}

impl Isolation {
    /// Stable lowercase name (`thread` / `process`).
    pub fn name(self) -> &'static str {
        match self {
            Isolation::Thread => "thread",
            Isolation::Process => "process",
        }
    }

    /// Parse a `--isolation` / `SIPT_ISOLATION` value.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw.trim() {
            "thread" => Some(Isolation::Thread),
            "process" => Some(Isolation::Process),
            _ => None,
        }
    }
}

/// Explicit override set by the `--isolation` CLI flag
/// (0 = unset, 1 = thread, 2 = process).
static ISOLATION_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide isolation mode (the `--isolation` flag). Takes
/// precedence over `SIPT_ISOLATION`.
pub fn set_isolation(mode: Isolation) {
    let v = match mode {
        Isolation::Thread => 1,
        Isolation::Process => 2,
    };
    ISOLATION_OVERRIDE.store(v, Ordering::Relaxed);
}

/// `SIPT_ISOLATION`, parsed once per process; malformed values warn and
/// fall back to the thread default rather than silently changing modes.
fn isolation_from_env() -> Option<Isolation> {
    static PARSED: OnceLock<Option<Isolation>> = OnceLock::new();
    *PARSED.get_or_init(|| {
        crate::env::choice_or_warn("SIPT_ISOLATION", &["thread", "process"])
            .and_then(|v| Isolation::parse(&v))
    })
}

/// The effective isolation mode: the [`set_isolation`] override, else
/// `SIPT_ISOLATION`, else [`Isolation::Thread`]. Worker processes always
/// report `Thread` — a worker supervising its own sub-fleet would recurse
/// without bound.
pub fn isolation() -> Isolation {
    if worker_mode() {
        return Isolation::Thread;
    }
    match ISOLATION_OVERRIDE.load(Ordering::Relaxed) {
        1 => Isolation::Thread,
        2 => Isolation::Process,
        _ => isolation_from_env().unwrap_or(Isolation::Thread),
    }
}

/// Install the SIGTERM/SIGINT drain handlers (idempotent). Re-exported
/// here so binaries need no direct `sipt-signal` dependency.
pub fn install_drain_handlers() {
    sipt_signal::install_drain_handlers();
}

// ---------------------------------------------------------------------------
// Worker-mode plumbing (the re-exec'd side)
// ---------------------------------------------------------------------------

/// Target sweep sequence number (env, worker side).
const ENV_SWEEP: &str = "SIPT_WORKER_SWEEP";
/// The parent's `base_id` for the target sweep, so fault-injection task
/// ids line up even if replay allocated ids differently.
const ENV_BASE: &str = "SIPT_WORKER_BASE";
/// Display/profile worker slot (0-based, < jobs).
const ENV_SLOT: &str = "SIPT_WORKER_SLOT";

/// What a worker serves, decoded from the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkerTarget {
    /// Sweep sequence number to serve.
    pub sweep_seq: usize,
    /// Parent-side `base_id` of the target sweep.
    pub base_id: usize,
    /// Worker slot for profile/failure attribution.
    pub worker_slot: usize,
}

fn parse_env<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Whether this process is a re-exec'd `--worker-shard` worker.
pub fn worker_mode() -> bool {
    static PARSED: OnceLock<bool> = OnceLock::new();
    *PARSED.get_or_init(|| std::env::var_os(ENV_SWEEP).is_some())
}

/// The worker's target, parsed once. `None` outside worker mode; a
/// malformed target in worker mode is a protocol error (exit 3) — there
/// is no sensible fallback for a worker that cannot know its sweep.
pub(crate) fn worker_target() -> Option<&'static WorkerTarget> {
    static PARSED: OnceLock<Option<WorkerTarget>> = OnceLock::new();
    PARSED
        .get_or_init(|| {
            if !worker_mode() {
                return None;
            }
            let decoded = (|| {
                Some(WorkerTarget {
                    sweep_seq: parse_env(ENV_SWEEP)?,
                    base_id: parse_env(ENV_BASE)?,
                    worker_slot: parse_env(ENV_SLOT)?,
                })
            })();
            if decoded.is_none() {
                eprintln!("worker: malformed worker target in environment; exiting");
                std::process::exit(3);
            }
            decoded
        })
        .as_ref()
}

/// Emit one protocol line on stdout, flushed immediately so the
/// supervisor sees it even if this process dies on the next instruction.
fn emit(msg: &WorkerMsg) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{}", msg.encode());
    let _ = out.flush();
}

/// Serve the target sweep's `run` commands until stdin closes, then exit.
///
/// Runs each slot through the same pipeline as the in-process pool
/// ([`crate::sweep::run_task`]) with the same retry budget, and answers
/// every command with `done` or `fail`. Checkpoint appends happen on the
/// *parent* side (the worker's results travel in the identical byte
/// codec), so a torn worker never corrupts the checkpoint file.
pub(crate) fn run_worker(
    requests: &[RunRequest],
    target: &WorkerTarget,
    capacity: usize,
    sweep_seq: usize,
) -> ! {
    if sweep_seq != target.sweep_seq {
        eprintln!(
            "worker: reached sweep {sweep_seq} while targeting sweep {} — \
             the replay diverged; exiting",
            target.sweep_seq
        );
        std::process::exit(3);
    }
    resilience::install_quiet_panic_hook();
    emit(&WorkerMsg::Hello { sweep_seq, requests: requests.len() });

    let mut prep_sent = crate::prep_cache::stats();
    let attempts = resilience::task_retries() + 1;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let run = wire::Run::parse(&line).unwrap_or_else(|e| {
            eprintln!("worker: {e}; exiting");
            std::process::exit(3);
        });
        let Some(req) = requests.get(run.slot) else {
            eprintln!("worker: slot {} beyond sweep of {}; exiting", run.slot, requests.len());
            std::process::exit(3);
        };
        let id = target.base_id + run.slot;
        // Attempts of the workers that died running this slot came first.
        let first_attempt = run.prior_deaths.saturating_mul(attempts);
        let mut task = |worker: usize| crate::sweep::run_task(req, id, capacity, worker);
        let (outcome, _busy) = execute_attempts(
            id,
            &req.label,
            target.worker_slot,
            first_attempt,
            attempts,
            &mut task,
        );
        // The prep counts go out before the result, so a worker that
        // dies later has already reported the preparation it did.
        let now = crate::prep_cache::stats();
        emit(&WorkerMsg::PrepCache {
            hits: now.hits.saturating_sub(prep_sent.hits),
            misses: now.misses.saturating_sub(prep_sent.misses),
            fragment_builds: now.fragment_builds.saturating_sub(prep_sent.fragment_builds),
            shared_traces: now.shared_traces.saturating_sub(prep_sent.shared_traces),
        });
        prep_sent = now;
        emit(&match outcome.and_then(|typed| typed) {
            Ok(metrics) => WorkerMsg::Done {
                slot: run.slot,
                fingerprint: req.fingerprint(),
                metrics: checkpoint::encode_metrics(&metrics),
            },
            Err(failure) => WorkerMsg::Fail {
                slot: run.slot,
                attempts: failure.attempts,
                elapsed_ms: failure.elapsed_ms,
                message: failure.panic_msg,
            },
        });
    }

    // End of input: the sweep is done or draining.
    std::process::exit(0);
}

/// Placeholder results for a sweep a worker replay skips (every sweep
/// before its target): inert metrics, an empty profile, no failures
/// recorded and nothing folded into the process-wide accumulators.
pub(crate) fn skipped_sweep_result(requests: &[RunRequest]) -> crate::sweep::SweepResult {
    crate::sweep::SweepResult {
        metrics: requests.iter().map(|r| RunMetrics::failed_placeholder(&r.label)).collect(),
        profile: ParallelismProfile {
            jobs: 1,
            tasks: requests.len(),
            wall_ms: 0.0,
            worker_busy_ms: vec![0.0],
            assigned_worker: vec![0; requests.len()],
        },
        failures: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Supervisor statistics (the schema-v6 `resilience.supervisor` block)
// ---------------------------------------------------------------------------

#[derive(Debug, Default, Clone)]
struct Stats {
    sweeps: u64,
    workers_spawned: u64,
    respawns: u64,
    worker_deaths: u64,
    quarantined_tasks: u64,
    watchdog_kills: u64,
    results_merged: u64,
    fingerprint_mismatches: u64,
    protocol_errors: u64,
    drained: bool,
}

static STATS: Mutex<Option<Stats>> = Mutex::new(None);

fn with_stats<R>(f: impl FnOnce(&mut Stats) -> R) -> R {
    let mut guard = STATS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(Stats::default))
}

/// The `resilience.supervisor` report block: `None` until a sweep has
/// actually run under process isolation in this process.
pub fn supervisor_json() -> Option<Json> {
    let guard = STATS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let s = guard.as_ref()?.clone();
    drop(guard);
    Some(Json::obj([
        ("isolation", Json::str(Isolation::Process.name())),
        ("sweeps", Json::u64(s.sweeps)),
        ("workers_spawned", Json::u64(s.workers_spawned)),
        ("respawns", Json::u64(s.respawns)),
        ("worker_deaths", Json::u64(s.worker_deaths)),
        ("quarantined_tasks", Json::u64(s.quarantined_tasks)),
        ("watchdog_kills", Json::u64(s.watchdog_kills)),
        ("results_merged", Json::u64(s.results_merged)),
        ("fingerprint_mismatches", Json::u64(s.fingerprint_mismatches)),
        ("protocol_errors", Json::u64(s.protocol_errors)),
        ("drained", Json::Bool(s.drained)),
        ("respawn_budget", Json::u64(u64::from(respawn_budget()))),
        ("respawn_backoff_ms", Json::u64(respawn_backoff_ms())),
    ]))
}

// ---------------------------------------------------------------------------
// Supervisor policy knobs
// ---------------------------------------------------------------------------

/// Deaths a task or worker slot may cause before it is quarantined or
/// retired (`SIPT_RESPAWN_BUDGET`, default 2).
pub fn respawn_budget() -> u32 {
    static PARSED: OnceLock<u64> = OnceLock::new();
    *PARSED.get_or_init(|| crate::env::parse_or_warn_default("SIPT_RESPAWN_BUDGET", 2).min(64))
        as u32
}

/// Base backoff before a respawn, doubling per death of the same task or
/// worker slot (`SIPT_RESPAWN_BACKOFF_MS`, default 25).
pub fn respawn_backoff_ms() -> u64 {
    static PARSED: OnceLock<u64> = OnceLock::new();
    *PARSED.get_or_init(|| {
        crate::env::parse_or_warn_default("SIPT_RESPAWN_BACKOFF_MS", 25).min(MAX_BACKOFF_MS)
    })
}

/// Ceiling of the base backoff and of every doubled backoff.
const MAX_BACKOFF_MS: u64 = 60_000;

/// The wait before the retry that follows death number `deaths` (1-based)
/// of one task or worker slot: `base` doubled per earlier death, never
/// more than [`MAX_BACKOFF_MS`].
fn backoff_ms(base: u64, deaths: u32) -> u64 {
    (base << deaths.saturating_sub(1).min(16)).min(MAX_BACKOFF_MS)
}

/// How long a fresh worker may stay silent (no hello) before it is
/// presumed wedged (`SIPT_WORKER_SPAWN_TIMEOUT_MS`, default 30 s).
fn spawn_timeout_ms() -> u64 {
    static PARSED: OnceLock<u64> = OnceLock::new();
    *PARSED.get_or_init(|| {
        crate::env::parse_or_warn_default("SIPT_WORKER_SPAWN_TIMEOUT_MS", 30_000).max(100)
    })
}

// ---------------------------------------------------------------------------
// Drain exit
// ---------------------------------------------------------------------------

/// Graceful-drain exit: print what was saved and how to continue, then
/// exit [`sipt_signal::EXIT_DRAINED`]. Called by the sweep engine once
/// in-flight work has settled and the checkpoint is flushed.
pub(crate) fn exit_for_drain(done: usize, total: usize) -> ! {
    with_stats(|s| s.drained = true);
    span::instant_with(
        "drain",
        "supervisor",
        vec![("done", Json::u64(done as u64)), ("total", Json::u64(total as u64))],
    );
    eprintln!("drain: interrupted with {done}/{total} task(s) of the current sweep complete");
    match checkpoint::active() {
        Some(ckpt) => eprintln!(
            "drain: checkpoint flushed to {}; re-run the same command with --resume to continue",
            ckpt.path().display()
        ),
        None => eprintln!(
            "drain: no checkpoint was armed; re-run with --resume to make sweeps resumable"
        ),
    }
    std::process::exit(sipt_signal::EXIT_DRAINED);
}

// ---------------------------------------------------------------------------
// The supervisor proper (the parent side)
// ---------------------------------------------------------------------------

/// The part of a sweep the supervisor runs: its pending slots.
pub(crate) struct SweepWork<'a> {
    /// `(sweep-local slot, request)` of every slot still to run.
    pub pending: &'a [(usize, RunRequest)],
    /// Prep-group key of each pending slot
    /// ([`crate::prep_cache::fingerprint`]).
    pub keys: &'a [u64],
    /// Sweep sequence number: the workers' replay target.
    pub sweep_seq: usize,
    /// Requests in the whole sweep, checked against each worker's hello.
    pub requests: usize,
    /// Process-global task id of the sweep's slot 0.
    pub base_id: usize,
    /// Checkpoint that merged results are appended to.
    pub ckpt: Option<&'a CheckpointHandle>,
}

/// One of the `jobs` worker slots.
struct WorkerSlot {
    /// The slot's current process, if one is up.
    live: Option<Live>,
    /// The prep group this slot owns in the claim queue.
    own: Option<usize>,
    /// Deaths with nothing in flight charged to this slot.
    deaths: u32,
    /// Earliest next spawn (backoff).
    ready_at: Instant,
    /// Over budget: never spawns again.
    retired: bool,
}

/// A live worker process.
struct Live {
    /// Distinguishes this process's events from an earlier one's.
    uid: u64,
    child: Child,
    /// `None` once closed: the worker then finishes and exits.
    stdin: Option<ChildStdin>,
    reader: Option<std::thread::JoinHandle<()>>,
    spawned_at: Instant,
    hello_seen: bool,
    /// `(pending index, sent at)` of the task in flight.
    inflight: Option<(usize, Instant)>,
    /// Killed by the scoped watchdog for its in-flight task.
    watchdog_victim: bool,
    /// Protocol-corruption description, if any.
    poisoned: Option<String>,
}

enum Event {
    Line(Parsed),
    Eof,
}

/// Resolved `(slot, result)` pairs in submission order. Under a drain,
/// unexecuted slots are simply absent.
type Outcomes = Vec<(usize, Result<RunMetrics, TaskFailure>)>;

/// The supervisor's state over one sweep.
struct Fleet<'a> {
    work: &'a SweepWork<'a>,
    queue: GroupQueue,
    /// Tasks the queue has not handed out yet.
    unclaimed: usize,
    /// Tasks whose worker died, each claimable again from its instant.
    retry: Vec<(usize, Instant)>,
    /// Worker deaths charged to each pending task.
    task_deaths: Vec<u32>,
    results: Vec<Option<Result<RunMetrics, TaskFailure>>>,
    assigned: Vec<usize>,
    busy_ms: Vec<f64>,
    slots: Vec<WorkerSlot>,
    /// The last death that retired a worker slot.
    last_retirement: String,
    draining: bool,
}

impl<'a> Fleet<'a> {
    fn new(work: &'a SweepWork<'a>, jobs: usize) -> Self {
        let n = work.pending.len();
        Self {
            work,
            queue: GroupQueue::new(work.keys.iter().copied()),
            unclaimed: n,
            retry: Vec::new(),
            task_deaths: vec![0; n],
            results: (0..n).map(|_| None).collect(),
            assigned: vec![0; n],
            busy_ms: vec![0.0; jobs],
            slots: (0..jobs)
                .map(|_| WorkerSlot {
                    live: None,
                    own: None,
                    deaths: 0,
                    ready_at: Instant::now(),
                    retired: false,
                })
                .collect(),
            last_retirement: String::new(),
            draining: false,
        }
    }

    /// Whether any task still waits for a worker.
    fn work_left(&self) -> bool {
        self.unclaimed > 0 || !self.retry.is_empty()
    }

    fn task_id(&self, p: usize) -> usize {
        self.work.base_id + self.work.pending[p].0
    }

    fn label(&self, p: usize) -> &str {
        &self.work.pending[p].1.label
    }

    /// Worker `w`'s next task: a re-queued task whose backoff has lapsed,
    /// else the pool's claim for the group `w` owns.
    fn next_task(&mut self, w: usize) -> Option<usize> {
        let now = Instant::now();
        if let Some(i) = self.retry.iter().position(|&(_, ready)| ready <= now) {
            return Some(self.retry.remove(i).0);
        }
        let p = self.queue.claim(&mut self.slots[w].own)?;
        self.unclaimed -= 1;
        Some(p)
    }

    /// Start a worker process in slot `w`; a failed spawn is a death
    /// charged to the slot.
    fn spawn(
        &mut self,
        w: usize,
        exe: &std::path::Path,
        tx: &mpsc::Sender<(usize, u64, Event)>,
        uid: u64,
    ) {
        let mut cmd = Command::new(exe);
        cmd.args(std::env::args().skip(1))
            .arg("--worker-shard")
            .env(ENV_SWEEP, self.work.sweep_seq.to_string())
            .env(ENV_BASE, self.work.base_id.to_string())
            .env(ENV_SLOT, w.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = match cmd.spawn() {
            Ok(child) => child,
            Err(e) => return self.charge_slot(w, format!("spawn failed: {e}")),
        };
        with_stats(|s| s.workers_spawned += 1);
        let stdout = child.stdout.take().expect("stdout was piped");
        let tx = tx.clone();
        let reader = std::thread::spawn(move || {
            span::set_virtual_tid(64 + w as u32, &format!("process worker {w}"));
            let _span = Span::enter_with(
                format!("worker {w}"),
                "supervisor.worker",
                vec![("uid", Json::u64(uid))],
            );
            for line in std::io::BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                let parsed = wire::parse_line(&line);
                if !matches!(parsed, Parsed::Noise)
                    && tx.send((w, uid, Event::Line(parsed))).is_err()
                {
                    break;
                }
            }
            let _ = tx.send((w, uid, Event::Eof));
        });
        self.slots[w].live = Some(Live {
            uid,
            stdin: child.stdin.take(),
            child,
            reader: Some(reader),
            spawned_at: Instant::now(),
            hello_seen: false,
            inflight: None,
            watchdog_victim: false,
            poisoned: None,
        });
    }

    /// Kill worker `w` for protocol corruption; its death is charged when
    /// its stream closes.
    fn poison(&mut self, w: usize, reason: String) {
        if let Some(live) = self.slots[w].live.as_mut() {
            live.poisoned.get_or_insert(reason);
            let _ = live.child.kill();
        }
    }

    /// The pending index of `slot` if it is worker `w`'s task in flight.
    fn inflight_slot(&self, w: usize, slot: usize) -> Option<usize> {
        let (p, _) = self.slots[w].live.as_ref()?.inflight?;
        (self.work.pending[p].0 == slot).then_some(p)
    }

    /// Record worker `w`'s result for its in-flight task `p`.
    fn resolve(&mut self, w: usize, p: usize, result: Result<RunMetrics, TaskFailure>) {
        if let Some((_, sent)) = self.slots[w].live.as_mut().and_then(|l| l.inflight.take()) {
            self.busy_ms[w] += sent.elapsed().as_secs_f64() * 1e3;
        }
        self.assigned[p] = w;
        self.results[p] = Some(result);
    }

    /// Handle one event of worker `w`'s process `uid`.
    fn handle(&mut self, w: usize, uid: u64, event: Event) {
        if self.slots[w].live.as_ref().is_none_or(|live| live.uid != uid) {
            return;
        }
        let msg = match event {
            Event::Eof => return self.finalize(w),
            Event::Line(Parsed::Noise) => return,
            Event::Line(Parsed::Malformed(line)) => {
                with_stats(|s| s.protocol_errors += 1);
                return self.poison(w, format!("malformed protocol line: {line}"));
            }
            Event::Line(Parsed::Msg(msg)) => msg,
        };
        match msg {
            WorkerMsg::Hello { sweep_seq, requests } => {
                if sweep_seq == self.work.sweep_seq && requests == self.work.requests {
                    if let Some(live) = self.slots[w].live.as_mut() {
                        live.hello_seen = true;
                    }
                } else {
                    self.poison(
                        w,
                        format!(
                            "hello for sweep {sweep_seq} of {requests} request(s), expected \
                             sweep {} of {}",
                            self.work.sweep_seq, self.work.requests
                        ),
                    );
                }
            }
            WorkerMsg::PrepCache { hits, misses, fragment_builds, shared_traces } => {
                crate::prep_cache::add_counts(hits, misses, fragment_builds, shared_traces)
            }
            WorkerMsg::Done { slot, fingerprint, metrics } => {
                let Some(p) = self.inflight_slot(w, slot) else {
                    return self.poison(w, format!("done for slot {slot}, which is not in flight"));
                };
                let expected = self.work.pending[p].1.fingerprint();
                if fingerprint != expected {
                    with_stats(|s| s.fingerprint_mismatches += 1);
                    return self.poison(
                        w,
                        format!(
                            "slot {slot} fingerprint mismatch: worker {fingerprint:016x}, \
                             supervisor {expected:016x}"
                        ),
                    );
                }
                let Some(decoded) = checkpoint::decode_metrics(&metrics) else {
                    with_stats(|s| s.protocol_errors += 1);
                    return self.poison(w, format!("slot {slot} metrics payload undecodable"));
                };
                if let Some(ckpt) = self.work.ckpt {
                    ckpt.append(
                        &checkpoint::task_key(self.work.sweep_seq, slot),
                        fingerprint,
                        &decoded,
                    );
                }
                // Fold the worker's simulated work into this process's
                // totals, exactly as an in-process run would have: the
                // bench MIPS accounting must not see process isolation.
                crate::metrics::record_simulation(
                    decoded.core.instructions,
                    decoded.phases.measure_ms / 1e3,
                );
                with_stats(|s| s.results_merged += 1);
                self.resolve(w, p, Ok(decoded));
            }
            WorkerMsg::Fail { slot, attempts, elapsed_ms, message } => {
                let Some(p) = self.inflight_slot(w, slot) else {
                    return self.poison(w, format!("fail for slot {slot}, which is not in flight"));
                };
                let failure = TaskFailure {
                    task: self.task_id(p),
                    label: self.label(p).to_owned(),
                    worker: w,
                    panic_msg: message,
                    elapsed_ms,
                    attempts,
                };
                self.resolve(w, p, Err(failure));
            }
        }
    }

    /// Hand every idle worker its next task, or close its stdin when no
    /// task is left for anyone.
    fn dispatch(&mut self) {
        for w in 0..self.slots.len() {
            let Some(live) = self.slots[w].live.as_ref() else { continue };
            if live.inflight.is_some() || live.stdin.is_none() {
                continue;
            }
            if !self.work_left() {
                self.slots[w].live.as_mut().expect("checked above").stdin = None;
                continue;
            }
            if !live.hello_seen {
                continue;
            }
            let Some(p) = self.next_task(w) else { continue };
            let run = wire::Run { slot: self.work.pending[p].0, prior_deaths: self.task_deaths[p] };
            let live = self.slots[w].live.as_mut().expect("checked above");
            let stdin = live.stdin.as_mut().expect("checked above");
            if writeln!(stdin, "{}", run.encode()).and_then(|()| stdin.flush()).is_ok() {
                live.inflight = Some((p, Instant::now()));
            } else {
                // The worker is already gone; its death is the slot's.
                live.stdin = None;
                self.retry.push((p, Instant::now()));
            }
        }
    }

    /// Worker `w`'s stream closed: wait for the process, and decide
    /// between a clean exit, a watchdog victim, and a death charged to
    /// the task in flight or to the worker slot.
    fn finalize(&mut self, w: usize) {
        let Some(mut live) = self.slots[w].live.take() else { return };
        let status = live.child.wait().ok();
        if let Some(reader) = live.reader.take() {
            let _ = reader.join();
        }
        let cause = || live.poisoned.clone().unwrap_or_else(|| describe_exit(status));
        let Some((p, sent)) = live.inflight else {
            // A watchdog victim whose result beat the kill is no death.
            let clean = live.watchdog_victim
                || (live.stdin.is_none()
                    && live.poisoned.is_none()
                    && status.is_some_and(|s| s.success()));
            if !clean && !self.draining {
                self.charge_slot(w, cause());
            }
            return;
        };
        if live.watchdog_victim {
            // A deliberate kill fails only the in-flight task; the slot
            // respawns without charging any budget.
            let timeout = resilience::task_timeout_ms().unwrap_or(0);
            self.assigned[p] = w;
            self.results[p] = Some(Err(TaskFailure {
                task: self.task_id(p),
                label: self.label(p).to_owned(),
                worker: w,
                panic_msg: format!(
                    "watchdog killed the worker: task exceeded --task-timeout ({timeout} ms) \
                     with SIPT_WATCHDOG_KILL=1"
                ),
                elapsed_ms: sent.elapsed().as_secs_f64() * 1e3,
                attempts: 1,
            }));
        } else if !self.draining {
            // Under a drain the slot stays unexecuted, for --resume.
            self.charge_task(p, w, cause());
        }
    }

    /// A worker died running task `p`: re-queue the task after its
    /// backoff, or quarantine it once it is over budget. The worker slot
    /// respawns either way.
    fn charge_task(&mut self, p: usize, w: usize, cause: String) {
        with_stats(|s| s.worker_deaths += 1);
        let id = self.task_id(p);
        span::instant_with(
            format!("worker {w} died"),
            "supervisor",
            vec![("status", Json::str(&cause)), ("task", Json::u64(id as u64))],
        );
        self.task_deaths[p] += 1;
        let deaths = self.task_deaths[p];
        if deaths > respawn_budget() {
            eprintln!(
                "supervisor: quarantining task {id} ({}): respawn budget ({}) exhausted \
                 (last death: {cause})",
                self.label(p),
                respawn_budget()
            );
            let message =
                format!("quarantined task: its worker died {deaths} time(s), last: {cause}");
            return self.quarantine(p, w, message);
        }
        let backoff = backoff_ms(respawn_backoff_ms(), deaths);
        with_stats(|s| s.respawns += 1);
        eprintln!(
            "supervisor: worker {w} died ({cause}) running task {id} ({}); respawn {deaths}/{} \
             retries the task in {backoff} ms",
            self.label(p),
            respawn_budget()
        );
        span::instant_with(
            format!("respawn task {id}"),
            "supervisor",
            vec![("respawn", Json::u64(u64::from(deaths))), ("backoff_ms", Json::u64(backoff))],
        );
        self.retry.push((p, Instant::now() + Duration::from_millis(backoff)));
    }

    /// A worker died with nothing in flight: respawn slot `w` after its
    /// backoff, or retire it once it is over budget.
    fn charge_slot(&mut self, w: usize, cause: String) {
        with_stats(|s| s.worker_deaths += 1);
        span::instant_with(
            format!("worker {w} died"),
            "supervisor",
            vec![("status", Json::str(&cause))],
        );
        let slot = &mut self.slots[w];
        slot.deaths += 1;
        if slot.deaths > respawn_budget() {
            slot.retired = true;
            eprintln!(
                "supervisor: retiring worker slot {w}: respawn budget ({}) exhausted \
                 (last death: {cause})",
                respawn_budget()
            );
            self.last_retirement = cause;
            return;
        }
        let backoff = backoff_ms(respawn_backoff_ms(), slot.deaths);
        slot.ready_at = Instant::now() + Duration::from_millis(backoff);
        with_stats(|s| s.respawns += 1);
        eprintln!(
            "supervisor: worker {w} died ({cause}) with no task in flight; respawn {}/{} in \
             {backoff} ms",
            slot.deaths,
            respawn_budget()
        );
    }

    /// Fail task `p` permanently.
    fn quarantine(&mut self, p: usize, w: usize, message: String) {
        with_stats(|s| s.quarantined_tasks += 1);
        let id = self.task_id(p);
        span::instant_with(format!("quarantine task {id}"), "supervisor", Vec::new());
        self.assigned[p] = w;
        self.results[p] = Some(Err(TaskFailure {
            task: id,
            label: self.label(p).to_owned(),
            worker: w,
            panic_msg: message,
            elapsed_ms: 0.0,
            attempts: self.task_deaths[p].max(1),
        }));
    }

    /// Every worker slot has retired: quarantine every unfinished task.
    fn quarantine_unresolved(&mut self) {
        let message = format!(
            "quarantined task: every worker slot exhausted its respawn budget (last death: {})",
            self.last_retirement
        );
        for p in 0..self.results.len() {
            if self.results[p].is_none() {
                self.quarantine(p, 0, message.clone());
            }
        }
    }

    /// Scoped watchdog: flag overrunning tasks; with `SIPT_WATCHDOG_KILL=1`
    /// kill only the offending worker (never the whole run).
    fn watchdog(&mut self, flagged: &mut std::collections::HashSet<usize>) {
        let Some(timeout_ms) = resilience::task_timeout_ms() else { return };
        let base_id = self.work.base_id;
        for (w, slot) in self.slots.iter_mut().enumerate() {
            let Some(live) = slot.live.as_mut() else { continue };
            let Some((p, sent)) = live.inflight else { continue };
            let task = base_id + self.work.pending[p].0;
            let elapsed_ms = sent.elapsed().as_secs_f64() * 1e3;
            if elapsed_ms <= timeout_ms as f64 || !flagged.insert(task) {
                continue;
            }
            resilience::record_watchdog_flag(WatchdogFlag { task, elapsed_ms, timeout_ms });
            if resilience::watchdog_kill() {
                eprintln!(
                    "watchdog: SIPT_WATCHDOG_KILL=1 — killing worker {w} \
                     (task {task} only; the sweep continues)"
                );
                live.watchdog_victim = true;
                with_stats(|s| s.watchdog_kills += 1);
                span::instant_with(
                    format!("watchdog kill worker {w}"),
                    "supervisor",
                    vec![("task", Json::u64(task as u64))],
                );
                let _ = live.child.kill();
            }
        }
    }
}

/// Execute the pending slots of a sweep under process isolation.
///
/// # Errors
///
/// [`SimError::Supervisor`] when the supervisor cannot start at all
/// (e.g. the current executable path is unresolvable); the caller then
/// falls back to thread isolation with a warning.
pub(crate) fn supervise(
    work: &SweepWork<'_>,
    jobs: usize,
) -> Result<(Outcomes, ParallelismProfile), SimError> {
    let exe = std::env::current_exe()
        .map_err(|e| SimError::supervisor(format!("cannot resolve current executable: {e}")))?;
    let jobs = jobs.max(1).min(work.pending.len().max(1));
    let mut fleet = Fleet::new(work, jobs);
    with_stats(|s| s.sweeps += 1);
    let mut sup_span = Span::enter_with(
        format!("supervise sweep {}", work.sweep_seq),
        "supervisor",
        vec![("jobs", Json::u64(jobs as u64)), ("tasks", Json::u64(work.pending.len() as u64))],
    );

    let wall = Instant::now();
    let spawn_timeout = Duration::from_millis(spawn_timeout_ms());
    let (tx, rx) = mpsc::channel::<(usize, u64, Event)>();
    let mut next_uid: u64 = 0;
    let mut flagged = std::collections::HashSet::new();
    let mut drain_deadline: Option<Instant> = None;

    loop {
        if sipt_signal::drain_requested() && !fleet.draining {
            fleet.draining = true;
            drain_deadline = Some(Instant::now() + Duration::from_secs(10));
            let live = fleet.slots.iter().filter(|s| s.live.is_some()).count();
            eprintln!("drain: signal received — asking {live} worker(s) to finish in-flight tasks");
            for live in fleet.slots.iter_mut().filter_map(|s| s.live.as_mut()) {
                live.stdin = None;
            }
        }

        // (Re)spawn idle worker slots while tasks wait for a worker.
        if !fleet.draining && fleet.work_left() {
            for w in 0..jobs {
                let slot = &fleet.slots[w];
                if slot.live.is_none() && !slot.retired && slot.ready_at <= Instant::now() {
                    fleet.spawn(w, &exe, &tx, next_uid);
                    next_uid += 1;
                }
            }
        }

        // Pump worker events (block briefly so the loop is responsive
        // without spinning).
        if let Ok(first) = rx.recv_timeout(Duration::from_millis(5)) {
            let mut pump = Some(first);
            while let Some((w, uid, event)) = pump.take() {
                fleet.handle(w, uid, event);
                pump = rx.try_recv().ok();
            }
        }
        if !fleet.draining {
            fleet.dispatch();
        }
        fleet.watchdog(&mut flagged);

        // Spawn liveness: a worker that never says hello is wedged.
        for w in 0..jobs {
            let wedged = fleet.slots[w].live.as_ref().is_some_and(|live| {
                !live.hello_seen
                    && live.poisoned.is_none()
                    && live.spawned_at.elapsed() > spawn_timeout
            });
            if wedged {
                fleet.poison(
                    w,
                    format!("no hello within {} ms of spawn", spawn_timeout.as_millis()),
                );
            }
        }

        // Drain stragglers: a worker still running when the grace period
        // lapses is killed (its finished results are already merged and
        // checkpointed).
        if drain_deadline.is_some_and(|deadline| Instant::now() > deadline) {
            for live in fleet.slots.iter_mut().filter_map(|s| s.live.as_mut()) {
                let _ = live.child.kill();
            }
        }

        if fleet.slots.iter().all(|s| s.retired) {
            fleet.quarantine_unresolved();
            break;
        }
        let resolved = fleet.results.iter().all(Option::is_some);
        if fleet.slots.iter().all(|s| s.live.is_none()) && (resolved || fleet.draining) {
            break;
        }
    }

    with_stats(|s| s.drained |= fleet.draining);
    let profile = ParallelismProfile {
        jobs,
        tasks: work.pending.len(),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        worker_busy_ms: fleet.busy_ms,
        assigned_worker: fleet.assigned,
    };
    record_profile(&profile);
    let outcomes: Outcomes = work
        .pending
        .iter()
        .zip(fleet.results)
        .filter_map(|((slot, _), result)| Some((*slot, result?)))
        .collect();
    sup_span.arg("merged", Json::u64(outcomes.len() as u64));
    Ok((outcomes, profile))
}

/// Describe a child's exit status for death/quarantine messages.
fn describe_exit(status: Option<std::process::ExitStatus>) -> String {
    let Some(status) = status else {
        return String::from("exit status unavailable");
    };
    if let Some(code) = status.code() {
        return format!("exited with code {code}");
    }
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt;
        if let Some(sig) = status.signal() {
            let name = match sig {
                6 => " (SIGABRT)",
                9 => " (SIGKILL)",
                11 => " (SIGSEGV)",
                _ => "",
            };
            return format!("killed by signal {sig}{name}");
        }
    }
    format!("{status}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SystemKind;
    use crate::runner::Condition;

    #[test]
    fn isolation_parses_and_names() {
        assert_eq!(Isolation::parse("thread"), Some(Isolation::Thread));
        assert_eq!(Isolation::parse(" process "), Some(Isolation::Process));
        assert_eq!(Isolation::parse("fork"), None);
        assert_eq!(Isolation::Thread.name(), "thread");
        assert_eq!(Isolation::Process.name(), "process");
    }

    #[test]
    fn isolation_override_wins() {
        // Not worker mode in tests, so the override is honored.
        set_isolation(Isolation::Process);
        assert_eq!(isolation(), Isolation::Process);
        set_isolation(Isolation::Thread);
        assert_eq!(isolation(), Isolation::Thread);
        ISOLATION_OVERRIDE.store(0, Ordering::Relaxed);
    }

    #[test]
    fn exit_descriptions_are_informative() {
        assert_eq!(describe_exit(None), "exit status unavailable");
    }

    #[test]
    fn supervisor_block_absent_until_used() {
        // Other tests in this binary may have primed it; only assert the
        // shape when present.
        if let Some(json) = supervisor_json() {
            for key in ["isolation", "workers_spawned", "respawns", "quarantined_tasks", "drained"]
            {
                assert!(json.get(key).is_some(), "missing {key}");
            }
        }
    }

    /// Pending slots 3, 4 and 5 of a sweep at base id 100: two runs of
    /// one prep group (sjeng) and one of another (mcf).
    fn pending() -> Vec<(usize, RunRequest)> {
        let request = |name: &str| RunRequest {
            spec: sipt_workloads::benchmark(name).expect("preset"),
            l1: sipt_core::baseline_32k_8w_vipt(),
            system: SystemKind::OooThreeLevel,
            cond: Condition::quick(),
            label: name.to_owned(),
        };
        vec![(3, request("sjeng")), (4, request("sjeng")), (5, request("mcf"))]
    }

    fn work<'a>(pending: &'a [(usize, RunRequest)], keys: &'a [u64]) -> SweepWork<'a> {
        SweepWork { pending, keys, sweep_seq: 0, requests: 6, base_id: 100, ckpt: None }
    }

    #[test]
    fn quarantine_records_every_remaining_slot() {
        let pending = pending();
        let work = work(&pending, &[1, 1, 2]);
        let mut fleet = Fleet::new(&work, 2);
        fleet.results[0] = Some(Ok(RunMetrics::failed_placeholder("sjeng")));
        for w in 0..2 {
            for _ in 0..=respawn_budget() {
                assert!(!fleet.slots[w].retired, "slot {w} retires only over budget");
                fleet.charge_slot(w, "killed by signal 6 (SIGABRT)".into());
            }
            assert!(fleet.slots[w].retired);
        }
        fleet.quarantine_unresolved();
        assert!(fleet.results[0].as_ref().unwrap().is_ok(), "finished work survives");
        let f4 = fleet.results[1].as_ref().unwrap().as_ref().unwrap_err();
        assert_eq!((f4.task, f4.label.as_str()), (104, "sjeng"));
        assert!(f4.panic_msg.contains("quarantined task"));
        assert!(f4.panic_msg.contains("SIGABRT"));
        let f5 = fleet.results[2].as_ref().unwrap().as_ref().unwrap_err();
        assert_eq!((f5.task, f5.label.as_str()), (105, "mcf"));
    }

    #[test]
    fn respawn_backoff_doubles() {
        assert_eq!(backoff_ms(25, 1), 25);
        assert_eq!(backoff_ms(25, 2), 50);
        assert_eq!(backoff_ms(25, 3), 100);
        // Doubling stops at the ceiling: a 1 s base waits 60 s, not
        // 1000 << 16 ms, on its 17th respawn.
        assert_eq!(backoff_ms(1000, 6), 32_000);
        assert_eq!(backoff_ms(1000, 7), MAX_BACKOFF_MS);
        assert_eq!(backoff_ms(1000, 17), MAX_BACKOFF_MS);
        assert_eq!(backoff_ms(MAX_BACKOFF_MS, 64), MAX_BACKOFF_MS);

        // Deaths charged to one task re-queue it with a growing backoff
        // and quarantine it, alone, once over budget.
        let pending = pending();
        let work = work(&pending, &[1, 1, 2]);
        let mut fleet = Fleet::new(&work, 1);
        let mut last_ready = Instant::now();
        for death in 1..=respawn_budget() {
            fleet.charge_task(1, 0, "exited with code 134".into());
            let (p, ready) = fleet.retry.pop().expect("re-queued");
            assert_eq!((p, fleet.task_deaths[1]), (1, death));
            assert!(ready >= last_ready, "backoff grows");
            last_ready = ready;
        }
        assert!(fleet.results.iter().all(Option::is_none), "respawns resolve nothing");
        fleet.charge_task(1, 0, "exited with code 134".into());
        assert!(fleet.retry.is_empty());
        let failure = fleet.results[1].as_ref().unwrap().as_ref().unwrap_err();
        assert_eq!((failure.task, failure.attempts), (104, respawn_budget() + 1));
        assert!(fleet.results[0].is_none() && fleet.results[2].is_none(), "group-mates live on");
    }

    #[test]
    fn workers_claim_groups_and_retries_go_first_once_due() {
        let pending = pending();
        let work = work(&pending, &[1, 1, 2]);
        let mut fleet = Fleet::new(&work, 2);
        assert_eq!(fleet.next_task(0), Some(0), "worker 0 claims group 1");
        assert_eq!(fleet.next_task(1), Some(2), "worker 1 claims group 2");
        fleet.retry.push((2, Instant::now() + Duration::from_secs(3600)));
        fleet.retry.push((0, Instant::now()));
        assert!(fleet.work_left());
        assert_eq!(fleet.next_task(1), Some(0), "a due retry comes before claims");
        assert_eq!(fleet.next_task(1), Some(1), "worker 1 steals the rest of group 1");
        assert_eq!(fleet.next_task(0), None, "the pending retry is not due yet");
        assert!(fleet.work_left());
    }
}
