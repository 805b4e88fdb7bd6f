//! The process-sharded sweep supervisor: crash-proof workers, backoff
//! respawn, quarantine, and graceful drain.
//!
//! PR 3's `catch_unwind` isolation contains *panics*, but an `abort()`,
//! a segfault, or the OOM killer takes the whole process — and with it
//! every completed-but-unreported task. With `--isolation process` (or
//! `SIPT_ISOLATION=process`) a [`crate::Sweep`] no longer runs its tasks
//! in-process: the pending slots are partitioned into **shards** keyed by
//! the checkpoint fingerprints, and for each shard the supervisor
//! re-execs the *current binary* in worker mode, supervising the fleet
//! over a pipe-based protocol ([`crate::wire`]).
//!
//! Workers are deterministic replays, not serialized closures: a worker
//! re-runs the binary's `main`, skips every sweep before its target
//! (inert placeholders), executes exactly its assigned slots of the
//! target sweep, streams each result as bit-exact checkpoint-codec bytes,
//! and exits. Because every run is a pure function of its
//! [`crate::RunRequest`], the merged results are byte-identical to
//! in-process execution — the kernel-bit-identity fingerprints hold
//! across `--isolation thread|process` at any job count.
//!
//! Fault containment policy:
//!
//! - a dead worker (abort, signal, OOM-kill, nonzero exit) is respawned
//!   on its shard's unfinished slots with exponential backoff, up to
//!   `SIPT_RESPAWN_BUDGET` respawns per shard;
//! - a shard that exhausts the budget is **quarantined**: its unfinished
//!   slots become permanent [`TaskFailure`]s (placeholder metrics,
//!   failure table, exit 1) instead of being retried forever;
//! - `SIPT_WATCHDOG_KILL=1` kills only the offending *worker* (the
//!   in-flight task is failed, the rest of the shard respawns without
//!   charging the budget) — exit 124 remains the documented thread-mode
//!   fallback;
//! - protocol corruption (malformed sentinel lines, fingerprint
//!   mismatches, undecodable payloads) poisons the worker and
//!   quarantines its shard immediately;
//! - SIGTERM/SIGINT drain the fleet gracefully: no new shard launches,
//!   each worker finishes its in-flight task and exits, merged partial
//!   results are already in the checkpoint, and the run exits
//!   [`sipt_signal::EXIT_DRAINED`] with resume instructions.
//!
//! Everything the supervisor observed lands in the schema-v6
//! `resilience.supervisor` report block ([`supervisor_json`]).

use crate::checkpoint::{self, CheckpointHandle};
use crate::error::SimError;
use crate::metrics::RunMetrics;
use crate::resilience::{self, TaskFailure, WatchdogFlag};
use crate::sweep::{execute_attempts, record_profile, ParallelismProfile, RunRequest};
use crate::wire::{self, Parsed, WorkerMsg};
use sipt_telemetry::json::Json;
use sipt_telemetry::{span, Span};
use std::collections::{HashMap, VecDeque};
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
    /// One supervised subprocess per shard. Contains everything short of
    /// the supervisor itself dying.
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
/// Comma-separated sweep-local slot indices assigned to this worker.
const ENV_SLOTS: &str = "SIPT_WORKER_SLOTS";
/// The parent's `base_id` for the target sweep, so fault-injection task
/// ids line up even if replay allocated ids differently.
const ENV_BASE: &str = "SIPT_WORKER_BASE";
/// Spawn attempt of this shard (0 = first spawn), offsetting the
/// fault-injection attempt counter so `:once` faults stay once-ever.
const ENV_ATTEMPT: &str = "SIPT_WORKER_ATTEMPT";
/// Display/profile worker slot (0-based, < jobs).
const ENV_SLOT: &str = "SIPT_WORKER_SLOT";

/// A worker's assignment, decoded from the environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkerShard {
    /// Sweep sequence number to execute.
    pub sweep_seq: usize,
    /// Sweep-local slots to run, in order.
    pub slots: Vec<usize>,
    /// Parent-side `base_id` of the target sweep.
    pub base_id: usize,
    /// Spawn attempt (0 = first spawn of this shard).
    pub attempt: u32,
    /// Worker slot for profile/failure attribution.
    pub worker_slot: usize,
}

fn parse_env<T: std::str::FromStr>(name: &str) -> Option<T> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Whether this process is a re-exec'd `--worker-shard` worker.
pub fn worker_mode() -> bool {
    static PARSED: OnceLock<bool> = OnceLock::new();
    *PARSED.get_or_init(|| std::env::var_os(ENV_SLOTS).is_some())
}

/// The worker assignment, parsed once. `None` outside worker mode; a
/// malformed assignment in worker mode is a protocol error (exit 3) —
/// there is no sensible fallback for a worker that cannot know its work.
pub(crate) fn worker_shard() -> Option<&'static WorkerShard> {
    static PARSED: OnceLock<Option<WorkerShard>> = OnceLock::new();
    PARSED
        .get_or_init(|| {
            if !worker_mode() {
                return None;
            }
            let decoded = (|| {
                let slots_raw = std::env::var(ENV_SLOTS).ok()?;
                let mut slots = Vec::new();
                for field in slots_raw.split(',').filter(|s| !s.trim().is_empty()) {
                    slots.push(field.trim().parse().ok()?);
                }
                if slots.is_empty() {
                    return None;
                }
                Some(WorkerShard {
                    sweep_seq: parse_env(ENV_SWEEP)?,
                    slots,
                    base_id: parse_env(ENV_BASE)?,
                    attempt: parse_env(ENV_ATTEMPT)?,
                    worker_slot: parse_env(ENV_SLOT)?,
                })
            })();
            match decoded {
                Some(shard) => Some(shard),
                None => {
                    eprintln!("worker: malformed shard assignment in environment; exiting");
                    std::process::exit(3);
                }
            }
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

/// Execute this worker's assigned shard of the target sweep and exit.
///
/// Runs each assigned slot through the same pipeline as the in-process
/// pool — simulate, stamp the worker id, injected bit flips, audit —
/// with the same retry budget, and streams every outcome to the
/// supervisor. Checkpoint appends happen on the *parent* side (the
/// worker's results travel in the identical byte codec), so a torn
/// worker never corrupts the checkpoint file.
pub(crate) fn run_worker_shard(
    requests: Vec<RunRequest>,
    shard: &WorkerShard,
    capacity: usize,
    sweep_seq: usize,
) -> ! {
    if sweep_seq != shard.sweep_seq {
        eprintln!(
            "worker: reached sweep {sweep_seq} while targeting sweep {} — \
             the replay diverged; exiting",
            shard.sweep_seq
        );
        std::process::exit(3);
    }
    resilience::install_quiet_panic_hook();
    // `:once` faults must be once per *task*, not once per spawn: offset
    // the attempt counter by the attempts already spent in prior spawns.
    resilience::set_attempt_offset(shard.attempt * (resilience::task_retries() + 1));
    emit(&WorkerMsg::Hello { sweep_seq, tasks: shard.slots.len() });

    // Liveness beacon, decoupled from task execution so a long simulation
    // never looks like a hang.
    std::thread::spawn(|| loop {
        std::thread::sleep(Duration::from_millis(200));
        emit(&WorkerMsg::Heartbeat);
    });
    // The supervisor's only downstream channel: a `drain` line on stdin
    // raises the same flag SIGTERM would.
    std::thread::spawn(|| {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim() == wire::DRAIN_COMMAND {
                sipt_signal::request_drain();
            }
        }
    });

    // The shard's own preparation-cache counts, reported when it ends.
    let prep_start = crate::prep_cache::stats();
    let emit_prep_counts = || {
        let now = crate::prep_cache::stats();
        emit(&WorkerMsg::PrepCache {
            hits: now.hits.saturating_sub(prep_start.hits),
            misses: now.misses.saturating_sub(prep_start.misses),
            fragment_builds: now.fragment_builds.saturating_sub(prep_start.fragment_builds),
            shared_traces: now.shared_traces.saturating_sub(prep_start.shared_traces),
        });
    };
    let attempts = resilience::task_retries() + 1;
    for (completed, &slot) in shard.slots.iter().enumerate() {
        if sipt_signal::drain_requested() {
            emit_prep_counts();
            emit(&WorkerMsg::Drained { completed });
            std::process::exit(0);
        }
        let Some(req) = requests.get(slot) else {
            eprintln!("worker: assigned slot {slot} beyond sweep of {}; exiting", requests.len());
            std::process::exit(3);
        };
        let id = shard.base_id + slot;
        emit(&WorkerMsg::Start { slot });
        let fingerprint = req.fingerprint();
        let worker_slot = shard.worker_slot;
        let mut task = |worker: usize| -> Result<RunMetrics, TaskFailure> {
            let t0 = Instant::now();
            let mut metrics = match crate::runner::try_run_spec_with_trace_capacity(
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
                        label: req.label.clone(),
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
            Ok(metrics)
        };
        let (outcome, _busy) = execute_attempts(id, &req.label, worker_slot, attempts, &mut task);
        match outcome.and_then(|typed| typed) {
            Ok(metrics) => {
                emit(&WorkerMsg::Done {
                    slot,
                    fingerprint,
                    metrics: checkpoint::encode_metrics(&metrics),
                });
            }
            Err(failure) => {
                emit(&WorkerMsg::Fail {
                    slot,
                    attempts: failure.attempts,
                    elapsed_ms: failure.elapsed_ms,
                    message: failure.panic_msg,
                });
            }
        }
    }
    emit_prep_counts();
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
    shards: u64,
    workers_spawned: u64,
    respawns: u64,
    worker_deaths: u64,
    quarantined_shards: u64,
    quarantined_tasks: u64,
    watchdog_kills: u64,
    heartbeats: u64,
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
        ("shards", Json::u64(s.shards)),
        ("workers_spawned", Json::u64(s.workers_spawned)),
        ("respawns", Json::u64(s.respawns)),
        ("worker_deaths", Json::u64(s.worker_deaths)),
        ("quarantined_shards", Json::u64(s.quarantined_shards)),
        ("quarantined_tasks", Json::u64(s.quarantined_tasks)),
        ("watchdog_kills", Json::u64(s.watchdog_kills)),
        ("heartbeats", Json::u64(s.heartbeats)),
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

/// Maximum respawns per shard before quarantine (`SIPT_RESPAWN_BUDGET`,
/// default 2).
pub fn respawn_budget() -> u32 {
    static PARSED: OnceLock<u64> = OnceLock::new();
    *PARSED.get_or_init(|| crate::env::parse_or_warn_default("SIPT_RESPAWN_BUDGET", 2).min(64))
        as u32
}

/// Base backoff before a respawn, doubling per respawn of the same shard
/// (`SIPT_RESPAWN_BACKOFF_MS`, default 25).
pub fn respawn_backoff_ms() -> u64 {
    static PARSED: OnceLock<u64> = OnceLock::new();
    *PARSED.get_or_init(|| {
        crate::env::parse_or_warn_default("SIPT_RESPAWN_BACKOFF_MS", 25).min(60_000)
    })
}

/// Shard size override (`SIPT_SHARD_SIZE`); default is one shard per
/// worker (`ceil(pending / jobs)`), so a clean fleet spawns exactly
/// `jobs` processes.
fn shard_size_for(pending: usize, jobs: usize) -> usize {
    static PARSED: OnceLock<Option<u64>> = OnceLock::new();
    let explicit = *PARSED.get_or_init(|| {
        crate::env::parse_or_warn("SIPT_SHARD_SIZE").filter(|&n| {
            if n == 0 {
                eprintln!("warning: SIPT_SHARD_SIZE=0 is invalid (need >= 1); using the default");
            }
            n > 0
        })
    });
    match explicit {
        Some(n) => (n as usize).min(pending.max(1)),
        None => pending.div_ceil(jobs.max(1)).max(1),
    }
}

/// How long a fresh worker may stay silent (no hello, no heartbeat)
/// before it is presumed wedged (`SIPT_WORKER_SPAWN_TIMEOUT_MS`,
/// default 30 s).
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

/// One shard: a contiguous chunk of pending sweep slots, identified by
/// the FNV fingerprint of its requests' checkpoint fingerprints.
#[derive(Debug)]
struct Shard {
    index: usize,
    /// Unfinished slots, in submission order.
    remaining: Vec<usize>,
    /// Shard content fingerprint (diagnostics / span labels).
    fingerprint: u64,
    /// Respawns consumed so far.
    respawns: u32,
    /// Total spawns (for the worker's attempt offset).
    spawns: u32,
    /// Earliest next launch (backoff).
    ready_at: Instant,
    /// Last death description (for quarantine messages).
    last_death: String,
}

/// A live worker process.
struct Active {
    shard_idx: usize,
    worker_slot: usize,
    child: Child,
    stdin: Option<ChildStdin>,
    reader: Option<std::thread::JoinHandle<()>>,
    spawned_at: Instant,
    last_heard: Instant,
    /// `(slot, started)` of the in-flight task.
    inflight: Option<(usize, Instant)>,
    hello_seen: bool,
    drain_sent: bool,
    eof_seen: bool,
    /// Slot deliberately killed by the scoped watchdog.
    watchdog_victim: Option<usize>,
    /// Protocol-corruption description, if any.
    poisoned: Option<String>,
}

enum Event {
    Line(Parsed),
    Eof,
}

/// Outcomes of one sharded execution: resolved `(slot, result)` pairs in
/// submission order. Under a drain, unexecuted slots are simply absent.
type ShardedOutcomes = Vec<(usize, Result<RunMetrics, TaskFailure>)>;

/// Execute the pending slots of a sweep under process isolation.
///
/// # Errors
///
/// [`SimError::Supervisor`] when the supervisor cannot start at all
/// (e.g. the current executable path is unresolvable); the caller then
/// falls back to thread isolation with a warning.
pub(crate) fn run_sharded(
    pending: &[(usize, RunRequest)],
    sweep_seq: usize,
    base_id: usize,
    jobs: usize,
    ckpt: Option<&CheckpointHandle>,
) -> Result<(ShardedOutcomes, ParallelismProfile), SimError> {
    let exe = std::env::current_exe()
        .map_err(|e| SimError::supervisor(format!("cannot resolve current executable: {e}")))?;
    let jobs = jobs.max(1).min(pending.len().max(1));
    let shard_size = shard_size_for(pending.len(), jobs);
    let by_slot: HashMap<usize, (u64, &str)> = pending
        .iter()
        .map(|(slot, req)| (*slot, (req.fingerprint(), req.label.as_str())))
        .collect();
    let mut shards: Vec<Shard> = pending
        .chunks(shard_size)
        .enumerate()
        .map(|(index, chunk)| {
            let mut fp_bytes = Vec::with_capacity(chunk.len() * 8);
            for (_, req) in chunk {
                fp_bytes.extend_from_slice(&req.fingerprint().to_le_bytes());
            }
            Shard {
                index,
                remaining: chunk.iter().map(|(slot, _)| *slot).collect(),
                fingerprint: checkpoint::fnv1a64(&fp_bytes),
                respawns: 0,
                spawns: 0,
                ready_at: Instant::now(),
                last_death: String::new(),
            }
        })
        .collect();
    with_stats(|s| {
        s.sweeps += 1;
        s.shards += shards.len() as u64;
    });
    let mut sup_span = Span::enter_with(
        format!("supervise sweep {sweep_seq}"),
        "supervisor",
        vec![
            ("jobs", Json::u64(jobs as u64)),
            ("shards", Json::u64(shards.len() as u64)),
            ("tasks", Json::u64(pending.len() as u64)),
        ],
    );

    let wall = Instant::now();
    let (tx, rx) = mpsc::channel::<(u64, Event)>();
    let mut queue: VecDeque<usize> = (0..shards.len()).collect();
    let mut active: HashMap<u64, Active> = HashMap::new();
    let mut free_slots: Vec<usize> = (0..jobs).rev().collect();
    let mut results: HashMap<usize, Result<RunMetrics, TaskFailure>> = HashMap::new();
    let mut busy_ms = vec![0.0f64; jobs];
    let mut assigned: HashMap<usize, usize> = HashMap::new();
    let mut flagged: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut next_uid: u64 = 0;
    let mut drain_seen = false;
    let mut drain_deadline: Option<Instant> = None;

    loop {
        let draining = sipt_signal::drain_requested();
        if draining && !drain_seen {
            drain_seen = true;
            drain_deadline = Some(Instant::now() + Duration::from_secs(10));
            eprintln!(
                "drain: signal received — asking {} worker(s) to finish in-flight tasks",
                active.len()
            );
            for worker in active.values_mut() {
                if let Some(stdin) = worker.stdin.as_mut() {
                    let _ = writeln!(stdin, "{}", wire::DRAIN_COMMAND);
                    let _ = stdin.flush();
                }
                worker.drain_sent = true;
            }
        }

        // Launch ready shards onto free worker slots.
        while !draining && !free_slots.is_empty() {
            let now = Instant::now();
            let Some(pos) = queue.iter().position(|&i| shards[i].ready_at <= now) else {
                break;
            };
            let shard_idx = queue.remove(pos).expect("position came from the queue");
            let worker_slot = free_slots.pop().expect("checked non-empty");
            let shard = &mut shards[shard_idx];
            let slots_csv =
                shard.remaining.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
            let mut cmd = Command::new(&exe);
            cmd.args(std::env::args().skip(1))
                .arg("--worker-shard")
                .env(ENV_SWEEP, sweep_seq.to_string())
                .env(ENV_SLOTS, &slots_csv)
                .env(ENV_BASE, base_id.to_string())
                .env(ENV_ATTEMPT, shard.spawns.to_string())
                .env(ENV_SLOT, worker_slot.to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            match cmd.spawn() {
                Ok(mut child) => {
                    shard.spawns += 1;
                    with_stats(|s| s.workers_spawned += 1);
                    let uid = next_uid;
                    next_uid += 1;
                    let stdout = child.stdout.take().expect("stdout was piped");
                    let stdin = child.stdin.take();
                    let tx = tx.clone();
                    let shard_fp = shard.fingerprint;
                    let spawn_no = shard.spawns;
                    let reader = std::thread::spawn(move || {
                        span::set_virtual_tid(
                            64 + worker_slot as u32,
                            &format!("shard worker {worker_slot}"),
                        );
                        let _span = Span::enter_with(
                            format!("worker {worker_slot} shard {shard_idx}"),
                            "supervisor.worker",
                            vec![
                                ("shard_fp", Json::str(format!("{shard_fp:016x}"))),
                                ("spawn", Json::u64(u64::from(spawn_no))),
                            ],
                        );
                        for line in std::io::BufReader::new(stdout).lines() {
                            let Ok(line) = line else { break };
                            let parsed = wire::parse_line(&line);
                            if !matches!(parsed, Parsed::Noise)
                                && tx.send((uid, Event::Line(parsed))).is_err()
                            {
                                break;
                            }
                        }
                        let _ = tx.send((uid, Event::Eof));
                    });
                    active.insert(
                        uid,
                        Active {
                            shard_idx,
                            worker_slot,
                            child,
                            stdin,
                            reader: Some(reader),
                            spawned_at: Instant::now(),
                            last_heard: Instant::now(),
                            inflight: None,
                            hello_seen: false,
                            drain_sent: false,
                            eof_seen: false,
                            watchdog_victim: None,
                            poisoned: None,
                        },
                    );
                }
                Err(e) => {
                    free_slots.push(worker_slot);
                    shard.last_death = format!("spawn failed: {e}");
                    with_stats(|s| s.worker_deaths += 1);
                    respawn_or_quarantine(shard, base_id, &by_slot, &mut results, &mut queue);
                }
            }
        }

        // Pump worker events (block briefly so the loop is responsive
        // without spinning).
        let mut reaped: Vec<u64> = Vec::new();
        match rx.recv_timeout(Duration::from_millis(5)) {
            Ok(first) => {
                let mut pump = Some(first);
                while let Some((uid, event)) = pump.take() {
                    handle_event(
                        uid,
                        event,
                        &mut active,
                        &mut shards,
                        &mut results,
                        &mut busy_ms,
                        &mut assigned,
                        &by_slot,
                        base_id,
                        sweep_seq,
                        ckpt,
                        &mut reaped,
                    );
                    pump = rx.try_recv().ok();
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }

        // Reap workers whose streams closed.
        for uid in reaped {
            if let Some(worker) = active.remove(&uid) {
                finalize_worker(
                    worker,
                    &mut shards,
                    &mut results,
                    &mut queue,
                    &mut free_slots,
                    &by_slot,
                    base_id,
                    drain_seen,
                );
            }
        }

        // Scoped watchdog: flag overrunning tasks; with SIPT_WATCHDOG_KILL=1
        // kill only the offending worker (never the whole run).
        if let Some(timeout_ms) = resilience::task_timeout_ms() {
            for worker in active.values_mut() {
                let Some((slot, started)) = worker.inflight else { continue };
                let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                if elapsed_ms > timeout_ms as f64 && flagged.insert(base_id + slot) {
                    resilience::record_watchdog_flag(WatchdogFlag {
                        task: base_id + slot,
                        elapsed_ms,
                        timeout_ms,
                    });
                    if resilience::watchdog_kill() {
                        eprintln!(
                            "watchdog: SIPT_WATCHDOG_KILL=1 — killing worker {} \
                             (task {} only; the sweep continues)",
                            worker.worker_slot,
                            base_id + slot
                        );
                        worker.watchdog_victim = Some(slot);
                        with_stats(|s| s.watchdog_kills += 1);
                        span::instant_with(
                            format!("watchdog kill worker {}", worker.worker_slot),
                            "supervisor",
                            vec![("task", Json::u64((base_id + slot) as u64))],
                        );
                        let _ = worker.child.kill();
                    }
                }
            }
        }

        // Spawn liveness: a worker that never says hello is wedged.
        let spawn_timeout = Duration::from_millis(spawn_timeout_ms());
        for worker in active.values_mut() {
            if !worker.hello_seen
                && worker.poisoned.is_none()
                && worker.spawned_at.elapsed() > spawn_timeout
            {
                worker.poisoned =
                    Some(format!("no hello within {} ms of spawn", spawn_timeout.as_millis()));
                let _ = worker.child.kill();
            }
        }

        // Drain stragglers: a worker that ignores the drain command gets
        // killed once the grace period lapses (its finished results are
        // already merged and checkpointed).
        if let Some(deadline) = drain_deadline {
            if Instant::now() > deadline {
                for worker in active.values_mut() {
                    let _ = worker.child.kill();
                }
            }
        }

        if active.is_empty() && (queue.is_empty() || draining) {
            break;
        }
    }

    with_stats(|s| s.drained |= drain_seen);
    let profile = ParallelismProfile {
        jobs,
        tasks: pending.len(),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
        worker_busy_ms: busy_ms,
        assigned_worker: pending
            .iter()
            .map(|(slot, _)| assigned.get(slot).copied().unwrap_or(0))
            .collect(),
    };
    record_profile(&profile);
    sup_span.arg("merged", Json::u64(results.len() as u64));
    let outcomes: ShardedOutcomes =
        pending.iter().filter_map(|(slot, _)| results.remove(slot).map(|r| (*slot, r))).collect();
    Ok((outcomes, profile))
}

/// Handle one worker event. Mutates shard/result/accounting state and
/// pushes the worker's uid onto `reaped` when its stream closed.
#[allow(clippy::too_many_arguments)]
fn handle_event(
    uid: u64,
    event: Event,
    active: &mut HashMap<u64, Active>,
    shards: &mut [Shard],
    results: &mut HashMap<usize, Result<RunMetrics, TaskFailure>>,
    busy_ms: &mut [f64],
    assigned: &mut HashMap<usize, usize>,
    by_slot: &HashMap<usize, (u64, &str)>,
    base_id: usize,
    sweep_seq: usize,
    ckpt: Option<&CheckpointHandle>,
    reaped: &mut Vec<u64>,
) {
    let Some(worker) = active.get_mut(&uid) else { return };
    worker.last_heard = Instant::now();
    let msg = match event {
        Event::Eof => {
            worker.eof_seen = true;
            reaped.push(uid);
            return;
        }
        Event::Line(Parsed::Noise) => return,
        Event::Line(Parsed::Malformed(line)) => {
            with_stats(|s| s.protocol_errors += 1);
            worker.poisoned = Some(format!("malformed protocol line: {line}"));
            let _ = worker.child.kill();
            return;
        }
        Event::Line(Parsed::Msg(msg)) => msg,
    };
    match msg {
        WorkerMsg::Hello { .. } => worker.hello_seen = true,
        WorkerMsg::Heartbeat => with_stats(|s| s.heartbeats += 1),
        WorkerMsg::PrepCache { hits, misses, fragment_builds, shared_traces } => {
            crate::prep_cache::add_counts(hits, misses, fragment_builds, shared_traces)
        }
        WorkerMsg::Start { slot } => worker.inflight = Some((slot, Instant::now())),
        WorkerMsg::Done { slot, fingerprint, metrics } => {
            let busy = worker
                .inflight
                .take()
                .map_or(0.0, |(_, started)| started.elapsed().as_secs_f64() * 1e3);
            busy_ms[worker.worker_slot] += busy;
            let Some(&(expected_fp, _)) = by_slot.get(&slot) else {
                worker.poisoned = Some(format!("done for unassigned slot {slot}"));
                let _ = worker.child.kill();
                return;
            };
            if fingerprint != expected_fp {
                with_stats(|s| s.fingerprint_mismatches += 1);
                worker.poisoned = Some(format!(
                    "slot {slot} fingerprint mismatch: worker {fingerprint:016x}, \
                     supervisor {expected_fp:016x}"
                ));
                let _ = worker.child.kill();
                return;
            }
            let Some(decoded) = checkpoint::decode_metrics(&metrics) else {
                with_stats(|s| s.protocol_errors += 1);
                worker.poisoned = Some(format!("slot {slot} metrics payload undecodable"));
                let _ = worker.child.kill();
                return;
            };
            if let Some(ckpt) = ckpt {
                ckpt.append(&checkpoint::task_key(sweep_seq, slot), fingerprint, &decoded);
            }
            // Fold the worker's simulated work into this process's
            // totals, exactly as an in-process run would have: the
            // bench MIPS accounting must not see process isolation.
            crate::metrics::record_simulation(
                decoded.core.instructions,
                decoded.phases.measure_ms / 1e3,
            );
            assigned.insert(slot, worker.worker_slot);
            shards[worker.shard_idx].remaining.retain(|&s| s != slot);
            results.insert(slot, Ok(decoded));
            with_stats(|s| s.results_merged += 1);
        }
        WorkerMsg::Fail { slot, attempts, elapsed_ms, message } => {
            let busy = worker
                .inflight
                .take()
                .map_or(0.0, |(_, started)| started.elapsed().as_secs_f64() * 1e3);
            busy_ms[worker.worker_slot] += busy;
            let label = by_slot
                .get(&slot)
                .map_or_else(|| format!("task-{}", base_id + slot), |&(_, l)| l.to_owned());
            assigned.insert(slot, worker.worker_slot);
            shards[worker.shard_idx].remaining.retain(|&s| s != slot);
            results.insert(
                slot,
                Err(TaskFailure {
                    task: base_id + slot,
                    label,
                    worker: worker.worker_slot,
                    panic_msg: message,
                    elapsed_ms,
                    attempts,
                }),
            );
        }
        WorkerMsg::Drained { completed } => {
            span::instant_with(
                format!("worker {} drained", worker.worker_slot),
                "supervisor",
                vec![("completed", Json::u64(completed as u64))],
            );
        }
    }
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

/// Respawn a shard (with backoff) or quarantine it when the budget is
/// spent. Returns `true` when a respawn was scheduled.
fn respawn_or_quarantine(
    shard: &mut Shard,
    base_id: usize,
    by_slot: &HashMap<usize, (u64, &str)>,
    results: &mut HashMap<usize, Result<RunMetrics, TaskFailure>>,
    queue: &mut VecDeque<usize>,
) -> bool {
    if shard.respawns < respawn_budget() {
        shard.respawns += 1;
        let backoff = respawn_backoff_ms() << (shard.respawns - 1).min(16);
        shard.ready_at = Instant::now() + Duration::from_millis(backoff);
        with_stats(|s| s.respawns += 1);
        eprintln!(
            "supervisor: shard {} ({} task(s) left) worker died ({}); \
             respawn {}/{} in {} ms",
            shard.index,
            shard.remaining.len(),
            shard.last_death,
            shard.respawns,
            respawn_budget(),
            backoff
        );
        span::instant_with(
            format!("respawn shard {}", shard.index),
            "supervisor",
            vec![
                ("respawn", Json::u64(u64::from(shard.respawns))),
                ("backoff_ms", Json::u64(backoff)),
            ],
        );
        queue.push_back(shard.index);
        true
    } else {
        let remaining: Vec<usize> = shard.remaining.drain(..).collect();
        with_stats(|s| {
            s.quarantined_shards += 1;
            s.quarantined_tasks += remaining.len() as u64;
        });
        eprintln!(
            "supervisor: quarantining shard {} ({:016x}): respawn budget ({}) exhausted; \
             {} task(s) failed permanently (last death: {})",
            shard.index,
            shard.fingerprint,
            respawn_budget(),
            remaining.len(),
            shard.last_death
        );
        span::instant_with(
            format!("quarantine shard {}", shard.index),
            "supervisor",
            vec![("tasks", Json::u64(remaining.len() as u64))],
        );
        for slot in remaining {
            let label = by_slot
                .get(&slot)
                .map_or_else(|| format!("task-{}", base_id + slot), |&(_, l)| l.to_owned());
            results.insert(
                slot,
                Err(TaskFailure {
                    task: base_id + slot,
                    label,
                    worker: 0,
                    panic_msg: format!(
                        "quarantined shard {:016x}: worker died {} time(s), last: {}",
                        shard.fingerprint, shard.spawns, shard.last_death
                    ),
                    elapsed_ms: 0.0,
                    attempts: shard.spawns.max(1),
                }),
            );
        }
        false
    }
}

/// A worker's stream closed: wait for the process, classify the exit,
/// and decide between shard-complete, respawn, quarantine, and drain.
#[allow(clippy::too_many_arguments)]
fn finalize_worker(
    mut worker: Active,
    shards: &mut [Shard],
    results: &mut HashMap<usize, Result<RunMetrics, TaskFailure>>,
    queue: &mut VecDeque<usize>,
    free_slots: &mut Vec<usize>,
    by_slot: &HashMap<usize, (u64, &str)>,
    base_id: usize,
    draining: bool,
) {
    let status = worker.child.wait().ok();
    if let Some(reader) = worker.reader.take() {
        let _ = reader.join();
    }
    free_slots.push(worker.worker_slot);
    let shard = &mut shards[worker.shard_idx];

    // A deliberate watchdog kill fails only the in-flight task; the rest
    // of the shard respawns without charging the respawn budget.
    if let Some(slot) = worker.watchdog_victim {
        let timeout = resilience::task_timeout_ms().unwrap_or(0);
        let label = by_slot
            .get(&slot)
            .map_or_else(|| format!("task-{}", base_id + slot), |&(_, l)| l.to_owned());
        shard.remaining.retain(|&s| s != slot);
        results.insert(
            slot,
            Err(TaskFailure {
                task: base_id + slot,
                label,
                worker: worker.worker_slot,
                panic_msg: format!(
                    "watchdog killed the worker: task exceeded --task-timeout ({timeout} ms) \
                     with SIPT_WATCHDOG_KILL=1"
                ),
                elapsed_ms: worker
                    .inflight
                    .map_or(0.0, |(_, started)| started.elapsed().as_secs_f64() * 1e3),
                attempts: 1,
            }),
        );
        if !shard.remaining.is_empty() && !draining {
            shard.ready_at = Instant::now();
            queue.push_back(shard.index);
        }
        return;
    }

    // Protocol corruption poisons the shard outright: a worker that
    // cannot speak the protocol cannot be trusted to re-run either.
    if let Some(reason) = worker.poisoned {
        shard.last_death = reason;
        shard.respawns = respawn_budget(); // force the quarantine branch
        respawn_or_quarantine(shard, base_id, by_slot, results, queue);
        return;
    }

    if shard.remaining.is_empty() {
        return; // shard complete
    }
    if draining {
        return; // unexecuted slots stay for --resume
    }
    shard.last_death = describe_exit(status);
    with_stats(|s| s.worker_deaths += 1);
    span::instant_with(
        format!("worker {} died", worker.worker_slot),
        "supervisor",
        vec![("status", Json::str(&shard.last_death))],
    );
    respawn_or_quarantine(shard, base_id, by_slot, results, queue);
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn shard_sizes_cover_all_slots() {
        // Default: one shard per worker.
        assert_eq!(shard_size_for(12, 4), 3);
        assert_eq!(shard_size_for(13, 4), 4);
        assert_eq!(shard_size_for(1, 8), 1);
        assert_eq!(shard_size_for(0, 4), 1);
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
            for key in ["isolation", "shards", "workers_spawned", "respawns", "drained"] {
                assert!(json.get(key).is_some(), "missing {key}");
            }
        }
    }

    #[test]
    fn quarantine_records_every_remaining_slot() {
        let mut shard = Shard {
            index: 7,
            remaining: vec![3, 4],
            fingerprint: 0xabcd,
            respawns: respawn_budget(), // budget already spent
            spawns: 3,
            ready_at: Instant::now(),
            last_death: "killed by signal 6 (SIGABRT)".into(),
        };
        let by_slot: HashMap<usize, (u64, &str)> =
            [(3, (1u64, "sjeng")), (4, (2u64, "mcf"))].into_iter().collect();
        let mut results = HashMap::new();
        let mut queue = VecDeque::new();
        let respawned = respawn_or_quarantine(&mut shard, 100, &by_slot, &mut results, &mut queue);
        assert!(!respawned);
        assert!(queue.is_empty());
        let f3 = results.get(&3).unwrap().as_ref().unwrap_err();
        assert_eq!(f3.task, 103);
        assert_eq!(f3.label, "sjeng");
        assert!(f3.panic_msg.contains("quarantined shard"));
        assert!(f3.panic_msg.contains("SIGABRT"));
        let f4 = results.get(&4).unwrap().as_ref().unwrap_err();
        assert_eq!(f4.task, 104);
        assert_eq!(f4.label, "mcf");
    }

    #[test]
    fn respawn_backoff_doubles() {
        let mut shard = Shard {
            index: 0,
            remaining: vec![0],
            fingerprint: 1,
            respawns: 0,
            spawns: 1,
            ready_at: Instant::now(),
            last_death: "exited with code 134".into(),
        };
        let by_slot: HashMap<usize, (u64, &str)> = [(0, (1u64, "x"))].into_iter().collect();
        let mut results = HashMap::new();
        let mut queue = VecDeque::new();
        assert!(respawn_or_quarantine(&mut shard, 0, &by_slot, &mut results, &mut queue));
        assert_eq!(shard.respawns, 1);
        assert_eq!(queue.pop_front(), Some(0));
        let first_ready = shard.ready_at;
        assert!(respawn_or_quarantine(&mut shard, 0, &by_slot, &mut results, &mut queue));
        assert_eq!(shard.respawns, 2);
        assert!(shard.ready_at >= first_ready, "backoff grows");
        assert!(results.is_empty(), "respawns resolve nothing");
    }
}
