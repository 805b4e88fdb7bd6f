//! `perfbench`: end-to-end and per-layer host time of three paper-figure
//! sweeps.
//!
//! ```text
//! perfbench --workload <combined_ooo|ideal_process|sensitivity> --seed <n> \
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it times one cold set-up and then as many whole
//! rounds of the figure's sweep, as a user runs it, as fit in `--seconds`.
//! With `--trace 1` it runs the sweep untraced and traced and times each
//! layer on the sweep's own inputs (see `traced.rs`). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` for the workloads and the metrics.

mod checks;
mod traced;
mod workload;

use sipt_sim::prep_cache::{self, PrepCache};
use sipt_sim::{resilience, simulation_totals, supervisor, Condition};
use sipt_telemetry::json::Json;
use std::time::{Duration, Instant};
use workload::Workload;

/// Worker threads (thread isolation) or worker processes (process
/// isolation) of every sweep: the core count of the machine the
/// reference figures were taken on, fixed so that figures from hosts
/// with other core counts stay comparable.
const JOBS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <combined_ooo|ideal_process|sensitivity> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        // The process-isolation supervisor re-executes this binary with
        // the parent's arguments plus `--worker-shard`.
        if flag == "--worker-shard" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set size so far in MB of this process and of its
/// largest waited-for child (a process-isolation worker), whichever is
/// larger.
fn peak_rss_mb_so_far() -> f64 {
    #[repr(C)]
    struct Rusage {
        /// `ru_utime` and `ru_stime` (two `timeval`s), then 14 `long`
        /// counters of which `ru_maxrss` (KiB on Linux) is the first.
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    const RUSAGE_CHILDREN: i32 = -1;
    let max_rss_kib = |who| {
        let mut usage = Rusage { fields: [0; 18] };
        // SAFETY: `usage` is a writable, properly aligned buffer with the
        // size and layout of the C `struct rusage` on 64-bit Linux, and
        // `who` is one of the two values getrusage(2) accepts here.
        let rc = unsafe { getrusage(who, &mut usage) };
        if rc == 0 {
            usage.fields[4]
        } else {
            0
        }
    };
    max_rss_kib(RUSAGE_SELF).max(max_rss_kib(RUSAGE_CHILDREN)) as f64 / 1024.0
}

/// The end-to-end result of one run.
struct EndToEnd {
    attempted: u64,
    failed: u64,
    wall_s: f64,
    setup_s: f64,
    measure_mips: f64,
    peak_rss_mb: f64,
}

/// Prepare every distinct (benchmark, condition) pair the sweep uses,
/// once each and in one thread, through a fresh private `PrepCache`. It
/// holds one entry, so at most two prepared pairs are resident at once
/// and the process-wide cache the sweep uses stays cold.
fn set_up(workload: Workload, benches: &[&str], cond: &Condition) -> Result<(), String> {
    let cache = PrepCache::with_capacity(1);
    let mut seen = std::collections::HashSet::new();
    for req in workload.requests(benches, cond) {
        if seen.insert(prep_cache::fingerprint(&req.spec, &req.cond)) {
            cache.get_or_prepare(&req.spec, &req.cond).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Time one cold set-up from process start, then as many whole rounds
/// of the figure's sweep, each from a cold process-wide prep cache, as
/// fit in `seconds` (at least one). Times are medians over the rounds;
/// the peak resident memory is taken after the first round.
fn end_to_end(
    workload: Workload,
    benches: &[&str],
    cond: &Condition,
    seconds: u64,
    process_start: Instant,
) -> Result<EndToEnd, String> {
    set_up(workload, benches, cond)?;
    let setup_s = process_start.elapsed().as_secs_f64();

    let tasks = workload.requests(benches, cond).len() as u64;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut walls, mut mips) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut peak_rss_mb = None;
    loop {
        prep_cache::clear();
        let failures_before = resilience::failure_count();
        let (insts_before, measure_ms_before) = simulation_totals();
        let start = Instant::now();
        let figure = workload.run_figure(benches, cond);
        walls.push(start.elapsed().as_secs_f64());
        let (insts, measure_ms) = simulation_totals();
        mips.push((insts - insts_before) as f64 / ((measure_ms - measure_ms_before) * 1e3));
        eprintln!(
            "perfbench: round {} wall {:.3} s, {:.2} MIPS",
            walls.len(),
            walls[walls.len() - 1],
            mips[mips.len() - 1]
        );
        attempted += tasks;
        failed += (resilience::failure_count() - failures_before) as u64;
        checks::figure_bounds(&figure)?;
        // The first round is the sweep as a user runs it in a fresh
        // process; later rounds reuse a heap whose size depends on how
        // the allocator's per-thread arenas held on to freed memory.
        peak_rss_mb.get_or_insert_with(peak_rss_mb_so_far);
        // Whole rounds only: stop unless one more round, as long as the
        // last, would end by the deadline.
        if Instant::now() + Duration::from_secs_f64(walls[walls.len() - 1]) > deadline {
            break;
        }
    }
    Ok(EndToEnd {
        attempted,
        failed,
        wall_s: median(walls),
        setup_s,
        measure_mips: median(mips),
        peak_rss_mb: peak_rss_mb.expect("at least one round ran"),
    })
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`. It
/// is printed only when every check passed.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let metrics = metrics.iter().map(|&(name, value, unit)| {
        (name, Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::u64(attempted)),
        ("failed", Json::u64(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .render()
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let cond = Condition { seed: args.seed, ..Condition::default() };
    let benches = args.workload.benchmarks();
    sipt_sim::set_jobs(JOBS);
    sipt_sim::set_isolation(args.workload.isolation());

    if supervisor::worker_mode() {
        // A process-isolation worker replays the parent's sequence of
        // sweeps: every sweep the parent runs submits the same requests,
        // so the worker repeats the figure until it reaches its assigned
        // sweep, which runs the shard and exits inside the library.
        for _ in 0..10_000 {
            args.workload.run_figure(&benches, &cond);
        }
        eprintln!("perfbench worker: the assigned sweep was never reached");
        std::process::exit(3);
    }

    let line = if args.trace {
        traced::run(args.workload, &benches, &cond, JOBS).map(|report| {
            eprintln!("perfbench: trace written to {}", report.trace_path.display());
            result_line(report.tasks, report.failed, &report.metrics())
        })
    } else {
        end_to_end(args.workload, &benches, &cond, args.seconds, process_start).map(|r| {
            result_line(
                r.attempted,
                r.failed,
                &[
                    ("wall_s", r.wall_s, "s"),
                    ("setup_s", r.setup_s, "s"),
                    ("measure_mips", r.measure_mips, "MIPS"),
                    ("peak_rss_mb", r.peak_rss_mb, "MB"),
                ],
            )
        })
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_command_line_and_the_worker_flag() {
        let want = Args { workload: Workload::Sensitivity, seed: 7, seconds: 10, trace: true };
        let line = "--workload sensitivity --seed 7 --seconds 10 --trace 1";
        assert_eq!(parse_args(args(line)), Ok(want));
        let worker = parse_args(args(&format!("{line} --worker-shard"))).unwrap();
        assert_eq!(worker.workload, Workload::Sensitivity);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload hit --seed 1 --seconds 1 --trace 0",
            "--workload sensitivity --seed x --seconds 1 --trace 0",
            "--workload sensitivity --seed 1 --seconds 1 --trace 2",
            "--workload sensitivity --seed 1 --seconds 1",
            "--workload sensitivity --seed 1 --seconds 1 --trace",
            "--bogus 1",
        ] {
            assert!(parse_args(args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb_so_far() > 1.0);
    }
}
