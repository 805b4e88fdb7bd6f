//! Machine-readable run reports: the `--json` / `SIPT_JSON=1` switch and
//! the `results/<name>.json` writer shared by every figure/table binary.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Whether JSON emission was requested, from the process environment:
/// a literal `--json` argument or `SIPT_JSON=1` (any non-empty value
/// other than `0`).
pub fn json_requested() -> bool {
    if std::env::args().any(|a| a == "--json") {
        return true;
    }
    matches!(std::env::var("SIPT_JSON"), Ok(v) if !v.is_empty() && v != "0")
}

/// Schema version stamped into every report, bumped on breaking changes.
///
/// History:
/// - **1** — `{schema_version, artifact, payload}`.
/// - **2** — adds an optional top-level `parallelism` object (sweep job
///   count, per-worker busy time, wall-clock speedup) and a `worker`
///   field inside per-run `phases` objects.
/// - **3** — adds an optional top-level `resilience` object (captured
///   task `failures[]`, `watchdog_flags[]`, retry/checkpoint counters,
///   fault-injection accounting). Present only when something
///   resilience-related actually happened, so fault-free payloads are
///   byte-identical to v2 payloads modulo the version number.
/// - **4** — additive: the `parallelism` block gains a `prep_cache`
///   object (`{enabled, hits, misses, entries}`) accounting for the
///   workload-preparation cache. Wall-clock bookkeeping only; the
///   scientific `payload` is byte-identical to v3 payloads. The object
///   later gained the `fragment_builds` and `shared_traces` counters
///   without a version bump: readers that ignore unknown keys are
///   unaffected.
/// - **5** — adds an optional top-level `observability` object: span
///   sink accounting (`spans`), the sampled speculation flight recorder
///   (`flight_recorder` per-run entries with `EventTracer` capacity/
///   recorded/dropped counts and a misprediction breakdown by cause —
///   delta change, superpage, cold TLB). Present only when tracing or
///   the flight recorder is armed, so plain runs stay byte-identical to
///   v4 modulo the version number.
/// - **6** — additive: the `resilience` block gains a
///   `corrupt_checkpoint_lines` counter (checkpoint lines skipped on
///   `--resume` because they failed to parse) and a `supervisor` object
///   (process-isolation sweep accounting: spawns, respawns, worker
///   deaths, quarantined tasks, watchdog kills, drain state; `null`
///   when sweeps ran in the default thread isolation). Fault-free
///   thread-mode payloads are byte-identical to v5 modulo the version
///   number. When the supervisor moved from static shards to claiming
///   work per task, the `supervisor` object lost its `shards`,
///   `quarantined_shards` and `heartbeats` keys without a version bump
///   (quarantine is per task, and workers no longer send heartbeats).
pub const REPORT_SCHEMA_VERSION: u32 = 6;

/// Wrap an artifact's payload in the standard report envelope:
/// `{"schema_version", "artifact", "payload"}`.
pub fn envelope(artifact: &str, payload: Json) -> Json {
    Json::obj([
        ("schema_version", Json::u64(u64::from(REPORT_SCHEMA_VERSION))),
        ("artifact", Json::str(artifact)),
        ("payload", payload),
    ])
}

/// Like [`envelope`], with the v2 `parallelism` block when the producer
/// ran sweeps in parallel (pass `None` to omit the key, e.g. for purely
/// analytic artifacts).
pub fn envelope_with_parallelism(artifact: &str, payload: Json, parallelism: Option<Json>) -> Json {
    envelope_full(artifact, payload, parallelism, None, None)
}

/// The full v5 envelope: optional `parallelism` (v2), `resilience`
/// (v3), and `observability` (v5) blocks. `None` omits the key, so
/// clean runs carry no extra weight.
pub fn envelope_full(
    artifact: &str,
    payload: Json,
    parallelism: Option<Json>,
    resilience: Option<Json>,
    observability: Option<Json>,
) -> Json {
    let mut e = envelope(artifact, payload);
    if let Some(p) = parallelism {
        e.insert("parallelism", p);
    }
    if let Some(r) = resilience {
        e.insert("resilience", r);
    }
    if let Some(o) = observability {
        e.insert("observability", o);
    }
    e
}

/// Write `report` to `<dir>/<name>.json` (pretty-rendered), creating
/// `dir` if needed. Returns the written path.
pub fn write_report(dir: &Path, name: &str, report: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, report.render_pretty())?;
    Ok(path)
}

/// The conventional output directory (`results/` under the current
/// working directory, overridable with `SIPT_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("SIPT_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn envelope_has_stable_keys() {
        let e = envelope("fig01", Json::obj([("rows", Json::arr([]))]));
        let parsed = parse(&e.render()).unwrap();
        assert_eq!(parsed.path("schema_version").and_then(Json::as_f64), Some(6.0));
        assert_eq!(parsed.path("artifact").and_then(Json::as_str), Some("fig01"));
        assert!(parsed.path("payload.rows").is_some());
    }

    #[test]
    fn parallelism_block_is_optional() {
        let without = envelope_with_parallelism("fig02", Json::u64(1), None);
        assert!(parse(&without.render()).unwrap().path("parallelism").is_none());
        let with = envelope_with_parallelism(
            "fig02",
            Json::u64(1),
            Some(Json::obj([("jobs", Json::u64(4))])),
        );
        let parsed = parse(&with.render()).unwrap();
        assert_eq!(parsed.path("parallelism.jobs").and_then(Json::as_f64), Some(4.0));
        assert_eq!(parsed.path("schema_version").and_then(Json::as_f64), Some(6.0));
    }

    #[test]
    fn resilience_block_is_optional_and_v3() {
        let clean = envelope_full("fig02", Json::u64(1), None, None, None);
        assert!(parse(&clean.render()).unwrap().path("resilience").is_none());
        let faulty = envelope_full(
            "fig02",
            Json::u64(1),
            None,
            Some(Json::obj([("failures", Json::arr([Json::obj([("task", Json::u64(3))])]))])),
            None,
        );
        let parsed = parse(&faulty.render()).unwrap();
        assert_eq!(parsed.path("schema_version").and_then(Json::as_f64), Some(6.0));
        assert!(parsed.path("resilience.failures").is_some());
    }

    #[test]
    fn observability_block_is_optional_and_v5() {
        let clean = envelope_full("fig02", Json::u64(1), None, None, None);
        assert!(parse(&clean.render()).unwrap().path("observability").is_none());
        let traced = envelope_full(
            "fig02",
            Json::u64(1),
            None,
            None,
            Some(Json::obj([("spans", Json::obj([("events", Json::u64(12))]))])),
        );
        let parsed = parse(&traced.render()).unwrap();
        assert_eq!(parsed.path("schema_version").and_then(Json::as_f64), Some(6.0));
        assert_eq!(parsed.path("observability.spans.events").and_then(Json::as_f64), Some(12.0));
    }

    #[test]
    fn write_report_creates_dir_and_file() {
        let dir = std::env::temp_dir().join(format!("sipt-telemetry-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = envelope("smoke", Json::u64(7));
        let path = write_report(&dir.join("nested"), "smoke", &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(parse(&text).unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
