//! Workload preparation cache: prepare once, replay everywhere.
//!
//! Every figure driver sweeps many L1 configurations over the *same*
//! `(WorkloadSpec, Condition)` pair, yet preparation — buddy allocator
//! construction, the fragmentation preamble, and generating the full
//! instruction stream — used to be repeated for every single task, and
//! `speculation_profile` repeated it yet again. This module caches the
//! prepared state as an [`Arc<PreparedWorkload>`] keyed by a content
//! fingerprint of `(spec, condition)` (the same FNV-1a machinery the
//! checkpoint layer uses), so N configs × one workload prepare **once**.
//!
//! Correctness rests on two facts:
//!
//! - preparation is deterministic in `(spec, cond)` — it seeds its own
//!   RNGs from `cond.seed` and never consults ambient state — so a cached
//!   entry is bit-identical to a fresh preparation, and
//! - the prepared state is immutable during replay — the address space is
//!   only read and the [`sipt_workloads::MaterializedTrace`] replays
//!   through cursors — so sharing one copy across concurrent pool workers
//!   cannot change results.
//!
//! Cached and uncached runs therefore produce byte-identical scientific
//! payloads; only wall-clock differs.
//!
//! A cache is a [`PrepCache`] value. The free functions
//! ([`get_or_prepare`], [`stats`], [`set_enabled`], ...) act on one
//! process-wide instance, built on first use: it holds at most
//! `SIPT_PREP_CACHE_CAP` single-core entries (default 64) and is on
//! unless `SIPT_PREP_CACHE=0` or the figure binaries' `--no-prep-cache`
//! flag turns it off (see [`set_enabled`]). Its hit/miss counters feed
//! the report's `parallelism.prep_cache` block (schema v4). Code that
//! needs accounting nobody else touches, such as this module's unit
//! tests, builds its own instance with [`PrepCache::with_capacity`].
//!
//! The capacity bounds single-core entries only, evicting the oldest
//! first. Quad-core mixes are cached as units and never evicted, yet
//! [`PrepCacheStats::entries`] counts both kinds.
//!
//! Concurrency: the map lock is held only to look up or insert a per-key
//! cell; preparation itself runs under the cell's own mutex, so workers
//! preparing *different* workloads proceed in parallel. A worker that
//! asks for a workload another worker is still preparing blocks on that
//! cell until the preparation finishes, and its `prep` span records the
//! wait as `wait_ms`. The sweep pool makes this rare: it hands every run
//! of one `(spec, cond)` pair to the worker that prepares it (see
//! [`crate::sweep`]), so same-key blocking happens only at the sweep
//! tail, when idle workers steal single runs. The same grouping keeps a
//! pair resident for all its runs, so a sweep over more pairs than the
//! capacity still prepares each pair once. A panicking preparation
//! poisons only its cell, which is recovered and retried — one injected
//! fault cannot wedge the cache.

use crate::checkpoint::fnv1a64;
use crate::error::SimError;
use crate::runner::{try_prepare_run, Condition, PreparedRun};
use sipt_mem::AddressSpace;
use sipt_telemetry::json::Json;
use sipt_telemetry::Span;
use sipt_workloads::{MaterializedTrace, WorkloadSpec};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError};
use std::time::Instant;

/// A fully prepared, immutable, replayable workload: the address space
/// (page table included) plus the materialized instruction stream
/// covering `warmup + instructions`.
#[derive(Debug)]
pub struct PreparedWorkload {
    /// The workload's address space (owns the page table); shared by
    /// every machine replaying this workload.
    pub asp: Arc<AddressSpace>,
    /// The drained, replayable trace.
    pub trace: MaterializedTrace,
}

/// One prepared core of a multiprogrammed mix: the per-process address
/// space and trace, plus the wall-clock cost of preparing it (attributed
/// to the core's `allocate` phase on every replay).
#[derive(Debug)]
pub struct PreparedMixCore {
    /// Benchmark name of the app on this core.
    pub app: String,
    /// The process's address space.
    pub asp: Arc<AddressSpace>,
    /// The core's replayable trace.
    pub trace: MaterializedTrace,
    /// Wall-clock milliseconds spent allocating + generating this core's
    /// workload at preparation time.
    pub allocate_ms: f64,
}

/// A fully prepared quad-core mix. Mixes are cached as a unit — the four
/// processes allocate from *one shared* buddy allocator in program
/// order, so per-`(spec, cond)` sharing with single-core runs would be
/// wrong (the interleaving is the point).
#[derive(Debug)]
pub struct PreparedMix {
    /// Per-core prepared state, in mix order.
    pub cores: Vec<PreparedMixCore>,
}

type CacheResult = Result<Arc<PreparedWorkload>, SimError>;
/// One per-key slot: `None` until the first claimant finishes preparing.
type Cell = Arc<Mutex<Option<CacheResult>>>;
type MixCell = Arc<Mutex<Option<Arc<PreparedMix>>>>;

#[derive(Default)]
struct CacheState {
    map: HashMap<u64, Cell>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<u64>,
}

/// Resident single-core entries of the process-wide cache when
/// `SIPT_PREP_CACHE_CAP` is unset.
const DEFAULT_CAPACITY: usize = 64;

/// One preparation cache with its own entries, counters and enable
/// switch. The module's free functions act on a process-wide instance.
pub struct PrepCache {
    singles: Mutex<CacheState>,
    /// Mixes are cached as units and never evicted.
    mixes: Mutex<HashMap<u64, MixCell>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Maximum number of resident *single-core* entries before FIFO
    /// eviction (in-flight users keep their `Arc`s, so eviction never
    /// affects running tasks).
    capacity: usize,
    enabled: AtomicBool,
}

impl PrepCache {
    /// An empty, enabled cache holding at most `capacity` single-core
    /// entries.
    pub fn with_capacity(capacity: usize) -> Self {
        PrepCache {
            singles: Mutex::new(CacheState::default()),
            mixes: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
            enabled: AtomicBool::new(true),
        }
    }

    /// Turn this cache on or off. While off, lookups prepare fresh and
    /// count nothing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether lookups currently consult this cache.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The prepared workload for `(spec, cond)`; see the free
    /// [`get_or_prepare`].
    ///
    /// # Errors
    ///
    /// Propagates (and caches) the preparation's [`SimError`].
    pub fn get_or_prepare(&self, spec: &WorkloadSpec, cond: &Condition) -> CacheResult {
        let mut span = Span::enter(format!("prep {}", spec.name), "prep_cache");
        if !self.enabled() {
            span.arg("outcome", Json::str("bypass"));
            return prepare_fresh(spec, cond);
        }
        let key = fingerprint(spec, cond);
        let cell = {
            let mut state = self.singles.lock().unwrap_or_else(PoisonError::into_inner);
            match state.map.get(&key) {
                Some(cell) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    span.arg("outcome", Json::str("hit"));
                    Arc::clone(cell)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    span.arg("outcome", Json::str("miss"));
                    let cell: Cell = Arc::new(Mutex::new(None));
                    state.map.insert(key, Arc::clone(&cell));
                    state.order.push_back(key);
                    while state.map.len() > self.capacity {
                        if let Some(old) = state.order.pop_front() {
                            state.map.remove(&old);
                        }
                    }
                    cell
                }
            }
        };
        // Prepare (or wait for the preparing worker) under the cell's own
        // lock. A poisoned cell means a previous claimant panicked before
        // publishing a result; recover the guard and retry the preparation.
        let mut slot = match cell.try_lock() {
            Ok(slot) => slot,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                let t0 = Instant::now();
                let slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
                span.arg("wait_ms", Json::num(t0.elapsed().as_secs_f64() * 1e3));
                slot
            }
        };
        if let Some(result) = slot.as_ref() {
            return result.clone();
        }
        let result = prepare_fresh(spec, cond);
        *slot = Some(result.clone());
        result
    }

    /// The prepared state of a whole mix; see the free
    /// [`get_or_prepare_mix`].
    pub(crate) fn get_or_prepare_mix(
        &self,
        mix_name: &str,
        cond: &Condition,
        prepare: impl FnOnce() -> Arc<PreparedMix>,
    ) -> Arc<PreparedMix> {
        if !self.enabled() {
            return prepare();
        }
        let key = fnv1a64(format!("mix|{mix_name}|{cond:?}").as_bytes());
        let cell = {
            let mut map = self.mixes.lock().unwrap_or_else(PoisonError::into_inner);
            match map.get(&key) {
                Some(cell) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Arc::clone(cell)
                }
                None => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let cell: MixCell = Arc::new(Mutex::new(None));
                    map.insert(key, Arc::clone(&cell));
                    cell
                }
            }
        };
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(mix) = slot.as_ref() {
            return Arc::clone(mix);
        }
        let mix = prepare();
        *slot = Some(Arc::clone(&mix));
        mix
    }

    /// Snapshot this cache's counters. `entries` counts single-core *and*
    /// mix entries.
    pub fn stats(&self) -> PrepCacheStats {
        let singles = self.singles.lock().unwrap_or_else(PoisonError::into_inner).map.len();
        let mixes = self.mixes.lock().unwrap_or_else(PoisonError::into_inner).len();
        PrepCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: singles + mixes,
            enabled: self.enabled(),
        }
    }

    /// This cache's counters as the report's `prep_cache` object.
    pub fn stats_json(&self) -> Json {
        let s = self.stats();
        Json::obj([
            ("enabled", Json::Bool(s.enabled)),
            ("hits", Json::u64(s.hits)),
            ("misses", Json::u64(s.misses)),
            ("entries", Json::u64(s.entries as u64)),
        ])
    }

    /// Add lookups made elsewhere to this cache's counters: a
    /// process-isolation supervisor folds in what its workers report.
    pub fn add_counts(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Drop all entries and zero the counters. The enable switch is kept.
    pub fn clear(&self) {
        *self.singles.lock().unwrap_or_else(PoisonError::into_inner) = CacheState::default();
        self.mixes.lock().unwrap_or_else(PoisonError::into_inner).clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// The process-wide instance behind the free functions, built on first
/// use: its capacity comes from `SIPT_PREP_CACHE_CAP` (default 64) and it
/// starts enabled unless `SIPT_PREP_CACHE` is `0`/`false`/`off`/`no`.
fn global() -> &'static PrepCache {
    static GLOBAL: OnceLock<PrepCache> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let capacity = match crate::env::parse_or_warn("SIPT_PREP_CACHE_CAP") {
            Some(0) => {
                eprintln!(
                    "warning: SIPT_PREP_CACHE_CAP=0 is not a usable capacity; using {DEFAULT_CAPACITY}"
                );
                DEFAULT_CAPACITY
            }
            Some(n) => n.min(usize::MAX as u64) as usize,
            None => DEFAULT_CAPACITY,
        };
        let cache = PrepCache::with_capacity(capacity);
        if let Ok(v) = std::env::var("SIPT_PREP_CACHE") {
            cache.set_enabled(!matches!(v.trim(), "0" | "false" | "off" | "no"));
        }
        cache
    })
}

/// Force the process-wide cache on or off for the rest of the process,
/// overriding `SIPT_PREP_CACHE`. The figure binaries' `--no-prep-cache`
/// flag calls `set_enabled(false)`.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Whether the process-wide cache is currently consulted.
pub fn enabled() -> bool {
    global().enabled()
}

/// Content fingerprint of a `(spec, cond)` pair — FNV-1a over the full
/// `Debug` rendering, like the checkpoint layer's request fingerprints.
pub fn fingerprint(spec: &WorkloadSpec, cond: &Condition) -> u64 {
    fnv1a64(format!("prep|{spec:?}|{cond:?}").as_bytes())
}

fn prepare_fresh(spec: &WorkloadSpec, cond: &Condition) -> CacheResult {
    let PreparedRun { asp, trace } = try_prepare_run(spec, cond)?;
    Ok(Arc::new(PreparedWorkload { asp: Arc::new(asp), trace: MaterializedTrace::from_gen(trace) }))
}

/// The prepared workload for `(spec, cond)`: cached when the process-wide
/// cache is enabled, freshly prepared otherwise. Either way the returned
/// state is bit-identical — the cache changes wall-clock only.
///
/// # Errors
///
/// Propagates the preparation's [`SimError`] (workload too large, audit
/// violation). Failed preparations are cached too: every config of an
/// impossible workload reports the same error without re-failing the
/// expensive preparation.
pub fn get_or_prepare(spec: &WorkloadSpec, cond: &Condition) -> CacheResult {
    global().get_or_prepare(spec, cond)
}

/// The prepared state of a whole mix, cached in the process-wide cache
/// under `(mix_name, cond)`; `prepare` runs only on a miss (or whenever
/// the cache is disabled). Used by [`crate::multicore::run_mix`].
///
/// The closure-based shape keeps mix preparation (shared buddy
/// allocator, per-process traces) in the multicore module while the
/// caching/concurrency policy lives here, shared with the single-core
/// path.
pub(crate) fn get_or_prepare_mix(
    mix_name: &str,
    cond: &Condition,
    prepare: impl FnOnce() -> Arc<PreparedMix>,
) -> Arc<PreparedMix> {
    global().get_or_prepare_mix(mix_name, cond, prepare)
}

/// Counter snapshot for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepCacheStats {
    /// Lookups that found an existing entry (including one still being
    /// prepared by another worker).
    pub hits: u64,
    /// Lookups that created a new entry (distinct workloads prepared).
    pub misses: u64,
    /// Entries currently resident, single-core and mix together.
    pub entries: usize,
    /// Whether lookups currently consult the cache.
    pub enabled: bool,
}

/// Snapshot the process-wide cache's counters. `entries` counts
/// single-core *and* mix entries.
pub fn stats() -> PrepCacheStats {
    global().stats()
}

/// The `prep_cache` object of the report's `parallelism` block
/// (schema v4), from the process-wide cache.
pub fn stats_json() -> Json {
    global().stats_json()
}

/// Add a worker process's lookups to the process-wide counters (see
/// [`PrepCache::add_counts`]). Entries stay the parent's own.
pub fn add_counts(hits: u64, misses: u64) {
    global().add_counts(hits, misses);
}

/// Drop all entries of the process-wide cache and zero its counters
/// (integration tests and long-lived drivers that want fresh accounting).
pub fn clear() {
    global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_workloads::benchmark;

    // Every test asserts on a cache of its own: the process-wide instance
    // is shared with the runner, sweep and multicore tests running
    // beside these in the same binary, whose lookups would land in its
    // counters.

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let cache = PrepCache::with_capacity(64);
        let spec = benchmark("sjeng").unwrap();
        let cond = Condition::quick();
        let a = cache.get_or_prepare(&spec, &cond).unwrap();
        let b = cache.get_or_prepare(&spec, &cond).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the prepared state");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn cached_state_is_bit_identical_to_fresh_preparation() {
        let cache = PrepCache::with_capacity(64);
        let spec = benchmark("mcf").unwrap();
        let cond = Condition::quick();
        let cached = cache.get_or_prepare(&spec, &cond).unwrap();
        let fresh = prepare_fresh(&spec, &cond).unwrap();
        assert_eq!(cached.trace, fresh.trace);
        let c: Vec<_> = cached.trace.cursor().collect();
        let f: Vec<_> = fresh.trace.cursor().collect();
        assert_eq!(c, f);
    }

    #[test]
    fn distinct_conditions_are_distinct_entries() {
        let cache = PrepCache::with_capacity(64);
        let spec = benchmark("sjeng").unwrap();
        let a = Condition::quick();
        let b = Condition { seed: 43, ..a };
        assert_ne!(fingerprint(&spec, &a), fingerprint(&spec, &b));
        let _ = cache.get_or_prepare(&spec, &a).unwrap();
        let _ = cache.get_or_prepare(&spec, &b).unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn disabled_cache_prepares_fresh_and_counts_nothing() {
        let cache = PrepCache::with_capacity(64);
        cache.set_enabled(false);
        let spec = benchmark("sjeng").unwrap();
        let cond = Condition::quick();
        let a = cache.get_or_prepare(&spec, &cond).unwrap();
        let b = cache.get_or_prepare(&spec, &cond).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 0, 0));
        assert!(!s.enabled);
    }

    #[test]
    fn failed_preparation_is_cached() {
        let cache = PrepCache::with_capacity(64);
        let spec = benchmark("mcf").unwrap(); // 1.7 GiB footprint
        let cond = Condition { memory_bytes: 1 << 20, ..Condition::quick() };
        let a = cache.get_or_prepare(&spec, &cond).unwrap_err();
        let b = cache.get_or_prepare(&spec, &cond).unwrap_err();
        assert_eq!(a, b);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn concurrent_lookups_prepare_once() {
        let cache = PrepCache::with_capacity(64);
        let spec = benchmark("gcc").unwrap();
        let cond = Condition::quick();
        let prepared: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| cache.get_or_prepare(&spec, &cond).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &prepared[1..] {
            assert!(Arc::ptr_eq(&prepared[0], p));
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one preparation for eight workers");
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn fifo_eviction_bounds_entries() {
        // Insert 65 distinct keys into a cache of capacity 64 and watch
        // the count stay bounded.
        let cache = PrepCache::with_capacity(64);
        let spec = benchmark("sjeng").unwrap();
        for seed in 0..65u64 {
            let cond = Condition { seed, instructions: 50, warmup: 10, ..Condition::quick() };
            let _ = cache.get_or_prepare(&spec, &cond).unwrap();
        }
        assert!(cache.stats().entries <= 64, "entries = {}", cache.stats().entries);
        assert_eq!(cache.stats().misses, 65);
    }

    #[test]
    fn stats_json_shape() {
        let rendered = stats_json().render();
        for field in ["\"enabled\"", "\"hits\"", "\"misses\"", "\"entries\""] {
            assert!(rendered.contains(field), "{rendered}");
        }
    }
}
