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
//! Two parts of a preparation do not depend on the pair, and a cache
//! shares them across pairs as well:
//!
//! - **One fragmented snapshot per `(memory_bytes, rng_seed)`.** The
//!   fragmentation preamble reads only the memory size and its own RNG,
//!   so every fragmented pair of one seed starts from the same allocator
//!   state. The cache builds that state once, under a per-key cell, and
//!   hands each user a clone (`PrepCache::fragmented_memory`). The
//!   frames the injector pinned stay allocated in the allocator's bitmap,
//!   so a clone is the fragmented state bit for bit. Quad-core mixes and
//!   the I-cache exploration fragment through the same snapshots, under
//!   their own RNG seeds. Snapshots are dropped only by
//!   [`PrepCache::clear`].
//! - **One trace per generator state.** A trace is a function of its
//!   [`TraceGen`] alone: the page table is not consulted while
//!   generating. [`PreparedWorkload::trace`] is therefore shared, keyed
//!   by [`TraceGen::state_fingerprint`] (a hash of its statics, layout,
//!   RNG state, remaining count and counters). A pair whose
//!   generator matches a live trace reuses it instead of materializing
//!   again. On Fig 18's four conditions, Burst and Chunked specs share one
//!   trace; Incremental specs share one across Normal, THP-off and
//!   Par-bound, while fragmentation changes their churn draws. The trace
//!   map holds `Weak`s, so it keeps no trace alive that no pair entry or
//!   running replay holds.
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
//! payloads; only wall-clock differs. A disabled cache shares nothing:
//! every lookup fragments and materializes afresh, so a disabled run is
//! the differential oracle for the pair cache, the snapshots and the
//! shared traces together.
//!
//! A cache is a [`PrepCache`] value. The free functions
//! ([`get_or_prepare`], [`stats`], [`set_enabled`], ...) act on one
//! process-wide instance, built on first use: it holds at most
//! `SIPT_PREP_CACHE_CAP` single-core entries (default 64) and is on
//! unless `SIPT_PREP_CACHE=0` or the figure binaries' `--no-prep-cache`
//! flag turns it off (see [`set_enabled`]). Its counters feed the
//! report's `parallelism.prep_cache` block (schema v4). Code that needs
//! accounting nobody else touches, such as this module's unit tests,
//! builds its own instance with [`PrepCache::with_capacity`].
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
//! fault cannot wedge the cache. Snapshots and traces have per-key cells
//! of their own: workers fragmenting the same key, or materializing the
//! same generator, wait for the first, so each is built once. The `prep`
//! span of a preparation says what it reused: `fragment` is `built` or
//! `cloned` on fragmented pairs, and `trace` is `materialized` or
//! `shared`.

use crate::checkpoint::fnv1a64;
use crate::error::SimError;
use crate::runner::{prepare_run_with, try_prepare_run, Condition, PreparedRun};
use sipt_mem::{AddressSpace, BuddyAllocator, MemError};
use sipt_telemetry::json::Json;
use sipt_telemetry::Span;
use sipt_workloads::{MaterializedTrace, TraceGen, WorkloadSpec};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, TryLockError, Weak};
use std::time::Instant;

/// A fully prepared, immutable, replayable workload: the address space
/// (page table included) plus the materialized instruction stream
/// covering `warmup + instructions`.
#[derive(Debug)]
pub struct PreparedWorkload {
    /// The workload's address space (owns the page table); shared by
    /// every machine replaying this workload.
    pub asp: Arc<AddressSpace>,
    /// The drained, replayable trace; shared with every prepared pair
    /// whose generator state is the same.
    pub trace: Arc<MaterializedTrace>,
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
/// One fragmented snapshot: built by the first caller, cloned by all.
type FragmentCell = Arc<OnceLock<Result<BuddyAllocator, MemError>>>;
/// The live trace of one generator fingerprint, if any.
type TraceCell = Arc<Mutex<Weak<MaterializedTrace>>>;

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
    /// Fragmented allocators by `(memory_bytes, rng_seed)`.
    fragments: Mutex<HashMap<(u64, u64), FragmentCell>>,
    /// Trace slots by generator fingerprint.
    traces: Mutex<HashMap<u64, TraceCell>>,
    hits: AtomicU64,
    misses: AtomicU64,
    fragment_builds: AtomicU64,
    shared_traces: AtomicU64,
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
            fragments: Mutex::new(HashMap::new()),
            traces: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fragment_builds: AtomicU64::new(0),
            shared_traces: AtomicU64::new(0),
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
        let result = self.prepare_shared(spec, cond, &mut span);
        *slot = Some(result.clone());
        result
    }

    /// Prepare `(spec, cond)` from this cache's fragmented snapshot and
    /// live traces, recording on `span` what was reused.
    fn prepare_shared(
        &self,
        spec: &WorkloadSpec,
        cond: &Condition,
        span: &mut Span,
    ) -> CacheResult {
        let mut built = false;
        let PreparedRun { asp, trace: gen } = prepare_run_with(spec, cond, |bytes, rng_seed| {
            let (phys, fresh) = self.fragment_snapshot(bytes, rng_seed);
            built = fresh;
            phys
        })?;
        if cond.fragmented {
            span.arg("fragment", Json::str(if built { "built" } else { "cloned" }));
        }
        let (trace, shared) = self.shared_trace(gen);
        span.arg("trace", Json::str(if shared { "shared" } else { "materialized" }));
        Ok(Arc::new(PreparedWorkload { asp: Arc::new(asp), trace }))
    }

    /// `memory_bytes` of physical memory fragmented by the RNG seeded
    /// `rng_seed`: a clone of this cache's snapshot for that key, which
    /// the first caller builds while concurrent callers wait. While the
    /// cache is disabled, fragments afresh. Either way the allocator is
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// The fragmentation's [`MemError`], kept with the snapshot.
    pub(crate) fn fragmented_memory(
        &self,
        memory_bytes: u64,
        rng_seed: u64,
    ) -> Result<BuddyAllocator, MemError> {
        if !self.enabled() {
            return crate::runner::fragmented_memory(memory_bytes, rng_seed);
        }
        self.fragment_snapshot(memory_bytes, rng_seed).0
    }

    /// A clone of the snapshot for `(memory_bytes, rng_seed)`, and whether
    /// this call built it.
    fn fragment_snapshot(
        &self,
        memory_bytes: u64,
        rng_seed: u64,
    ) -> (Result<BuddyAllocator, MemError>, bool) {
        let cell = Arc::clone(
            self.fragments
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry((memory_bytes, rng_seed))
                .or_default(),
        );
        let mut built = false;
        let snapshot = cell.get_or_init(|| {
            built = true;
            self.fragment_builds.fetch_add(1, Ordering::Relaxed);
            crate::runner::fragmented_memory(memory_bytes, rng_seed)
        });
        (snapshot.clone(), built)
    }

    /// The materialized trace of `gen`, and whether it was shared: the
    /// live trace of an equal generator if there is one, else
    /// materialized now and published for the next.
    fn shared_trace(&self, gen: TraceGen) -> (Arc<MaterializedTrace>, bool) {
        let key = gen.state_fingerprint();
        let cell = {
            let mut traces = self.traces.lock().unwrap_or_else(PoisonError::into_inner);
            // Forget slots whose trace died. Only a caller holding a
            // clone of a slot locks it, so this never blocks.
            traces.retain(|_, cell| {
                Arc::strong_count(cell) > 1
                    || cell.lock().unwrap_or_else(PoisonError::into_inner).strong_count() > 0
            });
            Arc::clone(traces.entry(key).or_default())
        };
        let mut slot = cell.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(trace) = slot.upgrade() {
            self.shared_traces.fetch_add(1, Ordering::Relaxed);
            return (trace, true);
        }
        let trace = Arc::new(MaterializedTrace::from_gen(gen));
        *slot = Arc::downgrade(&trace);
        (trace, false)
    }

    /// The prepared state of a whole mix; see the free
    /// [`get_or_prepare_mix`].
    pub(crate) fn get_or_prepare_mix(
        &self,
        mix_name: &str,
        cond: &Condition,
        prepare: impl FnOnce(&PrepCache) -> Arc<PreparedMix>,
    ) -> Arc<PreparedMix> {
        if !self.enabled() {
            return prepare(self);
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
        let mix = prepare(self);
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
            fragment_builds: self.fragment_builds.load(Ordering::Relaxed),
            shared_traces: self.shared_traces.load(Ordering::Relaxed),
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
            ("fragment_builds", Json::u64(s.fragment_builds)),
            ("shared_traces", Json::u64(s.shared_traces)),
            ("entries", Json::u64(s.entries as u64)),
        ])
    }

    /// Add counts made elsewhere to this cache's counters, in
    /// [`PrepCacheStats`] field order: a process-isolation supervisor
    /// folds in what its workers report.
    pub fn add_counts(&self, hits: u64, misses: u64, fragment_builds: u64, shared_traces: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.fragment_builds.fetch_add(fragment_builds, Ordering::Relaxed);
        self.shared_traces.fetch_add(shared_traces, Ordering::Relaxed);
    }

    /// Drop all entries, snapshots and trace slots, and zero the
    /// counters. The enable switch is kept.
    pub fn clear(&self) {
        *self.singles.lock().unwrap_or_else(PoisonError::into_inner) = CacheState::default();
        self.mixes.lock().unwrap_or_else(PoisonError::into_inner).clear();
        self.fragments.lock().unwrap_or_else(PoisonError::into_inner).clear();
        self.traces.lock().unwrap_or_else(PoisonError::into_inner).clear();
        for counter in [&self.hits, &self.misses, &self.fragment_builds, &self.shared_traces] {
            counter.store(0, Ordering::Relaxed);
        }
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

/// Prepare `(spec, cond)` from scratch, sharing nothing.
fn prepare_fresh(spec: &WorkloadSpec, cond: &Condition) -> CacheResult {
    let PreparedRun { asp, trace } = try_prepare_run(spec, cond)?;
    Ok(Arc::new(PreparedWorkload {
        asp: Arc::new(asp),
        trace: Arc::new(MaterializedTrace::from_gen(trace)),
    }))
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
/// the cache is disabled), and takes its fragmented memory from the
/// cache it is given. Used by [`crate::multicore::run_mix`].
///
/// The closure-based shape keeps mix preparation (shared buddy
/// allocator, per-process traces) in the multicore module while the
/// caching/concurrency policy lives here, shared with the single-core
/// path.
pub(crate) fn get_or_prepare_mix(
    mix_name: &str,
    cond: &Condition,
    prepare: impl FnOnce(&PrepCache) -> Arc<PreparedMix>,
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
    /// Fragmented snapshots built: one per `(memory_bytes, rng_seed)`
    /// between clears.
    pub fragment_builds: u64,
    /// Preparations that reused a live trace instead of materializing
    /// their own.
    pub shared_traces: u64,
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

/// Add a worker process's counts to the process-wide counters (see
/// [`PrepCache::add_counts`]). Entries stay the parent's own.
pub fn add_counts(hits: u64, misses: u64, fragment_builds: u64, shared_traces: u64) {
    global().add_counts(hits, misses, fragment_builds, shared_traces);
}

/// `memory_bytes` of physical memory fragmented by the RNG seeded
/// `rng_seed`, from the process-wide cache's snapshots (see
/// [`PrepCache::fragmented_memory`]).
///
/// # Errors
///
/// The fragmentation's [`MemError`].
pub(crate) fn fragmented_memory(
    memory_bytes: u64,
    rng_seed: u64,
) -> Result<BuddyAllocator, MemError> {
    global().fragmented_memory(memory_bytes, rng_seed)
}

/// Drop all entries and snapshots of the process-wide cache and zero its
/// counters (integration tests and long-lived drivers that want fresh
/// accounting).
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
        for field in [
            "\"enabled\"",
            "\"hits\"",
            "\"misses\"",
            "\"fragment_builds\"",
            "\"shared_traces\"",
            "\"entries\"",
        ] {
            assert!(rendered.contains(field), "{rendered}");
        }
    }

    /// The page table's mappings in VPN order (its `Debug` order follows
    /// its hash maps and varies between equal tables).
    fn sorted_mappings(asp: &AddressSpace) -> Vec<(u64, sipt_mem::Mapping)> {
        let mut mappings: Vec<_> =
            asp.page_table().iter().map(|(vpn, mapping)| (vpn.raw(), mapping)).collect();
        mappings.sort_unstable_by_key(|&(vpn, _)| vpn);
        mappings
    }

    /// Fig 18's four conditions at quick scale.
    fn quick_sensitivity_conditions() -> Vec<(&'static str, Condition)> {
        let quick = Condition::quick();
        Condition::sensitivity_sweep()
            .into_iter()
            .map(|(label, cond)| {
                (
                    label,
                    Condition { instructions: quick.instructions, warmup: quick.warmup, ..cond },
                )
            })
            .collect()
    }

    /// For each spec, in turn: every Fig 18 condition's shared
    /// preparation equals the fresh [`try_prepare_run`] (trace and page
    /// table), and the four pairs hold one trace for a Burst or Chunked
    /// spec and two for an Incremental one, whose churn draws depend on
    /// the fragmented free lists.
    fn check_shared_preparation(specs: &[WorkloadSpec]) {
        use sipt_workloads::AllocPattern;
        // Capacity 4 keeps one spec's four pairs resident.
        let cache = PrepCache::with_capacity(4);
        let mut want_shared = 0;
        for spec in specs {
            let mut distinct: Vec<Arc<MaterializedTrace>> = Vec::new();
            for (label, cond) in quick_sensitivity_conditions() {
                let shared = cache.get_or_prepare(spec, &cond).unwrap();
                let fresh = try_prepare_run(spec, &cond).unwrap();
                let what = format!("{} {label}", spec.name);
                assert_eq!(
                    *shared.trace,
                    MaterializedTrace::from_gen(fresh.trace),
                    "{what}: trace"
                );
                assert_eq!(
                    sorted_mappings(&shared.asp),
                    sorted_mappings(&fresh.asp),
                    "{what}: page table"
                );
                if !distinct.iter().any(|d| Arc::ptr_eq(d, &shared.trace)) {
                    distinct.push(Arc::clone(&shared.trace));
                }
            }
            let want = match spec.alloc {
                AllocPattern::Burst | AllocPattern::Chunked { .. } => 1,
                AllocPattern::Incremental { .. } => 2,
            };
            assert_eq!(distinct.len(), want, "{}: distinct traces over 4 conditions", spec.name);
            want_shared += 4 - want as u64;
        }
        let s = cache.stats();
        assert_eq!((s.fragment_builds, s.shared_traces), (1, want_shared), "{s:?}");
    }

    // The roster is checked in two halves so the test harness can run
    // them side by side.
    #[test]
    fn shared_preparation_equals_fresh_on_the_first_half_of_the_roster() {
        let (first, _) = sipt_workloads::BENCHMARKS.split_at(sipt_workloads::BENCHMARKS.len() / 2);
        check_shared_preparation(first);
    }

    #[test]
    fn shared_preparation_equals_fresh_on_the_second_half_of_the_roster() {
        let (_, second) = sipt_workloads::BENCHMARKS.split_at(sipt_workloads::BENCHMARKS.len() / 2);
        check_shared_preparation(second);
    }

    #[test]
    fn concurrent_fragmented_preparations_build_the_snapshot_once() {
        let cache = PrepCache::with_capacity(64);
        let cond = Condition { fragmented: true, ..Condition::quick() };
        let names =
            ["sjeng", "h264ref", "gobmk", "hmmer", "povray", "gamess", "bzip2", "exchange2_17"];
        // All eight ask at once, so seven find the snapshot being built.
        let start = std::sync::Barrier::new(names.len());
        let prepared: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = names
                .iter()
                .map(|name| {
                    let (cache, cond, start) = (&cache, &cond, &start);
                    scope.spawn(move || {
                        let spec = benchmark(name).unwrap();
                        start.wait();
                        (spec, cache.get_or_prepare(&spec, cond).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = cache.stats();
        assert_eq!((s.misses, s.fragment_builds), (8, 1), "{s:?}");
        for (spec, shared) in &prepared {
            let fresh = try_prepare_run(spec, &cond).unwrap();
            assert_eq!(sorted_mappings(&shared.asp), sorted_mappings(&fresh.asp), "{}", spec.name);
        }
    }

    #[test]
    fn snapshot_clones_equal_a_fresh_fragmentation() {
        let cache = PrepCache::with_capacity(64);
        let (bytes, seed) = (64 << 20, 42 ^ 0xF7A6);
        // The allocated frames, then every free frame in the order the
        // allocator hands them out.
        let state = |mut phys: BuddyAllocator| {
            let frames = phys.total_frames();
            let allocated: Vec<bool> =
                (0..frames).map(|f| phys.is_allocated(sipt_mem::PhysFrameNum::new(f))).collect();
            let handed_out: Vec<_> = std::iter::from_fn(|| phys.alloc(0).ok()).collect();
            (allocated, handed_out)
        };
        let fresh = state(crate::runner::fragmented_memory(bytes, seed).unwrap());
        for _ in 0..2 {
            assert!(state(cache.fragmented_memory(bytes, seed).unwrap()) == fresh);
        }
        let other = state(cache.fragmented_memory(bytes, seed ^ 1).unwrap());
        assert!(other != fresh, "the RNG seed is part of the key");
        assert_eq!(cache.stats().fragment_builds, 2);
        cache.clear();
        let _ = cache.fragmented_memory(bytes, seed).unwrap();
        assert_eq!(cache.stats().fragment_builds, 1, "clear drops the snapshots");
    }

    #[test]
    fn disabled_cache_shares_no_snapshot_and_no_trace() {
        let cache = PrepCache::with_capacity(64);
        cache.set_enabled(false);
        let spec = benchmark("sjeng").unwrap();
        let normal = Condition::quick();
        let fragmented = Condition { fragmented: true, ..normal };
        let a = cache.get_or_prepare(&spec, &normal).unwrap();
        let b = cache.get_or_prepare(&spec, &fragmented).unwrap();
        assert!(!Arc::ptr_eq(&a.trace, &b.trace));
        assert_eq!(a.trace, b.trace, "sjeng's trace does not depend on the condition");
        let _ = cache.fragmented_memory(64 << 20, 7).unwrap();
        let s = cache.stats();
        assert_eq!((s.fragment_builds, s.shared_traces), (0, 0));
    }

    #[test]
    fn the_trace_map_keeps_no_trace_alive() {
        // Capacity 1: preparing the THP-off pair evicts the Normal one.
        let cache = PrepCache::with_capacity(1);
        let spec = benchmark("sjeng").unwrap();
        let normal = Condition::quick();
        let thp_off = Condition { placement: sipt_mem::PlacementPolicy::ThpOff, ..normal };

        let held = cache.get_or_prepare(&spec, &normal).unwrap();
        let shared = cache.get_or_prepare(&spec, &thp_off).unwrap();
        assert!(Arc::ptr_eq(&held.trace, &shared.trace), "a held trace is shared");
        assert_eq!(cache.stats().shared_traces, 1);

        drop((held, shared));
        cache.get_or_prepare(&spec, &normal).unwrap();
        assert_eq!(cache.stats().shared_traces, 1, "an evicted, unheld trace is not kept");
        assert_eq!(cache.traces.lock().unwrap().len(), 1, "dead slots are forgotten");
    }
}
