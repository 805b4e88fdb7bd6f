//! The SIPT L1 data-cache front-end — the paper's contribution.
//!
//! [`SiptL1::access`] models one load/store: it forms a (possibly
//! speculative) set index, probes the array, classifies the speculation
//! outcome, and reports the latency the core observes. The caller (a
//! `sipt-sim` machine) owns the TLB and the lower hierarchy: it passes in
//! the resolved translation and TLB latency, and services misses/fills.
//!
//! Timing rules (paper §IV, Fig 4):
//!
//! - **fast access** — speculation correct (or policy non-speculative with
//!   overlap): data after `max(l1_latency, tlb_latency)` cycles;
//! - **bypass / PIPT** — wait for translation, then access:
//!   `tlb_latency + l1_latency`;
//! - **slow (replayed) access** — misspeculation discovered at the tag
//!   check, repeat with physical index:
//!   `max(l1_latency, tlb_latency) + l1_latency`, plus one wasted array
//!   read that costs energy and occupies the port.

use crate::config::{BypassKind, L1Config, L1Policy};
use crate::outcome::{L1Access, SiptStats, SpeculationOutcome};
use crate::telemetry::{AccessRecord, BlockTelemetry, L1Telemetry};
use sipt_cache::{CacheArray, Evicted, LineAddr, WayPredStats, WayPredictor, LINE_SHIFT};
use sipt_mem::{PageSize, Translation, VirtAddr, PAGE_SHIFT};
use sipt_predictors::PredictorBank;
use sipt_telemetry::SpecEventKind;

/// Compile-time selection of an [`L1Policy`].
///
/// [`SiptL1::access_mono`] is generic over this trait; a block-replay
/// kernel matches on the runtime policy once per run and instantiates its
/// inner loop with the corresponding [`policy_tags`] ZST, removing the
/// per-access policy dispatch. (Replacement is already monomorphized
/// inside `sipt_cache::CacheArray` via its `Replacement` enum.)
pub trait PolicyTag {
    /// The policy this tag selects.
    const POLICY: L1Policy;
}

/// Zero-sized [`PolicyTag`] types, one per [`L1Policy`] variant.
pub mod policy_tags {
    use super::{L1Policy, PolicyTag};

    macro_rules! tag {
        ($(#[$doc:meta])* $name:ident => $variant:ident) => {
            $(#[$doc])*
            #[derive(Debug, Clone, Copy)]
            pub struct $name;
            impl PolicyTag for $name {
                const POLICY: L1Policy = L1Policy::$variant;
            }
        };
    }
    tag!(/** Tag for [`L1Policy::Vipt`]. */ Vipt => Vipt);
    tag!(/** Tag for [`L1Policy::Ideal`]. */ Ideal => Ideal);
    tag!(/** Tag for [`L1Policy::Pipt`]. */ Pipt => Pipt);
    tag!(/** Tag for [`L1Policy::SiptNaive`]. */ SiptNaive => SiptNaive);
    tag!(/** Tag for [`L1Policy::SiptBypass`]. */ SiptBypass => SiptBypass);
    tag!(/** Tag for [`L1Policy::SiptCombined`]. */ SiptCombined => SiptCombined);
}

/// The SIPT-capable L1 data cache.
///
/// All PC-indexed predictor state (bypass perceptron or counter, plus the
/// IDB) lives in one fused [`PredictorBank`]: each speculative access
/// hashes the PC once and touches a single interleaved row instead of
/// chasing three separately-hashed tables.
#[derive(Debug)]
pub struct SiptL1 {
    config: L1Config,
    array: CacheArray,
    way_pred: Option<WayPredictor>,
    bank: PredictorBank,
    stats: SiptStats,
    telemetry: Option<Box<L1Telemetry>>,
}

impl SiptL1 {
    /// Build an L1 from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`L1Config::validate`]).
    pub fn new(config: L1Config) -> Self {
        config.validate();
        let geometry = config.geometry;
        Self {
            array: CacheArray::new(geometry, config.replacement),
            way_pred: config
                .way_prediction
                .then(|| WayPredictor::new(geometry.sets(), geometry.ways)),
            bank: PredictorBank::new(config.perceptron, config.idb_config(), config.counter),
            config,
            stats: SiptStats::default(),
            telemetry: None,
        }
    }

    /// Attach per-access telemetry (metrics + event trace retaining at
    /// most `trace_capacity` events). Replaces any existing attachment.
    pub fn attach_telemetry(&mut self, trace_capacity: usize) {
        self.telemetry = Some(Box::new(L1Telemetry::new(trace_capacity)));
    }

    /// Like [`SiptL1::attach_telemetry`], with the event tracer sampling
    /// 1-in-`sample_every` accesses (the flight-recorder configuration;
    /// metrics stay exact). Replaces any existing attachment.
    pub fn attach_telemetry_sampled(&mut self, trace_capacity: usize, sample_every: u64) {
        self.telemetry = Some(Box::new(L1Telemetry::new_sampled(trace_capacity, sample_every)));
    }

    /// Borrow the attached telemetry, if any.
    pub fn telemetry(&self) -> Option<&L1Telemetry> {
        self.telemetry.as_deref()
    }

    /// Detach and return the telemetry bundle (e.g. at end of run).
    pub fn take_telemetry(&mut self) -> Option<L1Telemetry> {
        self.telemetry.take().map(|b| *b)
    }

    /// The configuration in force.
    pub fn config(&self) -> &L1Config {
        &self.config
    }

    /// Number of speculative index bits this cache uses.
    pub fn speculative_bits(&self) -> u32 {
        self.config.speculative_bits()
    }

    /// Perform one demand access.
    ///
    /// `tlb_cycles` is the latency after which the physical address is
    /// available (from the machine's TLB model); `translation` is the
    /// resolved translation for `va`. Returns hit/latency/outcome; on a
    /// miss the caller services the lower hierarchy and then calls
    /// [`SiptL1::fill`].
    pub fn access(
        &mut self,
        pc: u64,
        va: VirtAddr,
        translation: Translation,
        tlb_cycles: u64,
        write: bool,
    ) -> L1Access {
        self.access_impl(self.config.policy, pc, va, translation, tlb_cycles, write)
    }

    /// [`SiptL1::access`] with the policy fixed at compile time via a
    /// [`PolicyTag`]. Block-replay kernels dispatch once per run and call
    /// this in their inner loop, so the two policy matches below
    /// constant-fold away. Behaviour is identical to [`SiptL1::access`];
    /// the tag must match the configured policy (debug-asserted).
    #[inline]
    pub fn access_mono<P: PolicyTag>(
        &mut self,
        pc: u64,
        va: VirtAddr,
        translation: Translation,
        tlb_cycles: u64,
        write: bool,
    ) -> L1Access {
        debug_assert_eq!(P::POLICY, self.config.policy, "policy tag must match the configuration");
        self.access_impl(P::POLICY, pc, va, translation, tlb_cycles, write)
    }

    /// [`SiptL1::access_mono`] for the block-replay kernel's telemetry
    /// block mode: the access is recorded into the caller's block-local
    /// [`BlockTelemetry`] instead of the attached [`L1Telemetry`], which
    /// the kernel flushes once per block via
    /// [`SiptL1::flush_block_telemetry`]. Only valid while
    /// [`SiptL1::telemetry_block_eligible`] holds (debug-asserted);
    /// the combination is byte-identical to [`SiptL1::access_mono`].
    #[inline]
    pub fn access_mono_block<P: PolicyTag>(
        &mut self,
        pc: u64,
        va: VirtAddr,
        translation: Translation,
        tlb_cycles: u64,
        write: bool,
        blk: &mut BlockTelemetry,
    ) -> L1Access {
        debug_assert_eq!(P::POLICY, self.config.policy, "policy tag must match the configuration");
        debug_assert!(
            self.telemetry_block_eligible(),
            "block-mode access without an eligible telemetry attachment"
        );
        let (access, record) = self.access_core(P::POLICY, pc, va, translation, tlb_cycles, write);
        blk.record(&record);
        access
    }

    /// Whether the attached telemetry (if any) can be fed in block mode:
    /// zero-capacity tracer and no sampling, so per-block accumulation
    /// loses nothing. `false` when no telemetry is attached (there is
    /// nothing to accumulate into — use plain [`SiptL1::access_mono`]).
    pub fn telemetry_block_eligible(&self) -> bool {
        self.telemetry.as_deref().is_some_and(L1Telemetry::block_mode_eligible)
    }

    /// Drain a block accumulator into the attached telemetry (no-op
    /// without an attachment — but block mode is only entered when
    /// [`SiptL1::telemetry_block_eligible`], which requires one).
    pub fn flush_block_telemetry(&mut self, blk: &mut BlockTelemetry) {
        if let Some(t) = &mut self.telemetry {
            t.merge_block(blk);
        }
    }

    /// The shared body of [`SiptL1::access`] / [`SiptL1::access_mono`]:
    /// `policy` always equals `self.config.policy`, passed explicitly so
    /// the monomorphized entry makes it a compile-time constant.
    #[inline(always)]
    fn access_impl(
        &mut self,
        policy: L1Policy,
        pc: u64,
        va: VirtAddr,
        translation: Translation,
        tlb_cycles: u64,
        write: bool,
    ) -> L1Access {
        let (access, record) = self.access_core(policy, pc, va, translation, tlb_cycles, write);
        if let Some(t) = &mut self.telemetry {
            t.record(&record);
        }
        access
    }

    /// The policy/timing/array body shared by every access entry point.
    /// Returns the access result together with its telemetry record; the
    /// record is a handful of register writes and folds away entirely at
    /// call sites that discard it.
    #[inline(always)]
    fn access_core(
        &mut self,
        policy: L1Policy,
        pc: u64,
        va: VirtAddr,
        translation: Translation,
        tlb_cycles: u64,
        write: bool,
    ) -> (L1Access, AccessRecord) {
        let n = self.speculative_bits();
        let va_bits = va.index_bits(n);
        let pa_bits = translation.pa.index_bits(n);
        let unchanged = va_bits == pa_bits;
        let l1 = self.config.latency;

        // --- speculation decision & classification -----------------------
        // `margin`/`used_idb`/`observed_delta` feed the optional telemetry
        // attachment; they cost a few register writes when it is off.
        // Each predictor-driven arm funnels through one fused bank entry
        // (single row hash, predict+train in one call); operation order
        // and statistics match the historical scalar composition exactly.
        let mut margin = 0u64;
        let mut used_idb = false;
        let mut observed_delta = None;
        let (outcome, speculated_bits) = match policy {
            L1Policy::Vipt | L1Policy::Ideal | L1Policy::Pipt => {
                (SpeculationOutcome::NotSpeculative, pa_bits)
            }
            L1Policy::SiptNaive => (
                if unchanged {
                    SpeculationOutcome::CorrectSpeculation
                } else {
                    SpeculationOutcome::ExtraAccess
                },
                va_bits,
            ),
            L1Policy::SiptBypass => {
                let (speculate, m) = match self.config.bypass {
                    BypassKind::Perceptron => self.bank.perceptron_access(pc, unchanged),
                    BypassKind::Counter => self.bank.counter_access(pc, unchanged),
                };
                margin = m;
                let outcome = match (speculate, unchanged) {
                    (true, true) => SpeculationOutcome::CorrectSpeculation,
                    (true, false) => SpeculationOutcome::ExtraAccess,
                    (false, false) => SpeculationOutcome::CorrectBypass,
                    (false, true) => SpeculationOutcome::OpportunityLoss,
                };
                (outcome, if speculate { va_bits } else { pa_bits })
            }
            L1Policy::SiptCombined => {
                let want_idb = n > 1;
                let observed = if want_idb { translation.index_delta(va, n) } else { 0 };
                let (speculate, delta) = match self.config.bypass {
                    BypassKind::Perceptron => {
                        let out =
                            self.bank.combined_access(pc, unchanged, want_idb, observed, None);
                        margin = out.margin;
                        (out.speculate, out.delta)
                    }
                    BypassKind::Counter => {
                        // The counter and IDB are independent tables, so
                        // fusing the counter's predict/update around the
                        // IDB operations commutes with the historical
                        // interleaving.
                        let (speculate, m) = self.bank.counter_access(pc, unchanged);
                        margin = m;
                        let delta =
                            if !speculate && want_idb { self.bank.idb_predict(pc) } else { 0 };
                        if want_idb {
                            self.bank.idb_update(pc, observed);
                        }
                        (speculate, delta)
                    }
                };
                used_idb = !speculate;
                let bits = if speculate {
                    va_bits
                } else if n == 1 {
                    // Reversed bypass prediction: flip the single bit.
                    va_bits ^ 1
                } else {
                    self.bank.idb_apply(va_bits, delta)
                };
                if want_idb {
                    observed_delta = Some(observed);
                }
                let outcome = if speculate {
                    if unchanged {
                        SpeculationOutcome::CorrectSpeculation
                    } else {
                        SpeculationOutcome::ExtraAccess
                    }
                } else if bits == pa_bits {
                    SpeculationOutcome::IdbHit
                } else {
                    SpeculationOutcome::ExtraAccess
                };
                (outcome, bits)
            }
        };

        // --- timing -------------------------------------------------------
        let mut latency = match policy {
            L1Policy::Pipt => tlb_cycles + l1,
            L1Policy::Vipt | L1Policy::Ideal => l1.max(tlb_cycles),
            _ => match outcome {
                SpeculationOutcome::CorrectSpeculation | SpeculationOutcome::IdbHit => {
                    l1.max(tlb_cycles)
                }
                SpeculationOutcome::CorrectBypass | SpeculationOutcome::OpportunityLoss => {
                    tlb_cycles + l1
                }
                SpeculationOutcome::ExtraAccess => {
                    l1.max(tlb_cycles) + l1 + self.config.replay_penalty
                }
                SpeculationOutcome::NotSpeculative => unreachable!("covered above"),
            },
        };
        let mut array_reads: u32 = if outcome.is_extra_access() { 2 } else { 1 };

        // --- array contents -----------------------------------------------
        // The speculative probe of a wrong set always misses (full-address
        // tags); the demand outcome is decided by the home-set probe.
        let pa_line = LineAddr::of_phys(translation.pa);
        let home_set = self.array.home_set(pa_line);
        debug_assert_eq!(
            home_set,
            Self::set_from_bits(va, pa_bits, self.array.geometry().index_bits()),
            "home set must equal the offset-bits index combined with PA index bits"
        );
        let hit = match self.array.lookup(home_set, pa_line) {
            Some(way) => {
                if write {
                    self.array.set_dirty(home_set, way);
                }
                if let Some(wp) = &mut self.way_pred {
                    let predicted = wp.predict(home_set);
                    wp.record_hit(home_set, way);
                    if predicted != way {
                        // Second probe of the remaining ways.
                        latency += l1;
                        array_reads += 1;
                    }
                }
                true
            }
            None => false,
        };

        let access = L1Access { hit, latency, array_reads, outcome };
        self.stats.record(&access);

        let kind = match outcome {
            SpeculationOutcome::CorrectSpeculation => SpecEventKind::FastHit,
            SpeculationOutcome::ExtraAccess if used_idb => SpecEventKind::IdbMispredict,
            SpeculationOutcome::ExtraAccess => SpecEventKind::Replay,
            SpeculationOutcome::CorrectBypass => SpecEventKind::BypassWait,
            SpeculationOutcome::OpportunityLoss => SpecEventKind::OpportunityLoss,
            SpeculationOutcome::IdbHit => SpecEventKind::IdbCorrected,
            SpeculationOutcome::NotSpeculative => SpecEventKind::NotSpeculative,
        };
        let record = AccessRecord {
            pc,
            kind,
            speculated_bits,
            actual_bits: pa_bits,
            latency,
            margin,
            hit,
            observed_delta,
            huge_page: translation.page_size == PageSize::Huge2M,
            tlb_cold: tlb_cycles > l1,
        };
        (access, record)
    }

    /// Reconstruct the set index from the page-offset part of `va` and
    /// explicit index bits beyond the page offset (debug cross-check).
    fn set_from_bits(va: VirtAddr, beyond_page_bits: u64, index_bits: u32) -> u64 {
        let offset_part_bits = (PAGE_SHIFT - LINE_SHIFT).min(index_bits);
        let offset_part = (va.raw() >> LINE_SHIFT) & ((1 << offset_part_bits) - 1);
        if index_bits <= offset_part_bits {
            offset_part
        } else {
            (beyond_page_bits << offset_part_bits | offset_part) & ((1 << index_bits) - 1)
        }
    }

    /// Fill a line after the lower hierarchy serviced a miss. Returns the
    /// evicted line (the caller forwards dirty evictions as writebacks).
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Evicted> {
        let (way, evicted) = self.array.fill_with_way(line, dirty);
        if let Some(wp) = &mut self.way_pred {
            let set = self.array.home_set(line);
            wp.record_miss(set, way);
        }
        if evicted.is_some_and(|e| e.dirty) {
            self.stats.writebacks += 1;
        }
        evicted
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> SiptStats {
        self.stats
    }

    /// Way-prediction statistics, if way prediction is enabled.
    pub fn way_pred_stats(&self) -> Option<WayPredStats> {
        self.way_pred.as_ref().map(WayPredictor::stats)
    }

    /// Reset all statistics (contents and predictor state kept). Any
    /// attached telemetry restarts empty at the same trace capacity, so
    /// post-warmup metrics cover the measured interval only.
    pub fn reset_stats(&mut self) {
        self.stats = SiptStats::default();
        if let Some(wp) = &mut self.way_pred {
            wp.reset_stats();
        }
        if let Some(t) = &mut self.telemetry {
            **t = L1Telemetry::new_sampled(t.tracer.capacity(), t.sample_every());
        }
    }

    /// Borrow the underlying array (inspection/tests).
    pub fn array(&self) -> &CacheArray {
        &self.array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{baseline_32k_8w_vipt, sipt_128k_4w, sipt_32k_2w, sipt_32k_4w};
    use sipt_mem::{PageSize, PhysAddr, PhysFrameNum};

    /// Build a translation with an explicit VPN→PFN pair.
    fn xlate(va: VirtAddr, pfn: u64) -> Translation {
        Translation {
            pa: PhysAddr::new((pfn << PAGE_SHIFT) | va.page_offset()),
            pfn: PhysFrameNum::new(pfn),
            page_size: PageSize::Base4K,
        }
    }

    const TLB_LAT: u64 = 2;

    #[test]
    fn naive_fast_access_when_bits_unchanged() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::SiptNaive));
        let va = VirtAddr::new(0x5000);
        let a = l1.access(0x40, va, xlate(va, 0x5), TLB_LAT, false);
        assert_eq!(a.outcome, SpeculationOutcome::CorrectSpeculation);
        assert_eq!(a.latency, 2); // max(l1=2, tlb=2)
        assert_eq!(a.array_reads, 1);
        assert!(!a.hit, "cold cache");
    }

    #[test]
    fn naive_replay_when_bits_change() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::SiptNaive));
        // VA index bits (2 bits above offset) = 0b01; PFN 0b10 → changed.
        let va = VirtAddr::new(0x1000);
        let a = l1.access(0x40, va, xlate(va, 0b10), TLB_LAT, false);
        assert_eq!(a.outcome, SpeculationOutcome::ExtraAccess);
        assert_eq!(a.latency, 2 + 2);
        assert_eq!(a.array_reads, 2);
        assert_eq!(l1.stats().extra_accesses, 1);
    }

    #[test]
    fn vipt_and_ideal_overlap_translation() {
        for cfg in [baseline_32k_8w_vipt(), sipt_32k_2w().with_policy(L1Policy::Ideal)] {
            let lat = cfg.latency;
            let mut l1 = SiptL1::new(cfg);
            let va = VirtAddr::new(0x1234);
            let a = l1.access(0, va, xlate(va, 99), TLB_LAT, false);
            assert_eq!(a.outcome, SpeculationOutcome::NotSpeculative);
            assert_eq!(a.latency, lat.max(TLB_LAT));
        }
    }

    #[test]
    fn pipt_serializes_translation() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::Pipt));
        let va = VirtAddr::new(0x1234);
        let a = l1.access(0, va, xlate(va, 99), 9, false);
        assert_eq!(a.latency, 9 + 2);
    }

    #[test]
    fn slow_tlb_stalls_even_fast_accesses() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::SiptNaive));
        let va = VirtAddr::new(0x5000);
        let a = l1.access(0, va, xlate(va, 0x5), 59, false); // TLB walk
        assert_eq!(a.outcome, SpeculationOutcome::CorrectSpeculation);
        assert_eq!(a.latency, 59, "tag check cannot complete before the PA exists");
    }

    #[test]
    fn hit_after_fill() {
        let mut l1 = SiptL1::new(sipt_32k_2w());
        let va = VirtAddr::new(0x5040);
        let t = xlate(va, 0x5);
        let a = l1.access(0, va, t, TLB_LAT, false);
        assert!(!a.hit);
        l1.fill(LineAddr::of_phys(t.pa), false);
        let b = l1.access(0, va, t, TLB_LAT, false);
        assert!(b.hit);
        assert_eq!(l1.stats().hits, 1);
    }

    #[test]
    fn bypass_predictor_learns_stable_pc() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::SiptBypass));
        // PC 0x10 always has unchanged bits; PC 0x20 always changed.
        let va_ok = VirtAddr::new(0x5000);
        let va_bad = VirtAddr::new(0x1000);
        for _ in 0..100 {
            l1.access(0x10, va_ok, xlate(va_ok, 0x5), TLB_LAT, false);
            l1.access(0x20, va_bad, xlate(va_bad, 0b10), TLB_LAT, false);
        }
        let s = l1.stats();
        // After warmup, PC 0x10 → correct speculation, 0x20 → correct
        // bypass; transients only at the start.
        assert!(s.correct_speculation > 90, "correct_speculation = {}", s.correct_speculation);
        assert!(s.correct_bypass > 90, "correct_bypass = {}", s.correct_bypass);
        assert!(s.extra_accesses + s.opportunity_loss < 20);
    }

    #[test]
    fn bypass_never_replays_on_correct_bypass() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::SiptBypass));
        let va = VirtAddr::new(0x1000);
        for _ in 0..50 {
            l1.access(0x20, va, xlate(va, 0b10), TLB_LAT, false);
        }
        let s = l1.stats();
        assert_eq!(s.array_reads, s.accesses + s.extra_accesses);
    }

    #[test]
    fn combined_one_bit_uses_reversed_prediction() {
        // 32 KiB 4-way: a single speculative bit, no IDB involved.
        let mut l1 = SiptL1::new(sipt_32k_4w());
        assert_eq!(l1.speculative_bits(), 1);
        // This PC's bit always flips (VA bit 0 of page number = 1, PA = 0).
        let va = VirtAddr::new(0x1000);
        for _ in 0..100 {
            l1.access(0x30, va, xlate(va, 0b0), TLB_LAT, false);
        }
        let s = l1.stats();
        assert!(s.idb_hits > 80, "reversed prediction should convert to fast: {s:?}");
        assert!(s.fast_fraction() > 0.8);
    }

    #[test]
    fn combined_idb_learns_constant_delta() {
        let mut l1 = SiptL1::new(sipt_32k_2w());
        assert_eq!(l1.speculative_bits(), 2);
        // Walk a "region" where PFN = VPN + 3 (constant delta 3 mod 4).
        for i in 0..200u64 {
            let vpn = 0x100 + (i % 16);
            let va = VirtAddr::new(vpn << PAGE_SHIFT | 0x80);
            l1.access(0x44, va, xlate(va, vpn + 3), TLB_LAT, false);
        }
        let s = l1.stats();
        assert!(s.fast_fraction() > 0.9, "constant-delta region must be predicted: {s:?}");
        assert!(s.idb_hits > 150, "IDB hits = {}", s.idb_hits);
    }

    #[test]
    fn combined_three_bits() {
        let mut l1 = SiptL1::new(sipt_128k_4w());
        assert_eq!(l1.speculative_bits(), 3);
        for i in 0..300u64 {
            let vpn = 0x200 + (i % 32);
            let va = VirtAddr::new(vpn << PAGE_SHIFT);
            l1.access(0x55, va, xlate(va, vpn + 5), TLB_LAT, false);
        }
        assert!(l1.stats().fast_fraction() > 0.85, "{:?}", l1.stats());
    }

    #[test]
    fn way_misprediction_costs_a_second_read() {
        let cfg = baseline_32k_8w_vipt().with_way_prediction(true);
        let mut l1 = SiptL1::new(cfg);
        // Two lines in the same set: alternate between them.
        let va_a = VirtAddr::new(0x0040);
        let va_b = VirtAddr::new(0x0040 + (64 << 6)); // same set (64 sets), different tag
        let ta = xlate(va_a, 0x10);
        let tb = xlate(va_b, 0x11);
        l1.access(0, va_a, ta, TLB_LAT, false);
        l1.fill(LineAddr::of_phys(ta.pa), false);
        l1.access(0, va_b, tb, TLB_LAT, false);
        l1.fill(LineAddr::of_phys(tb.pa), false);
        // Alternating hits: the MRU way is always the *other* line.
        let h1 = l1.access(0, va_a, ta, TLB_LAT, false);
        assert!(h1.hit);
        assert_eq!(h1.array_reads, 2, "MRU mispredict reads twice");
        assert_eq!(h1.latency, 4 + 4);
        let wp = l1.way_pred_stats().unwrap();
        assert_eq!(wp.wrong, 1);
        // Re-access the same line: now predicted correctly.
        let h2 = l1.access(0, va_a, ta, TLB_LAT, false);
        assert_eq!(h2.array_reads, 1);
        assert_eq!(l1.way_pred_stats().unwrap().correct, 1);
    }

    #[test]
    fn writebacks_counted_on_dirty_eviction() {
        let mut l1 = SiptL1::new(sipt_32k_2w());
        let sets = l1.array().geometry().sets();
        // Fill 3 lines mapping to set 0 (stride = sets lines), dirty.
        for i in 0..3u64 {
            let line = LineAddr(i * sets);
            l1.fill(line, true);
        }
        assert_eq!(l1.stats().writebacks, 1, "2-way set overflows on the 3rd fill");
    }

    #[test]
    fn replay_penalty_charges_only_misspeculations() {
        let cfg = sipt_32k_2w().with_policy(L1Policy::SiptNaive).with_replay_penalty(10);
        let mut l1 = SiptL1::new(cfg);
        // Misspeculation: index bits change.
        let va_bad = VirtAddr::new(0x1000);
        let bad = l1.access(0, va_bad, xlate(va_bad, 0b10), TLB_LAT, false);
        assert_eq!(bad.outcome, SpeculationOutcome::ExtraAccess);
        assert_eq!(bad.latency, 2 + 2 + 10);
        // Correct speculation: no penalty.
        let va_ok = VirtAddr::new(0x5000);
        let ok = l1.access(0, va_ok, xlate(va_ok, 0x5), TLB_LAT, false);
        assert_eq!(ok.latency, 2);
    }

    #[test]
    fn telemetry_classifies_naive_outcomes() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::SiptNaive));
        l1.attach_telemetry(64);
        let va_ok = VirtAddr::new(0x5000);
        let va_bad = VirtAddr::new(0x1000);
        l1.access(0x10, va_ok, xlate(va_ok, 0x5), TLB_LAT, false);
        l1.access(0x20, va_bad, xlate(va_bad, 0b10), TLB_LAT, false);
        let t = l1.telemetry().unwrap();
        let m = t.metrics();
        assert_eq!(m.counter("l1.accesses"), 2);
        assert_eq!(m.counter("l1.fast_hit"), 1);
        assert_eq!(m.counter("l1.replay"), 1);
        assert_eq!(m.histogram("l1.latency").unwrap().count(), 2);
        // The replay's latency lands in the replay histogram.
        let replays = m.histogram("l1.replay_latency").unwrap();
        assert_eq!(replays.count(), 1);
        assert_eq!(replays.max(), Some(4)); // max(2,2) + 2
                                            // Events carry the speculated-vs-actual bits.
        let events: Vec<_> = t.tracer.iter().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].speculated_bits, 0b01);
        assert_eq!(events[1].actual_bits, 0b10);
        assert_eq!(events[1].kind, SpecEventKind::Replay);
    }

    #[test]
    fn telemetry_distinguishes_idb_events_from_replays() {
        let mut l1 = SiptL1::new(sipt_32k_2w()); // combined, 2 bits
        l1.attach_telemetry(1024);
        // Constant-delta region: the IDB learns PFN = VPN + 3.
        for i in 0..100u64 {
            let vpn = 0x100 + (i % 16);
            let va = VirtAddr::new(vpn << PAGE_SHIFT | 0x80);
            l1.access(0x44, va, xlate(va, vpn + 3), TLB_LAT, false);
        }
        let t = l1.telemetry().unwrap();
        assert!(t.metrics().counter("l1.idb_corrected") > 50, "IDB conversions must be traced");
        assert_eq!(
            t.metrics().counter("l1.idb_corrected"),
            l1.stats().idb_hits,
            "telemetry and SiptStats must agree"
        );
        // The observed-delta histogram saw the constant delta 3.
        let m = t.metrics();
        let deltas = m.histogram("l1.idb_delta").unwrap();
        assert_eq!(deltas.count(), 100);
        assert_eq!(deltas.min(), Some(3));
        assert_eq!(deltas.max(), Some(3));
        // Margins were recorded for every speculative access.
        assert_eq!(m.histogram("l1.margin").unwrap().count(), 100);
    }

    #[test]
    fn telemetry_counts_bypass_and_opportunity_loss() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::SiptBypass));
        l1.attach_telemetry(0); // metrics only, no event retention
        let va_ok = VirtAddr::new(0x5000);
        let va_bad = VirtAddr::new(0x1000);
        for _ in 0..100 {
            l1.access(0x10, va_ok, xlate(va_ok, 0x5), TLB_LAT, false);
            l1.access(0x20, va_bad, xlate(va_bad, 0b10), TLB_LAT, false);
        }
        let t = l1.telemetry().unwrap();
        let s = l1.stats();
        assert_eq!(t.metrics().counter("l1.bypass_wait"), s.correct_bypass);
        assert_eq!(t.metrics().counter("l1.opportunity_loss"), s.opportunity_loss);
        assert_eq!(t.metrics().counter("l1.fast_hit"), s.correct_speculation);
        assert!(t.tracer.is_empty(), "capacity 0 retains nothing");
        assert_eq!(t.tracer.recorded(), 200);
    }

    #[test]
    fn telemetry_resets_with_stats_but_survives_detach() {
        let mut l1 = SiptL1::new(sipt_32k_2w());
        l1.attach_telemetry(16);
        let va = VirtAddr::new(0x5040);
        l1.access(0, va, xlate(va, 0x5), TLB_LAT, false);
        assert_eq!(l1.telemetry().unwrap().accesses(), 1);
        l1.reset_stats();
        assert_eq!(l1.telemetry().unwrap().accesses(), 0, "warmup interval discarded");
        assert_eq!(l1.telemetry().unwrap().tracer.capacity(), 16, "capacity preserved");
        l1.access(0, va, xlate(va, 0x5), TLB_LAT, false);
        let taken = l1.take_telemetry().unwrap();
        assert_eq!(taken.accesses(), 1);
        assert!(l1.telemetry().is_none());
        // With telemetry detached the access path still works.
        l1.access(0, va, xlate(va, 0x5), TLB_LAT, false);
    }

    #[test]
    fn mono_access_matches_dynamic_dispatch_for_every_policy() {
        fn run<P: PolicyTag>(cfg: L1Config) {
            let mut dynamic = SiptL1::new(cfg.clone());
            let mut mono = SiptL1::new(cfg);
            for i in 0..500u64 {
                let vpn = 0x40 + (i % 24);
                let va = VirtAddr::new((vpn << PAGE_SHIFT) | ((i % 32) * 0x40));
                // A mix of unchanged and shifted index bits.
                let pfn = if i % 3 == 0 { vpn } else { vpn + 2 };
                let t = xlate(va, pfn);
                let pc = 0x100 + (i % 8) * 4;
                let a = dynamic.access(pc, va, t, TLB_LAT, i % 5 == 0);
                let b = mono.access_mono::<P>(pc, va, t, TLB_LAT, i % 5 == 0);
                assert_eq!(a, b, "access {i}");
                if !a.hit {
                    dynamic.fill(LineAddr::of_phys(t.pa), false);
                    mono.fill(LineAddr::of_phys(t.pa), false);
                }
            }
            assert_eq!(dynamic.stats(), mono.stats());
        }
        run::<policy_tags::Vipt>(baseline_32k_8w_vipt());
        run::<policy_tags::Ideal>(sipt_32k_2w().with_policy(L1Policy::Ideal));
        run::<policy_tags::Pipt>(sipt_32k_2w().with_policy(L1Policy::Pipt));
        run::<policy_tags::SiptNaive>(sipt_32k_2w().with_policy(L1Policy::SiptNaive));
        run::<policy_tags::SiptBypass>(sipt_32k_2w().with_policy(L1Policy::SiptBypass));
        run::<policy_tags::SiptCombined>(sipt_32k_2w());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "policy tag must match")]
    fn mono_access_rejects_mismatched_tag_in_debug() {
        let mut l1 = SiptL1::new(sipt_32k_2w().with_policy(L1Policy::Pipt));
        let va = VirtAddr::new(0x5000);
        let _ = l1.access_mono::<policy_tags::Vipt>(0, va, xlate(va, 0x5), TLB_LAT, false);
    }

    #[test]
    fn stats_reset_keeps_contents_and_training() {
        let mut l1 = SiptL1::new(sipt_32k_2w());
        let va = VirtAddr::new(0x5040);
        let t = xlate(va, 0x5);
        l1.access(0, va, t, TLB_LAT, false);
        l1.fill(LineAddr::of_phys(t.pa), false);
        l1.reset_stats();
        assert_eq!(l1.stats().accesses, 0);
        assert!(l1.access(0, va, t, TLB_LAT, false).hit);
    }
}
