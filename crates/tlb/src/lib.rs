#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sipt-tlb — two-level TLB model for the SIPT reproduction
//!
//! Models the translation path of the paper's simulated systems (Table II):
//! a split L1 D-TLB (64 entries for 4 KiB pages, 32 entries for 2 MiB huge
//! pages, 2-cycle access) backed by a unified 1024-entry L2 TLB (7-cycle),
//! with a fixed-cost page-table walk on an L2 miss.
//!
//! The TLB is what SIPT races against: a VIPT or SIPT cache overlaps the L1
//! TLB lookup with its array access, while a slow (replayed) SIPT access and
//! a PIPT access must serialize behind it.
//!
//! ```
//! use sipt_tlb::{DataTlb, TlbConfig};
//! use sipt_mem::{PageTable, VirtPageNum, PhysFrameNum, PageSize, VirtAddr};
//!
//! let mut pt = PageTable::new();
//! pt.map(VirtPageNum::new(7), PhysFrameNum::new(3), PageSize::Base4K).unwrap();
//! let mut tlb = DataTlb::new(TlbConfig::default());
//! let miss = tlb.translate(VirtAddr::new(0x7abc), &pt).unwrap();
//! let hit = tlb.translate(VirtAddr::new(0x7def), &pt).unwrap();
//! assert!(hit.cycles < miss.cycles);
//! ```

pub mod lru;

use lru::LruSetAssoc;
use sipt_mem::{PageSize, PageTable, Translation, VirtAddr, VirtPageNum, PAGES_PER_HUGE_PAGE};

/// Configuration of the two-level TLB (defaults follow the paper's
/// Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// L1 D-TLB entries for 4 KiB pages.
    pub l1_base_entries: usize,
    /// L1 D-TLB entries for 2 MiB pages.
    pub l1_huge_entries: usize,
    /// Associativity of both L1 structures.
    pub l1_ways: usize,
    /// L1 access latency in cycles.
    pub l1_latency: u64,
    /// Unified L2 TLB entries.
    pub l2_entries: usize,
    /// Associativity of the L2 TLB.
    pub l2_ways: usize,
    /// L2 access latency in cycles (added to the L1 latency on an L1 miss).
    pub l2_latency: u64,
    /// Page-walk latency in cycles (added on an L2 miss).
    pub walk_latency: u64,
}

impl Default for TlbConfig {
    fn default() -> Self {
        Self {
            l1_base_entries: 64,
            l1_huge_entries: 32,
            l1_ways: 4,
            l1_latency: 2,
            l2_entries: 1024,
            l2_ways: 8,
            l2_latency: 7,
            walk_latency: 50,
        }
    }
}

/// Which structure satisfied a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TlbHitLevel {
    /// Hit in the L1 D-TLB — translation available in time for the tag
    /// check of an overlapped cache access.
    L1,
    /// Hit in the unified L2 TLB.
    L2,
    /// Missed both levels; a page-table walk supplied the translation.
    Walk,
}

/// The result of a TLB translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbOutcome {
    /// The translation itself.
    pub translation: Translation,
    /// Where the translation was found.
    pub level: TlbHitLevel,
    /// Total cycles to produce the physical address.
    pub cycles: u64,
}

/// An error translating a virtual address through the TLB: the address is
/// not mapped in the supplied page table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageFault {
    /// The faulting virtual address.
    pub va: VirtAddr,
}

impl core::fmt::Display for PageFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "page fault at {}", self.va)
    }
}

impl std::error::Error for PageFault {}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Translations that hit in the L1 D-TLB.
    pub l1_hits: u64,
    /// Translations that hit in the L2 TLB.
    pub l2_hits: u64,
    /// Translations that required a page walk.
    pub walks: u64,
    /// Page faults (unmapped addresses).
    pub faults: u64,
}

impl TlbStats {
    /// Total translations attempted (excluding faults).
    pub fn total(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.walks
    }

    /// Fraction of translations satisfied by the L1 D-TLB.
    pub fn l1_hit_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.l1_hits as f64 / self.total() as f64
    }
}

/// Key for TLB entries: page number at native granularity, tagged with the
/// granularity so 4 KiB and 2 MiB entries never collide in the unified L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TlbKey {
    page: u64,
    size: PageSize,
}

// L2 probes matter for TLB-thrashing workloads (mcf/omnetpp run with L1
// TLB hit rates far below 99%), so the composite key gets the same
// inlined SipHash-1-3 shortcut as the `u64` L1 keys: the derived `Hash`
// writes the page then the discriminant, each as one 8-byte block, and
// `tlb_key_fast_hash_matches_default_hasher` pins the equivalence.
impl lru::SetIndexKey for TlbKey {
    #[inline]
    fn set_hash(&self) -> u64 {
        lru::siphash13_2xu64(self.page, self.size as u64)
    }
}

/// Cached translation payload: first PFN of the mapping.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    first_pfn: u64,
}

/// The two-level data TLB.
#[derive(Debug, Clone)]
pub struct DataTlb {
    config: TlbConfig,
    l1_base: LruSetAssoc<u64, TlbEntry>,
    l1_huge: LruSetAssoc<u64, TlbEntry>,
    l2: LruSetAssoc<TlbKey, TlbEntry>,
    stats: TlbStats,
}

impl DataTlb {
    /// Create a TLB with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if any entry count is not divisible by its way count.
    pub fn new(config: TlbConfig) -> Self {
        assert!(
            config.l1_base_entries.is_multiple_of(config.l1_ways)
                && config.l1_huge_entries.is_multiple_of(config.l1_ways)
                && config.l2_entries.is_multiple_of(config.l2_ways),
            "entry counts must be divisible by way counts"
        );
        Self {
            l1_base: LruSetAssoc::new(config.l1_base_entries / config.l1_ways, config.l1_ways),
            l1_huge: LruSetAssoc::new(config.l1_huge_entries / config.l1_ways, config.l1_ways),
            l2: LruSetAssoc::new(config.l2_entries / config.l2_ways, config.l2_ways),
            config,
            stats: TlbStats::default(),
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Translate `va` against `page_table`, modelling lookup latency and
    /// maintaining TLB contents.
    ///
    /// # Errors
    ///
    /// Returns [`PageFault`] when no mapping covers `va`; the fault is also
    /// counted in [`TlbStats::faults`].
    pub fn translate(
        &mut self,
        va: VirtAddr,
        page_table: &PageTable,
    ) -> Result<TlbOutcome, PageFault> {
        self.translate_with(va, |va| page_table.translate(va))
    }

    /// Like [`DataTlb::translate`], but the page-table walk is performed
    /// by `walk` — letting callers interpose a software translation cache
    /// (`sipt_mem::TranslationCache`) on the walk path without changing
    /// what the TLB models. `walk` is invoked only on an L2 miss and must
    /// behave exactly like [`PageTable::translate`].
    ///
    /// # Errors
    ///
    /// Returns [`PageFault`] when `walk` yields no translation; the fault
    /// is also counted in [`TlbStats::faults`].
    #[inline]
    pub fn translate_with(
        &mut self,
        va: VirtAddr,
        walk: impl FnOnce(VirtAddr) -> Option<Translation>,
    ) -> Result<TlbOutcome, PageFault> {
        let vpn = VirtPageNum::containing(va);
        let huge_page = vpn.raw() / PAGES_PER_HUGE_PAGE;

        // L1 probes (both granularities probed in parallel in hardware).
        // This is the hot path: for the dominant L1-TLB-hit access it does
        // one flat-slab key scan and a handful of shifts — no heap traffic.
        if let Some(entry) = self.l1_base.get(&vpn.raw()).copied() {
            let translation = Self::materialize(va, vpn, entry.first_pfn, PageSize::Base4K);
            self.stats.l1_hits += 1;
            return Ok(TlbOutcome {
                translation,
                level: TlbHitLevel::L1,
                cycles: self.config.l1_latency,
            });
        }
        if let Some(entry) = self.l1_huge.get(&huge_page).copied() {
            let translation = Self::materialize(va, vpn, entry.first_pfn, PageSize::Huge2M);
            self.stats.l1_hits += 1;
            return Ok(TlbOutcome {
                translation,
                level: TlbHitLevel::L1,
                cycles: self.config.l1_latency,
            });
        }
        self.translate_slow(va, vpn, huge_page, walk)
    }

    /// Repeat-translation fast path for VPN-run coalescing: translate
    /// `va` given that the *immediately preceding* translation through
    /// this TLB covered the same 4 KiB virtual page and produced `prev`.
    ///
    /// Bit-identical to calling [`DataTlb::translate_with`] again. The
    /// preceding translation left the page's entry as the most-recently-
    /// used way of its L1 set (a hit refreshes it, a fill inserts it), so
    /// an immediate repeat is always an L1 hit at `l1_latency` resolving
    /// to the same PFN. Skipping the probe also changes no replacement
    /// decision: the shared LRU clock stays strictly increasing and
    /// eviction compares timestamps only *within* a set, where the entry
    /// is already maximal — relative orders everywhere are untouched.
    /// Only the L1-hit statistic needs counting by hand.
    #[inline]
    pub fn translate_repeat(&mut self, prev: &TlbOutcome, va: VirtAddr) -> TlbOutcome {
        self.stats.l1_hits += 1;
        let pfn = prev.translation.pfn;
        TlbOutcome {
            translation: Translation {
                pa: sipt_mem::PhysAddr::new((pfn.raw() << sipt_mem::PAGE_SHIFT) | va.page_offset()),
                pfn,
                page_size: prev.translation.page_size,
            },
            level: TlbHitLevel::L1,
            cycles: self.config.l1_latency,
        }
    }

    /// The L1-miss continuation of [`DataTlb::translate_with`], kept out of
    /// line so the L1-hit fast path stays small enough to inline.
    #[cold]
    fn translate_slow(
        &mut self,
        va: VirtAddr,
        vpn: VirtPageNum,
        huge_page: u64,
        walk: impl FnOnce(VirtAddr) -> Option<Translation>,
    ) -> Result<TlbOutcome, PageFault> {
        // L2 probe (either granularity).
        for key in [
            TlbKey { page: vpn.raw(), size: PageSize::Base4K },
            TlbKey { page: huge_page, size: PageSize::Huge2M },
        ] {
            if let Some(entry) = self.l2.get(&key).copied() {
                let translation = Self::materialize(va, vpn, entry.first_pfn, key.size);
                self.fill_l1(key.page, entry, key.size);
                self.stats.l2_hits += 1;
                return Ok(TlbOutcome {
                    translation,
                    level: TlbHitLevel::L2,
                    cycles: self.config.l1_latency + self.config.l2_latency,
                });
            }
        }

        // Page walk.
        let translation = match walk(va) {
            Some(t) => t,
            None => {
                self.stats.faults += 1;
                return Err(PageFault { va });
            }
        };
        let (native_page, first_pfn) = match translation.page_size {
            PageSize::Base4K => (vpn.raw(), translation.pfn.raw()),
            PageSize::Huge2M => {
                (huge_page, translation.pfn.raw() - (vpn.raw() % PAGES_PER_HUGE_PAGE))
            }
        };
        let entry = TlbEntry { first_pfn };
        self.l2.insert(TlbKey { page: native_page, size: translation.page_size }, entry);
        self.fill_l1(native_page, entry, translation.page_size);
        self.stats.walks += 1;
        Ok(TlbOutcome {
            translation,
            level: TlbHitLevel::Walk,
            cycles: self.config.l1_latency + self.config.l2_latency + self.config.walk_latency,
        })
    }

    #[inline]
    fn fill_l1(&mut self, native_page: u64, entry: TlbEntry, size: PageSize) {
        match size {
            PageSize::Base4K => {
                self.l1_base.insert(native_page, entry);
            }
            PageSize::Huge2M => {
                self.l1_huge.insert(native_page, entry);
            }
        }
    }

    #[inline]
    fn materialize(va: VirtAddr, vpn: VirtPageNum, first_pfn: u64, size: PageSize) -> Translation {
        let pfn = match size {
            PageSize::Base4K => first_pfn,
            PageSize::Huge2M => first_pfn + (vpn.raw() % PAGES_PER_HUGE_PAGE),
        };
        Translation {
            pa: sipt_mem::PhysAddr::new((pfn << sipt_mem::PAGE_SHIFT) | va.page_offset()),
            pfn: sipt_mem::PhysFrameNum::new(pfn),
            page_size: size,
        }
    }

    /// Invalidate all entries (context switch without ASIDs).
    pub fn flush(&mut self) {
        self.l1_base.clear();
        self.l1_huge.clear();
        self.l2.clear();
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Reset statistics (contents are kept — used after cache warmup).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sipt_mem::{PhysFrameNum, PAGE_SHIFT};

    fn table_with_pages(n: u64) -> PageTable {
        let mut pt = PageTable::new();
        for i in 0..n {
            pt.map(VirtPageNum::new(i), PhysFrameNum::new(1000 + i), PageSize::Base4K).unwrap();
        }
        pt
    }

    /// The composite L2 key's fast `set_hash` must equal what the
    /// derived `Hash` + `DefaultHasher` (the `SetIndexKey` default
    /// method) produces — the hash picks the L2 set, so any divergence
    /// would silently change eviction patterns and break the golden
    /// fingerprints.
    #[test]
    fn tlb_key_fast_hash_matches_default_hasher() {
        use lru::SetIndexKey;
        use std::hash::{Hash, Hasher};
        let pages = (0..512u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).chain([
            0,
            1,
            u64::MAX,
            1 << 63,
        ]);
        for page in pages {
            for size in [PageSize::Base4K, PageSize::Huge2M] {
                let key = TlbKey { page, size };
                let mut reference = std::collections::hash_map::DefaultHasher::new();
                key.hash(&mut reference);
                assert_eq!(key.set_hash(), reference.finish(), "key {key:?}");
            }
        }
    }

    #[test]
    fn miss_then_hit_latencies() {
        let pt = table_with_pages(4);
        let mut tlb = DataTlb::new(TlbConfig::default());
        let cfg = *tlb.config();
        let walk = tlb.translate(VirtAddr::new(0x1100), &pt).unwrap();
        assert_eq!(walk.level, TlbHitLevel::Walk);
        assert_eq!(walk.cycles, cfg.l1_latency + cfg.l2_latency + cfg.walk_latency);
        let hit = tlb.translate(VirtAddr::new(0x1200), &pt).unwrap();
        assert_eq!(hit.level, TlbHitLevel::L1);
        assert_eq!(hit.cycles, cfg.l1_latency);
        assert_eq!(hit.translation.pfn.raw(), 1001);
        assert_eq!(hit.translation.pa.page_offset(), 0x200);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let pt = table_with_pages(200);
        let mut tlb = DataTlb::new(TlbConfig::default());
        // Touch 128 pages: far more than 64 L1 entries, fewer than 1024 L2.
        for i in 0..128u64 {
            tlb.translate(VirtAddr::new(i << PAGE_SHIFT), &pt).unwrap();
        }
        // Page 0 must have left L1 but still be in L2.
        let again = tlb.translate(VirtAddr::new(0), &pt).unwrap();
        assert_eq!(again.level, TlbHitLevel::L2);
        let stats = tlb.stats();
        assert_eq!(stats.walks, 128);
        assert_eq!(stats.l2_hits, 1);
    }

    #[test]
    fn huge_pages_use_the_huge_l1() {
        let mut pt = PageTable::new();
        pt.map(VirtPageNum::new(512), PhysFrameNum::new(2048), PageSize::Huge2M).unwrap();
        let mut tlb = DataTlb::new(TlbConfig::default());
        let va0 = VirtAddr::new(512 << PAGE_SHIFT);
        assert_eq!(tlb.translate(va0, &pt).unwrap().level, TlbHitLevel::Walk);
        // A different 4 KiB page of the same huge page hits the huge L1.
        let va1 = VirtAddr::new((512 + 200) << PAGE_SHIFT | 0x33);
        let hit = tlb.translate(va1, &pt).unwrap();
        assert_eq!(hit.level, TlbHitLevel::L1);
        assert_eq!(hit.translation.pfn.raw(), 2048 + 200);
        assert_eq!(hit.translation.page_size, PageSize::Huge2M);
        assert_eq!(hit.translation.pa.page_offset(), 0x33);
    }

    #[test]
    fn huge_reach_exceeds_base_reach() {
        // 32 huge entries cover 64 MiB; the same accesses through 4 KiB
        // mappings would thrash the 64-entry base TLB. This is the TLB-reach
        // effect the paper leans on for its hugepage discussion.
        let mut pt = PageTable::new();
        for i in 0..16u64 {
            pt.map(
                VirtPageNum::new(i * PAGES_PER_HUGE_PAGE),
                PhysFrameNum::new(i * PAGES_PER_HUGE_PAGE),
                PageSize::Huge2M,
            )
            .unwrap();
        }
        let mut tlb = DataTlb::new(TlbConfig::default());
        // Touch one page in each of the 16 huge pages, twice.
        for round in 0..2 {
            for i in 0..16u64 {
                let va = VirtAddr::new(i * sipt_mem::HUGE_PAGE_SIZE + 0x100);
                let out = tlb.translate(va, &pt).unwrap();
                if round == 1 {
                    assert_eq!(out.level, TlbHitLevel::L1, "huge page {i} evicted too early");
                }
            }
        }
    }

    #[test]
    fn translate_with_translation_cache_is_equivalent() {
        // Interposing the software translation cache on the walk path
        // must not change outcomes, latencies, or TLB statistics.
        let pt = table_with_pages(128);
        let mut plain = DataTlb::new(TlbConfig::default());
        let mut cached = DataTlb::new(TlbConfig::default());
        let mut xlat = sipt_mem::TranslationCache::with_entries(64);
        let mut i = 7u64;
        for _ in 0..2_000 {
            i = (i.wrapping_mul(25) + 13) % 128; // deterministic scramble
            let va = VirtAddr::new((i << PAGE_SHIFT) | 0x20);
            let a = plain.translate(va, &pt).unwrap();
            let b = cached.translate_with(va, |va| xlat.translate(&pt, va)).unwrap();
            assert_eq!(a, b, "page {i}");
        }
        assert_eq!(plain.stats(), cached.stats());
    }

    #[test]
    fn repeat_fast_path_matches_full_translation() {
        // Streams with page runs (several consecutive accesses to one 4 KiB
        // page) are what the block kernel coalesces; the repeat path must
        // be indistinguishable from re-translating, both immediately and
        // in every later replacement decision.
        let mut pt = table_with_pages(256);
        // A few huge mappings beyond the 4 KiB region, so both L1
        // granularities see repeats.
        for i in 0..4u64 {
            pt.map(
                VirtPageNum::new((i + 1) * PAGES_PER_HUGE_PAGE),
                PhysFrameNum::new(4096 + i * PAGES_PER_HUGE_PAGE),
                PageSize::Huge2M,
            )
            .unwrap();
        }
        // Indexes 0..256 pick a 4 KiB page; 256..260 pick a 4 KiB page
        // inside one of the four huge mappings.
        let va_of = |page: u64, off: u64| -> VirtAddr {
            if page < 256 {
                VirtAddr::new((page << PAGE_SHIFT) | off)
            } else {
                let i = page - 256;
                let sub = (page * 37) % PAGES_PER_HUGE_PAGE;
                VirtAddr::new((i + 1) * sipt_mem::HUGE_PAGE_SIZE + (sub << PAGE_SHIFT) + off)
            }
        };
        let mut full = DataTlb::new(TlbConfig::default());
        let mut fast = DataTlb::new(TlbConfig::default());
        let mut prev: Option<(u64, TlbOutcome)> = None;
        for step in 0..6_000u64 {
            // Page runs of length 4, scrambled over 4 KiB and huge pages.
            let run = step / 4;
            let page = (run.wrapping_mul(2654435761)) % 260;
            let va = va_of(page, (step % 4) * 0x88);
            let vpn = VirtPageNum::containing(va).raw();
            let a = full.translate(va, &pt).unwrap();
            let b = match prev {
                Some((prev_vpn, ref out)) if prev_vpn == vpn => fast.translate_repeat(out, va),
                _ => fast.translate(va, &pt).unwrap(),
            };
            assert_eq!(a, b, "step {step}");
            prev = Some((vpn, b));
        }
        assert_eq!(full.stats(), fast.stats());
        // Contents must have evolved identically: sweep every page once
        // and require the same hit level from both TLBs.
        for page in 0..260u64 {
            let va = va_of(page, 0);
            let a = full.translate(va, &pt).unwrap();
            let b = fast.translate(va, &pt).unwrap();
            assert_eq!(a, b, "post-sweep page {page}");
        }
    }

    #[test]
    fn fault_on_unmapped() {
        let pt = PageTable::new();
        let mut tlb = DataTlb::new(TlbConfig::default());
        let err = tlb.translate(VirtAddr::new(0xdead_0000), &pt).unwrap_err();
        assert_eq!(err.va.raw(), 0xdead_0000);
        assert_eq!(tlb.stats().faults, 1);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn flush_forces_walks() {
        let pt = table_with_pages(2);
        let mut tlb = DataTlb::new(TlbConfig::default());
        tlb.translate(VirtAddr::new(0), &pt).unwrap();
        tlb.flush();
        let after = tlb.translate(VirtAddr::new(0), &pt).unwrap();
        assert_eq!(after.level, TlbHitLevel::Walk);
    }

    #[test]
    fn hit_rate_math() {
        let pt = table_with_pages(1);
        let mut tlb = DataTlb::new(TlbConfig::default());
        assert_eq!(tlb.stats().l1_hit_rate(), 0.0);
        for _ in 0..4 {
            tlb.translate(VirtAddr::new(0x10), &pt).unwrap();
        }
        let stats = tlb.stats();
        assert_eq!(stats.total(), 4);
        assert_eq!(stats.l1_hit_rate(), 0.75);
        tlb.reset_stats();
        assert_eq!(tlb.stats().total(), 0);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn bad_geometry_panics() {
        let cfg = TlbConfig { l1_base_entries: 63, ..TlbConfig::default() };
        let _ = DataTlb::new(cfg);
    }
}
