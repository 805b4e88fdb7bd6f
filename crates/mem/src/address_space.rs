//! An mmap-style virtual address space backed by the buddy allocator.
//!
//! This is the simulator's stand-in for the Linux virtual memory manager:
//! it decides *where in physical memory* each virtual page lands, which is
//! the single property that determines SIPT's index-bit predictability.
//!
//! Placement follows one of several [`PlacementPolicy`] values so the
//! paper's sensitivity studies (THP off, fragmented, fully scattered) can
//! be reproduced by swapping the policy rather than patching the OS model.

use crate::addr::{PageSize, Translation, VirtAddr, VirtPageNum, PAGES_PER_HUGE_PAGE, PAGE_SIZE};
use crate::buddy::{BuddyAllocator, FrameBlock, HUGE_PAGE_ORDER};
use crate::page_table::PageTable;
use crate::MemError;
use std::collections::BTreeMap;

/// How virtual pages are backed by physical frames at `mmap` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Linux-like default: transparent huge pages for every 2 MiB-aligned
    /// chunk the buddy allocator can satisfy with an order-9 block, bulk
    /// allocation (largest-blocks-first) for the remainder.
    LinuxDefault,
    /// Transparent huge pages disabled: all pages are 4 KiB, but bulk
    /// allocation still produces large contiguous runs (the paper's
    /// "THP-off" condition).
    ThpOff,
    /// Adversarial: every 4 KiB page is backed by a uniformly random free
    /// frame, destroying all >4 KiB contiguity (the paper's most severe
    /// sensitivity condition).
    Scattered,
    /// Page coloring: the low `bits` of each PFN are made to match the low
    /// `bits` of the VPN, as in FreeBSD/NetBSD-style colored allocators
    /// (related work in §II.D). Pages are 4 KiB.
    Colored {
        /// Number of low page-number bits to match between VPN and PFN.
        bits: u32,
    },
}

/// A mapped virtual region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// First virtual address of the region (page aligned).
    pub start: VirtAddr,
    /// Length in 4 KiB pages.
    pub pages: u64,
}

impl Region {
    /// Length of the region in bytes.
    pub fn bytes(&self) -> u64 {
        self.pages * PAGE_SIZE
    }

    /// One-past-the-end virtual address.
    pub fn end(&self) -> VirtAddr {
        self.start + self.bytes()
    }

    /// Whether `va` falls inside the region.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va >= self.start && va < self.end()
    }
}

/// Statistics for an address space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AddressSpaceStats {
    /// Total pages ever mapped.
    pub pages_mapped: u64,
    /// Pages mapped as part of 2 MiB huge mappings.
    pub pages_in_huge_mappings: u64,
    /// Number of mmap calls.
    pub mmaps: u64,
    /// Number of munmap calls.
    pub munmaps: u64,
}

/// A process address space: a bump-allocated range of virtual pages, a page
/// table, and the placement policy that backs new regions.
///
/// ```
/// use sipt_mem::{AddressSpace, BuddyAllocator, PlacementPolicy};
/// let mut phys = BuddyAllocator::new(4096);
/// let mut asid0 = AddressSpace::new(0, PlacementPolicy::LinuxDefault);
/// let region = asid0.mmap(64 * 4096, &mut phys).unwrap();
/// let t = asid0.translate(region.start).unwrap();
/// assert_eq!(t.pa.page_offset(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    asid: u16,
    policy: PlacementPolicy,
    page_table: PageTable,
    regions: BTreeMap<u64, Region>,
    /// Starts of regions whose frames are owned elsewhere (synonyms).
    shared_regions: std::collections::BTreeSet<u64>,
    next_va: u64,
    stats: AddressSpaceStats,
    rng: sipt_rng::StdRng,
}

/// Base of the simulated user virtual address range.
const VA_BASE: u64 = 0x0000_1000_0000;

impl AddressSpace {
    /// Create an address space with the given ASID and placement policy.
    /// Placement randomness (only used by [`PlacementPolicy::Scattered`])
    /// is seeded from the ASID so runs are deterministic.
    pub fn new(asid: u16, policy: PlacementPolicy) -> Self {
        use sipt_rng::SeedableRng;
        Self {
            asid,
            policy,
            page_table: PageTable::new(),
            regions: BTreeMap::new(),
            shared_regions: std::collections::BTreeSet::new(),
            next_va: VA_BASE,
            stats: AddressSpaceStats::default(),
            rng: sipt_rng::StdRng::seed_from_u64(0x51B7_0000 + asid as u64),
        }
    }

    /// The address-space identifier.
    pub fn asid(&self) -> u16 {
        self.asid
    }

    /// The placement policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Map a fresh region of at least `bytes` bytes (rounded up to whole
    /// pages), eagerly backed with physical frames from `phys` according to
    /// the placement policy.
    ///
    /// Region starts are 2 MiB aligned so that huge-page opportunities
    /// depend only on the allocator, as with Linux's default mmap topdown
    /// layout plus THP alignment hints.
    ///
    /// # Errors
    ///
    /// [`MemError::OutOfMemory`] if physical memory is exhausted (any
    /// partially completed backing is rolled back).
    pub fn mmap(&mut self, bytes: u64, phys: &mut BuddyAllocator) -> Result<Region, MemError> {
        if bytes == 0 {
            return Err(MemError::EmptyMapping);
        }
        let pages = bytes.div_ceil(PAGE_SIZE);
        // Like Linux, only huge-page-*eligible* mappings get 2 MiB
        // alignment (THP alignment hint); small mappings pack at 4 KiB
        // granularity, so their VA index bits cycle naturally — which is
        // what makes fine-grained allocators hostile to naive SIPT.
        let align = if pages >= PAGES_PER_HUGE_PAGE { PageSize::Huge2M } else { PageSize::Base4K };
        let start_va = VirtAddr::new(self.next_va).align_up(align);
        let region = Region { start: start_va, pages };
        let first_vpn = VirtPageNum::containing(start_va);

        let backed = self.back_region(first_vpn, pages, phys);
        match backed {
            Ok(()) => {
                self.next_va = region.end().raw();
                self.regions.insert(start_va.raw(), region);
                self.stats.mmaps += 1;
                self.stats.pages_mapped += pages;
                Ok(region)
            }
            Err(e) => {
                // Roll back whatever was mapped.
                for i in 0..pages {
                    let vpn = first_vpn + i;
                    if let Some(t) = self.page_table.translate(vpn.base()) {
                        // Unmapping a huge page removes all 512 entries at
                        // once; only free frames we have not yet freed.
                        if self.page_table.unmap(vpn).is_ok() {
                            Self::free_mapping_frames(phys, t.page_size, t.pfn.raw());
                        }
                    }
                }
                Err(e)
            }
        }
    }

    fn back_region(
        &mut self,
        first_vpn: VirtPageNum,
        pages: u64,
        phys: &mut BuddyAllocator,
    ) -> Result<(), MemError> {
        match self.policy {
            PlacementPolicy::LinuxDefault => self.back_linux(first_vpn, pages, phys, true),
            PlacementPolicy::ThpOff => self.back_linux(first_vpn, pages, phys, false),
            PlacementPolicy::Scattered => self.back_scattered(first_vpn, pages, phys),
            PlacementPolicy::Colored { bits } => self.back_colored(first_vpn, pages, phys, bits),
        }
    }

    /// Default/ThpOff backing: huge pages where possible (if `thp`), bulk
    /// allocation of maximal buddy blocks for the rest.
    fn back_linux(
        &mut self,
        first_vpn: VirtPageNum,
        pages: u64,
        phys: &mut BuddyAllocator,
        thp: bool,
    ) -> Result<(), MemError> {
        let mut vpn = first_vpn.raw();
        let end = first_vpn.raw() + pages;
        while vpn < end {
            let huge_aligned = vpn.is_multiple_of(PAGES_PER_HUGE_PAGE);
            let room_for_huge = end - vpn >= PAGES_PER_HUGE_PAGE;
            if thp && huge_aligned && room_for_huge {
                if let Ok(block) = phys.alloc(HUGE_PAGE_ORDER) {
                    self.page_table.map(VirtPageNum::new(vpn), block.start, PageSize::Huge2M)?;
                    self.stats.pages_in_huge_mappings += PAGES_PER_HUGE_PAGE;
                    vpn += PAGES_PER_HUGE_PAGE;
                    continue;
                }
            }
            // Bulk-allocate the span up to the next huge boundary (or the
            // region end) in maximal blocks, mapping consecutively.
            let next_boundary =
                if thp { ((vpn / PAGES_PER_HUGE_PAGE) + 1) * PAGES_PER_HUGE_PAGE } else { end };
            let span = next_boundary.min(end) - vpn;
            let blocks = phys.alloc_bulk(span)?;
            for block in blocks {
                for (i, frame) in block.frames().enumerate() {
                    self.page_table.map(
                        VirtPageNum::new(vpn + i as u64),
                        frame,
                        PageSize::Base4K,
                    )?;
                }
                vpn += block.len();
            }
        }
        Ok(())
    }

    /// Adversarial backing: every page from a random frame.
    fn back_scattered(
        &mut self,
        first_vpn: VirtPageNum,
        pages: u64,
        phys: &mut BuddyAllocator,
    ) -> Result<(), MemError> {
        for i in 0..pages {
            let block = phys.alloc_random_frame(&mut self.rng)?;
            self.page_table.map(first_vpn + i, block.start, PageSize::Base4K)?;
        }
        Ok(())
    }

    /// Colored backing: PFN low bits must equal VPN low bits. Allocates
    /// frames and parks color mismatches until a match appears; parked
    /// frames are released afterwards.
    fn back_colored(
        &mut self,
        first_vpn: VirtPageNum,
        pages: u64,
        phys: &mut BuddyAllocator,
        bits: u32,
    ) -> Result<(), MemError> {
        let mask = (1u64 << bits) - 1;
        let mut parked: Vec<FrameBlock> = Vec::new();
        let mut result = Ok(());
        'outer: for i in 0..pages {
            let want = (first_vpn.raw() + i) & mask;
            // Reuse a parked frame of the right color first.
            if let Some(pos) = parked.iter().position(|b| b.start.raw() & mask == want) {
                let block = parked.swap_remove(pos);
                self.page_table.map(first_vpn + i, block.start, PageSize::Base4K)?;
                continue;
            }
            loop {
                match phys.alloc(0) {
                    Ok(block) if block.start.raw() & mask == want => {
                        self.page_table.map(first_vpn + i, block.start, PageSize::Base4K)?;
                        break;
                    }
                    Ok(block) => parked.push(block),
                    Err(e) => {
                        result = Err(e);
                        break 'outer;
                    }
                }
            }
        }
        for block in parked {
            phys.free(block);
        }
        result
    }

    /// Create a *synonym* mapping: a fresh virtual region in this address
    /// space backed by the same physical frames that back `src_region` in
    /// `src` (which may be this same address space — classic shared-memory
    /// double mapping). The frames stay owned by the original mapping;
    /// `munmap` of the synonym region only removes the translations.
    ///
    /// This is the OS behaviour that makes VIVT caches hard (paper §II.B)
    /// and that SIPT handles for free by always tag-checking the full
    /// physical address.
    ///
    /// # Errors
    ///
    /// [`MemError::NotMapped`] if any page of `src_region` is unmapped in
    /// `src`.
    pub fn mmap_shared(
        &mut self,
        src: &AddressSpace,
        src_region: Region,
    ) -> Result<Region, MemError> {
        // Collect the source translations first so a failure cannot leave
        // this space half-mapped.
        let mut frames = Vec::with_capacity(src_region.pages as usize);
        let src_first = VirtPageNum::containing(src_region.start);
        for i in 0..src_region.pages {
            let vpn = src_first + i;
            let t = src.page_table.translate(vpn.base()).ok_or(MemError::NotMapped { vpn })?;
            frames.push(t.pfn);
        }
        let start_va = VirtAddr::new(self.next_va).align_up(PageSize::Base4K);
        let region = Region { start: start_va, pages: src_region.pages };
        let first_vpn = VirtPageNum::containing(start_va);
        for (i, pfn) in frames.into_iter().enumerate() {
            self.page_table.map(first_vpn + i as u64, pfn, PageSize::Base4K)?;
        }
        self.next_va = region.end().raw();
        self.regions.insert(start_va.raw(), region);
        self.shared_regions.insert(start_va.raw());
        self.stats.mmaps += 1;
        self.stats.pages_mapped += region.pages;
        Ok(region)
    }

    /// Unmap a region previously returned by [`AddressSpace::mmap`], freeing
    /// its physical frames back to `phys`. Synonym regions created with
    /// [`AddressSpace::mmap_shared`] only drop their translations — the
    /// frames remain owned by the original mapping.
    ///
    /// # Errors
    ///
    /// [`MemError::NotMapped`] if `start` is not the start of a live region.
    pub fn munmap(&mut self, start: VirtAddr, phys: &mut BuddyAllocator) -> Result<(), MemError> {
        let region = self
            .regions
            .remove(&start.raw())
            .ok_or(MemError::NotMapped { vpn: VirtPageNum::containing(start) })?;
        let shared = self.shared_regions.remove(&start.raw());
        let first_vpn = VirtPageNum::containing(region.start);
        let mut i = 0;
        while i < region.pages {
            let vpn = first_vpn + i;
            let mapping = self.page_table.unmap(vpn)?;
            if !shared {
                Self::free_mapping_frames(phys, mapping.page_size, mapping.pfn.raw());
            }
            i += match mapping.page_size {
                PageSize::Base4K => 1,
                PageSize::Huge2M => PAGES_PER_HUGE_PAGE,
            };
        }
        self.stats.munmaps += 1;
        Ok(())
    }

    fn free_mapping_frames(phys: &mut BuddyAllocator, size: PageSize, first_pfn: u64) {
        match size {
            PageSize::Base4K => {
                phys.free(FrameBlock { start: crate::addr::PhysFrameNum::new(first_pfn), order: 0 })
            }
            PageSize::Huge2M => phys.free(FrameBlock {
                start: crate::addr::PhysFrameNum::new(first_pfn),
                order: HUGE_PAGE_ORDER,
            }),
        }
    }

    /// Translate a virtual address through this address space's page table.
    pub fn translate(&self, va: VirtAddr) -> Option<Translation> {
        self.page_table.translate(va)
    }

    /// Access the underlying page table (read-only).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The region containing `va`, if any.
    pub fn region_containing(&self, va: VirtAddr) -> Option<Region> {
        self.regions.range(..=va.raw()).next_back().map(|(_, r)| *r).filter(|r| r.contains(va))
    }

    /// Iterate over live regions in ascending address order.
    pub fn regions(&self) -> impl Iterator<Item = Region> + '_ {
        self.regions.values().copied()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> AddressSpaceStats {
        self.stats
    }

    /// Fraction of mapped pages in this space backed by huge mappings.
    pub fn huge_page_fraction(&self) -> f64 {
        if self.stats.pages_mapped == 0 {
            return 0.0;
        }
        self.stats.pages_in_huge_mappings as f64 / self.stats.pages_mapped as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PAGE_SHIFT;

    fn fresh(policy: PlacementPolicy, frames: u64) -> (AddressSpace, BuddyAllocator) {
        (AddressSpace::new(1, policy), BuddyAllocator::new(frames))
    }

    #[test]
    fn mmap_backs_every_page() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::LinuxDefault, 8192);
        let region = asp.mmap(100 * PAGE_SIZE, &mut phys).unwrap();
        assert_eq!(region.pages, 100);
        for i in 0..100 {
            let va = region.start + i * PAGE_SIZE;
            assert!(asp.translate(va).is_some(), "page {i} unmapped");
        }
        assert!(asp.translate(region.end()).is_none());
    }

    #[test]
    fn linux_default_uses_huge_pages_when_possible() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::LinuxDefault, 4096);
        // 4 MiB request, 2 MiB aligned start: both chunks should be huge.
        let region = asp.mmap(1024 * PAGE_SIZE, &mut phys).unwrap();
        let t = asp.translate(region.start).unwrap();
        assert_eq!(t.page_size, PageSize::Huge2M);
        assert_eq!(asp.huge_page_fraction(), 1.0);
    }

    #[test]
    fn thp_off_never_maps_huge_but_stays_contiguous() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::ThpOff, 4096);
        let region = asp.mmap(1024 * PAGE_SIZE, &mut phys).unwrap();
        let t0 = asp.translate(region.start).unwrap();
        assert_eq!(t0.page_size, PageSize::Base4K);
        // Bulk allocation from fresh memory: consecutive pages must land in
        // consecutive frames (constant delta).
        let t1 = asp.translate(region.start + PAGE_SIZE).unwrap();
        assert_eq!(t1.pfn.raw(), t0.pfn.raw() + 1);
        assert_eq!(asp.huge_page_fraction(), 0.0);
    }

    #[test]
    fn scattered_policy_randomizes_deltas() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::Scattered, 1 << 14);
        let region = asp.mmap(256 * PAGE_SIZE, &mut phys).unwrap();
        let mut same_delta = 0;
        let mut prev_delta = None;
        for i in 0..256u64 {
            let va = region.start + i * PAGE_SIZE;
            let t = asp.translate(va).unwrap();
            let delta = t.pfn.raw().wrapping_sub(va.raw() >> PAGE_SHIFT);
            if prev_delta == Some(delta) {
                same_delta += 1;
            }
            prev_delta = Some(delta);
        }
        assert!(same_delta < 32, "scattered placement kept {same_delta} constant deltas");
    }

    #[test]
    fn colored_policy_matches_low_bits() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::Colored { bits: 2 }, 4096);
        let region = asp.mmap(64 * PAGE_SIZE, &mut phys).unwrap();
        for i in 0..64u64 {
            let va = region.start + i * PAGE_SIZE;
            let t = asp.translate(va).unwrap();
            assert_eq!(
                t.pfn.raw() & 0b11,
                (va.raw() >> PAGE_SHIFT) & 0b11,
                "page {i} color mismatch"
            );
        }
    }

    #[test]
    fn munmap_returns_all_frames() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::LinuxDefault, 4096);
        let free_before = phys.free_frames();
        let region = asp.mmap(700 * PAGE_SIZE, &mut phys).unwrap();
        assert_eq!(phys.free_frames(), free_before - 700);
        asp.munmap(region.start, &mut phys).unwrap();
        assert_eq!(phys.free_frames(), free_before);
        assert!(asp.translate(region.start).is_none());
    }

    #[test]
    fn mmap_out_of_memory_rolls_back() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::ThpOff, 64);
        assert!(asp.mmap(100 * PAGE_SIZE, &mut phys).is_err());
        assert_eq!(phys.free_frames(), 64, "failed mmap must not leak frames");
        assert_eq!(asp.regions().count(), 0);
    }

    #[test]
    fn mmap_zero_bytes_rejected() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::LinuxDefault, 64);
        assert!(matches!(asp.mmap(0, &mut phys), Err(MemError::EmptyMapping)));
    }

    #[test]
    fn regions_do_not_overlap() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::LinuxDefault, 1 << 14);
        let a = asp.mmap(3 * PAGE_SIZE, &mut phys).unwrap();
        let b = asp.mmap(5 * PAGE_SIZE, &mut phys).unwrap();
        assert!(a.end() <= b.start);
        assert_eq!(asp.region_containing(a.start + 0x100), Some(a));
        assert_eq!(asp.region_containing(b.start + 0x100), Some(b));
        assert_eq!(asp.region_containing(VirtAddr::new(0)), None);
    }

    #[test]
    fn fragmented_memory_prevents_huge_pages() {
        let (mut asp, mut phys) = fresh(PlacementPolicy::LinuxDefault, 4096);
        // Fragment: allocate everything as singles, free every other frame.
        let singles: Vec<_> = (0..4096).map(|_| phys.alloc(0).unwrap()).collect();
        for blk in singles.iter().step_by(2) {
            phys.free(*blk);
        }
        assert_eq!(phys.unusable_free_space_index(HUGE_PAGE_ORDER), 1.0);
        let region = asp.mmap(1024 * PAGE_SIZE, &mut phys).unwrap();
        let t = asp.translate(region.start).unwrap();
        assert_eq!(t.page_size, PageSize::Base4K);
        assert_eq!(asp.huge_page_fraction(), 0.0);
    }
}
