//! The synthetic trace generator.
//!
//! [`TraceGen::build`] allocates a workload's memory through the OS model
//! (so the page table and VA→PA deltas are *real*, produced by the buddy
//! allocator under the chosen placement policy) and then emits a
//! deterministic instruction stream in which every static memory PC has a
//! stable role — streaming a slice, probing a hash region, chasing
//! pointers, or hammering a hot set — mirroring how real load PCs behave
//! and giving the PC-indexed SIPT predictors something learnable.
//!
//! The generator emits each instruction already packed: `TraceGen::step`
//! yields the PC, the metadata word in `sipt_cpu`'s packed layout and the
//! virtual address of a memory reference. The random register and latency
//! choices are arithmetic on the drawn bits, not `Option`s packed later,
//! so [`crate::MaterializedTrace::from_gen`] only pushes the three fields
//! into its arrays. `Iterator::next` unpacks the same step into an
//! [`Inst`].

use crate::spec::{AllocPattern, WorkloadSpec};
use sipt_cpu::{
    meta_dst, meta_latency, meta_src0, meta_src1, unpack_inst_meta, Inst, META_HAS_MEM, META_STORE,
};
use sipt_mem::{AddressSpace, BuddyAllocator, MemError, Region, VirtAddr, PAGE_SIZE};
use sipt_rng::{Rng, SeedableRng, StdRng};
use std::hash::{DefaultHasher, Hash, Hasher};

/// The workload's view of its memory: the mmap'd regions flattened into
/// one linear space of `bytes` bytes.
#[derive(Debug, Clone)]
pub struct Layout {
    regions: Vec<Region>,
    /// Cumulative starting offset of each region in the linear space.
    cumulative: Vec<u64>,
    /// The size of every region but the last (a `Burst` layout's one
    /// region, a `Chunked` or `Incremental` layout's chunk): the region
    /// holding an offset is `offset / stride`, capped at the last.
    stride: u64,
    bytes: u64,
}

impl Layout {
    /// # Panics
    ///
    /// Panics unless `regions` is non-empty and every region but the last
    /// has the first one's (non-zero) size.
    fn new(regions: Vec<Region>) -> Self {
        let (_, init) = regions.split_last().expect("a layout maps at least one region");
        let stride = regions[0].bytes();
        assert!(
            stride > 0 && init.iter().all(|r| r.bytes() == stride),
            "every region but the last must be {stride} bytes"
        );
        let mut cumulative = Vec::with_capacity(regions.len());
        let mut total = 0;
        for r in &regions {
            cumulative.push(total);
            total += r.bytes();
        }
        Self { regions, cumulative, stride, bytes: total }
    }

    /// Total bytes mapped.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Translate a linear offset into a virtual address.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= bytes()`.
    #[inline]
    pub fn va_of(&self, offset: u64) -> VirtAddr {
        assert!(offset < self.bytes, "offset {offset} beyond layout ({})", self.bytes);
        let idx = ((offset / self.stride) as usize).min(self.regions.len() - 1);
        self.regions[idx].start + (offset - self.cumulative[idx])
    }
}

/// The per-static-PC address-generation role.
///
/// Real load PCs exhibit strong *page-level* temporal locality: a PC that
/// touches a page usually touches it many more times before moving on.
/// This is what makes both the bypass perceptron and the IDB effective
/// (paper §VI: "only the first access to a page will mispredict; there are
/// typically many L1 accesses per page"), so the random/chase roles work
/// in page-bursts rather than drawing a fresh page per access.
#[derive(Debug, Clone, Hash)]
enum Role {
    /// Sequential sweep of `[lo, hi)` at `stride` bytes, wrapping.
    Stream { cursor: u64, stride: u64, lo: u64, hi: u64 },
    /// Random paged bursts over `[lo, hi)`: pick a page, walk `burst_left`
    /// sequential 16-byte steps inside it, then jump to a new page.
    Burst { lo: u64, hi: u64, page: u64, step: u64, burst_left: u32 },
    /// Alternating paged bursts: one PC ping-pongs between *two* pages
    /// (e.g. `dst[i] = f(src[i])` loops). When the two pages have
    /// different VA→PA deltas, the speculation outcome alternates — the
    /// access pattern saturating counters cannot learn but a
    /// global-history perceptron can (paper §V).
    AltBurst { lo: u64, hi: u64, pages: [u64; 2], step: u64, burst_left: u32, toggle: bool },
    /// Dependent pointer chase with the same paged-burst structure: the
    /// next address needs the previous load's value (node clusters).
    Chase { lo: u64, hi: u64, page: u64, step: u64, burst_left: u32 },
    /// Hot-set reuse: mostly a tiny per-PC working set (`tiny` bytes at
    /// `slice_lo`), with a uniform tail over the PC's whole slice that
    /// gives larger caches something to catch.
    Hot { slice_lo: u64, slice_hi: u64, tiny: u64 },
}

#[derive(Debug, Clone, Hash)]
struct StaticMem {
    pc: u64,
    role: Role,
}

/// Registers: 0–15 ALU rotating pool, 16 chase register, 32–47 load
/// destinations.
const ALU_REGS: u8 = 16;
const CHASE_REG: u8 = 16;
const LOAD_REG_BASE: u8 = 32;
const LOAD_REGS: u8 = 16;

/// A deterministic synthetic instruction stream.
///
/// Produced by [`TraceGen::build`]; consumed as an `Iterator<Item = Inst>`
/// by the core timing models.
#[derive(Debug, Clone)]
pub struct TraceGen {
    statics: Vec<StaticMem>,
    layout: Layout,
    mem_ratio: f64,
    store_ratio: f64,
    rng: StdRng,
    remaining: u64,
    alu_rot: u8,
    load_rot: u8,
    last_alu_dst: u8,
    /// Temporal clustering of static memory PCs (basic-block locality):
    /// the current static and how many more memory ops stay with it.
    cur_static: usize,
    static_run_left: u32,
}

impl TraceGen {
    /// Allocate `spec`'s memory in `asp` (backed by `phys`) and construct
    /// the generator for `instructions` dynamic instructions.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] if physical memory cannot back the
    /// footprint.
    pub fn build(
        spec: &WorkloadSpec,
        asp: &mut AddressSpace,
        phys: &mut BuddyAllocator,
        instructions: u64,
        seed: u64,
    ) -> Result<Self, MemError> {
        spec.validate();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51B7_7EAC);
        let mut regions = Vec::new();
        match spec.alloc {
            AllocPattern::Burst => {
                regions.push(asp.mmap(spec.footprint, phys)?);
            }
            AllocPattern::Chunked { chunk_pages } => {
                // Heap growth in medium chunks against intact free lists:
                // consecutive chunks split consecutively out of large buddy
                // blocks, so VA→PA deltas stay constant across chunks.
                let chunk = chunk_pages * PAGE_SIZE;
                let mut mapped = 0;
                while mapped < spec.footprint {
                    regions.push(asp.mmap(chunk.min(spec.footprint - mapped), phys)?);
                    mapped += chunk;
                }
            }
            AllocPattern::Incremental { chunk_pages } => {
                // A program that grows its heap in small increments does so
                // over time, interleaved with the rest of the system's
                // allocator traffic; on a machine with any uptime the buddy
                // free lists hold scattered singles, so successive small
                // allocations do NOT receive consecutive frames. Model that
                // churn: pin a random pool, free part of it as scattered
                // holes, let the workload allocate from the holes, then
                // release the pool.
                let pages = spec.footprint.div_ceil(PAGE_SIZE);
                let order = chunk_pages.next_power_of_two().trailing_zeros();
                let hold = churn_begin(phys, pages, order, &mut rng)?;
                let chunk = chunk_pages * PAGE_SIZE;
                let mut mapped = 0;
                while mapped < spec.footprint {
                    regions.push(asp.mmap(chunk.min(spec.footprint - mapped), phys)?);
                    mapped += chunk;
                }
                for block in hold {
                    phys.free(block);
                }
            }
        }
        let layout = Layout::new(regions);

        // Partition the static PCs across roles per the pattern mix.
        let n = spec.mem_pcs;
        let n_stream = (spec.mix.stream * n as f64).round() as usize;
        let n_random = (spec.mix.random * n as f64).round() as usize;
        let n_chase = (spec.mix.chase * n as f64).round() as usize;
        let bytes = layout.bytes();
        // Each hot PC owns one page worth of structure (stack frames,
        // accumulators, index nodes); keeping it within a single page is
        // both realistic and what keeps the D-TLB hit rate high.
        let hot_slice = PAGE_SIZE.min(bytes / 2).max(64);
        let mut statics = Vec::with_capacity(n);
        for i in 0..n {
            // Spread PCs so they don't trivially collide modulo the
            // 64-entry predictor tables.
            let pc = 0x40_0000 + (i as u64) * 0x9E5;
            let role = if i < n_stream {
                // Each streamer sweeps its own slice of the footprint.
                let slice = bytes / n_stream.max(1) as u64;
                let lo = slice * i as u64;
                let hi = (lo + slice).min(bytes);
                Role::Stream { cursor: 0, stride: 8, lo, hi: hi.max(lo + 64) }
            } else if i < n_stream + n_random {
                if i % 3 == 0 {
                    Role::AltBurst {
                        lo: 0,
                        hi: bytes,
                        pages: [0, 0],
                        step: 0,
                        burst_left: 0,
                        toggle: false,
                    }
                } else {
                    Role::Burst { lo: 0, hi: bytes, page: 0, step: 0, burst_left: 0 }
                }
            } else if i < n_stream + n_random + n_chase {
                Role::Chase { lo: 0, hi: bytes, page: 0, step: 0, burst_left: 0 }
            } else {
                let k = (i - n_stream - n_random - n_chase) as u64;
                // Random page-aligned placement (structures scattered over
                // the heap); per-PC hot-set sizes vary (256 B – 2 KiB) so
                // the aggregate hot working set straddles the L1
                // capacities under study.
                let slice_lo = if bytes > 2 * hot_slice {
                    rng.gen_range(0..bytes / hot_slice - 1) * hot_slice
                } else {
                    0
                };
                Role::Hot {
                    slice_lo,
                    slice_hi: (slice_lo + hot_slice).min(bytes),
                    tiny: (256 << (k % 4)).min(hot_slice / 2),
                }
            };
            statics.push(StaticMem { pc, role });
        }
        // Ensure at least one memory PC exists.
        if statics.is_empty() {
            statics.push(StaticMem {
                pc: 0x40_0000,
                role: Role::Hot { slice_lo: 0, slice_hi: hot_slice.min(bytes), tiny: 256 },
            });
        }
        let _ = rng.next_u64(); // decouple seed streams

        Ok(Self {
            statics,
            layout,
            mem_ratio: spec.mem_ratio,
            store_ratio: spec.store_ratio,
            rng,
            remaining: instructions,
            alu_rot: 0,
            load_rot: 0,
            last_alu_dst: 0,
            cur_static: 0,
            static_run_left: 0,
        })
    }

    /// A 64-bit fingerprint of the generator's whole state: the statics
    /// and their roles, the layout's regions, the ratios (by bit
    /// pattern), the RNG words, the remaining count and the rotation
    /// counters. Generators that fingerprint alike emit the same stream,
    /// which is what lets a prep cache share one trace between them.
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.statics.hash(&mut h);
        self.layout.regions.hash(&mut h);
        (self.mem_ratio.to_bits(), self.store_ratio.to_bits()).hash(&mut h);
        self.rng.hash(&mut h);
        (self.remaining, self.alu_rot, self.load_rot, self.last_alu_dst).hash(&mut h);
        (self.cur_static, self.static_run_left).hash(&mut h);
        h.finish()
    }

    /// The memory layout (for experiments that post-process addresses).
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Advance a paged-burst role: sequential 16-byte steps within one
    /// page, a fresh random page when the burst drains.
    fn burst_step(
        rng: &mut StdRng,
        lo: u64,
        hi: u64,
        page: &mut u64,
        step: &mut u64,
        burst_left: &mut u32,
    ) -> u64 {
        if *burst_left == 0 {
            let first_page = lo / PAGE_SIZE;
            let last_page = (hi.saturating_sub(8)) / PAGE_SIZE;
            *page = rng.gen_range(first_page..=last_page);
            *step = rng.gen_range(0..PAGE_SIZE / 8);
            *burst_left = rng.gen_range(64..=256);
        }
        *burst_left -= 1;
        let off_in_page = (*step * 8) % PAGE_SIZE;
        *step += 1;
        (*page * PAGE_SIZE + off_in_page).clamp(lo, hi - 8)
    }

    /// Emit the next instruction packed: its PC, its metadata word in
    /// `sipt_cpu`'s layout and, for a memory reference, its virtual
    /// address. `None` once the stream is exhausted. This is the only
    /// generator: `Iterator::next` unpacks what it yields.
    #[inline]
    pub(crate) fn step(&mut self) -> Option<(u64, u32, Option<VirtAddr>)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        // `spec.validate` checked the ratios, so plain draws match
        // `gen_bool` without its per-call range check.
        Some(if self.rng.next_f64() < self.mem_ratio { self.emit_mem() } else { self.emit_alu() })
    }

    /// Advance the current static memory PC's role: its PC, the linear
    /// offset it touches, and whether it is a pointer chase.
    fn next_access(&mut self) -> (u64, u64, bool) {
        if self.static_run_left == 0 {
            self.cur_static = self.rng.gen_range(0..self.statics.len());
            // Streaming kernels are tight inner loops sweeping long
            // extents back-to-back, so a streamer PC keeps issuing far
            // longer before the program moves on; irregular roles
            // (chases, hash probes, hot structures) have short bodies.
            // The asymmetry is what lets streams keep a DRAM row open
            // while a pointer chase keeps paying activations.
            self.static_run_left = match self.statics[self.cur_static].role {
                Role::Stream { .. } => self.rng.gen_range(32..=128),
                _ => self.rng.gen_range(4..=16),
            };
        }
        self.static_run_left -= 1;
        let idx = self.cur_static;
        let bytes = self.layout.bytes();
        let s = &mut self.statics[idx];
        match &mut s.role {
            Role::Stream { cursor, stride, lo, hi } => {
                let span = *hi - *lo;
                let off = *lo + *cursor;
                *cursor = (*cursor + *stride) % span;
                (s.pc, off.min(bytes - 8), false)
            }
            Role::Burst { lo, hi, page, step, burst_left } => {
                let off = Self::burst_step(&mut self.rng, *lo, *hi, page, step, burst_left);
                (s.pc, off, false)
            }
            Role::AltBurst { lo, hi, pages, step, burst_left, toggle } => {
                if *burst_left == 0 {
                    let first = *lo / PAGE_SIZE;
                    let last = (hi.saturating_sub(8)) / PAGE_SIZE;
                    pages[0] = self.rng.gen_range(first..=last);
                    pages[1] = self.rng.gen_range(first..=last);
                    *step = self.rng.gen_range(0..PAGE_SIZE / 8);
                    *burst_left = self.rng.gen_range(64..=256);
                }
                *burst_left -= 1;
                let page = pages[*toggle as usize];
                *toggle = !*toggle;
                let off_in_page = (*step * 8) % PAGE_SIZE;
                if *toggle {
                    *step += 1; // advance once per A/B pair
                }
                let off = (page * PAGE_SIZE + off_in_page).clamp(*lo, *hi - 8);
                (s.pc, off, false)
            }
            Role::Chase { lo, hi, page, step, burst_left } => {
                let off = Self::burst_step(&mut self.rng, *lo, *hi, page, step, burst_left);
                (s.pc, off, true)
            }
            Role::Hot { slice_lo, slice_hi, tiny } => {
                // Most accesses hit the tiny set; the tail sweeps the
                // whole slice (capacity-sensitive component).
                let off = if self.rng.gen_bool(0.92) {
                    *slice_lo + (self.rng.gen_range(0..*tiny) & !7)
                } else {
                    self.rng.gen_range(*slice_lo..*slice_hi - 8) & !7
                };
                (s.pc, off, false)
            }
        }
    }

    fn emit_mem(&mut self) -> (u64, u32, Option<VirtAddr>) {
        let (pc, offset, is_chase) = self.next_access();
        let va = self.layout.va_of(offset);
        let meta = if is_chase {
            // Serialize: the address depends on the previous chased value.
            meta_dst(CHASE_REG) | meta_src0(CHASE_REG)
        } else if self.rng.next_f64() < self.store_ratio {
            meta_src0(self.last_alu_dst) | META_STORE
        } else {
            let dst = LOAD_REG_BASE + (self.load_rot % LOAD_REGS);
            self.load_rot = self.load_rot.wrapping_add(1);
            // Half of the loads take their address from a recent ALU
            // result, coupling them into the dependence graph.
            let addr_reg = (self.rng.next_f64() < 0.5) as u32 * meta_src0(self.last_alu_dst);
            meta_dst(dst) | addr_reg
        };
        (pc, meta | META_HAS_MEM | meta_latency(1), Some(va))
    }

    fn emit_alu(&mut self) -> (u64, u32, Option<VirtAddr>) {
        let dst = self.alu_rot % ALU_REGS;
        self.alu_rot = self.alu_rot.wrapping_add(1);
        // Short dependence chains with real ILP: 40% of ALU ops extend the
        // previous chain (mean chain length ≈ 1.7), 30% consume the most
        // recent load result, the rest are independent; 10% are
        // multiplies etc. with latency 3.
        let chain = (self.rng.next_f64() < 0.4) as u32 * meta_src0(self.last_alu_dst);
        let last_load = LOAD_REG_BASE + self.load_rot.wrapping_sub(1) % LOAD_REGS;
        let consume = (self.rng.next_f64() < 0.3) as u32 * meta_src1(last_load);
        let latency = meta_latency(1 + 2 * (self.rng.next_f64() < 0.1) as u32);
        self.last_alu_dst = dst;
        (0x10_0000 + dst as u64 * 4, meta_dst(dst) | chain | consume | latency, None)
    }
}

/// Scramble the buddy allocator's free lists the way long-running system
/// activity does. Pins `~3×pages` frames as uniformly random blocks of
/// `2^order` frames, then frees ~40% of them in random order: because the
/// neighbours of a freed block are mostly still pinned, the freed blocks
/// stay on the order-`order` list scattered at random positions, and the
/// workload's subsequent `2^order`-page allocations pop *random* blocks
/// instead of splitting memory sequentially. The returned blocks must be
/// freed once the workload has allocated.
fn churn_begin(
    phys: &mut BuddyAllocator,
    pages: u64,
    order: u32,
    rng: &mut StdRng,
) -> Result<Vec<sipt_mem::FrameBlock>, MemError> {
    let block_pages = 1u64 << order;
    let free = phys.free_frames();
    let grab_blocks =
        (pages * 3 / block_pages).min(free.saturating_sub(pages / 8) * 3 / 4 / block_pages);
    let scatter_blocks = (pages + pages / 4).div_ceil(block_pages).min(grab_blocks * 2 / 5);
    let mut held = Vec::with_capacity(grab_blocks as usize);
    for _ in 0..grab_blocks {
        held.push(phys.alloc_random_block(order, rng)?);
    }
    for _ in 0..scatter_blocks {
        let i = rng.gen_range(0..held.len());
        phys.free(held.swap_remove(i));
    }
    Ok(held)
}

impl Iterator for TraceGen {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        self.step().map(|(pc, meta, va)| unpack_inst_meta(meta, pc, va))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for TraceGen {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{benchmark, BENCHMARKS};
    use proptest::prelude::*;
    use sipt_cpu::{pack_inst_meta, MemOp, MemRef};
    use sipt_mem::{fragment_memory, PlacementPolicy};

    impl Layout {
        /// `va_of` by binary search over the regions' starting offsets:
        /// the reference the strided lookup is compared against.
        fn searched_va(&self, offset: u64) -> VirtAddr {
            let idx = match self.cumulative.binary_search(&offset) {
                Ok(i) => i,
                Err(i) => i - 1,
            };
            self.regions[idx].start + (offset - self.cumulative[idx])
        }
    }

    /// The generator as it was before it emitted packed words: it builds
    /// an `Inst` from `Option` fields per step and finds an address's
    /// region by binary search. It shares the role stepping
    /// (`next_access`) and draws the same RNG values in the same order,
    /// so `TraceGen::step` must match it word for word.
    struct InstOracle(TraceGen);

    impl InstOracle {
        fn gen_mem(&mut self) -> Inst {
            let g = &mut self.0;
            let (pc, offset, is_chase) = g.next_access();
            let va = g.layout.searched_va(offset);
            if is_chase {
                Inst {
                    pc,
                    dst: Some(CHASE_REG),
                    srcs: [Some(CHASE_REG), None],
                    mem: Some(MemRef { op: MemOp::Load, va }),
                    exec_latency: 1,
                }
            } else if g.rng.gen_bool(g.store_ratio) {
                Inst::store(pc, Some(g.last_alu_dst), None, va)
            } else {
                let dst = LOAD_REG_BASE + (g.load_rot % LOAD_REGS);
                g.load_rot = g.load_rot.wrapping_add(1);
                let addr_reg = if g.rng.gen_bool(0.5) { Some(g.last_alu_dst) } else { None };
                Inst::load(pc, dst, addr_reg, va)
            }
        }

        fn gen_alu(&mut self) -> Inst {
            let g = &mut self.0;
            let dst = g.alu_rot % ALU_REGS;
            g.alu_rot = g.alu_rot.wrapping_add(1);
            let src1 = g.rng.gen_bool(0.4).then_some(g.last_alu_dst);
            let src2 =
                g.rng.gen_bool(0.3).then(|| LOAD_REG_BASE + g.load_rot.wrapping_sub(1) % LOAD_REGS);
            let mut inst = Inst::alu(0x10_0000 + dst as u64 * 4, dst, [src1, src2]);
            if g.rng.gen_bool(0.1) {
                inst.exec_latency = 3;
            }
            g.last_alu_dst = dst;
            inst
        }
    }

    impl Iterator for InstOracle {
        type Item = Inst;

        fn next(&mut self) -> Option<Inst> {
            if self.0.remaining == 0 {
                return None;
            }
            self.0.remaining -= 1;
            Some(if self.0.rng.gen_bool(self.0.mem_ratio) {
                self.gen_mem()
            } else {
                self.gen_alu()
            })
        }
    }

    /// The packed emitter against the `Inst`-building oracle: every
    /// benchmark, two seeds, three placements and a fragmented
    /// allocator yield the same PCs, metadata words and addresses and
    /// leave the same generator state.
    #[test]
    fn packed_emitter_matches_the_inst_oracle() {
        const N: u64 = 20_000;
        let mut fragmented = BuddyAllocator::with_bytes(2 << 30);
        let _pinned = fragment_memory(&mut fragmented, 0.5, &mut StdRng::seed_from_u64(7)).unwrap();
        let conditions = [
            (PlacementPolicy::LinuxDefault, BuddyAllocator::with_bytes(2 << 30)),
            (PlacementPolicy::ThpOff, BuddyAllocator::with_bytes(2 << 30)),
            (PlacementPolicy::Scattered, BuddyAllocator::with_bytes(2 << 30)),
            (PlacementPolicy::LinuxDefault, fragmented),
        ];
        for spec in BENCHMARKS {
            for seed in [42, 7919] {
                for (k, (policy, phys)) in conditions.iter().enumerate() {
                    let mut phys = phys.clone();
                    let mut asp = AddressSpace::new(1, *policy);
                    let mut gen = TraceGen::build(spec, &mut asp, &mut phys, N, seed).unwrap();
                    let mut oracle = InstOracle(gen.clone());
                    let ctx = format!("{} seed {seed} condition {k}", spec.name);
                    let mut n = 0;
                    while let Some((pc, meta, va)) = gen.step() {
                        let inst = oracle.next().unwrap_or_else(|| panic!("{ctx}: oracle ended"));
                        assert_eq!(pc, inst.pc, "{ctx}: pc of instruction {n}");
                        assert_eq!(meta, pack_inst_meta(&inst), "{ctx}: meta of instruction {n}");
                        assert_eq!(va, inst.mem.map(|m| m.va), "{ctx}: va of instruction {n}");
                        n += 1;
                    }
                    assert_eq!((n, oracle.next()), (N, None), "{ctx}: stream length");
                    assert_eq!(gen.state_fingerprint(), oracle.0.state_fingerprint(), "{ctx}");
                }
            }
        }
    }

    fn regions_of(pages: &[u64], gap_pages: u64) -> Vec<Region> {
        let mut start = 0x7f00_0000_0000;
        pages
            .iter()
            .map(|&p| {
                let r = Region { start: VirtAddr::new(start), pages: p };
                start += (p + gap_pages) * PAGE_SIZE;
                r
            })
            .collect()
    }

    /// The strided `va_of` against the binary search at every region
    /// boundary, one byte either side of it, the last byte and `probes`
    /// random offsets.
    fn assert_va_of_matches_search(layout: &Layout, probes: u64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let boundaries = layout.cumulative.iter().flat_map(|&c| [c.saturating_sub(1), c, c + 1]);
        let random = (0..probes).map(|_| rng.gen_range(0..layout.bytes()));
        for offset in boundaries.chain([layout.bytes() - 1]).chain(random) {
            if offset < layout.bytes() {
                assert_eq!(layout.va_of(offset), layout.searched_va(offset), "offset {offset}");
            }
        }
    }

    proptest! {
        /// Equal regions with a last one that is shorter, equal or longer
        /// (the cap at the last region covers the longer tail).
        #[test]
        fn strided_va_of_matches_search_on_uniform_layouts(
            n in 1usize..64,
            size in 1u64..512,
            last in 1u64..1024,
            gap in 0u64..4,
            seed in any::<u64>(),
        ) {
            let mut pages = vec![size; n];
            pages[n - 1] = last;
            let layout = Layout::new(regions_of(&pages, gap));
            prop_assert_eq!(layout.stride, pages[0] * PAGE_SIZE);
            assert_va_of_matches_search(&layout, 64, seed);
        }

        /// One region of any size: offset 0 onwards is that region.
        #[test]
        fn single_region_layout_is_one_stride(pages in 1u64..100_000, seed in any::<u64>()) {
            let layout = Layout::new(regions_of(&[pages], 0));
            prop_assert_eq!(layout.stride, pages * PAGE_SIZE);
            assert_va_of_matches_search(&layout, 64, seed);
        }
    }

    /// A region before the last that differs from the first in size has
    /// no strided lookup, so the layout refuses it.
    #[test]
    #[should_panic(expected = "every region but the last must be")]
    fn irregular_layout_is_rejected() {
        Layout::new(regions_of(&[4, 4, 3, 4, 1], 1));
    }

    #[test]
    #[should_panic(expected = "every region but the last must be")]
    fn layout_with_a_short_first_region_is_rejected() {
        Layout::new(regions_of(&[2, 4, 4], 0));
    }

    fn build_for(name: &str, instructions: u64) -> (TraceGen, AddressSpace) {
        let spec = benchmark(name).unwrap();
        let mut phys = BuddyAllocator::with_bytes(2 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        let gen = TraceGen::build(&spec, &mut asp, &mut phys, instructions, 42).unwrap();
        (gen, asp)
    }

    #[test]
    fn generates_exactly_n_instructions() {
        let (gen, _asp) = build_for("sjeng", 10_000);
        assert_eq!(gen.count(), 10_000);
    }

    #[test]
    fn deterministic_across_builds() {
        let (gen_a, _a) = build_for("mcf", 5_000);
        let (gen_b, _b) = build_for("mcf", 5_000);
        let a: Vec<Inst> = gen_a.collect();
        let b: Vec<Inst> = gen_b.collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_memory_address_is_mapped() {
        let (gen, asp) = build_for("gcc", 20_000);
        let mut mem_ops = 0;
        for inst in gen {
            if let Some(mem) = inst.mem {
                mem_ops += 1;
                assert!(asp.translate(mem.va).is_some(), "unmapped access at {}", mem.va);
            }
        }
        assert!(mem_ops > 5_000, "gcc should be ~36% memory ops, got {mem_ops}");
    }

    #[test]
    fn mem_ratio_is_respected() {
        let spec = benchmark("hmmer").unwrap(); // mem_ratio 0.45
        let (gen, _asp) = build_for("hmmer", 50_000);
        let mem_ops = gen.filter(Inst::is_mem).count();
        let ratio = mem_ops as f64 / 50_000.0;
        assert!((ratio - spec.mem_ratio).abs() < 0.02, "ratio = {ratio}");
    }

    #[test]
    fn store_ratio_roughly_respected() {
        let (gen, _asp) = build_for("bzip2", 50_000);
        let (mut loads, mut stores) = (0u64, 0u64);
        for inst in gen {
            match inst.mem.map(|m| m.op) {
                Some(MemOp::Load) => loads += 1,
                Some(MemOp::Store) => stores += 1,
                None => {}
            }
        }
        let ratio = stores as f64 / (loads + stores) as f64;
        // Chase loads never become stores, so observed ratio ≤ spec.
        assert!((0.1..0.4).contains(&ratio), "store ratio = {ratio}");
    }

    #[test]
    fn streaming_workload_has_spatial_locality() {
        let (gen, _asp) = build_for("libquantum", 40_000);
        let mut addrs: Vec<u64> = Vec::new();
        for inst in gen {
            if let Some(mem) = inst.mem {
                addrs.push(mem.va.raw());
            }
        }
        // Count accesses that touch the same 64 B line as some earlier
        // nearby access: streaming at stride 16 revisits each line 4×.
        let mut same_line = 0;
        let mut seen = std::collections::HashSet::new();
        for a in &addrs {
            if !seen.insert(a >> 6) {
                same_line += 1;
            }
        }
        let frac = same_line as f64 / addrs.len() as f64;
        assert!(frac > 0.5, "line reuse fraction = {frac}");
    }

    #[test]
    fn chase_instructions_are_self_dependent() {
        let (gen, _asp) = build_for("mcf", 50_000);
        let chases: Vec<Inst> =
            gen.filter(|i| i.mem.is_some() && i.dst == Some(CHASE_REG)).collect();
        assert!(!chases.is_empty(), "mcf must emit pointer chases");
        for c in &chases {
            assert_eq!(c.srcs[0], Some(CHASE_REG), "chase must read its own register");
        }
    }

    #[test]
    fn incremental_allocation_creates_many_regions() {
        let spec = benchmark("calculix").unwrap();
        let mut phys = BuddyAllocator::with_bytes(2 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        let _gen = TraceGen::build(&spec, &mut asp, &mut phys, 100, 1).unwrap();
        assert!(
            asp.regions().count() > 1000,
            "single-page chunks: {} regions",
            asp.regions().count()
        );
        assert_eq!(asp.huge_page_fraction(), 0.0, "tiny chunks can never be huge");
    }

    #[test]
    fn burst_allocation_is_single_region_with_huge_pages() {
        let spec = benchmark("libquantum").unwrap();
        let mut phys = BuddyAllocator::with_bytes(2 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        let _gen = TraceGen::build(&spec, &mut asp, &mut phys, 100, 1).unwrap();
        assert_eq!(asp.regions().count(), 1);
        assert!(asp.huge_page_fraction() > 0.99);
    }

    #[test]
    fn all_benchmarks_build_in_2gib() {
        for spec in BENCHMARKS {
            let mut phys = BuddyAllocator::with_bytes(2 << 30);
            let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
            let gen = TraceGen::build(spec, &mut asp, &mut phys, 10, 7)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(gen.layout().bytes(), spec.footprint.div_ceil(4096) * 4096);
        }
    }

    #[test]
    fn state_fingerprint_tracks_the_generator_state() {
        let (a, _a) = build_for("calculix", 5_000);
        let (b, _b) = build_for("calculix", 5_000);
        assert_eq!(a.state_fingerprint(), b.state_fingerprint());
        let (c, _c) = build_for("calculix", 5_001);
        assert_ne!(a.state_fingerprint(), c.state_fingerprint(), "remaining count");
        let mut d = a.clone();
        d.next();
        assert_ne!(a.state_fingerprint(), d.state_fingerprint(), "advanced RNG and counters");
        let (e, _e) = build_for("gcc", 5_000);
        assert_ne!(a.state_fingerprint(), e.state_fingerprint(), "statics and layout");
    }

    #[test]
    fn layout_va_of_is_monotone_within_region() {
        let (gen, _asp) = build_for("sjeng", 0);
        let l = gen.layout();
        assert_eq!(l.va_of(0).raw() + 100, l.va_of(100).raw());
    }

    #[test]
    #[should_panic(expected = "beyond layout")]
    fn layout_bounds_checked() {
        let (gen, _asp) = build_for("sjeng", 0);
        let _ = gen.layout().va_of(u64::MAX);
    }
}
