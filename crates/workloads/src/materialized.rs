//! Compact, replayable traces.
//!
//! [`TraceGen`] is a *generator*: every [`Inst`] it yields costs RNG
//! draws and role bookkeeping, and a drained generator is gone — running
//! five L1 configurations over the same benchmark meant generating the
//! same stream five times. [`MaterializedTrace`] drains a generator
//! **once** into a structure-of-arrays encoding (packed `pc`/register
//! metadata plus a side array of memory addresses — no per-`Inst`
//! `Option` padding) and replays it any number of times through
//! [`MaterializedTrace::cursor`], a zero-allocation iterator that yields
//! bit-identical `Inst`s. All randomness is spent at materialization
//! time; replay is pure array walking.
//!
//! The generator emits packed metadata words itself (see the `gen`
//! module), so [`MaterializedTrace::from_gen`] never builds an `Inst`:
//! it pushes each step's PC, word and address straight into the arrays.
//! Only [`MaterializedTrace::from_insts`] packs with
//! `sipt_cpu::pack_inst_meta`.
//!
//! Per instruction the encoding stores 12 bytes (8-byte PC + 4-byte
//! metadata word, layout defined in `sipt-cpu`) plus 8 bytes per memory
//! reference, versus 56 bytes for a `Vec<Inst>`.

use crate::gen::TraceGen;
use sipt_cpu::{meta_has_mem, pack_inst_meta, unpack_inst_meta, Inst};
use sipt_mem::VirtAddr;

/// A drained, immutable instruction stream in structure-of-arrays form.
///
/// Build once with [`MaterializedTrace::from_gen`]; replay freely with
/// [`MaterializedTrace::cursor`]. Two cursors over the same trace yield
/// identical streams, and the stream is bit-identical to what the
/// original generator would have produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedTrace {
    /// Program counter of each instruction.
    pcs: Vec<u64>,
    /// Packed non-address metadata (see `sipt_cpu::pack_inst_meta`).
    meta: Vec<u32>,
    /// Virtual addresses of memory references, in stream order; the
    /// cursor consumes one entry per metadata word with the mem bit set.
    mem_vas: Vec<u64>,
}

impl MaterializedTrace {
    /// Drain `gen` to completion, spending all of its RNG work now so
    /// that replay does none. The generator emits packed words, so this
    /// only pushes them into the arrays.
    pub fn from_gen(mut gen: TraceGen) -> Self {
        let n = gen.len();
        let mut pcs = Vec::with_capacity(n);
        let mut meta = Vec::with_capacity(n);
        let mut mem_vas = Vec::with_capacity(n);
        while let Some((pc, m, va)) = gen.step() {
            pcs.push(pc);
            meta.push(m);
            if let Some(va) = va {
                mem_vas.push(va.raw());
            }
        }
        mem_vas.shrink_to_fit();
        Self { pcs, meta, mem_vas }
    }

    /// Materialize an arbitrary instruction sequence (trace files,
    /// hand-built tests).
    pub fn from_insts<I: IntoIterator<Item = Inst>>(insts: I) -> Self {
        let mut trace = Self { pcs: Vec::new(), meta: Vec::new(), mem_vas: Vec::new() };
        for inst in insts {
            trace.push(&inst);
        }
        trace
    }

    fn push(&mut self, inst: &Inst) {
        self.pcs.push(inst.pc);
        self.meta.push(pack_inst_meta(inst));
        if let Some(mem) = inst.mem {
            self.mem_vas.push(mem.va.raw());
        }
    }

    /// Number of instructions in the trace.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// Number of memory references in the trace.
    pub fn mem_refs(&self) -> usize {
        self.mem_vas.len()
    }

    /// Resident bytes of the encoding (for cache accounting).
    pub fn bytes(&self) -> usize {
        self.pcs.len() * std::mem::size_of::<u64>()
            + self.meta.len() * std::mem::size_of::<u32>()
            + self.mem_vas.len() * std::mem::size_of::<u64>()
    }

    /// A zero-allocation replay cursor starting at the first instruction.
    pub fn cursor(&self) -> TraceCursor<'_> {
        TraceCursor { trace: self, idx: 0, mem_idx: 0 }
    }
}

/// Zero-allocation replay iterator over a [`MaterializedTrace`].
///
/// Yields owned [`Inst`]s (they are `Copy`) reconstructed from the
/// packed arrays; supports partial consumption — e.g.
/// `(&mut cursor).take(warmup)` followed by draining the rest — without
/// losing its position.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    trace: &'a MaterializedTrace,
    idx: usize,
    mem_idx: usize,
}

/// A borrowed view of up to one batch of consecutive instructions in
/// structure-of-arrays form, yielded by [`TraceCursor::next_block`].
///
/// `pcs` and `meta` are parallel (one entry per instruction); `mem_vas`
/// holds the block's memory references in stream order, one per `meta`
/// word with the mem bit set. Block-replay kernels decode `meta` with
/// `sipt_cpu::unpack_meta_fields` and batch-translate `mem_vas` without
/// materializing `Inst` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstBlock<'a> {
    /// Program counter of each instruction in the block.
    pub pcs: &'a [u64],
    /// Packed non-address metadata, parallel to `pcs`.
    pub meta: &'a [u32],
    /// Virtual addresses of the block's memory references, in order.
    pub mem_vas: &'a [u64],
}

impl InstBlock<'_> {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }
}

impl<'a> TraceCursor<'a> {
    /// Yield the next block of at most `max` instructions as raw SoA
    /// slices, advancing the cursor past them. Returns `None` when the
    /// trace is exhausted (or `max == 0`). Interleaves freely with
    /// `Iterator::next`: both consume the same position.
    pub fn next_block(&mut self, max: usize) -> Option<InstBlock<'a>> {
        if self.idx >= self.trace.len() || max == 0 {
            return None;
        }
        let end = (self.idx + max).min(self.trace.len());
        let meta = &self.trace.meta[self.idx..end];
        let n_mem = meta.iter().filter(|&&m| meta_has_mem(m)).count();
        let block = InstBlock {
            pcs: &self.trace.pcs[self.idx..end],
            meta,
            mem_vas: &self.trace.mem_vas[self.mem_idx..self.mem_idx + n_mem],
        };
        self.idx = end;
        self.mem_idx += n_mem;
        Some(block)
    }
}

impl Iterator for TraceCursor<'_> {
    type Item = Inst;

    #[inline]
    fn next(&mut self) -> Option<Inst> {
        let meta = *self.trace.meta.get(self.idx)?;
        let pc = self.trace.pcs[self.idx];
        self.idx += 1;
        let va = meta_has_mem(meta).then(|| {
            let raw = self.trace.mem_vas[self.mem_idx];
            self.mem_idx += 1;
            VirtAddr::new(raw)
        });
        Some(unpack_inst_meta(meta, pc, va))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.trace.len() - self.idx;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::benchmark;
    use sipt_mem::{AddressSpace, BuddyAllocator, PlacementPolicy};

    fn gen_for(name: &str, instructions: u64) -> TraceGen {
        let spec = benchmark(name).unwrap();
        let mut phys = BuddyAllocator::with_bytes(2 << 30);
        let mut asp = AddressSpace::new(1, PlacementPolicy::LinuxDefault);
        TraceGen::build(&spec, &mut asp, &mut phys, instructions, 42).unwrap()
    }

    #[test]
    fn replay_is_bit_identical_to_the_generator() {
        let reference: Vec<Inst> = gen_for("mcf", 20_000).collect();
        let trace = MaterializedTrace::from_gen(gen_for("mcf", 20_000));
        assert_eq!(trace.len(), reference.len());
        let replayed: Vec<Inst> = trace.cursor().collect();
        assert_eq!(replayed, reference);
    }

    #[test]
    fn replay_is_repeatable() {
        let trace = MaterializedTrace::from_gen(gen_for("gcc", 10_000));
        let a: Vec<Inst> = trace.cursor().collect();
        let b: Vec<Inst> = trace.cursor().collect();
        assert_eq!(a, b);
        assert_eq!(trace.mem_refs(), a.iter().filter(|i| i.is_mem()).count());
    }

    #[test]
    fn cursor_survives_partial_consumption() {
        let trace = MaterializedTrace::from_gen(gen_for("sjeng", 5_000));
        let whole: Vec<Inst> = trace.cursor().collect();
        let mut cursor = trace.cursor();
        let head: Vec<Inst> = (&mut cursor).take(1_500).collect();
        let tail: Vec<Inst> = cursor.collect();
        assert_eq!(head.len(), 1_500);
        assert_eq!(head.as_slice(), &whole[..1_500]);
        assert_eq!(tail.as_slice(), &whole[1_500..]);
    }

    #[test]
    fn exact_size_iterator_counts_down() {
        let trace = MaterializedTrace::from_gen(gen_for("sjeng", 100));
        let mut cursor = trace.cursor();
        assert_eq!(cursor.len(), 100);
        let _ = cursor.next();
        assert_eq!(cursor.len(), 99);
    }

    #[test]
    fn blocks_cover_the_stream_exactly() {
        let trace = MaterializedTrace::from_gen(gen_for("mcf", 5_000));
        let whole: Vec<Inst> = trace.cursor().collect();
        for batch in [1usize, 7, 256, 10_000] {
            let mut cursor = trace.cursor();
            let mut rebuilt: Vec<Inst> = Vec::new();
            while let Some(block) = cursor.next_block(batch) {
                assert!(block.len() <= batch && !block.is_empty());
                let mut mem_i = 0;
                for (k, &meta) in block.meta.iter().enumerate() {
                    let va = meta_has_mem(meta).then(|| {
                        let raw = block.mem_vas[mem_i];
                        mem_i += 1;
                        VirtAddr::new(raw)
                    });
                    rebuilt.push(unpack_inst_meta(meta, block.pcs[k], va));
                }
                assert_eq!(mem_i, block.mem_vas.len());
            }
            assert_eq!(rebuilt, whole, "batch {batch}");
        }
    }

    #[test]
    fn blocks_interleave_with_scalar_iteration() {
        let trace = MaterializedTrace::from_gen(gen_for("gcc", 3_000));
        let whole: Vec<Inst> = trace.cursor().collect();
        let mut cursor = trace.cursor();
        let head: Vec<Inst> = (&mut cursor).take(1_000).collect();
        let block = cursor.next_block(500).unwrap();
        assert_eq!(head.as_slice(), &whole[..1_000]);
        assert_eq!(block.pcs.len(), 500);
        assert_eq!(block.pcs[0], whole[1_000].pc);
        let tail: Vec<Inst> = (&mut cursor).collect();
        assert_eq!(tail.as_slice(), &whole[1_500..]);
        assert_eq!(cursor.next_block(1), None, "drained cursor yields no blocks");
    }

    #[test]
    fn from_insts_roundtrips() {
        let insts: Vec<Inst> = gen_for("hmmer", 2_000).collect();
        let trace = MaterializedTrace::from_insts(insts.iter().copied());
        let back: Vec<Inst> = trace.cursor().collect();
        assert_eq!(back, insts);
    }

    #[test]
    fn encoding_is_denser_than_vec_of_inst() {
        let trace = MaterializedTrace::from_gen(gen_for("libquantum", 10_000));
        let vec_bytes = 10_000 * std::mem::size_of::<Inst>();
        assert!(
            trace.bytes() < vec_bytes / 2,
            "SoA {} bytes vs Vec<Inst> {} bytes",
            trace.bytes(),
            vec_bytes
        );
    }

    #[test]
    fn empty_trace_is_empty() {
        let trace = MaterializedTrace::from_insts(std::iter::empty());
        assert!(trace.is_empty());
        assert_eq!(trace.cursor().next(), None);
    }
}
