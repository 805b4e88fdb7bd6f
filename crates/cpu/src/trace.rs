//! The trace "ISA": the instruction stream the timing models replay.
//!
//! Mirrors what the paper's modified Macsim trace generator captures per
//! instruction: the PC, register dependences, and — for memory operations
//! — the *virtual* address (physical addresses are produced during
//! simulation by the machine's TLB/page-table, not baked into the trace).

use sipt_mem::VirtAddr;

/// Number of architectural registers in the trace ISA.
pub const NUM_REGS: usize = 64;

/// A register name (0..[`NUM_REGS`]).
pub type Reg = u8;

/// Load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// A load: the destination register becomes ready when data returns.
    Load,
    /// A store: retires through the write buffer without blocking.
    Store,
}

/// A memory reference attached to an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Load or store.
    pub op: MemOp,
    /// Virtual address accessed.
    pub va: VirtAddr,
}

/// One traced instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// Program counter (used to index the SIPT predictors).
    pub pc: u64,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
    /// Memory reference, if this is a load/store.
    pub mem: Option<MemRef>,
    /// Execution latency of the ALU portion in cycles (≥ 1).
    pub exec_latency: u64,
}

impl Inst {
    /// A simple ALU instruction `dst = f(src)` with unit latency.
    pub fn alu(pc: u64, dst: Reg, srcs: [Option<Reg>; 2]) -> Self {
        Self { pc, dst: Some(dst), srcs, mem: None, exec_latency: 1 }
    }

    /// A load `dst = [va]`, with the address formed from `addr_reg`.
    pub fn load(pc: u64, dst: Reg, addr_reg: Option<Reg>, va: VirtAddr) -> Self {
        Self {
            pc,
            dst: Some(dst),
            srcs: [addr_reg, None],
            mem: Some(MemRef { op: MemOp::Load, va }),
            exec_latency: 1,
        }
    }

    /// A store `[va] = src`.
    pub fn store(pc: u64, data_reg: Option<Reg>, addr_reg: Option<Reg>, va: VirtAddr) -> Self {
        Self {
            pc,
            dst: None,
            srcs: [data_reg, addr_reg],
            mem: Some(MemRef { op: MemOp::Store, va }),
            exec_latency: 1,
        }
    }

    /// Whether this instruction references memory.
    pub fn is_mem(&self) -> bool {
        self.mem.is_some()
    }
}

/// Packed-metadata bit: set when the instruction references memory.
///
/// Compact trace encodings (the structure-of-arrays
/// `MaterializedTrace` in `sipt-workloads`) store everything about an
/// [`Inst`] except its PC and memory address in one `u32`:
///
/// ```text
/// bits  0..=5   dst register        bit  6  dst present
/// bits  7..=12  src0 register       bit 13  src0 present
/// bits 14..=19  src1 register       bit 20  src1 present
/// bit  21       references memory   bit 22  memory op is a store
/// bits 23..=30  exec_latency (1..=255)
/// ```
///
/// Six bits per register is exactly [`NUM_REGS`] = 64; the layout lives
/// here, next to the ISA, so the two stay in sync.
pub const META_HAS_MEM: u32 = 1 << 21;

/// Packed-metadata bit: set when the memory op is a store.
pub const META_STORE: u32 = 1 << 22;

/// The metadata bits naming `r` as destination register.
#[inline(always)]
pub const fn meta_dst(r: Reg) -> u32 {
    r as u32 | 1 << 6
}

/// The metadata bits naming `r` as first source register.
#[inline(always)]
pub const fn meta_src0(r: Reg) -> u32 {
    (r as u32) << 7 | 1 << 13
}

/// The metadata bits naming `r` as second source register.
#[inline(always)]
pub const fn meta_src1(r: Reg) -> u32 {
    (r as u32) << 14 | 1 << 20
}

/// The metadata bits of an execution latency of `cycles` (1..=255).
#[inline(always)]
pub const fn meta_latency(cycles: u32) -> u32 {
    cycles << 23
}

/// Pack the non-address fields of `inst` into one metadata word.
///
/// Generators that know their fields up front build the word directly
/// from [`meta_dst`], [`meta_src0`], [`meta_src1`], [`META_HAS_MEM`],
/// [`META_STORE`] and [`meta_latency`]; this is the same packing from an
/// [`Inst`].
///
/// # Panics
///
/// Panics if `exec_latency` is outside `1..=255` or a register is out of
/// range — both impossible for generator-produced traces.
pub fn pack_inst_meta(inst: &Inst) -> u32 {
    assert!(
        (1..=255).contains(&inst.exec_latency),
        "exec_latency {} does not fit the packed encoding",
        inst.exec_latency
    );
    let reg = |r: Option<Reg>, place: fn(Reg) -> u32| {
        r.map_or(0, |r| {
            assert!((r as usize) < NUM_REGS, "register {r} out of range");
            place(r)
        })
    };
    let mem = inst
        .mem
        .map_or(0, |mem| META_HAS_MEM | if mem.op == MemOp::Store { META_STORE } else { 0 });
    reg(inst.dst, meta_dst)
        | reg(inst.srcs[0], meta_src0)
        | reg(inst.srcs[1], meta_src1)
        | mem
        | meta_latency(inst.exec_latency as u32)
}

/// Whether a packed metadata word references memory (i.e. whether
/// [`unpack_inst_meta`] needs a virtual address).
#[inline]
pub fn meta_has_mem(meta: u32) -> bool {
    meta & META_HAS_MEM != 0
}

/// Reconstruct the [`Inst`] encoded by `meta` (from [`pack_inst_meta`])
/// with program counter `pc` and — iff [`meta_has_mem`] — address `va`.
///
/// # Panics
///
/// Panics if the word references memory but no `va` was supplied.
#[inline]
pub fn unpack_inst_meta(meta: u32, pc: u64, va: Option<VirtAddr>) -> Inst {
    let reg = |shift: u32, present: u32| -> Option<Reg> {
        (meta & (1 << present) != 0).then(|| ((meta >> shift) & 0x3F) as Reg)
    };
    let mem = (meta & META_HAS_MEM != 0).then(|| MemRef {
        op: if meta & META_STORE != 0 { MemOp::Store } else { MemOp::Load },
        va: va.expect("packed instruction references memory but no VA was supplied"),
    });
    Inst {
        pc,
        dst: reg(0, 6),
        srcs: [reg(7, 13), reg(14, 20)],
        mem,
        exec_latency: ((meta >> 23) & 0xFF) as u64,
    }
}

/// Decode the engine-facing fields of a packed metadata word — `(dst,
/// srcs, Some(is_store)` for memory instructions`, exec_latency)` —
/// without materializing an [`Inst`]. Block-replay kernels feed these
/// straight into [`crate::OooEngine::step`] /
/// [`crate::InOrderEngine::step`].
#[inline(always)]
pub fn unpack_meta_fields(meta: u32) -> (Option<Reg>, [Option<Reg>; 2], Option<bool>, u64) {
    let reg = |shift: u32, present: u32| -> Option<Reg> {
        (meta & (1 << present) != 0).then(|| ((meta >> shift) & 0x3F) as Reg)
    };
    let mem_store = (meta & META_HAS_MEM != 0).then_some(meta & META_STORE != 0);
    (reg(0, 6), [reg(7, 13), reg(14, 20)], mem_store, ((meta >> 23) & 0xFF) as u64)
}

/// The response of the memory path to one load/store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemResponse {
    /// Cycles until the data (load) or completion acknowledgement (store)
    /// is available.
    pub latency: u64,
    /// L1 port slots this access consumed (2 for a replayed SIPT access —
    /// the paper's "contends for the L1 cache port" cost).
    pub port_slots: u32,
}

impl MemResponse {
    /// A plain response occupying one port slot.
    pub fn simple(latency: u64) -> Self {
        Self { latency, port_slots: 1 }
    }
}

/// The memory system as seen by a core's timing model.
pub trait MemoryPath {
    /// Perform the access of `inst` (which must have `mem`) at cycle
    /// `now`; returns its latency and port occupancy.
    fn access(&mut self, pc: u64, mem: MemRef, now: u64) -> MemResponse;
}

/// A fixed-latency memory path for unit tests.
#[derive(Debug, Clone, Copy)]
pub struct FixedMemory {
    /// Latency returned for every access.
    pub latency: u64,
}

impl MemoryPath for FixedMemory {
    fn access(&mut self, _pc: u64, _mem: MemRef, _now: u64) -> MemResponse {
        MemResponse::simple(self.latency)
    }
}

/// Result of simulating an instruction stream on a core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreResult {
    /// Instructions retired.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Memory operations executed.
    pub mem_ops: u64,
}

impl CoreResult {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.instructions as f64 / self.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_fields() {
        let l = Inst::load(0x10, 3, Some(1), VirtAddr::new(0x1000));
        assert!(l.is_mem());
        assert_eq!(l.mem.unwrap().op, MemOp::Load);
        assert_eq!(l.dst, Some(3));

        let s = Inst::store(0x14, Some(2), Some(1), VirtAddr::new(0x1008));
        assert_eq!(s.mem.unwrap().op, MemOp::Store);
        assert_eq!(s.dst, None);

        let a = Inst::alu(0x18, 4, [Some(3), Some(2)]);
        assert!(!a.is_mem());
        assert_eq!(a.exec_latency, 1);
    }

    #[test]
    fn ipc_math() {
        let r = CoreResult { instructions: 100, cycles: 50, mem_ops: 10 };
        assert_eq!(r.ipc(), 2.0);
        assert_eq!(CoreResult::default().ipc(), 0.0);
    }

    #[test]
    fn packed_meta_roundtrips_every_shape() {
        let samples = [
            Inst::alu(0x18, 4, [Some(3), Some(2)]),
            Inst::alu(0x1C, 63, [None, Some(63)]),
            Inst::load(0x10, 3, Some(1), VirtAddr::new(0x1000)),
            Inst::load(0x10, 0, None, VirtAddr::new(0xFFFF_F000)),
            Inst::store(0x14, Some(2), Some(1), VirtAddr::new(0x1008)),
            Inst::store(0x14, None, None, VirtAddr::new(0x8)),
            Inst {
                pc: u64::MAX,
                dst: Some(16),
                srcs: [Some(16), None],
                mem: Some(MemRef { op: MemOp::Load, va: VirtAddr::new(7) }),
                exec_latency: 255,
            },
            Inst { pc: 0, dst: None, srcs: [None, None], mem: None, exec_latency: 3 },
        ];
        for inst in samples {
            let meta = pack_inst_meta(&inst);
            assert_eq!(meta_has_mem(meta), inst.mem.is_some());
            let back = unpack_inst_meta(meta, inst.pc, inst.mem.map(|m| m.va));
            assert_eq!(back, inst, "meta {meta:#x}");
            // The field-wise decoder must agree with the Inst decoder.
            let (dst, srcs, mem_store, lat) = unpack_meta_fields(meta);
            assert_eq!(dst, inst.dst);
            assert_eq!(srcs, inst.srcs);
            assert_eq!(mem_store, inst.mem.map(|m| m.op == MemOp::Store));
            assert_eq!(lat, inst.exec_latency);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn packed_meta_rejects_oversized_latency() {
        let mut inst = Inst::alu(0, 0, [None, None]);
        inst.exec_latency = 256;
        let _ = pack_inst_meta(&inst);
    }

    #[test]
    #[should_panic(expected = "no VA was supplied")]
    fn unpack_requires_va_for_mem_ops() {
        let meta = pack_inst_meta(&Inst::load(0, 1, None, VirtAddr::new(0)));
        let _ = unpack_inst_meta(meta, 0, None);
    }

    #[test]
    fn mem_response_simple() {
        let r = MemResponse::simple(4);
        assert_eq!(r.port_slots, 1);
        assert_eq!(r.latency, 4);
    }
}
