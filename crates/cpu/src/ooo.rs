//! Out-of-order core timing model (paper Table II: 6-wide issue, 192-entry
//! ROB, 3 GHz).
//!
//! A timestamp-dataflow model: each instruction's completion time is the
//! max of its dispatch time (fetch bandwidth + ROB occupancy), its source
//! operands' ready times, and structural constraints (L1 ports), plus its
//! execution/memory latency. Retirement is in order at the commit width.
//! This reproduces the properties the paper's results depend on — latency
//! sensitivity of dependent chains, memory-level parallelism across the
//! ROB window, and L1 port contention from SIPT replays — at a small
//! fraction of a full pipeline model's cost.

use crate::trace::{CoreResult, Inst, MemOp, MemResponse, MemoryPath, NUM_REGS};

/// OOO core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OooConfig {
    /// Fetch/issue/commit width.
    pub width: u32,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// L1 data ports (concurrent accesses per cycle).
    pub mem_ports: u32,
}

impl Default for OooConfig {
    fn default() -> Self {
        Self { width: 6, rob: 192, mem_ports: 2 }
    }
}

/// Simulate an instruction stream on the OOO model.
///
/// `mem` services every load/store (through the machine's TLB + SIPT L1 +
/// lower hierarchy); the model charges the returned latency to the
/// dependence chain and the returned port slots to the L1 ports.
pub fn simulate_ooo<I, M>(config: OooConfig, insts: I, mem: &mut M) -> CoreResult
where
    I: IntoIterator<Item = Inst>,
    M: MemoryPath + ?Sized,
{
    let mut engine = OooEngine::new(config);
    for inst in insts {
        let mem_store = inst.mem.map(|m| m.op == MemOp::Store);
        engine.step(inst.dst, inst.srcs, mem_store, inst.exec_latency, |now| {
            mem.access(inst.pc, inst.mem.expect("closure only runs for memory insts"), now)
        });
    }
    engine.finish()
}

/// The incremental form of [`simulate_ooo`]: the same timestamp-dataflow
/// algebra with the loop state lifted into a struct, so block-replay
/// kernels can feed decoded SoA instructions directly without first
/// materializing `Inst` values. [`simulate_ooo`] is a thin wrapper over
/// this type, keeping the two bit-identical by construction.
#[derive(Debug)]
pub struct OooEngine {
    width: u64,
    rob: usize,
    ports: u64,
    // One extra slot: index `NUM_REGS` is a sentinel that always reads 0,
    // so absent operands/destinations become unconditional array accesses
    // (a select on the index) instead of data-dependent branches — the
    // src/dst presence pattern of a real trace is what branch predictors
    // are worst at.
    reg_ready: [u64; NUM_REGS + 1],
    // Retire times of the last `rob` instructions (for ROB occupancy),
    // kept as a flat ring: instruction `i` reads and then overwrites slot
    // `i % rob`, which is exactly the pop-front/push-back FIFO of a
    // `VecDeque` bounded at `rob` entries — without the deque's wrap
    // arithmetic and branchy len tracking on the hot path.
    rob_retire: Vec<u64>,
    // Commit bookkeeping in 1/width-cycle slots: enforces in-order retire
    // at no more than `width` instructions per cycle. Tracked as
    // quotient/remainder against `width` (`retire_slot = q*width + r`,
    // `r < width`) so the per-step `retire_slot / width` needs no divide:
    // the slot either jumps to an exact multiple of `width` or advances
    // by one, and both cases update (q, r) with adds and compares.
    retire_q: u64,
    retire_r: u64,
    // L1 port bookkeeping: a rolling "next free slot" expressed in
    // port-slot units (width `mem_ports` per cycle), tracked as
    // quotient/remainder against `ports` for the same reason.
    port_q: u64,
    port_r: u64,
    // `i / width` and `i % rob` maintained incrementally (division-free):
    // the fetch-cycle counter with its sub-cycle remainder, and the ring
    // cursor with explicit wraparound.
    fetch_time: u64,
    fetch_rem: u64,
    ring_slot: usize,
    i: u64,
    mem_ops: u64,
}

impl OooEngine {
    /// Fresh engine state for one instruction stream.
    pub fn new(config: OooConfig) -> Self {
        assert!(config.width > 0 && config.rob > 0 && config.mem_ports > 0);
        Self {
            width: config.width as u64,
            rob: config.rob,
            ports: config.mem_ports as u64,
            reg_ready: [0u64; NUM_REGS + 1],
            rob_retire: vec![0u64; config.rob],
            retire_q: 0,
            retire_r: 0,
            port_q: 0,
            port_r: 0,
            fetch_time: 0,
            fetch_rem: 0,
            ring_slot: 0,
            i: 0,
            mem_ops: 0,
        }
    }

    /// Advance the model by one decoded instruction. Memory instructions
    /// pass `mem_store = Some(is_store)` plus a `mem` closure mapping the
    /// access start cycle to its serviced response; for non-memory
    /// instructions `mem` is never called.
    #[inline(always)]
    pub fn step<F>(
        &mut self,
        dst: Option<u8>,
        srcs: [Option<u8>; 2],
        mem_store: Option<bool>,
        exec_latency: u64,
        mut mem: F,
    ) where
        F: FnMut(u64) -> MemResponse,
    {
        // Dispatch: fetch bandwidth + ROB space. The ring slot holds the
        // retire time of instruction `i - rob` (0 while the ROB is still
        // filling: those slots were never written and the ring starts
        // zeroed, so reading unconditionally equals the old `i >= rob`
        // guard). `fetch_time` is `i / width` maintained incrementally.
        let ring_slot = self.ring_slot;
        let rob_free = self.rob_retire[ring_slot];
        let dispatch = self.fetch_time.max(rob_free);

        // Operand readiness: absent operands read the always-zero sentinel
        // slot (0 never raises the max past `dispatch`), so there is no
        // per-operand presence branch.
        let s0 = srcs[0].map_or(NUM_REGS, usize::from);
        let s1 = srcs[1].map_or(NUM_REGS, usize::from);
        let ready = dispatch.max(self.reg_ready[s0]).max(self.reg_ready[s1]);

        // Execute.
        let complete = match mem_store {
            None => ready + exec_latency,
            Some(is_store) => {
                self.mem_ops += 1;
                // Claim L1 port slot(s): the access starts no earlier than
                // both its operands and a free port. With `port_slot_time`
                // as (q, r): `ready*ports >= port_slot_time` iff
                // `ready > q`, or `ready == q` with no sub-cycle residue.
                // Non-short-circuiting `|` and selects keep the claim
                // branch-free (the outcome is data-dependent).
                let claim = (ready > self.port_q) | ((ready == self.port_q) & (self.port_r == 0));
                let start = if claim { ready } else { self.port_q };
                self.port_q = start;
                self.port_r = if claim { 0 } else { self.port_r };
                let response = mem(start);
                self.port_r += response.port_slots as u64;
                while self.port_r >= self.ports {
                    self.port_r -= self.ports;
                    self.port_q += 1;
                }
                // Stores drain through the write buffer: they occupy the
                // port but do not stall dependents.
                start + if is_store { 1 } else { response.latency }
            }
        };

        // Absent destinations write the sentinel slot, which is re-zeroed
        // unconditionally — one dead store instead of a presence branch.
        let d = dst.map_or(NUM_REGS, usize::from);
        self.reg_ready[d] = complete;
        self.reg_ready[NUM_REGS] = 0;

        // In-order retirement at commit width:
        // `retire_slot = (complete*width).max(retire_slot + 1)`. In the
        // (q, r) form the max takes the left arm iff `complete > q` (then
        // the slot lands on an exact multiple of `width`); otherwise the
        // slot advances by one with carry into the quotient. Selects, not
        // branches: whether a retire jumps tracks the workload's latency
        // pattern and mispredicts heavily as a branch.
        let jump = complete > self.retire_q;
        let mut q = if jump { complete } else { self.retire_q };
        let r = if jump { 0 } else { self.retire_r + 1 };
        let carry = r == self.width;
        q += u64::from(carry);
        self.retire_q = q;
        self.retire_r = if carry { 0 } else { r };
        self.rob_retire[ring_slot] = q;

        // Advance the incremental `i / width` and `i % rob` counters.
        let wrap = self.fetch_rem + 1 == self.width;
        self.fetch_time += u64::from(wrap);
        self.fetch_rem = if wrap { 0 } else { self.fetch_rem + 1 };
        self.ring_slot = if ring_slot + 1 == self.rob { 0 } else { ring_slot + 1 };
        self.i += 1;
    }

    /// Final counts for the stream stepped so far.
    pub fn finish(&self) -> CoreResult {
        // `retire_slot.div_ceil(width)` in (q, r) form: q, plus one if any
        // sub-cycle residue remains.
        CoreResult {
            instructions: self.i,
            cycles: (self.retire_q + u64::from(self.retire_r > 0)).max(1),
            mem_ops: self.mem_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FixedMemory, MemRef, MemResponse};
    use sipt_mem::VirtAddr;

    fn loads(n: usize, dependent: bool) -> Vec<Inst> {
        (0..n)
            .map(|i| {
                let addr_reg = if dependent && i > 0 { Some(1u8) } else { None };
                Inst::load(0x100 + i as u64 * 4, 1, addr_reg, VirtAddr::new(0x1000 + i as u64 * 64))
            })
            .collect()
    }

    #[test]
    fn independent_loads_overlap_dependent_do_not() {
        let mut mem = FixedMemory { latency: 20 };
        let indep = simulate_ooo(OooConfig::default(), loads(100, false), &mut mem);
        let dep = simulate_ooo(OooConfig::default(), loads(100, true), &mut mem);
        assert!(
            dep.cycles > indep.cycles * 5,
            "dependent {} vs independent {}",
            dep.cycles,
            indep.cycles
        );
        // Dependent chain: ≥ latency per load.
        assert!(dep.cycles >= 100 * 20);
    }

    #[test]
    fn ipc_approaches_width_on_alu_stream() {
        let insts: Vec<Inst> =
            (0..6000).map(|i| Inst::alu(i, (i % 32) as u8, [None, None])).collect();
        let mut mem = FixedMemory { latency: 1 };
        let r = simulate_ooo(OooConfig::default(), insts, &mut mem);
        let ipc = r.ipc();
        assert!(ipc > 4.0 && ipc <= 6.01, "ipc = {ipc}");
    }

    #[test]
    fn rob_bounds_memory_level_parallelism() {
        // With a tiny ROB, independent long-latency loads can no longer
        // all overlap.
        let mut mem = FixedMemory { latency: 200 };
        let big = simulate_ooo(
            OooConfig { rob: 192, ..OooConfig::default() },
            loads(400, false),
            &mut mem,
        );
        let small =
            simulate_ooo(OooConfig { rob: 4, ..OooConfig::default() }, loads(400, false), &mut mem);
        assert!(small.cycles > big.cycles * 2, "small {} big {}", small.cycles, big.cycles);
    }

    #[test]
    fn port_contention_serializes_bursts() {
        // 1-port vs 2-port on a load burst.
        let mut mem = FixedMemory { latency: 2 };
        let one = simulate_ooo(
            OooConfig { mem_ports: 1, ..OooConfig::default() },
            loads(1000, false),
            &mut mem,
        );
        let two = simulate_ooo(
            OooConfig { mem_ports: 2, ..OooConfig::default() },
            loads(1000, false),
            &mut mem,
        );
        assert!(one.cycles > two.cycles, "1-port {} vs 2-port {}", one.cycles, two.cycles);
        assert!(one.cycles >= 1000, "1 port bounds throughput to 1 load/cycle");
    }

    #[test]
    fn replayed_accesses_consume_extra_port_slots() {
        // A memory path that reports 2 port slots per access (as a 100%
        // misspeculating SIPT L1 would) halves load throughput.
        #[derive(Debug)]
        struct TwoSlot;
        impl MemoryPath for TwoSlot {
            fn access(&mut self, _pc: u64, _mem: MemRef, _now: u64) -> MemResponse {
                MemResponse { latency: 2, port_slots: 2 }
            }
        }
        let normal =
            simulate_ooo(OooConfig::default(), loads(1000, false), &mut FixedMemory { latency: 2 });
        let replayed = simulate_ooo(OooConfig::default(), loads(1000, false), &mut TwoSlot);
        assert!(
            replayed.cycles as f64 > normal.cycles as f64 * 1.5,
            "replay {} vs normal {}",
            replayed.cycles,
            normal.cycles
        );
    }

    #[test]
    fn stores_do_not_block_dependents() {
        // store; then ALU consuming an unrelated register: the ALU stream
        // should flow at full width even with slow memory.
        let mut insts = Vec::new();
        for i in 0..500u64 {
            insts.push(Inst::store(i * 8, Some(2), None, VirtAddr::new(0x2000 + i * 64)));
            insts.push(Inst::alu(i * 8 + 4, 3, [Some(3), None]));
        }
        let mut mem = FixedMemory { latency: 100 };
        let r = simulate_ooo(OooConfig::default(), insts, &mut mem);
        assert!(r.ipc() > 1.5, "stores must drain via write buffer, ipc = {}", r.ipc());
    }

    #[test]
    fn lower_l1_latency_speeds_up_pointer_chase() {
        // The core motivation experiment in miniature: dependent loads at
        // 4-cycle vs 2-cycle L1.
        let four =
            simulate_ooo(OooConfig::default(), loads(500, true), &mut FixedMemory { latency: 4 });
        let two =
            simulate_ooo(OooConfig::default(), loads(500, true), &mut FixedMemory { latency: 2 });
        let speedup = four.cycles as f64 / two.cycles as f64;
        assert!(speedup > 1.5, "speedup = {speedup}");
    }

    #[test]
    fn result_counts() {
        let mut mem = FixedMemory { latency: 1 };
        let r = simulate_ooo(OooConfig::default(), loads(10, false), &mut mem);
        assert_eq!(r.instructions, 10);
        assert_eq!(r.mem_ops, 10);
        assert!(r.cycles > 0);
    }
}
