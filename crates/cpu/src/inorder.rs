//! In-order core timing model (paper Table II: 2-wide, 3 GHz, two-level
//! cache hierarchy).
//!
//! A scoreboarded in-order pipeline: instructions issue strictly in
//! program order, up to `width` per cycle, stalling at use when a source
//! register is not yet ready. Loads expose their full memory latency to
//! dependents; there is no ROB to hide misses behind, which is why the
//! paper finds in-order cores prefer larger L1s (capacity) over the OOO
//! cores' preference for lower latency.

use crate::trace::{CoreResult, Inst, MemOp, MemResponse, MemoryPath, NUM_REGS};

/// In-order core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InOrderConfig {
    /// Issue width.
    pub width: u32,
    /// L1 data ports.
    pub mem_ports: u32,
}

impl Default for InOrderConfig {
    fn default() -> Self {
        Self { width: 2, mem_ports: 1 }
    }
}

/// Simulate an instruction stream on the in-order model.
pub fn simulate_inorder<I, M>(config: InOrderConfig, insts: I, mem: &mut M) -> CoreResult
where
    I: IntoIterator<Item = Inst>,
    M: MemoryPath + ?Sized,
{
    let mut engine = InOrderEngine::new(config);
    for inst in insts {
        let mem_store = inst.mem.map(|m| m.op == MemOp::Store);
        engine.step(inst.dst, inst.srcs, mem_store, inst.exec_latency, |now| {
            mem.access(inst.pc, inst.mem.expect("closure only runs for memory insts"), now)
        });
    }
    engine.finish()
}

/// The incremental form of [`simulate_inorder`], mirroring
/// [`crate::OooEngine`]: identical scoreboard algebra with the loop state
/// in a struct so block-replay kernels can step decoded SoA instructions.
/// [`simulate_inorder`] is a thin wrapper over this type.
#[derive(Debug)]
pub struct InOrderEngine {
    width: u64,
    ports: u64,
    // Index `NUM_REGS` is an always-zero sentinel slot so absent
    // operands/destinations index the array unconditionally instead of
    // branching on presence (see [`crate::OooEngine`]).
    reg_ready: [u64; NUM_REGS + 1],
    // `issue_slot` (1/width-cycle units, strictly in order) tracked as
    // quotient/remainder against `width` (`issue_slot = q*width + r`,
    // `r < width`), so the per-step `slot / width` needs no divide: the
    // slot either jumps to an exact multiple of `width` or advances by
    // one with carry.
    issue_q: u64,
    issue_r: u64,
    // `port_slot` (1/ports-cycle units) in the same (q, r) form.
    port_q: u64,
    port_r: u64,
    last_issue: u64,
    finish: u64,
    n: u64,
    mem_ops: u64,
}

impl InOrderEngine {
    /// Fresh engine state for one instruction stream.
    pub fn new(config: InOrderConfig) -> Self {
        assert!(config.width > 0 && config.mem_ports > 0);
        Self {
            width: config.width as u64,
            ports: config.mem_ports as u64,
            reg_ready: [0u64; NUM_REGS + 1],
            issue_q: 0,
            issue_r: 0,
            port_q: 0,
            port_r: 0,
            last_issue: 0,
            finish: 0,
            n: 0,
            mem_ops: 0,
        }
    }

    /// Advance the model by one decoded instruction; same contract as
    /// [`crate::OooEngine::step`].
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
        // Sources must be ready at issue (stall-at-use), and issue is in
        // program order. Absent operands read the always-zero sentinel
        // slot — no presence branches.
        let s0 = srcs[0].map_or(NUM_REGS, usize::from);
        let s1 = srcs[1].map_or(NUM_REGS, usize::from);
        let ready = self.last_issue.max(self.reg_ready[s0]).max(self.reg_ready[s1]);
        // `slot = (ready*width).max(issue_slot + 1)`, `issue = slot/width`
        // in (q, r) form: the max takes the left arm iff `ready > q` (the
        // slot lands on an exact multiple of `width`, remainder 0 — so the
        // carry is vacuously false and `issue = q` in both arms); otherwise
        // the slot advances by one with carry into the quotient. Selects,
        // not branches: the jump/advance pattern is workload data.
        let jump = ready > self.issue_q;
        let r = if jump { 0 } else { self.issue_r + 1 };
        let carry = r == self.width;
        let q = (if jump { ready } else { self.issue_q }) + u64::from(carry);
        self.issue_q = q;
        self.issue_r = if carry { 0 } else { r };
        let mut issue = q;

        let complete = match mem_store {
            None => issue + exec_latency,
            Some(is_store) => {
                self.mem_ops += 1;
                // Also wait for a free L1 port: the same (q, r) algebra
                // against `ports` for `pslot`/`port_slot`.
                let pjump = issue > self.port_q;
                let pr = if pjump { 0 } else { self.port_r + 1 };
                let pcarry = pr == self.ports;
                let pq = (if pjump { issue } else { self.port_q }) + u64::from(pcarry);
                self.port_q = pq;
                self.port_r = if pcarry { 0 } else { pr };
                issue = pq;
                // `slot = slot.max(issue*width)`: the port wait either
                // pushed `issue` past the issue quotient (slot jumps to a
                // multiple of `width`) or left it equal (no-op).
                let ajump = issue > self.issue_q;
                self.issue_q = if ajump { issue } else { self.issue_q };
                self.issue_r = if ajump { 0 } else { self.issue_r };
                let response = mem(issue);
                self.port_r += (response.port_slots.saturating_sub(1)) as u64;
                while self.port_r >= self.ports {
                    self.port_r -= self.ports;
                    self.port_q += 1;
                }
                issue + if is_store { 1 } else { response.latency }
            }
        };

        // Absent destinations write the sentinel slot, re-zeroed
        // unconditionally.
        let d = dst.map_or(NUM_REGS, usize::from);
        self.reg_ready[d] = complete;
        self.reg_ready[NUM_REGS] = 0;
        self.last_issue = issue;
        self.finish = self.finish.max(complete);
        self.n += 1;
    }

    /// Final counts for the stream stepped so far.
    pub fn finish(&self) -> CoreResult {
        CoreResult { instructions: self.n, cycles: self.finish.max(1), mem_ops: self.mem_ops }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ooo::{simulate_ooo, OooConfig};
    use crate::trace::FixedMemory;
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
    fn alu_stream_reaches_width() {
        let insts: Vec<Inst> =
            (0..2000).map(|i| Inst::alu(i, (i % 32) as u8, [None, None])).collect();
        let r = simulate_inorder(InOrderConfig::default(), insts, &mut FixedMemory { latency: 1 });
        assert!(r.ipc() > 1.5 && r.ipc() <= 2.01, "ipc = {}", r.ipc());
    }

    #[test]
    fn stall_at_use_not_at_issue() {
        // load r1; many independent ALUs; then a consumer of r1. The ALUs
        // must not wait for the load.
        let mut insts = vec![Inst::load(0, 1, None, VirtAddr::new(0x1000))];
        for i in 0..100u64 {
            insts.push(Inst::alu(4 + i, 2, [Some(3), None]));
        }
        insts.push(Inst::alu(999, 4, [Some(1), None]));
        let r = simulate_inorder(InOrderConfig::default(), insts, &mut FixedMemory { latency: 40 });
        // 102 instructions; if the load stalled issue we would see ~90+
        // cycles; stall-at-use finishes right after the load returns.
        assert!(r.cycles <= 55, "cycles = {}", r.cycles);
    }

    #[test]
    fn in_order_hides_less_than_ooo() {
        // Independent misses: OOO overlaps them across the ROB; in-order
        // is limited to what issues before the first use... with
        // independent loads writing the same dst reg, in-order serializes.
        let mut mem = FixedMemory { latency: 50 };
        let io = simulate_inorder(InOrderConfig::default(), loads(200, true), &mut mem);
        let ooo = simulate_ooo(OooConfig::default(), loads(200, false), &mut mem);
        assert!(io.cycles > ooo.cycles * 3, "in-order {} vs OOO {}", io.cycles, ooo.cycles);
    }

    #[test]
    fn capacity_miss_rate_matters_more_than_latency_when_unhidden() {
        // Direct check of the Fig 3 logic: for an in-order core, 100
        // dependent loads at 3 cycles with a 2% miss (to 200-cycle memory)
        // beat 2-cycle hits with a 10% miss rate.
        #[derive(Debug)]
        struct MissyMemory {
            hit: u64,
            miss_every: usize,
            count: usize,
        }
        impl MemoryPath for MissyMemory {
            fn access(
                &mut self,
                _pc: u64,
                _mem: crate::trace::MemRef,
                _now: u64,
            ) -> crate::trace::MemResponse {
                self.count += 1;
                let lat = if self.count.is_multiple_of(self.miss_every) { 200 } else { self.hit };
                crate::trace::MemResponse::simple(lat)
            }
        }
        let fast_small = simulate_inorder(
            InOrderConfig::default(),
            loads(1000, true),
            &mut MissyMemory { hit: 2, miss_every: 10, count: 0 },
        );
        let slow_big = simulate_inorder(
            InOrderConfig::default(),
            loads(1000, true),
            &mut MissyMemory { hit: 3, miss_every: 50, count: 0 },
        );
        assert!(
            slow_big.cycles < fast_small.cycles,
            "bigger-but-slower {} must beat smaller-but-faster {}",
            slow_big.cycles,
            fast_small.cycles
        );
    }

    #[test]
    fn single_port_bounds_mem_throughput() {
        let r = simulate_inorder(
            InOrderConfig { width: 2, mem_ports: 1 },
            loads(500, false),
            &mut FixedMemory { latency: 2 },
        );
        assert!(r.cycles >= 500, "one load per cycle max, got {}", r.cycles);
    }

    #[test]
    fn counts_are_reported() {
        let r = simulate_inorder(
            InOrderConfig::default(),
            loads(7, false),
            &mut FixedMemory { latency: 1 },
        );
        assert_eq!(r.instructions, 7);
        assert_eq!(r.mem_ops, 7);
    }
}
