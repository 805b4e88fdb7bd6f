//! The fused predictor bank: perceptron + IDB + counter in one
//! plane-interleaved SoA.
//!
//! The three scalar predictors ([`PerceptronPredictor`],
//! [`IndexDeltaBuffer`], [`CounterPredictor`]) are all PC-indexed tables
//! that the combined SIPT policy hashes and chases independently on every
//! access: two xor-folded row hashes for the perceptron (predict *and*
//! update re-hash), one more for the IDB predict, another for the IDB
//! update, and separate heap allocations whose rows never share a cache
//! line. [`PredictorBank`] merges them into a single row-major plane:
//!
//! ```text
//! row r (stride = (h+3).next_power_of_two() i32 slots; h=12 → 16 = 64 B):
//!   [ w0 w1 … wh | idb | ctr | pad ]
//!     perceptron   §VI   §V-alt
//! ```
//!
//! One shared xor-fold (`pc ^ (pc >> 6)`) feeds the perceptron and IDB
//! row masks (the counter keeps its historical raw-PC index so the
//! ablation goldens are untouched), each fused access entry hashes once
//! and touches one cache line, and predict/update pairs run in a single
//! call so the row offset is never recomputed. Every entry point is
//! bit-identical — decisions, margins, *and* statistics — to the scalar
//! composition in the order the SIPT L1 invokes it; the scalar types are
//! retained as differential oracles (`tests/bank_differential.rs`).

use crate::counter::CounterConfig;
use crate::idb::{IdbConfig, IdbStats};
use crate::perceptron::{PerceptronConfig, PerceptronPredictor, PerceptronStats};

/// The outcome of one fused combined-policy access (perceptron bypass +
/// IDB), mirroring exactly what the SIPT L1's `SiptCombined` arm needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CombinedOutcome {
    /// Bypass prediction: speculate with the virtual index bits.
    pub speculate: bool,
    /// Confidence margin `|y|` of the bypass prediction.
    pub margin: u64,
    /// IDB-predicted delta — meaningful only when the IDB was consulted
    /// (`!speculate` and the caller passed `want_idb`); 0 otherwise.
    pub delta: u64,
}

/// The fused, plane-interleaved predictor bank. See the module docs.
#[derive(Debug, Clone)]
pub struct PredictorBank {
    pcfg: PerceptronConfig,
    icfg: IdbConfig,
    ccfg: CounterConfig,
    // Derived constants cached out of the per-access path, as the scalar
    // predictors do.
    theta: i32,
    min_w: i32,
    max_w: i32,
    cmax: i32,
    cthresh: i32,
    imask: u64,
    /// Row stride in i32 slots: `(history + 3).next_power_of_two()`, so a
    /// default row (13 weights + IDB + counter) is exactly one 64-byte
    /// line.
    stride: usize,
    /// Stride offset of the IDB slot (`history + 1`).
    islot: usize,
    /// Stride offset of the counter slot (`history + 2`).
    cslot: usize,
    /// `rows × stride`, rows = max entries over the three planes.
    plane: Vec<i32>,
    history: u64,
    last_y: i32,
    stats: PerceptronStats,
    istats: IdbStats,
}

impl PredictorBank {
    /// Build a bank holding all three predictor planes.
    ///
    /// # Panics
    ///
    /// Same validity domain as the scalar constructors: every
    /// `entries` is positive, perceptron `history` ≤ 63, IDB delta
    /// width 1–16 bits, counter width 1–8 bits.
    pub fn new(pcfg: PerceptronConfig, icfg: IdbConfig, ccfg: CounterConfig) -> Self {
        assert!(pcfg.entries > 0, "need at least one perceptron");
        assert!(pcfg.history <= 63, "history must fit a u64");
        assert!(icfg.entries > 0, "need at least one entry");
        assert!(icfg.bits > 0 && icfg.bits <= 16, "delta width must be 1–16 bits");
        assert!(ccfg.entries > 0, "need at least one counter");
        assert!((1..=8).contains(&ccfg.bits), "counter width must be 1–8 bits");
        let h = pcfg.history;
        let stride = (h + 3).next_power_of_two();
        let rows = pcfg.entries.max(icfg.entries).max(ccfg.entries);
        let mut plane = vec![0i32; rows * stride];
        let weakly_taken = 1i32 << (ccfg.bits - 1);
        for r in 0..rows {
            // IDB cold sentinel (-1 never collides with a masked delta)
            // and the counter's weakly-speculate reset state.
            plane[r * stride + h + 1] = -1;
            plane[r * stride + h + 2] = weakly_taken;
        }
        let max_w = (1i32 << (pcfg.weight_bits - 1)) - 1;
        Self {
            theta: pcfg.theta(),
            min_w: -max_w - 1,
            max_w,
            cmax: ((1u32 << ccfg.bits) - 1) as i32,
            cthresh: 1i32 << (ccfg.bits - 1),
            imask: (1u64 << icfg.bits) - 1,
            stride,
            islot: h + 1,
            cslot: h + 2,
            plane,
            pcfg,
            icfg,
            ccfg,
            history: 0,
            last_y: 0,
            stats: PerceptronStats::default(),
            istats: IdbStats::default(),
        }
    }

    /// The perceptron configuration in force.
    pub fn perceptron_config(&self) -> &PerceptronConfig {
        &self.pcfg
    }

    /// The IDB configuration in force.
    pub fn idb_config(&self) -> &IdbConfig {
        &self.icfg
    }

    /// The counter configuration in force.
    pub fn counter_config(&self) -> &CounterConfig {
        &self.ccfg
    }

    /// Rows in the interleaved plane (max entries over the three tables).
    pub fn rows(&self) -> usize {
        self.plane.len() / self.stride
    }

    /// The shared xor-fold both folded planes key on (see
    /// `PerceptronPredictor::row` for why raw PCs alias).
    #[inline]
    fn fold(pc: u64) -> u64 {
        pc ^ (pc >> 6)
    }

    /// Map a folded (or raw, for the counter) PC onto a table of
    /// `entries` rows — mask when power-of-two, modulo otherwise,
    /// identical to each scalar predictor's `row`.
    #[inline]
    fn table_row(key: u64, entries: usize) -> usize {
        if entries.is_power_of_two() {
            (key as usize) & (entries - 1)
        } else {
            (key as usize) % entries
        }
    }

    #[inline]
    fn prow(&self, folded: u64) -> usize {
        Self::table_row(folded, self.pcfg.entries)
    }

    #[inline]
    fn irow(&self, folded: u64) -> usize {
        Self::table_row(folded, self.icfg.entries)
    }

    #[inline]
    fn crow(&self, pc: u64) -> usize {
        // Historical raw-PC index (no fold) — the counter ablation goldens
        // pin this.
        Self::table_row(pc, self.ccfg.entries)
    }

    /// `y = w0 + Σ xi·wi` over perceptron row `prow` and the current
    /// global history.
    #[inline]
    fn dot(&self, prow: usize) -> i32 {
        let h = self.pcfg.history;
        let base = prow * self.stride;
        let w = &self.plane[base..base + h + 1];
        let history = self.history;
        match h {
            12 => PerceptronPredictor::dot_n::<12>(w, history),
            _ => {
                let mut y = w[0];
                for (i, &wi) in w.iter().enumerate().skip(1) {
                    let m = (((history >> (i - 1)) & 1) as i32).wrapping_sub(1);
                    y += (wi ^ m) - m;
                }
                y
            }
        }
    }

    /// The perceptron update half: train iff mispredicted or under θ,
    /// then shift the outcome into the global history — identical to
    /// `PerceptronPredictor::update` with the row already in hand.
    #[inline]
    fn train(&mut self, prow: usize, y: i32, unchanged: bool) {
        let t: i32 = if unchanged { 1 } else { -1 };
        if (y >= 0) != unchanged || y.abs() <= self.theta {
            self.stats.trainings += 1;
            let (min_w, max_w) = (self.min_w, self.max_w);
            let h = self.pcfg.history;
            let base = prow * self.stride;
            let w = &mut self.plane[base..base + h + 1];
            match h {
                12 => PerceptronPredictor::train_n::<12>(w, self.history, t, min_w, max_w),
                _ => {
                    w[0] = (w[0] + t).clamp(min_w, max_w);
                    let history = self.history;
                    for (i, wi) in w.iter_mut().enumerate().skip(1) {
                        let m = (((history >> (i - 1)) & 1) as i32).wrapping_sub(1);
                        let delta = (t ^ m) - m;
                        *wi = (*wi + delta).clamp(min_w, max_w);
                    }
                }
            }
        }
        self.history = (self.history << 1) | u64::from(unchanged);
    }

    // -----------------------------------------------------------------
    // Fused per-access entry points
    // -----------------------------------------------------------------

    /// One perceptron bypass access: predict + margin + train in a single
    /// call with one row hash. Equivalent to the scalar sequence
    /// `predict(pc); last_margin(); update(pc, unchanged)` — including
    /// statistics. Returns `(speculate, margin)`.
    pub fn perceptron_access(&mut self, pc: u64, unchanged: bool) -> (bool, u64) {
        let prow = self.prow(Self::fold(pc));
        let y = self.dot(prow);
        self.stats.predictions += 1;
        self.last_y = y;
        let speculate = y >= 0;
        self.train(prow, y, unchanged);
        (speculate, u64::from(y.unsigned_abs()))
    }

    /// One counter bypass access: predict + margin + update with a single
    /// row hash and plane load. Equivalent to the scalar sequence
    /// `predict(pc); margin(pc); update(pc, unchanged)`. Returns
    /// `(speculate, margin)`.
    pub fn counter_access(&mut self, pc: u64, unchanged: bool) -> (bool, u64) {
        let slot = self.crow(pc) * self.stride + self.cslot;
        let c = self.plane[slot];
        let speculate = c >= self.cthresh;
        let margin =
            if speculate { (c - self.cthresh) as u64 } else { (self.cthresh - 1 - c) as u64 };
        self.plane[slot] = if unchanged { (c + 1).min(self.cmax) } else { (c - 1).max(0) };
        (speculate, margin)
    }

    /// One fused combined-policy access (perceptron bypass + IDB): the
    /// exact operation order of the scalar composition in the SIPT L1's
    /// `SiptCombined` arm — bypass predict, IDB predict (only when the
    /// bypass said wait *and* the caller wants the IDB), bypass train,
    /// IDB update (when `want_idb`) — with the shared fold hashed once
    /// and, in the default configuration, every plane touch on one cache
    /// line. `observed` is the resolved index delta (ignored unless
    /// `want_idb`).
    ///
    /// `_none` is always `None`: the parameter only keeps an older
    /// five-argument call shape compiling.
    pub fn combined_access(
        &mut self,
        pc: u64,
        unchanged: bool,
        want_idb: bool,
        observed: u64,
        _none: Option<std::convert::Infallible>,
    ) -> CombinedOutcome {
        let folded = Self::fold(pc);
        let prow = self.prow(folded);
        let y = self.dot(prow);
        self.stats.predictions += 1;
        self.last_y = y;
        let speculate = y >= 0;
        let margin = u64::from(y.unsigned_abs());

        let islot = self.irow(folded) * self.stride + self.islot;
        let mut delta = 0u64;
        if !speculate && want_idb {
            delta = self.idb_load(islot);
        }

        self.train(prow, y, unchanged);

        if want_idb {
            self.idb_store(islot, observed);
        }
        CombinedOutcome { speculate, margin, delta }
    }

    /// Read the IDB slot at plane offset `islot` (0 when cold), counting
    /// statistics like `IndexDeltaBuffer::predict`.
    #[inline]
    fn idb_load(&mut self, islot: usize) -> u64 {
        let v = self.plane[islot];
        if v >= 0 {
            self.istats.predictions += 1;
            v as u64
        } else {
            self.istats.cold += 1;
            0
        }
    }

    /// Write an observed delta into the IDB slot at plane offset `islot`,
    /// like `IndexDeltaBuffer::update`.
    #[inline]
    fn idb_store(&mut self, islot: usize, observed: u64) {
        let obs = (observed & self.imask) as i32;
        let v = self.plane[islot];
        if v != obs {
            if v >= 0 {
                self.istats.delta_changes += 1;
            }
            self.plane[islot] = obs;
        }
    }

    // -----------------------------------------------------------------
    // Standalone IDB operations (counter-bypass combined configs and the
    // differential oracles use these; semantics match IndexDeltaBuffer)
    // -----------------------------------------------------------------

    /// Predicted delta for `pc` (0 when cold), counting statistics like
    /// `IndexDeltaBuffer::predict`.
    pub fn idb_predict(&mut self, pc: u64) -> u64 {
        self.idb_load(self.irow(Self::fold(pc)) * self.stride + self.islot)
    }

    /// Record an observed delta, like `IndexDeltaBuffer::update`.
    pub fn idb_update(&mut self, pc: u64, observed_delta: u64) {
        self.idb_store(self.irow(Self::fold(pc)) * self.stride + self.islot, observed_delta);
    }

    /// `(bits + delta) mod 2^n` — the carry-free add of paper Fig 11.
    pub fn idb_apply(&self, va_index_bits: u64, delta: u64) -> u64 {
        (va_index_bits + delta) & self.imask
    }

    /// Stored delta for `pc` without touching statistics.
    pub fn idb_peek(&self, pc: u64) -> Option<u64> {
        let v = self.plane[self.irow(Self::fold(pc)) * self.stride + self.islot];
        (v >= 0).then_some(v as u64)
    }

    /// Confidence margin `|y|` of the most recent perceptron access.
    pub fn last_margin(&self) -> u64 {
        u64::from(self.last_y.unsigned_abs())
    }

    /// Perceptron statistics snapshot (oracle parity with
    /// `PerceptronPredictor::stats`).
    pub fn perceptron_stats(&self) -> PerceptronStats {
        self.stats
    }

    /// IDB statistics snapshot (oracle parity with
    /// `IndexDeltaBuffer::stats`).
    pub fn idb_stats(&self) -> IdbStats {
        self.istats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_row_is_one_cache_line() {
        let bank = PredictorBank::new(
            PerceptronConfig::default(),
            IdbConfig::default(),
            CounterConfig::default(),
        );
        assert_eq!(bank.stride, 16, "h=12 rows must pack into 64 bytes");
        assert_eq!(bank.rows(), 64);
    }

    #[test]
    fn counter_plane_keeps_raw_pc_indexing() {
        let mut bank = PredictorBank::new(
            PerceptronConfig::default(),
            IdbConfig::default(),
            CounterConfig::default(),
        );
        // PCs 0x40 and 0x41 fold to different perceptron rows but the
        // counter must alias them exactly as the scalar table does:
        // raw pc & 63.
        let (_, m0) = bank.counter_access(0x1040, false);
        let (s1, _) = bank.counter_access(0x2040, false);
        assert_eq!(m0, 0);
        assert!(!s1, "0x2040 aliases 0x1040 in the raw-PC counter plane");
    }
}
