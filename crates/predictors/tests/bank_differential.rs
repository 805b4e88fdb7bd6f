//! Differential property tests pinning the fused [`PredictorBank`] to the
//! retained scalar predictors it merged — `PerceptronPredictor`,
//! `IndexDeltaBuffer`, and `CounterPredictor` — on arbitrary
//! `(pc, outcome)` streams, for every bypass configuration the SIPT L1
//! composes them in.
//!
//! The scalar predictors are the oracles: each step drives both sides
//! with the same access and asserts identical predictions, margins,
//! deltas, and statistics. A divergence anywhere in a stream fails on the
//! first access that disagrees, so shrinkage isn't needed to localize.

use proptest::prelude::*;
use sipt_predictors::{
    CounterConfig, CounterPredictor, IdbConfig, IndexDeltaBuffer, PerceptronConfig,
    PerceptronPredictor, PredictorBank,
};

/// One synthetic access: a PC drawn from a small aliasing universe, the
/// resolved outcome, an observed index delta, and whether the combined
/// policy engages the IDB on this access.
type Access = (u64, bool, u64, bool);

fn accesses() -> impl Strategy<Value = Vec<Access>> {
    // 48 distinct PCs over 64-entry tables forces row aliasing (same-row
    // reuse within short windows) without collapsing to one hot row.
    proptest::collection::vec(
        (0u64..48, any::<bool>(), 0u64..8, any::<bool>())
            .prop_map(|(sel, un, delta, idb)| (0x0040_0100 + sel * 4, un, delta, idb)),
        1..200,
    )
}

fn bank() -> PredictorBank {
    PredictorBank::new(PerceptronConfig::default(), IdbConfig::default(), CounterConfig::default())
}

proptest! {
    /// Perceptron bypass: `perceptron_access` is the scalar
    /// `predict; last_margin; update` sequence, statistics included.
    #[test]
    fn bank_matches_scalar_perceptron(stream in accesses()) {
        let mut bank = bank();
        let mut oracle = PerceptronPredictor::new(PerceptronConfig::default());
        for (i, &(pc, un, _, _)) in stream.iter().enumerate() {
            let want_spec = oracle.predict(pc);
            let want_margin = oracle.last_margin();
            oracle.update(pc, un);
            let (spec, margin) = bank.perceptron_access(pc, un);
            prop_assert_eq!(spec, want_spec, "speculate diverged at access {}", i);
            prop_assert_eq!(margin, want_margin, "margin diverged at access {}", i);
        }
        prop_assert_eq!(bank.perceptron_stats(), oracle.stats());
    }

    /// Counter bypass: `counter_access` is the scalar
    /// `predict; margin; update` sequence on the raw-PC-indexed table.
    #[test]
    fn bank_matches_scalar_counter(stream in accesses()) {
        let mut bank = bank();
        let mut oracle = CounterPredictor::new(CounterConfig::default());
        for (i, &(pc, un, _, _)) in stream.iter().enumerate() {
            let want_spec = oracle.predict(pc);
            let want_margin = oracle.margin(pc);
            oracle.update(pc, un);
            let (spec, margin) = bank.counter_access(pc, un);
            prop_assert_eq!(spec, want_spec, "speculate diverged at access {}", i);
            prop_assert_eq!(margin, want_margin, "margin diverged at access {}", i);
        }
    }

    /// Combined policy (perceptron bypass + IDB): `combined_access` is the
    /// exact scalar composition the SIPT L1 performed before the bank —
    /// bypass predict, IDB predict only when the bypass said wait and the
    /// policy engages the IDB, bypass train, IDB update.
    #[test]
    fn bank_matches_scalar_combined_composition(stream in accesses()) {
        let mut bank = bank();
        let mut perceptron = PerceptronPredictor::new(PerceptronConfig::default());
        let mut idb = IndexDeltaBuffer::new(IdbConfig::default());
        for (i, &(pc, un, observed, want_idb)) in stream.iter().enumerate() {
            let want_spec = perceptron.predict(pc);
            let want_margin = perceptron.last_margin();
            let mut want_delta = 0u64;
            if !want_spec && want_idb {
                want_delta = idb.predict(pc);
            }
            perceptron.update(pc, un);
            if want_idb {
                idb.update(pc, observed);
            }
            let out = bank.combined_access(pc, un, want_idb, observed, None);
            prop_assert_eq!(out.speculate, want_spec, "speculate diverged at access {}", i);
            prop_assert_eq!(out.margin, want_margin, "margin diverged at access {}", i);
            prop_assert_eq!(out.delta, want_delta, "delta diverged at access {}", i);
            // The carry-free index add must match at every step too.
            prop_assert_eq!(bank.idb_apply(3, out.delta), idb.apply(3, want_delta));
        }
        prop_assert_eq!(bank.perceptron_stats(), perceptron.stats());
        prop_assert_eq!(bank.idb_stats(), idb.stats());
    }
}
