#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sipt-predictors — the prediction structures of the SIPT paper
//!
//! Three PC-indexed predictors, none of which consumes the virtual address,
//! so all of them can run at fetch/decode — before address generation —
//! which is why SIPT adds no latency to the L1 access path:
//!
//! - [`PerceptronPredictor`]: the §V speculation-*bypass* predictor, a
//!   64-entry Jimenez–Lin global-history perceptron (624 B),
//! - [`IndexDeltaBuffer`]: the §VI BTB-like table predicting the VA→PA
//!   *delta* of the speculative index bits,
//! - [`CounterPredictor`]: the saturating-counter alternative the paper
//!   rejected (~85% accuracy vs >90%), kept for the ablation bench.
//!
//! The composition of perceptron + IDB into the paper's three SIPT
//! variants lives in `sipt-core`.
//!
//! [`PredictorBank`] fuses all three tables into one plane-interleaved
//! SoA with a shared row hash; the scalar types above are retained as
//! its differential oracles.

pub mod bank;
pub mod counter;
pub mod idb;
pub mod perceptron;

pub use bank::{CombinedOutcome, PredictorBank};
pub use counter::{CounterConfig, CounterPredictor};
pub use idb::{IdbConfig, IdbStats, IndexDeltaBuffer};
pub use perceptron::{PerceptronConfig, PerceptronPredictor, PerceptronStats};
