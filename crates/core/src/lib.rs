#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sipt-core — Speculatively Indexed, Physically Tagged L1 caches
//!
//! The primary contribution of Zheng, Zhu & Erez, "SIPT: Speculatively
//! Indexed, Physically Tagged Caches" (HPCA 2018), as a reusable library:
//! an L1 data-cache front-end that breaks the VIPT `capacity = ways × 4 KiB`
//! constraint by *speculating* on the 1–3 index bits beyond the page offset
//! and verifying them against the translated physical address at tag-match
//! time.
//!
//! Three SIPT variants are provided as [`L1Policy`] values, alongside the
//! conventional VIPT/PIPT policies and the oracle "ideal" index used by the
//! paper as an upper bound:
//!
//! | policy | paper § | mechanism |
//! |---|---|---|
//! | [`L1Policy::SiptNaive`] | IV | always speculate `VA bits == PA bits` |
//! | [`L1Policy::SiptBypass`] | V | 624 B perceptron predicts speculate/bypass |
//! | [`L1Policy::SiptCombined`] | VI | bypassed accesses get an IDB-predicted delta |
//!
//! ## Example
//!
//! ```
//! use sipt_core::{SiptL1, sipt_32k_2w};
//! use sipt_mem::{Translation, VirtAddr, PhysAddr, PhysFrameNum, PageSize};
//!
//! let mut l1 = SiptL1::new(sipt_32k_2w()); // 2 speculative bits, 2-cycle
//! let va = VirtAddr::new(0x5000);
//! let translation = Translation {
//!     pa: PhysAddr::new(0x5000), // identity: index bits unchanged
//!     pfn: PhysFrameNum::new(0x5),
//!     page_size: PageSize::Base4K,
//! };
//! let access = l1.access(0x401000, va, translation, 2, false);
//! assert!(access.outcome.is_fast());
//! assert_eq!(access.latency, 2); // overlapped with translation
//! ```

pub mod config;
pub mod l1;
pub mod outcome;
pub mod telemetry;

pub use config::{
    baseline_32k_8w_vipt, sipt_128k_4w, sipt_32k_2w, sipt_32k_4w, sipt_64k_4w, small_16k_4w_vipt,
    table2_sipt_configs, BypassKind, L1Config, L1Policy,
};
pub use l1::{policy_tags, PolicyTag, SiptL1};
pub use outcome::{L1Access, SiptStats, SpeculationOutcome};
pub use sipt_predictors::PredictorBank;
pub use telemetry::{BlockTelemetry, L1Telemetry, MispredictCauses};
