#![warn(missing_docs)]
//! # R2D2 — Removing ReDunDancy Utilizing Linearity of Address Generation in GPUs
//!
//! A full Rust reproduction of the ISCA 2023 paper by Ha, Oh and Ro,
//! including the SIMT GPU simulator it needs as a substrate.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`sym`] | `r2d2-sym` | coefficient-vector algebra (paper Fig. 6) |
//! | [`isa`] | `r2d2-isa` | the PTX-like virtual ISA, builder, assembler |
//! | [`sim`] | `r2d2-sim` | cycle-level SIMT GPU simulator (Table 1 config) |
//! | [`trace`] | `r2d2-trace` | event-sink observability: stall attribution, Chrome traces |
//! | [`energy`] | `r2d2-energy` | event-based energy model (Fig. 16) |
//! | [`core`] | `r2d2-core` | the R2D2 analyzer/generator/microarchitecture |
//! | [`baselines`] | `r2d2-baselines` | WP/TB/LN ideal machines, DAC, DARSIE |
//! | [`workloads`] | `r2d2-workloads` | the Table 2 benchmark zoo |
//! | [`harness`] | `r2d2-harness` | parallel job runner + content-addressed result cache |
//! | [`serve`] | `r2d2-serve` | resident simulation service (job queue, workers, HTTP/JSON API) |
//! | [`dispatch`] | `r2d2-dispatch` | multi-node dispatch tier (consistent-hash routing, failover, fleet metrics) |
//!
//! # Quickstart
//!
//! ```
//! use r2d2::prelude::*;
//!
//! // Build a workload, run it on the baseline GPU and on R2D2, compare.
//! let w = r2d2::workloads::build("BP", Size::Small).unwrap();
//! let cfg = GpuConfig::default().with_num_sms(8);
//!
//! let mut g1 = w.gmem.clone();
//! let base = run_model(ModelSpec::Baseline, &w, &cfg, &mut g1, None, None)?;
//! let mut g2 = w.gmem.clone();
//! let r2 = run_model(ModelSpec::R2d2, &w, &cfg, &mut g2, None, None)?;
//!
//! assert_eq!(g1.bytes(), g2.bytes(), "identical results");
//! assert!(r2.used_r2d2, "the transformed kernel fits (Sec. 4.4)");
//! assert!(r2.stats.warp_instrs < base.stats.warp_instrs, "fewer dynamic instructions");
//! assert!(r2.energy.total_pj() < base.energy.total_pj(), "less energy");
//! # Ok::<(), String>(())
//! ```

pub use r2d2_baselines as baselines;
pub use r2d2_core as core;
pub use r2d2_dispatch as dispatch;
pub use r2d2_energy as energy;
pub use r2d2_harness as harness;
pub use r2d2_isa as isa;
pub use r2d2_serve as serve;
pub use r2d2_sim as sim;
pub use r2d2_sym as sym;
pub use r2d2_trace as trace;
pub use r2d2_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use r2d2_core::transform::{make_launch, transform};
    pub use r2d2_harness::{run_model, ModelSpec};
    pub use r2d2_isa::{Kernel, KernelBuilder, Ty};
    pub use r2d2_sim::{
        BaselineFilter, Dim3, GlobalMem, GpuConfig, IssueFilter, Launch, SimSession, Stats,
    };
    pub use r2d2_workloads::{Size, Workload};
}
