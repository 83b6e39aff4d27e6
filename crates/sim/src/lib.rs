#![warn(missing_docs)]
//! A from-scratch cycle-level SIMT GPU simulator for the R2D2 reproduction.
//!
//! This crate is the substrate the paper assumes: the role GPGPU-Sim v4.0 +
//! a TITAN V (Volta) configuration play in the original evaluation (Sec. 5).
//! It provides:
//!
//! * [`GlobalMem`] — the one-dimensional device address space with a bump
//!   allocator for workload buffers.
//! * [`functional`] — timing-free execution (correctness oracles, dynamic
//!   instruction traces for the ideal machines of Fig. 4).
//! * [`timing`] — the cycle-level model: SMs with four GTO warp schedulers,
//!   scoreboard, SIMT reconvergence stack, L1/L2/DRAM hierarchy with a
//!   coalescer, thread-block scheduler, barriers — and the R2D2
//!   microarchitecture (starting-PC table, phase gates, register classes,
//!   Sec. 5.4 latency adders) when a launch carries [`LinearMeta`].
//! * [`IssueFilter`] — the hook machine models (DAC, DARSIE, ...) use to
//!   skip/scalarize warp instructions "with no overhead", as the paper models
//!   them.
//!
//! # Example
//!
//! ```
//! use r2d2_isa::{KernelBuilder, Ty};
//! use r2d2_sim::{Dim3, GlobalMem, GpuConfig, Launch, SimSession};
//!
//! // out[i] = i
//! let mut b = KernelBuilder::new("iota", 1);
//! let i = b.global_tid_x();
//! let off = b.shl_imm_wide(i, 2);
//! let p = b.ld_param(0);
//! let addr = b.add_wide(p, off);
//! b.st_global(Ty::B32, addr, 0, i);
//! let kernel = b.build();
//!
//! let mut gmem = GlobalMem::new();
//! let out = gmem.alloc(4 * 256);
//! let launch = Launch::new(kernel, Dim3::d1(2), Dim3::d1(128), vec![out]);
//! let cfg = GpuConfig::default().with_num_sms(4);
//! let stats = SimSession::new(&cfg).run(&launch, &mut gmem)?;
//! assert_eq!(gmem.read_i32(out, 200), 200);
//! assert!(stats.cycles > 0);
//! # Ok::<(), r2d2_sim::SimError>(())
//! ```

mod cache;
mod config;
mod exec;
mod filter;
pub mod functional;
mod launch;
mod linear;
mod mem;
mod session;
mod stats;
pub mod timing;

pub use cache::Cache;
pub use config::{CacheConfig, GpuConfig, Latencies, LoopKind, R2d2Latencies};
pub use exec::{
    ExecError, LineSet, MemInfo, OperandVals, Outcome, StackEntry, StepInfo, WarpExec, WarpState,
    NO_RPC, WARP_SIZE,
};
pub use filter::{BaselineFilter, Disposition, IssueCtx, IssueFilter, NoFilter};
pub use functional::{FuncStats, InstrEvent, Observer};
pub use launch::{Dim3, Launch};
pub use linear::{LinearMeta, LinearStore, Phase, MAX_LR};
pub use mem::GlobalMem;
pub use session::SimSession;
pub use stats::Stats;
pub use timing::{blocks_per_sm, phys_regs_estimate, CancelToken, SimError};

// Observability layer (see `r2d2-trace`): the sink trait the timing loops
// are generic over, plus the stall-attribution profiler and its exporters.
pub use r2d2_trace::{self as trace, EventSink, MemLevel, NullSink, Profiler, StallCause};
