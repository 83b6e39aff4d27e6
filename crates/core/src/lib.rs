#![warn(missing_docs)]
//! R2D2: Removing ReDunDancy utilizing linearity of address generation.
//!
//! This crate implements the paper's contribution (Ha, Oh, Ro — ISCA 2023):
//!
//! * [`analyzer`] — Algorithm 1 lines 5-19: scans a kernel in program order,
//!   propagates 7-element coefficient vectors through the Fig. 6 opcode list,
//!   handles multi-written registers (loops/divergence, Sec. 3.1.2), decides
//!   which linear combinations to decouple, and groups linear registers that
//!   share thread-index/block-index parts (Sec. 3.1.4).
//! * [`generator`] — Algorithm 1 lines 21-25: emits the decoupled linear
//!   instruction blocks (coefficients / thread-index parts / block-index
//!   parts), rewrites the non-linear stream to read `%lr`/`%cr` registers,
//!   and produces the 16-entry register table (Sec. 3.3).
//! * [`mod@transform`] — the end-to-end `Kernel -> R2d2Kernel` pipeline plus the
//!   Sec. 4.4 register-pressure fallback gate.
//!
//! # Example
//!
//! ```
//! use r2d2_isa::{KernelBuilder, Ty};
//! use r2d2_core::transform;
//!
//! // A textbook linear kernel: out[i] = 2 * in[i]
//! let mut b = KernelBuilder::new("scale", 2);
//! let i = b.global_tid_x();
//! let off = b.shl_imm_wide(i, 2);
//! let p_in = b.ld_param(0);
//! let p_out = b.ld_param(1);
//! let a_in = b.add_wide(p_in, off);
//! let a_out = b.add_wide(p_out, off);
//! let v = b.ld_global(Ty::F32, a_in, 0);
//! let v2 = b.add_ty(Ty::F32, v, v);
//! b.st_global(Ty::F32, a_out, 0, v2);
//! let kernel = b.build();
//!
//! let r2 = transform::transform(&kernel);
//! assert!(r2.meta.has_linear(), "address math must be decoupled");
//! assert!(r2.kernel.instrs.len() < kernel.instrs.len() + 16);
//! ```

pub mod analyzer;
pub mod generator;
pub mod transform;

pub use analyzer::{Analysis, RegInfo};
pub use generator::{GenOptions, GenOutput};
pub use transform::{transform, transform_with, R2d2Kernel, TransformReport};
