#![warn(missing_docs)]
//! Machine models the paper compares R2D2 against (Sec. 2.2 and Sec. 5).
//!
//! Two families:
//!
//! * [`ideal`] — the instruction-count-only *ideal machines* of Fig. 4:
//!   **WP** (eliminates redundant thread instructions within a warp), **TB**
//!   (eliminates redundant warp instructions within a thread block), and
//!   **LN** (eliminates redundancy by exploiting the linearity of SIMT).
//!   These are [`r2d2_sim::Observer`]s over a functional run.
//! * [`filters`] — the *timed* optimistic models of Figs. 12/13/16: **DAC**
//!   (Wang & Lin, ISCA'17 — affine warp instructions execute at zero cost),
//!   **DARSIE** (Yeh et al., ASPLOS'20 — warp instructions redundant within a
//!   thread block are skipped) and **DARSIE+Scalar**. These are
//!   [`r2d2_sim::IssueFilter`]s for the timing simulator, modeled exactly as
//!   the paper models them: "with no overhead".

pub mod filters;
pub mod ideal;

pub use filters::{DacFilter, DarsieFilter, DarsieScalarFilter};
pub use ideal::{measure_ideals, measure_ideals_cancellable, IdealCounts, IdealObserver};
