//! The ideal instruction-count machines of paper Fig. 4 (WP / TB / LN).
//!
//! These machines never affect timing; they re-count the baseline's dynamic
//! thread instructions under three idealized redundancy-elimination policies:
//!
//! * **WP** — a warp instruction whose active lanes all compute the same
//!   operation on the same source values costs 1 thread instruction instead
//!   of 32. (The paper's WP "ideally skips all scalar computations, even if
//!   the computations require runtime information".)
//! * **TB** — a warp instruction whose source value vectors match those of an
//!   earlier warp instruction at the same pc within the same thread block
//!   costs 0 (it is skipped).
//! * **LN** — instructions producing linear combinations cost what R2D2's
//!   decoupling would pay: scalar parts once per kernel, thread-index parts
//!   once per kernel, block-index parts once per thread block.

use r2d2_core::analyzer::Analysis;
use r2d2_isa::Op;
use r2d2_sim::{functional, CancelToken, ExecError, GlobalMem, InstrEvent, Launch, Observer};
use std::collections::{HashMap, HashSet};

/// Dynamic thread-instruction counts under each ideal machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealCounts {
    /// Baseline dynamic thread instructions.
    pub baseline: u64,
    /// WP machine thread instructions.
    pub wp: u64,
    /// TB machine thread instructions.
    pub tb: u64,
    /// LN machine thread instructions.
    pub ln: u64,
    /// Baseline dynamic warp instructions.
    pub baseline_warp: u64,
}

impl IdealCounts {
    /// Percentage reduction of each machine vs. baseline, `(wp, tb, ln)`.
    pub fn reductions(&self) -> (f64, f64, f64) {
        let r = |v: u64| {
            if self.baseline == 0 {
                0.0
            } else {
                100.0 * (self.baseline - v) as f64 / self.baseline as f64
            }
        };
        (r(self.wp), r(self.tb), r(self.ln))
    }
}

/// FNV-1a over a list of words.
fn hash_words(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Observer implementing all three ideal machines in one functional pass.
#[derive(Debug, Default)]
pub struct IdealObserver {
    analysis: Analysis,
    counts: IdealCounts,
    /// TB: per-pc set of source-vector hashes seen in the current block.
    tb_seen: HashMap<(u64, u32), HashSet<u64>>,
    /// LN: producer pcs already charged once per kernel (scalar/thread parts).
    ln_once: HashSet<u32>,
    /// LN: (pc, block) pairs already charged for block parts.
    ln_block: HashSet<(u32, u64)>,
}

impl IdealObserver {
    /// Build from the analyzer's result for the same kernel.
    pub fn new(analysis: Analysis) -> Self {
        IdealObserver {
            analysis,
            ..Default::default()
        }
    }

    /// Final counts.
    pub fn counts(&self) -> IdealCounts {
        self.counts
    }

    fn src_hash(ev: &InstrEvent<'_>) -> u64 {
        // Hash the per-lane operand values (or addresses for memory ops),
        // restricted to executing lanes, plus the mask itself.
        let mask = ev.exec_mask;
        let mut acc: Vec<u64> = Vec::with_capacity(8);
        acc.push(mask as u64);
        if let Some(m) = ev.mem {
            for lane in 0..32 {
                if mask & (1 << lane) != 0 {
                    acc.push(m.addrs[lane]);
                }
            }
        }
        if let Some(v) = ev.vals {
            for s in 0..v.nsrc {
                for lane in 0..32 {
                    if mask & (1 << lane) != 0 {
                        acc.push(v.srcs[s][lane]);
                    }
                }
            }
        }
        hash_words(acc.into_iter())
    }

    fn lanes_uniform(ev: &InstrEvent<'_>) -> bool {
        let mask = ev.exec_mask;
        if mask == 0 {
            return true;
        }
        let first = mask.trailing_zeros() as usize;
        if let Some(m) = ev.mem {
            for lane in 0..32 {
                if mask & (1 << lane) != 0 && m.addrs[lane] != m.addrs[first] {
                    return false;
                }
            }
        }
        if let Some(v) = ev.vals {
            for s in 0..v.nsrc {
                for lane in 0..32 {
                    if mask & (1 << lane) != 0 && v.srcs[s][lane] != v.srcs[s][first] {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl Observer for IdealObserver {
    fn wants_values(&self) -> bool {
        true
    }

    fn on_instr(&mut self, ev: &InstrEvent<'_>) {
        let lanes = ev.charged_lanes as u64;
        self.counts.baseline += lanes;
        self.counts.baseline_warp += 1;

        let is_control = ev.instr.op.is_control();

        // ---- WP ----
        if !is_control && Self::lanes_uniform(ev) {
            self.counts.wp += 1;
        } else {
            self.counts.wp += lanes;
        }

        // ---- TB ----
        if is_control || matches!(ev.instr.op, Op::St(_) | Op::Atom(_)) {
            // Control flow / side-effecting stores are never skipped.
            self.counts.tb += lanes;
        } else {
            let h = Self::src_hash(ev);
            let set = self.tb_seen.entry((ev.block, ev.pc as u32)).or_default();
            if !set.insert(h) {
                // identical earlier warp instruction in this block: free
            } else {
                self.counts.tb += lanes;
            }
        }

        // ---- LN ----
        let pc32 = ev.pc as u32;
        let producer = *self.analysis.producer.get(ev.pc).unwrap_or(&false);
        if !producer {
            self.counts.ln += lanes;
        } else {
            let dst = ev.instr.dst_reg().expect("producer has a dst");
            let vec = &self.analysis.linear[&dst].vec;
            if vec.is_scalar() {
                // once per kernel, single thread
                if self.ln_once.insert(pc32) {
                    self.counts.ln += 1;
                }
            } else {
                let has_t = vec.has_thread_part();
                let has_b = vec.has_block_part() || !vec.constant().is_zero();
                // Thread-index parts: once per kernel — exactly the block-0
                // instances (every thread slot computed once).
                if has_t && ev.block == 0 {
                    self.counts.ln += lanes; // block 0 computes thread parts
                }
                if has_b && self.ln_block.insert((pc32, ev.block)) {
                    self.counts.ln += 1; // one thread per block for block parts
                }
            }
        }
    }

    fn on_block_done(&mut self, block: u64) {
        self.tb_seen.retain(|(b, _), _| *b != block);
    }
}

/// Run the launch functionally and return the Fig. 4 ideal-machine counts.
///
/// # Errors
///
/// Propagates watchdog errors from functional execution.
pub fn measure_ideals(launch: &Launch, gmem: &mut GlobalMem) -> Result<IdealCounts, ExecError> {
    measure_ideals_cancellable(launch, gmem, None)
}

/// [`measure_ideals`] that stops with [`ExecError::Cancelled`] once `cancel`
/// is triggered, checked before each thread block.
///
/// # Errors
///
/// Cancellation, and watchdog errors from functional execution.
pub fn measure_ideals_cancellable(
    launch: &Launch,
    gmem: &mut GlobalMem,
    cancel: Option<&CancelToken>,
) -> Result<IdealCounts, ExecError> {
    let analysis = r2d2_core::analyzer::analyze(&launch.kernel);
    let mut obs = IdealObserver::new(analysis);
    functional::run_cancellable(launch, gmem, 100_000_000, Some(&mut obs), cancel)?;
    Ok(obs.counts())
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_isa::{KernelBuilder, Ty};
    use r2d2_sim::Dim3;

    fn linear_heavy_kernel() -> r2d2_isa::Kernel {
        let mut b = KernelBuilder::new("lin", 2);
        let i = b.global_tid_x();
        let c = b.ld_param32(1);
        let j = b.mad(i, c, Operand::Imm(7));
        let off = b.shl_imm_wide(j, 2);
        let p = b.ld_param(0);
        let addr = b.add_wide(p, off);
        let v = b.ld_global(Ty::F32, addr, 0);
        let w = b.mul_ty(Ty::F32, v, v);
        b.st_global(Ty::F32, addr, 0, w);
        b.build()
    }

    use r2d2_isa::Operand;

    #[test]
    fn ln_beats_wp_and_tb_on_linear_kernel() {
        let k = linear_heavy_kernel();
        let mut g = GlobalMem::new();
        let n = 16 * 128 * 4u64; // j can reach 4*i+7
        let buf = g.alloc(n * 8);
        let launch = Launch::new(k, Dim3::d1(16), Dim3::d1(128), vec![buf, 4]);
        let c = measure_ideals(&launch, &mut g).unwrap();
        assert!(c.baseline > 0);
        assert!(c.wp < c.baseline, "WP saves something");
        assert!(c.tb < c.baseline, "TB saves something");
        assert!(c.ln < c.baseline, "LN saves something");
        // The paper's headline ordering on linear-address kernels.
        assert!(c.ln <= c.wp, "LN ({}) should beat WP ({})", c.ln, c.wp);
        assert!(c.ln <= c.tb, "LN ({}) should beat TB ({})", c.ln, c.tb);
        let (_, _, ln_red) = c.reductions();
        assert!(ln_red > 20.0, "LN reduction {ln_red:.1}% too small");
    }

    #[test]
    fn wp_counts_uniform_computation_once() {
        // A kernel where every lane computes the same thing (block-uniform):
        // mov of ctaid + scalar math.
        let mut b = KernelBuilder::new("uni", 1);
        let c = b.ctaid_x();
        let d = b.mul(c, Operand::Imm(3));
        let off = b.shl_imm_wide(d, 2);
        let p = b.ld_param(0);
        let addr = b.add_wide(p, off);
        b.st_global(Ty::B32, addr, 0, d);
        let k = b.build();
        let mut g = GlobalMem::new();
        let buf = g.alloc(1 << 16);
        let launch = Launch::new(k, Dim3::d1(4), Dim3::d1(64), vec![buf]);
        let c = measure_ideals(&launch, &mut g).unwrap();
        // Everything except control flow (exit charges full lanes) is
        // lane-uniform, so WP collapses ~7 of 8 instructions to 1 thread.
        assert!(c.wp < c.baseline / 6, "wp={} baseline={}", c.wp, c.baseline);
    }

    #[test]
    fn tb_skips_repeated_warps_within_block() {
        // Block-uniform computation: every warp in a block computes identical
        // values, so TB charges roughly one warp per block per instruction.
        let mut b = KernelBuilder::new("blockuni", 1);
        let c = b.ctaid_x();
        let d = b.shl_imm(c, 3);
        let e = b.add(d, Operand::Imm(1));
        let off = b.shl_imm_wide(e, 2);
        let p = b.ld_param(0);
        let addr = b.add_wide(p, off);
        b.st_global(Ty::B32, addr, 0, e);
        let k = b.build();
        let mut g = GlobalMem::new();
        let buf = g.alloc(1 << 16);
        // 8 warps per block: TB should cut the redundant 7/8.
        let launch = Launch::new(k, Dim3::d1(2), Dim3::d1(256), vec![buf]);
        let c = measure_ideals(&launch, &mut g).unwrap();
        // First warp of each block pays full price; stores and exit are
        // never skipped — the rest (7/8 warps x 7 ALU ops) drops.
        assert!(
            c.tb < c.baseline / 3,
            "tb={} baseline={} should drop most warps",
            c.tb,
            c.baseline
        );
    }
}
