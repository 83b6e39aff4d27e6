//! Purely functional (timing-free) kernel execution.
//!
//! Used for (a) correctness oracles — the R2D2-transformed kernel must leave
//! device memory byte-identical to the original — and (b) the ideal
//! instruction-count machines of paper Fig. 4, which only need a dynamic
//! instruction trace, not timing.

use crate::exec::{ExecError, MemInfo, OperandVals, Outcome, StepInfo, WarpExec, WarpState};
use crate::launch::Launch;
use crate::linear::{LinearStore, Phase};
use crate::mem::GlobalMem;
use crate::timing::CancelToken;
use r2d2_isa::{Cfg, Instr, Kernel, Op};

/// One dynamic warp instruction, as seen by an [`Observer`].
#[derive(Debug)]
pub struct InstrEvent<'a> {
    /// pc of the instruction.
    pub pc: usize,
    /// The static instruction.
    pub instr: &'a Instr,
    /// Linear block id within the grid.
    pub block: u64,
    /// Warp index within the block.
    pub warp_in_block: u32,
    /// Lanes on the active path.
    pub active: u32,
    /// Lanes that actually executed.
    pub exec_mask: u32,
    /// Thread instructions this warp instruction represents.
    pub charged_lanes: u32,
    /// Captured operand values (when the observer wants them).
    pub vals: Option<&'a OperandVals>,
    /// Memory access description for loads/stores/atomics.
    pub mem: Option<&'a MemInfo>,
    /// R2D2 phase (Main for plain kernels).
    pub phase: Phase,
}

/// Consumer of a dynamic instruction trace.
pub trait Observer {
    /// `true` if the observer needs per-lane operand values (slower).
    fn wants_values(&self) -> bool {
        false
    }

    /// Called for every executed warp instruction.
    fn on_instr(&mut self, ev: &InstrEvent<'_>);

    /// Called when a thread block completes.
    fn on_block_done(&mut self, _block: u64) {}
}

/// Instruction counters from a functional run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncStats {
    /// Dynamic warp instructions.
    pub warp_instrs: u64,
    /// Dynamic thread instructions (sum of charged lanes).
    pub thread_instrs: u64,
    /// Warp instructions per R2D2 phase.
    pub warp_by_phase: [u64; 4],
    /// Thread instructions per R2D2 phase.
    pub thread_by_phase: [u64; 4],
}

fn charged_lanes(info: &StepInfo, instr: &Instr) -> u32 {
    // Linear phases run with forced masks (1 thread / n_lr lanes); everything
    // else charges the whole active path — predicated-off lanes still occupy
    // their SIMD slots, as in GPGPU-Sim thread-instruction accounting.
    let base = if info.phase.is_linear() || matches!(instr.op, Op::Exit) {
        info.exec_mask
    } else {
        info.active
    };
    base.count_ones()
}

impl FuncStats {
    fn record(&mut self, info: &StepInfo, instr: &Instr) {
        let lanes = charged_lanes(info, instr) as u64;
        self.warp_instrs += 1;
        self.thread_instrs += lanes;
        self.warp_by_phase[info.phase.idx()] += 1;
        self.thread_by_phase[info.phase.idx()] += lanes;
    }
}

struct BlockRun<'a> {
    kernel: &'a Kernel,
    cfg: &'a Cfg,
    launch: &'a Launch,
    watchdog: u64,
}

impl<'a> BlockRun<'a> {
    /// Run a set of warps (one thread block) to completion, handling
    /// barriers, accumulating stats, feeding the observer.
    #[allow(clippy::too_many_arguments)]
    fn run_warps(
        &self,
        warps: &mut [WarpState],
        gmem: &mut GlobalMem,
        smem: &mut [u8],
        linear: Option<(&crate::linear::LinearMeta, &mut LinearStore, usize)>,
        stats: &mut FuncStats,
        obs: &mut Option<&mut dyn Observer>,
    ) -> Result<(), ExecError> {
        let collect = obs.as_ref().is_some_and(|o| o.wants_values());
        let mut scratch = OperandVals::default();
        let mut linear = linear;
        loop {
            let mut progressed = false;
            for w in warps.iter_mut() {
                if w.done || w.at_barrier {
                    continue;
                }
                progressed = true;
                loop {
                    let lin = linear.as_mut().map(|(m, s, b)| (*m, &mut **s, *b));
                    let mut ex = WarpExec {
                        kernel: self.kernel,
                        cfg: self.cfg,
                        params: &self.launch.params,
                        ntid: [
                            self.launch.block.x,
                            self.launch.block.y,
                            self.launch.block.z,
                        ],
                        nctaid: [self.launch.grid.x, self.launch.grid.y, self.launch.grid.z],
                        smid: 0,
                        gmem,
                        smem,
                        linear: lin,
                        scratch: if collect { Some(&mut scratch) } else { None },
                        watchdog: self.watchdog,
                        defer_global_atomics: false,
                    };
                    let info = ex.step(w)?;
                    if info.outcome == Outcome::Exited && info.exec_mask == 0 && info.active == 0 {
                        break;
                    }
                    let instr = &self.kernel.instrs[info.pc];
                    stats.record(&info, instr);
                    if let Some(o) = obs.as_deref_mut() {
                        o.on_instr(&InstrEvent {
                            pc: info.pc,
                            instr,
                            block: w.block_lin,
                            warp_in_block: w.warp_in_block,
                            active: info.active,
                            exec_mask: info.exec_mask,
                            charged_lanes: charged_lanes(&info, instr),
                            vals: if collect { Some(&scratch) } else { None },
                            mem: info.mem.as_ref(),
                            phase: info.phase,
                        });
                    }
                    if info.outcome == Outcome::Barrier || w.done {
                        break;
                    }
                }
            }
            // Barrier release: all non-done warps arrived.
            let waiting = warps.iter().filter(|w| w.at_barrier).count();
            let live = warps.iter().filter(|w| !w.done).count();
            if waiting > 0 && waiting == live {
                for w in warps.iter_mut() {
                    w.at_barrier = false;
                }
                progressed = true;
            }
            if warps.iter().all(|w| w.done) {
                return Ok(());
            }
            assert!(progressed, "intra-block deadlock: warps stuck at a barrier");
        }
    }
}

/// Run a plain (non-R2D2) launch functionally, block by block.
///
/// # Errors
///
/// Returns [`ExecError::Watchdog`] if any warp exceeds `watchdog` dynamic
/// instructions.
pub fn run(
    launch: &Launch,
    gmem: &mut GlobalMem,
    watchdog: u64,
    obs: Option<&mut dyn Observer>,
) -> Result<FuncStats, ExecError> {
    run_cancellable(launch, gmem, watchdog, obs, None)
}

/// [`run`] that checks `cancel` before each thread block (never per
/// instruction), so a long functional run stops mid-launch.
///
/// # Errors
///
/// [`ExecError::Cancelled`] once the token is triggered, and
/// [`ExecError::Watchdog`] as for [`run`].
pub fn run_cancellable(
    launch: &Launch,
    gmem: &mut GlobalMem,
    watchdog: u64,
    mut obs: Option<&mut dyn Observer>,
    cancel: Option<&CancelToken>,
) -> Result<FuncStats, ExecError> {
    let kernel = &launch.kernel;
    let cfg = Cfg::build(kernel);
    let runner = BlockRun {
        kernel,
        cfg: &cfg,
        launch,
        watchdog,
    };
    let mut stats = FuncStats::default();
    let tpb = launch.threads_per_block();
    let wpb = launch.warps_per_block();
    let nregs = kernel.num_regs();
    let npreds = kernel.num_preds().max(1);
    for blk in 0..launch.num_blocks() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(ExecError::Cancelled { block: blk });
        }
        let ctaid = launch.grid.unflatten(blk);
        let mut warps: Vec<WarpState> = (0..wpb)
            .map(|wib| WarpState::new(nregs, npreds, blk, ctaid, wib, tpb, 0))
            .collect();
        let mut smem = vec![0u8; kernel.shared_bytes as usize];
        runner.run_warps(&mut warps, gmem, &mut smem, None, &mut stats, &mut obs)?;
        if let Some(o) = obs.as_deref_mut() {
            o.on_block_done(blk);
        }
    }
    Ok(stats)
}

/// Run an R2D2-transformed launch functionally.
///
/// Phase order follows the paper (Sec. 4.1): coefficients once, thread-index
/// parts once, then per block: block-index parts by the first warp, then the
/// non-linear stream by every warp. This is the "one ideal SM" view; the
/// timing simulator replicates the prologue per SM as real hardware would.
///
/// # Errors
///
/// Returns [`ExecError::Watchdog`] if any warp exceeds `watchdog` dynamic
/// instructions.
///
/// # Panics
///
/// Panics if `launch.meta` is `None`.
pub fn run_r2d2(
    launch: &Launch,
    gmem: &mut GlobalMem,
    watchdog: u64,
    mut obs: Option<&mut dyn Observer>,
) -> Result<FuncStats, ExecError> {
    let meta = launch
        .meta
        .as_ref()
        .expect("run_r2d2 requires linear metadata");
    let kernel = &launch.kernel;
    let cfg = Cfg::build(kernel);
    let runner = BlockRun {
        kernel,
        cfg: &cfg,
        launch,
        watchdog,
    };
    let mut stats = FuncStats::default();
    let tpb = launch.threads_per_block();
    let wpb = launch.warps_per_block();
    let nregs = kernel.num_regs();
    let npreds = kernel.num_preds().max(1);
    let mut store = LinearStore::new(meta, tpb as usize, 1);

    // Helper: run one warp from `start` until its pc reaches `stop` (linear
    // blocks are straight-line, so pc increases monotonically).
    let run_range = |store: &mut LinearStore,
                     gmem: &mut GlobalMem,
                     stats: &mut FuncStats,
                     blk: u64,
                     ctaid: [u32; 3],
                     wib: u32,
                     start: usize,
                     stop: usize|
     -> Result<(), ExecError> {
        let mut w = WarpState::new(nregs, npreds, blk, ctaid, wib, tpb, start);
        let mut smem: Vec<u8> = Vec::new();
        loop {
            match w.sync_top() {
                Some((pc, _)) if pc < stop => {}
                _ => return Ok(()),
            }
            let mut ex = WarpExec {
                kernel,
                cfg: &cfg,
                params: &launch.params,
                ntid: [launch.block.x, launch.block.y, launch.block.z],
                nctaid: [launch.grid.x, launch.grid.y, launch.grid.z],
                smid: 0,
                gmem,
                smem: &mut smem,
                linear: Some((meta, store, 0)),
                scratch: None,
                watchdog,
                defer_global_atomics: false,
            };
            let info = ex.step(&mut w)?;
            stats.record(&info, &kernel.instrs[info.pc]);
        }
    };

    // 1. Coefficients (single thread).
    run_range(
        &mut store,
        gmem,
        &mut stats,
        0,
        [0; 3],
        0,
        meta.coef_start,
        meta.tidx_start,
    )?;
    // 2. Thread-index parts (every warp of the first block).
    for wib in 0..wpb {
        run_range(
            &mut store,
            gmem,
            &mut stats,
            0,
            [0; 3],
            wib,
            meta.tidx_start,
            meta.bidx_start,
        )?;
    }
    // 3. Per block: block-index parts then the non-linear stream.
    for blk in 0..launch.num_blocks() {
        let ctaid = launch.grid.unflatten(blk);
        run_range(
            &mut store,
            gmem,
            &mut stats,
            blk,
            ctaid,
            0,
            meta.bidx_start,
            meta.main_start,
        )?;
        let mut warps: Vec<WarpState> = (0..wpb)
            .map(|wib| WarpState::new(nregs, npreds, blk, ctaid, wib, tpb, meta.main_start))
            .collect();
        let mut smem = vec![0u8; kernel.shared_bytes as usize];
        runner.run_warps(
            &mut warps,
            gmem,
            &mut smem,
            Some((meta, &mut store, 0)),
            &mut stats,
            &mut obs,
        )?;
        if let Some(o) = obs.as_deref_mut() {
            o.on_block_done(blk);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::Dim3;
    use r2d2_isa::{KernelBuilder, Ty};

    fn iota_kernel() -> r2d2_isa::Kernel {
        let mut b = KernelBuilder::new("iota", 1);
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let p = b.ld_param(0);
        let a = b.add_wide(p, off);
        b.st_global(Ty::B32, a, 0, i);
        b.build()
    }

    #[test]
    fn multiblock_grid_covers_all_threads() {
        let k = iota_kernel();
        let mut gmem = GlobalMem::new();
        let n = 4 * 64u64;
        let out = gmem.alloc(n * 4);
        let launch = Launch::new(k, Dim3::d1(4), Dim3::d1(64), vec![out]);
        let stats = run(&launch, &mut gmem, 1_000_000, None).unwrap();
        for i in 0..n {
            assert_eq!(gmem.read_i32(out, i), i as i32);
        }
        // 4 blocks x 2 warps x 6 instructions (5 + exit)
        assert_eq!(stats.warp_instrs, 4 * 2 * (k_instrs() as u64));
        assert_eq!(stats.thread_instrs, 4 * 2 * 32 * (k_instrs() as u64));
    }

    fn k_instrs() -> usize {
        iota_kernel().instrs.len()
    }

    #[test]
    fn observer_sees_every_warp_instruction() {
        struct Count(u64, u64);
        impl Observer for Count {
            fn on_instr(&mut self, ev: &InstrEvent<'_>) {
                self.0 += 1;
                self.1 += ev.charged_lanes as u64;
            }
        }
        let k = iota_kernel();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(128 * 4);
        let launch = Launch::new(k, Dim3::d1(2), Dim3::d1(64), vec![out]);
        let mut c = Count(0, 0);
        let stats = run(&launch, &mut gmem, 1_000_000, Some(&mut c)).unwrap();
        assert_eq!(c.0, stats.warp_instrs);
        assert_eq!(c.1, stats.thread_instrs);
    }

    #[test]
    fn barrier_across_warps_orders_shared_memory() {
        // warp-reverse through shared memory: out[t] = in-shared[tpb-1-t]
        let mut b = KernelBuilder::new("rev", 1);
        b.shared_bytes(64 * 4);
        let t = b.tid_x();
        let ntid = b.ntid_x();
        let soff = b.shl_imm_wide(t, 2);
        b.st_shared(Ty::B32, soff, 0, t);
        b.bar();
        let nm1 = b.sub(ntid, r2d2_isa::Operand::Imm(1));
        let rt = b.sub(nm1, t);
        let roff = b.shl_imm_wide(rt, 2);
        let v = b.ld_shared(Ty::B32, roff, 0);
        let goff = b.shl_imm_wide(t, 2);
        let p = b.ld_param(0);
        let addr = b.add_wide(p, goff);
        b.st_global(Ty::B32, addr, 0, v);
        let k = b.build();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(64 * 4);
        let launch = Launch::new(k, Dim3::d1(1), Dim3::d1(64), vec![out]);
        run(&launch, &mut gmem, 1_000_000, None).unwrap();
        for t in 0..64 {
            assert_eq!(gmem.read_i32(out, t), (63 - t) as i32, "t={t}");
        }
    }

    #[test]
    fn phase_counters_stay_in_main_without_meta() {
        let k = iota_kernel();
        let mut gmem = GlobalMem::new();
        let out = gmem.alloc(64 * 4);
        let launch = Launch::new(k, Dim3::d1(1), Dim3::d1(64), vec![out]);
        let stats = run(&launch, &mut gmem, 1_000_000, None).unwrap();
        assert_eq!(stats.warp_by_phase[0], 0);
        assert_eq!(stats.warp_by_phase[1], 0);
        assert_eq!(stats.warp_by_phase[2], 0);
        assert_eq!(stats.warp_by_phase[3], stats.warp_instrs);
    }
}
