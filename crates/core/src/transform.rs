//! End-to-end kernel transformation and the register-pressure gate.

use crate::analyzer::analyze;
use crate::generator::{generate_with, GenOptions};
use r2d2_isa::{Cfg, Kernel};
use r2d2_sim::{blocks_per_sm, phys_regs_estimate, Dim3, GpuConfig, Launch, LinearMeta};

/// Summary of what the transformation did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransformReport {
    /// Static instructions in the original kernel.
    pub original_static: usize,
    /// Static instructions in the transformed kernel (all four blocks).
    pub transformed_static: usize,
    /// Original instructions removed from the main stream.
    pub removed_instrs: usize,
    /// Linear-register groups beyond the 16-entry register table.
    pub spilled_groups: usize,
    /// Scalar linear registers mapped to coefficient registers.
    pub scalar_crs: usize,
    /// Coefficient registers used.
    pub n_cr: usize,
    /// Thread-index registers used.
    pub n_tr: usize,
    /// Linear registers used.
    pub n_lr: usize,
}

/// A transformed kernel plus its metadata (the "binary" the R2D2 host
/// launches: paper Sec. 3.3 / 4.4 — the original code rides along for the
/// register-pressure fallback, which here simply means keeping the original
/// [`Kernel`] around).
#[derive(Debug, Clone)]
pub struct R2d2Kernel {
    /// The transformed instruction stream.
    pub kernel: Kernel,
    /// Starting-PC table, register table, register-class counts.
    pub meta: LinearMeta,
    /// What happened during transformation.
    pub report: TransformReport,
}

/// Run the full R2D2 software pipeline: analyze (Sec. 3.1) then decouple
/// (Sec. 3.2-3.3).
///
/// Always succeeds; a kernel with no detectable linearity comes back
/// untouched with `meta.has_linear() == false`.
pub fn transform(kernel: &Kernel) -> R2d2Kernel {
    transform_with(kernel, &GenOptions::default())
}

/// [`transform`] with explicit generator options (ablation studies).
pub fn transform_with(kernel: &Kernel, opts: &GenOptions) -> R2d2Kernel {
    let analysis = analyze(kernel);
    let gen = generate_with(kernel, &analysis, opts);
    debug_assert!(gen.kernel.validate().is_ok(), "{:?}", gen.kernel.validate());
    R2d2Kernel {
        report: TransformReport {
            original_static: kernel.instrs.len(),
            transformed_static: gen.kernel.instrs.len(),
            removed_instrs: gen.removed_instrs,
            spilled_groups: gen.spilled_groups,
            scalar_crs: gen.scalar_crs,
            n_cr: gen.meta.n_cr,
            n_tr: gen.meta.n_tr,
            n_lr: gen.meta.n_lr,
        },
        kernel: gen.kernel,
        meta: gen.meta,
    }
}

/// Build the launch an R2D2 GPU would actually run: the transformed kernel,
/// unless the linear registers would reduce occupancy, in which case the
/// host launches the original instructions instead (paper Sec. 4.4).
///
/// Returns the launch and `true` when the transformed kernel was chosen.
pub fn make_launch(
    cfg: &GpuConfig,
    kernel: &Kernel,
    grid: Dim3,
    block: Dim3,
    params: Vec<u64>,
) -> (Launch, bool) {
    let original = Launch::new(kernel.clone(), grid, block, params);
    match gate(cfg, &original, transform(kernel)) {
        Some(launch) => (launch, true),
        None => (original, false),
    }
}

/// The Sec. 4.4 register-pressure gate: the launch of `r2` (the transform
/// of `original`'s kernel, under any [`GenOptions`]) in place of
/// `original`, or `None` when `r2` decoupled nothing or its linear
/// registers would lower occupancy. On `None` the host runs `original`.
pub fn gate(cfg: &GpuConfig, original: &Launch, r2: R2d2Kernel) -> Option<Launch> {
    if !r2.meta.has_linear() {
        return None;
    }
    let occupancy = |l: &Launch| {
        let regs = phys_regs_estimate(&l.kernel, &Cfg::build(&l.kernel));
        blocks_per_sm(cfg, l, regs)
    };
    let launch = Launch {
        kernel: r2.kernel,
        params: original.params.clone(),
        meta: Some(r2.meta),
        ..*original
    };
    (occupancy(&launch) >= occupancy(original)).then_some(launch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use r2d2_energy::EnergyModel;
    use r2d2_isa::{KernelBuilder, Operand, Ty};
    use r2d2_sim::{functional, GlobalMem, SimSession, Stats};

    fn saxpy() -> Kernel {
        let mut b = KernelBuilder::new("saxpy", 3);
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let px = b.ld_param(0);
        let py = b.ld_param(1);
        let ax = b.add_wide(px, off);
        let ay = b.add_wide(py, off);
        let x = b.ld_global(Ty::F32, ax, 0);
        let y = b.ld_global(Ty::F32, ay, 0);
        let a = b.ld_param(2);
        let af = b.cvt(Ty::F32, a);
        let t = b.mad_ty(Ty::F32, af, x, y);
        b.st_global(Ty::F32, ay, 0, t);
        b.build()
    }

    #[test]
    fn transform_reports_shrinkage() {
        let k = saxpy();
        let r = transform(&k);
        assert!(r.meta.has_linear());
        assert!(r.report.removed_instrs > 5);
        assert!(r.report.n_lr >= 1);
    }

    /// The strongest correctness statement: transformed execution leaves
    /// device memory byte-identical to the original.
    #[test]
    fn functional_equivalence_saxpy() {
        let k = saxpy();
        let r = transform(&k);
        let grid = Dim3::d1(8);
        let block = Dim3::d1(128);
        let n = 8 * 128u64;

        let setup = |g: &mut GlobalMem| -> (u64, u64) {
            let x = g.alloc(n * 4);
            let y = g.alloc(n * 4);
            for i in 0..n {
                g.write_f32(x, i, i as f32 * 0.5);
                g.write_f32(y, i, 100.0 - i as f32);
            }
            (x, y)
        };

        let mut g1 = GlobalMem::new();
        let (x1, y1) = setup(&mut g1);
        let l1 = Launch::new(k.clone(), grid, block, vec![x1, y1, 3]);
        functional::run(&l1, &mut g1, 1_000_000, None).unwrap();

        let mut g2 = GlobalMem::new();
        let (x2, y2) = setup(&mut g2);
        let mut l2 = Launch::new(r.kernel.clone(), grid, block, vec![x2, y2, 3]);
        l2.meta = Some(r.meta.clone());
        let s2 = functional::run_r2d2(&l2, &mut g2, 1_000_000, None).unwrap();

        assert_eq!(
            g1.bytes(),
            g2.bytes(),
            "transformed kernel must be bit-identical"
        );
        assert!(s2.warp_by_phase[0] > 0, "coefficient instructions ran");
    }

    #[test]
    fn transformed_kernel_runs_fewer_dynamic_instructions() {
        let k = saxpy();
        let r = transform(&k);
        let grid = Dim3::d1(64);
        let block = Dim3::d1(256);
        let n = 64 * 256u64;

        let mut g1 = GlobalMem::new();
        let x1 = g1.alloc(n * 4);
        let y1 = g1.alloc(n * 4);
        let l1 = Launch::new(k, grid, block, vec![x1, y1, 2]);
        let s1 = functional::run(&l1, &mut g1, 10_000_000, None).unwrap();

        let mut g2 = GlobalMem::new();
        let x2 = g2.alloc(n * 4);
        let y2 = g2.alloc(n * 4);
        let mut l2 = Launch::new(r.kernel, grid, block, vec![x2, y2, 2]);
        l2.meta = Some(r.meta);
        let s2 = functional::run_r2d2(&l2, &mut g2, 10_000_000, None).unwrap();

        assert!(
            s2.thread_instrs < s1.thread_instrs * 3 / 4,
            "R2D2 should cut >25% of thread instructions here: {} vs {}",
            s2.thread_instrs,
            s1.thread_instrs
        );
    }

    #[test]
    fn make_launch_picks_transformed_when_it_fits() {
        let k = saxpy();
        let cfg = GpuConfig::default();
        let (launch, used) = make_launch(&cfg, &k, Dim3::d1(4), Dim3::d1(128), vec![0, 0, 1]);
        assert!(used);
        assert!(launch.meta.is_some());
    }

    /// Keeps 32 loaded values live at once and recomputes the store address
    /// afterwards, so its register-pressure peak is all loaded (non-linear)
    /// values: the transform cannot lower it, and the thread-index registers
    /// it adds come on top.
    fn all_values_live() -> Kernel {
        let mut b = KernelBuilder::new("all_live", 1);
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let p = b.ld_param(0);
        let a = b.add_wide(p, off);
        let vals: Vec<_> = (0..32).map(|k| b.ld_global(Ty::F32, a, k * 8192)).collect();
        let sum = vals[1..]
            .iter()
            .fold(vals[0], |acc, &v| b.add_ty(Ty::F32, acc, v));
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let p = b.ld_param(0);
        let a = b.add_wide(p, off);
        b.st_global(Ty::F32, a, 0, sum);
        b.build()
    }

    #[test]
    fn make_launch_falls_back_when_linear_registers_lower_occupancy() {
        // 1024-thread blocks at 32 live registers fill the 64K-register file
        // with exactly two blocks; the transform keeps the 32 and adds its
        // thread-index registers, which leaves room for one.
        let k = all_values_live();
        let cfg = GpuConfig::default();
        let (grid, block) = (Dim3::d1(2), Dim3::d1(1024));
        let r2 = transform(&k);
        assert!(r2.meta.has_linear(), "address math must be decoupled");
        assert!(r2.meta.n_tr > 0);
        let mut fits = Launch::new(r2.kernel.clone(), grid, block, vec![0]);
        fits.meta = Some(r2.meta);
        let regs = |k: &Kernel| phys_regs_estimate(k, &Cfg::build(k));
        assert_eq!(regs(&k), 32);
        assert_eq!(regs(&r2.kernel), 32);
        assert_eq!(
            blocks_per_sm(&cfg, &Launch::new(k.clone(), grid, block, vec![0]), 32),
            2
        );
        assert_eq!(blocks_per_sm(&cfg, &fits, 32), 1);

        let (launch, used) = make_launch(&cfg, &k, grid, block, vec![0]);
        assert!(!used, "the transformed kernel would lower occupancy");
        assert!(launch.meta.is_none());
        assert_eq!(
            launch.kernel.instrs, k.instrs,
            "the original kernel launches"
        );
    }

    fn streaming_kernel() -> Kernel {
        // out[i] = a * in[i] + b with full linear address generation.
        let mut b = KernelBuilder::new("stream", 4);
        let i = b.global_tid_x();
        let off = b.shl_imm_wide(i, 2);
        let pin = b.ld_param(0);
        let pout = b.ld_param(1);
        let ain = b.add_wide(pin, off);
        let aout = b.add_wide(pout, off);
        let v = b.ld_global(Ty::F32, ain, 0);
        let a = b.ld_param(2);
        let af = b.cvt(Ty::F32, a);
        let c = b.ld_param(3);
        let cf = b.cvt(Ty::F32, c);
        let r = b.mad_ty(Ty::F32, af, v, cf);
        b.st_global(Ty::F32, aout, 0, r);
        b.build()
    }

    /// Runs `launch` on the timing simulator, returning its stats and energy.
    fn timed(cfg: &GpuConfig, launch: &Launch, g: &mut GlobalMem) -> (Stats, f64) {
        let stats = SimSession::new(cfg).run(launch, g).unwrap();
        let energy = EnergyModel::volta().breakdown(&stats.events).total_pj();
        (stats, energy)
    }

    #[test]
    fn r2d2_cuts_instructions_and_energy_on_streaming_kernel() {
        // Memory-bound: the paper's SPM case — big instruction reduction,
        // modest cycle change (DRAM bandwidth dominates end-to-end time).
        let k = streaming_kernel();
        let cfg = GpuConfig::default().with_num_sms(8);
        let grid = Dim3::d1(128);
        let block = Dim3::d1(256);
        let n = 128 * 256u64;

        let mut g1 = GlobalMem::new();
        let i1 = g1.alloc(n * 4);
        let o1 = g1.alloc(n * 4);
        for i in 0..n {
            g1.write_f32(i1, i, i as f32);
        }
        let l1 = Launch::new(k.clone(), grid, block, vec![i1, o1, 3, 7]);
        let (base, base_e) = timed(&cfg, &l1, &mut g1);

        let mut g2 = GlobalMem::new();
        let i2 = g2.alloc(n * 4);
        let o2 = g2.alloc(n * 4);
        for i in 0..n {
            g2.write_f32(i2, i, i as f32);
        }
        let (l2, used) = make_launch(&cfg, &k, grid, block, vec![i2, o2, 3, 7]);
        let (r2, r2_e) = timed(&cfg, &l2, &mut g2);

        assert!(used);
        assert_eq!(g1.bytes(), g2.bytes(), "results must match");
        assert!(
            r2.warp_instrs * 2 < base.warp_instrs,
            "R2D2 {} vs baseline {} warp instructions",
            r2.warp_instrs,
            base.warp_instrs
        );
        assert!(r2_e < base_e);
        // Memory-bound: cycles close to baseline, never catastrophically worse.
        assert!(r2.cycles < base.cycles * 11 / 10);
        // Linear instructions are a small fraction (paper Fig. 14: ~1%).
        assert!(r2.linear_warp_share() < 0.25);
    }

    #[test]
    fn r2d2_speeds_up_address_generation_bound_kernel() {
        // Issue-bound: a long chain of linear index arithmetic per thread with
        // a single store — the regime where the paper's speedups come from.
        let mut b = KernelBuilder::new("addrgen", 2);
        let i = b.global_tid_x();
        let c = b.ld_param32(1);
        let mut v = b.mad(i, c, Operand::Imm(5));
        for step in 0..10 {
            let s = b.shl_imm(v, 1);
            v = b.add(s, Operand::Imm(step));
        }
        let off = b.shl_imm_wide(i, 2);
        let p = b.ld_param(0);
        let addr = b.add_wide(p, off);
        b.st_global(Ty::B32, addr, 0, v);
        let k = b.build();

        let cfg = GpuConfig::default().with_num_sms(8);
        let grid = Dim3::d1(256);
        let block = Dim3::d1(256);
        let n = 256 * 256u64;

        let mut g1 = GlobalMem::new();
        let o1 = g1.alloc(n * 4);
        let l1 = Launch::new(k.clone(), grid, block, vec![o1, 3]);
        let (base, base_e) = timed(&cfg, &l1, &mut g1);

        let mut g2 = GlobalMem::new();
        let o2 = g2.alloc(n * 4);
        let (l2, used) = make_launch(&cfg, &k, grid, block, vec![o2, 3]);
        let (r2, r2_e) = timed(&cfg, &l2, &mut g2);

        assert!(used);
        assert_eq!(g1.bytes(), g2.bytes(), "results must match");
        assert!(
            r2.cycles * 12 < base.cycles * 10,
            "expected >1.2x speedup: R2D2 {} vs baseline {} cycles",
            r2.cycles,
            base.cycles
        );
        assert!(r2_e < base_e);
    }
}
