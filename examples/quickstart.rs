//! Quickstart: build a kernel, transform it with R2D2, and compare the
//! baseline GPU against the R2D2 GPU on the cycle-level simulator.
//!
//! Run with: `cargo run --release --example quickstart`

use r2d2::core::transform::transform;
use r2d2::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // SAXPY: y[i] = a * x[i] + y[i], with the usual CUDA index math.
    let mut b = KernelBuilder::new("saxpy", 3);
    let i = b.global_tid_x(); // ctaid.x * ntid.x + tid.x
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
    let kernel = b.build();

    println!("original kernel:\n{kernel}");

    // The R2D2 software pipeline (paper Sec. 3): analyze + decouple.
    let r2 = transform(&kernel);
    println!("transformed kernel (coef/tidx/bidx blocks + rewritten stream):");
    println!("{}", r2.kernel);
    println!(
        "removed {} of {} instructions; {} linear registers, {} thread-index \
         registers, {} coefficient registers\n",
        r2.report.removed_instrs,
        r2.report.original_static,
        r2.report.n_lr,
        r2.report.n_tr,
        r2.report.n_cr
    );

    // Run both machines on identical inputs.
    let cfg = GpuConfig::default().with_num_sms(16);
    let grid = Dim3::d1(512);
    let block = Dim3::d1(256);
    let n = grid.count() * block.count();
    let mut gmem = GlobalMem::new();
    let x = gmem.alloc(n * 4);
    let y = gmem.alloc(n * 4);
    for i in 0..n {
        gmem.write_f32(x, i, i as f32);
        gmem.write_f32(y, i, 1.0);
    }
    let w = Workload {
        name: "saxpy",
        suite: "quickstart",
        gmem,
        launches: vec![Launch::new(kernel, grid, block, vec![x, y, 2])],
    };

    let mut g1 = w.gmem.clone();
    let base = run_model(ModelSpec::Baseline, &w, &cfg, &mut g1, None, None)?;
    let mut g2 = w.gmem.clone();
    let r2run = run_model(ModelSpec::R2d2, &w, &cfg, &mut g2, None, None)?;

    assert_eq!(g1.bytes(), g2.bytes(), "bit-identical results");
    assert_eq!(g1.read_f32(y, 100), 201.0);

    println!(
        "baseline: {:>9} warp instructions, {:>7} cycles",
        base.stats.warp_instrs, base.stats.cycles
    );
    println!(
        "R2D2:     {:>9} warp instructions, {:>7} cycles",
        r2run.stats.warp_instrs, r2run.stats.cycles
    );
    println!(
        "          {:.1}% fewer instructions, {:.2}x speedup, {:.1}% less energy",
        100.0 * (base.stats.warp_instrs - r2run.stats.warp_instrs) as f64
            / base.stats.warp_instrs as f64,
        base.stats.cycles as f64 / r2run.stats.cycles as f64,
        100.0 * (base.energy.total_pj() - r2run.energy.total_pj()) / base.energy.total_pj()
    );
    Ok(())
}
