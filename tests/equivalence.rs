//! The repo's strongest correctness statement: for EVERY workload in the
//! Table 2 zoo, the R2D2-transformed kernel leaves device memory
//! byte-identical to the original, under both functional and timed execution.

use r2d2::core::transform::transform;
use r2d2::sim::{functional, GlobalMem, Launch};
use r2d2::workloads::{self, Size};

const WATCHDOG: u64 = 100_000_000;

fn run_all_functional(launches: &[Launch], gmem: &mut GlobalMem) -> u64 {
    let mut total = 0;
    for l in launches {
        let s = functional::run(l, gmem, WATCHDOG, None).unwrap();
        total += s.thread_instrs;
    }
    total
}

fn run_all_r2d2_functional(launches: &[Launch], gmem: &mut GlobalMem) -> u64 {
    let mut total = 0;
    for l in launches {
        let r = transform(&l.kernel);
        if r.meta.has_linear() {
            let mut l2 = Launch::new(r.kernel, l.grid, l.block, l.params.clone());
            l2.meta = Some(r.meta);
            let s = functional::run_r2d2(&l2, gmem, WATCHDOG, None).unwrap();
            total += s.thread_instrs;
        } else {
            let s = functional::run(l, gmem, WATCHDOG, None).unwrap();
            total += s.thread_instrs;
        }
    }
    total
}

#[test]
fn every_workload_is_r2d2_equivalent() {
    let mut reductions: Vec<(&str, f64)> = Vec::new();
    for (name, _) in workloads::NAMES {
        let w = workloads::build(name, Size::Small).unwrap();
        let mut g1 = w.gmem.clone();
        let base = run_all_functional(&w.launches, &mut g1);
        let mut g2 = w.gmem.clone();
        let r2 = run_all_r2d2_functional(&w.launches, &mut g2);
        assert_eq!(
            g1.bytes(),
            g2.bytes(),
            "{name}: transformed execution diverged from the original"
        );
        let red = 100.0 * (base as f64 - r2 as f64) / base as f64;
        reductions.push((name, red));
    }
    // Sanity on the aggregate: the functional (single-prologue) reduction
    // should be clearly positive on average across the zoo.
    let avg = reductions.iter().map(|(_, r)| r).sum::<f64>() / reductions.len() as f64;
    assert!(
        avg > 10.0,
        "average functional thread-instruction reduction too small: {avg:.1}%\n{reductions:?}"
    );
    // And no workload should get dramatically WORSE (linear overhead bound).
    for (name, red) in &reductions {
        assert!(*red > -10.0, "{name}: R2D2 added {:.1}% instructions", -red);
    }
}

#[test]
fn timed_baseline_matches_functional_results() {
    use r2d2::prelude::{run_model, GpuConfig, ModelSpec};
    let cfg = GpuConfig::default().with_num_sms(8);
    // A representative subset across suites (full-zoo timing runs live in the
    // bench harness).
    for name in ["BP", "GEM", "BFS", "SPM", "2DC", "FFT", "VGG", "LUD"] {
        let w = workloads::build(name, Size::Small).unwrap();
        let mut g1 = w.gmem.clone();
        run_all_functional(&w.launches, &mut g1);
        let mut g2 = w.gmem.clone();
        let stats = run_model(ModelSpec::Baseline, &w, &cfg, &mut g2, None, None)
            .unwrap()
            .stats;
        assert_eq!(
            g1.bytes(),
            g2.bytes(),
            "{name}: timing diverged from functional"
        );
        assert!(stats.cycles > 0, "{name}");
    }
}

#[test]
fn timed_r2d2_matches_baseline_results() {
    use r2d2::prelude::{run_model, GpuConfig, ModelSpec};
    let cfg = GpuConfig::default().with_num_sms(8);
    for name in ["BP", "GEM", "SRAD2", "KM", "CFD", "NN", "FFT_PT"] {
        let w = workloads::build(name, Size::Small).unwrap();
        let mut g1 = w.gmem.clone();
        let base = run_model(ModelSpec::Baseline, &w, &cfg, &mut g1, None, None)
            .unwrap()
            .stats;
        let mut g2 = w.gmem.clone();
        let r2 = run_model(ModelSpec::R2d2, &w, &cfg, &mut g2, None, None)
            .unwrap()
            .stats;
        assert_eq!(g1.bytes(), g2.bytes(), "{name}: timed R2D2 diverged");
        assert!(
            r2.warp_instrs <= base.warp_instrs * 11 / 10,
            "{name}: R2D2 ran more warp instructions ({} vs {})",
            r2.warp_instrs,
            base.warp_instrs
        );
    }
}
