//! Cross-crate invariants for the machine models: value preservation across
//! the whole zoo, statistics sanity, and the relative ordering the paper
//! establishes.

use r2d2::prelude::*;
use r2d2::workloads;

fn run_all(w: &Workload, cfg: &GpuConfig, model: ModelSpec) -> (Stats, Vec<u8>) {
    let mut g = w.gmem.clone();
    let rec = run_model(model, w, cfg, &mut g, None, None).unwrap();
    (rec.stats, g.bytes().to_vec())
}

#[test]
fn all_models_preserve_results_across_the_zoo() {
    let cfg = GpuConfig::default().with_num_sms(4);
    for (name, _) in workloads::NAMES {
        let w = workloads::build(name, Size::Small).unwrap();
        let (base, bytes) = run_all(&w, &cfg, ModelSpec::Baseline);
        for model in [ModelSpec::Dac, ModelSpec::Darsie, ModelSpec::DarsieScalar] {
            let (s, b) = run_all(&w, &cfg, model);
            let mname = model.name();
            assert_eq!(bytes, b, "{name}/{mname} changed results");
            assert!(
                s.warp_instrs_with_skipped() == base.warp_instrs_with_skipped(),
                "{name}/{mname}: executed+skipped must equal baseline executed \
                 ({} + {} vs {})",
                s.warp_instrs,
                s.skipped_warp_instrs,
                base.warp_instrs
            );
            assert!(
                s.warp_instrs <= base.warp_instrs,
                "{name}/{mname} added instructions"
            );
        }
    }
}

#[test]
fn stats_invariants_hold() {
    let cfg = GpuConfig::default().with_num_sms(4);
    for name in ["BP", "SRAD2", "BFS", "GEM", "FFT", "LUD", "HIS"] {
        let w = workloads::build(name, Size::Small).unwrap();
        let (s, _) = run_all(&w, &cfg, ModelSpec::Baseline);
        assert!(s.cycles > 0, "{name}");
        assert!(s.thread_instrs >= s.warp_instrs, "{name}: lanes >= warps");
        assert!(
            s.thread_instrs <= s.warp_instrs * 32,
            "{name}: lanes <= 32x warps"
        );
        assert_eq!(s.l1_hits + s.l1_misses, s.events.l1_accesses, "{name}");
        assert_eq!(s.l2_hits + s.l2_misses, s.events.l2_accesses, "{name}");
        assert!(
            s.dram_txns <= s.events.l2_accesses,
            "{name}: DRAM beyond L2 misses"
        );
        assert_eq!(s.events.fetch_decode, s.warp_instrs, "{name}");
    }
}

#[test]
fn r2d2_prologue_is_bounded() {
    // Fig. 15's qualitative claim: the linear prologue is a small part of
    // execution (we allow a loose bound at test sizes — the bench harness
    // measures the real share at evaluation sizes).
    let cfg = GpuConfig::default().with_num_sms(4);
    for name in ["BP", "SRAD2", "NN", "2DC"] {
        let w = workloads::build(name, Size::Small).unwrap();
        let (stats, _) = run_all(&w, &cfg, ModelSpec::R2d2);
        assert!(
            stats.prologue_cycles <= stats.cycles,
            "{name}: prologue {} beyond total {}",
            stats.prologue_cycles,
            stats.cycles
        );
        assert!(
            stats.linear_warp_share() < 0.30,
            "{name}: linear share {:.2} too large even at test size",
            stats.linear_warp_share()
        );
    }
}

#[test]
fn ideal_ln_beats_wp_and_tb_on_average() {
    // The Fig. 4 headline ordering, at test size over a representative set.
    let mut sums = (0.0f64, 0.0f64, 0.0f64);
    let names = [
        "BP", "2DC", "SRAD2", "NN", "CFD", "HSP", "FDT", "KM", "SAD", "DWT",
    ];
    for name in names {
        let w = workloads::build(name, Size::Small).unwrap();
        let cfg = GpuConfig::default();
        let rec = run_model(ModelSpec::Ideals, &w, &cfg, &mut w.gmem.clone(), None, None).unwrap();
        let (wp, tb, ln) = rec.ideal.unwrap().reductions();
        sums.0 += wp;
        sums.1 += tb;
        sums.2 += ln;
    }
    let n = names.len() as f64;
    let (wp, tb, ln) = (sums.0 / n, sums.1 / n, sums.2 / n);
    assert!(ln > wp, "LN ({ln:.1}%) must beat WP ({wp:.1}%) on average");
    assert!(ln > tb, "LN ({ln:.1}%) must beat TB ({tb:.1}%) on average");
}
