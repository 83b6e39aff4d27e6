//! Back-to-back determinism: repeating a machine-model run of the same
//! workload must return identical `Stats` and identical `GlobalMem` bytes —
//! the property the harness result cache (and every figure script) relies
//! on. Covers the five Fig. 12/13/16 machine models under the default
//! (event-driven) loop.

use r2d2::harness::sets::COMPARISON_MODELS;
use r2d2::prelude::*;
use r2d2::workloads;

fn run_once(w: &Workload, model: ModelSpec) -> (Stats, Vec<u8>) {
    let cfg = GpuConfig::default().with_num_sms(4);
    let mut g = w.gmem.clone();
    let rec = run_model(model, w, &cfg, &mut g, None, None).unwrap();
    (rec.stats, g.bytes().to_vec())
}

#[test]
fn back_to_back_runs_are_identical() {
    for name in ["BP", "GEM", "HIS", "SRAD2"] {
        let w = workloads::build(name, Size::Small).unwrap();
        for model in COMPARISON_MODELS {
            let (s1, m1) = run_once(&w, model);
            let (s2, m2) = run_once(&w, model);
            let model = model.name();
            assert_eq!(s1, s2, "{name}/{model}: Stats not deterministic");
            assert_eq!(m1, m2, "{name}/{model}: memory not deterministic");
        }
    }
}
