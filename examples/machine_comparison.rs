//! Run one Table 2 workload under every machine model the paper evaluates
//! (baseline, DAC, DARSIE, DARSIE+Scalar, R2D2) and print a comparison.
//!
//! Run with: `cargo run --release --example machine_comparison [WORKLOAD]`
//! e.g. `cargo run --release --example machine_comparison SRAD2`

use r2d2::harness::sets::COMPARISON_MODELS;
use r2d2::prelude::*;
use r2d2::workloads;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "BP".to_string());
    let w = workloads::build(&name, Size::Small)
        .unwrap_or_else(|| panic!("unknown workload {name}; see r2d2::workloads::NAMES"));
    let cfg = GpuConfig::default().with_num_sms(16);

    let mut results = Vec::new();
    let mut reference: Option<Vec<u8>> = None;
    for model in COMPARISON_MODELS {
        let mut g = w.gmem.clone();
        let rec = run_model(model, &w, &cfg, &mut g, None, None)?;
        match &reference {
            None => reference = Some(g.bytes().to_vec()),
            Some(bytes) => assert_eq!(
                bytes.as_slice(),
                g.bytes(),
                "{} changed results — machine models must be value-preserving",
                model.name()
            ),
        }
        results.push((model.name(), rec.stats, rec.energy.total_pj()));
    }

    let base = results[0].1.clone();
    let base_e = results[0].2;
    println!(
        "workload {name} ({} launches), results identical across machines ✓\n",
        w.launches.len()
    );
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "machine", "warp instrs", "reduction", "cycles", "speedup", "energy"
    );
    for (mname, s, e) in &results {
        println!(
            "{:>10} {:>12} {:>9.1}% {:>10} {:>9.2}x {:>9.1}%",
            mname,
            s.warp_instrs,
            100.0 * (base.warp_instrs as f64 - s.warp_instrs as f64) / base.warp_instrs as f64,
            s.cycles,
            base.cycles as f64 / s.cycles as f64,
            100.0 * (base_e - e) / base_e,
        );
    }
    Ok(())
}
