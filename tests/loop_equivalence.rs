//! Differential guarantee for the event-driven timing loop: across the full
//! workload zoo and every machine model, `LoopKind::EventDriven` must produce
//! bit-identical `Stats` (cycles, every counter, every energy event) and
//! bit-identical global memory to the `LoopKind::Lockstep` reference.
//!
//! This is the test that licenses the cycle-skipping, per-SM wakeup and
//! persistent-ordering optimizations in `r2d2_sim::timing` — see DESIGN.md
//! "Timing-loop internals". It runs at 4 SMs, where every SM stays busy, and
//! at the default 80 SMs the figure sweeps use, where most SMs drain or sit
//! empty and sleep between wakeups.

use r2d2::harness::sets::COMPARISON_MODELS;
use r2d2::prelude::*;
use r2d2::sim::LoopKind;
use r2d2::workloads;

fn run(w: &Workload, kind: LoopKind, model: ModelSpec, num_sms: u32) -> (Stats, Vec<u8>) {
    let cfg = GpuConfig::default()
        .with_num_sms(num_sms)
        .with_loop_kind(kind);
    let mut g = w.gmem.clone();
    let rec = run_model(model, w, &cfg, &mut g, None, None).unwrap();
    (rec.stats, g.bytes().to_vec())
}

fn assert_loops_agree(num_sms: u32) {
    for (name, _) in workloads::NAMES {
        let w = workloads::build(name, Size::Small).unwrap();
        for model in COMPARISON_MODELS {
            let (s_ref, m_ref) = run(&w, LoopKind::Lockstep, model, num_sms);
            let (s_ev, m_ev) = run(&w, LoopKind::EventDriven, model, num_sms);
            let at = format!("{name}/{}@{num_sms} SMs", model.name());
            assert_eq!(s_ref, s_ev, "{at}: Stats diverged across loops");
            assert_eq!(m_ref, m_ev, "{at}: memory diverged across loops");
        }
    }
}

#[test]
fn event_driven_loop_is_bit_identical_across_zoo_and_models() {
    assert_loops_agree(4);
}

#[test]
fn event_driven_loop_is_bit_identical_at_the_default_sm_count() {
    assert_loops_agree(GpuConfig::default().num_sms);
}
