//! Machine-checked guarantees for the stall-attribution profiler
//! (`r2d2-trace` wired into `r2d2_sim::timing`):
//!
//! 1. **Conservation** — for every workload in the zoo under every machine
//!    model, `issued_sm_cycles + sum(stall_sm_cycles) == cycles * num_sms`:
//!    each SM-cycle is charged to exactly one category, none double-counted,
//!    none dropped.
//! 2. **Loop independence** — the event-driven loop's attribution (totals,
//!    per-SM, per-warp) is identical to the lockstep reference's, i.e. the
//!    idle-skip replay in `Profiler::idle_skip` reconstructs exactly the
//!    cycles the lockstep loop walks one by one, and the per-SM repeat in
//!    `Profiler::sm_cycle_repeat` does the same for SMs the event-driven
//!    loop leaves asleep. Checked at 4 SMs and at the default 80, where
//!    most SMs drain or sit empty.
//! 3. **Observer neutrality** — attaching the profiler does not change the
//!    simulation: `Stats` (minus the profile fields it fills in) and memory
//!    match an unobserved run.

use r2d2::harness::sets::COMPARISON_MODELS;
use r2d2::prelude::*;
use r2d2::sim::{LoopKind, Profiler};
use r2d2::workloads;

fn run_profiled(
    w: &Workload,
    kind: LoopKind,
    model: ModelSpec,
    num_sms: u32,
) -> (Stats, Vec<u8>, Profiler) {
    let cfg = GpuConfig::default()
        .with_num_sms(num_sms)
        .with_loop_kind(kind);
    let mut g = w.gmem.clone();
    let mut prof = Profiler::new(64);
    let rec = run_model(model, w, &cfg, &mut g, Some(&mut prof), None).unwrap();
    (rec.stats, g.bytes().to_vec(), prof)
}

fn assert_attribution_agrees(num_sms: u32) {
    for (name, _) in workloads::NAMES {
        let w = workloads::build(name, Size::Small).unwrap();
        for model in COMPARISON_MODELS {
            let (s_ref, _, p_ref) = run_profiled(&w, LoopKind::Lockstep, model, num_sms);
            let (s_ev, _, p_ev) = run_profiled(&w, LoopKind::EventDriven, model, num_sms);
            let model = format!("{}@{num_sms} SMs", model.name());

            for (loop_name, s, p) in [("lockstep", &s_ref, &p_ref), ("event", &s_ev, &p_ev)] {
                p.check_invariant()
                    .unwrap_or_else(|e| panic!("{name}/{model}/{loop_name}: {e}"));
                assert_eq!(
                    p.total_cycles(),
                    s.cycles,
                    "{name}/{model}/{loop_name}: profiler cycle count drifted from Stats"
                );
                assert_eq!(p.num_sms(), num_sms as usize, "{name}/{model}/{loop_name}");
            }

            assert_eq!(
                p_ref.issued_sm_cycles(),
                p_ev.issued_sm_cycles(),
                "{name}/{model}: issued SM-cycles diverged across loops"
            );
            assert_eq!(
                p_ref.per_sm(),
                p_ev.per_sm(),
                "{name}/{model}: per-SM stall attribution diverged across loops"
            );
            assert_eq!(
                p_ref.per_warp(),
                p_ev.per_warp(),
                "{name}/{model}: per-warp stall attribution diverged across loops"
            );
        }
    }
}

#[test]
fn attribution_invariant_holds_across_zoo_models_and_loops() {
    assert_attribution_agrees(4);
}

#[test]
fn attribution_agrees_at_the_default_sm_count() {
    assert_attribution_agrees(GpuConfig::default().num_sms);
}

#[test]
fn profiler_is_a_pure_observer() {
    for name in ["BP", "GEM", "BFS", "FFT"] {
        let w = workloads::build(name, Size::Small).unwrap();
        let cfg = GpuConfig::default().with_num_sms(4);

        let mut g_plain = w.gmem.clone();
        let plain = run_model(ModelSpec::Baseline, &w, &cfg, &mut g_plain, None, None)
            .unwrap()
            .stats;

        let (mut observed, s_g, prof) =
            run_profiled(&w, LoopKind::default(), ModelSpec::Baseline, 4);
        assert_eq!(
            g_plain.bytes(),
            s_g,
            "{name}: profiling changed the memory image"
        );

        // The profiled Stats must equal the plain Stats once the fields only
        // the profiler fills are cleared.
        observed.absorb_profile(&prof);
        assert!(observed.attributed_sm_cycles() > 0, "{name}: empty profile");
        observed.issued_sm_cycles = 0;
        observed.stall_sm_cycles = Default::default();
        assert_eq!(plain, observed, "{name}: profiling perturbed Stats");
    }
}
