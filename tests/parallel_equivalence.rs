//! Differential guarantee for the sharded multi-threaded timing loop: for
//! the full workload zoo, every machine model, and both loop kinds, running
//! with `threads ∈ {2, 8}` must produce bit-identical `Stats` and global
//! memory to the single-threaded reference — and, when profiled, bit-identical
//! stall attribution satisfying the conservation invariant.
//!
//! This is the test that licenses the epoch protocol in
//! `r2d2_sim::timing::shard` — see DESIGN.md "Sharded execution & epoch
//! protocol".

use r2d2::harness::sets::COMPARISON_MODELS;
use r2d2::prelude::*;
use r2d2::sim::{LoopKind, Profiler};
use r2d2::workloads;

/// 8 SMs so `threads = 8` genuinely runs eight single-SM shards.
const NUM_SMS: u32 = 8;

/// Run every launch of `w` under `model`, optionally profiled, and return
/// the merged stats, final memory image, and profiler (if any).
fn run_zoo(
    w: &Workload,
    kind: LoopKind,
    model: ModelSpec,
    threads: u32,
    profiled: bool,
) -> (Stats, Vec<u8>, Option<Profiler>) {
    let cfg = GpuConfig::default()
        .with_num_sms(NUM_SMS)
        .with_loop_kind(kind)
        .with_threads(threads);
    let mut g = w.gmem.clone();
    let mut prof = profiled.then(|| Profiler::new(64));
    let rec = run_model(model, w, &cfg, &mut g, prof.as_mut(), None).unwrap();
    (rec.stats, g.bytes().to_vec(), prof)
}

#[test]
fn sharded_runs_are_bit_identical_across_zoo_models_and_loops() {
    for (name, _) in workloads::NAMES {
        let w = workloads::build(name, Size::Small).unwrap();
        for kind in [LoopKind::Lockstep, LoopKind::EventDriven] {
            for spec in COMPARISON_MODELS {
                let model = spec.name();
                let (s_ref, m_ref, p_ref) = run_zoo(&w, kind, spec, 1, true);
                let p_ref = p_ref.unwrap();
                for threads in [2, 8] {
                    let (s_par, m_par, p_par) = run_zoo(&w, kind, spec, threads, true);
                    let p_par = p_par.unwrap();
                    assert_eq!(
                        s_ref, s_par,
                        "{name}/{model}/{kind:?}: Stats diverged at threads={threads}"
                    );
                    assert_eq!(
                        m_ref, m_par,
                        "{name}/{model}/{kind:?}: memory diverged at threads={threads}"
                    );
                    p_par.check_invariant().unwrap_or_else(|e| {
                        panic!("{name}/{model}/{kind:?} threads={threads}: {e}")
                    });
                    assert_eq!(
                        p_par.total_cycles(),
                        s_par.cycles,
                        "{name}/{model}/{kind:?}: profiler cycles drifted from Stats"
                    );
                    assert_eq!(
                        p_ref.issued_sm_cycles(),
                        p_par.issued_sm_cycles(),
                        "{name}/{model}/{kind:?}: issued SM-cycles diverged at threads={threads}"
                    );
                    assert_eq!(
                        p_ref.per_sm(),
                        p_par.per_sm(),
                        "{name}/{model}/{kind:?}: per-SM attribution diverged at threads={threads}"
                    );
                    assert_eq!(
                        p_ref.per_warp(),
                        p_par.per_warp(),
                        "{name}/{model}/{kind:?}: per-warp attribution diverged at threads={threads}"
                    );
                }
            }
        }
    }
}

/// Repeated 8-thread runs must be byte-for-byte repeatable: the epoch drain
/// is deterministic, so thread scheduling noise must never show through.
#[test]
fn sharded_runs_are_deterministic_across_repeats() {
    for name in ["GEM", "HIS", "SSSP", "BFS"] {
        let w = workloads::build(name, Size::Small).unwrap();
        for kind in [LoopKind::Lockstep, LoopKind::EventDriven] {
            let (s0, m0, p0) = run_zoo(&w, kind, ModelSpec::Baseline, 8, true);
            for _ in 0..2 {
                let (s, m, p) = run_zoo(&w, kind, ModelSpec::Baseline, 8, true);
                assert_eq!(s0, s, "{name}/{kind:?}: Stats not repeatable");
                assert_eq!(m0, m, "{name}/{kind:?}: memory not repeatable");
                assert_eq!(
                    p0.as_ref().unwrap().per_warp(),
                    p.as_ref().unwrap().per_warp(),
                    "{name}/{kind:?}: attribution not repeatable"
                );
            }
        }
    }
}
