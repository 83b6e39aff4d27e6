//! Self-tests of the benchmark program: the percentile helper, the scrape of
//! the service's Prometheus text, the record digest, and the agreement of
//! `BENCHMARK.json` with the metric lists the program prints.

use std::sync::atomic::Ordering;

use r2d2_e2ebench::digest::{record_digest, sweep_specs, Golden};
use r2d2_e2ebench::prom::scrape;
use r2d2_e2ebench::stats::{beyond, median, min_samples_for, percentile, tail_percentile};
use r2d2_e2ebench::{E2E, PER_LAYER, WORKLOADS};
use r2d2_harness::json::{self, Value};
use r2d2_harness::{JobSpec, ModelSpec};
use r2d2_workloads::Size;

#[test]
fn percentiles_need_ten_samples_beyond_the_tail() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(median(&xs), Some(50.5));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[]), None);
    assert_eq!(percentile(&xs, 0.9), Some(90.0));
    assert_eq!(beyond(100, 0.9), 10);
    assert_eq!(tail_percentile(&xs, 0.9), Some(90.0));
    // 99 samples: the p90 is the 90th, with only 9 beyond it.
    assert_eq!(beyond(99, 0.9), 9);
    assert_eq!(tail_percentile(&xs[..99], 0.9), None);
    assert_eq!(min_samples_for(0.9), 100);
    assert_eq!(min_samples_for(0.99), 1000);
    assert_eq!(min_samples_for(0.5), 20);
}

#[test]
fn scrape_reads_serve_and_dispatch_expositions() {
    let backend = |simulated: u64, deduped: u64| {
        let m = r2d2_serve::metrics::Metrics::default();
        m.simulated.store(simulated, Ordering::Relaxed);
        m.cache_hits.store(1, Ordering::Relaxed);
        m.deduped.store(deduped, Ordering::Relaxed);
        m.render(0)
    };
    let b0 = backend(3, 2);
    let s = scrape(&b0);
    assert_eq!(s["r2d2_serve_jobs_simulated_total"], 3.0);
    assert_eq!(s["r2d2_serve_jobs_deduped_total"], 2.0);
    assert_eq!(s["r2d2_serve_cache_hit_rate"], 0.25);
    assert_eq!(s["r2d2_serve_jobs_failed_total"], 0.0);
    assert!(
        !s.keys().any(|k| k.starts_with('#')),
        "comments are skipped"
    );

    let d = r2d2_dispatch::DispatchMetrics::default();
    d.retries_total.store(4, Ordering::Relaxed);
    let fleet = d.render_local(2, 2) + &r2d2_dispatch::metrics::render_fleet(&[b0, backend(5, 1)]);
    let s = scrape(&fleet);
    assert_eq!(s["dispatch_retries_total"], 4.0);
    assert_eq!(s["dispatch_failover_total"], 0.0);
    assert_eq!(s["r2d2_serve_jobs_deduped_total"], 3.0);
    assert_eq!(s["r2d2_serve_jobs_simulated_total"], 8.0);
}

#[test]
fn digest_repeats_across_in_process_runs_and_matches_golden() {
    let golden = Golden::load().expect("committed digests parse");
    let specs = [
        JobSpec::new("NN", Size::Small, ModelSpec::Baseline),
        JobSpec::new("NN", Size::Small, ModelSpec::R2d2),
        JobSpec::new("BP", Size::Small, ModelSpec::Dac),
        JobSpec::new("BP", Size::Small, ModelSpec::Ideals),
    ];
    for spec in &specs {
        let a = r2d2_harness::execute(spec).expect("job runs");
        let mut b = r2d2_harness::execute(spec).expect("job runs");
        assert_eq!(record_digest(&a), record_digest(&b), "{}", spec.label());
        golden
            .check(spec, &a)
            .expect("matches the committed digest");
        b.wall_ms += 1.0;
        b.cached = true;
        assert_eq!(
            record_digest(&a),
            record_digest(&b),
            "timing fields are not digested"
        );
        b.stats.cycles += 1;
        assert!(
            golden.check(spec, &b).is_err(),
            "a changed Stats fails the check"
        );
    }
}

#[test]
fn golden_covers_every_sweep_spec() {
    let golden = Golden::load().expect("committed digests parse");
    let specs = sweep_specs();
    assert_eq!(specs.len(), 453);
    assert_eq!(golden.len(), specs.len());
}

#[test]
fn benchmark_json_names_the_printed_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let v = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(E2E));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, WORKLOADS);
}
