//! `r2d2-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this fresh process, prints a human-readable report
//! and, as the last line of stdout, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). Temporary caches live under `.bench_out/`
//! in the working directory and are removed afterwards; the report JSON and,
//! for traced runs, the Chrome trace stay there.
//!
//! `r2d2-e2ebench --bless` re-simulates every spec and rewrites
//! `golden/records.digest`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use r2d2_e2ebench::digest::{self, Golden};
use r2d2_e2ebench::span::chrome_trace;
use r2d2_e2ebench::{
    fleet, git_revision, host_parallelism, nproc, peak_rss_mb, serve_hit, sweep, Outcome, RunCfg,
    E2E, PER_LAYER, WORKLOADS,
};
use r2d2_harness::json::{self, Value};

const USAGE: &str = "usage: r2d2-e2ebench --workload <sweep-cold|serve-hit|fleet-cold> \
--seed <n> --seconds <s> --trace <0|1>\n       r2d2-e2ebench --bless";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Re-simulate every spec and rewrite the committed digests.
fn bless(work: &Path) -> Result<(), String> {
    let specs = digest::sweep_specs();
    let cache = r2d2_harness::Cache::at(&work.join("cache"));
    let opts = r2d2_harness::RunOptions {
        jobs: 0,
        use_cache: false,
        verbose: false,
    };
    let summary = r2d2_harness::run_jobs_with(&specs, &opts, &cache);
    let text = digest::render(&specs, &summary.records)?;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/records.digest");
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {} digests to {}", specs.len(), path.display());
    Ok(())
}

fn run(args: &Args, work: PathBuf) -> Result<Outcome, String> {
    let golden = Golden::load()?;
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
    };
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "sweep-cold" => sweep::run(&cfg, &golden, &mut out)?,
        "serve-hit" => serve_hit::run(&cfg, &golden, &mut out)?,
        "fleet-cold" => fleet::run(&cfg, &golden, &mut out)?,
        other => unreachable!("workload {other} validated by parse_args"),
    }
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
    out.set("ops.attempted", out.attempted as f64);
    out.set("ops.succeeded", (out.attempted - out.failed) as f64);
    out.set("ops.failed", out.failed as f64);
    Ok(out)
}

fn metric_json(out: &Outcome, list: &[(&str, &str)]) -> Value {
    Value::Obj(
        list.iter()
            .map(|(name, unit)| {
                let v = out.get(name).unwrap_or(0.0);
                (
                    name.to_string(),
                    json::obj(vec![("value", json::num(v)), ("unit", json::s(unit))]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    // Specs leave `threads` at 0, which defers to this variable; unset, every
    // simulation runs on one thread. (A spec with an explicit thread count
    // never matches its cache entry, whose embedded spec stores none.)
    std::env::remove_var("R2D2_THREADS");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if argv == ["--bless"] {
        let r = bless(&work);
        let _ = std::fs::remove_dir_all(&work);
        return match r {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bless failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&args, work.clone());
    let _ = std::fs::remove_dir_all(&work);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let missing: Vec<&str> = E2E
        .iter()
        .filter(|(n, _)| !args.trace && !out.get(n).is_some_and(|v| v > 0.0))
        .map(|(n, _)| *n)
        .collect();
    let correct = out.errors.is_empty() && out.failed == 0 && missing.is_empty();
    let provenance = vec![
        ("workload", json::s(&args.workload)),
        ("seed", json::int(args.seed)),
        ("seconds", json::num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("git_revision", json::s(&git_revision())),
        ("nproc", json::int(nproc() as u64)),
        ("host_parallelism", json::int(host_parallelism() as u64)),
    ];
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );

    println!("== r2d2 e2ebench: {} ==", args.workload);
    for (k, v) in &provenance {
        println!("  {k}: {}", v.to_json());
    }
    for line in &out.lines {
        println!("{line}");
    }
    for e in &out.errors {
        println!("CHECK FAILED: {e}");
    }
    if !missing.is_empty() {
        println!("CHECK FAILED: no measurement for {}", missing.join(", "));
    }
    let list = if args.trace { PER_LAYER } else { E2E };
    for (name, unit) in list {
        println!("  {name:<32} {:>16.4} {unit}", out.get(name).unwrap_or(0.0));
    }
    println!(
        "operations: {} attempted, {} failed; correct: {correct}",
        out.attempted, out.failed
    );

    let _ = std::fs::create_dir_all(&out_dir);
    if args.trace {
        let trace = chrome_trace(&out.spans, provenance.clone());
        let path = out_dir.join(format!("{stem}.trace.json"));
        match std::fs::write(&path, trace.to_json()) {
            Ok(()) => println!("spans: {} written to {}", out.spans.len(), path.display()),
            Err(e) => println!("spans: could not write {}: {e}", path.display()),
        }
    }
    let mut report = provenance;
    report.push(("correct", Value::Bool(correct)));
    report.push(("attempted", json::int(out.attempted)));
    report.push(("failed", json::int(out.failed)));
    report.push(("end_to_end", metric_json(&out, E2E)));
    if args.trace {
        report.push(("per_layer", metric_json(&out, PER_LAYER)));
    }
    report.push((
        "lines",
        Value::Arr(out.lines.iter().map(|l| json::s(l)).collect()),
    ));
    let _ = std::fs::write(
        out_dir.join(format!("{stem}.report.json")),
        json::obj(report).to_json(),
    );

    let result = json::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", json::int(out.attempted)),
        ("failed", json::int(out.failed)),
        ("metrics", metric_json(&out, list)),
    ]);
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
